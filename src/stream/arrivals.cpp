#include "stream/arrivals.hpp"

#include <algorithm>
#include <cmath>

namespace radiocast::stream {

const char* arrival_kind_name(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kPeriodic: return "periodic";
  }
  return "?";
}

bool arrival_kind_from_string(const std::string& s, ArrivalKind& out) {
  if (s == "poisson") {
    out = ArrivalKind::kPoisson;
    return true;
  }
  if (s == "periodic") {
    out = ArrivalKind::kPeriodic;
    return true;
  }
  return false;
}

namespace {

void emit(std::vector<Arrival>& out, radio::NodeId node, std::uint64_t round,
          std::uint32_t seq, std::uint32_t payload_bytes, Rng& rng) {
  Arrival a;
  a.round = round;
  a.node = node;
  a.packet.id = radio::make_packet_id(node, seq);
  a.packet.payload.resize(payload_bytes);
  for (auto& b : a.packet.payload) b = static_cast<std::uint8_t>(rng() & 0xff);
  out.push_back(std::move(a));
}

}  // namespace

std::vector<Arrival> make_arrival_schedule(std::uint32_t n,
                                           const ArrivalConfig& cfg,
                                           std::uint64_t horizon) {
  std::vector<Arrival> out;
  if (cfg.rate <= 0 || horizon == 0) return out;

  Rng master(cfg.seed);
  for (radio::NodeId v = 0; v < n; ++v) {
    // One child stream per node, split in node order: a node's schedule is
    // independent of every other node's draw count.
    Rng child = master.split();
    std::uint32_t seq = 0;
    if (cfg.kind == ArrivalKind::kPeriodic) {
      const auto period = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(std::llround(1.0 / cfg.rate)));
      for (std::uint64_t t = child.next_below(period); t < horizon; t += period) {
        emit(out, v, t, seq++, cfg.payload_bytes, child);
      }
    } else {
      // Exponential inter-arrival times accumulated in continuous time;
      // the arrival lands in the round containing the accumulated point,
      // so bursts (several arrivals in one round) occur naturally.
      double t = 0;
      while (true) {
        const double u = child.next_double();  // in [0, 1)
        t += -std::log(1.0 - u) / cfg.rate;
        if (!(t < static_cast<double>(horizon))) break;
        emit(out, v, static_cast<std::uint64_t>(t), seq++, cfg.payload_bytes,
             child);
      }
    }
  }

  // Node-order generation + stable sort => ties break in ascending node
  // order, giving one canonical schedule.
  std::stable_sort(out.begin(), out.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.round < b.round;
                   });
  return out;
}

std::vector<Arrival> make_arrivals(std::uint32_t n, std::uint32_t k,
                                   std::uint64_t spread_rounds,
                                   std::uint32_t payload_bytes, Rng& rng) {
  std::vector<Arrival> arrivals;
  std::vector<std::uint32_t> seq(n, 0);
  arrivals.reserve(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    Arrival a;
    a.round = rng.next_below(std::max<std::uint64_t>(1, spread_rounds));
    a.node = static_cast<radio::NodeId>(rng.next_below(n));
    a.packet.id = radio::make_packet_id(a.node, seq[a.node]++);
    a.packet.payload.resize(payload_bytes);
    for (auto& b : a.packet.payload) b = static_cast<std::uint8_t>(rng() & 0xff);
    arrivals.push_back(std::move(a));
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& x, const Arrival& y) { return x.round < y.round; });
  return arrivals;
}

}  // namespace radiocast::stream
