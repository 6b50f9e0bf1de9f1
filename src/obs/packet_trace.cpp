#include "obs/packet_trace.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/math_util.hpp"

namespace radiocast::obs {

const char* PacketTracer::via_name(Via via) {
  switch (via) {
    case Via::kOrigin: return "origin";
    case Via::kData: return "data";
    case Via::kPlain: return "plain";
    case Via::kDecode: return "decode";
  }
  return "?";
}

void PacketTracer::begin_run(const graph::Graph& g, const core::ResolvedConfig& rc,
                             const std::vector<radio::Packet>& truth,
                             const radio::FaultModel& /*faults*/,
                             bool /*collision_detection*/) {
  RC_ASSERT(g.num_nodes() >= 1);
  RC_ASSERT(rc.group_size >= 1 && rc.group_size <= 64);
  n_ = g.num_nodes();
  k_ = static_cast<std::uint32_t>(truth.size());
  group_size_ = rc.group_size;
  group_count_ = k_ == 0 ? 0 : static_cast<std::uint32_t>(ceil_div(k_, group_size_));
  truth_ = truth;
  truth_ids_.clear();
  truth_ids_.reserve(truth_.size());
  for (const radio::Packet& p : truth_) truth_ids_.push_back(p.id);
  RC_ASSERT_MSG(std::is_sorted(truth_ids_.begin(), truth_ids_.end()),
                "begin_run expects truth sorted by packet id");
  cells_.assign(static_cast<std::size_t>(k_) * n_, Cell{});
  trackers_.clear();
  trackers_.resize(static_cast<std::size_t>(n_) * group_count_);
  group_done_.assign(static_cast<std::size_t>(n_) * group_count_, 0);
  flights_.clear();
  dropped_flights_ = 0;
  // Origins hold their packets from round 0. Ids lead with the origin, so
  // truth order is node-major: the flight log starts node by node.
  for (std::uint32_t p = 0; p < k_; ++p) {
    const radio::NodeId origin = radio::packet_origin(truth_ids_[p]);
    RC_ASSERT(origin < n_);
    record(p, origin, 0, origin, Via::kOrigin);
  }
}

std::uint32_t PacketTracer::packet_index(radio::PacketId id) const {
  const auto it = std::lower_bound(truth_ids_.begin(), truth_ids_.end(), id);
  if (it == truth_ids_.end() || *it != id) return k_;
  return static_cast<std::uint32_t>(it - truth_ids_.begin());
}

std::uint32_t PacketTracer::group_width(std::uint32_t group_id) const {
  const std::uint64_t begin = static_cast<std::uint64_t>(group_id) * group_size_;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(k_, begin + group_size_) - begin);
}

void PacketTracer::record(std::uint32_t packet, radio::NodeId node,
                          std::uint64_t latency, radio::NodeId from, Via via) {
  Cell& c = cell(packet, node);
  if (c.latency_plus1 != 0) return;  // only the FIRST hold counts
  c.latency_plus1 = static_cast<std::uint32_t>(latency + 1);
  c.from = from;
  c.via = via;
  if (via == Via::kOrigin) {
    c.depth = 0;
  } else {
    // The sender held the packet when it transmitted (it either decoded or
    // relayed it), so its cell is set on every reachable path; depth 1
    // covers the defensive fallback.
    const Cell& sender = cell(packet, from);
    c.depth = sender.latency_plus1 != 0
                  ? static_cast<std::uint16_t>(sender.depth + 1)
                  : static_cast<std::uint16_t>(1);
  }
  if (!opts_.flight_paths) return;
  if (flights_.size() >= opts_.max_flight_events) {
    ++dropped_flights_;
    return;
  }
  flights_.push_back({latency, packet, node, from, c.depth, via});
}

void PacketTracer::feed_row(radio::NodeId node, std::uint32_t group_id,
                            std::uint64_t mask, std::uint64_t latency,
                            radio::NodeId from) {
  if (group_id >= group_count_ || mask == 0) return;
  const std::size_t slot = static_cast<std::size_t>(node) * group_count_ + group_id;
  if (group_done_[slot] != 0) return;  // mirrors DisseminationState's skip
  const std::uint32_t width = group_width(group_id);
  if (!trackers_[slot]) trackers_[slot] = std::make_unique<gf2::MaskRank>(width);
  gf2::MaskRank& tracker = *trackers_[slot];
  const std::uint64_t width_mask =
      width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  tracker.add(mask & width_mask);
  if (!tracker.complete()) return;
  group_done_[slot] = 1;
  trackers_[slot].reset();
  const std::uint32_t begin = group_id * group_size_;
  for (std::uint32_t p = begin; p < begin + width; ++p) {
    record(p, node, latency, from, Via::kDecode);
  }
}

void PacketTracer::on_deliver(radio::Round round, radio::NodeId receiver,
                              std::uint32_t /*tx_index*/, const radio::Message& msg) {
  if (k_ == 0) return;
  const std::uint64_t latency = round + 1;  // held after round `round`
  switch (msg.body.index()) {
    case 2: {  // DataMsg — content reception, addressed or overheard
      const auto& m = *std::get_if<radio::DataMsg>(&msg.body);
      const std::uint32_t p = packet_index(m.packet.id);
      if (p < k_) record(p, receiver, latency, msg.from, Via::kData);
      break;
    }
    case 4: {  // PlainPacketMsg — direct hold plus a unit decoder row
      const auto& m = *std::get_if<radio::PlainPacketMsg>(&msg.body);
      const std::uint32_t p = packet_index(m.packet.id);
      if (p < k_) record(p, receiver, latency, msg.from, Via::kPlain);
      if (m.index_in_group < 64) {
        feed_row(receiver, m.group_id, std::uint64_t{1} << m.index_in_group,
                 latency, msg.from);
      }
      break;
    }
    case 5: {  // CodedMsg — one coefficient-mask row
      const auto& m = *std::get_if<radio::CodedMsg>(&msg.body);
      feed_row(receiver, m.group_id, m.coeffs, latency, msg.from);
      break;
    }
    default:
      break;  // bfs / alarm / ack carry no packet content
  }
}

bool PacketTracer::held(std::uint32_t packet, radio::NodeId node) const {
  return cell(packet, node).latency_plus1 != 0;
}

std::uint64_t PacketTracer::latency(std::uint32_t packet, radio::NodeId node) const {
  const Cell& c = cell(packet, node);
  if (c.latency_plus1 == 0) return ~std::uint64_t{0};
  return c.latency_plus1 - 1;
}

radio::NodeId PacketTracer::delivered_by(std::uint32_t packet,
                                         radio::NodeId node) const {
  return cell(packet, node).from;
}

std::uint16_t PacketTracer::hop_depth(std::uint32_t packet, radio::NodeId node) const {
  return cell(packet, node).depth;
}

PacketTracer::Via PacketTracer::via(std::uint32_t packet, radio::NodeId node) const {
  return cell(packet, node).via;
}

std::uint32_t PacketTracer::undelivered(std::uint32_t packet) const {
  std::uint32_t missing = 0;
  for (radio::NodeId v = 0; v < n_; ++v) {
    if (cell(packet, v).latency_plus1 == 0) ++missing;
  }
  return missing;
}

LogHistogram PacketTracer::packet_latencies(std::uint32_t packet) const {
  LogHistogram h;
  for (radio::NodeId v = 0; v < n_; ++v) {
    const Cell& c = cell(packet, v);
    if (c.latency_plus1 == 0 || c.via == Via::kOrigin) continue;
    h.add(c.latency_plus1 - 1);
  }
  return h;
}

LogHistogram PacketTracer::all_latencies() const {
  LogHistogram h;
  for (std::uint32_t p = 0; p < k_; ++p) h.merge(packet_latencies(p));
  return h;
}

std::vector<PacketTracer::FlightEvent> PacketTracer::flight_path(
    std::uint32_t packet) const {
  std::vector<FlightEvent> out;
  for (const FlightEvent& e : flights_) {
    if (e.packet == packet) out.push_back(e);
  }
  return out;
}

}  // namespace radiocast::obs
