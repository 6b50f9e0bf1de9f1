// E8 — Lemma 6: one FORWARD execution delivers a whole ⌈log n⌉-packet
// group from a layer T to every node of the next layer R, w.h.p., within
// O(log n) Decay epochs; and the coded variant's per-phase goodput beats
// uncoded (coupon-collector) forwarding.
//
// Setup: a bipartite layer graph — |T| transmitters that all decoded the
// group, |R| receivers, each receiver adjacent to every transmitter
// (receiver in-degree = |T| = Δ). Transmitters run exactly the FORWARD
// rule; we measure, per receiver, the epochs until decode.
//
// Expected shape: epochs-to-decode concentrates around
// (group size + small overhead) / per-epoch-reception-rate ~ O(log n);
// decode failure within 10·log n epochs is rare; uncoded needs a
// log-factor more epochs at the same group size (coupon collector).
#include <memory>

#include "bench_util.hpp"
#include "gf2/coding.hpp"
#include "protocols/decay.hpp"
#include "radio/network.hpp"

namespace {

using namespace radiocast;

/// Transmitter of the FORWARD rule over a known group.
class ForwardTx final : public radio::NodeProtocol {
 public:
  ForwardTx(std::vector<gf2::Payload> group, std::uint32_t epoch_len, bool coded,
            Rng rng)
      : rng_(rng), decay_(epoch_len), encoder_(std::move(group)), coded_(coded) {}

  std::optional<radio::MessageBody> on_transmit(radio::Round round) override {
    if (!decay_.decide(round, rng_)) return std::nullopt;
    const auto w = static_cast<std::uint16_t>(encoder_.width());
    if (coded_) {
      const gf2::BitVec coeffs = gf2::BitVec::random(encoder_.width(), rng_);
      gf2::CodedRow row = encoder_.encode(coeffs);
      radio::CodedMsg msg;
      msg.group_id = 0;
      msg.group_count = 1;
      msg.group_size = w;
      msg.coeffs = coeffs.to_word();
      msg.payload = std::move(row.payload);
      return msg;
    }
    const auto index = static_cast<std::size_t>(rng_.next_below(encoder_.width()));
    radio::PlainPacketMsg msg;
    msg.packet.id = radio::make_packet_id(0, static_cast<std::uint32_t>(index));
    msg.packet.payload = encoder_.group()[index];
    msg.group_id = 0;
    msg.group_count = 1;
    msg.index_in_group = static_cast<std::uint16_t>(index);
    msg.group_size = w;
    return msg;
  }

 private:
  Rng rng_;
  protocols::Decay decay_;
  gf2::GroupEncoder encoder_;
  bool coded_;
};

/// Receiver feeding every row into a decoder; records the decode round.
class ForwardRx final : public radio::NodeProtocol {
 public:
  ForwardRx(std::size_t width) : decoder_(width) {}
  std::optional<radio::MessageBody> on_transmit(radio::Round) override {
    return std::nullopt;
  }
  void on_receive(radio::Round round, const radio::Message& msg) override {
    if (decoder_.complete()) return;
    gf2::CodedRow row;
    if (const auto* coded = std::get_if<radio::CodedMsg>(&msg.body)) {
      row.coeffs = gf2::BitVec::from_word(coded->group_size, coded->coeffs);
      row.payload = coded->payload;
    } else if (const auto* plain = std::get_if<radio::PlainPacketMsg>(&msg.body)) {
      row.coeffs = gf2::BitVec::unit(plain->group_size, plain->index_in_group);
      row.payload = plain->packet.payload;
    } else {
      return;
    }
    ++rows_;
    decoder_.add_row(std::move(row));
    if (decoder_.complete()) decode_round_ = round;
  }
  bool done() const override { return decoder_.complete(); }

  gf2::IncrementalDecoder decoder_;
  std::uint64_t rows_ = 0;
  radio::Round decode_round_ = 0;
};

/// Bipartite layer: m transmitters, r receivers, complete T x R edges.
graph::Graph layer_graph(std::uint32_t m, std::uint32_t r) {
  graph::Graph g(m + r);
  for (std::uint32_t t = 0; t < m; ++t) {
    for (std::uint32_t v = 0; v < r; ++v) g.add_edge(t, m + v);
  }
  g.finalize();
  return g;
}

}  // namespace

int main() {
  using namespace radiocast::benchutil;
  const int seeds = seeds_from_env();

  banner("E8 bench_forward",
         "Lemma 6: FORWARD moves a logn-size group one layer in O(logn) epochs");

  const std::uint32_t n_model = 256;  // group size = log n = 8
  const std::uint32_t group_size = 8;
  const std::uint32_t receivers = 16;
  print_meta(std::cout, "group size", std::to_string(group_size));
  print_meta(std::cout, "receivers", std::to_string(receivers));

  Table t({"|T|=Δ", "mode", "median epochs to decode", "p90 epochs",
           "median rows", "decoded within 10logn"});
  for (const std::uint32_t m : {1u, 2u, 4u, 16u, 64u}) {
    const std::uint32_t epoch_len = radiocast::log2_at_least_one(std::max(2u, m));
    for (const bool coded : {true, false}) {
      SampleSet epochs, rows;
      int decoded = 0, total = 0;
      for (int s = 0; s < seeds * 4; ++s) {
        Rng master(1000 + s);
        std::vector<gf2::Payload> group;
        Rng prng(2000 + s);
        for (std::uint32_t i = 0; i < group_size; ++i) {
          gf2::Payload p(16);
          for (auto& b : p) b = static_cast<std::uint8_t>(prng() & 0xff);
          group.push_back(std::move(p));
        }
        const graph::Graph g = layer_graph(m, receivers);
        radio::Network net(g);
        for (std::uint32_t tx = 0; tx < m; ++tx) {
          net.set_protocol(tx, std::make_unique<ForwardTx>(group, epoch_len, coded,
                                                           master.split()));
          net.wake_at_start(tx);
        }
        for (std::uint32_t rx = 0; rx < receivers; ++rx) {
          net.set_protocol(m + rx, std::make_unique<ForwardRx>(group_size));
          net.wake_at_start(m + rx);
        }
        const std::uint64_t budget =
            10ull * radiocast::log2_at_least_one(n_model) * epoch_len * 8;
        net.run_until_done(budget);
        for (std::uint32_t rx = 0; rx < receivers; ++rx) {
          auto& node = static_cast<ForwardRx&>(net.protocol(m + rx));
          ++total;
          if (node.decoder_.complete()) {
            ++decoded;
            epochs.add(static_cast<double>(node.decode_round_ / epoch_len + 1));
            rows.add(static_cast<double>(node.rows_));
          }
        }
      }
      t.row()
          .add(m)
          .add(coded ? "coded" : "uncoded")
          .add(epochs.empty() ? -1.0 : epochs.median(), 1)
          .add(epochs.empty() ? -1.0 : epochs.quantile(0.9), 1)
          .add(rows.empty() ? -1.0 : rows.median(), 1)
          .add(std::to_string(decoded) + "/" + std::to_string(total));
    }
  }
  t.print(std::cout);
  std::cout << "# expected: coded decodes in ~group_size/p_epoch + O(1) epochs for\n"
               "# every |T|; uncoded needs ~H(s)*s receptions (coupon collector),\n"
               "# a ~ln(s) factor more; both degrade gracefully as Delta grows.\n";
  return 0;
}
