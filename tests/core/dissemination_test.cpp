// Stage 4 tests: wire-image round trip, FORWARD scheduling, and full
// dissemination runs on a precomputed BFS layering (isolating Stage 4).
#include "core/dissemination.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "core/runner.hpp"
#include "core/schedule.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "radio/network.hpp"

namespace radiocast::core {
namespace {

TEST(WireImage, RoundTrip) {
  radio::Packet p;
  p.id = radio::make_packet_id(0x1234, 0x99);
  p.payload = {1, 2, 3, 4, 5};
  const gf2::Payload wire = packet_wire_image(p);
  EXPECT_EQ(wire.size(), 8u + 5u);
  const radio::Packet q = packet_from_wire_image(wire);
  EXPECT_EQ(q.id, p.id);
  EXPECT_EQ(q.payload, p.payload);
}

TEST(WireImage, EmptyPayload) {
  radio::Packet p;
  p.id = 42;
  const radio::Packet q = packet_from_wire_image(packet_wire_image(p));
  EXPECT_EQ(q.id, 42u);
  EXPECT_TRUE(q.payload.empty());
}

/// Standalone Stage-4 protocol with distances supplied centrally.
class DissemOnlyNode final : public radio::NodeProtocol {
 public:
  DissemOnlyNode(const DisseminationState::Config& cfg, radio::NodeId self,
                 bool is_root, std::optional<std::uint32_t> dist, Rng rng)
      : rng_(rng), state_(cfg, self, is_root, dist, &rng_) {}

  std::optional<radio::MessageBody> on_transmit(radio::Round round) override {
    return state_.on_transmit(round);
  }
  void on_receive(radio::Round round, const radio::Message& msg) override {
    state_.on_receive(round, msg);
  }
  bool done() const override { return state_.complete(); }

  DisseminationState& state() { return state_; }

 private:
  Rng rng_;
  DisseminationState state_;
};

std::vector<radio::Packet> make_packets(std::uint32_t k, Rng& rng) {
  std::vector<radio::Packet> packets;
  for (std::uint32_t i = 0; i < k; ++i) {
    radio::Packet p;
    p.id = radio::make_packet_id(1, i);
    p.payload.resize(16);
    for (auto& b : p.payload) b = static_cast<std::uint8_t>(rng() & 0xff);
    packets.push_back(std::move(p));
  }
  return packets;
}

struct DissemOutcome {
  bool all_complete = false;
  bool payloads_exact = false;
  std::uint64_t rounds = 0;
};

DissemOutcome run_dissem(const graph::Graph& g, radio::NodeId root, std::uint32_t k,
                         std::uint64_t seed, bool coded = true) {
  KBroadcastConfig kcfg;
  kcfg.know = radio::Knowledge::exact(g);
  kcfg.coded = coded;
  if (!coded) kcfg.group_size = 1;
  const ResolvedConfig rc = resolve(kcfg);
  DisseminationState::Config cfg{&rc};

  Rng prng(seed * 77 + 1);
  std::vector<radio::Packet> packets = make_packets(k, prng);

  const graph::BfsResult tree = graph::bfs(g, root);
  radio::Network net(g);
  Rng master(seed);
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    std::optional<std::uint32_t> dist;
    if (tree.dist[v] != graph::kUnreachable) dist = tree.dist[v];
    net.set_protocol(v, std::make_unique<DissemOnlyNode>(cfg, v, v == root, dist,
                                                         master.split()));
    net.wake_at_start(v);
  }
  static_cast<DissemOnlyNode&>(net.protocol(root)).state().set_root_packets(packets);

  const std::uint64_t bound = 4 * dissemination_rounds_bound(k, rc) + 1000;
  const bool done = net.run_until_done(bound);

  DissemOutcome out;
  out.all_complete = done;
  out.rounds = net.current_round();
  std::sort(packets.begin(), packets.end(),
            [](const radio::Packet& a, const radio::Packet& b) { return a.id < b.id; });
  out.payloads_exact = true;
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    auto& node = static_cast<DissemOnlyNode&>(net.protocol(v));
    std::vector<radio::Packet> got =
        v == root ? packets : node.state().packets();
    if (got != packets) out.payloads_exact = false;
    // The in-place visitor needs no sort: it walks the groups in the
    // root's sorted order.
    std::vector<radio::Packet> visited;
    node.state().for_each_packet([&](const radio::Packet& p) { visited.push_back(p); });
    if (visited != packets) out.payloads_exact = false;
  }
  return out;
}

TEST(Dissemination, SingleGroupOnPath) {
  const graph::Graph g = graph::make_path(12);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const DissemOutcome out = run_dissem(g, 0, 4, seed);
    EXPECT_TRUE(out.all_complete) << seed;
    EXPECT_TRUE(out.payloads_exact) << seed;
  }
}

TEST(Dissemination, ManyGroupsOnPath) {
  const graph::Graph g = graph::make_path(10);
  const DissemOutcome out = run_dissem(g, 0, 40, 1);
  EXPECT_TRUE(out.all_complete);
  EXPECT_TRUE(out.payloads_exact);
}

TEST(Dissemination, GeometricGraphManyGroups) {
  Rng grng(2);
  const graph::Graph g = graph::make_random_geometric(50, 0.3, grng);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const DissemOutcome out = run_dissem(g, 0, 60, seed);
    EXPECT_TRUE(out.all_complete) << seed;
    EXPECT_TRUE(out.payloads_exact) << seed;
  }
}

TEST(Dissemination, StarHighDegree) {
  const graph::Graph g = graph::make_star(40);
  const DissemOutcome out = run_dissem(g, 0, 24, 3);
  EXPECT_TRUE(out.all_complete);
  EXPECT_TRUE(out.payloads_exact);
}

TEST(Dissemination, UncodedModeAlsoDelivers) {
  const graph::Graph g = graph::make_path(8);
  const DissemOutcome out = run_dissem(g, 0, 10, 4, /*coded=*/false);
  EXPECT_TRUE(out.all_complete);
  EXPECT_TRUE(out.payloads_exact);
}

TEST(Dissemination, CodedBeatsUncodedInRounds) {
  // The headline mechanism: coded groups move ⌈log n⌉ packets per 3 phases;
  // uncoded pipelining moves 1. At equal k the coded run must be
  // substantially faster.
  Rng grng(5);
  const graph::Graph g = graph::make_gnp_connected(48, 0.12, grng);
  const std::uint32_t k = 48;
  std::uint64_t coded = 0, uncoded = 0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    coded += run_dissem(g, 0, k, seed, true).rounds;
    uncoded += run_dissem(g, 0, k, seed, false).rounds;
  }
  EXPECT_LT(coded * 2, uncoded);
}

TEST(Dissemination, RootIsCompleteImmediately) {
  const graph::Graph g = graph::make_path(4);
  KBroadcastConfig kcfg;
  kcfg.know = radio::Knowledge::exact(g);
  const ResolvedConfig rc = resolve(kcfg);
  Rng rng(6);
  DisseminationState root(DisseminationState::Config{&rc}, 0, true, 0u, &rng);
  EXPECT_FALSE(root.complete());  // packets not yet installed
  Rng prng(7);
  root.set_root_packets(make_packets(5, prng));
  EXPECT_TRUE(root.complete());
  EXPECT_EQ(root.group_count(), ceil_div(5, rc.group_size) == 0
                                    ? 0u
                                    : static_cast<std::uint32_t>(
                                          ceil_div(5, rc.group_size)));
}

TEST(Dissemination, NodeWithoutDistanceNeverTransmitsButDecodes) {
  const graph::Graph g = graph::make_path(4);
  KBroadcastConfig kcfg;
  kcfg.know = radio::Knowledge::exact(g);
  const ResolvedConfig rc = resolve(kcfg);
  Rng rng(8);
  DisseminationState node(DisseminationState::Config{&rc}, 2, false, std::nullopt,
                          &rng);
  for (std::uint64_t r = 0; r < 500; ++r) {
    EXPECT_FALSE(node.on_transmit(r).has_value());
  }
  // It still decodes plain rows it happens to hear.
  radio::PlainPacketMsg m;
  m.packet.id = radio::make_packet_id(0, 0);
  m.packet.payload = {9, 9};
  m.group_id = 0;
  m.group_count = 1;
  m.index_in_group = 0;
  m.group_size = 1;
  node.on_receive(3, radio::Message{1, m});
  EXPECT_TRUE(node.complete());
  ASSERT_EQ(node.packets().size(), 1u);
  EXPECT_EQ(node.packets()[0].payload, (gf2::Payload{9, 9}));
}

TEST(Dissemination, RootInjectsGroupsOnSpacingGrid) {
  const graph::Graph g = graph::make_path(6);
  KBroadcastConfig kcfg;
  kcfg.know = radio::Knowledge::exact(g);
  const ResolvedConfig rc = resolve(kcfg);
  Rng rng(9), prng(10);
  DisseminationState root(DisseminationState::Config{&rc}, 0, true, 0u, &rng);
  const std::uint32_t k = 3 * rc.group_size;  // exactly 3 groups
  root.set_root_packets(make_packets(k, prng));
  ASSERT_EQ(root.group_count(), 3u);

  const std::uint64_t phases_to_scan = rc.group_spacing * 3 + 2;
  for (std::uint64_t ph = 0; ph < phases_to_scan; ++ph) {
    std::uint32_t sent = 0;
    for (std::uint64_t off = 0; off < rc.dissem_phase_rounds; ++off) {
      const auto out = root.on_transmit(ph * rc.dissem_phase_rounds + off);
      if (!out.has_value()) continue;
      ++sent;
      const auto* plain = std::get_if<radio::PlainPacketMsg>(&*out);
      ASSERT_NE(plain, nullptr);
      EXPECT_EQ(plain->group_id, ph / rc.group_spacing);
    }
    if (ph % rc.group_spacing == 0 && ph / rc.group_spacing < 3) {
      EXPECT_EQ(sent, rc.group_size);
    } else {
      EXPECT_EQ(sent, 0u);
    }
  }
}

}  // namespace
}  // namespace radiocast::core
