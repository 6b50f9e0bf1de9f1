// Stage 3 tests: OSPG/MSPG/GRAB mechanics and full collection runs on a
// centrally precomputed BFS tree (isolating Stage 3 from Stages 1-2).
#include "core/collection.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "core/runner.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "radio/network.hpp"

namespace radiocast::core {
namespace {

/// NodeProtocol adapter that runs CollectionState standalone from round 0,
/// with parent pointers supplied by a centralized BFS.
class CollectionOnlyNode final : public radio::NodeProtocol {
 public:
  CollectionOnlyNode(const CollectionState::Config& cfg, radio::NodeId self,
                     bool is_root, std::optional<radio::NodeId> parent,
                     std::vector<radio::Packet> packets, Rng rng)
      : rng_(rng), state_(cfg, self, is_root, parent, std::move(packets), &rng_) {}

  std::optional<radio::MessageBody> on_transmit(radio::Round round) override {
    return state_.on_transmit(round);
  }
  void on_receive(radio::Round round, const radio::Message& msg) override {
    state_.on_receive(round, msg);
  }
  bool done() const override { return state_.finished(); }

  CollectionState& state() { return state_; }

 private:
  Rng rng_;
  CollectionState state_;
};

struct CollectionOutcome {
  bool finished = false;
  bool root_has_all = false;
  bool all_acked = true;
  std::uint32_t phases = 0;
  std::uint64_t rounds = 0;
};

CollectionOutcome run_collection(const graph::Graph& g, const Placement& placement,
                                 radio::NodeId root, std::uint64_t seed) {
  KBroadcastConfig kcfg;
  kcfg.know = radio::Knowledge::exact(g);
  const ResolvedConfig rc = resolve(kcfg);
  CollectionState::Config cfg{&rc};

  const graph::BfsResult tree = graph::bfs(g, root);
  radio::Network net(g);
  Rng master(seed);
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    std::optional<radio::NodeId> parent;
    if (v != root && tree.dist[v] != graph::kUnreachable) parent = tree.parent[v];
    net.set_protocol(v, std::make_unique<CollectionOnlyNode>(
                            cfg, v, v == root, parent, placement[v], master.split()));
    net.wake_at_start(v);  // Stage 3 starts with every node awake
  }
  const std::vector<radio::Packet> truth = placement_packets(placement);
  const std::uint64_t bound = 3 * collection_rounds_bound(truth.size(), rc) + 1000;
  const bool done = net.run_until_done(bound);

  CollectionOutcome out;
  out.finished = done;
  out.rounds = net.current_round();
  auto& root_node = static_cast<CollectionOnlyNode&>(net.protocol(root));
  out.phases = root_node.state().phases_run();
  std::vector<radio::Packet> got = root_node.state().collected();
  std::sort(got.begin(), got.end(),
            [](const radio::Packet& a, const radio::Packet& b) { return a.id < b.id; });
  out.root_has_all = got == truth;
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    auto& node = static_cast<CollectionOnlyNode&>(net.protocol(v));
    if (!node.state().all_acked()) out.all_acked = false;
  }
  return out;
}

Placement place_at(std::uint32_t n, const std::vector<std::pair<radio::NodeId, int>>& at,
                   Rng& rng) {
  Placement p(n);
  for (const auto& [node, count] : at) {
    for (int i = 0; i < count; ++i) {
      radio::Packet pkt;
      pkt.id = radio::make_packet_id(node, static_cast<std::uint32_t>(p[node].size()));
      pkt.payload.resize(8);
      for (auto& b : pkt.payload) b = static_cast<std::uint8_t>(rng() & 0xff);
      p[node].push_back(std::move(pkt));
    }
  }
  return p;
}

TEST(Collection, SinglePacketOnPath) {
  const graph::Graph g = graph::make_path(10);
  Rng rng(1);
  const Placement p = place_at(10, {{9, 1}}, rng);
  const CollectionOutcome out = run_collection(g, p, 0, 11);
  EXPECT_TRUE(out.finished);
  EXPECT_TRUE(out.root_has_all);
  EXPECT_TRUE(out.all_acked);
  EXPECT_EQ(out.phases, 1u);  // initial estimate >> 1 packet
}

TEST(Collection, ManyPacketsManySources) {
  Rng grng(2);
  const graph::Graph g = graph::make_random_geometric(40, 0.3, grng);
  Rng rng(3);
  const Placement p = place_at(40, {{5, 10}, {17, 7}, {33, 12}, {39, 4}}, rng);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const CollectionOutcome out = run_collection(g, p, 0, 100 + seed);
    EXPECT_TRUE(out.finished);
    EXPECT_TRUE(out.root_has_all) << "seed " << seed;
    EXPECT_TRUE(out.all_acked);
  }
}

TEST(Collection, RootOwnPacketsAutoCollected) {
  const graph::Graph g = graph::make_star(8);
  Rng rng(4);
  const Placement p = place_at(8, {{0, 5}}, rng);
  const CollectionOutcome out = run_collection(g, p, 0, 5);
  EXPECT_TRUE(out.finished);
  EXPECT_TRUE(out.root_has_all);
  EXPECT_EQ(out.phases, 1u);
}

TEST(Collection, EstimateDoublesWhenKExceedsInitial) {
  // Star with tiny diameter => small initial estimate x0 = (D+log n)·log n.
  // Pack k >> x0 so at least one alarm-driven doubling must happen.
  // Note GRAB(x) routinely over-delivers relative to the estimate (the
  // final MSPG alone has 6·c²log²n slots), so forcing a doubling requires
  // k well past that capacity, not merely past x0.
  const graph::Graph g = graph::make_star(16);
  KBroadcastConfig kcfg;
  kcfg.know = radio::Knowledge::exact(g);
  const ResolvedConfig rc = resolve(kcfg);
  const int k = static_cast<int>(rc.initial_estimate) * 16;

  Rng rng(5);
  const Placement p = place_at(
      16, {{3, k / 4}, {7, k / 4}, {11, k / 4}, {15, k - 3 * (k / 4)}}, rng);
  const CollectionOutcome out = run_collection(g, p, 0, 6);
  EXPECT_TRUE(out.finished);
  EXPECT_TRUE(out.root_has_all);
  EXPECT_GE(out.phases, 2u);
}

TEST(Collection, NoPacketsFinishesFirstPhase) {
  const graph::Graph g = graph::make_path(6);
  Placement p(6);
  const CollectionOutcome out = run_collection(g, p, 0, 7);
  EXPECT_TRUE(out.finished);
  EXPECT_EQ(out.phases, 1u);
  EXPECT_TRUE(out.root_has_all);  // trivially: nothing to collect
}

TEST(Collection, DeepPathManyPackets) {
  const graph::Graph g = graph::make_path(30);
  Rng rng(8);
  const Placement p = place_at(30, {{29, 20}, {15, 20}}, rng);
  const CollectionOutcome out = run_collection(g, p, 0, 9);
  EXPECT_TRUE(out.finished);
  EXPECT_TRUE(out.root_has_all);
  EXPECT_TRUE(out.all_acked);
}

// --- Unit-level state machine checks ---

ResolvedConfig unit_rc(const graph::Graph& g) {
  KBroadcastConfig kcfg;
  kcfg.know = radio::Knowledge::exact(g);
  return resolve(kcfg);
}

TEST(CollectionState, RootCollectsAndAcksDataMessage) {
  const graph::Graph g = graph::make_path(3);
  const ResolvedConfig rc = unit_rc(g);
  const CollectionState::Config cfg{&rc};
  Rng rng(10);
  CollectionState root(cfg, 0, true, std::nullopt, {}, &rng);

  radio::Packet pkt;
  pkt.id = radio::make_packet_id(2, 0);
  pkt.payload = {0xaa};
  radio::Message msg{1, radio::DataMsg{pkt, 0}};
  root.on_receive(3, msg);  // inside the first up window
  ASSERT_EQ(root.collected().size(), 1u);
  EXPECT_EQ(root.collected()[0].id, pkt.id);

  // During the ack window the root emits an AckMsg addressed to the child.
  const GatherWindow w0 = grab_windows(rc.initial_estimate, rc)[0];
  bool acked = false;
  for (std::uint64_t r = w0.up_rounds; r < w0.total_rounds(); ++r) {
    const auto out = root.on_transmit(r);
    if (out.has_value()) {
      const auto* ack = std::get_if<radio::AckMsg>(&*out);
      ASSERT_NE(ack, nullptr);
      EXPECT_EQ(ack->packet_id, pkt.id);
      EXPECT_EQ(ack->to, 1u);
      acked = true;
      break;
    }
  }
  EXPECT_TRUE(acked);
}

TEST(CollectionState, RelayForwardsOneRoundLater) {
  const graph::Graph g = graph::make_path(4);
  const ResolvedConfig rc = unit_rc(g);
  const CollectionState::Config cfg{&rc};
  Rng rng(11);
  CollectionState relay(cfg, 1, false, radio::NodeId{0}, {}, &rng);

  radio::Packet pkt;
  pkt.id = radio::make_packet_id(3, 0);
  radio::Message msg{2, radio::DataMsg{pkt, 1}};
  relay.on_receive(5, msg);
  const auto out = relay.on_transmit(6);
  ASSERT_TRUE(out.has_value());
  const auto* data = std::get_if<radio::DataMsg>(&*out);
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->packet.id, pkt.id);
  EXPECT_EQ(data->to, 0u);
}

TEST(CollectionState, RelayIgnoresDataAddressedElsewhere) {
  const graph::Graph g = graph::make_path(4);
  const ResolvedConfig rc = unit_rc(g);
  const CollectionState::Config cfg{&rc};
  Rng rng(12);
  CollectionState relay(cfg, 1, false, radio::NodeId{0}, {}, &rng);
  radio::Packet pkt;
  pkt.id = radio::make_packet_id(3, 0);
  radio::Message msg{2, radio::DataMsg{pkt, 2 /*not us*/}};
  relay.on_receive(5, msg);
  EXPECT_FALSE(relay.on_transmit(6).has_value());
}

TEST(CollectionState, SourceMarksAckedAndStopsAlarming) {
  const graph::Graph g = graph::make_path(3);
  const ResolvedConfig rc = unit_rc(g);
  const CollectionState::Config cfg{&rc};
  Rng rng(13);
  radio::Packet pkt;
  pkt.id = radio::make_packet_id(2, 0);
  CollectionState source(cfg, 2, false, radio::NodeId{1}, {pkt}, &rng);
  EXPECT_FALSE(source.all_acked());
  EXPECT_EQ(source.unacked_count(), 1u);

  radio::Message ack{1, radio::AckMsg{pkt.id, 2}};
  // Deliver the ack inside the first window's ack segment.
  const GatherWindow w0 = grab_windows(rc.initial_estimate, rc)[0];
  source.on_receive(w0.up_rounds + 1, ack);
  EXPECT_TRUE(source.all_acked());
  EXPECT_EQ(source.unacked_count(), 0u);
}

TEST(CollectionState, FinishesAfterQuietPhaseAndReportsLength) {
  const graph::Graph g = graph::make_path(3);
  const ResolvedConfig rc = unit_rc(g);
  const CollectionState::Config cfg{&rc};
  Rng rng(14);
  CollectionState idle(cfg, 1, false, radio::NodeId{0}, {}, &rng);
  const std::uint64_t phase = collection_phase_rounds(rc.initial_estimate, rc);
  idle.on_transmit(phase);  // first post-phase poll
  EXPECT_TRUE(idle.finished());
  EXPECT_EQ(idle.finished_at(), phase);
}

TEST(CollectionState, AlarmHeardExtendsToSecondPhase) {
  const graph::Graph g = graph::make_path(3);
  const ResolvedConfig rc = unit_rc(g);
  const CollectionState::Config cfg{&rc};
  Rng rng(15);
  CollectionState idle(cfg, 1, false, radio::NodeId{0}, {}, &rng);
  const std::uint64_t grab = grab_rounds(rc.initial_estimate, rc);
  const std::uint64_t phase = grab + rc.alarm_rounds;
  idle.on_transmit(grab);  // enter the alarm window
  radio::Message alarm{0, radio::AlarmMsg{}};
  idle.on_receive(grab + 1, alarm);
  idle.on_transmit(phase);  // cross the phase boundary
  EXPECT_FALSE(idle.finished());
  EXPECT_EQ(idle.estimate(), rc.initial_estimate * 2);
  EXPECT_EQ(idle.phases_run(), 1u);
}

TEST(CollectionState, UnackedSourceArmsAlarm) {
  const graph::Graph g = graph::make_path(3);
  const ResolvedConfig rc = unit_rc(g);
  const CollectionState::Config cfg{&rc};
  Rng rng(16);
  radio::Packet pkt;
  pkt.id = radio::make_packet_id(2, 0);
  CollectionState source(cfg, 2, false, radio::NodeId{1}, {pkt}, &rng);
  const std::uint64_t grab = grab_rounds(rc.initial_estimate, rc);
  // The packet was never acked (we never delivered it): over the alarm
  // window the source must transmit AlarmMsg at least once.
  bool alarmed = false;
  for (std::uint64_t r = grab; r < grab + rc.alarm_rounds; ++r) {
    const auto out = source.on_transmit(r);
    if (out.has_value() && std::holds_alternative<radio::AlarmMsg>(*out)) {
      alarmed = true;
      break;
    }
  }
  EXPECT_TRUE(alarmed);
  // And the phase must continue.
  source.on_transmit(grab + rc.alarm_rounds);
  EXPECT_FALSE(source.finished());
}

}  // namespace
}  // namespace radiocast::core
