// Unit-level tests of the composed KBroadcastNode state machine: stage
// sequencing, introspection, and delivered_packets at each point of the
// schedule. (End-to-end behaviour is covered by endtoend_test.cpp.)
#include "core/protocol.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "radio/network.hpp"

namespace radiocast::core {
namespace {

ResolvedConfig small_rc(const graph::Graph& g) {
  KBroadcastConfig cfg;
  cfg.know = radio::Knowledge::exact(g);
  return resolve(cfg);
}

TEST(KBroadcastNode, StartsAsParticipantIffHoldingPackets) {
  const graph::Graph g = graph::make_path(4);
  const ResolvedConfig rc = small_rc(g);
  radio::Packet p;
  p.id = radio::make_packet_id(1, 0);
  Rng r1(1), r2(2);
  KBroadcastNode holder(rc, 1, {p}, r1);
  KBroadcastNode idle(rc, 2, {}, r2);
  EXPECT_TRUE(holder.is_participant());
  EXPECT_FALSE(idle.is_participant());
}

TEST(KBroadcastNode, DeliveredPacketsBeforeStage4IsOwn) {
  const graph::Graph g = graph::make_path(4);
  const ResolvedConfig rc = small_rc(g);
  radio::Packet p;
  p.id = radio::make_packet_id(1, 0);
  p.payload = {1, 2};
  Rng rng(3);
  KBroadcastNode node(rc, 1, {p}, rng);
  const auto delivered = node.delivered_packets();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], p);
  EXPECT_FALSE(node.done());
}

TEST(KBroadcastNode, SoleParticipantBecomesLeaderAndRoot) {
  // Drive a single node with no radio traffic at all: as the only
  // participant it elects itself (silence = negative probes) and enters
  // the BFS stage as the root.
  const graph::Graph g = graph::make_path(4);
  const ResolvedConfig rc = small_rc(g);
  radio::Packet p;
  p.id = radio::make_packet_id(2, 0);
  Rng rng(4);
  KBroadcastNode node(rc, 2, {p}, rng);
  for (radio::Round r = 0; r <= rc.stage1_rounds; ++r) node.on_transmit(r);
  EXPECT_TRUE(node.is_leader());
  EXPECT_EQ(node.leader_id(), 2u);
  EXPECT_TRUE(node.has_bfs_distance());
  EXPECT_EQ(node.bfs_distance(), 0u);
  EXPECT_EQ(node.bfs_parent(), 2u);
}

TEST(KBroadcastNode, LoneRootFinishesCollectionAndIsDone) {
  // The sole participant collects only its own packets; the first phase is
  // alarm-free, so Stage 3 ends and Stage 4 makes the root complete.
  const graph::Graph g = graph::make_path(4);
  const ResolvedConfig rc = small_rc(g);
  radio::Packet p;
  p.id = radio::make_packet_id(2, 0);
  Rng rng(5);
  KBroadcastNode node(rc, 2, {p}, rng);
  const std::uint64_t stage3 =
      collection_phase_rounds(rc.initial_estimate, rc);
  for (radio::Round r = 0; r <= rc.stage3_start() + stage3 + 1; ++r) {
    node.on_transmit(r);
  }
  EXPECT_EQ(node.stage3_end(), rc.stage3_start() + stage3);
  EXPECT_TRUE(node.done());
  ASSERT_NE(node.collection(), nullptr);
  EXPECT_EQ(node.collection()->collected().size(), 1u);
}

TEST(KBroadcastNode, NonParticipantSleepsThroughStage1Silence) {
  const graph::Graph g = graph::make_path(4);
  const ResolvedConfig rc = small_rc(g);
  Rng rng(6);
  KBroadcastNode node(rc, 0, {}, rng);
  // A non-participant polled through stage 1 never transmits (it has no
  // signal to contribute and no alarm to relay).
  for (radio::Round r = 0; r < rc.stage1_rounds; ++r) {
    EXPECT_FALSE(node.on_transmit(r).has_value());
  }
  EXPECT_FALSE(node.is_leader());
}

TEST(KBroadcastNode, StageBoundariesMatchResolvedConfig) {
  Rng grng(7);
  const graph::Graph g = graph::make_gnp_connected(24, 0.2, grng);
  const ResolvedConfig rc = small_rc(g);
  EXPECT_EQ(rc.stage3_start(), rc.stage1_rounds + rc.stage2_rounds);
  EXPECT_GT(rc.stage1_rounds, 0u);
  EXPECT_GT(rc.stage2_rounds, 0u);
  // Stage 1 is exactly probes * probe window.
  EXPECT_EQ(rc.stage1_rounds % (static_cast<std::uint64_t>(rc.leader_probe_epochs) *
                                rc.log_delta),
            0u);
}

TEST(KBroadcastNode, DoneIsMonotone) {
  // Once done, driving the node further never un-dones it.
  Rng grng(8);
  const graph::Graph g = graph::make_star(12);
  const ResolvedConfig rc = small_rc(g);
  radio::Network net(g);
  Rng master(9);
  Rng prng(10);
  const Placement placement =
      make_placement(12, 6, PlacementMode::kRandom, 8, prng);
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    net.set_protocol(v, std::make_unique<KBroadcastNode>(rc, v, placement[v],
                                                         master.split()));
    if (!placement[v].empty()) net.wake_at_start(v);
  }
  const bool all = net.run_until_done(2'000'000);
  ASSERT_TRUE(all);
  for (int extra = 0; extra < 200; ++extra) net.step();
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_TRUE(net.protocol(v).done());
  }
}

TEST(KBroadcastNode, LeaderHoldsCollectedSetAsDelivered) {
  Rng grng(11);
  const graph::Graph g = graph::make_gnp_connected(16, 0.3, grng);
  const ResolvedConfig rc = small_rc(g);
  radio::Network net(g);
  Rng master(12);
  Rng prng(13);
  const Placement placement =
      make_placement(16, 10, PlacementMode::kRandom, 8, prng);
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    net.set_protocol(v, std::make_unique<KBroadcastNode>(rc, v, placement[v],
                                                         master.split()));
    if (!placement[v].empty()) net.wake_at_start(v);
  }
  ASSERT_TRUE(net.run_until_done(2'000'000));
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& node = static_cast<const KBroadcastNode&>(net.protocol(v));
    if (node.is_leader()) {
      EXPECT_EQ(node.delivered_packets().size(), 10u);
      ASSERT_NE(node.dissemination(), nullptr);
      EXPECT_TRUE(node.dissemination()->complete());
    }
  }
}

TEST(DynamicConfig, WindowScalesWithCapacity) {
  KBroadcastConfig kcfg;
  kcfg.know.n_hat = 64;
  kcfg.know.delta_hat = 8;
  kcfg.know.d_hat = 6;
  DynamicConfig small;
  small.rc = resolve(kcfg);
  small.batch_capacity = 6;  // one group
  DynamicConfig big = small;
  big.batch_capacity = 60;  // ten groups
  EXPECT_LT(small.dissemination_window(), big.dissemination_window());
  EXPECT_EQ(big.dissemination_window() - small.dissemination_window(),
            9ull * small.rc.group_spacing * small.rc.dissem_phase_rounds);
}

TEST(DynamicConfig, DefaultCapacityIsInitialEstimate) {
  KBroadcastConfig kcfg;
  kcfg.know.n_hat = 64;
  kcfg.know.delta_hat = 8;
  kcfg.know.d_hat = 6;
  DynamicConfig cfg;
  cfg.rc = resolve(kcfg);
  EXPECT_EQ(cfg.resolved_capacity(), cfg.rc.initial_estimate);
  cfg.batch_capacity = 7;
  EXPECT_EQ(cfg.resolved_capacity(), 7u);
}

}  // namespace
}  // namespace radiocast::core
