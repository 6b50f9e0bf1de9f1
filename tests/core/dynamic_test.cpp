// Tests of the dynamic-arrival extension (paper's conclusion / future
// work): setup once, then repeated collect+disseminate epochs over an
// online packet stream.
#include "core/dynamic.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/generators.hpp"

namespace radiocast::core {
namespace {

DynamicConfig make_cfg(const graph::Graph& g, std::uint32_t capacity = 0) {
  KBroadcastConfig kcfg;
  kcfg.know = radio::Knowledge::exact(g);
  DynamicConfig cfg;
  cfg.rc = resolve(kcfg);
  cfg.batch_capacity = capacity;
  return cfg;
}

/// Horizon long enough for setup + `epochs` worst-case epochs.
std::uint64_t horizon_for(const DynamicConfig& cfg, std::uint32_t epochs) {
  const std::uint64_t collect =
      collection_phase_rounds(cfg.rc.initial_estimate, cfg.rc) * 4;
  return cfg.rc.stage3_start() +
         static_cast<std::uint64_t>(epochs) *
             (collect + cfg.dissemination_window());
}

TEST(Dynamic, EmptyStreamRunsQuietly) {
  const graph::Graph g = graph::make_path(8);
  const DynamicConfig cfg = make_cfg(g);
  const DynamicRunResult r =
      run_dynamic_broadcast(g, cfg, {}, horizon_for(cfg, 2), 1);
  EXPECT_EQ(r.k, 0u);
  EXPECT_EQ(r.delivered_everywhere, 0u);
}

TEST(Dynamic, SingleEarlyPacketDeliversEverywhere) {
  Rng grng(2);
  const graph::Graph g = graph::make_random_geometric(24, 0.4, grng);
  const DynamicConfig cfg = make_cfg(g);
  std::vector<Arrival> arrivals(1);
  arrivals[0].round = 0;
  arrivals[0].node = 3;
  arrivals[0].packet.id = radio::make_packet_id(3, 0);
  arrivals[0].packet.payload = {1, 2, 3};
  const DynamicRunResult r =
      run_dynamic_broadcast(g, cfg, arrivals, horizon_for(cfg, 3), 3);
  EXPECT_EQ(r.delivered_everywhere, 1u);
  EXPECT_GT(r.latency_max, 0.0);
}

TEST(Dynamic, StreamOfArrivalsAllDelivered) {
  Rng grng(4);
  const graph::Graph g = graph::make_random_geometric(24, 0.4, grng);
  const DynamicConfig cfg = make_cfg(g);
  Rng arng(5);
  // Spread arrivals over roughly two epochs after setup.
  const std::uint64_t spread = horizon_for(cfg, 2);
  std::vector<Arrival> arrivals = make_arrivals(24, 30, spread, 8, arng);
  const std::uint64_t horizon = spread + horizon_for(cfg, 3);
  const DynamicRunResult r = run_dynamic_broadcast(g, cfg, arrivals, horizon, 6);
  EXPECT_EQ(r.delivered_everywhere, 30u);
  EXPECT_GT(r.latency_mean, 0.0);
  EXPECT_LE(r.latency_mean, r.latency_max);
}

TEST(Dynamic, LateArrivalsWaitForNextEpoch) {
  Rng grng(7);
  const graph::Graph g = graph::make_gnp_connected(20, 0.25, grng);
  const DynamicConfig cfg = make_cfg(g);
  // Packet arrives well after setup, mid-first-epoch.
  std::vector<Arrival> arrivals(1);
  arrivals[0].round = cfg.rc.stage3_start() + 10;
  arrivals[0].node = 5;
  arrivals[0].packet.id = radio::make_packet_id(5, 0);
  arrivals[0].packet.payload = {9};
  const DynamicRunResult r =
      run_dynamic_broadcast(g, cfg, arrivals, horizon_for(cfg, 4), 8);
  EXPECT_EQ(r.delivered_everywhere, 1u);
}

TEST(Dynamic, CapacityOverflowCarriesToNextEpoch) {
  Rng grng(9);
  const graph::Graph g = graph::make_gnp_connected(20, 0.25, grng);
  // Tiny capacity: one group per epoch.
  DynamicConfig cfg = make_cfg(g, /*capacity=*/4);
  Rng arng(10);
  // 12 packets arriving immediately: needs ~3 dissemination epochs.
  std::vector<Arrival> arrivals = make_arrivals(20, 12, 1, 8, arng);
  const DynamicRunResult r =
      run_dynamic_broadcast(g, cfg, arrivals, horizon_for(cfg, 8), 11);
  EXPECT_EQ(r.delivered_everywhere, 12u);
}

TEST(Dynamic, NodesAgreeOnLeader) {
  Rng grng(12);
  const graph::Graph g = graph::make_random_geometric(16, 0.5, grng);
  const DynamicConfig cfg = make_cfg(g);
  radio::Network net(g);
  Rng master(13);
  std::vector<DynamicBroadcastNode*> nodes;
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    auto node = std::make_unique<DynamicBroadcastNode>(cfg, v, master.split());
    nodes.push_back(node.get());
    net.set_protocol(v, std::move(node));
    net.wake_at_start(v);
  }
  for (std::uint64_t r = 0; r <= cfg.rc.stage1_rounds; ++r) net.step();
  int leaders = 0;
  for (auto* node : nodes) {
    if (node->is_leader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  // All nodes participate, so the max id must win.
  EXPECT_TRUE(nodes.back()->is_leader());
}

TEST(Dynamic, PayloadArenaIsDrawnFromAndStaysBounded) {
  // The Network recycles every retired payload into its arena, so the
  // collection and dissemination states must draw from it; otherwise the
  // pool grows by one buffer per payload transmission for the whole run.
  Rng grng(16);
  const graph::Graph g = graph::make_random_geometric(24, 0.4, grng);
  const DynamicConfig cfg = make_cfg(g);
  radio::Network net(g);
  Rng master(17);
  std::vector<DynamicBroadcastNode*> nodes;
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    auto node = std::make_unique<DynamicBroadcastNode>(cfg, v, master.split());
    nodes.push_back(node.get());
    net.set_protocol(v, std::move(node));
    net.wake_at_start(v);
  }
  Rng arng(18);
  const std::uint64_t horizon = horizon_for(cfg, 3);
  std::vector<Arrival> arrivals = make_arrivals(24, 30, horizon / 2, 8, arng);
  std::size_t next = 0;
  for (std::uint64_t r = 0; r < horizon; ++r) {
    for (; next < arrivals.size() && arrivals[next].round <= r; ++next) {
      nodes[arrivals[next].node]->inject(std::move(arrivals[next].packet));
    }
    net.step();
  }
  const radio::PayloadArena& arena = net.payload_arena();
  EXPECT_GT(arena.hits(), 0u);
  EXPECT_LE(arena.pooled(), 4u * g.num_nodes());
}

TEST(Dynamic, EpochsAdvance) {
  Rng grng(14);
  const graph::Graph g = graph::make_gnp_connected(16, 0.3, grng);
  const DynamicConfig cfg = make_cfg(g);
  radio::Network net(g);
  Rng master(15);
  std::vector<DynamicBroadcastNode*> nodes;
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    auto node = std::make_unique<DynamicBroadcastNode>(cfg, v, master.split());
    nodes.push_back(node.get());
    net.set_protocol(v, std::move(node));
    net.wake_at_start(v);
  }
  const std::uint64_t horizon = horizon_for(cfg, 3);
  for (std::uint64_t r = 0; r < horizon; ++r) net.step();
  // Every node moved past at least one full epoch, and epoch counters
  // stay tightly synchronized across nodes.
  std::uint32_t min_epochs = 1000, max_epochs = 0;
  for (auto* node : nodes) {
    min_epochs = std::min(min_epochs, node->epochs_completed());
    max_epochs = std::max(max_epochs, node->epochs_completed());
  }
  EXPECT_GE(min_epochs, 1u);
  EXPECT_EQ(min_epochs, max_epochs);
}

}  // namespace
}  // namespace radiocast::core
