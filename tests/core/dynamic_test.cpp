// Tests of the dynamic-arrival extension (paper's conclusion / future
// work): setup once, then repeated collect+disseminate epochs over an
// online packet stream. Dynamic mode runs a finite arrival list through
// stream::run_stream with an unbounded source buffer; the node tests drive
// stream::StreamNode, the one concrete open-system node, directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/rng.hpp"
#include "core/protocol.hpp"
#include "graph/generators.hpp"
#include "radio/network.hpp"
#include "stream/arrivals.hpp"
#include "stream/driver.hpp"
#include "stream/stream_node.hpp"
#include "../audit/hold_recorder.hpp"

namespace radiocast::core {
namespace {

/// Dynamic mode's run config: an unbounded source buffer, so every
/// arrival joins the next epoch's collection.
stream::StreamConfig make_cfg(const graph::Graph& g, std::uint32_t capacity = 0) {
  KBroadcastConfig kcfg;
  kcfg.know = radio::Knowledge::exact(g);
  stream::StreamConfig cfg;
  cfg.dyn.rc = resolve(kcfg);
  cfg.dyn.batch_capacity = capacity;
  cfg.buffer_capacity = UINT32_MAX;
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

/// Dynamic mode's harness call: `arrivals` through run_stream.
stream::StreamResult run_arrivals(const graph::Graph& g, stream::StreamConfig cfg,
                                  std::vector<stream::Arrival> arrivals,
                                  std::uint64_t horizon, std::uint64_t seed) {
  cfg.horizon = horizon;
  cfg.seed = seed;
  return stream::run_stream(g, cfg, std::move(arrivals));
}

/// One StreamNode per vertex on one network, seeded as run_stream seeds
/// them, so a test can read every node's state; each records its hold
/// reports (audit::HoldRecorder).
struct Nodes {
  Nodes(const graph::Graph& g, const stream::StreamConfig& cfg, std::uint64_t seed)
      : net(g) {
    Rng master(seed);
    for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
      auto node = std::make_unique<audit::HoldRecorder>(
          cfg.dyn, v, master.split(), cfg.buffer_capacity, cfg.policy, &log);
      nodes.push_back(node.get());
      net.set_protocol(v, std::move(node));
      net.wake_at_start(v);
    }
  }

  /// Steps `rounds` rounds from round 0, offering each arrival in its round.
  void run(const std::vector<stream::Arrival>& arrivals, std::uint64_t rounds) {
    std::size_t next = 0;
    for (std::uint64_t r = 0; r < rounds; ++r) {
      for (; next < arrivals.size() && arrivals[next].round <= r; ++next) {
        nodes[arrivals[next].node]->offer(arrivals[next].packet);
      }
      net.step();
      log.held.clear();
    }
  }

  stream::HoldLog log;
  radio::Network net;
  std::vector<audit::HoldRecorder*> nodes;
};

TEST(Dynamic, EmptyStreamRunsQuietly) {
  const graph::Graph g = graph::make_path(8);
  const stream::StreamConfig cfg = make_cfg(g);
  const stream::StreamResult r = run_arrivals(g, cfg, {}, horizon_for(cfg.dyn, 2), 1);
  EXPECT_EQ(r.arrivals_scheduled, 0u);
  EXPECT_EQ(r.delivered_everywhere, 0u);
}

TEST(Dynamic, SingleEarlyPacketDeliversEverywhere) {
  Rng grng(2);
  const graph::Graph g = graph::make_random_geometric(24, 0.4, grng);
  const stream::StreamConfig cfg = make_cfg(g);
  std::vector<stream::Arrival> arrivals(1);
  arrivals[0].round = 0;
  arrivals[0].node = 3;
  arrivals[0].packet.id = radio::make_packet_id(3, 0);
  arrivals[0].packet.payload = {1, 2, 3};
  const stream::StreamResult r =
      run_arrivals(g, cfg, arrivals, horizon_for(cfg.dyn, 3), 3);
  EXPECT_EQ(r.delivered_everywhere, 1u);
  EXPECT_GT(r.latency.max(), 0u);
}

TEST(Dynamic, StreamOfArrivalsAllDelivered) {
  Rng grng(4);
  const graph::Graph g = graph::make_random_geometric(24, 0.4, grng);
  const stream::StreamConfig cfg = make_cfg(g);
  Rng arng(5);
  // Spread arrivals over roughly two epochs after setup.
  const std::uint64_t spread = horizon_for(cfg.dyn, 2);
  std::vector<stream::Arrival> arrivals = stream::make_arrivals(24, 30, spread, 8, arng);
  const std::uint64_t horizon = spread + horizon_for(cfg.dyn, 3);
  const stream::StreamResult r = run_arrivals(g, cfg, arrivals, horizon, 6);
  EXPECT_EQ(r.delivered_everywhere, 30u);
  EXPECT_GT(r.latency.mean(), 0.0);
  EXPECT_LE(r.latency.mean(), static_cast<double>(r.latency.max()));
}

TEST(Dynamic, LateArrivalsWaitForNextEpoch) {
  Rng grng(7);
  const graph::Graph g = graph::make_gnp_connected(20, 0.25, grng);
  const stream::StreamConfig cfg = make_cfg(g);
  // Packet arrives well after setup, mid-first-epoch.
  std::vector<stream::Arrival> arrivals(1);
  arrivals[0].round = cfg.dyn.rc.stage3_start() + 10;
  arrivals[0].node = 5;
  arrivals[0].packet.id = radio::make_packet_id(5, 0);
  arrivals[0].packet.payload = {9};
  const stream::StreamResult r =
      run_arrivals(g, cfg, arrivals, horizon_for(cfg.dyn, 4), 8);
  EXPECT_EQ(r.delivered_everywhere, 1u);
  // It sat out the rest of the first epoch, window included.
  EXPECT_GT(r.latency.min(), cfg.dyn.dissemination_window());
}

TEST(Dynamic, CapacityOverflowCarriesToNextEpoch) {
  Rng grng(9);
  const graph::Graph g = graph::make_gnp_connected(20, 0.25, grng);
  // Tiny capacity: one group per epoch.
  const stream::StreamConfig cfg = make_cfg(g, /*capacity=*/4);
  Rng arng(10);
  // 12 packets arriving immediately: needs ~3 dissemination epochs.
  std::vector<stream::Arrival> arrivals = stream::make_arrivals(20, 12, 1, 8, arng);
  const std::uint64_t horizon = horizon_for(cfg.dyn, 8);
  const stream::StreamResult r = run_arrivals(g, cfg, arrivals, horizon, 11);
  EXPECT_EQ(r.delivered_everywhere, 12u);
  EXPECT_GE(r.epochs_completed, 3u);

  // Every node holds every packet with the bytes it arrived with, the
  // ones the root carried over to later windows included.
  Nodes mirror(g, cfg, 11);
  mirror.run(arrivals, horizon);
  for (const stream::Arrival& a : arrivals) {
    for (const audit::HoldRecorder* node : mirror.nodes) {
      const gf2::Payload* payload = node->payload(a.packet.id);
      ASSERT_NE(payload, nullptr) << "packet " << a.packet.id;
      EXPECT_EQ(*payload, a.packet.payload) << "packet " << a.packet.id;
    }
  }
}

TEST(Dynamic, RootDisseminatesAtMostCapacityPerWindow) {
  Rng grng(9);
  const graph::Graph g = graph::make_gnp_connected(20, 0.25, grng);
  const stream::StreamConfig cfg = make_cfg(g, /*capacity=*/4);
  Rng arng(10);
  // 12 packets at round 0 against a window of 4: the root must hold the
  // excess back for later windows.
  const std::vector<stream::Arrival> arrivals = stream::make_arrivals(20, 12, 1, 8, arng);
  Nodes n(g, cfg, 11);
  std::size_t next = 0;
  std::size_t largest_batch = 0;
  for (std::uint64_t r = 0; r < horizon_for(cfg.dyn, 8); ++r) {
    for (; next < arrivals.size() && arrivals[next].round <= r; ++next) {
      n.nodes[arrivals[next].node]->offer(arrivals[next].packet);
    }
    n.net.step();
    n.log.held.clear();
    for (const stream::StreamNode* node : n.nodes) {
      if (!node->is_leader() || node->dissemination() == nullptr) continue;
      largest_batch = std::max(largest_batch, node->dissemination()->packets().size());
    }
  }
  EXPECT_EQ(largest_batch, 4u);
}

TEST(Dynamic, NodesAgreeOnLeader) {
  Rng grng(12);
  const graph::Graph g = graph::make_random_geometric(16, 0.5, grng);
  const stream::StreamConfig cfg = make_cfg(g);
  Nodes n(g, cfg, 13);
  n.run({}, cfg.dyn.rc.stage1_rounds + 1);
  int leaders = 0;
  for (auto* node : n.nodes) {
    if (node->is_leader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  // All nodes participate, so the max id must win.
  EXPECT_TRUE(n.nodes.back()->is_leader());
}

TEST(Dynamic, PayloadArenaIsDrawnFromAndStaysBounded) {
  // The Network recycles every retired payload into its arena, so the
  // collection and dissemination states must draw from it; otherwise the
  // pool grows by one buffer per payload transmission for the whole run.
  Rng grng(16);
  const graph::Graph g = graph::make_random_geometric(24, 0.4, grng);
  const stream::StreamConfig cfg = make_cfg(g);
  Nodes n(g, cfg, 17);
  Rng arng(18);
  const std::uint64_t horizon = horizon_for(cfg.dyn, 3);
  n.run(stream::make_arrivals(24, 30, horizon / 2, 8, arng), horizon);
  const radio::PayloadArena& arena = n.net.payload_arena();
  EXPECT_GT(arena.hits(), 0u);
  EXPECT_LE(arena.pooled(), 4u * g.num_nodes());
}

TEST(Dynamic, EpochsAdvance) {
  Rng grng(14);
  const graph::Graph g = graph::make_gnp_connected(16, 0.3, grng);
  const stream::StreamConfig cfg = make_cfg(g);
  Nodes n(g, cfg, 15);
  n.run({}, horizon_for(cfg.dyn, 3));
  // Every node moved past at least one full epoch, and epoch counters
  // stay tightly synchronized across nodes.
  std::uint32_t min_epochs = 1000, max_epochs = 0;
  for (auto* node : n.nodes) {
    min_epochs = std::min(min_epochs, node->epochs_completed());
    max_epochs = std::max(max_epochs, node->epochs_completed());
  }
  EXPECT_GE(min_epochs, 1u);
  EXPECT_EQ(min_epochs, max_epochs);
}

// A packet that names another origin would be reported held twice by
// the node it was offered to (when admitted, and again when decoded at a
// window end) and never by the node it names, so the node refuses it at
// the epoch entry that takes it.
TEST(DynamicDeathTest, OwnPacketMustNameItsNode) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const graph::Graph g = graph::make_path(8);
  const stream::StreamConfig cfg = make_cfg(g);
  Nodes n(g, cfg, 19);
  radio::Packet p;
  p.id = radio::make_packet_id(5, 0);
  p.payload = {7};
  ASSERT_TRUE(n.nodes[3]->offer(p));
  // Buffered without complaint until the first collection takes it.
  n.run({}, cfg.dyn.rc.stage3_start());
  EXPECT_DEATH(n.net.step(), "own packet must name its node");
}

}  // namespace
}  // namespace radiocast::core
