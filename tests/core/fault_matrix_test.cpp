// Failure-injection matrix: each protocol stage exercised in isolation
// under reception loss, plus the dynamic variant under loss — verifying
// that every recovery mechanism (retries, alarms, redundancy) does its
// job where the paper's analysis places it.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/uncoded_pipeline.hpp"
#include "common/rng.hpp"
#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "core/schedule.hpp"
#include "graph/generators.hpp"
#include "protocols/bfs_construction.hpp"
#include "protocols/bgi_broadcast.hpp"
#include "radio/network.hpp"
#include "stream/arrivals.hpp"
#include "stream/stream_node.hpp"
#include "../audit/hold_recorder.hpp"

namespace radiocast::core {
namespace {

TEST(FaultMatrix, BgiFloodToleratesLoss) {
  // BGI's redundancy (every holder keeps transmitting) makes the flood
  // loss-tolerant without any protocol change.
  Rng grng(1);
  const graph::Graph g = graph::make_random_geometric(40, 0.3, grng);
  const radio::Knowledge know = radio::Knowledge::exact(g);
  protocols::BgiBroadcastNode::Config cfg;
  cfg.know = know;
  for (const double loss : {0.05, 0.15}) {
    radio::Network net(g);
    net.set_fault_model({loss, 42});
    Rng master(2);
    for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
      net.set_protocol(v, std::make_unique<protocols::BgiBroadcastNode>(
                              cfg, v == 0,
                              v == 0 ? std::optional<radio::MessageBody>(
                                           radio::AlarmMsg{})
                                     : std::nullopt,
                              master.split()));
    }
    net.wake_at_start(0);
    const std::uint64_t window =
        static_cast<std::uint64_t>(protocols::bgi_default_epochs(know)) *
        know.log_delta();
    EXPECT_TRUE(net.run_until_done(window)) << "loss=" << loss;
  }
}

TEST(FaultMatrix, BfsStaysValidUnderMildLoss) {
  // A lost construction message can delay a node into a later phase (it
  // may adopt a same-layer neighbor, recording distance+1), so we require
  // tree validity under the weaker invariant: parents are neighbors and
  // recorded distances decrease towards the root.
  Rng grng(3);
  const graph::Graph g = graph::make_random_geometric(36, 0.32, grng);
  const radio::Knowledge know = radio::Knowledge::exact(g);
  protocols::BfsBuildState::Config cfg;
  cfg.know = know;
  cfg.epochs_per_phase = 6 * know.log_n();
  cfg.extra_phases = 4;

  radio::Network net(g);
  net.set_fault_model({0.05, 7});
  Rng master(4);
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    net.set_protocol(
        v, std::make_unique<protocols::BfsConstructionNode>(cfg, v, v == 0,
                                                            master.split()));
  }
  net.wake_at_start(0);
  const std::uint64_t total = static_cast<std::uint64_t>(know.d_hat + 4) *
                              cfg.epochs_per_phase * know.log_delta();
  for (std::uint64_t r = 0; r < total; ++r) net.step();

  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& node =
        static_cast<const protocols::BfsConstructionNode&>(net.protocol(v));
    ASSERT_TRUE(node.state().has_distance()) << "node " << v;
    if (v == 0) continue;
    const radio::NodeId parent = node.state().parent();
    EXPECT_TRUE(g.has_edge(v, parent));
    const auto& parent_node =
        static_cast<const protocols::BfsConstructionNode&>(net.protocol(parent));
    ASSERT_TRUE(parent_node.state().has_distance());
    EXPECT_EQ(parent_node.state().distance() + 1, node.state().distance());
  }
}

TEST(FaultMatrix, UncodedPipelineSurvivesLossToo) {
  Rng grng(5);
  const graph::Graph g = graph::make_gnp_connected(28, 0.2, grng);
  const radio::Knowledge know = radio::Knowledge::exact(g);
  Rng prng(6);
  const Placement p = make_placement(28, 16, PlacementMode::kRandom, 8, prng);
  radio::FaultModel faults{0.05, 99};
  const RunResult r = run_kbroadcast(g, baselines::uncoded_pipeline_config(know), p,
                                     7, 20'000'000, faults);
  EXPECT_TRUE(r.delivered_all);
}

TEST(FaultMatrix, DynamicVariantSurvivesLoss) {
  Rng grng(8);
  const graph::Graph g = graph::make_random_geometric(24, 0.4, grng);
  KBroadcastConfig kcfg;
  kcfg.know = radio::Knowledge::exact(g);
  DynamicConfig cfg;
  cfg.rc = resolve(kcfg);

  const std::uint64_t epoch =
      collection_phase_rounds(cfg.rc.initial_estimate, cfg.rc) +
      cfg.dissemination_window();
  Rng arng(9);
  std::vector<stream::Arrival> arrivals = stream::make_arrivals(24, 16, 2 * epoch, 8, arng);
  for (const double loss : {0.03, 0.05}) {
    SCOPED_TRACE(loss);
    // run_stream has no fault hook; drive the stream nodes directly, with
    // dynamic mode's unbounded source buffer.
    radio::Network net(g);
    net.set_fault_model({loss, 17});
    stream::HoldLog log;
    Rng master(10);
    std::vector<audit::HoldRecorder*> nodes(24);
    for (radio::NodeId v = 0; v < 24; ++v) {
      auto node = std::make_unique<audit::HoldRecorder>(
          cfg, v, master.split(), UINT32_MAX, stream::BufferPolicy::kDropNew, &log);
      nodes[v] = node.get();
      net.set_protocol(v, std::move(node));
      net.wake_at_start(v);
    }
    std::size_t next = 0;
    const std::uint64_t horizon = cfg.rc.stage3_start() + 8 * epoch;
    for (std::uint64_t round = 0; round < horizon; ++round) {
      while (next < arrivals.size() && arrivals[next].round <= round) {
        nodes[arrivals[next].node]->offer(arrivals[next].packet);
        ++next;
      }
      net.step();
      log.held.clear();
    }
    // Every offered packet must have reached every node, bytes intact.
    for (const stream::Arrival& a : arrivals) {
      for (radio::NodeId v = 0; v < 24; ++v) {
        const gf2::Payload* payload = nodes[v]->payload(a.packet.id);
        ASSERT_NE(payload, nullptr)
            << "packet " << a.packet.id << " missing at node " << v;
        EXPECT_EQ(*payload, a.packet.payload)
            << "packet " << a.packet.id << " corrupted at node " << v;
      }
    }
  }
}

/// One full k-broadcast run, driven directly so per-node protocol state
/// stays inspectable after completion (run_kbroadcast owns its network).
struct CdOutcome {
  bool delivered = false;
  std::uint64_t collision_slots = 0;
  std::uint64_t on_collision_callbacks = 0;
  std::uint64_t fault_drops = 0;
};

CdOutcome run_fault_cd(double loss, bool collision_detection) {
  Rng grng(40);
  const graph::Graph g = graph::make_gnp_connected(24, 0.25, grng);
  KBroadcastConfig kcfg;
  kcfg.know = radio::Knowledge::exact(g);
  const ResolvedConfig rc = resolve(kcfg);
  Rng prng(41);
  const Placement placement =
      make_placement(24, 8, PlacementMode::kRandom, 8, prng);
  std::vector<radio::Packet> truth = placement_packets(placement);

  radio::Network net(g);
  if (collision_detection) net.enable_collision_detection(true);
  if (loss > 0.0) net.set_fault_model({loss, 4242});
  Rng master(42);
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    Rng child = master.split();
    net.set_protocol(v,
                     std::make_unique<KBroadcastNode>(rc, v, placement[v], child));
    if (!placement[v].empty()) net.wake_at_start(v);
  }
  // Generous headroom: lossy runs legitimately overshoot the fault-free
  // analytic bound when a lost ack forces extra alarm phases.
  const bool done =
      net.run_until_done(20 * total_rounds_bound(truth.size(), rc));

  CdOutcome out;
  out.delivered = done;
  out.collision_slots = net.trace().counters().collision_slots;
  out.fault_drops = net.trace().counters().fault_drops;
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& node = static_cast<const KBroadcastNode&>(net.protocol(v));
    out.on_collision_callbacks += node.collisions_observed();
  }
  return out;
}

class FaultCdMatrix : public ::testing::TestWithParam<double> {};

// Every fault rate of the matrix also runs under the collision-detection
// ablation: delivery must hold in both modes, the engine must fire exactly
// one on_collision callback per collision slot with CD on, and none with
// CD off (the paper's model — collisions indistinguishable from silence).
TEST_P(FaultCdMatrix, DeliversAndAccountsCollisionCallbacks) {
  const double loss = GetParam();
  const CdOutcome off = run_fault_cd(loss, /*collision_detection=*/false);
  const CdOutcome on = run_fault_cd(loss, /*collision_detection=*/true);

  EXPECT_TRUE(off.delivered) << "loss=" << loss << " cd=off";
  EXPECT_TRUE(on.delivered) << "loss=" << loss << " cd=on";
  EXPECT_EQ(off.on_collision_callbacks, 0u) << "loss=" << loss;
  EXPECT_EQ(on.on_collision_callbacks, on.collision_slots)
      << "loss=" << loss;
  EXPECT_GT(on.collision_slots, 0u) << "loss=" << loss;
  if (loss > 0.0) {
    EXPECT_GT(off.fault_drops, 0u) << "loss=" << loss;
    EXPECT_GT(on.fault_drops, 0u) << "loss=" << loss;
  } else {
    EXPECT_EQ(off.fault_drops, 0u);
    EXPECT_EQ(on.fault_drops, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, FaultCdMatrix,
                         ::testing::Values(0.0, 0.01, 0.05, 0.1));

TEST(FaultMatrix, HeavyLossEventuallyBreaksWhpClaims) {
  // Sanity check of the harness itself: at absurd loss (60%) the protocol
  // must fail visibly (timeout), not silently claim success.
  Rng grng(11);
  const graph::Graph g = graph::make_gnp_connected(20, 0.25, grng);
  const radio::Knowledge know = radio::Knowledge::exact(g);
  Rng prng(12);
  const Placement p = make_placement(20, 12, PlacementMode::kRandom, 8, prng);
  radio::FaultModel faults{0.6, 5};
  const RunResult r = run_kbroadcast(g, baselines::coded_config(know), p, 13,
                                     300'000, faults);
  EXPECT_FALSE(r.delivered_all);
  EXPECT_GT(r.counters.fault_drops, 0u);
}

}  // namespace
}  // namespace radiocast::core
