// Poll-hint soundness on the pinned audit corpus.
//
// The engine skips on_transmit for a node inside the quiet spell its last
// call declared (radio::NodeProtocol::quiet_until). Every corpus case runs
// twice in lock step, under each engine mode (both forced sweeps and the
// default per-round rule): once with bare KBroadcastNodes,
// which the engine skips on their hints, and once with each node wrapped
// in an InterceptingProtocol, which never forwards the hint and so is
// polled on every awake round. Per case this pins:
//
//   1. identical transmitter sets in every round, and identical results
//      (results_identical with only the poll counter masked);
//   2. no transmission in a round the inner node had declared quiet since
//      its last callback — the hint never hides a transmission;
//   3. the poll accounting: the wrapped run polls every awake node-round,
//      the bare run strictly fewer, and the difference is exactly the
//      quiet rounds the wrapped run observed;
//   4. the lock-step mirror of the runner equals core::run_kbroadcast
//      itself, poll counter included.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "audit/corpus.hpp"
#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "core/schedule.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "radio/interceptor.hpp"
#include "radio/network.hpp"
#include "transmit_recorder.hpp"

namespace radiocast::audit {
namespace {

/// One side of the lock step: a network of KBroadcastNodes, optionally
/// each wrapped in an InterceptingProtocol that tracks the inner hint.
struct Side {
  Side(const graph::Graph& g, const CorpusCase& c, const core::ResolvedConfig& rc,
       const core::Placement& placement, radio::EngineMode engine, bool wrap)
      : net(g), due(g.num_nodes(), 0) {
    net.set_engine(engine);
    if (c.loss > 0.0) {
      radio::FaultModel faults;
      faults.reception_loss_probability = c.loss;
      faults.seed = c.run_seed ^ 0x5eedf001u;
      net.set_fault_model(faults);
    }
    if (c.collision_detection) net.enable_collision_detection(true);
    net.set_auditor(&recorder);
    Rng master(c.run_seed);
    for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
      auto node = std::make_unique<core::KBroadcastNode>(rc, v, placement[v], master.split());
      const core::KBroadcastNode* inner = node.get();
      nodes.push_back(inner);
      if (wrap) {
        auto w = std::make_unique<radio::InterceptingProtocol>(std::move(node));
        w->set_transmit_hook(
            [this, v, inner](radio::Round round, const std::optional<radio::MessageBody>& out) {
              if (round < due[v]) {
                ++quiet_polls;
                if (out.has_value()) ++early_transmissions;
              }
              due[v] = inner->quiet_until();
            });
        w->set_receive_hook([this, v](radio::Round, const radio::Message&) { due[v] = 0; });
        w->set_wake_hook([this, v](radio::Round) { due[v] = 0; });
        w->set_collision_hook([this, v](radio::Round) { due[v] = 0; });
        net.set_protocol(v, std::move(w));
      } else {
        net.set_protocol(v, std::move(node));
      }
      if (!placement[v].empty()) net.wake_at_start(v);
    }
  }

  bool all_done() const {
    for (radio::NodeId v = 0; v < net.num_nodes(); ++v) {
      if (!net.protocol(v).done()) return false;
    }
    return true;
  }

  radio::Network net;
  TransmitRecorder recorder;
  std::vector<const core::KBroadcastNode*> nodes;
  /// Wrapped side only: the inner node's hint since its last callback.
  std::vector<radio::Round> due;
  std::uint64_t quiet_polls = 0;
  std::uint64_t early_transmissions = 0;
};

/// The verification half of core::run_kbroadcast, applied to a side.
core::RunResult result_of(const Side& s, const graph::Graph& g,
                          const core::ResolvedConfig& rc,
                          const core::Placement& placement, bool all_done) {
  const std::vector<radio::Packet> truth = core::placement_packets(placement);
  radio::NodeId expected_leader = 0;
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!placement[v].empty()) expected_leader = std::max(expected_leader, v);
  }
  const graph::BfsResult truth_bfs = graph::bfs(g, expected_leader);

  core::RunResult r;
  r.n = g.num_nodes();
  r.k = static_cast<std::uint32_t>(truth.size());
  r.timed_out = !all_done;
  r.total_rounds = s.net.current_round();
  r.counters = s.net.trace().counters();
  r.bfs_ok = true;
  std::uint32_t leaders = 0;
  bool leader_is_expected = false;
  for (radio::NodeId v = 0; v < g.num_nodes(); ++v) {
    const core::KBroadcastNode& node = *s.nodes[v];
    if (node.is_leader()) {
      ++leaders;
      leader_is_expected = leader_is_expected || v == expected_leader;
    }
    if (truth_bfs.dist[v] != graph::kUnreachable &&
        (!node.has_bfs_distance() || node.bfs_distance() != truth_bfs.dist[v])) {
      r.bfs_ok = false;
    }
    std::vector<radio::Packet> got = node.delivered_packets();
    std::sort(got.begin(), got.end(),
              [](const radio::Packet& a, const radio::Packet& b) { return a.id < b.id; });
    if (got == truth) ++r.nodes_complete;
  }
  r.leader_ok = leaders == 1 && leader_is_expected;
  r.delivered_all = r.nodes_complete == g.num_nodes();
  const core::KBroadcastNode& leader = *s.nodes[expected_leader];
  r.stage1_rounds = rc.stage1_rounds;
  r.stage2_rounds = rc.stage2_rounds;
  if (leader.stage3_end() != 0) {
    r.stage3_rounds = leader.stage3_end() - rc.stage3_start();
    if (r.total_rounds > leader.stage3_end()) {
      r.stage4_rounds = r.total_rounds - leader.stage3_end();
    }
  }
  if (const core::CollectionState* coll = leader.collection()) {
    r.collection_phases = coll->phases_run();
    r.final_estimate = coll->estimate();
  }
  return r;
}

using Param = std::tuple<CorpusCase, radio::EngineMode>;

class PollHintLockstep : public ::testing::TestWithParam<Param> {};

TEST_P(PollHintLockstep, WrappedRunMatchesBareRoundByRound) {
  const auto& [c, engine] = GetParam();
  Rng graph_rng(c.graph_seed);
  const graph::Graph g = graph::make_named(c.family, c.n, graph_rng);
  core::KBroadcastConfig cfg;
  cfg.know = radio::Knowledge::exact(g);
  cfg.coded = c.coded;
  const core::ResolvedConfig rc = core::resolve(cfg);
  Rng placement_rng(c.placement_seed);
  const core::Placement placement = core::make_placement(
      g.num_nodes(), c.k, c.placement, /*payload_bytes=*/16, placement_rng);

  Side bare(g, c, rc, placement, engine, /*wrap=*/false);
  Side wrapped(g, c, rc, placement, engine, /*wrap=*/true);
  const std::uint64_t max_rounds = core::total_rounds_bound(c.k, rc);
  std::uint64_t awake_node_rounds = 0;
  bool done = bare.all_done();
  for (std::uint64_t r = 0; r < max_rounds && !done; ++r) {
    awake_node_rounds += wrapped.net.num_awake();
    bare.net.step();
    wrapped.net.step();
    ASSERT_EQ(bare.recorder.senders, wrapped.recorder.senders) << c.name << " round " << r;
    done = bare.all_done();
    ASSERT_EQ(done, wrapped.all_done()) << c.name << " round " << r;
  }

  EXPECT_EQ(wrapped.early_transmissions, 0u) << c.name;
  core::RunResult bare_result = result_of(bare, g, rc, placement, done);
  core::RunResult wrapped_result = result_of(wrapped, g, rc, placement, done);
  EXPECT_TRUE(bare_result.delivered_all) << c.name;
  EXPECT_EQ(wrapped_result.counters.polls, awake_node_rounds) << c.name;
  EXPECT_LT(bare_result.counters.polls, wrapped_result.counters.polls) << c.name;
  EXPECT_EQ(wrapped_result.counters.polls - bare_result.counters.polls,
            wrapped.quiet_polls)
      << c.name;

  radio::FaultModel faults;
  faults.reception_loss_probability = c.loss;
  faults.seed = c.run_seed ^ 0x5eedf001u;
  const core::RunResult runner = core::run_kbroadcast(
      g, cfg, placement, c.run_seed, /*max_rounds=*/0, faults, /*observer=*/nullptr,
      /*auditor=*/nullptr, c.collision_detection, /*tracer=*/nullptr, engine);
  EXPECT_TRUE(results_identical(bare_result, runner)) << c.name;

  wrapped_result.counters.polls = bare_result.counters.polls;
  EXPECT_TRUE(results_identical(bare_result, wrapped_result)) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    PinnedCorpus, PollHintLockstep,
    ::testing::Combine(::testing::ValuesIn(pinned_corpus()),
                       ::testing::Values(radio::EngineMode::kScalar,
                                         radio::EngineMode::kBitset,
                                         radio::EngineMode::kAuto)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::get<0>(info.param).name + "_" +
             radio::engine_mode_name(std::get<1>(info.param));
    });

}  // namespace
}  // namespace radiocast::audit
