// RunObserver counts a run from the engine's slot events alone. Over the
// pinned audit corpus on both engines, its per-stage counters and its
// channel ledger must add up to the engine's own run-wide counters, and
// sharing the run's tap slot with a ModelAuditor and a PacketTracer must
// not change a byte of what it records.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "audit/corpus.hpp"
#include "audit/model_auditor.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "obs/export.hpp"
#include "obs/observer.hpp"
#include "obs/packet_trace.hpp"

namespace radiocast::obs {
namespace {

RunObserver::Options ledger_options() {
  RunObserver::Options opts;
  opts.channel_ledger = true;
  opts.ledger_max_rounds = 1u << 22;
  return opts;
}

/// One corpus case's inputs, built the way audit::run_corpus_case does.
struct CaseRun {
  graph::Graph g;
  core::KBroadcastConfig cfg;
  core::Placement placement;
  radio::FaultModel faults;

  explicit CaseRun(const audit::CorpusCase& c) {
    Rng graph_rng(c.graph_seed);
    g = graph::make_named(c.family, c.n, graph_rng);
    cfg.know = radio::Knowledge::exact(g);
    cfg.coded = c.coded;
    Rng placement_rng(c.placement_seed);
    placement = core::make_placement(g.num_nodes(), c.k, c.placement,
                                     /*payload_bytes=*/16, placement_rng);
    faults.reception_loss_probability = c.loss;
    faults.seed = c.run_seed ^ 0x5eedf001u;
  }

  core::RunResult run(const audit::CorpusCase& c, radio::EngineMode engine,
                      RunObserver* observer, core::RunAuditor* auditor = nullptr,
                      PacketTracer* tracer = nullptr) const {
    return core::run_kbroadcast(g, cfg, placement, c.run_seed, /*max_rounds=*/0,
                                faults, observer, auditor, c.collision_detection,
                                tracer, engine);
  }
};

/// `name` summed over stages: the samples labelled by stage alone, or by
/// stage and message `kind` when one is given.
std::uint64_t stage_sum(const MetricsSnapshot& metrics, const std::string& name,
                        const std::string& kind = "") {
  std::uint64_t sum = 0;
  for (const MetricSample& m : metrics) {
    if (m.name != name) continue;
    if (kind.empty() ? m.labels.size() != 1
                     : m.labels.size() != 2 || m.labels[0].second != kind) {
      continue;
    }
    sum += static_cast<std::uint64_t>(m.value);
  }
  return sum;
}

std::string run_jsonl(const RunObserver& observer, const core::RunResult& r) {
  std::ostringstream out;
  write_run_jsonl(out, observer, r.total_rounds);
  return out.str();
}

class ObserverEquivalence : public ::testing::TestWithParam<radio::EngineMode> {};

TEST_P(ObserverEquivalence, StageCountersAndLedgerAddUpToEngineCounters) {
  for (const audit::CorpusCase& c : audit::pinned_corpus()) {
    SCOPED_TRACE(c.name);
    const CaseRun inputs(c);
    RunObserver observer(ledger_options());
    const core::RunResult r = inputs.run(c, GetParam(), &observer);
    const radio::TraceCounters& tc = r.counters;
    ASSERT_TRUE(r.delivered_all);

    EXPECT_EQ(stage_sum(r.metrics, "sim.rounds"), r.total_rounds);
    EXPECT_EQ(stage_sum(r.metrics, "sim.rounds"), tc.rounds);
    EXPECT_EQ(stage_sum(r.metrics, "sim.transmissions"), tc.transmissions);
    EXPECT_EQ(stage_sum(r.metrics, "sim.deliveries"), tc.deliveries);
    EXPECT_EQ(stage_sum(r.metrics, "sim.collision_slots"), tc.collision_slots);
    EXPECT_EQ(stage_sum(r.metrics, "sim.deaf_slots"), tc.deaf_slots);
    EXPECT_EQ(stage_sum(r.metrics, "sim.fault_drops"), tc.fault_drops);
    EXPECT_EQ(stage_sum(r.metrics, "sim.wakeups"), tc.wakeups);
    for (std::size_t i = 0; i < radio::kNumMessageKinds; ++i) {
      const std::string kind = radio::message_kind_name(i);
      EXPECT_EQ(stage_sum(r.metrics, "sim.transmissions", kind),
                tc.transmissions_by_kind[i])
          << kind;
      EXPECT_EQ(stage_sum(r.metrics, "sim.deliveries", kind),
                tc.deliveries_by_kind[i])
          << kind;
    }
    if (c.loss > 0) {
      EXPECT_GT(tc.fault_drops, 0u);
    }

    ASSERT_NE(observer.ledger(), nullptr);
    const ChannelLedger& ledger = *observer.ledger();
    ASSERT_EQ(ledger.rows().size(), r.total_rounds);
    EXPECT_EQ(ledger.dropped_rows(), 0u);
    std::uint64_t tx = 0, rx = 0, coll = 0, deaf = 0, faults = 0;
    for (std::size_t i = 0; i < ledger.rows().size(); ++i) {
      const ChannelLedger::Row& row = ledger.rows()[i];
      EXPECT_EQ(row.round, i);
      tx += row.transmissions;
      rx += row.deliveries;
      coll += row.collisions;
      deaf += row.deaf;
      faults += row.faults;
    }
    EXPECT_EQ(tx, tc.transmissions);
    EXPECT_EQ(rx, tc.deliveries);
    EXPECT_EQ(coll, tc.collision_slots);
    EXPECT_EQ(deaf, tc.deaf_slots);
    EXPECT_EQ(faults, tc.fault_drops);
  }
}

TEST_P(ObserverEquivalence, SharingTheTapSlotChangesNothing) {
  for (const audit::CorpusCase& c : audit::pinned_corpus()) {
    SCOPED_TRACE(c.name);
    const CaseRun inputs(c);
    RunObserver alone(ledger_options());
    const core::RunResult r_alone = inputs.run(c, GetParam(), &alone);

    audit::ModelAuditor auditor;
    PacketTracer tracer;
    RunObserver shared(ledger_options());
    const core::RunResult r_shared =
        inputs.run(c, GetParam(), &shared, &auditor, &tracer);

    EXPECT_TRUE(audit::results_identical(r_alone, r_shared));
    EXPECT_TRUE(auditor.clean()) << auditor.summary();
    EXPECT_EQ(tracer.num_packets(), c.k);
    EXPECT_EQ(run_jsonl(alone, r_alone), run_jsonl(shared, r_shared));
    ASSERT_EQ(alone.ledger()->rows().size(), shared.ledger()->rows().size());
    for (std::size_t i = 0; i < alone.ledger()->rows().size(); ++i) {
      const ChannelLedger::Row& a = alone.ledger()->rows()[i];
      const ChannelLedger::Row& b = shared.ledger()->rows()[i];
      ASSERT_TRUE(a.stage == b.stage && a.epoch == b.epoch && a.awake == b.awake &&
                  a.transmissions == b.transmissions && a.deliveries == b.deliveries &&
                  a.collisions == b.collisions && a.deaf == b.deaf &&
                  a.faults == b.faults && a.silent == b.silent)
          << "ledger row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothEngines, ObserverEquivalence,
                         ::testing::Values(radio::EngineMode::kScalar,
                                           radio::EngineMode::kBitset),
                         [](const ::testing::TestParamInfo<radio::EngineMode>& info) {
                           return std::string(radio::engine_mode_name(info.param));
                         });

}  // namespace
}  // namespace radiocast::obs
