// RunObserver counts a run from the engine's slot events alone. Over the
// pinned audit corpus on both engines, its channel ledger must add up to
// the engine's own run-wide counters, and sharing the run's tap slot with
// a ModelAuditor and a PacketTracer must not change a byte of what it
// records.
#include <gtest/gtest.h>

#include <array>
#include <initializer_list>
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

std::string run_jsonl(const RunObserver& observer, const core::RunResult& r) {
  std::ostringstream out;
  write_run_jsonl(out, observer, r.total_rounds);
  return out.str();
}

/// `by_kind` summed over the kinds of the given message bodies.
std::uint64_t kind_sum(const std::array<std::uint64_t, radio::kNumMessageKinds>& by_kind,
                       std::initializer_list<radio::MessageBody> kinds) {
  std::uint64_t sum = 0;
  for (const radio::MessageBody& body : kinds) {
    sum += by_kind[radio::message_kind_index(body)];
  }
  return sum;
}

class ObserverEquivalence : public ::testing::TestWithParam<radio::EngineMode> {};

// An attached tap makes every round order-sensitive, so the observed run
// always takes the scalar kernel; the counters it is checked against come
// from an untapped run, which on loss-free cases really takes the
// parameterised kernel.
TEST_P(ObserverEquivalence, StageCountersAndLedgerAddUpToEngineCounters) {
  for (const audit::CorpusCase& c : audit::pinned_corpus()) {
    SCOPED_TRACE(c.name);
    const CaseRun inputs(c);
    const core::RunResult bare = inputs.run(c, GetParam(), nullptr);
    RunObserver observer(ledger_options());
    const core::RunResult r = inputs.run(c, GetParam(), &observer);
    const radio::TraceCounters& tc = bare.counters;
    ASSERT_TRUE(bare.delivered_all);
    ASSERT_EQ(r.total_rounds, bare.total_rounds);
    if (c.loss > 0) {
      EXPECT_GT(tc.fault_drops, 0u);
    }

    const ChannelLedger& ledger = observer.ledger();
    ASSERT_EQ(ledger.rows().size(), bare.total_rounds);
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

    // Per-stage aggregates: each slot counter sums to the run-wide total,
    // and since message kinds are confined by stage (bfs in Stage 2, plain
    // and coded in Stage 4, alarm, data and ack in Stages 1 and 3), each
    // stage's traffic equals the engine's per-kind totals for its kinds.
    ChannelLedger::Aggregate total;
    std::array<ChannelLedger::Aggregate, ChannelLedger::kNumStages> stage{};
    for (const ChannelLedger::Aggregate& a : ledger.aggregates()) {
      for (ChannelLedger::Aggregate* acc : {&total, &stage[a.stage]}) {
        acc->rounds += a.rounds;
        acc->transmissions += a.transmissions;
        acc->deliveries += a.deliveries;
        acc->collisions += a.collisions;
        acc->deaf += a.deaf;
        acc->faults += a.faults;
      }
    }
    EXPECT_EQ(total.rounds, tc.rounds);
    EXPECT_EQ(total.transmissions, tc.transmissions);
    EXPECT_EQ(total.deliveries, tc.deliveries);
    EXPECT_EQ(total.collisions, tc.collision_slots);
    EXPECT_EQ(total.deaf, tc.deaf_slots);
    EXPECT_EQ(total.faults, tc.fault_drops);
    EXPECT_EQ(stage[0].rounds, 0u);
    const auto tx_of = [&tc](std::initializer_list<radio::MessageBody> kinds) {
      return kind_sum(tc.transmissions_by_kind, kinds);
    };
    const auto rx_of = [&tc](std::initializer_list<radio::MessageBody> kinds) {
      return kind_sum(tc.deliveries_by_kind, kinds);
    };
    EXPECT_EQ(stage[2].transmissions, tx_of({radio::BfsConstructMsg{}}));
    EXPECT_EQ(stage[2].deliveries, rx_of({radio::BfsConstructMsg{}}));
    EXPECT_EQ(stage[4].transmissions, tx_of({radio::PlainPacketMsg{}, radio::CodedMsg{}}));
    EXPECT_EQ(stage[4].deliveries, rx_of({radio::PlainPacketMsg{}, radio::CodedMsg{}}));
    EXPECT_EQ(stage[1].transmissions + stage[3].transmissions,
              tx_of({radio::AlarmMsg{}, radio::DataMsg{}, radio::AckMsg{}}));
    EXPECT_EQ(stage[1].deliveries + stage[3].deliveries,
              rx_of({radio::AlarmMsg{}, radio::DataMsg{}, radio::AckMsg{}}));
  }
}

// Both tapped runs take the scalar kernel; the untapped run on the
// parameterised engine pins that neither tap set changed the run.
TEST_P(ObserverEquivalence, SharingTheTapSlotChangesNothing) {
  for (const audit::CorpusCase& c : audit::pinned_corpus()) {
    SCOPED_TRACE(c.name);
    const CaseRun inputs(c);
    const core::RunResult bare = inputs.run(c, GetParam(), nullptr);
    RunObserver alone(ledger_options());
    const core::RunResult r_alone = inputs.run(c, GetParam(), &alone);

    audit::ModelAuditor auditor;
    PacketTracer tracer;
    RunObserver shared(ledger_options());
    const core::RunResult r_shared =
        inputs.run(c, GetParam(), &shared, &auditor, &tracer);

    EXPECT_TRUE(audit::results_identical(bare, r_alone));
    EXPECT_TRUE(audit::results_identical(r_alone, r_shared));
    EXPECT_TRUE(auditor.clean()) << auditor.summary();
    EXPECT_EQ(tracer.num_packets(), c.k);
    EXPECT_EQ(run_jsonl(alone, r_alone), run_jsonl(shared, r_shared));
    ASSERT_EQ(alone.ledger().rows().size(), shared.ledger().rows().size());
    for (std::size_t i = 0; i < alone.ledger().rows().size(); ++i) {
      const ChannelLedger::Row& a = alone.ledger().rows()[i];
      const ChannelLedger::Row& b = shared.ledger().rows()[i];
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
