// End-to-end flight-recorder test: runs the full k-broadcast protocol
// with a RunObserver attached and checks that the span tree shows all
// four stages, every Stage-3 phase carries its estimate x (doubling phase
// over phase), siblings tile their parent exactly, the channel ledger
// accounts for every round, and attaching the observer does not perturb
// the run.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "obs/observer.hpp"

namespace radiocast {
namespace {

struct ObservedRun {
  core::RunResult result;
  std::vector<obs::Span> spans;
};

ObservedRun run_observed(std::uint32_t n, std::uint32_t k, std::uint64_t seed,
                         obs::RunObserver& observer) {
  Rng grng(seed);
  const graph::Graph g = graph::make_random_geometric(n, 0.35, grng);
  core::KBroadcastConfig cfg;
  cfg.know = radio::Knowledge::exact(g);
  Rng prng(seed + 1);
  const core::Placement placement =
      core::make_placement(n, k, core::PlacementMode::kRandom, 16, prng);
  ObservedRun out;
  out.result = core::run_kbroadcast(g, cfg, placement, seed + 2, /*max_rounds=*/0,
                                    /*faults=*/{}, &observer);
  out.spans = observer.spans();
  return out;
}

std::vector<obs::Span> by_category(const std::vector<obs::Span>& spans,
                                   const std::string& cat) {
  std::vector<obs::Span> out;
  for (const obs::Span& s : spans) {
    if (s.category == cat) out.push_back(s);
  }
  std::sort(out.begin(), out.end(), [](const obs::Span& a, const obs::Span& b) {
    return a.begin_round < b.begin_round;
  });
  return out;
}

std::uint64_t attr(const obs::Span& s, const std::string& key) {
  for (const obs::SpanAttr& a : s.attrs) {
    if (a.key == key) return a.value;
  }
  ADD_FAILURE() << "span " << s.name << " has no attr " << key;
  return 0;
}

TEST(ObserverEndToEnd, SpanTreeTilesTheRun) {
  obs::RunObserver observer;
  const ObservedRun run = run_observed(24, 20, 77, observer);
  ASSERT_TRUE(run.result.delivered_all);

  // All four stages, in order, tiling [0, total_rounds) exactly.
  const std::vector<obs::Span> stages = by_category(run.spans, "stage");
  ASSERT_EQ(stages.size(), 4u);
  EXPECT_EQ(stages[0].name, "stage1.leader");
  EXPECT_EQ(stages[1].name, "stage2.bfs");
  EXPECT_EQ(stages[2].name, "stage3.collection");
  EXPECT_EQ(stages[3].name, "stage4.dissemination");
  EXPECT_EQ(stages[0].begin_round, 0u);
  std::uint64_t stage_rounds = 0;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    EXPECT_TRUE(stages[i].closed);
    EXPECT_EQ(stages[i].depth, 0u);
    if (i > 0) EXPECT_EQ(stages[i].begin_round, stages[i - 1].end_round);
    stage_rounds += stages[i].duration();
  }
  EXPECT_EQ(stage_rounds, run.result.total_rounds);

  // Phases tile stage 3 and carry a doubling estimate.
  const std::vector<obs::Span> phases = by_category(run.spans, "phase");
  ASSERT_EQ(phases.size(), run.result.collection_phases);
  std::uint64_t phase_rounds = 0;
  std::uint64_t prev_estimate = 0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    EXPECT_EQ(phases[i].parent_id, stages[2].id);
    EXPECT_EQ(phases[i].depth, 1u);
    if (i > 0) EXPECT_EQ(phases[i].begin_round, phases[i - 1].end_round);
    const std::uint64_t x = attr(phases[i], "estimate");
    if (i > 0) EXPECT_EQ(x, 2 * prev_estimate);
    prev_estimate = x;
    phase_rounds += phases[i].duration();
  }
  EXPECT_EQ(phases.front().begin_round, stages[2].begin_round);
  EXPECT_EQ(phases.back().end_round, stages[2].end_round);
  EXPECT_EQ(phase_rounds, stages[2].duration());
  EXPECT_EQ(prev_estimate, run.result.final_estimate);

  // Epochs tile their phase; per-epoch round counts sum to stage 3, and
  // with the stage spans that reaches total_rounds.
  const std::vector<obs::Span> epochs = by_category(run.spans, "epoch");
  ASSERT_FALSE(epochs.empty());
  std::map<std::uint64_t, std::uint64_t> epoch_rounds_by_phase;
  for (const obs::Span& e : epochs) {
    EXPECT_EQ(e.depth, 2u);
    EXPECT_TRUE(e.name == "ospg" || e.name == "mspg" || e.name == "alarm")
        << e.name;
    epoch_rounds_by_phase[e.parent_id] += e.duration();
  }
  std::uint64_t epoch_rounds = 0;
  for (const obs::Span& p : phases) {
    ASSERT_TRUE(epoch_rounds_by_phase.count(p.id));
    EXPECT_EQ(epoch_rounds_by_phase[p.id], p.duration());
    epoch_rounds += epoch_rounds_by_phase[p.id];
  }
  EXPECT_EQ(epoch_rounds, stages[2].duration());
}

TEST(ObserverEndToEnd, MetricsMatchRunTotals) {
  obs::RunObserver observer;
  const ObservedRun run = run_observed(24, 20, 77, observer);

  // The ledger's per-stage aggregates sum to the run's totals, and each
  // stage's rounds match the stage span's duration.
  std::map<std::string, std::uint64_t> span_rounds;
  for (const obs::Span& s : by_category(run.spans, "stage")) {
    span_rounds[s.name] = s.duration();
  }
  std::map<std::string, std::uint64_t> stage_rounds;
  std::uint64_t rounds = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  for (const obs::ChannelLedger::Aggregate& a : observer.ledger().aggregates()) {
    stage_rounds[obs::ChannelLedger::stage_name(a.stage)] += a.rounds;
    rounds += a.rounds;
    transmissions += a.transmissions;
    deliveries += a.deliveries;
  }
  EXPECT_EQ(stage_rounds, span_rounds);
  EXPECT_EQ(rounds, run.result.total_rounds);
  EXPECT_EQ(transmissions, run.result.counters.transmissions);
  EXPECT_EQ(deliveries, run.result.counters.deliveries);
}

TEST(ObserverEndToEnd, AttachingObserverDoesNotPerturbTheRun) {
  Rng grng(77);
  const graph::Graph g = graph::make_random_geometric(24, 0.35, grng);
  core::KBroadcastConfig cfg;
  cfg.know = radio::Knowledge::exact(g);
  Rng prng(78);
  const core::Placement placement =
      core::make_placement(24, 20, core::PlacementMode::kRandom, 16, prng);

  const core::RunResult plain = core::run_kbroadcast(g, cfg, placement, 79);
  obs::RunObserver observer;
  const core::RunResult observed =
      core::run_kbroadcast(g, cfg, placement, 79, 0, {}, &observer);

  EXPECT_EQ(plain.total_rounds, observed.total_rounds);
  EXPECT_EQ(plain.delivered_all, observed.delivered_all);
  EXPECT_EQ(plain.counters.transmissions, observed.counters.transmissions);
  EXPECT_EQ(plain.counters.deliveries, observed.counters.deliveries);
}

TEST(ChannelLedger, SilentSlotsArithmetic) {
  obs::RoundStats s;
  s.awake = 10;
  s.transmissions = 2;
  s.deliveries = 3;
  s.collision_slots = 1;
  s.fault_drops = 1;
  // (10 - 2) listeners, minus 3 awake deliveries, 1 collision, 1 fault.
  EXPECT_EQ(obs::ChannelLedger::silent_slots(s), 3u);

  // Wake-up deliveries landed at sleeping nodes: they don't consume
  // listener slots, and wakeups exceeding deliveries clamp to zero
  // (initial wakes, CD collision wakes) rather than inflating silence.
  s.wakeups = 5;
  EXPECT_EQ(obs::ChannelLedger::silent_slots(s), 6u);  // 8 - 0 - 1 - 1
  s.wakeups = 2;
  EXPECT_EQ(obs::ChannelLedger::silent_slots(s), 5u);  // 8 - 1 - 1 - 1

  // The overall result clamps at zero as well.
  obs::RoundStats t;
  t.awake = 2;
  t.deliveries = 5;
  EXPECT_EQ(obs::ChannelLedger::silent_slots(t), 0u);
  obs::RoundStats all_tx;
  all_tx.awake = 4;
  all_tx.transmissions = 4;
  EXPECT_EQ(obs::ChannelLedger::silent_slots(all_tx), 0u);
}

TEST(ChannelLedger, RowsInternNamesAndAggregatesAccumulate) {
  constexpr std::uint32_t kOspg = 1, kMspg = 2;
  obs::ChannelLedger ledger(/*max_rounds=*/100);
  obs::RoundStats s;
  s.awake = 8;
  s.transmissions = 1;
  s.deliveries = 2;
  for (std::uint64_t r = 0; r < 3; ++r) {
    s.round = r;
    ledger.on_round(s, 3, r < 2 ? kOspg : kMspg);
  }
  s.round = 3;
  ledger.on_round(s, 4, 0);

  ASSERT_EQ(ledger.rows().size(), 4u);
  EXPECT_EQ(ledger.dropped_rows(), 0u);
  // Rows name their stage and epoch kind by index into one static table;
  // epoch kind 0 is "no epoch".
  EXPECT_STREQ(obs::ChannelLedger::epoch_name(0), "");
  EXPECT_EQ(obs::ChannelLedger::epoch_index("mspg"), kMspg);
  const auto& rows = ledger.rows();
  EXPECT_STREQ(obs::ChannelLedger::stage_name(rows[0].stage), "stage3.collection");
  EXPECT_STREQ(obs::ChannelLedger::epoch_name(rows[0].epoch), "ospg");
  EXPECT_EQ(rows[0].epoch, rows[1].epoch);
  EXPECT_NE(rows[1].epoch, rows[2].epoch);
  EXPECT_EQ(rows[3].epoch, 0u);
  EXPECT_EQ(rows[0].silent, 5u);  // (8-1) - 2

  // Aggregates: one per (stage, epoch) slice, chronological, summed.
  const auto& aggs = ledger.aggregates();
  ASSERT_EQ(aggs.size(), 3u);
  EXPECT_STREQ(obs::ChannelLedger::stage_name(aggs[0].stage), "stage3.collection");
  EXPECT_EQ(aggs[0].epoch, kOspg);
  EXPECT_EQ(aggs[0].rounds, 2u);
  EXPECT_EQ(aggs[0].awake, 16u);
  EXPECT_EQ(aggs[0].deliveries, 4u);
  EXPECT_EQ(aggs[0].silent, 10u);
  EXPECT_EQ(aggs[1].epoch, kMspg);
  EXPECT_EQ(aggs[1].rounds, 1u);
  EXPECT_STREQ(obs::ChannelLedger::stage_name(aggs[2].stage), "stage4.dissemination");
  EXPECT_EQ(aggs[2].epoch, 0u);

  // A slice seen again later adds to its first-seen aggregate.
  s.round = 4;
  ledger.on_round(s, 3, kOspg);
  ASSERT_EQ(ledger.aggregates().size(), 3u);
  EXPECT_EQ(ledger.aggregates()[0].rounds, 3u);
}

TEST(ChannelLedger, RowCapCountsDropsButAggregatesCoverTheRun) {
  obs::ChannelLedger ledger(/*max_rounds=*/2);
  obs::RoundStats s;
  s.awake = 4;
  for (std::uint64_t r = 0; r < 5; ++r) {
    s.round = r;
    ledger.on_round(s, 1, 0);
  }
  EXPECT_EQ(ledger.rows().size(), 2u);
  EXPECT_EQ(ledger.dropped_rows(), 3u);
  ASSERT_EQ(ledger.aggregates().size(), 1u);
  EXPECT_EQ(ledger.aggregates()[0].rounds, 5u);  // never capped
  EXPECT_EQ(ledger.aggregates()[0].awake, 20u);
}

TEST(ChannelLedger, ObserverLedgerCoversEveryRound) {
  obs::RunObserver capped(obs::RunObserver::Options{/*ledger_max_rounds=*/100});
  const ObservedRun run = run_observed(24, 8, 91, capped);
  const obs::ChannelLedger& ledger = capped.ledger();
  // Rows stop at the cap; the drops are counted, and the aggregates still
  // attribute every simulated round to a known stage.
  ASSERT_GT(run.result.total_rounds, 100u);
  EXPECT_EQ(ledger.rows().size(), 100u);
  EXPECT_EQ(ledger.dropped_rows(), run.result.total_rounds - 100);
  std::uint64_t agg_rounds = 0;
  for (const auto& a : ledger.aggregates()) {
    EXPECT_NE(a.stage, 0u) << "unattributed rounds";
    agg_rounds += a.rounds;
  }
  EXPECT_EQ(agg_rounds, run.result.total_rounds);

  // The default cap keeps one row per round of a run this size.
  obs::RunObserver full;
  const ObservedRun again = run_observed(24, 8, 91, full);
  EXPECT_EQ(full.ledger().rows().size(), again.result.total_rounds);
  EXPECT_EQ(full.ledger().dropped_rows(), 0u);
}

}  // namespace
}  // namespace radiocast
