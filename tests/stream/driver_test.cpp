// End-to-end open-system runs: determinism, audit cleanliness, and the policy-visible behaviors (drops vs backpressure,
// saturation beyond the knee).
#include "stream/driver.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/generators.hpp"

namespace radiocast::stream {
namespace {

graph::Graph test_graph() {
  Rng grng(11);
  return graph::make_random_geometric(16, 0.45, grng);
}

StreamConfig base_cfg(const graph::Graph& g, double load,
                      std::uint32_t epochs = 6) {
  core::KBroadcastConfig kcfg;
  kcfg.know = radio::Knowledge::exact(g);
  StreamConfig cfg;
  cfg.dyn.rc = core::resolve(kcfg);
  cfg.dyn.batch_capacity = 16;
  cfg.arrivals.rate = per_node_rate(cfg.dyn, g.num_nodes(), load);
  cfg.arrivals.seed = 77;
  cfg.buffer_capacity = 64;
  cfg.saturation.window = 2;
  cfg.saturation.min_growth = 8;
  cfg.horizon = cfg.dyn.rc.stage3_start() +
                static_cast<std::uint64_t>(epochs) * epoch_estimate_rounds(cfg.dyn);
  cfg.seed = 42;
  return cfg;
}

void expect_same(const StreamResult& a, const StreamResult& b) {
  EXPECT_EQ(a.arrivals_scheduled, b.arrivals_scheduled);
  EXPECT_EQ(a.delivered_everywhere, b.delivered_everywhere);
  EXPECT_EQ(a.queue.offered, b.queue.offered);
  EXPECT_EQ(a.queue.admitted, b.queue.admitted);
  EXPECT_EQ(a.queue.dropped, b.queue.dropped);
  EXPECT_EQ(a.queue.backpressured, b.queue.backpressured);
  EXPECT_EQ(a.queue.peak_depth, b.queue.peak_depth);
  EXPECT_EQ(a.in_system_end, b.in_system_end);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.saturation_onset_round, b.saturation_onset_round);
  EXPECT_EQ(a.epochs_completed, b.epochs_completed);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(a.latency.sum(), b.latency.sum());
  EXPECT_EQ(a.latency.max(), b.latency.max());
  EXPECT_EQ(a.counters.transmissions, b.counters.transmissions);
  EXPECT_EQ(a.counters.deliveries, b.counters.deliveries);
  EXPECT_EQ(a.counters.collision_slots, b.counters.collision_slots);
}

TEST(StreamDriver, RepeatedRunsAreIdentical) {
  const graph::Graph g = test_graph();
  const StreamConfig cfg = base_cfg(g, 0.5);
  expect_same(run_stream(g, cfg), run_stream(g, cfg));
}

TEST(StreamDriver, AuditedRunIsCleanAndBitIdentical) {
  const graph::Graph g = test_graph();
  StreamConfig cfg = base_cfg(g, 1.0);
  const StreamResult plain = run_stream(g, cfg);
  cfg.audit = true;
  const StreamResult audited = run_stream(g, cfg);
  EXPECT_TRUE(audited.audited);
  EXPECT_EQ(audited.audit_violations, 0u) << audited.audit_summary;
  EXPECT_EQ(audited.audit_summary, "clean");
  // The auditor is read-only: it must not perturb a single outcome.
  expect_same(plain, audited);
}

TEST(StreamDriver, LowLoadDeliversWithoutSaturating) {
  const graph::Graph g = test_graph();
  const StreamConfig cfg = base_cfg(g, 0.25);
  const StreamResult r = run_stream(g, cfg);
  EXPECT_GT(r.arrivals_scheduled, 0u);
  EXPECT_GT(r.delivered_everywhere, 0u);
  EXPECT_EQ(r.queue.dropped, 0u);
  EXPECT_FALSE(r.saturated);
  EXPECT_GT(r.epochs_completed, 0u);
  EXPECT_GT(r.throughput, 0.0);
  EXPECT_GT(r.normalized_throughput, r.throughput);  // x log2(n_hat) > 1
}

TEST(StreamDriver, OverloadSaturatesAndBacklogGrows) {
  const graph::Graph g = test_graph();
  StreamConfig cfg = base_cfg(g, 4.0, /*epochs=*/8);
  const StreamResult r = run_stream(g, cfg);
  EXPECT_TRUE(r.saturated);
  EXPECT_GT(r.saturation_onset_round, 0u);
  EXPECT_LT(r.saturation_onset_round, cfg.horizon);
  // Far more offered than the pipeline can carry: backlog at the horizon.
  EXPECT_GT(r.in_system_end, r.queue.dropped == 0 ? 16u : 0u);
  EXPECT_LT(r.delivered_everywhere, r.arrivals_scheduled);
}

TEST(StreamDriver, BackpressureNeverDropsTinyBufferDoes) {
  const graph::Graph g = test_graph();
  StreamConfig cfg = base_cfg(g, 4.0, /*epochs=*/8);
  cfg.buffer_capacity = 4;

  cfg.policy = BufferPolicy::kBackpressure;
  const StreamResult bp = run_stream(g, cfg);
  EXPECT_EQ(bp.queue.dropped, 0u);
  EXPECT_GT(bp.queue.backpressured, 0u);
  EXPECT_EQ(bp.queue.offered, bp.arrivals_scheduled);

  cfg.policy = BufferPolicy::kDropNew;
  const StreamResult dn = run_stream(g, cfg);
  EXPECT_GT(dn.queue.dropped, 0u);
  EXPECT_EQ(dn.queue.backpressured, 0u);
  EXPECT_EQ(dn.queue.admitted + dn.queue.dropped, dn.queue.offered);
}

TEST(StreamDriver, AccountingInvariantsHold) {
  const graph::Graph g = test_graph();
  const StreamConfig cfg = base_cfg(g, 1.0);
  const StreamResult r = run_stream(g, cfg);
  EXPECT_EQ(r.n, g.num_nodes());
  EXPECT_EQ(r.horizon, cfg.horizon);
  EXPECT_EQ(r.queue.offered, r.arrivals_scheduled);
  // One latency observation per fully delivered packet.
  EXPECT_EQ(r.latency.count(), r.delivered_everywhere);
  EXPECT_DOUBLE_EQ(
      r.throughput,
      static_cast<double>(r.delivered_everywhere) / static_cast<double>(cfg.horizon));
  // Every epoch boundary is sampled, kept as a row or counted as dropped.
  EXPECT_GE(r.ledger.rows().size() + r.ledger.dropped_rows(),
            static_cast<std::uint64_t>(r.epochs_completed));
}

TEST(StreamDriver, PerNodeRateMatchesOfferedLoadSemantics) {
  const graph::Graph g = test_graph();
  const StreamConfig cfg = base_cfg(g, 1.0);
  const double epoch = static_cast<double>(epoch_estimate_rounds(cfg.dyn));
  // load 1.0 <=> batch_capacity packets network-wide per nominal epoch.
  EXPECT_NEAR(cfg.arrivals.rate * g.num_nodes() * epoch,
              static_cast<double>(cfg.dyn.resolved_capacity()), 1e-9);
  EXPECT_GT(epoch_estimate_rounds(cfg.dyn), cfg.dyn.dissemination_window());
}

}  // namespace
}  // namespace radiocast::stream
