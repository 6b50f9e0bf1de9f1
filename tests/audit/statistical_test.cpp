// Statistical conformance with Theorem 2.
//
// The paper's bound is rounds = O(k·logΔ + (D+log n)·log n·logΔ). The
// checker measures mean completion rounds over a pinned seed corpus on an
// (n, D, Δ, k) grid chosen so the two terms separate (path: D dominates;
// star/clique-chain: Δ dominates; k swept within each family), fits the
// two-parameter model with least squares (audit::fit_theorem2), and fails
// when the fit leaves the pinned confidence bands:
//  * both coefficients positive and below pinned ceilings (a uniform
//    slowdown inflates them);
//  * relative residuals below pinned bands (a shape regression — e.g. a
//    k·D cross term sneaking into the hot path — cannot be absorbed by
//    the two Theorem-2 features and blows up the residuals).
// The grid runs fully audited: a model violation anywhere fails too.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "audit/model_auditor.hpp"
#include "audit/statfit.hpp"
#include "core/montecarlo.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace radiocast {
namespace {

TEST(TheoremFit, RecoversExactSyntheticCoefficients) {
  std::vector<audit::TheoremPoint> pts;
  for (double k : {4.0, 8.0, 16.0}) {
    for (double d : {3.0, 10.0, 24.0}) {
      audit::TheoremPoint p;
      p.n = 32;
      p.diameter = d;
      p.max_degree = 6;
      p.k = k;
      p.rounds = 3.0 * audit::theorem2_feature_k(p) +
                 5.0 * audit::theorem2_feature_overhead(p);
      pts.push_back(p);
    }
  }
  const audit::TheoremFit fit = audit::fit_theorem2(pts);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.a, 3.0, 1e-6);
  EXPECT_NEAR(fit.b, 5.0, 1e-6);
  EXPECT_LT(fit.max_rel_residual, 1e-6);
}

TEST(TheoremFit, RejectsDegenerateGrids) {
  // One point, and collinear features, are both unfittable.
  EXPECT_FALSE(audit::fit_theorem2({}).ok);
  audit::TheoremPoint p;
  p.n = 32;
  p.diameter = 5;
  p.max_degree = 4;
  p.k = 8;
  p.rounds = 100;
  EXPECT_FALSE(audit::fit_theorem2({p}).ok);
  EXPECT_FALSE(audit::fit_theorem2({p, p, p}).ok);
}

struct GridCell {
  std::string family;
  std::uint32_t n;
  std::uint32_t k;
};

/// Measures mean audited completion rounds for one grid cell.
audit::TheoremPoint measure_cell(const GridCell& cell, int trials,
                                 std::uint64_t seed_base) {
  Rng grng(seed_base);
  // make_named keeps graphs alive only locally; generate then sweep.
  static std::vector<std::unique_ptr<graph::Graph>> keep_alive;
  keep_alive.push_back(
      std::make_unique<graph::Graph>(graph::make_named(cell.family, cell.n, grng)));
  const graph::Graph& g = *keep_alive.back();

  std::vector<audit::ModelAuditor> auditors(trials);
  core::montecarlo::KBroadcastSweep sweep;
  sweep.graph = &g;
  sweep.cfg.know = radio::Knowledge::exact(g);
  sweep.k = cell.k;
  sweep.placement_seed = [seed_base](int t) { return seed_base * 131 + t; };
  sweep.run_seed = [seed_base](int t) { return seed_base * 977 + t; };
  sweep.taps = [&auditors](int t) { return &auditors[t]; };
  const std::vector<core::RunResult> results =
      core::montecarlo::run_kbroadcast_sweep(sweep, trials);

  double sum = 0;
  for (int t = 0; t < trials; ++t) {
    EXPECT_TRUE(results[t].delivered_all)
        << cell.family << " n=" << cell.n << " k=" << cell.k << " trial " << t;
    EXPECT_TRUE(auditors[t].clean())
        << cell.family << " trial " << t << ": " << auditors[t].summary();
    sum += static_cast<double>(results[t].total_rounds);
  }

  audit::TheoremPoint p;
  p.n = cell.n;
  p.diameter = graph::diameter(g);
  p.max_degree = static_cast<double>(g.max_degree());
  p.k = cell.k;
  p.rounds = sum / trials;
  return p;
}

TEST(TheoremFit, MeasuredGridMatchesTheorem2Shape) {
  // k spans an order of magnitude within each family so the k·logΔ slope
  // is identified independently of the per-family overhead term.
  const std::vector<GridCell> grid = {
      {"path", 24, 4},           {"path", 24, 16},
      {"path", 24, 48},          {"path", 40, 8},
      {"star", 24, 4},           {"star", 24, 16},
      {"star", 24, 48},          {"star", 40, 8},
      {"cluster_chain", 24, 6},  {"cluster_chain", 24, 32},
      {"cluster_chain", 40, 10}, {"gnp", 32, 6},
      {"gnp", 32, 24},
  };
  constexpr int kTrials = 3;

  std::vector<audit::TheoremPoint> pts;
  std::uint64_t seed = 7000;
  for (const GridCell& cell : grid) {
    pts.push_back(measure_cell(cell, kTrials, seed));
    seed += 17;
  }

  const audit::TheoremFit fit = audit::fit_theorem2(pts);
  ASSERT_TRUE(fit.ok);
  RecordProperty("fit_a", std::to_string(fit.a));
  RecordProperty("fit_b", std::to_string(fit.b));
  RecordProperty("mean_rel_residual", std::to_string(fit.mean_rel_residual));
  RecordProperty("max_rel_residual", std::to_string(fit.max_rel_residual));

  // Pinned confidence bands. Calibrated on the frozen seeds above, which
  // measure a ≈ 12.5, b ≈ 93.6, mean residual ≈ 0.19, max ≈ 0.31; bands
  // leave ~2x headroom (see docs/testing.md for the re-pinning
  // procedure). Both coefficients must be positive — each Theorem-2 term
  // demonstrably contributes — and bounded, and the two-feature model
  // must explain the grid.
  EXPECT_GT(fit.a, 0.0) << "k·logΔ term vanished: a=" << fit.a;
  EXPECT_GT(fit.b, 0.0) << "(D+log n)·log n·logΔ term vanished: b=" << fit.b;
  EXPECT_LT(fit.a, 80.0) << "per-packet cost regressed: a=" << fit.a;
  EXPECT_LT(fit.b, 200.0) << "schedule overhead regressed: b=" << fit.b;
  EXPECT_LT(fit.mean_rel_residual, 0.35)
      << "Theorem-2 shape no longer explains the grid";
  EXPECT_LT(fit.max_rel_residual, 0.55)
      << "at least one grid cell diverges from the Theorem-2 shape";
}

TEST(TheoremFit, DetectsAShapeRegression) {
  // Synthesize a Theorem-2-conformant grid, then inject a k·D cross term —
  // the signature of a pipelining bug (groups no longer overlap across
  // layers). The two-feature fit must fail the residual band that the
  // conformant data passes.
  std::vector<audit::TheoremPoint> clean, broken;
  for (double k : {4.0, 8.0, 16.0, 32.0}) {
    for (double d : {2.0, 8.0, 23.0, 39.0}) {
      audit::TheoremPoint p;
      p.n = 40;
      p.diameter = d;
      p.max_degree = d < 10 ? 39.0 : 2.0;  // star-like vs path-like
      p.k = k;
      p.rounds = 20.0 * audit::theorem2_feature_k(p) +
                 8.0 * audit::theorem2_feature_overhead(p);
      clean.push_back(p);
      p.rounds += 25.0 * p.k * p.diameter;  // the regression
      broken.push_back(p);
    }
  }
  const audit::TheoremFit good = audit::fit_theorem2(clean);
  const audit::TheoremFit bad = audit::fit_theorem2(broken);
  ASSERT_TRUE(good.ok && bad.ok);
  EXPECT_LT(good.max_rel_residual, 1e-6);
  EXPECT_GT(bad.max_rel_residual, 0.45)
      << "a k·D cross term must not be absorbable by the Theorem-2 features";
}

}  // namespace
}  // namespace radiocast
