// Monte Carlo driver: trial-order reduction and, critically, the
// determinism contract — a sweep run on N threads must be byte-identical
// to the same sweep run sequentially.
#include "core/montecarlo.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "baselines/uncoded_pipeline.hpp"
#include "graph/generators.hpp"
#include "obs/export.hpp"
#include "obs/observer.hpp"

namespace radiocast::core {
namespace {

TEST(ThreadsFromEnvTest, EnvOverridesFallback) {
  ::setenv("RADIOCAST_BENCH_THREADS", "3", 1);
  EXPECT_EQ(montecarlo::threads_from_env(7), 3);
  ::unsetenv("RADIOCAST_BENCH_THREADS");
  EXPECT_EQ(montecarlo::threads_from_env(7), 7);
}

TEST(ThreadsFromEnvTest, InvalidEnvFallsThrough) {
  ::setenv("RADIOCAST_BENCH_THREADS", "bogus", 1);
  EXPECT_EQ(montecarlo::threads_from_env(5), 5);
  ::setenv("RADIOCAST_BENCH_THREADS", "-2", 1);
  EXPECT_EQ(montecarlo::threads_from_env(5), 5);
  // A numeric prefix is not a number: "4x" must not mean 4.
  ::setenv("RADIOCAST_BENCH_THREADS", "4x", 1);
  EXPECT_EQ(montecarlo::threads_from_env(5), 5);
  ::unsetenv("RADIOCAST_BENCH_THREADS");
  EXPECT_GE(montecarlo::threads_from_env(), 1);
}

TEST(MonteCarloRunTest, ResultsLandInTrialOrder) {
  montecarlo::Options opts;
  opts.threads = 4;
  const std::vector<int> out =
      montecarlo::run(64, [](int t) { return t * t; }, opts);
  ASSERT_EQ(out.size(), 64u);
  for (int t = 0; t < 64; ++t) EXPECT_EQ(out[static_cast<std::size_t>(t)], t * t);
}

TEST(MonteCarloRunTest, ZeroTrialsIsEmpty) {
  EXPECT_TRUE(montecarlo::run(0, [](int) { return 1; }).empty());
}

TEST(MonteCarloRunTest, LowestIndexedFailureIsRethrown) {
  montecarlo::Options opts;
  opts.threads = 4;
  try {
    montecarlo::run_indexed(
        16,
        [](int t) {
          if (t == 3 || t == 11) throw std::runtime_error("trial " + std::to_string(t));
        },
        opts);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "trial 3");
  }
}

TEST(MonteCarloRunTest, SequentialPathAlsoThrows) {
  montecarlo::Options opts;
  opts.threads = 1;
  EXPECT_THROW(
      montecarlo::run_indexed(4, [](int t) { if (t == 2) throw std::logic_error("x"); },
                              opts),
      std::logic_error);
}

TEST(MonteCarloRunTest, ReductionIsTrialOrderedEvenWithInvertedCompletion) {
  // Early trials sleep longest, so completion order is the reverse of
  // trial order; the result vector must still land in trial order.
  montecarlo::Options opts;
  opts.threads = 4;
  const std::vector<int> out = montecarlo::run(
      8,
      [](int t) {
        std::this_thread::sleep_for(std::chrono::milliseconds((8 - t) * 3));
        return t * 10;
      },
      opts);
  ASSERT_EQ(out.size(), 8u);
  for (int t = 0; t < 8; ++t) EXPECT_EQ(out[static_cast<std::size_t>(t)], t * 10);
}

TEST(MonteCarloFailurePaths, FailingTrialDoesNotCancelOthers) {
  // The sweep drains before rethrowing, so one bad trial never suppresses
  // the work (or the observer state) of the others.
  std::array<std::atomic<bool>, 12> ran{};
  montecarlo::Options opts;
  opts.threads = 4;
  EXPECT_THROW(montecarlo::run_indexed(
                   12,
                   [&ran](int t) {
                     if (t == 1) throw std::runtime_error("x");
                     ran[static_cast<std::size_t>(t)] = true;
                   },
                   opts),
               std::runtime_error);
  for (int t = 0; t < 12; ++t) {
    if (t != 1) {
      EXPECT_TRUE(ran[static_cast<std::size_t>(t)]) << "trial " << t;
    }
  }
}

TEST(MonteCarloFailurePaths, ThrowingTrialDoesNotLeakObserverState) {
  Rng grng(31);
  graph::Graph g = graph::make_gnp_connected(20, 0.25, grng);
  const radio::Knowledge know = radio::Knowledge::exact(g);

  constexpr int kTrials = 5;
  constexpr int kPoisoned = 2;
  const auto make_sweep = [&g, &know](std::vector<obs::RunObserver>& observers,
                                      bool poisoned) {
    montecarlo::KBroadcastSweep sweep;
    sweep.graph = &g;
    sweep.cfg = baselines::coded_config(know);
    sweep.k = 6;
    sweep.placement_seed = [](int t) { return 70 + static_cast<std::uint64_t>(t); };
    sweep.run_seed = [poisoned](int t) -> std::uint64_t {
      if (poisoned && t == kPoisoned) throw std::runtime_error("poisoned trial");
      return 170 + static_cast<std::uint64_t>(t);
    };
    sweep.taps = [&observers](int t) { return &observers[static_cast<std::size_t>(t)]; };
    return sweep;
  };

  montecarlo::Options opts;
  opts.threads = 3;
  std::vector<obs::RunObserver> poisoned_obs(kTrials);
  EXPECT_THROW(montecarlo::run_kbroadcast_sweep(make_sweep(poisoned_obs, true),
                                                kTrials, opts),
               std::runtime_error);

  // Reference: the identical sweep with nothing poisoned.
  std::vector<obs::RunObserver> ref_obs(kTrials);
  const std::vector<RunResult> ref = montecarlo::run_kbroadcast_sweep(
      make_sweep(ref_obs, false), kTrials, opts);

  for (int t = 0; t < kTrials; ++t) {
    if (t == kPoisoned) {
      // The poisoned trial died before its run started: its observer must
      // be pristine, not half-written.
      EXPECT_TRUE(poisoned_obs[kPoisoned].spans().empty());
      EXPECT_TRUE(poisoned_obs[kPoisoned].ledger().aggregates().empty());
      continue;
    }
    // Surviving trials' observers must be byte-identical to an unpoisoned
    // sweep — the failure leaked nothing across trials.
    std::ostringstream got, want;
    obs::write_run_jsonl(got, poisoned_obs[static_cast<std::size_t>(t)],
                         ref[static_cast<std::size_t>(t)].total_rounds);
    obs::write_run_jsonl(want, ref_obs[static_cast<std::size_t>(t)],
                         ref[static_cast<std::size_t>(t)].total_rounds);
    EXPECT_EQ(got.str(), want.str()) << "observer state diverged in trial " << t;
  }
}

// --- Determinism: parallel == sequential, bit for bit. -------------------

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.delivered_all, b.delivered_all);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.nodes_complete, b.nodes_complete);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.total_rounds, b.total_rounds);
  EXPECT_EQ(a.stage1_rounds, b.stage1_rounds);
  EXPECT_EQ(a.stage2_rounds, b.stage2_rounds);
  EXPECT_EQ(a.stage3_rounds, b.stage3_rounds);
  EXPECT_EQ(a.stage4_rounds, b.stage4_rounds);
  EXPECT_EQ(a.leader_ok, b.leader_ok);
  EXPECT_EQ(a.bfs_ok, b.bfs_ok);
  EXPECT_EQ(a.collection_phases, b.collection_phases);
  EXPECT_EQ(a.final_estimate, b.final_estimate);
  EXPECT_EQ(a.counters, b.counters);  // TraceCounters::operator==
}

std::vector<RunResult> sweep_with_threads(const graph::Graph& g,
                                          const KBroadcastConfig& cfg, int threads,
                                          double loss) {
  montecarlo::KBroadcastSweep sweep;
  sweep.graph = &g;
  sweep.cfg = cfg;
  sweep.k = 8;
  sweep.placement_seed = [](int s) { return 70 + static_cast<std::uint64_t>(s); };
  sweep.run_seed = [](int s) { return 170 + static_cast<std::uint64_t>(s); };
  if (loss > 0.0) {
    sweep.faults = [loss](int s) {
      radio::FaultModel fm;
      fm.reception_loss_probability = loss;
      fm.seed = 900 + static_cast<std::uint64_t>(s);
      return fm;
    };
  }
  montecarlo::Options opts;
  opts.threads = threads;
  return montecarlo::run_kbroadcast_sweep(sweep, 4, opts);
}

class SweepDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng grng(21);
    g_ = graph::make_random_geometric(24, 0.35, grng);
    know_ = radio::Knowledge::exact(g_);
  }

  void check(const KBroadcastConfig& cfg, double loss) {
    const std::vector<RunResult> seq = sweep_with_threads(g_, cfg, 1, loss);
    const std::vector<RunResult> par = sweep_with_threads(g_, cfg, 4, loss);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      SCOPED_TRACE("trial " + std::to_string(i));
      // At least one trial must have actually done work, or the
      // comparison is vacuous.
      EXPECT_GT(seq[i].total_rounds, 0u);
      expect_identical(seq[i], par[i]);
    }
  }

  graph::Graph g_;
  radio::Knowledge know_;
};

TEST_F(SweepDeterminismTest, CodedConfig) {
  check(baselines::coded_config(know_), /*loss=*/0.0);
}

TEST_F(SweepDeterminismTest, UncodedPipelineConfig) {
  check(baselines::uncoded_pipeline_config(know_), /*loss=*/0.0);
}

TEST_F(SweepDeterminismTest, CodedConfigWithFaults) {
  check(baselines::coded_config(know_), /*loss=*/0.05);
}

}  // namespace
}  // namespace radiocast::core
