// Parallel Monte Carlo trial driver.
//
// Every quantitative claim the benches reproduce is a w.h.p. statement, so
// each experiment is a sweep over a grid of seeds. The trials are
// independent by construction — each one owns its Network, its Rng(s)
// seeded from the trial index, and (optionally) its obs::RunObserver; the
// topology graph is the only shared state and it is immutable after
// finalize(). That makes the sweep embarrassingly parallel, and this
// driver fans it out over a common::ThreadPool while keeping the output
// *byte-identical* to the sequential path: results land in a slot indexed
// by trial number and are reduced in trial order, never in completion
// order.
//
// Thread budget resolution (highest priority first):
//   1. Options::threads, when > 0;
//   2. RADIOCAST_BENCH_THREADS, when set to a positive integer;
//   3. std::thread::hardware_concurrency().
// A budget of 1 bypasses the pool entirely and runs the trials inline on
// the calling thread — exactly the legacy sequential behavior.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "core/runner.hpp"

namespace radiocast::core::montecarlo {

/// Resolves the thread budget from RADIOCAST_BENCH_THREADS; falls back to
/// `fallback` when the env var is unset/invalid, and to hardware
/// concurrency when `fallback` is 0. Always >= 1.
int threads_from_env(int fallback = 0);

/// Execution knobs for a sweep (everything else is per-trial state).
struct Options {
  /// 0 = resolve via threads_from_env(); 1 = inline sequential execution.
  int threads = 0;
};

/// Invokes fn(trial) for every trial in [0, trials), possibly from
/// multiple threads (distinct trials only — fn is never called
/// concurrently with the same index). Blocks until all trials finished.
/// If any trial throws, the exception of the lowest-indexed failing trial
/// is rethrown after the sweep drains.
void run_indexed(int trials, const std::function<void(int)>& fn,
                 const Options& opts = {});

/// Runs fn(trial) for every trial and returns the results in trial order
/// (independent of the thread interleaving). The result type must be
/// default-constructible.
template <typename Fn>
auto run(int trials, Fn&& fn, const Options& opts = {})
    -> std::vector<std::invoke_result_t<Fn&, int>> {
  using Result = std::invoke_result_t<Fn&, int>;
  static_assert(std::is_default_constructible_v<Result>,
                "montecarlo::run needs a default-constructible result");
  std::vector<Result> out(trials > 0 ? static_cast<std::size_t>(trials) : 0);
  run_indexed(
      trials, [&out, &fn](int t) { out[static_cast<std::size_t>(t)] = fn(t); },
      opts);
  return out;
}

/// Declarative seed sweep over run_kbroadcast: trial t draws its placement
/// from placement_seed(t), runs with run_seed(t), and optionally gets its
/// own fault model and run taps. The graph must be finalized and outlive
/// the call.
struct KBroadcastSweep {
  const graph::Graph* graph = nullptr;
  KBroadcastConfig cfg;
  std::uint32_t k = 0;
  PlacementMode placement = PlacementMode::kRandom;
  std::uint32_t payload_bytes = 16;
  std::function<std::uint64_t(int)> placement_seed;
  std::function<std::uint64_t(int)> run_seed;
  std::uint64_t max_rounds = 0;
  /// Optional per-trial fault model (empty = no faults).
  std::function<radio::FaultModel(int)> faults;
  /// Optional per-trial run tap (a ModelAuditor, PacketTracer or
  /// RunObserver, or a TapList of several; null = none for that trial).
  /// The pointer must stay valid for the duration of the sweep, and
  /// distinct trials must get distinct taps when the sweep runs
  /// multithreaded (empty = no taps).
  std::function<RunAuditor*(int)> taps;
  /// Engine ablation: run every trial with collision detection enabled.
  bool collision_detection = false;
};

/// Runs `trials` independent k-broadcast trials; results in trial order.
std::vector<RunResult> run_kbroadcast_sweep(const KBroadcastSweep& sweep,
                                            int trials,
                                            const Options& opts = {});

}  // namespace radiocast::core::montecarlo
