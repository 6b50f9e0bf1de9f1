#include "core/montecarlo.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>

#include "common/assert.hpp"
#include "common/parse_int.hpp"
#include "common/thread_pool.hpp"

namespace radiocast::core::montecarlo {

int threads_from_env(int fallback) {
  const char* env = std::getenv("RADIOCAST_BENCH_THREADS");
  if (env != nullptr) {
    const std::optional<int> v = parse_int(env);
    if (v.has_value() && *v > 0) return *v;
  }
  if (fallback > 0) return fallback;
  return static_cast<int>(ThreadPool::default_concurrency());
}

void run_indexed(int trials, const std::function<void(int)>& fn,
                 const Options& opts) {
  if (trials <= 0) return;
  int threads = opts.threads > 0 ? opts.threads : threads_from_env();
  threads = std::min(threads, trials);
  if (threads <= 1) {
    // Legacy path: plain loop on the calling thread, no pool, no locking.
    for (int t = 0; t < trials; ++t) fn(t);
    return;
  }

  // First-failure capture: remember the exception of the lowest-indexed
  // failing trial so reruns fail deterministically regardless of thread
  // interleaving.
  std::mutex err_mu;
  std::exception_ptr first_error;
  int first_error_trial = trials;

  ThreadPool pool(static_cast<unsigned>(threads));
  for (int t = 0; t < trials; ++t) {
    pool.submit([t, &fn, &err_mu, &first_error, &first_error_trial] {
      try {
        fn(t);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (t < first_error_trial) {
          first_error_trial = t;
          first_error = std::current_exception();
        }
      }
    });
  }
  pool.wait_idle();
  if (first_error) std::rethrow_exception(first_error);
}

std::vector<RunResult> run_kbroadcast_sweep(const KBroadcastSweep& sweep,
                                            int trials, const Options& opts) {
  RC_ASSERT(sweep.graph != nullptr && sweep.graph->finalized());
  RC_ASSERT(sweep.placement_seed != nullptr && sweep.run_seed != nullptr);
  return run(
      trials,
      [&sweep](int t) {
        Rng prng(sweep.placement_seed(t));
        const Placement placement =
            make_placement(sweep.graph->num_nodes(), sweep.k, sweep.placement,
                           sweep.payload_bytes, prng);
        const radio::FaultModel faults =
            sweep.faults ? sweep.faults(t) : radio::FaultModel{};
        RunAuditor* taps = sweep.taps ? sweep.taps(t) : nullptr;
        return run_kbroadcast(*sweep.graph, sweep.cfg, placement,
                              sweep.run_seed(t), sweep.max_rounds, faults,
                              /*observer=*/nullptr, taps, sweep.collision_detection);
      },
      opts);
}

}  // namespace radiocast::core::montecarlo
