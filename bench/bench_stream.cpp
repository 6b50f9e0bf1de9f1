// E21 (extension) — open-system streaming workload (src/stream/).
//
// Continuous Poisson arrivals flow through bounded source buffers into the
// pipelined collect+disseminate epochs; we sweep the offered load relative
// to the pipeline capacity and report delivery, backlog and the driver's
// rounds/sec.
//
// Expected shape: below the knee (load < 1) everything offered is carried
// with a small steady-state backlog; above it the achieved throughput
// plateaus at the pipeline capacity while the number in system grows with
// the horizon and the saturation detector latches.
//
// All workload/outcome columns are deterministic (fixed seeds, no
// wall-clock dependence): arrivals, delivered, dropped, backpressured,
// in_system_end, saturated and epochs must reproduce bit for bit on any
// machine, which the pinned baseline's exact-match tier enforces. rounds_per_sec is the gated throughput column (the
// driver is single-threaded, so the CPU clock is honest). `--smoke`
// shrinks the grid for CI; rows land in BENCH_stream.json when
// RADIOCAST_BENCH_JSON_DIR is set.
#include <cstring>
#include <ctime>
#include <string>

#include "bench_util.hpp"
#include "stream/driver.hpp"

using namespace radiocast;

namespace {

/// Process CPU time in seconds (the run is single-threaded; immune to
/// noisy-neighbor preemption, same rationale as bench_engine_step).
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  benchutil::banner("stream",
                    "open system: continuous arrivals through bounded buffers; "
                    "throughput saturates at pipeline capacity past load 1");
  benchutil::JsonReport json("stream");
  json.meta("smoke", smoke ? "1" : "0");

  const std::uint32_t n = smoke ? 16 : 32;
  const double radius = smoke ? 0.5 : 0.35;
  const std::uint32_t epochs = smoke ? 4 : 8;
  const int reps = smoke ? 2 : 3;

  Rng grng(101);
  const graph::Graph g = graph::make_random_geometric(n, radius, grng);
  print_meta(std::cout, "graph", g.summary());
  json.meta("graph", g.summary());

  core::KBroadcastConfig kcfg;
  kcfg.know = radio::Knowledge::exact(g);
  stream::StreamConfig base;
  base.dyn.rc = core::resolve(kcfg);
  base.dyn.batch_capacity = n;
  base.arrivals.seed = 160;
  // Tiny buffers so the policy split is visible: above the knee a few
  // arrivals per node land between drains, which must overflow.
  base.buffer_capacity = 2;
  base.saturation.window = smoke ? 2 : 4;
  base.saturation.min_growth = n / 2;
  base.horizon = base.dyn.rc.stage3_start() +
                 static_cast<std::uint64_t>(epochs) *
                     stream::epoch_estimate_rounds(base.dyn);
  base.seed = 170;
  print_meta(std::cout, "capacity/epoch",
                        std::to_string(base.dyn.resolved_capacity()));
  print_meta(
      std::cout, "epoch rounds (approx)",
      std::to_string(stream::epoch_estimate_rounds(base.dyn)));

  radiocast::Table table({"load", "policy", "arrivals", "delivered", "dropped",
                          "backpressured", "in system", "saturated", "epochs",
                          "rounds/sec"});
  const stream::BufferPolicy policies[] = {stream::BufferPolicy::kDropNew,
                                           stream::BufferPolicy::kBackpressure};
  for (const double load : {0.5, 4.0}) {
    for (const stream::BufferPolicy policy : policies) {
      stream::StreamConfig cfg = base;
      cfg.policy = policy;
      cfg.arrivals.rate = stream::per_node_rate(cfg.dyn, n, load);
      stream::StreamResult r;
      double best_seconds = 1e100;
      for (int rep = 0; rep < reps; ++rep) {
        const double start = cpu_seconds();
        r = run_stream(g, cfg);
        const double seconds = cpu_seconds() - start;
        if (seconds < best_seconds) best_seconds = seconds;
      }
      const double rps = static_cast<double>(cfg.horizon) / best_seconds;
      table.row()
          .add(load, 2)
          .add(stream::buffer_policy_name(policy))
          .add(r.arrivals_scheduled)
          .add(r.delivered_everywhere)
          .add(r.queue.dropped)
          .add(r.queue.backpressured)
          .add(r.in_system_end)
          .add(r.saturated ? 1u : 0u)
          .add(r.epochs_completed)
          .add(rps, 0);
      json.row()
          .col("load", load)
          .col("policy", stream::buffer_policy_name(policy))
          .col("n", n)
          .col("horizon", cfg.horizon)
          .col("arrivals", r.arrivals_scheduled)
          .col("delivered", r.delivered_everywhere)
          .col("dropped", r.queue.dropped)
          .col("backpressured", r.queue.backpressured)
          .col("peak_depth", r.queue.peak_depth)
          .col("in_system_end", r.in_system_end)
          .col("saturated", r.saturated)
          .col("epochs", static_cast<std::uint64_t>(r.epochs_completed))
          .col("latency_count", r.latency.count())
          .col("latency_sum", r.latency.sum())
          .col("rounds_per_sec", rps);
    }
  }
  table.print(std::cout);
  std::cout << "# expected: load 0.5 carries everything with a bounded backlog;\n"
               "# load 4.0 saturates — drop_new sheds at the buffers while\n"
               "# backpressure holds everything back and the backlog grows.\n";
  return 0;
}
