// Dynamic packet stream — the paper's future-work scenario, served by the
// protocol's epoch loop (core/protocol.hpp) and the open-system driver
// (stream/driver.hpp).
//
// Packets appear at random nodes over time (telemetry events in a sensor
// field). After a one-time setup (leader election + BFS), the network runs
// repeating collect/disseminate epochs; every event reaches every node
// within a bounded number of epochs of its arrival.
//
//   $ ./dynamic_stream [packets] [seed]
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "common/rng.hpp"
#include "core/params.hpp"
#include "graph/generators.hpp"
#include "stream/driver.hpp"

int main(int argc, char** argv) {
  using namespace radiocast;
  const std::uint32_t k =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 60;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 5;

  Rng rng(seed);
  const graph::Graph g = graph::make_random_geometric(32, 0.35, rng);

  core::KBroadcastConfig kcfg;
  kcfg.know = radio::Knowledge::exact(g);
  stream::StreamConfig cfg;
  cfg.dyn.rc = core::resolve(kcfg);
  cfg.buffer_capacity = UINT32_MAX;  // a finite list: nothing is dropped
  cfg.seed = seed + 2;

  // Spread arrivals over ~3 epochs of traffic after setup, then run long
  // enough for the tail to drain.
  const std::uint64_t epoch_estimate = stream::epoch_estimate_rounds(cfg.dyn);
  const std::uint64_t spread = cfg.dyn.rc.stage3_start() + 3 * epoch_estimate;
  cfg.horizon = spread + 4 * epoch_estimate;

  Rng arng(seed + 1);
  const stream::StreamResult r = stream::run_stream(
      g, cfg, stream::make_arrivals(g.num_nodes(), k, spread, 16, arng));

  std::printf("nodes=%u packets=%llu horizon=%llu rounds\n", r.n,
              static_cast<unsigned long long>(r.arrivals_scheduled),
              static_cast<unsigned long long>(r.horizon));
  std::printf("delivered everywhere: %llu/%llu\n",
              static_cast<unsigned long long>(r.delivered_everywhere),
              static_cast<unsigned long long>(r.arrivals_scheduled));
  std::printf("latency (arrival -> at every node): mean=%.0f max=%llu rounds\n",
              r.latency.mean(), static_cast<unsigned long long>(r.latency.max()));
  std::printf("epoch length ~%llu rounds (setup %llu)\n",
              static_cast<unsigned long long>(epoch_estimate),
              static_cast<unsigned long long>(cfg.dyn.rc.stage3_start()));
  return r.delivered_everywhere == r.arrivals_scheduled ? 0 : 1;
}
