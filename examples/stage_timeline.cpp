// Stage timeline — runs a full k-broadcast with the flight recorder
// attached and renders the run's structure from the recorded span tree:
//
//   stage1.leader          [      0,    960)    960 rounds
//   stage2.bfs             [    960,   2112)   1152 rounds
//   stage3.collection      [   2112,   5240)   3128 rounds
//     phase p=0 x=512      [   2112,   3660)   1548 rounds  alarmed
//       ospg slots=3072    [   2112,   2630)    518 rounds
//       ...
//   stage4.dissemination   [   5240,   8001)   2761 rounds
//
// then what each stage, and each Stage-3 epoch kind, spent of the channel
// (the channel ledger's aggregates), and writes spans and aggregates as
// <prefix>.jsonl (grep/jq-able) and the spans as <prefix>.trace.json
// (open in chrome://tracing or ui.perfetto.dev).
//
//   $ ./stage_timeline [n] [k] [seed] [out-prefix]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/rng.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "obs/export.hpp"
#include "obs/observer.hpp"

int main(int argc, char** argv) {
  using namespace radiocast;
  const std::uint32_t n =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 40;
  const std::uint32_t k =
      argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 48;
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 11;
  const std::string prefix = argc > 4 ? argv[4] : "stage_timeline";

  Rng grng(seed);
  const graph::Graph g = graph::make_random_geometric(n, 0.3, grng);
  core::KBroadcastConfig cfg;
  cfg.know = radio::Knowledge::exact(g);

  Rng prng(seed + 1);
  const core::Placement placement =
      core::make_placement(n, k, core::PlacementMode::kRandom, 16, prng);

  obs::RunObserver observer;
  const core::RunResult r = core::run_kbroadcast(g, cfg, placement, seed + 2,
                                                 /*max_rounds=*/0, /*faults=*/{},
                                                 &observer);
  std::printf("%s, k=%u: %s in %llu rounds\n", g.summary().c_str(), k,
              r.delivered_all ? "delivered" : "INCOMPLETE",
              static_cast<unsigned long long>(r.total_rounds));

  // --- Span tree ---
  std::vector<obs::Span> spans = observer.spans();
  std::sort(spans.begin(), spans.end(), [](const obs::Span& a, const obs::Span& b) {
    return a.begin_round != b.begin_round ? a.begin_round < b.begin_round
                                          : a.depth < b.depth;
  });
  for (const obs::Span& s : spans) {
    std::string label(2 * s.depth, ' ');
    label += s.name;
    for (const obs::SpanAttr& a : s.attrs) {
      if (a.key == "stage") continue;
      if (a.key == "alarmed") {
        if (a.value != 0) label += " alarmed";
        continue;
      }
      label += ' ' + a.key.substr(0, 1) + '=' + std::to_string(a.value);
    }
    std::printf("%-34s [%7llu, %7llu) %7llu rounds\n", label.c_str(),
                static_cast<unsigned long long>(s.begin_round),
                static_cast<unsigned long long>(s.end_round),
                static_cast<unsigned long long>(s.duration()));
  }

  // --- Per-stage channel account (the ledger's (stage, epoch) slices) ---
  std::printf("\n%-22s %-6s %8s %13s %12s %12s %12s\n", "stage", "epoch", "rounds",
              "transmissions", "deliveries", "collisions", "silent");
  for (const obs::ChannelLedger::Aggregate& a : observer.ledger().aggregates()) {
    std::printf("%-22s %-6s %8llu %13llu %12llu %12llu %12llu\n",
                obs::ChannelLedger::stage_name(a.stage),
                obs::ChannelLedger::epoch_name(a.epoch),
                static_cast<unsigned long long>(a.rounds),
                static_cast<unsigned long long>(a.transmissions),
                static_cast<unsigned long long>(a.deliveries),
                static_cast<unsigned long long>(a.collisions),
                static_cast<unsigned long long>(a.silent));
  }

  // --- Machine-readable dumps ---
  bool wrote = true;
  {
    std::ofstream out(prefix + ".jsonl");
    if (out) {
      obs::write_run_jsonl(out, observer, r.total_rounds);
    } else {
      wrote = false;
    }
  }
  {
    std::ofstream out(prefix + ".trace.json");
    if (out) {
      obs::write_chrome_trace(out, observer.spans());
    } else {
      wrote = false;
    }
  }
  if (wrote) {
    std::printf("\nwrote %s.jsonl and %s.trace.json (open the latter in "
                "chrome://tracing or ui.perfetto.dev)\n",
                prefix.c_str(), prefix.c_str());
  } else {
    std::fprintf(stderr, "\nerror: cannot write %s.jsonl / %s.trace.json\n",
                 prefix.c_str(), prefix.c_str());
    return 2;
  }
  return r.delivered_all ? 0 : 1;
}
