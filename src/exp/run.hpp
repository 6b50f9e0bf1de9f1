// Scenario executor: expands a ScenarioSpec's grid into cells and runs
// every cell through the Monte Carlo driver.
//
// Cell order is the deterministic cross product algos × k × loss × cd (or
// the load axis in dynamic mode); within a cell, trials use the seed grid
// of exp/scenario.hpp. The executor produces two documents:
//
//   * results — the rendered experiment: one row per cell with median
//     statistics (the same reductions the historical benches printed) plus
//     a per-cell digest; `radiocast report` turns this into markdown.
//   * manifest — the reproducibility record (exp/manifest.hpp): resolved
//     spec, build info, seed grid, per-trial digests.
//
// Statistics reduce in trial order (core::montecarlo's contract), so both
// documents are independent of the thread budget.
#pragma once

#include <string>
#include <vector>

#include "core/runner.hpp"
#include "exp/jsonval.hpp"
#include "exp/scenario.hpp"

namespace radiocast::exp {

/// Digest of everything a reproduction of one trial must match
/// bit-for-bit: delivery outcome, all round counts, and the engine's
/// channel counters. These are the per-trial digests pinned in manifests;
/// public so invariance tests (engine modes, thread counts) can compare
/// fresh runs against pinned literals.
std::string digest_run(const core::RunResult& r);

/// Everything one scenario execution produced.
struct ScenarioOutcome {
  JsonValue results;   ///< results document (see docs/experiments.md)
  JsonValue manifest;  ///< manifest document (exp/manifest.hpp)
  /// False iff spec.audit was set and any trial's ModelAuditor reported a
  /// violation; the summaries then hold one line per dirty trial.
  bool audit_clean = true;
  std::vector<std::string> audit_violations;
  /// True iff every trial in every cell delivered all packets.
  bool all_delivered = true;
  /// Per-packet lifecycle telemetry (`radiocast-telemetry-v1` JSONL, one
  /// JSON object per line; see docs/observability.md). Empty unless
  /// spec.telemetry.enabled. Its digest is the manifest's
  /// "telemetry_digest", so the document is byte-identical at any thread
  /// count.
  std::string telemetry;
  /// Chrome trace_event export of the first pipeline cell's trial-0
  /// flight log. Empty unless telemetry.flight_paths was enabled.
  std::string flight_trace;
};

/// Runs the (validated) scenario. Throws JsonError on spec inconsistencies
/// that only surface at execution time.
ScenarioOutcome run_scenario(const ScenarioSpec& spec);

}  // namespace radiocast::exp
