// The pinned audit seed corpus.
//
// A fixed grid of end-to-end k-broadcast configurations — every placement
// mode, fault rates {0, 0.03}, collision detection on/off, and a spread of
// topology families — with hard-coded seeds, so every CI run audits the
// exact same executions. Each case is run twice: once with a ModelAuditor
// attached and once without, and the two results are compared field by
// field; the model guarantees they are bit-identical (the auditor is a
// pure observer). A corpus pass therefore certifies both "zero model
// violations on these runs" and "auditing does not perturb the simulation".
//
// Used by tests/audit/corpus_test.cpp (ctest) and by the standalone
// audit_corpus binary the CI audit job runs (it writes the JSONL violation
// report that gets uploaded as a failure artifact).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "audit/model_auditor.hpp"
#include "core/runner.hpp"

namespace radiocast::audit {

/// One fully pinned end-to-end configuration: everything a run needs,
/// seeds included, so the corpus re-executes identically on every host.
struct CorpusCase {
  std::string name;
  /// Topology family for graph::make_named.
  std::string family;
  std::uint32_t n = 0;
  std::uint32_t k = 0;
  core::PlacementMode placement = core::PlacementMode::kRandom;
  double loss = 0.0;
  bool collision_detection = false;
  bool coded = true;
  std::uint64_t graph_seed = 0;
  std::uint64_t placement_seed = 0;
  std::uint64_t run_seed = 0;
};

/// The pinned corpus (fixed seeds; append-only across PRs so historical
/// cases keep being audited).
const std::vector<CorpusCase>& pinned_corpus();

/// The audited-vs-unaudited pair of results for one case, plus the
/// auditor's verdict.
struct CorpusOutcome {
  core::RunResult audited;
  core::RunResult unaudited;
  /// Violations recorded by the auditor (moved off the run's ModelAuditor).
  AuditReport report;
  bool delivered = false;      ///< the audited run delivered everything
  bool bit_identical = false;  ///< audited == unaudited, field by field
};

/// True iff two results agree on every deterministic field (rounds, stage
/// accounting, verification flags, and all trace counters).
bool results_identical(const core::RunResult& a, const core::RunResult& b);

/// Runs one corpus case twice (audited + unaudited) and reports. `engine`
/// selects the reception sweep for both runs (the audited run takes the
/// scalar sweep on every round regardless); a forced bitset sweep must
/// clear the corpus exactly like the scalar one
/// (tests/audit/bitset_corpus_test additionally pins cross-sweep result
/// equality).
CorpusOutcome run_corpus_case(const CorpusCase& c,
                              radio::EngineMode engine = radio::EngineMode::kAuto);

}  // namespace radiocast::audit
