// Standalone corpus auditor for the CI audit job.
//
// Runs every case of the pinned seed corpus under the ModelAuditor and
// writes all violations (plus per-case context lines) as JSON Lines to the
// path given by --out (default: audit_report.jsonl). Exits 0 iff every
// case was violation-free, delivered all packets, and was bit-identical
// to its unaudited twin; the CI job uploads the report as an artifact on
// failure.
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "audit/corpus.hpp"
#include "audit/violation.hpp"
#include "obs/json.hpp"

int main(int argc, char** argv) {
  using namespace radiocast;

  std::string out_path = "audit_report.jsonl";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: audit_corpus [--out report.jsonl]\n";
      return 2;
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "audit_corpus: cannot open " << out_path << " for writing\n";
    return 2;
  }

  int failures = 0;
  for (const audit::CorpusCase& c : audit::pinned_corpus()) {
    const audit::CorpusOutcome result = audit::run_corpus_case(c);
    const bool ok =
        result.delivered && result.report.clean() && result.bit_identical;
    out << "{\"case\":\"" << obs::json_escape(c.name) << "\",\"ok\":"
        << (ok ? "true" : "false") << ",\"delivered\":"
        << (result.delivered ? "true" : "false") << ",\"bit_identical\":"
        << (result.bit_identical ? "true" : "false") << ",\"violations\":"
        << result.report.total() << ",\"rounds\":"
        << result.audited.total_rounds << "}\n";
    audit::write_jsonl(out, result.report);
    std::cout << (ok ? "PASS " : "FAIL ") << c.name << " ("
              << result.audited.total_rounds << " rounds, "
              << result.report.total() << " violations)\n";
    if (!ok) ++failures;
  }
  out.close();

  if (failures != 0) {
    std::cerr << "audit_corpus: " << failures << " case(s) failed; report at "
              << out_path << "\n";
    return 1;
  }
  std::cout << "audit_corpus: all " << audit::pinned_corpus().size()
            << " cases clean; report at " << out_path << "\n";
  return 0;
}
