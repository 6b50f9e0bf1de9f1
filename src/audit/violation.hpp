// Violation records produced by the model-conformance auditor.
//
// A Violation pins one observed divergence from the paper's model (or from
// the protocol's own schedule) to a round, a node, and a named check, with
// a human-readable detail string. AuditReport accumulates them with a hard
// cap so a systematically broken run cannot OOM the auditor; the JSONL
// writer emits one object per line — the format the CI audit job uploads
// as its failure artifact.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace radiocast::audit {

struct Violation {
  std::uint64_t round = 0;
  std::uint32_t node = 0;
  /// Stable check identifier, e.g. "radio.deliver_on_collision",
  /// "protocol.stage_monotonicity", "delivery.coded_payload".
  std::string check;
  std::string detail;
};

class AuditReport {
 public:
  explicit AuditReport(std::size_t max_violations = 1024)
      : max_violations_(max_violations) {}

  void add(std::uint64_t round, std::uint32_t node, std::string check,
           std::string detail) {
    ++total_;
    if (violations_.size() < max_violations_) {
      violations_.push_back(
          Violation{round, node, std::move(check), std::move(detail)});
    }
  }

  bool clean() const { return total_ == 0; }
  /// Total violations seen, including any dropped past the cap.
  std::uint64_t total() const { return total_; }
  std::uint64_t dropped() const { return total_ - violations_.size(); }
  const std::vector<Violation>& violations() const { return violations_; }
  /// One-line human-readable summary ("clean" or the first violation).
  std::string summary() const;

  void clear() {
    violations_.clear();
    total_ = 0;
  }

 private:
  std::size_t max_violations_;
  std::vector<Violation> violations_;
  std::uint64_t total_ = 0;
};

/// Writes the report as JSON Lines: one {"round":..,"node":..,"check":..,
/// "detail":..} object per violation, plus a final summary object
/// {"summary":true,"total":..,"dropped":..}.
void write_jsonl(std::ostream& out, const AuditReport& report);

}  // namespace radiocast::audit
