#include "audit/violation.hpp"

#include <sstream>

#include "obs/json.hpp"

namespace radiocast::audit {

std::string AuditReport::summary() const {
  if (clean()) return "clean";
  std::ostringstream out;
  out << total_ << " violation(s); first: ";
  const Violation& v = violations_.front();
  out << v.check << " @round " << v.round << " node " << v.node << " (" << v.detail
      << ")";
  return out.str();
}

void write_jsonl(std::ostream& out, const AuditReport& report) {
  for (const Violation& v : report.violations()) {
    out << "{\"round\":" << v.round << ",\"node\":" << v.node << ",\"check\":\""
        << obs::json_escape(v.check) << "\",\"detail\":\"" << obs::json_escape(v.detail)
        << "\"}\n";
  }
  out << "{\"summary\":true,\"total\":" << report.total()
      << ",\"dropped\":" << report.dropped() << "}\n";
}

}  // namespace radiocast::audit
