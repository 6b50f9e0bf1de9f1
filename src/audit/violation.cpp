#include "audit/violation.hpp"

#include <sstream>

namespace radiocast::audit {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

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
        << json_escape(v.check) << "\",\"detail\":\"" << json_escape(v.detail)
        << "\"}\n";
  }
  out << "{\"summary\":true,\"total\":" << report.total()
      << ",\"dropped\":" << report.dropped() << "}\n";
}

}  // namespace radiocast::audit
