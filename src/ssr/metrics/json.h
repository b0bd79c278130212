// Minimal JSON string escaping shared by every JSON writer (registry JSON,
// Chrome-trace export, sweep summaries, bench reports).  Only escaping lives
// here — the writers hand-build their documents, which keeps the dependency
// surface at zero.
#pragma once

#include <iomanip>
#include <sstream>
#include <string>

namespace ssr {

/// Escape quotes, backslashes and control characters for embedding `s` in a
/// JSON string literal.  Non-ASCII bytes pass through untouched (valid UTF-8
/// stays valid).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::ostringstream esc;
          esc << "\\u" << std::hex << std::setw(4) << std::setfill('0')
              << static_cast<int>(c);
          out += esc.str();
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace ssr
