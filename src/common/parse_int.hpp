// Strict integer parsing for command-line values and environment variables.
//
// std::atoi and std::stoi accept a numeric prefix ("4x" is 4) and report
// malformed input as 0 or with a bare "stoi" message. parse_int accepts a
// token only when all of it is one base-10 int, so callers can reject or
// ignore everything else explicitly.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace radiocast {

/// `text` as an int when the whole token is an optional '-' followed by
/// decimal digits and the value fits in int; nullopt otherwise (empty,
/// leading '+' or whitespace, trailing characters, out of range).
inline std::optional<int> parse_int(std::string_view text) {
  int value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace radiocast
