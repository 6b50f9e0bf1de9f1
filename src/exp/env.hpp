// Shared environment-variable spec parsing for benches and the CLI.
//
// Historically each bench binary parsed RADIOCAST_BENCH_* itself
// (bench/bench_util.hpp); the CLI shares the same knobs, so the parsing
// lives here and benchutil delegates. All helpers are total: malformed
// values fall back to the default instead of aborting a long sweep.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

#include "common/parse_int.hpp"

namespace radiocast::exp {

/// Integer env var; `fallback` when unset, or when the whole value is not
/// a positive int ("4x" and "0" fall back too).
inline int env_int(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const std::optional<int> v = parse_int(env);
  return v.has_value() && *v > 0 ? *v : fallback;
}

/// String env var; `fallback` when unset.
inline std::string env_string(const char* name, const std::string& fallback = {}) {
  const char* env = std::getenv(name);
  return (env == nullptr || *env == '\0') ? fallback : std::string(env);
}

/// The bench/CLI seed-grid width: RADIOCAST_BENCH_SEEDS.
inline int bench_seeds_from_env(int default_seeds = 3) {
  return env_int("RADIOCAST_BENCH_SEEDS", default_seeds);
}

}  // namespace radiocast::exp
