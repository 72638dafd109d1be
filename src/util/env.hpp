#pragma once

// Strict environment-variable parsing.
//
// CCQ_POOL_THREADS sizes the scheduler's worker pool; before this helper it
// was read with strtoul(env, nullptr, 10), so "8x" silently ran 8 workers
// and pure garbage silently fell back to hardware concurrency — a mistyped
// override was indistinguishable from no override, which is exactly the
// failure mode a perf-tuning knob must not have.
// parse_env_uint accepts only a whole decimal number in [lo, hi] and throws
// ModelViolation (naming the variable and its value) on anything else, so a
// malformed override fails the run loudly at pool construction.

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

#include "util/check.hpp"

namespace ccq {

/// Strictly parse decimal `text` into [lo, hi]. Empty text, any non-digit
/// character, an out-of-range value or overflow is a ModelViolation naming
/// `what`. The one decimal reader behind the env and flag parsers and
/// json::as_uint's digit strings.
inline std::uint64_t parse_uint_strict(const std::string& text,
                                       std::uint64_t lo, std::uint64_t hi,
                                       const std::string& what) {
  // The message is for the person who typed `text`, so it carries no
  // CCQ_CHECK expression or source location.
  const auto fail = [&](const std::string& why) {
    throw ModelViolation(what + " = '" + text + "' " + why);
  };
  if (text.empty()) fail("is empty (expected a number)");
  std::uint64_t value = 0;
  for (const char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c)))
      fail("is not a whole decimal number");
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (~std::uint64_t{0} - digit) / 10) fail("overflows 64 bits");
    value = value * 10 + digit;
  }
  if (value < lo || value > hi)
    fail("out of range [" + std::to_string(lo) + ", " + std::to_string(hi) +
         "]");
  return value;
}

/// Read environment variable `name` as a whole decimal number in [lo, hi].
/// Unset or empty returns nullopt (use the default); a set-but-malformed
/// value throws ModelViolation — a typo'd override must never silently
/// become a different configuration.
inline std::optional<std::uint64_t> parse_env_uint(const char* name,
                                                   std::uint64_t lo,
                                                   std::uint64_t hi) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return std::nullopt;
  return parse_uint_strict(env, lo, hi, std::string("environment variable ") +
                                            name);
}

}  // namespace ccq
