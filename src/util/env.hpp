#pragma once

// Strict environment-variable parsing.
//
// CCQ_POOL_THREADS sizes the worker pools; before this helper it was read
// with strtoul(env, nullptr, 10), so "8x" silently ran 8 workers and pure
// garbage silently fell back to hardware concurrency — a mistyped override
// was indistinguishable from no override, which is exactly the failure
// mode a perf-tuning knob must not have.
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

/// Strictly parse decimal `text` into [lo, hi]. Returns nullopt only for
/// empty text; any non-digit character, out-of-range value, or overflow is
/// a ModelViolation naming `what`.
inline std::uint64_t parse_uint_strict(const std::string& text,
                                       std::uint64_t lo, std::uint64_t hi,
                                       const std::string& what) {
  CCQ_CHECK_MSG(!text.empty(), what << " is empty (expected a number)");
  std::uint64_t value = 0;
  for (const char c : text) {
    CCQ_CHECK_MSG(std::isdigit(static_cast<unsigned char>(c)),
                  what << " = '" << text
                       << "' is not a whole decimal number");
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    CCQ_CHECK_MSG(value <= (~std::uint64_t{0} - digit) / 10,
                  what << " = '" << text << "' overflows 64 bits");
    value = value * 10 + digit;
  }
  CCQ_CHECK_MSG(value >= lo && value <= hi,
                what << " = " << value << " out of range [" << lo << ", "
                     << hi << "]");
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
