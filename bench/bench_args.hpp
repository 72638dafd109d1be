#pragma once

// Shared strict flag parsing for the bench mains. Every bench hand-rolls
// the same tiny argv loop; the helpers here keep the *parsing* uniform and
// strict so a typo'd flag refuses to run instead of silently benchmarking
// the wrong sweep. Numeric values must parse completely — empty text,
// trailing garbage ("--n=5x"), signs, and out-of-range values all print a
// diagnostic naming the flag and exit 2 (the usage-error status).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/check.hpp"
#include "util/env.hpp"

namespace ccq::benchargs {

/// Whole decimal number in [lo, hi], nothing else (parse_uint_strict).
inline std::uint64_t parse_uint(const char* prog, const char* flag,
                                const char* text, std::uint64_t lo,
                                std::uint64_t hi) {
  try {
    return parse_uint_strict(text, lo, hi, flag);
  } catch (const ModelViolation& e) {
    std::fprintf(stderr, "%s: %s\n", prog, e.what());
    std::exit(2);
  }
}

/// "--n=123" against name "--n" → "123"; nullptr when arg is not name=… .
inline const char* flag_value(const char* arg, const char* name) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=')
    return arg + len + 1;
  return nullptr;
}

/// Exact boolean flag match ("--check").
inline bool flag_is(const char* arg, const char* name) {
  return std::strcmp(arg, name) == 0;
}

}  // namespace ccq::benchargs
