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

namespace ccq::benchargs {

/// Whole decimal number in [lo, hi], nothing else.
inline std::uint64_t parse_uint(const char* prog, const char* flag,
                                const char* text, std::uint64_t lo,
                                std::uint64_t hi) {
  std::uint64_t value = 0;
  bool ok = text[0] != '\0';
  for (const char* p = text; ok && *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') {
      ok = false;
      break;
    }
    const auto digit = static_cast<std::uint64_t>(*p - '0');
    if (value > (~std::uint64_t{0} - digit) / 10) {
      ok = false;
      break;
    }
    value = value * 10 + digit;
  }
  if (!ok || value < lo || value > hi) {
    std::fprintf(stderr,
                 "%s: %s expects a whole number in [%llu, %llu], got '%s'\n",
                 prog, flag, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi), text);
    std::exit(2);
  }
  return value;
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
