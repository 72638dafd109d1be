#pragma once

// Small integer math helpers shared across modules.

#include <cstdint>

#include "util/check.hpp"

namespace ccq {

constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0 : (a + b - 1) / b;
}

/// ⌈log2(x)⌉ for x ≥ 1; ⌈log2(1)⌉ = 0.
constexpr unsigned ceil_log2(std::uint64_t x) {
  unsigned r = 0;
  std::uint64_t v = 1;
  while (v < x) {
    v <<= 1;
    ++r;
  }
  return r;
}

/// ⌊log2(x)⌋ for x ≥ 1.
constexpr unsigned floor_log2(std::uint64_t x) {
  unsigned r = 0;
  while (x > 1) {
    x >>= 1;
    ++r;
  }
  return r;
}

/// Exact ⌊x^(1/k)⌋ for k ≥ 1.
inline std::uint64_t floor_root(std::uint64_t x, unsigned k) {
  CCQ_CHECK(k >= 1);
  if (k == 1 || x <= 1) return x;
  // Binary search; overflow-safe via division-based power check.
  std::uint64_t lo = 1, hi = x;
  auto pow_leq = [&](std::uint64_t r) {
    // returns true iff r^k <= x
    std::uint64_t acc = 1;
    for (unsigned i = 0; i < k; ++i) {
      if (acc > x / r) return false;
      acc *= r;
    }
    return acc <= x;
  };
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    if (pow_leq(mid))
      lo = mid;
    else
      hi = mid - 1;
  }
  return lo;
}

}  // namespace ccq
