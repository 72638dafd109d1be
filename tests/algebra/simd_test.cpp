// ccq::simd — the runtime-dispatch layer and every vector micro-kernel,
// each pinned bit-for-bit against its scalar fallback by forcing the two
// dispatch levels on the same inputs in one process. On a host without AVX2
// the force clamps to scalar and the equality checks compare the scalar
// path against itself — still valid, just not informative; the packing
// tests additionally assert against hand-computed layouts so they stay
// meaningful at every level.

#include "algebra/simd.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "algebra/distributed_mm.hpp"
#include "algebra/kernels.hpp"
#include "algebra/semiring.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ccq::simd {
namespace {

/// Run `fn()` under both dispatch levels and require identical results.
/// Always restores the unforced dispatch before returning.
template <typename Fn>
void expect_levels_agree(Fn&& fn) {
  force(Level::kScalar);
  const auto scalar = fn();
  force(Level::kAvx2);  // clamps to detected() on scalar-only hosts
  const auto vec = fn();
  clear_force();
  EXPECT_EQ(scalar, vec);
}

std::vector<std::uint64_t> random_words(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<std::uint64_t> w(n);
  for (auto& x : w) x = rng.next();
  return w;
}

TEST(SimdDispatch, DetectedIsStableAndNamed) {
  EXPECT_EQ(detected(), detected());
  EXPECT_STREQ(level_name(Level::kScalar), "scalar");
  EXPECT_STREQ(level_name(Level::kAvx2), "avx2");
}

TEST(SimdDispatch, ParseLevelStrict) {
  EXPECT_EQ(parse_level(nullptr), std::nullopt);
  EXPECT_EQ(parse_level(""), std::nullopt);
  EXPECT_EQ(parse_level("on"), std::nullopt);
  EXPECT_EQ(parse_level("1"), std::nullopt);
  EXPECT_EQ(parse_level("auto"), std::nullopt);
  EXPECT_EQ(parse_level("off"), Level::kScalar);
  EXPECT_EQ(parse_level("0"), Level::kScalar);
  EXPECT_EQ(parse_level("scalar"), Level::kScalar);
  EXPECT_THROW(parse_level("avx512"), ModelViolation);
  EXPECT_THROW(parse_level("OFF"), ModelViolation);
  EXPECT_THROW(parse_level(" off"), ModelViolation);
}

TEST(SimdDispatch, ForceClampsToDetected) {
  force(Level::kAvx2);
  EXPECT_LE(static_cast<int>(active()), static_cast<int>(detected()));
  force(Level::kScalar);
  EXPECT_EQ(active(), Level::kScalar);
  clear_force();
  EXPECT_LE(static_cast<int>(active()), static_cast<int>(detected()));
}

TEST(SimdMicroKernels, MinPlusRowMatchesScalarAtEveryLength) {
  // Lengths straddle the 4-lane vector width; values include ∞ (the
  // saturation domain's maximum) so the signed-compare argument is hit.
  for (const std::size_t n : {0UL, 1UL, 3UL, 4UL, 5UL, 31UL, 64UL, 70UL}) {
    SplitMix64 rng(1000 + n);
    std::vector<std::uint64_t> b(n), c0(n);
    for (auto& x : b)
      x = rng.next_bool(0.2) ? MinPlusSemiring::infinity() : rng.next_below(1u << 20);
    for (auto& x : c0)
      x = rng.next_bool(0.2) ? MinPlusSemiring::infinity() : rng.next_below(1u << 20);
    for (const std::uint64_t aik :
         {std::uint64_t{0}, std::uint64_t{17}, MinPlusSemiring::infinity()}) {
      expect_levels_agree([&] {
        auto c = c0;
        minplus_row(c.data(), aik, b.data(), n);
        return c;
      });
      // And against the reference fold the kernel replaces.
      auto got = c0;
      minplus_row(got.data(), aik, b.data(), n);
      for (std::size_t j = 0; j < n; ++j) {
        const std::uint64_t t = aik + b[j];
        EXPECT_EQ(got[j], c0[j] < t ? c0[j] : t) << "j=" << j;
      }
    }
  }
}

TEST(SimdMicroKernels, OrSelectRowsMatchesScalar) {
  // 9 rows × 11 words exercises the 8-word, 4-word, and tail chunks.
  const std::size_t stride = 11, nrows = 9;
  const auto base = random_words(stride * nrows, 7);
  const std::vector<std::uint32_t> ks = {0, 3, 3, 8, 5};
  expect_levels_agree([&] {
    std::vector<std::uint64_t> out(stride, ~std::uint64_t{0});
    or_select_rows(base.data(), stride, ks.data(), ks.size(), out.data(),
                   stride);
    return out;
  });
  std::vector<std::uint64_t> out(stride, 0);
  or_select_rows(base.data(), stride, ks.data(), ks.size(), out.data(),
                 stride);
  for (std::size_t t = 0; t < stride; ++t) {
    std::uint64_t want = 0;
    for (const auto k : ks) want |= base[k * stride + t];
    EXPECT_EQ(out[t], want) << "t=" << t;
  }
}

TEST(SimdMicroKernels, OrRowAndIntersectAndFirstCommonWord) {
  for (const std::size_t nwords : {0UL, 1UL, 3UL, 4UL, 7UL, 16UL, 21UL}) {
    auto a = random_words(nwords, 31 * nwords + 1);
    auto b = random_words(nwords, 31 * nwords + 2);
    // Sparse intersections: zero out most words so first_common_word has a
    // real scan to do, including the no-hit case.
    for (std::size_t w = 0; w < nwords; ++w)
      if (w % 5 != 4) b[w] = 0;
    for (std::size_t from = 0; from <= nwords; ++from) {
      expect_levels_agree([&] {
        return first_common_word(a.data(), b.data(), from, nwords);
      });
    }
    // Reference semantics for the scan.
    std::size_t want = nwords;
    for (std::size_t w = 0; w < nwords; ++w)
      if (a[w] & b[w]) {
        want = w;
        break;
      }
    EXPECT_EQ(first_common_word(a.data(), b.data(), 0, nwords), want);
  }
}

TEST(SimdPacking, PackBitsU8LayoutAndRangeRejection) {
  for (const std::size_t count : {0UL, 1UL, 63UL, 64UL, 65UL, 200UL}) {
    SplitMix64 rng(count + 5);
    std::vector<std::uint8_t> v(count);
    for (auto& x : v) x = rng.next_bool(0.5) ? 1 : 0;
    std::vector<std::uint64_t> words((count + 63) / 64, 0);
    if (!pack_bits_u8(v.data(), count, words.data())) {
      // Scalar dispatch level: the caller's generic path covers this case.
      EXPECT_EQ(active(), Level::kScalar);
      continue;
    }
    for (std::size_t i = 0; i < count; ++i)
      EXPECT_EQ((words[i >> 6] >> (i & 63)) & 1u, v[i]) << "i=" << i;
    // Round-trip through the vector unpack.
    std::vector<std::uint8_t> back(count, 0xee);
    ASSERT_TRUE(unpack_bits_u8(words.data(), count, back.data()));
    EXPECT_EQ(back, v);
    // An out-of-range byte anywhere must fail the whole pack.
    if (count > 0) {
      auto bad = v;
      bad[count / 2] = 2;
      std::vector<std::uint64_t> scratch(words.size(), 0);
      EXPECT_FALSE(pack_bits_u8(bad.data(), count, scratch.data()));
    }
  }
}

// End-to-end: the distributed packing layer must produce identical
// BitVectors and identical round-trips at both dispatch levels, for every
// semiring (identity encodings take the vector path; MinPlus must keep its
// ∞ remap through the scalar path).
template <Semiring S>
void check_pack_roundtrip_levels(unsigned entry_bits, std::uint64_t seed) {
  using V = typename S::Value;
  SplitMix64 rng(seed);
  std::vector<V> vals(157);
  for (auto& v : vals) {
    if constexpr (std::is_same_v<S, MinPlusSemiring>) {
      v = rng.next_bool(0.25)
              ? MinPlusSemiring::infinity()
              : static_cast<V>(rng.next_below(
                    (std::uint64_t{1} << (entry_bits - 1)) + 1));
    } else if constexpr (std::is_same_v<S, BoolSemiring>) {
      v = rng.next_bool(0.5) ? 1 : 0;
    } else {
      v = static_cast<V>(rng.next() &
                         ((std::uint64_t{1} << (entry_bits - 1)) - 1));
    }
  }
  force(Level::kScalar);
  const BitVector packed_scalar =
      pack_entries<S>(std::span<const V>(vals), entry_bits);
  const auto back_scalar =
      unpack_entries<S>(packed_scalar, vals.size(), entry_bits);
  force(Level::kAvx2);
  const BitVector packed_vec =
      pack_entries<S>(std::span<const V>(vals), entry_bits);
  const auto back_vec = unpack_entries<S>(packed_vec, vals.size(), entry_bits);
  clear_force();
  EXPECT_EQ(packed_scalar, packed_vec);
  EXPECT_EQ(back_scalar, back_vec);
  EXPECT_EQ(back_vec, vals);
}

TEST(SimdPacking, PackEntriesBitIdenticalAcrossLevels) {
  check_pack_roundtrip_levels<BoolSemiring>(1, 21);
  check_pack_roundtrip_levels<BoolSemiring>(3, 22);
  check_pack_roundtrip_levels<MinPlusSemiring>(8, 23);
  check_pack_roundtrip_levels<MinPlusSemiring>(13, 24);
  check_pack_roundtrip_levels<I64Ring>(8, 25);
  check_pack_roundtrip_levels<I64Ring>(16, 26);
  check_pack_roundtrip_levels<I64Ring>(32, 27);
  check_pack_roundtrip_levels<I64Ring>(13, 28);
  check_pack_roundtrip_levels<MaxMinSemiring>(16, 29);
}

TEST(SimdPacking, PackEntriesRangeErrorSurvivesVectorPath) {
  // The vector pack must decline out-of-range input and leave the generic
  // writer to throw the canonical error — at every dispatch level. Byte 97
  // sits inside the second 64-entry vector block of the 1-bit codec.
  std::vector<std::uint8_t> vals(130, 1);
  vals[97] = 2;  // does not fit 1 bit
  for (const Level lvl : {Level::kScalar, Level::kAvx2}) {
    force(lvl);
    EXPECT_THROW(
        pack_entries<BoolSemiring>(std::span<const std::uint8_t>(vals), 1),
        ModelViolation);
  }
  clear_force();
}

}  // namespace
}  // namespace ccq::simd
