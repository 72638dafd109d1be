// Property tests for the ccq::kernels layer (DESIGN.md §11): BitMatrix
// round-trips, bit-for-bit kernel equivalence against mm_naive at
// degenerate and non-power-of-two sizes over every semiring, the dispatch
// boundaries, and word-level pack/unpack equivalence against the per-entry
// reference path.

#include "algebra/kernels.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "algebra/distributed_mm.hpp"
#include "algebra/mm.hpp"
#include "algebra/simd.hpp"
#include "util/rng.hpp"

namespace ccq {
namespace {

using kernels::BitMatrix;

const std::vector<std::size_t> kSizes = {1, 2, 63, 64, 65, 127, 200};

Matrix<std::uint8_t> random_bool(std::size_t r, std::size_t c,
                                 std::uint64_t seed, double density = 0.4) {
  SplitMix64 rng(seed);
  Matrix<std::uint8_t> m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j)
      m.at(i, j) = rng.next_bool(density) ? 1 : 0;
  return m;
}

template <Semiring S>
Matrix<typename S::Value> random_matrix(std::size_t r, std::size_t c,
                                        std::uint64_t seed) {
  SplitMix64 rng(seed);
  Matrix<typename S::Value> m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      if constexpr (std::is_same_v<S, BoolSemiring>) {
        m.at(i, j) = rng.next_bool(0.4) ? 1 : 0;
      } else if constexpr (std::is_same_v<S, MinPlusSemiring>) {
        // Mix of finite distances and ∞ (the additive identity).
        m.at(i, j) = rng.next_bool(0.25) ? MinPlusSemiring::infinity()
                                         : rng.next_below(1000);
      } else {
        m.at(i, j) =
            static_cast<typename S::Value>(rng.next_below(1000));
      }
    }
  }
  return m;
}

// ---- BitMatrix ------------------------------------------------------------

TEST(BitMatrix, RoundTripAllSizes) {
  for (std::size_t n : kSizes) {
    const auto m = random_bool(n, n, 17 * n + 1);
    const BitMatrix bm = BitMatrix::from_matrix(m);
    EXPECT_EQ(bm.rows(), n);
    EXPECT_EQ(bm.cols(), n);
    EXPECT_EQ(bm.to_matrix(), m) << "n=" << n;
  }
}

TEST(BitMatrix, RoundTripRectangular) {
  const auto m = random_bool(3, 130, 99);
  EXPECT_EQ(BitMatrix::from_matrix(m).to_matrix(), m);
  const auto tall = random_bool(130, 3, 100);
  EXPECT_EQ(BitMatrix::from_matrix(tall).to_matrix(), tall);
}

TEST(BitMatrix, GetSetAgreeWithMatrix) {
  const auto m = random_bool(65, 70, 7);
  const BitMatrix bm = BitMatrix::from_matrix(m);
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      EXPECT_EQ(bm.get(i, j), m.at(i, j) != 0);
}

TEST(BitMatrix, SetClearKeepsEquality) {
  BitMatrix a(5, 70), b(5, 70);
  a.set(3, 68);
  EXPECT_NE(a, b);
  b.set(3, 68);
  EXPECT_EQ(a, b);
  a.set(3, 68, false);
  b.set(3, 68, false);
  EXPECT_EQ(a, b);  // clears must not leave stray padding bits
}

TEST(BitMatrix, BitMmMatchesNaive) {
  for (std::size_t n : kSizes) {
    const auto a = random_bool(n, n, 2 * n + 1);
    const auto b = random_bool(n, n, 2 * n + 2);
    const auto expect = mm_naive<BoolSemiring>(a, b);
    const auto ba = BitMatrix::from_matrix(a);
    const auto bb = BitMatrix::from_matrix(b);
    EXPECT_EQ(kernels::bit_mm(ba, bb).to_matrix(), expect) << "n=" << n;
    EXPECT_EQ(kernels::bool_mm_bitpacked(a, b), expect) << "n=" << n;
  }
}

TEST(BitMatrix, BitMmRectangular) {
  const auto a = random_bool(3, 130, 5);
  const auto b = random_bool(130, 67, 6);
  const auto expect = mm_naive<BoolSemiring>(a, b);
  EXPECT_EQ(kernels::bool_mm_bitpacked(a, b), expect);
}

TEST(BitFirstCommon, MatchesScalarScan) {
  SplitMix64 rng(404);
  for (std::size_t n : {1ul, 63ul, 64ul, 65ul, 200ul}) {
    BitVector a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.next_bool(0.3)) a.set(i);
      if (rng.next_bool(0.3)) b.set(i);
    }
    for (std::size_t from = 0; from <= n; ++from) {
      std::size_t expect = n;
      for (std::size_t i = from; i < n; ++i) {
        if (a.get(i) && b.get(i)) {
          expect = i;
          break;
        }
      }
      ASSERT_EQ(kernels::bit_first_common(a, b, from), expect)
          << "n=" << n << " from=" << from;
    }
  }
}

// ---- scalar kernel equivalence -------------------------------------------

template <Semiring S>
void expect_all_kernels_match(std::size_t n, std::uint64_t seed) {
  const auto a = random_matrix<S>(n, n, seed);
  const auto b = random_matrix<S>(n, n, seed + 1);
  const auto expect = mm_naive<S>(a, b);
  EXPECT_EQ(kernels::mm_tiled<S>(a, b), expect) << "tiled n=" << n;
  EXPECT_EQ(kernels::mm_local<S>(a, b), expect) << "local n=" << n;
  EXPECT_EQ(kernels::mm_auto<S>(a, b), expect) << "auto n=" << n;
}

TEST(KernelEquivalence, BoolSemiring) {
  for (std::size_t n : kSizes) expect_all_kernels_match<BoolSemiring>(n, n);
}

TEST(KernelEquivalence, MinPlusSemiring) {
  for (std::size_t n : kSizes)
    expect_all_kernels_match<MinPlusSemiring>(n, 1000 + n);
}

TEST(KernelEquivalence, I64Ring) {
  for (std::size_t n : kSizes) expect_all_kernels_match<I64Ring>(n, 2000 + n);
}

TEST(KernelEquivalence, MaxMinSemiring) {
  for (std::size_t n : kSizes)
    expect_all_kernels_match<MaxMinSemiring>(n, 3000 + n);
}

TEST(KernelEquivalence, Rectangular) {
  const auto a = random_matrix<I64Ring>(7, 129, 11);
  const auto b = random_matrix<I64Ring>(129, 65, 12);
  const auto expect = mm_naive<I64Ring>(a, b);
  EXPECT_EQ(kernels::mm_tiled<I64Ring>(a, b), expect);
  EXPECT_EQ(kernels::mm_auto<I64Ring>(a, b), expect);
}

TEST(KernelEquivalence, MinPlusOutOfDomainFallsBack) {
  // Entries above infinity() defeat the saturation shortcut; the kernel
  // must detect that and still match mm_naive exactly.
  auto a = random_matrix<MinPlusSemiring>(40, 40, 77);
  auto b = random_matrix<MinPlusSemiring>(40, 40, 78);
  a.at(3, 5) = MinPlusSemiring::infinity() + 12345;
  b.at(0, 0) = ~std::uint64_t{0} - 7;
  const auto expect = mm_naive<MinPlusSemiring>(a, b);
  EXPECT_EQ(kernels::mm_tiled<MinPlusSemiring>(a, b), expect);
  EXPECT_EQ(kernels::mm_auto<MinPlusSemiring>(a, b), expect);
}

TEST(KernelEquivalence, BoolNonBinaryEntriesFallBack) {
  // BoolSemiring::mul is bitwise AND over bytes, so entries outside {0,1}
  // behave differently from their bit-packed projection; the dispatchers
  // must detect that and take the scalar path.
  auto a = random_bool(70, 70, 55);
  auto b = random_bool(70, 70, 56);
  a.at(1, 2) = 2;  // 2 & 1 == 0: differs from "nonzero means true"
  const auto expect = mm_naive<BoolSemiring>(a, b);
  EXPECT_EQ(kernels::mm_auto<BoolSemiring>(a, b), expect);
  EXPECT_EQ(kernels::mm_local<BoolSemiring>(a, b), expect);
}

TEST(KernelEquivalence, EmptyAndDegenerate) {
  const Matrix<std::int64_t> a(0, 0), b(0, 0);
  EXPECT_EQ(kernels::mm_tiled<I64Ring>(a, b).rows(), 0u);
  EXPECT_EQ(kernels::mm_auto<I64Ring>(a, b).rows(), 0u);
  const auto one = random_matrix<I64Ring>(1, 1, 5);
  EXPECT_EQ(kernels::mm_auto<I64Ring>(one, one),
            mm_naive<I64Ring>(one, one));
}

TEST(KernelEquivalence, MismatchedShapesThrow) {
  const Matrix<std::int64_t> a(3, 4), b(5, 3);
  EXPECT_THROW(kernels::mm_tiled<I64Ring>(a, b), ModelViolation);
  EXPECT_THROW(kernels::mm_auto<I64Ring>(a, b), ModelViolation);
}

// ---- dispatched call sites ------------------------------------------------

TEST(Dispatch, StrassenStillMatchesNaive) {
  for (std::size_t n : {50ul, 90ul, 129ul}) {
    const auto a = random_matrix<I64Ring>(n, n, n);
    const auto b = random_matrix<I64Ring>(n, n, n + 1);
    EXPECT_EQ(mm_strassen<I64Ring>(a, b, 16), mm_naive<I64Ring>(a, b))
        << "n=" << n;
  }
}

// ---- word-level packing ---------------------------------------------------

// Per-entry reference: the seed's implementation of pack/unpack.
template <Semiring S>
BitVector pack_reference(const std::vector<typename S::Value>& values,
                         unsigned entry_bits) {
  BitVector bv;
  for (const auto& v : values)
    bv.append_bits(encode_value<S>(v, entry_bits), entry_bits);
  return bv;
}

template <Semiring S>
std::vector<typename S::Value> unpack_reference(const BitVector& bv,
                                                std::size_t count,
                                                unsigned entry_bits) {
  std::vector<typename S::Value> out;
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(decode_value<S>(bv.read_bits(i * entry_bits, entry_bits),
                                  entry_bits));
  return out;
}

TEST(EntryPackingBulk, MatchesPerEntryReference) {
  SplitMix64 rng(2024);
  for (unsigned entry_bits : {1u, 7u, 8u, 13u, 32u, 64u}) {
    for (std::size_t count : {0ul, 1ul, 5ul, 64ul, 65ul, 1000ul}) {
      std::vector<std::uint64_t> values(count);
      const std::uint64_t cap = entry_bits == 64
                                    ? ~std::uint64_t{0}
                                    : (std::uint64_t{1} << entry_bits) - 1;
      for (auto& v : values)
        v = cap == ~std::uint64_t{0} ? rng.next()
                                     : rng.next_below(cap + 1);
      // I64Ring's encode is the identity modulo width, so raw patterns
      // exercise every bit lane.
      using S = I64Ring;
      std::vector<S::Value> typed(values.begin(), values.end());
      // encode_value checks the width for entry_bits < 64.
      if (entry_bits < 64)
        for (auto& v : typed)
          v = static_cast<S::Value>(static_cast<std::uint64_t>(v) & cap);
      const BitVector bulk =
          pack_entries<S>(std::span<const S::Value>(typed), entry_bits);
      const BitVector ref = pack_reference<S>(typed, entry_bits);
      ASSERT_EQ(bulk, ref) << "entry_bits=" << entry_bits
                           << " count=" << count;
      ASSERT_EQ(unpack_entries<S>(bulk, count, entry_bits),
                unpack_reference<S>(bulk, count, entry_bits))
          << "entry_bits=" << entry_bits << " count=" << count;
      ASSERT_EQ(unpack_entries<S>(bulk, count, entry_bits), typed);
    }
  }
}

TEST(EntryPackingBulk, MinPlusInfinityRoundTrips) {
  using S = MinPlusSemiring;
  for (unsigned entry_bits : {7u, 8u, 13u, 32u, 64u}) {
    std::vector<S::Value> values = {0, 1, 5, S::infinity(), 42,
                                    S::infinity(), 0};
    const BitVector bulk =
        pack_entries<S>(std::span<const S::Value>(values), entry_bits);
    EXPECT_EQ(bulk, pack_reference<S>(values, entry_bits))
        << "entry_bits=" << entry_bits;
    EXPECT_EQ(unpack_entries<S>(bulk, values.size(), entry_bits), values)
        << "entry_bits=" << entry_bits;
  }
}

TEST(EntryPackingBulk, OverflowStillThrows) {
  using S = I64Ring;
  std::vector<S::Value> values = {1 << 9};
  EXPECT_THROW(pack_entries<S>(std::span<const S::Value>(values), 9),
               ModelViolation);
}

// ---- SIMD dispatch levels (DESIGN.md §16) ---------------------------------

// CCQ_SIMD=off vs on must be bit-identical: pin every dense kernel against
// mm_naive under both forced dispatch levels, for all four semirings. On a
// host without AVX2 the forced vector level clamps to scalar and this
// degenerates to the plain equivalence check.
template <Semiring S>
void check_simd_levels(std::uint64_t seed) {
  const auto a = random_matrix<S>(150, 150, seed);
  const auto b = random_matrix<S>(150, 150, seed + 1);
  const auto expect = mm_naive<S>(a, b);
  for (const simd::Level lvl : {simd::Level::kScalar, simd::Level::kAvx2}) {
    simd::force(lvl);
    EXPECT_EQ(kernels::mm_tiled<S>(a, b), expect)
        << "tiled @" << simd::level_name(lvl);
    EXPECT_EQ(kernels::mm_local<S>(a, b), expect)
        << "local @" << simd::level_name(lvl);
    EXPECT_EQ(kernels::mm_auto<S>(a, b), expect)
        << "auto @" << simd::level_name(lvl);
  }
  simd::clear_force();
}

TEST(SimdLevels, DenseKernelsBitEqualAcrossSemirings) {
  check_simd_levels<BoolSemiring>(61);
  check_simd_levels<MinPlusSemiring>(63);
  check_simd_levels<I64Ring>(65);
  check_simd_levels<MaxMinSemiring>(67);
}

TEST(SimdLevels, BitKernelsBitEqual) {
  const auto am = random_bool(130, 130, 91);
  const auto bm = random_bool(130, 130, 92);
  const BitMatrix a = BitMatrix::from_matrix(am);
  const BitMatrix b = BitMatrix::from_matrix(bm);
  simd::force(simd::Level::kScalar);
  const BitMatrix or_s = kernels::bit_mm(a, b);
  simd::force(simd::Level::kAvx2);
  EXPECT_TRUE(kernels::bit_mm(a, b) == or_s);
  simd::clear_force();
  EXPECT_EQ(or_s.to_matrix(), mm_naive<BoolSemiring>(am, bm));
}

// ---- mm_auto dispatch boundaries ------------------------------------------

/// n×n matrix with exactly `nnz` entries ≠ S::zero(), scattered on a stride
/// coprime to n² so no row or column is privileged.
template <Semiring S>
Matrix<typename S::Value> matrix_with_nnz(std::size_t n, std::size_t nnz) {
  using V = typename S::Value;
  Matrix<V> m(n, n, S::zero());
  const std::size_t cells = n * n;
  std::size_t idx = 0;
  for (std::size_t k = 0; k < nnz; ++k) {
    idx = (idx + 37) % cells;
    if constexpr (std::is_same_v<S, BoolSemiring>) {
      m.at(idx / n, idx % n) = 1;
    } else {
      m.at(idx / n, idx % n) = static_cast<V>(1 + k % 90);
    }
  }
  return m;
}

TEST(Dispatch, SparseDensityBoundaryExact) {
  // n = 160 makes 5% of n² a whole number, so a matrix can sit *exactly* on
  // kSparseDispatchMaxDensity (routed sparse: the comparison is ≤) while
  // one extra nonzero tips it onto the dense path. Both must match
  // mm_naive; the density arithmetic itself is pinned explicitly.
  const std::size_t n = 160;
  const std::size_t at = static_cast<std::size_t>(
      kernels::kSparseDispatchMaxDensity * static_cast<double>(n * n));
  ASSERT_EQ(at, 1280u);
  const auto check = [&](auto tag, std::uint64_t) {
    using S = decltype(tag);
    const auto a_at = matrix_with_nnz<S>(n, at);
    const auto b_at = matrix_with_nnz<S>(n, at);
    EXPECT_EQ(kernels::density_of<S>(a_at),
              kernels::kSparseDispatchMaxDensity);
    EXPECT_EQ(kernels::mm_auto<S>(a_at, b_at), mm_naive<S>(a_at, b_at));
    const auto a_over = matrix_with_nnz<S>(n, at + 1);
    EXPECT_GT(kernels::density_of<S>(a_over),
              kernels::kSparseDispatchMaxDensity);
    EXPECT_EQ(kernels::mm_auto<S>(a_over, b_at), mm_naive<S>(a_over, b_at));
  };
  check(BoolSemiring{}, 1);
  check(MinPlusSemiring{}, 2);
}

TEST(Dispatch, SparseMinDimBoundary) {
  // The sparse route needs every dimension ≥ kSparseDispatchMinDim = 64: at
  // n = 64 a low-density input routes sparse, at n = 63 it must not. Both
  // sides of the boundary stay bit-equal to mm_naive.
  ASSERT_EQ(kernels::kSparseDispatchMinDim, 64u);
  for (const std::size_t n : {63UL, 64UL}) {
    const std::size_t nnz = n * n / 50;  // 2% — well under the ceiling
    const auto a = matrix_with_nnz<MinPlusSemiring>(n, nnz);
    const auto b = matrix_with_nnz<MinPlusSemiring>(n, nnz);
    EXPECT_EQ(kernels::mm_auto<MinPlusSemiring>(a, b),
              mm_naive<MinPlusSemiring>(a, b))
        << "n=" << n;
  }
}

/// The process's OS thread count, from the Threads: line of
/// /proc/self/status (0 if the line is missing).
std::size_t os_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  return 0;
}

TEST(Dispatch, CentralCallsStartNoThread) {
  // The kernel layer is serial: a dispatcher called from outside any
  // clique run computes on the calling thread and starts no other.
  const std::size_t before = os_threads();
  ASSERT_GT(before, 0u);
  const auto a = random_matrix<MinPlusSemiring>(512, 512, 401);
  const auto b = random_matrix<MinPlusSemiring>(512, 512, 402);
  const auto dense = kernels::mm_auto<MinPlusSemiring>(a, b);
  using Csr = SparseMatrix<std::uint64_t>;
  const auto sa = Csr::from_dense<MinPlusSemiring>(
      matrix_with_nnz<MinPlusSemiring>(256, 256 * 256 / 50));
  const auto sb = Csr::from_dense<MinPlusSemiring>(
      random_matrix<MinPlusSemiring>(256, 256, 403));
  const auto sparse = kernels::spgemm_auto<MinPlusSemiring>(sa, sb);
  EXPECT_EQ(os_threads(), before);
  EXPECT_EQ(dense, mm_naive<MinPlusSemiring>(a, b));
  EXPECT_TRUE(sparse == kernels::spgemm<MinPlusSemiring>(sa, sb));
}

}  // namespace
}  // namespace ccq
