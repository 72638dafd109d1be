#pragma once

// ccq::kernels — local-compute kernels for the algebraic layer.
//
// Every algebraic result the repo reproduces (the semiring-MM edge of
// Figure 1, Theorem 9's row products, APSP/closure, the triangle/subgraph
// reductions) bottoms out in a *local computation* step: a node's block
// product or an entry (un)packing loop. This layer makes those steps as
// fast as the hardware allows without ever touching the communication
// schedule — CostMeter round counts are invariant under every kernel here.
//
// Three pillars (DESIGN.md §11 has the dispatch table):
//
//  * BitMatrix — Boolean matrices packed 64 entries per uint64_t word.
//    bit_mm (OR-row) gives word-level parallelism for mm over BoolSemiring
//    (mm_local's Boolean blocks); bit_first_common is the word scan behind
//    triangle_clique.
//
//  * mm_tiled — register-tiled scalar kernels (row-pointer inner loops, no
//    at() in the hot path) with micro-kernel specialisations for (min,+).
//
//  * mm_local / mm_auto — dispatch (semiring × size, and for mm_auto
//    density) so callers pick up the best kernel without hand-tuning. Every
//    kernel is serial: node programs call them for their local steps, and a
//    clique run's parallelism comes from the scheduler spreading those node
//    programs over its worker pool.
//
// All kernels produce results bit-for-bit identical to mm_naive<S>: the
// accumulation order over k is increasing for every output entry, and the
// fast paths that exploit value representations (bit-packing, the (min,+)
// saturation shortcut) are guarded by O(n²) domain scans that fall back to
// the generic kernel when an input strays outside the representable range.

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "algebra/matrix.hpp"
#include "algebra/simd.hpp"
#include "algebra/sparse.hpp"
#include "util/bit_vector.hpp"
#include "util/check.hpp"

namespace ccq::kernels {

// ---- BitMatrix ------------------------------------------------------------

/// Dense Boolean matrix, 64 entries per word, row-major. Rows are padded to
/// a word boundary; padding bits are kept zero as a class invariant so the
/// word-level kernels need no tail masking.
class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows),
        cols_(cols),
        wpr_((cols + 63) / 64),
        words_(rows * wpr_, 0) {}

  /// Entry-wise conversion; any nonzero byte maps to 1.
  static BitMatrix from_matrix(const Matrix<std::uint8_t>& m);
  Matrix<std::uint8_t> to_matrix() const;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t words_per_row() const { return wpr_; }

  bool get(std::size_t i, std::size_t j) const {
    CCQ_DCHECK(i < rows_ && j < cols_);
    return (row(i)[j >> 6] >> (j & 63)) & 1u;
  }
  void set(std::size_t i, std::size_t j, bool v = true) {
    CCQ_DCHECK(i < rows_ && j < cols_);
    const std::uint64_t mask = std::uint64_t{1} << (j & 63);
    if (v)
      row(i)[j >> 6] |= mask;
    else
      row(i)[j >> 6] &= ~mask;
  }

  const std::uint64_t* row(std::size_t i) const {
    return words_.data() + i * wpr_;
  }
  std::uint64_t* row(std::size_t i) { return words_.data() + i * wpr_; }

  bool operator==(const BitMatrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_ && words_ == o.words_;
  }

 private:
  std::size_t rows_ = 0, cols_ = 0, wpr_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Boolean product, OR-row kernel: for every set a(i,k), OR row k of b into
/// row i of c — ~64× word-level parallelism over the scalar product.
BitMatrix bit_mm(const BitMatrix& a, const BitMatrix& b);

/// First index ≥ from set in both vectors, or a.size() if none — the
/// word-parallel inner step of the triangle/subgraph local patterns.
std::size_t bit_first_common(const BitVector& a, const BitVector& b,
                             std::size_t from);

/// mm_naive<BoolSemiring> through the bit-packed pipeline (pack → bit_mm →
/// unpack). Requires entries in {0, 1}; mm_auto checks that before routing.
Matrix<std::uint8_t> bool_mm_bitpacked(const Matrix<std::uint8_t>& a,
                                       const Matrix<std::uint8_t>& b);

// ---- scalar kernels -------------------------------------------------------

namespace detail {

/// True when the (min,+) saturation shortcut is sound: with every entry ≤
/// infinity(), aik + b[j] for finite aik can never wrap and never dips
/// below a stored value when b[j] = ∞, so min(c, aik + b) ≡ min(c,
/// S::mul(aik, b)) and the inner loop drops to one add + one compare.
inline bool minplus_in_domain(const Matrix<std::uint64_t>& m) {
  for (const auto v : m.data())
    if (v > MinPlusSemiring::infinity()) return false;
  return true;
}

/// True when every entry is 0/1 — the domain in which bitwise AND over
/// bytes (BoolSemiring::mul) agrees with the bit-packed kernel.
inline bool bool_in_domain(const Matrix<std::uint8_t>& m) {
  for (const auto v : m.data())
    if (v > 1) return false;
  return true;
}

/// Serial micro-kernel over output rows [r0, r1). The k loop is tiled
/// (tile-by-tile in increasing k) so the b-row working set stays cached,
/// and every (i, j) still accumulates over k in increasing order — the
/// exact order of mm_naive, hence bit-for-bit identical results. `fast`
/// enables the (min,+) shortcut (caller has verified the domain).
template <Semiring S>
void mm_rows(const Matrix<typename S::Value>& a,
             const Matrix<typename S::Value>& b,
             Matrix<typename S::Value>& c, std::size_t r0, std::size_t r1,
             bool fast) {
  using V = typename S::Value;
  const std::size_t K = a.cols(), N = b.cols();
  constexpr std::size_t kIc = 8;    // output rows sharing one b tile
  constexpr std::size_t kKc = 128;  // k-tile: b rows kept hot
  for (std::size_t ii = r0; ii < r1; ii += kIc) {
    const std::size_t imax = ii + kIc < r1 ? ii + kIc : r1;
    for (std::size_t kk = 0; kk < K; kk += kKc) {
      const std::size_t kmax = kk + kKc < K ? kk + kKc : K;
      for (std::size_t i = ii; i < imax; ++i) {
        const V* arow = a.row_data(i);
        V* crow = c.row_data(i);
        for (std::size_t k = kk; k < kmax; ++k) {
          const V aik = arow[k];
          if (aik == S::zero()) continue;  // sound: x·0 contributes 0
          const V* brow = b.row_data(k);
          if constexpr (std::is_same_v<S, MinPlusSemiring>) {
            if (fast) {
              // One add + one compare per entry (vectorized when the CPU
              // allows — bit-identical either way); see minplus_in_domain.
              simd::minplus_row(crow, aik, brow, N);
              continue;
            }
          }
          std::size_t j = 0;
          for (; j + 4 <= N; j += 4) {
            crow[j] = S::add(crow[j], S::mul(aik, brow[j]));
            crow[j + 1] = S::add(crow[j + 1], S::mul(aik, brow[j + 1]));
            crow[j + 2] = S::add(crow[j + 2], S::mul(aik, brow[j + 2]));
            crow[j + 3] = S::add(crow[j + 3], S::mul(aik, brow[j + 3]));
          }
          for (; j < N; ++j)
            crow[j] = S::add(crow[j], S::mul(aik, brow[j]));
        }
      }
    }
  }
}

template <Semiring S>
bool fast_path_ok(const Matrix<typename S::Value>& a,
                  const Matrix<typename S::Value>& b) {
  if constexpr (std::is_same_v<S, MinPlusSemiring>) {
    return minplus_in_domain(a) && minplus_in_domain(b);
  } else {
    (void)a;
    (void)b;
    return false;
  }
}

}  // namespace detail

/// Register-tiled serial product; bit-for-bit equal to mm_naive<S>.
template <Semiring S>
Matrix<typename S::Value> mm_tiled(const Matrix<typename S::Value>& a,
                                   const Matrix<typename S::Value>& b) {
  CCQ_CHECK(a.cols() == b.rows());
  Matrix<typename S::Value> c(a.rows(), b.cols(), S::zero());
  detail::mm_rows<S>(a, b, c, 0, a.rows(), detail::fast_path_ok<S>(a, b));
  return c;
}

/// Dense dispatch, the block product of the 3-D, rect and sparse
/// schedules' local steps: bit-packed for 0/1 Boolean inputs, else mm_tiled.
template <Semiring S>
Matrix<typename S::Value> mm_local(const Matrix<typename S::Value>& a,
                                   const Matrix<typename S::Value>& b) {
  CCQ_CHECK(a.cols() == b.rows());
  if constexpr (std::is_same_v<S, BoolSemiring>) {
    // Bit-packing pays once the shared dimension spans a few words.
    if (a.cols() >= 64 && detail::bool_in_domain(a) &&
        detail::bool_in_domain(b))
      return bool_mm_bitpacked(a, b);
  }
  return mm_tiled<S>(a, b);
}

/// Gustavson SpGEMM: the local step of the sparse schedule on blocks under
/// its density ceiling.
template <Semiring S>
SparseMatrix<typename S::Value> spgemm_auto(
    const SparseMatrix<typename S::Value>& a,
    const SparseMatrix<typename S::Value>& b) {
  return spgemm<S>(a, b);
}

/// Maximum measured density at which mm_auto routes through the SpGEMM
/// kernel: below 1/20 the per-nonzero work (p²·n³) clearly beats every
/// dense kernel including the bit-packed Boolean path (n³/64).
inline constexpr double kSparseDispatchMaxDensity = 0.05;

/// Minimum dimension before the sparse route pays for its CSR conversion.
inline constexpr std::size_t kSparseDispatchMinDim = 64;

/// Full dispatch: the SpGEMM route when both inputs are large and sparse
/// (DESIGN.md §11, §13), else mm_local. Bit-for-bit equal to mm_naive<S>
/// on every input.
template <Semiring S>
Matrix<typename S::Value> mm_auto(const Matrix<typename S::Value>& a,
                                  const Matrix<typename S::Value>& b) {
  CCQ_CHECK(a.cols() == b.rows());
  using V = typename S::Value;
  if (std::min({a.rows(), a.cols(), b.cols()}) >= kSparseDispatchMinDim &&
      density_of<S>(a) <= kSparseDispatchMaxDensity &&
      density_of<S>(b) <= kSparseDispatchMaxDensity) {
    return spgemm_auto<S>(SparseMatrix<V>::template from_dense<S>(a),
                          SparseMatrix<V>::template from_dense<S>(b))
        .template to_dense<S>();
  }
  return mm_local<S>(a, b);
}

}  // namespace ccq::kernels
