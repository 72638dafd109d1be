#pragma once

// ccq::kernels — local-compute kernels for the algebraic layer.
//
// Every algebraic result the repo reproduces (the semiring-MM edge of
// Figure 1, Theorem 9's row products, APSP/closure, the triangle/subgraph
// reductions) bottoms out in a *local computation* step: a centralised
// matrix product or an entry (un)packing loop. This layer makes those steps
// as fast as the hardware allows without ever touching the communication
// schedule — CostMeter round counts are invariant under every kernel here.
//
// Three pillars (DESIGN.md §11 has the dispatch table):
//
//  * BitMatrix — Boolean matrices packed 64 entries per uint64_t word.
//    bit_mm (OR-row) gives word-level parallelism for mm over BoolSemiring
//    (mm_local's Boolean blocks, and through mm_auto the Boolean closure);
//    bit_first_common is the word scan behind triangle_clique.
//
//  * mm_tiled / mm_parallel — register-tiled scalar kernels (row-pointer
//    inner loops, no at() in the hot path) with micro-kernel
//    specialisations for (min,+), and a row-sharded parallel wrapper over
//    ThreadPool. mm_parallel is bit-for-bit equal to mm_tiled for every
//    worker count and grain: output rows are disjoint, each computed by the
//    same serial micro-kernel, so the partition cannot leak into results.
//
//  * mm_auto / mm_local — dispatch (semiring × size × density × pool
//    availability) so callers pick up the best kernel without hand-tuning.
//    mm_local is the serial subset, safe inside engine node programs (a
//    pooled-scheduler fiber must never block on the kernel pool).
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
#include "util/math.hpp"
#include "util/thread_pool.hpp"

namespace ccq::kernels {

// ---- worker pool ----------------------------------------------------------

/// Process-wide pool for centralised kernel calls, of the ThreadPool
/// default size (CCQ_POOL_THREADS / hardware_concurrency). Distinct from
/// the scheduler's superstep pool: a kernel call must never queue behind —
/// or be queued behind — engine fibers.
ThreadPool& pool();

/// True when mm_auto may shard onto the pool: more than one worker and the
/// calling thread is not an engine fiber (local compute inside a node
/// program stays serial; the node programs themselves are the parallelism).
bool pool_available();

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

/// Default rows per parallel task. Fixed (never derived from the worker
/// count) so the work partition — and therefore which serial kernel call
/// produces each row — is identical for every pool size.
inline constexpr std::size_t kParallelGrainRows = 16;

/// Row-sharded parallel product over `tp` (default: the kernel pool).
/// Deterministic across worker counts: output rows are disjoint and each
/// block runs the same serial micro-kernel as mm_tiled.
template <Semiring S>
Matrix<typename S::Value> mm_parallel(const Matrix<typename S::Value>& a,
                                      const Matrix<typename S::Value>& b,
                                      std::size_t grain = 0,
                                      ThreadPool* tp = nullptr) {
  CCQ_CHECK(a.cols() == b.rows());
  using V = typename S::Value;
  Matrix<V> c(a.rows(), b.cols(), S::zero());
  const bool fast = detail::fast_path_ok<S>(a, b);
  if (grain == 0) grain = kParallelGrainRows;
  const std::size_t blocks = ceil_div(a.rows(), grain);
  ThreadPool& workers = tp != nullptr ? *tp : pool();
  if (blocks <= 1 || workers.size() <= 1) {
    detail::mm_rows<S>(a, b, c, 0, a.rows(), fast);
    return c;
  }
  workers.parallel_for(blocks, [&](std::size_t blk) {
    const std::size_t lo = blk * grain;
    const std::size_t hi = lo + grain < a.rows() ? lo + grain : a.rows();
    detail::mm_rows<S>(a, b, c, lo, hi, fast);
  });
  return c;
}

/// Serial dispatch — the best kernel that never blocks on the pool. Safe as
/// the local-computation step inside engine node programs.
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

/// Minimum dimension before mm_auto shards onto the pool: below this the
/// fork/join overhead exceeds the row work.
inline constexpr std::size_t kParallelMinRows = 128;

/// Pool-parallel Gustavson SpGEMM over fixed-grain row blocks — the same
/// determinism contract mm_parallel pins: the partition is never derived
/// from the worker count, each output row is produced by the serial
/// Gustavson core with block-local scratch, and the rows are assembled
/// serially in order afterwards, so the result is bit-for-bit identical to
/// spgemm<S> for every pool size and grain.
template <Semiring S>
SparseMatrix<typename S::Value> spgemm_parallel(
    const SparseMatrix<typename S::Value>& a,
    const SparseMatrix<typename S::Value>& b, std::size_t grain = 0,
    ThreadPool* tp = nullptr) {
  using V = typename S::Value;
  CCQ_CHECK(a.cols() == b.rows());
  if (grain == 0) grain = kParallelGrainRows;
  const std::size_t blocks = ceil_div(a.rows(), grain);
  ThreadPool& workers = tp != nullptr ? *tp : pool();
  if (blocks <= 1 || workers.size() <= 1) return spgemm<S>(a, b);
  std::vector<std::vector<std::uint32_t>> cols(a.rows());
  std::vector<std::vector<V>> vals(a.rows());
  workers.parallel_for(blocks, [&](std::size_t blk) {
    const std::size_t lo = blk * grain;
    const std::size_t hi = lo + grain < a.rows() ? lo + grain : a.rows();
    std::vector<V> acc(b.cols(), S::zero());
    std::vector<std::uint8_t> touched(b.cols(), 0);
    detail::spgemm_rows<S>(a, b, lo, hi, acc, touched,
                           [&](std::size_t i,
                               const std::vector<std::uint32_t>& rcols,
                               const std::vector<V>& rvals) {
                             cols[i] = rcols;
                             vals[i] = rvals;
                           });
  });
  SparseMatrix<V> c(b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) c.push_row(cols[i], vals[i]);
  return c;
}

/// Serial-or-parallel sparse dispatch: shard over the kernel pool when it
/// is available (never on an engine fiber — mm_distributed_sparse Step B
/// calls this from node programs and stays serial there) and the row count
/// clears the same threshold the dense dispatch uses.
template <Semiring S>
SparseMatrix<typename S::Value> spgemm_auto(
    const SparseMatrix<typename S::Value>& a,
    const SparseMatrix<typename S::Value>& b) {
  if (a.rows() >= kParallelMinRows && pool_available())
    return spgemm_parallel<S>(a, b);
  return spgemm<S>(a, b);
}

/// Maximum measured density at which mm_auto routes through the SpGEMM
/// kernels: below 1/20 the per-nonzero work (p²·n³) clearly beats every
/// dense kernel including the bit-packed Boolean path (n³/64).
inline constexpr double kSparseDispatchMaxDensity = 0.05;

/// Minimum dimension before the sparse route pays for its CSR conversion.
inline constexpr std::size_t kSparseDispatchMinDim = 64;

/// Full dispatch: semiring × size × density × pool availability (DESIGN.md
/// §11, §13). Bit-for-bit equal to mm_naive<S> on every input.
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
  if constexpr (std::is_same_v<S, BoolSemiring>) {
    if (a.cols() >= 64 && detail::bool_in_domain(a) &&
        detail::bool_in_domain(b))
      return bool_mm_bitpacked(a, b);
  }
  if (a.rows() >= kParallelMinRows && pool_available())
    return mm_parallel<S>(a, b);
  return mm_tiled<S>(a, b);
}

}  // namespace ccq::kernels
