#pragma once

// CSR sparse matrices + SpGEMM kernels for the algebraic layer.
//
// Every result in this file is bit-for-bit identical to mm_naive<S> on the
// densified input. The argument is the same one the dense kernels rely on
// (DESIGN.md §11, extended in §13): for each output entry (i,j) the
// contributions are folded over k in *increasing* order starting from
// S::zero(), and skipping a structural zero is exact because S::mul(x,
// S::zero()) = S::zero() and S::add(c, S::zero()) = c in every semiring the
// repo ships. Stored-but-zero entries can appear in a product (e.g. I64Ring
// cancellation); to_dense and every consumer treat them as values, never as
// structure, so they cannot change results.
//
// The SpGEMM kernel is Gustavson's (kernels::spgemm): a dense accumulator
// row — one V[cols] row plus a touched list — per output row. The sparse
// schedule's local step calls it through kernels::spgemm_auto, and mm_auto
// (kernels.hpp) routes to it, for every semiring, on a measured density
// scan.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "algebra/matrix.hpp"
#include "algebra/semiring.hpp"
#include "util/check.hpp"

namespace ccq {

/// Compressed-sparse-row matrix. Rows are appended in order (push_row);
/// column indices are strictly increasing within a row. "Nonzero" is a
/// *structural* notion: from_dense stores exactly the entries that differ
/// from S::zero(), but push_row accepts any values (products may carry
/// stored zeros after cancellation).
template <typename V>
class SparseMatrix {
 public:
  SparseMatrix() = default;
  /// Empty builder: rows grow via push_row.
  explicit SparseMatrix(std::size_t cols) : cols_(cols), row_ptr_{0} {}

  template <Semiring S>
  static SparseMatrix from_dense(const Matrix<V>& m) {
    SparseMatrix s(m.cols());
    std::vector<std::uint32_t> cols;
    std::vector<V> vals;
    for (std::size_t i = 0; i < m.rows(); ++i) {
      cols.clear();
      vals.clear();
      const V* row = m.row_data(i);
      for (std::size_t j = 0; j < m.cols(); ++j) {
        if (row[j] != S::zero()) {
          cols.push_back(static_cast<std::uint32_t>(j));
          vals.push_back(row[j]);
        }
      }
      s.push_row(cols, vals);
    }
    return s;
  }

  /// Densify; absent entries become S::zero().
  template <Semiring S>
  Matrix<V> to_dense() const {
    Matrix<V> m(rows(), cols_, S::zero());
    for (std::size_t i = 0; i < rows(); ++i) {
      V* row = m.row_data(i);
      for (std::size_t t = row_ptr_[i]; t < row_ptr_[i + 1]; ++t)
        row[col_idx_[t]] = values_[t];
    }
    return m;
  }

  std::size_t rows() const {
    return row_ptr_.empty() ? 0 : row_ptr_.size() - 1;
  }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return col_idx_.size(); }
  double density() const {
    const std::size_t cells = rows() * cols_;
    return cells == 0 ? 0.0
                      : static_cast<double>(nnz()) / static_cast<double>(cells);
  }

  /// Append the next row. Columns must be strictly increasing and < cols().
  void push_row(std::span<const std::uint32_t> cols, std::span<const V> vals) {
    CCQ_CHECK_MSG(!row_ptr_.empty(), "push_row on a default-constructed matrix");
    CCQ_CHECK(cols.size() == vals.size());
    std::uint64_t prev = ~std::uint64_t{0};
    for (const std::uint32_t c : cols) {
      CCQ_CHECK_MSG(c < cols_ && (prev == ~std::uint64_t{0} || c > prev),
                    "sparse row columns must be strictly increasing");
      prev = c;
    }
    col_idx_.insert(col_idx_.end(), cols.begin(), cols.end());
    values_.insert(values_.end(), vals.begin(), vals.end());
    row_ptr_.push_back(col_idx_.size());
  }

  std::size_t row_begin(std::size_t i) const { return row_ptr_[i]; }
  std::size_t row_end(std::size_t i) const { return row_ptr_[i + 1]; }
  const std::vector<std::uint32_t>& col_idx() const { return col_idx_; }
  const std::vector<V>& values() const { return values_; }

  bool operator==(const SparseMatrix& o) const {
    return cols_ == o.cols_ && row_ptr_ == o.row_ptr_ &&
           col_idx_ == o.col_idx_ && values_ == o.values_;
  }

 private:
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<V> values_;
};

namespace kernels {

/// Gustavson SpGEMM with a dense accumulator row. Each row's stored
/// a-entries are walked in increasing k (CSR order), so every output entry
/// folds its contributions exactly as mm_naive does. Every *touched* column
/// is stored, even when the folded value lands on S::zero() — the
/// structural support of a product is input-shape-, not value-, determined.
template <Semiring S>
SparseMatrix<typename S::Value> spgemm(
    const SparseMatrix<typename S::Value>& a,
    const SparseMatrix<typename S::Value>& b) {
  using V = typename S::Value;
  CCQ_CHECK(a.cols() == b.rows());
  SparseMatrix<V> c(b.cols());
  std::vector<V> acc(b.cols(), S::zero());
  std::vector<std::uint8_t> touched(b.cols(), 0);
  std::vector<std::uint32_t> cols;
  std::vector<V> vals;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    cols.clear();
    for (std::size_t t = a.row_begin(i); t < a.row_end(i); ++t) {
      const std::uint32_t k = a.col_idx()[t];
      const V aik = a.values()[t];
      if (aik == S::zero()) continue;  // sound: x·0 contributes 0
      for (std::size_t u = b.row_begin(k); u < b.row_end(k); ++u) {
        const std::uint32_t j = b.col_idx()[u];
        acc[j] = S::add(acc[j], S::mul(aik, b.values()[u]));
        if (!touched[j]) {
          touched[j] = 1;
          cols.push_back(j);
        }
      }
    }
    std::sort(cols.begin(), cols.end());
    vals.clear();
    for (const std::uint32_t j : cols) {
      vals.push_back(acc[j]);
      acc[j] = S::zero();
      touched[j] = 0;
    }
    c.push_row(cols, vals);
  }
  return c;
}

/// Fraction of entries that differ from S::zero() — the measured density
/// scan mm_auto dispatches on (same O(n²) cost class as the domain scans).
template <Semiring S>
double density_of(const Matrix<typename S::Value>& m) {
  if (m.data().empty()) return 0.0;
  std::size_t nz = 0;
  for (const auto& v : m.data()) nz += v != S::zero() ? 1 : 0;
  return static_cast<double>(nz) / static_cast<double>(m.data().size());
}

}  // namespace kernels

}  // namespace ccq
