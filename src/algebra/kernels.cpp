#include "algebra/kernels.hpp"

#include <bit>
#include <cstring>
#include <vector>

#include "algebra/simd.hpp"

namespace ccq::kernels {

// ---- BitMatrix ------------------------------------------------------------

namespace {

constexpr std::uint64_t kLsbMask = 0x0101010101010101ULL;
// Byte k of this multiplier is 2^(7-k), so for x with bytes b_j ∈ {0,1}
// the product places b_j at bit 56+j (all 64 partial products land on
// distinct bit positions — no carries), i.e. (x * kGather) >> 56 packs the
// low bit of each of 8 bytes into one byte.
constexpr std::uint64_t kGather = 0x0102040810204080ULL;
// Byte j of this mask is 2^j: AND-ing it against a byte-replicated value
// isolates bit j of the source byte inside byte j.
constexpr std::uint64_t kSpread = 0x8040201008040201ULL;

}  // namespace

BitMatrix BitMatrix::from_matrix(const Matrix<std::uint8_t>& m) {
  BitMatrix bm(m.rows(), m.cols());
  const std::size_t groups = m.cols() / 8;  // whole 8-byte column groups
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const std::uint8_t* src = m.row_data(i);
    std::uint64_t* dst = bm.row(i);
    for (std::size_t g = 0; g < groups; ++g) {
      std::uint64_t x;
      std::memcpy(&x, src + g * 8, 8);
      if (x == 0) continue;  // words start zeroed
      // Fold each byte's bits into its low bit (nonzero byte -> 0x01),
      // then gather the 8 low bits into one output byte.
      x |= x >> 4;
      x |= x >> 2;
      x |= x >> 1;
      x &= kLsbMask;
      dst[g >> 3] |= ((x * kGather) >> 56) << ((g & 7) * 8);
    }
    for (std::size_t j = groups * 8; j < m.cols(); ++j)
      if (src[j] != 0) dst[j >> 6] |= std::uint64_t{1} << (j & 63);
  }
  return bm;
}

Matrix<std::uint8_t> BitMatrix::to_matrix() const {
  Matrix<std::uint8_t> m(rows_, cols_);
  const std::size_t groups = cols_ / 8;
  for (std::size_t i = 0; i < rows_; ++i) {
    const std::uint64_t* src = row(i);
    std::uint8_t* dst = m.row_data(i);
    for (std::size_t g = 0; g < groups; ++g) {
      const std::uint64_t b = (src[g >> 3] >> ((g & 7) * 8)) & 0xff;
      // Replicate the byte, isolate bit j inside byte j, then map each
      // nonzero byte (0 or 2^j, so at most 0x80 — the +0x7f cannot carry
      // across bytes) to 0x01.
      std::uint64_t spread = (b * kLsbMask) & kSpread;
      spread = ((spread + 0x7f7f7f7f7f7f7f7fULL) >> 7) & kLsbMask;
      std::memcpy(dst + g * 8, &spread, 8);
    }
    for (std::size_t j = groups * 8; j < cols_; ++j)
      dst[j] = static_cast<std::uint8_t>((src[j >> 6] >> (j & 63)) & 1u);
  }
  return m;
}

BitMatrix bit_mm(const BitMatrix& a, const BitMatrix& b) {
  CCQ_CHECK(a.cols() == b.rows());
  BitMatrix c(a.rows(), b.cols());
  const std::size_t wpr_a = a.words_per_row();
  const std::size_t wpr_b = b.words_per_row();
  std::vector<std::uint32_t> ks;  // set columns of the current a row
  ks.reserve(a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const std::uint64_t* ar = a.row(i);
    ks.clear();
    for (std::size_t w = 0; w < wpr_a; ++w) {
      std::uint64_t bits = ar[w];
      while (bits) {
        ks.push_back(static_cast<std::uint32_t>(
            (w << 6) + static_cast<std::size_t>(std::countr_zero(bits))));
        bits &= bits - 1;
      }
    }
    if (ks.empty()) continue;
    // OR the selected b rows into register-held output chunks; the vector
    // micro-kernel (or its bit-identical scalar fallback) keeps all
    // accumulator traffic out of memory.
    simd::or_select_rows(b.row(0), wpr_b, ks.data(), ks.size(), c.row(i),
                         wpr_b);
  }
  return c;
}

std::size_t bit_first_common(const BitVector& a, const BitVector& b,
                             std::size_t from) {
  CCQ_CHECK(a.size() == b.size());
  if (from >= a.size()) return a.size();
  const auto& wa = a.words();
  const auto& wb = b.words();
  std::size_t w = from >> 6;
  const std::uint64_t cur = (wa[w] & wb[w]) >> (from & 63);
  if (cur != 0)
    return from + static_cast<std::size_t>(std::countr_zero(cur));
  w = simd::first_common_word(wa.data(), wb.data(), w + 1, wa.size());
  if (w < wa.size())
    return (w << 6) +
           static_cast<std::size_t>(std::countr_zero(wa[w] & wb[w]));
  return a.size();
}

Matrix<std::uint8_t> bool_mm_bitpacked(const Matrix<std::uint8_t>& a,
                                       const Matrix<std::uint8_t>& b) {
  return bit_mm(BitMatrix::from_matrix(a), BitMatrix::from_matrix(b))
      .to_matrix();
}

}  // namespace ccq::kernels
