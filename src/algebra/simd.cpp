#include "algebra/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string_view>

#include "algebra/semiring.hpp"
#include "util/check.hpp"

#if defined(CCQ_SIMD_BUILD_AVX2)
#include <immintrin.h>
// Per-function target attribute: the vector bodies below are compiled for
// AVX2+POPCNT while the rest of the TU (and the whole build) stays at the
// portable baseline. detected() guarantees they only ever run on a CPU that
// has the instructions.
#define CCQ_TARGET_AVX2 __attribute__((target("avx2,popcnt")))
#endif

namespace ccq::simd {

const char* level_name(Level level) {
  return level == Level::kAvx2 ? "avx2" : "scalar";
}

Level detected() noexcept {
#if defined(CCQ_SIMD_BUILD_AVX2)
  static const Level lvl =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt")
          ? Level::kAvx2
          : Level::kScalar;
  return lvl;
#else
  return Level::kScalar;
#endif
}

std::optional<Level> parse_level(const char* text) {
  if (text == nullptr) return std::nullopt;
  const std::string_view v(text);
  if (v.empty() || v == "on" || v == "1" || v == "auto") return std::nullopt;
  if (v == "off" || v == "0" || v == "scalar") return Level::kScalar;
  CCQ_CHECK_MSG(false, "CCQ_SIMD must be off/0/scalar or on/1/auto, got \""
                           << v << '"');
  return std::nullopt;  // unreachable
}

namespace {

// -1 = no override; otherwise a Level pinned by force().
std::atomic<int> g_forced{-1};

Level env_level() {
  static const Level lvl = [] {
    const auto parsed = parse_level(std::getenv("CCQ_SIMD"));
    return parsed.value_or(detected());
  }();
  return lvl;
}

}  // namespace

Level active() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Level>(forced);
  return env_level();
}

void force(Level level) noexcept {
  if (static_cast<int>(level) > static_cast<int>(detected()))
    level = detected();
  g_forced.store(static_cast<int>(level), std::memory_order_relaxed);
}

void clear_force() noexcept {
  g_forced.store(-1, std::memory_order_relaxed);
}

// ---- scalar reference paths ----------------------------------------------
//
// These are the exact loops the pre-SIMD kernels ran; the vector paths must
// match them bit for bit (tests/algebra/simd_test.cpp pins that).

namespace {

void minplus_row_scalar(std::uint64_t* c, std::uint64_t aik,
                        const std::uint64_t* b, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t t = aik + b[j];
    c[j] = c[j] < t ? c[j] : t;
  }
}

void or_select_rows_scalar(const std::uint64_t* base, std::size_t stride,
                           const std::uint32_t* ks, std::size_t nks,
                           std::uint64_t* out, std::size_t nwords) {
  // OR the selected rows into register-held output chunks; one pass over ks
  // per chunk keeps all accumulator traffic out of memory.
  std::size_t t = 0;
  for (; t + 8 <= nwords; t += 8) {
    std::uint64_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
    std::uint64_t a4 = 0, a5 = 0, a6 = 0, a7 = 0;
    for (std::size_t s = 0; s < nks; ++s) {
      const std::uint64_t* br = base + std::size_t{ks[s]} * stride + t;
      a0 |= br[0];
      a1 |= br[1];
      a2 |= br[2];
      a3 |= br[3];
      a4 |= br[4];
      a5 |= br[5];
      a6 |= br[6];
      a7 |= br[7];
    }
    out[t] = a0;
    out[t + 1] = a1;
    out[t + 2] = a2;
    out[t + 3] = a3;
    out[t + 4] = a4;
    out[t + 5] = a5;
    out[t + 6] = a6;
    out[t + 7] = a7;
  }
  for (; t + 4 <= nwords; t += 4) {
    std::uint64_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
    for (std::size_t s = 0; s < nks; ++s) {
      const std::uint64_t* br = base + std::size_t{ks[s]} * stride + t;
      a0 |= br[0];
      a1 |= br[1];
      a2 |= br[2];
      a3 |= br[3];
    }
    out[t] = a0;
    out[t + 1] = a1;
    out[t + 2] = a2;
    out[t + 3] = a3;
  }
  for (; t < nwords; ++t) {
    std::uint64_t acc = 0;
    for (std::size_t s = 0; s < nks; ++s)
      acc |= base[std::size_t{ks[s]} * stride + t];
    out[t] = acc;
  }
}

std::size_t first_common_word_scalar(const std::uint64_t* a,
                                     const std::uint64_t* b, std::size_t from,
                                     std::size_t nwords) {
  for (std::size_t w = from; w < nwords; ++w)
    if (a[w] & b[w]) return w;
  return nwords;
}

}  // namespace

// ---- AVX2 paths -----------------------------------------------------------

#if defined(CCQ_SIMD_BUILD_AVX2)

namespace {

// The (min,+) saturation domain caps entries at infinity() < 2^62, so sums
// stay below 2^63 and the signed epi64 compare below agrees with the scalar
// unsigned compare on every lane.
static_assert(MinPlusSemiring::infinity() < (std::uint64_t{1} << 62));

CCQ_TARGET_AVX2 void minplus_row_avx2(std::uint64_t* c, std::uint64_t aik,
                                      const std::uint64_t* b, std::size_t n) {
  const __m256i va = _mm256_set1_epi64x(static_cast<long long>(aik));
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const __m256i vc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + j));
    const __m256i vt = _mm256_add_epi64(va, vb);
    // t > c → keep c, else take t: exactly the scalar `c < t ? c : t`.
    const __m256i keep_c = _mm256_cmpgt_epi64(vt, vc);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + j),
                        _mm256_blendv_epi8(vt, vc, keep_c));
  }
  for (; j < n; ++j) {
    const std::uint64_t t = aik + b[j];
    c[j] = c[j] < t ? c[j] : t;
  }
}

CCQ_TARGET_AVX2 void or_select_rows_avx2(const std::uint64_t* base,
                                         std::size_t stride,
                                         const std::uint32_t* ks,
                                         std::size_t nks, std::uint64_t* out,
                                         std::size_t nwords) {
  std::size_t t = 0;
  for (; t + 8 <= nwords; t += 8) {
    __m256i a0 = _mm256_setzero_si256();
    __m256i a1 = _mm256_setzero_si256();
    for (std::size_t s = 0; s < nks; ++s) {
      const std::uint64_t* br = base + std::size_t{ks[s]} * stride + t;
      a0 = _mm256_or_si256(
          a0, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(br)));
      a1 = _mm256_or_si256(
          a1, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(br + 4)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + t), a0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + t + 4), a1);
  }
  for (; t + 4 <= nwords; t += 4) {
    __m256i a0 = _mm256_setzero_si256();
    for (std::size_t s = 0; s < nks; ++s) {
      const std::uint64_t* br = base + std::size_t{ks[s]} * stride + t;
      a0 = _mm256_or_si256(
          a0, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(br)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + t), a0);
  }
  for (; t < nwords; ++t) {
    std::uint64_t acc = 0;
    for (std::size_t s = 0; s < nks; ++s)
      acc |= base[std::size_t{ks[s]} * stride + t];
    out[t] = acc;
  }
}

CCQ_TARGET_AVX2 std::size_t first_common_word_avx2(const std::uint64_t* a,
                                                   const std::uint64_t* b,
                                                   std::size_t from,
                                                   std::size_t nwords) {
  std::size_t w = from;
  for (; w + 4 <= nwords; w += 4) {
    const __m256i both = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w)));
    if (!_mm256_testz_si256(both, both)) {
      for (std::size_t k = w;; ++k)
        if (a[k] & b[k]) return k;
    }
  }
  for (; w < nwords; ++w)
    if (a[w] & b[w]) return w;
  return nwords;
}

CCQ_TARGET_AVX2 bool pack_bits_u8_avx2(const std::uint8_t* values,
                                       std::size_t count,
                                       std::uint64_t* words) {
  const __m256i one = _mm256_set1_epi8(1);
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 64 <= count; i += 64) {
    const __m256i lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    const __m256i hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i + 32));
    // Saturating v − 1 is nonzero exactly when an (unsigned) byte is ≥ 2.
    const __m256i over = _mm256_or_si256(_mm256_subs_epu8(lo, one),
                                         _mm256_subs_epu8(hi, one));
    if (!_mm256_testz_si256(over, over)) return false;
    const auto mlo = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(lo, zero)));
    const auto mhi = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(hi, zero)));
    // movemask marks the zero bytes; complement to mark the ones.
    words[i >> 6] = ~(std::uint64_t{mlo} | (std::uint64_t{mhi} << 32));
  }
  for (; i < count; ++i) {
    if (values[i] > 1) return false;
    if (values[i]) words[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  return true;
}

CCQ_TARGET_AVX2 void unpack_bits_u8_avx2(const std::uint64_t* words,
                                         std::size_t count,
                                         std::uint8_t* out) {
  // Output byte p of a 32-byte block comes from source byte p/8 of the
  // replicated half-word; the control below is lane-local (set1_epi32 puts
  // all four source bytes in every 128-bit lane).
  const __m256i sel = _mm256_setr_epi8(0, 0, 0, 0, 0, 0, 0, 0,  //
                                       1, 1, 1, 1, 1, 1, 1, 1,  //
                                       2, 2, 2, 2, 2, 2, 2, 2,  //
                                       3, 3, 3, 3, 3, 3, 3, 3);
  // Byte p holds 2^(p mod 8): AND + compare isolates bit p of the source.
  const __m256i bits = _mm256_set1_epi64x(
      static_cast<long long>(std::uint64_t{0x8040201008040201ULL}));
  const __m256i one = _mm256_set1_epi8(1);
  std::size_t i = 0;
  for (; i + 64 <= count; i += 64) {
    const std::uint64_t word = words[i >> 6];
    const __m256i lo = _mm256_shuffle_epi8(
        _mm256_set1_epi32(static_cast<int>(word & 0xffffffffu)), sel);
    const __m256i hi = _mm256_shuffle_epi8(
        _mm256_set1_epi32(static_cast<int>(word >> 32)), sel);
    const __m256i lo_set =
        _mm256_cmpeq_epi8(_mm256_and_si256(lo, bits), bits);
    const __m256i hi_set =
        _mm256_cmpeq_epi8(_mm256_and_si256(hi, bits), bits);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_and_si256(lo_set, one));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 32),
                        _mm256_and_si256(hi_set, one));
  }
  for (; i < count; ++i)
    out[i] = static_cast<std::uint8_t>((words[i >> 6] >> (i & 63)) & 1u);
}

}  // namespace

#endif  // CCQ_SIMD_BUILD_AVX2

// ---- dispatchers ----------------------------------------------------------

void minplus_row(std::uint64_t* c, std::uint64_t aik, const std::uint64_t* b,
                 std::size_t n) {
#if defined(CCQ_SIMD_BUILD_AVX2)
  if (active() == Level::kAvx2) {
    minplus_row_avx2(c, aik, b, n);
    return;
  }
#endif
  minplus_row_scalar(c, aik, b, n);
}

void or_select_rows(const std::uint64_t* base, std::size_t stride,
                    const std::uint32_t* ks, std::size_t nks,
                    std::uint64_t* out, std::size_t nwords) {
#if defined(CCQ_SIMD_BUILD_AVX2)
  if (active() == Level::kAvx2) {
    or_select_rows_avx2(base, stride, ks, nks, out, nwords);
    return;
  }
#endif
  or_select_rows_scalar(base, stride, ks, nks, out, nwords);
}

std::size_t first_common_word(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t from, std::size_t nwords) {
#if defined(CCQ_SIMD_BUILD_AVX2)
  if (active() == Level::kAvx2)
    return first_common_word_avx2(a, b, from, nwords);
#endif
  return first_common_word_scalar(a, b, from, nwords);
}

bool pack_bits_u8(const std::uint8_t* values, std::size_t count,
                  std::uint64_t* words) {
#if defined(CCQ_SIMD_BUILD_AVX2)
  if (active() == Level::kAvx2)
    return pack_bits_u8_avx2(values, count, words);
#endif
  (void)values;
  (void)count;
  (void)words;
  return false;
}

bool unpack_bits_u8(const std::uint64_t* words, std::size_t count,
                    std::uint8_t* out) {
#if defined(CCQ_SIMD_BUILD_AVX2)
  if (active() == Level::kAvx2) {
    unpack_bits_u8_avx2(words, count, out);
    return true;
  }
#endif
  (void)words;
  (void)count;
  (void)out;
  return false;
}

}  // namespace ccq::simd
