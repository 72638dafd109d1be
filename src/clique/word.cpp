#include "clique/word.hpp"

#include <algorithm>
#include <utility>

namespace ccq {

// Both directions run a shift window over the LSB-first 64-bit words of the
// bit vector and allocate once per call.

std::vector<Word> encode_bits(const BitVector& bv, unsigned word_bits) {
  CCQ_CHECK(word_bits >= 1 && word_bits <= 64);
  const std::size_t total = bv.size();
  std::vector<Word> out(ceil_div(total, word_bits));
  const std::uint64_t* src = bv.words().data();
  std::size_t pos = 0;
  for (Word& w : out) {
    const unsigned take =
        static_cast<unsigned>(std::min<std::size_t>(word_bits, total - pos));
    const std::size_t i = pos >> 6;
    const unsigned off = pos & 63;
    std::uint64_t v = src[i] >> off;
    // off + take > 64 implies off ≥ 1, so the shift stays below 64.
    if (off + take > 64) v |= src[i + 1] << (64 - off);
    if (take < 64) v &= (std::uint64_t{1} << take) - 1;
    // The mask makes the value fit its width, so the fields are set
    // directly instead of through Word's checking constructor.
    w.value = v;
    w.bits = take;
    pos += take;
  }
  return out;
}

namespace {

// Word's fields are public, so a forged word may be wider than 64 bits or
// hold a value past its width.
void check_word(const Word& w) {
  CCQ_CHECK(w.bits <= 64);
  if (w.bits < 64)
    CCQ_CHECK_MSG(w.value >> w.bits == 0,
                  "value does not fit in " << w.bits << " bits");
}

std::size_t checked_width_sum(std::span<const Word> words) {
  std::size_t sum = 0;
  for (const Word& w : words) {
    check_word(w);
    sum += w.bits;
  }
  return sum;
}

}  // namespace

BitVector decode_words(std::span<const Word> words, std::size_t total_bits) {
  std::vector<std::uint64_t> out(ceil_div(total_bits, 64));
  // `acc` holds the `filled` (< 64) low bits of output word `o`; a word
  // that reaches bit 64 spills it and carries its high bits over.
  std::uint64_t acc = 0;
  unsigned filled = 0;
  std::size_t o = 0;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < words.size(); ++i) {
    const Word& w = words[i];
    check_word(w);
    if (w.bits > total_bits - pos) {
      // The widths overrun total_bits: stop writing (so every spill stays
      // inside `out`), give the remaining words their per-word checks, and
      // let the sum check below report the full width.
      pos += w.bits + checked_width_sum(words.subspan(i + 1));
      break;
    }
    pos += w.bits;
    acc |= w.value << filled;
    if (filled + w.bits >= 64) {
      out[o++] = acc;
      acc = filled == 0 ? 0 : w.value >> (64 - filled);
      filled = filled + w.bits - 64;
    } else {
      filled += w.bits;
    }
  }
  CCQ_CHECK_MSG(pos == total_bits, "decode_words: got "
                                       << pos << " bits, expected "
                                       << total_bits);
  if (filled > 0) out[o] = acc;
  return BitVector::from_words(std::move(out), total_bits);
}

}  // namespace ccq
