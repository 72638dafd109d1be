#pragma once

// Compact dynamic bit vector.
//
// Used for adjacency rows, input encodings (§3 of the paper), certificates
// and transcripts. Provides word-level access so that the clique engine can
// slice a bit vector into B-bit message words without per-bit overhead.

#include <cstdint>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace ccq {

class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t nbits, bool fill = false)
      : nbits_(nbits),
        words_((nbits + 63) / 64, fill ? ~std::uint64_t{0} : 0) {
    trim();
  }

  /// Parse from a string of '0'/'1' characters, index 0 first.
  static BitVector from_string(const std::string& s);

  /// Adopt a pre-built word buffer holding `nbits` bits (LSB-first within
  /// each word). The bulk encoders in pack_entries write whole words and
  /// hand them over here, skipping the per-append resize of append_bits.
  /// Bits past `nbits` in the last word are cleared.
  static BitVector from_words(std::vector<std::uint64_t> words,
                              std::size_t nbits);

  std::size_t size() const { return nbits_; }
  bool empty() const { return nbits_ == 0; }

  bool get(std::size_t i) const {
    CCQ_DCHECK(i < nbits_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i, bool v = true) {
    CCQ_DCHECK(i < nbits_);
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (v)
      words_[i >> 6] |= mask;
    else
      words_[i >> 6] &= ~mask;
  }
  bool operator[](std::size_t i) const { return get(i); }

  void resize(std::size_t nbits);
  void push_back(bool v);

  /// Append the low `nbits` bits of `value` (LSB first).
  void append_bits(std::uint64_t value, unsigned nbits);

  /// Read `nbits` (≤64) bits starting at bit offset `pos`, LSB first.
  std::uint64_t read_bits(std::size_t pos, unsigned nbits) const;

  std::size_t popcount() const;

  /// Index of the first set bit at or after `from`, or size() if none.
  std::size_t find_first(std::size_t from = 0) const;

  BitVector& operator|=(const BitVector& o);
  BitVector& operator&=(const BitVector& o);
  BitVector& operator^=(const BitVector& o);

  bool operator==(const BitVector& o) const {
    return nbits_ == o.nbits_ && words_ == o.words_;
  }

  /// Lexicographic comparison with index 0 the most significant position —
  /// the ordering used to pick the "first" hard function in Theorem 2.
  bool lex_less(const BitVector& o) const;

  std::string to_string() const;

  const std::vector<std::uint64_t>& words() const { return words_; }
  std::size_t word_count() const { return words_.size(); }
  std::uint64_t word(std::size_t w) const { return words_[w]; }

 private:
  void trim();

  std::size_t nbits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace ccq
