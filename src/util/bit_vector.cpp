#include "util/bit_vector.hpp"

#include <bit>
#include <utility>

namespace ccq {

BitVector BitVector::from_string(const std::string& s) {
  BitVector b(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    CCQ_CHECK_MSG(s[i] == '0' || s[i] == '1', "bad bit char: " << s[i]);
    if (s[i] == '1') b.set(i);
  }
  return b;
}

BitVector BitVector::from_words(std::vector<std::uint64_t> words,
                                std::size_t nbits) {
  CCQ_CHECK(words.size() == (nbits + 63) / 64);
  BitVector b;
  b.nbits_ = nbits;
  b.words_ = std::move(words);
  b.trim();
  return b;
}

void BitVector::resize(std::size_t nbits) {
  nbits_ = nbits;
  words_.resize((nbits + 63) / 64, 0);
  trim();
}

void BitVector::push_back(bool v) {
  resize(nbits_ + 1);
  set(nbits_ - 1, v);
}

void BitVector::append_bits(std::uint64_t value, unsigned nbits) {
  CCQ_CHECK(nbits <= 64);
  if (nbits < 64) CCQ_CHECK_MSG(value < (std::uint64_t{1} << nbits),
                                "value does not fit in " << nbits << " bits");
  const std::size_t pos = nbits_;
  resize(nbits_ + nbits);
  // Fast path: write across at most two words.
  if (nbits == 0) return;
  const std::size_t w = pos >> 6;
  const unsigned off = pos & 63;
  words_[w] |= value << off;
  if (off != 0 && off + nbits > 64) {
    words_[w + 1] |= value >> (64 - off);
  }
  trim();
}

std::uint64_t BitVector::read_bits(std::size_t pos, unsigned nbits) const {
  CCQ_CHECK(nbits <= 64);
  CCQ_CHECK_MSG(pos + nbits <= nbits_, "read past end of BitVector");
  if (nbits == 0) return 0;
  const std::size_t w = pos >> 6;
  const unsigned off = pos & 63;
  std::uint64_t v = words_[w] >> off;
  if (off != 0 && off + nbits > 64) {
    v |= words_[w + 1] << (64 - off);
  }
  if (nbits < 64) v &= (std::uint64_t{1} << nbits) - 1;
  return v;
}

std::size_t BitVector::popcount() const {
  std::size_t c = 0;
  for (auto w : words_) c += static_cast<std::size_t>(std::popcount(w));
  return c;
}

std::size_t BitVector::find_first(std::size_t from) const {
  if (from >= nbits_) return nbits_;
  std::size_t w = from >> 6;
  std::uint64_t cur = words_[w] & (~std::uint64_t{0} << (from & 63));
  while (true) {
    if (cur != 0) {
      const std::size_t i = (w << 6) +
                            static_cast<std::size_t>(std::countr_zero(cur));
      return i < nbits_ ? i : nbits_;
    }
    if (++w >= words_.size()) return nbits_;
    cur = words_[w];
  }
}

BitVector& BitVector::operator|=(const BitVector& o) {
  CCQ_CHECK(nbits_ == o.nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
  return *this;
}

BitVector& BitVector::operator&=(const BitVector& o) {
  CCQ_CHECK(nbits_ == o.nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
  return *this;
}

BitVector& BitVector::operator^=(const BitVector& o) {
  CCQ_CHECK(nbits_ == o.nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= o.words_[i];
  return *this;
}

bool BitVector::lex_less(const BitVector& o) const {
  const std::size_t m = nbits_ < o.nbits_ ? nbits_ : o.nbits_;
  for (std::size_t i = 0; i < m; ++i) {
    const bool a = get(i), b = o.get(i);
    if (a != b) return !a;  // 0 < 1 at the first differing position
  }
  return nbits_ < o.nbits_;
}

std::string BitVector::to_string() const {
  std::string s(nbits_, '0');
  for (std::size_t i = 0; i < nbits_; ++i)
    if (get(i)) s[i] = '1';
  return s;
}

void BitVector::trim() {
  const unsigned tail = nbits_ & 63;
  if (!words_.empty() && tail != 0) {
    words_.back() &= (std::uint64_t{1} << tail) - 1;
  }
}

}  // namespace ccq
