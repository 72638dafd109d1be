// Tests for the message word codec — the unit the bandwidth discipline is
// enforced in.

#include "clique/word.hpp"

#include "clique/simulation.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace ccq {
namespace {

TEST(Word, ValueMustFitWidth) {
  EXPECT_NO_THROW(Word(7, 3));
  EXPECT_THROW(Word(8, 3), ModelViolation);
  EXPECT_THROW(Word(1, 0), ModelViolation);
  EXPECT_NO_THROW(Word(0, 0));
  EXPECT_THROW(Word(0, 65), ModelViolation);
}

TEST(Word, SixtyFourBitValues) {
  EXPECT_NO_THROW(Word(~std::uint64_t{0}, 64));
}

TEST(Word, Equality) {
  EXPECT_EQ(Word(5, 3), Word(5, 3));
  EXPECT_FALSE(Word(5, 3) == Word(5, 4));  // width is part of identity
  EXPECT_FALSE(Word(5, 3) == Word(4, 3));
}

TEST(NodeIdBits, MatchesCeilLog) {
  EXPECT_EQ(node_id_bits(1), 1u);
  EXPECT_EQ(node_id_bits(2), 1u);
  EXPECT_EQ(node_id_bits(3), 2u);
  EXPECT_EQ(node_id_bits(16), 4u);
  EXPECT_EQ(node_id_bits(17), 5u);
  EXPECT_EQ(node_id_bits(1024), 10u);
}

TEST(EncodeBits, ExactMultiples) {
  BitVector bv = BitVector::from_string("110100101101");
  auto words = encode_bits(bv, 4);
  ASSERT_EQ(words.size(), 3u);
  for (const Word& w : words) EXPECT_EQ(w.bits, 4u);
  EXPECT_TRUE(decode_words(words, 12) == bv);
}

TEST(EncodeBits, RaggedTail) {
  BitVector bv = BitVector::from_string("1101001");
  auto words = encode_bits(bv, 3);
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[2].bits, 1u);  // 7 = 3+3+1
  EXPECT_TRUE(decode_words(words, 7) == bv);
}

TEST(EncodeBits, EmptyVector) {
  BitVector bv;
  auto words = encode_bits(bv, 5);
  EXPECT_TRUE(words.empty());
  EXPECT_EQ(decode_words(words, 0).size(), 0u);
}

TEST(DecodeWords, LengthMismatchRejected) {
  BitVector bv(10, true);
  auto words = encode_bits(bv, 4);
  EXPECT_THROW(decode_words(words, 11), ModelViolation);
  EXPECT_THROW(decode_words(words, 9), ModelViolation);
}

BitVector random_bits(SplitMix64& rng, std::size_t bits) {
  BitVector bv(bits);
  for (std::size_t i = 0; i < bits; ++i) bv.set(i, rng.next_bool(0.5));
  return bv;
}

void expect_round_trip(const BitVector& bv, unsigned width) {
  const std::size_t bits = bv.size();
  const auto words = encode_bits(bv, width);
  ASSERT_EQ(words.size(), ceil_div(bits, width));
  for (std::size_t i = 0; i < words.size(); ++i) {
    const unsigned want =
        i + 1 < words.size() ? width : static_cast<unsigned>(bits - i * width);
    EXPECT_EQ(words[i].bits, want);
    EXPECT_EQ(words[i].value, bv.read_bits(i * width, want));
  }
  EXPECT_TRUE(decode_words(words, bits) == bv)
      << "width " << width << " bits " << bits;
}

TEST(EncodeBitsProperty, RoundTripRandomWidths) {
  SplitMix64 rng(0xc0dec);
  for (int t = 0; t < 60; ++t) {
    const std::size_t bits = rng.next_below(300);
    const unsigned width = 1 + static_cast<unsigned>(rng.next_below(64));
    expect_round_trip(random_bits(rng, bits), width);
  }
  // Every width, including 64 (where a shift window must never shift by
  // 64), at lengths straddling one and two 64-bit words.
  for (unsigned width = 1; width <= 64; ++width) {
    for (std::size_t bits : {0, 1, 63, 64, 65, 127, 128, 129}) {
      expect_round_trip(random_bits(rng, bits), width);
      expect_round_trip(BitVector(bits, true), width);
    }
  }
}

TEST(DecodeWords, UnequalWidthsMatchAppendBits) {
  // Streams whose words have different widths (the sparse schedule's
  // phase C decodes such streams), widths 0 and 64 included.
  SplitMix64 rng(0x5eed);
  for (int t = 0; t < 200; ++t) {
    std::vector<Word> words;
    BitVector want;
    const std::size_t count = rng.next_below(12);
    for (std::size_t i = 0; i < count; ++i) {
      const unsigned b = static_cast<unsigned>(rng.next_below(65));
      const std::uint64_t v =
          b == 64 ? rng.next() : rng.next() & ((std::uint64_t{1} << b) - 1);
      words.emplace_back(v, b);
      want.append_bits(v, b);
    }
    EXPECT_TRUE(decode_words(words, want.size()) == want) << t;
    EXPECT_THROW(decode_words(words, want.size() + 1), ModelViolation);
    if (want.size() > 0) {
      EXPECT_THROW(decode_words(words, want.size() - 1), ModelViolation);
    }
  }
}

TEST(DecodeWords, ForgedWordRejected) {
  // Word's fields are public, so a word can bypass its checking
  // constructor; decode must still reject a value wider than its width.
  std::vector<Word> words = {Word(5, 3), Word()};
  words[1].value = 8;
  words[1].bits = 3;
  EXPECT_THROW(decode_words(words, 6), ModelViolation);
  words[1].value = 1;
  words[1].bits = 65;
  EXPECT_THROW(decode_words(words, 68), ModelViolation);
  // A forged word past a width overrun is still reported.
  words[1].value = 8;
  words[1].bits = 3;
  EXPECT_THROW(decode_words(words, 4), ModelViolation);
}


// ---------- clique-on-clique simulation accounting ----------

TEST(Simulation, OverheadIsCeilSquared) {
  EXPECT_EQ(simulation_round_overhead(10, 10), 1u);
  EXPECT_EQ(simulation_round_overhead(11, 10), 4u);   // ⌈11/10⌉² = 4
  EXPECT_EQ(simulation_round_overhead(52, 16), 16u);  // ⌈52/16⌉² = 16
  EXPECT_EQ(simulation_round_overhead(5, 10), 1u);    // fewer than hosts
}

TEST(Simulation, HostRoundsScaleLinearly) {
  EXPECT_EQ(simulated_host_rounds(33, 28, 8), 33u * 16);
  EXPECT_EQ(simulated_host_rounds(0, 100, 10), 0u);
}

}  // namespace
}  // namespace ccq
