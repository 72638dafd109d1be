#pragma once

// (n, b, L, t)-protocols — the non-uniform model behind the counting
// arguments (§3 "Counting arguments", Lemma 1).
//
// Fixed n nodes and bandwidth b; each node v receives L private input bits
// x_v; the protocol runs t rounds (every ordered pair carries exactly b bits
// per round) and every node outputs one bit. A protocol *computes*
// f : {0,1}^{nL} → {0,1} if on every input all nodes output f(x).
//
// For the constructive toy instantiations of Theorems 2/4/8 we enumerate
// protocols *exactly*: a protocol is a genome of function-table bits —
// for each node, round and destination a table mapping (own input, received
// transcript so far) to a b-bit message, plus a final output table. The
// genome count 2^{genome_bits} is a tight version of the Lemma 1 upper
// bound (tests check genome_bits ≤ the Lemma 1 exponent).

#include <cstdint>
#include <optional>
#include <vector>

#include "util/bit_vector.hpp"
#include "util/check.hpp"

namespace ccq {

struct ProtocolSpace {
  unsigned n;  ///< nodes
  unsigned b;  ///< bits per ordered pair per round
  unsigned L;  ///< private input bits per node
  unsigned t;  ///< rounds

  ProtocolSpace(unsigned n_, unsigned b_, unsigned L_, unsigned t_);

  /// Transcript bits a node has received after r full rounds.
  std::size_t transcript_bits(unsigned r) const {
    return static_cast<std::size_t>(r) * b * (n - 1);
  }

  /// Message-table input domain size at round r: 2^{L + transcript(r)}.
  std::size_t message_domain(unsigned r) const {
    return std::size_t{1} << (L + transcript_bits(r));
  }

  /// Exact number of bits describing one protocol.
  std::size_t genome_bits() const;

  /// Number of distinct inputs: 2^{nL}.
  std::size_t input_count() const { return std::size_t{1} << (n * L); }

  /// Evaluate the protocol `genome` on input x (x packs x_1..x_n, node 0's
  /// bits lowest). Returns the n output bits.
  std::vector<bool> evaluate(const BitVector& genome, std::uint64_t x) const;

  /// The function table computed by `genome` (bit i = output on input i),
  /// or nullopt if on some input the nodes disagree (the protocol then
  /// computes no function).
  std::optional<BitVector> computed_function(const BitVector& genome) const;

  /// Genome from an integer code (genome_bits ≤ 64 required).
  BitVector genome_from_code(std::uint64_t code) const;

  /// All achievable function tables, as a 2^{2^{nL}}-entry membership
  /// bitmap indexed by the table read as an integer (little-endian:
  /// bit i of the index = f(i)). Requires genome_bits ≤ max_genome_bits
  /// and nL ≤ 6.
  std::vector<bool> achievable_functions(
      unsigned max_genome_bits = 24) const;

  /// Lexicographically-first function table NOT achievable, in the paper's
  /// ordering (function tables as bit vectors of length 2^{nL}, position 0
  /// most significant). Returns nullopt if every function is achievable.
  std::optional<BitVector> first_hard_function(
      unsigned max_genome_bits = 24) const;
};

/// Convert the achievability bitmap index convention to a table.
BitVector table_from_index(std::uint64_t index, std::size_t inputs);
std::uint64_t index_from_table(const BitVector& table);

}  // namespace ccq
