#pragma once

// Theorem 2, run constructively at toy scale.
//
// The proof constructs a language L by, for each n, picking the
// lexicographically-first function f_n : {0,1}^{nL} → {0,1} with no
// (n, log n, L, T/2)-protocol, and putting G ∈ L iff f_n evaluates to 1 on
// the L-bit prefixes of the nodes' private inputs. L is decidable in
// ~⌈L/B⌉ rounds (broadcast the prefixes, recompute f_n locally by
// exhaustive enumeration — the paper's own algorithm), but by construction
// no protocol within the lower budget computes f_n.
//
// We instantiate the construction exactly, at parameters where the protocol
// enumeration is exhaustive, and run the deciding algorithm on the metered
// engine.

#include <optional>

#include "clique/engine.hpp"
#include "hierarchy/protocol.hpp"

namespace ccq {

class ToyDiagonalisation {
 public:
  /// Build the diagonal language for an n-node clique with L prefix bits
  /// per node and lower-bound budget t_lower rounds (bandwidth b = 1 in the
  /// protocol space, matching ⌈log₂n⌉ = 1 at n = 2; for n > 2 the space
  /// uses b = ⌈log₂n⌉).
  static std::optional<ToyDiagonalisation> make(NodeId n, unsigned L,
                                                unsigned t_lower);

  const ProtocolSpace& space() const { return space_; }
  const BitVector& hard_function() const { return hard_fn_; }

  /// The per-node L-bit prefix inputs derived from the graph (§3 private
  /// bit encoding, zero padded — see balanced_private_prefixes).
  std::uint64_t input_code(const Graph& g) const;

  /// Membership by direct evaluation (the language's definition).
  bool in_language(const Graph& g) const;

  /// The Theorem 2 upper-bound algorithm on the engine: every node
  /// broadcasts its prefix and evaluates f_n locally.
  RunResult decide_clique(const Graph& g) const;

 private:
  ToyDiagonalisation(ProtocolSpace space, BitVector hard_fn, unsigned L)
      : space_(space), hard_fn_(std::move(hard_fn)), L_(L) {}

  ProtocolSpace space_;
  BitVector hard_fn_;
  unsigned L_;
};

/// Balanced §3 private-bit assignment: the bit of edge {u,v}, u<v, belongs
/// to u when u+v is even and to v otherwise; every node's bits are listed
/// by increasing partner id and zero-padded to `bits` length.
std::vector<BitVector> balanced_private_prefixes(const Graph& g,
                                                 unsigned bits);

}  // namespace ccq
