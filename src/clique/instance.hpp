#pragma once

// Problem instances as presented to the clique engine.
//
// §3 of the paper: node v initially knows its unique identifier and the
// edges incident to v. We additionally allow (a) per-node private input bits
// — the encoding used by the counting arguments, where each potential edge's
// bit belongs to exactly one endpoint — and (b) a stack of labellings
// z_1, ..., z_k for the nondeterministic / alternating experiments (§5, §6).

#include <vector>

#include "graph/graph.hpp"
#include "util/bit_vector.hpp"

namespace ccq {

/// One label per node — a "labelling" in the paper's sense.
using Labelling = std::vector<BitVector>;

struct Instance {
  Graph graph;
  /// Optional private inputs (size n or empty). When empty and a program
  /// asks for private bits, the engine derives the §3 private-bit encoding
  /// from the graph: bit for edge {u,v} with u<v belongs to u.
  std::vector<BitVector> private_bits;
  /// Nondeterministic labellings z_1 ... z_k (possibly empty).
  std::vector<Labelling> labels;

  static Instance of(Graph g) {
    Instance inst;
    inst.graph = std::move(g);
    return inst;
  }
};

/// The §3 private-bit encoding: the bit of edge {u,v}, u<v, is assigned to
/// endpoint u; node v's private string lists its owned bits in increasing
/// order of the other endpoint. Every node owns n-1-v ≥ 0 bits; the paper's
/// ⌊(n-1)/2⌋ lower bound per node is an inessential normalisation (one round
/// converts between encodings either way, as noted in §3). The whole-graph
/// reference for what NodeCtx::private_bits derives per node.
std::vector<BitVector> private_bit_encoding(const Graph& g);

}  // namespace ccq
