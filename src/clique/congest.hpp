#pragma once

// The CONGEST model, for comparison (§2 of the paper: CONGEST lower bounds
// "boil down to constructing graphs with bottlenecks ... A key motivation
// for the study of the congested clique model is to understand computation
// in networks that do not have such bottlenecks").
//
// CongestCtx restricts communication to the *input graph's* edges: a node
// may send one ≤B-bit word per incident edge per round. Same engine, same
// meters — so clique-vs-CONGEST comparisons are apples-to-apples measured
// rounds, and the bottleneck phenomenon (bench_congest) is demonstrated
// with real message flows.

#include <optional>

#include "clique/engine.hpp"

namespace ccq {

class CongestCtx {
 public:
  explicit CongestCtx(NodeCtx& inner) : inner_(inner) {}

  NodeId id() const { return inner_.id(); }
  NodeId n() const { return inner_.n(); }
  unsigned bandwidth() const { return inner_.bandwidth(); }
  const BitVector& adj_row() const { return inner_.adj_row(); }
  bool weighted() const { return inner_.weighted(); }
  std::uint32_t edge_weight(NodeId u) const {
    return inner_.edge_weight(u);
  }
  BitVector private_bits() const { return inner_.private_bits(); }
  std::uint64_t common_seed() const { return inner_.common_seed(); }

  /// One synchronous round: send at most one word along each *incident
  /// input edge*; sending to a non-neighbour is a ModelViolation.
  std::vector<std::optional<Word>> round(
      std::span<const std::pair<NodeId, Word>> sends);

  /// Allocation-free variant: same edge restriction and cost, arena-backed
  /// return (see NodeCtx::round_flat for the view's lifetime).
  FlatInbox round_flat(std::span<const std::pair<NodeId, Word>> sends);

  /// Flood one bit to the whole (connected) graph: rounds = eccentricity
  /// of the source; convenience built on round().
  void output(std::uint64_t v) { inner_.output(v); }
  void decide(bool accept) { inner_.decide(accept); }

 private:
  NodeCtx& inner_;
};

using CongestProgram = std::function<void(CongestCtx&)>;

/// Run a CONGEST program (communication only along g's edges).
RunResult run_congest(const Graph& g, const CongestProgram& program);

}  // namespace ccq
