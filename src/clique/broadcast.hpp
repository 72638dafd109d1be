#pragma once

// The broadcast congested clique (§2 of the paper: "a version of the model
// where each node sends the same message to each other node every round" —
// the variant for which communication-complexity lower bounds are known
// [19]).
//
// BcastCtx restricts a node to one word per round, delivered to everyone;
// programs written against it are syntactically unable to exploit unicast.
// The engine underneath is unchanged, so costs remain fully metered.

#include <optional>

#include "clique/engine.hpp"

namespace ccq {

class BcastCtx {
 public:
  explicit BcastCtx(NodeCtx& inner) : inner_(inner) {}

  NodeId id() const { return inner_.id(); }
  NodeId n() const { return inner_.n(); }
  unsigned bandwidth() const { return inner_.bandwidth(); }
  const BitVector& adj_row() const { return inner_.adj_row(); }
  const BitVector& in_row() const { return inner_.in_row(); }
  bool weighted() const { return inner_.weighted(); }
  std::uint32_t edge_weight(NodeId u) const {
    return inner_.edge_weight(u);
  }
  BitVector private_bits() const { return inner_.private_bits(); }
  const BitVector& label(std::size_t i) const { return inner_.label(i); }
  std::uint64_t common_seed() const { return inner_.common_seed(); }

  /// One broadcast round: send `mine` (or nothing) to every other node;
  /// returns everyone's word.
  std::vector<std::optional<Word>> round(std::optional<Word> mine);

  /// Broadcast a long bit string (⌈bits/B⌉ rounds); all nodes must pass
  /// the same length. Returns all n strings.
  std::vector<BitVector> broadcast(const BitVector& mine) {
    return inner_.broadcast(mine);
  }

  void output(std::uint64_t v) { inner_.output(v); }
  void decide(bool accept) { inner_.decide(accept); }

 private:
  NodeCtx& inner_;
};

using BcastProgram = std::function<void(BcastCtx&)>;

/// Run a broadcast-clique program through the standard engine.
RunResult run_broadcast_clique(const Instance& instance,
                               const BcastProgram& program);
RunResult run_broadcast_clique(const Graph& g, const BcastProgram& program);

}  // namespace ccq
