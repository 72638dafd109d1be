#pragma once

// Routing collectives.
//
// §7.1 of the paper delivers the Dolev-style message pattern "using the
// routing protocol of Lenzen [43]". Lenzen's guarantee: if every node sends
// at most n messages and receives at most n messages, delivery takes O(1)
// rounds. We provide two deterministic routers (see DESIGN.md §1 for the
// substitution argument):
//
//  * route_direct — every message goes straight over its (source, dest)
//    link; the engine drains one word per ordered pair per round, so the
//    cost is the max per-pair multiplicity. For the balanced patterns the
//    paper actually routes (Theorem 9, Dolev et al. subgraph detection) this
//    already meets the O(n^{1-1/k}) budget, which tests assert.
//
//  * route_balanced — two-phase indirection: each source stripes its
//    (destination-sorted) messages across all n nodes as intermediaries with
//    a seed-salted offset, then intermediaries forward to the true
//    destinations. Relayed messages carry a destination header word, a
//    constant factor the model absorbs. For loads S = max sent, R = max
//    received per node, phase 1 costs ⌈S/n⌉ rounds and phase 2 is balanced
//    to O(R/n + 1) on non-adversarial inputs.
//
// A routed message is (dst, payload word). Payloads must fit the bandwidth.

#include <cstdint>
#include <vector>

#include "clique/engine.hpp"

namespace ccq {

struct RoutedMessage {
  NodeId dst;
  Word payload;
};

/// Direct delivery. Returns received payloads as (source, payload) pairs in
/// deterministic order (by source, then FIFO).
std::vector<std::pair<NodeId, Word>> route_direct(
    NodeCtx& ctx, const std::vector<RoutedMessage>& messages);

/// Two-phase balanced delivery (see header comment). Received pairs report
/// the *original* source and are sorted by source; unlike route_direct the
/// relative order of several messages from the same source is a
/// deterministic function of the relay schedule, not the submission order —
/// callers that need sequencing must encode it in the payload.
std::vector<std::pair<NodeId, Word>> route_balanced(
    NodeCtx& ctx, const std::vector<RoutedMessage>& messages);

/// A multi-word message routed atomically.
struct RoutedBlock {
  NodeId dst;
  BitVector payload;
};

/// Balanced two-phase routing of whole blocks: each block travels framed
/// ([dst|src] header, sequence number, word count, payload words), so block
/// boundaries and content survive relaying; blocks are striped across
/// intermediaries block-wise. Received blocks are sorted by (source,
/// submission order at the source). This is the collective behind the
/// Theorem 9 pattern, where every block is one adjacency row.
/// The length travels as two ⌈log₂n⌉-bit words and the sequence number as
/// one, so every block must be shorter than 2^(2⌈log₂n⌉) bits (4095 at
/// n = 64, but only 3 at n = 2) and a node may send at most 2^⌈log₂n⌉
/// blocks to one destination; either excess is a ModelViolation naming
/// the numbers.
std::vector<std::pair<NodeId, BitVector>> route_blocks(
    NodeCtx& ctx, const std::vector<RoutedBlock>& blocks);

}  // namespace ccq
