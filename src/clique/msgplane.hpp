#pragma once

// The message plane: the engine's delivery substrate.
//
// Every collective funnels through the same superstep shape — each node
// deposits an outbox, a leader step delivers all deposits and meters the
// cost, and each node reads its inbox. A MessagePlane owns that data path.
// The engine has one: a reusable CSR-style arena. Deposits are recorded as
// pointers into node-owned buffers plus a per-source histogram row (one
// scan validates bandwidth and counts at the same time). Delivery is a
// two-pass counting sort: column sums → exclusive prefix (inbox base per
// destination) → per-pair cursors → scatter into one shared flat Word
// arena. The column, cursor and scatter passes run on the scheduler's
// worker team (Scheduler::leader_parallel_for) over disjoint node ranges,
// and all arrays persist across collectives, so steady-state collectives
// perform zero heap allocations and the delivery step scales with cores.
// The chaos layer (clique/chaos.hpp) wraps this plane when a fault plan is
// attached.
//
// A node deposits its outbox in one of three shapes: bit runs (bit strings,
// each to one destination — the bulk exchange form), (dst, word) pairs, or
// one word sequence broadcast to every other node. A run is metered as the
// B-bit words encode_bits would cut it into but stored packed, 64 bits per
// arena slot; a broadcast is stored once, not once per receiver: every
// inbox reads the same arena region.
//
// Inboxes and meters are pinned against a test-only reference delivery
// (tests/clique/msgplane_test.cpp) across backends, worker counts and
// traffic patterns; determinism is structural — chunk outputs are
// partitioned by node id, and every reduction the leader performs iterates
// nodes in id order.

#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "clique/scheduler.hpp"
#include "clique/word.hpp"
#include "graph/graph.hpp"

namespace ccq {

/// One run of an exchange outbox: the bits of `*bits`, in order, to `dst`
/// (NodeCtx::exchange_flat's run form). A run of L bits is metered as the
/// encode_bits(*bits, B) framing it stands for — ⌈L/B⌉ words, the last
/// carrying the rest — and read back with FlatInbox::bits_from. `bits` is
/// borrowed and must not be null: it must stay valid until the exchange
/// returns. Several runs may name the same destination (they queue in
/// deposit order) or point at one vector.
struct BitRun {
  NodeId dst = 0;
  const BitVector* bits = nullptr;
};

namespace detail {
/// One source's entry in a delivered collective: a broadcast source's
/// region in the plane's arena (`len` words at offset `off`, read by every
/// other node). len == 0 for a source that deposited runs or pairs, or
/// broadcast nothing; off == kRunSource marks the run source, whose cells
/// hold packed bits.
struct SourceSlot {
  std::uint32_t off = 0;
  std::uint32_t len = 0;
};
inline constexpr std::uint32_t kRunSource = 0xffffffff;
}  // namespace detail

/// Read-only view of one node's delivered inbox: per source, FIFO, the
/// words or bits received from it, read straight from the plane's storage.
/// Valid until this node's next collective (the next delivery reuses the
/// arena).
///
/// A (src → self) cell holds words when src deposited pairs or a broadcast,
/// and packed bits when it deposited bit runs: every run starts at its
/// metered-word offset × B, so metered word k carries cell bits
/// [k·B, (k+1)·B), zero past the end of its run. from() reads word cells
/// only; words_from, bits_from and carries read both kinds.
class FlatInbox {
 public:
  /// The words src sent, FIFO. ModelViolation on a non-empty run cell.
  std::span<const Word> from(NodeId src) const {
    // A broadcasting source's words sit once in the arena's broadcast
    // region, shared by every receiver but the source itself; its
    // histogram row is all zero.
    const detail::SourceSlot b = slots_[src];
    if (b.len != 0) {
      if (src == self_) return {};
      return {words_ + b.off, b.len};
    }
    // Cursors sit one past the end of each (src → self) run after the
    // scatter; the run length is the histogram entry. An empty run must not
    // touch the cursor at all — the block-sparse delivery passes skip cursor
    // writes for untouched shard×shard blocks, so a zero-count entry may sit
    // over a stale cursor value.
    const std::size_t i = static_cast<std::size_t>(src) * n_ + self_;
    const std::uint32_t count = counts_[i];
    if (count == 0) return {};
    if (b.off == detail::kRunSource) refuse_run_cell(src);
    return {words_ + (cursor_[i] - count), count};
  }

  /// Metered words src sent this node, whatever the deposit kind.
  std::size_t words_from(NodeId src) const {
    const detail::SourceSlot b = slots_[src];
    if (b.len != 0) return src == self_ ? 0 : b.len;
    return counts_[static_cast<std::size_t>(src) * n_ + self_];
  }

  /// The first `nbits` bits carried by src's metered words from word
  /// `first_word` on: a run cell's words carry B bits each, a word cell's
  /// words their widths. ModelViolation when those words carry fewer.
  BitVector bits_from(NodeId src, std::size_t first_word,
                      std::size_t nbits) const;

  /// True when src's words carry exactly `nbits` bits: a word cell's widths
  /// sum to nbits; a run cell (which keeps no widths) holds ⌈nbits/B⌉
  /// words, as the framing of one nbits-bit run does.
  bool carries(NodeId src, std::size_t nbits) const;

  NodeId n() const { return n_; }

 private:
  friend class FlatInboxAccess;
  [[noreturn]] void refuse_run_cell(NodeId src) const;

  const Word* words_ = nullptr;
  // Row-major [src * n + dst] cursor/count arrays (32-bit: a collective's
  // arena cannot reach 2³² slots on any host this simulator fits on, and
  // the engine checks). A word cell's cursor sits one past its last word, a
  // run cell's on its first slot.
  const std::uint32_t* cursor_ = nullptr;
  const std::uint32_t* counts_ = nullptr;
  const detail::SourceSlot* slots_ = nullptr;  // [src]
  NodeId self_ = 0;
  NodeId n_ = 0;
  unsigned bandwidth_ = 0;
};

namespace detail {

/// Accounting the leader folds into the CostMeter after each delivery.
struct DeliveryAccounting {
  std::uint64_t max_queue = 0;  ///< rounds to drain (self pairs excluded)
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  /// Receiver-side per-collective max: most words delivered into any one
  /// inbox (self excluded). The sender side is validated against B at
  /// deposit time; this is the plane's own report of the symmetric
  /// quantity, which the trace cross-checks against its per-node deltas so
  /// it can never show an impossible inbox.
  std::uint64_t max_node_in = 0;
  std::uint64_t* sent_words = nullptr;      ///< [n] run-wide accumulators
  std::uint64_t* received_words = nullptr;  ///< [n]
};

// The delivery substrate. Deposit methods run on node fibers and may touch
// only slots owned by `self`; they validate the outbox (bandwidth bound,
// destination range, round() uniqueness) during their single scan, so the
// engine never re-walks an outbox just to check it. deliver() runs in the
// serial leader step and may fan work out via sched.leader_parallel_for.
// inbox() runs on node fibers after delivery.
class MessagePlane {
 public:
  virtual ~MessagePlane() = default;

  /// Reset for a run with n nodes and B-bit words.
  virtual void init(NodeId n, unsigned bandwidth) = 0;

  /// Outbox = bit runs in deposit order; each pair's queue is the
  /// concatenation of its runs' B-bit framings. The runs and their bits are
  /// read again during deliver(), so they must outlive it.
  virtual void deposit_runs(NodeId self, std::span<const BitRun> runs) = 0;
  /// Outbox = (dst, word) pairs in send order. `unique_dst` enforces
  /// round()'s one-word-per-destination, no-self rule.
  virtual void deposit_pairs(NodeId self,
                             std::span<const std::pair<NodeId, Word>> out,
                             bool unique_dst) = 0;
  /// Outbox = the same word sequence to every other node (broadcast),
  /// metered as n − 1 copies. Under one tag some nodes may broadcast while
  /// others deposit runs or pairs.
  virtual void deposit_broadcast(NodeId self,
                                 std::span<const Word> words) = 0;

  /// Deliver every deposit and fill `acc`. Leader-only.
  virtual void deliver(Scheduler& sched, DeliveryAccounting& acc) = 0;

  /// This node's inbox (see FlatInbox lifetime).
  virtual FlatInbox inbox(NodeId self) = 0;
};

std::unique_ptr<MessagePlane> make_message_plane();

}  // namespace detail
}  // namespace ccq
