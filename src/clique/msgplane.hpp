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
// A node deposits its outbox in one of three shapes: runs (spans of words,
// each to one destination — the bulk exchange form), (dst, word) pairs, or
// one word sequence broadcast to every other node. A broadcast is stored
// once, not once per receiver: every inbox reads the same arena region.
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

/// One run of an exchange outbox: `words`, in order, to `dst`
/// (NodeCtx::exchange_flat's run form). The span is borrowed: it must stay
/// valid until the exchange returns. Several runs may name the same
/// destination (they queue in deposit order) or alias one buffer.
struct WordRun {
  NodeId dst = 0;
  std::span<const Word> words;
};

namespace detail {
/// One source's broadcast region in the plane's arena: `len` words at
/// offset `off`, read by every other node. len == 0 for a source that
/// deposited runs or pairs, or broadcast nothing.
struct BroadcastSlot {
  std::uint32_t off = 0;
  std::uint32_t len = 0;
};
}  // namespace detail

/// Read-only view of one node's delivered inbox: the words received from
/// each source, FIFO per source, as spans into the plane's storage. Valid
/// until this node's next collective (the next delivery reuses the arena).
class FlatInbox {
 public:
  std::span<const Word> from(NodeId src) const {
    // A broadcasting source's words sit once in the arena's broadcast
    // region, shared by every receiver but the source itself; its
    // histogram row is all zero.
    const detail::BroadcastSlot b = bcast_[src];
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
    return {words_ + (cursor_[i] - count), count};
  }
  NodeId n() const { return n_; }

 private:
  friend class FlatInboxAccess;
  const Word* words_ = nullptr;
  // Row-major [src * n + dst] cursor/count arrays (32-bit: a collective's
  // arena cannot reach 2³² words on any host this simulator fits on, and
  // the engine checks).
  const std::uint32_t* cursor_ = nullptr;
  const std::uint32_t* counts_ = nullptr;
  const detail::BroadcastSlot* bcast_ = nullptr;  // [src]
  NodeId self_ = 0;
  NodeId n_ = 0;
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

  /// Outbox = runs in deposit order; each pair's queue is the
  /// concatenation of its runs. The spans are read again during deliver(),
  /// so they must outlive it.
  virtual void deposit_runs(NodeId self, std::span<const WordRun> runs) = 0;
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

  /// This node's inbox as per-source spans (see FlatInbox lifetime).
  virtual FlatInbox inbox(NodeId self) = 0;
};

std::unique_ptr<MessagePlane> make_message_plane();

}  // namespace detail
}  // namespace ccq
