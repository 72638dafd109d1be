#pragma once

// Deterministic fault injection for the message plane (the "chaos" layer).
//
// The nondeterministic results (§5–§8) are only as strong as their soundness
// direction: a verifier that accepts a corrupted certificate silently
// falsifies every hierarchy experiment built on it. Nothing in the honest
// engine ever feeds a verifier adversarial traffic, so this layer wraps
// the MessagePlane (Engine::Config::chaos, attached exactly like the round
// trace) and corrupts deposits before delivery:
//
//   * kFlip      — flip one uniformly chosen bit of a word;
//   * kDrop      — deliver the word as zero (width preserved, so framing
//                  survives and the corruption is semantic, not structural);
//   * kDuplicate — deliver the word twice (the duplicate is charged like
//                  any other word: faults are visible to the cost meter);
//   * kByzantine — every outgoing word of a marked node is replaced by an
//                  Adversary callback (default: a seeded uniform value).
//
// Every fault decision is a pure function of (plan seed, collective index,
// src, dst, word position): one SplitMix64 stream per (collective, src, dst)
// ordered pair, drawn in word order. That makes fault schedules bit-for-bit
// reproducible across backends and worker counts — the same
// structural-determinism argument the plane itself relies on — and lets a
// failing campaign trial be replayed from four integers.
//
// Words a node queues to itself never touch the network and are never
// faulted. Corruption happens at deposit time into chaos-owned queues (the
// wrapped plane validates the corrupted traffic exactly as it would honest
// traffic), and the per-node fault events are flushed into the plan's
// ledger by the serial leader in node-id order, so the ledger is
// deterministic too. The wrapper copies every outbox, which is fine: chaos
// is a correctness instrument for tests and the soundness campaign, not a
// production path.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "clique/msgplane.hpp"

namespace ccq {

enum class FaultKind : std::uint8_t {
  kFlip = 0,
  kDrop = 1,
  kDuplicate = 2,
  kByzantine = 3,
};
constexpr unsigned kFaultKinds = 4;
const char* fault_kind_name(FaultKind k);

/// One injected fault, as recorded in the plan's ledger.
struct FaultEvent {
  FaultKind kind = FaultKind::kFlip;
  std::uint64_t collective = 0;  ///< 0-based collective index within a run
  NodeId src = 0;
  NodeId dst = 0;
  /// Word position in the (src→dst) queue. 64-bit: the chaos layer's own
  /// queues are size_t long and are faulted before the wrapped plane checks
  /// its 2³²-word cap, so a narrower index would silently alias distinct
  /// fault positions.
  std::uint64_t index = 0;
  unsigned bit = 0;  ///< kFlip only: which bit was flipped
  Word before;
  Word after;

  bool operator==(const FaultEvent& o) const {
    return kind == o.kind && collective == o.collective && src == o.src &&
           dst == o.dst && index == o.index && bit == o.bit &&
           before == o.before && after == o.after;
  }
};

/// What a pluggable adversary sees when replacing one outgoing word of a
/// byzantine node. `rng` is the word's deterministic draw, so an adversary
/// built on it stays reproducible.
struct AdversaryView {
  std::uint64_t collective = 0;
  NodeId src = 0;
  NodeId dst = 0;
  std::uint64_t index = 0;
  Word original;
  std::uint64_t rng = 0;
};

/// Returns the replacement value for a byzantine node's outgoing word. The
/// value is clamped to the original word's declared width (a byzantine node
/// can lie about content, not violate the bandwidth model — over-wide words
/// would be rejected by the wrapped plane, turning every attack into a
/// trivial ModelViolation instead of a soundness probe).
using Adversary = std::function<std::uint64_t(const AdversaryView&)>;

/// A fault schedule plus its ledger. Attach via Engine::Config::chaos; a
/// plan already driving another run is skipped (the run executes
/// fault-free) rather than interleaved, and the ledger accumulates across
/// sequential runs until clear().
class ChaosPlan {
 public:
  struct Config {
    std::uint64_t seed = 0xc4a05u;
    double p_flip = 0.0;
    double p_drop = 0.0;
    double p_dup = 0.0;
    /// Nodes whose every outgoing word is replaced by `adversary`.
    std::vector<NodeId> byzantine;
    /// Null = seeded uniform replacement values.
    Adversary adversary;
    /// Ledger size cap; counts stay exact past it (ledger_overflow()).
    std::size_t max_ledger = std::size_t{1} << 20;
  };

  ChaosPlan() = default;
  explicit ChaosPlan(Config cfg) : cfg_(std::move(cfg)) {}

  const Config& config() const { return cfg_; }
  const std::vector<FaultEvent>& ledger() const { return ledger_; }
  std::uint64_t fault_count(FaultKind k) const {
    return counts_[static_cast<unsigned>(k)];
  }
  std::uint64_t total_faults() const {
    std::uint64_t t = 0;
    for (unsigned i = 0; i < kFaultKinds; ++i) t += counts_[i];
    return t;
  }
  /// Faults counted but not ledgered once max_ledger was reached.
  std::uint64_t ledger_overflow() const { return overflow_; }
  void clear() {
    ledger_.clear();
    counts_ = {};
    overflow_ = 0;
  }

  /// Single-run guard (same protocol as RoundTrace::try_acquire): the
  /// engine acquires the plan for the duration of one run and releases it
  /// on every exit path.
  bool try_acquire() {
    bool expected = false;
    return in_use_.compare_exchange_strong(expected, true);
  }
  void release() { in_use_.store(false); }

 private:
  friend class ChaosPlane;  // leader-side ledger flush
  void record(const FaultEvent& e) {
    counts_[static_cast<unsigned>(e.kind)] += 1;
    if (ledger_.size() < cfg_.max_ledger) {
      ledger_.push_back(e);
    } else {
      overflow_ += 1;
    }
  }

  Config cfg_;
  std::vector<FaultEvent> ledger_;
  std::array<std::uint64_t, kFaultKinds> counts_{};
  std::uint64_t overflow_ = 0;
  std::atomic<bool> in_use_{false};
};

namespace detail {
/// Wrap `inner` so every deposited word passes through `plan`'s fault
/// schedule before delivery. The wrapper *borrows* `inner` — both `inner`
/// and `plan` must outlive the returned plane. (Borrowing is what lets an
/// EngineSession keep its warm plane across chaos and chaos-free runs.)
std::unique_ptr<MessagePlane> wrap_chaos(MessagePlane* inner,
                                         ChaosPlan* plan);
}  // namespace detail

}  // namespace ccq
