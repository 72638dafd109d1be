#pragma once

// The congested clique engine.
//
// Execution model (faithful to §3 of the paper):
//   * n nodes, fully connected, synchronous rounds;
//   * per round, each ordered pair carries at most one word of at most
//     B = ⌈log₂n⌉ · c bits (c = Config::bandwidth_multiplier, default 1);
//   * unlimited local computation;
//   * all nodes run the same program (SPMD), parameterised by id().
//
// Programs are written MPI-style: a plain function `void(NodeCtx&)` that
// calls *collectives* — round(), exchange_flat(), broadcast(), share_bit().
// Every node must issue the identical collective sequence; the engine
// rendezvouses all nodes at each collective, verifies the sequences agree
// (a divergent sequence is a ModelViolation), delivers messages
// deterministically, and meters rounds from the actual per-pair queue
// drain.
//
// Node programs execute on a pluggable scheduler backend
// (Config::backend, see clique/scheduler.hpp): by default they run as
// cooperatively yielding fibers, one superstep per collective, with each
// worker of a fixed team resuming one contiguous block of node ids
// (DESIGN.md §12); ExecutionBackend::kThreadPerNode keeps the historical
// thread-per-node execution as a reference. Results are bit-for-bit
// identical across backends, team sizes, and schedules.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "clique/cost.hpp"
#include "clique/instance.hpp"
#include "clique/msgplane.hpp"
#include "clique/scheduler.hpp"
#include "clique/word.hpp"
#include "graph/graph.hpp"

namespace ccq {

class RoundTrace;  // clique/trace.hpp
class ChaosPlan;   // clique/chaos.hpp
class BcastCtx;    // clique/broadcast.hpp

namespace detail {
struct SharedState;
struct EngineAccess;  // engine.cpp-internal NodeCtx factory
}  // namespace detail

class NodeCtx {
 public:
  NodeId id() const { return id_; }
  NodeId n() const;
  /// Bandwidth B in bits per word.
  unsigned bandwidth() const;
  /// Shared public randomness (common seed; the model's nodes could agree
  /// on it in one round, and all our uses are charged or constant).
  std::uint64_t common_seed() const;

  // ---- initial local knowledge -------------------------------------------
  /// Incident-edge row (out-edges when directed).
  const BitVector& adj_row() const;
  /// Incoming-edge row (directed graphs; == adj_row() when undirected).
  const BitVector& in_row() const;
  bool directed() const;
  bool weighted() const;
  /// Weight of the incident edge {id(), u} (must exist).
  std::uint32_t edge_weight(NodeId u) const;
  /// Private input bits: the instance's, or else the §3 encoding's bits
  /// of this node (bits id()+1 … n−1 of adj_row()), derived per call.
  BitVector private_bits() const;
  /// Nondeterministic label z_{i}[v] for this node (i is 0-based).
  const BitVector& label(std::size_t i) const;
  std::size_t label_count() const;

  // ---- collectives (identical call sequence across all nodes) ------------
  /// One synchronous round: send at most one word to each other node;
  /// returns the word received from each node (index = sender). Costs
  /// exactly 1 round even if nothing is sent.
  std::vector<std::optional<Word>> round(
      std::span<const std::pair<NodeId, Word>> sends);

  /// Bulk exchange: sends are (dst, word) pairs in send order, any number
  /// per destination. The engine drains every (src → dst) queue one word
  /// per ordered pair per round, so the cost is max over ordered pairs of
  /// the queue length. Returns per-source inboxes in FIFO order. Words sent
  /// to self are delivered free of charge (local computation is
  /// unlimited). The returned view aliases the message plane's arena and is
  /// valid until this node's next collective — decode or copy out before
  /// communicating again.
  FlatInbox exchange_flat(std::span<const std::pair<NodeId, Word>> sends);

  /// Run form of the fast path: each run sends a bit string, in order, to
  /// its destination — the pair form with every run expanded to the
  /// (dst, word) pairs of its encode_bits(bits, B) framing, with the same
  /// cost, FIFO and self-delivery semantics, but the plane stores each run
  /// packed and the receiver reads it back with FlatInbox::bits_from (its
  /// from() refuses a run cell). Runs may repeat a destination, be empty,
  /// or point at one vector (one encoding sent to many nodes). The bit
  /// vectors need only stay valid until this call returns.
  FlatInbox exchange_flat(std::span<const BitRun> runs);

  /// Allocation-free round fast path: round() semantics (at most one word
  /// per destination, no self-sends, costs exactly 1 round) with the same
  /// arena-backed return as exchange_flat().
  FlatInbox round_flat(std::span<const std::pair<NodeId, Word>> sends);

  /// Every node broadcasts `mine` to everyone; all broadcasts run in
  /// parallel. All nodes must pass bit vectors of the same length L
  /// (engine-checked); costs ⌈L/B⌉ rounds. Returns all n vectors.
  std::vector<BitVector> broadcast(const BitVector& mine);

  /// One-bit broadcast (1 round); returns everyone's bit.
  std::vector<bool> share_bit(bool mine);

  /// Global disjunction / conjunction of one bit per node (1 round each).
  bool any(bool mine);
  bool all(bool mine);

  // ---- output -------------------------------------------------------------
  /// Final output of this node. Must be called exactly once.
  void output(std::uint64_t value);
  /// Decision-problem convenience: output(accept ? 1 : 0).
  void decide(bool accept) { output(accept ? 1 : 0); }

  /// Rounds consumed so far (nodes legitimately know the round number).
  std::uint64_t rounds_so_far() const;

  // ---- observability ------------------------------------------------------
  /// True when this run records a RoundTrace. Span push/pop are no-ops when
  /// false, so CCQ_TRACE_SPAN can stay in node code unconditionally.
  bool tracing() const;
  /// Span-stack plumbing for TraceSpan / CCQ_TRACE_SPAN; `label` must
  /// outlive the scope (string literals do). Prefer the macro.
  void trace_push(const char* label);
  void trace_pop();

 private:
  friend class Engine;
  friend class BcastCtx;
  friend struct detail::EngineAccess;
  NodeCtx(NodeId id, detail::SharedState* st) : id_(id), st_(st) {}

  /// One round in which every node broadcasts `mine` (at most one word,
  /// possibly none) to every other node: round() semantics and trace op,
  /// but the plane stores each word once. Behind share_bit/any/all and
  /// BcastCtx::round; nodes may mix it with round_flat in one collective.
  FlatInbox round_broadcast(std::span<const Word> mine);

  NodeId id_;
  detail::SharedState* st_;
};

using NodeProgram = std::function<void(NodeCtx&)>;

/// RAII protocol-phase label (see clique/trace.hpp). While in scope, the
/// label is this node's innermost phase: collectives metered while node 0
/// is inside the span carry the label, and every node's span becomes a
/// per-node lane in the chrome export. Exception-safe — a ModelViolation
/// unwinding the node program closes the span at the abort coordinates.
/// No-op (one branch) when the run is untraced.
///
/// The span is anchored to a NodeCtx rather than a thread: pooled-backend
/// fibers migrate across OS threads between collectives, so thread-local
/// "current node" tracking would misattribute labels. Use the macro:
///
///   void my_protocol(NodeCtx& ctx) {
///     CCQ_TRACE_SPAN(ctx, "lenzen-phase1");
///     ...collectives...
///   }
class TraceSpan {
 public:
  TraceSpan(NodeCtx& ctx, const char* label) : ctx_(ctx) {
    ctx_.trace_push(label);
  }
  ~TraceSpan() { ctx_.trace_pop(); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  NodeCtx& ctx_;
};

#define CCQ_TRACE_CONCAT_IMPL(a, b) a##b
#define CCQ_TRACE_CONCAT(a, b) CCQ_TRACE_CONCAT_IMPL(a, b)
/// Labels the rest of the enclosing scope as protocol phase `label` for
/// node `ctx`. Nests; pay-for-what-you-use (one branch when untraced).
#define CCQ_TRACE_SPAN(ctx, label) \
  ::ccq::TraceSpan CCQ_TRACE_CONCAT(ccq_trace_span_, __LINE__)(ctx, label)

struct RunResult {
  std::vector<std::uint64_t> outputs;  ///< one value per node
  CostMeter cost;

  /// All nodes output 1 (the paper's "algorithm accepts").
  bool accepted() const {
    for (auto v : outputs)
      if (v != 1) return false;
    return !outputs.empty();
  }
  /// All nodes output 0 (the paper's "algorithm rejects").
  bool rejected() const {
    for (auto v : outputs)
      if (v != 0) return false;
    return !outputs.empty();
  }
};

class Engine {
 public:
  struct Config {
    unsigned bandwidth_multiplier = 1;
    std::uint64_t max_rounds = 1u << 24;  ///< runaway-algorithm guard
    std::uint64_t seed = 0x9a7cc1e5u;     ///< common public randomness
    /// Execution backend; results are bit-identical across backends.
    ExecutionBackend backend = ExecutionBackend::kPooled;
    /// Cap on the fiber team (0 = pool size). Values above n are rejected
    /// at run() entry (ModelViolation).
    std::size_t workers = 0;
    /// Per-collective recorder (clique/trace.hpp); nullptr falls back to
    /// the process-wide trace::global() (benches' --trace), and untraced
    /// when that is null too. A trace already recording another run is
    /// skipped (the run executes untraced) rather than interleaved.
    RoundTrace* trace = nullptr;
    /// Fault-injection plan (clique/chaos.hpp); nullptr runs fault-free.
    /// Attached the same way as `trace`: a plan already driving another
    /// run is skipped (this run executes fault-free) rather than shared.
    ChaosPlan* chaos = nullptr;
  };

  /// Execute `program` on `instance`. Throws ModelViolation on any model
  /// rule violation (bandwidth overflow, requested bandwidth beyond the
  /// 64-bit word limit, divergent collectives, missing output, round-limit
  /// overrun) and propagates program exceptions.
  static RunResult run(const Instance& instance, const NodeProgram& program,
                       const Config& config);
  static RunResult run(const Instance& instance, const NodeProgram& program) {
    return run(instance, program, Config{});
  }

  /// Convenience: unlabelled graph instance.
  static RunResult run(const Graph& g, const NodeProgram& program,
                       const Config& config) {
    return run(Instance::of(g), program, config);
  }
  static RunResult run(const Graph& g, const NodeProgram& program) {
    return run(Instance::of(g), program, Config{});
  }
};

/// A warm engine for repeated runs of one fixed *shape*. Engine::run
/// constructs a fresh scheduler and message plane per call; a session
/// constructs them once and re-initialises them per run, so the plane
/// arenas and counting-sort arrays carry over. Fiber stacks come from the
/// process-wide stack store for every run, session or not, and go back at
/// run end (DESIGN.md §12) — at a fixed n the steady state allocates and
/// maps nothing per run, and an idle session holds no stacks. Results are
/// bit-for-bit identical to Engine::run with the same config (pinned by
/// tests/clique/session_test.cpp); only wall-clock changes.
///
/// Per-run parameters (seed, max_rounds, trace, chaos) vary freely through
/// the config passed to run(); the shape-valued fields of that config must
/// equal the session's shape (ModelViolation otherwise — a mismatched
/// config means the caller keyed its session cache wrong). Sessions are
/// single-threaded: one run at a time, and run() must not be called from
/// inside a node program (nested simulation goes through Engine::run).
class EngineSession {
 public:
  /// The cache key: everything that sizes the warm objects.
  struct Shape {
    NodeId n = 0;
    unsigned bandwidth_multiplier = 1;
    ExecutionBackend backend = ExecutionBackend::kPooled;
    std::size_t workers = 0;  ///< cap on the fiber team (0 = pool size)

    bool operator==(const Shape&) const = default;
  };

  explicit EngineSession(const Shape& shape);
  ~EngineSession();
  EngineSession(const EngineSession&) = delete;
  EngineSession& operator=(const EngineSession&) = delete;

  /// Engine::run semantics on the warm scheduler + plane. The instance must
  /// have shape().n nodes and `config`'s shape fields must match shape().
  RunResult run(const Instance& instance, const NodeProgram& program,
                const Engine::Config& config);

  const Shape& shape() const { return shape_; }
  /// Completed (non-throwing) runs — the service's warm-hit telemetry.
  std::uint64_t runs_completed() const { return runs_; }

 private:
  Shape shape_;
  std::unique_ptr<detail::Scheduler> sched_;
  std::unique_ptr<detail::MessagePlane> plane_;
  std::uint64_t runs_ = 0;
};

}  // namespace ccq
