#pragma once

// Execution backends for the clique engine.
//
// The engine's unit of execution is the *superstep*: all n node programs
// run until they meet at the next collective, a single serial "leader"
// step validates the rendezvous and delivers messages, and everyone
// resumes. Two backends realise this contract:
//
//   * ExecutionBackend::kPooled — the default: node programs run as
//     cooperatively yielding fibers (stackful contexts) over a worker team
//     hosted on the shared ccq::ThreadPool. The calling thread creates all
//     n fibers; worker w of a W-worker team then resumes the fibers of the
//     contiguous id block [w·n/W, (w+1)·n/W) in id order each superstep,
//     and the team meets at a sense-reversing spin barrier between the
//     parallel (resume fibers) and serial (validate + deliver) phases
//     (DESIGN.md §12).
//
//   * ExecutionBackend::kThreadPerNode — the independent reference: one OS
//     thread per simulated node, rendezvoused through a mutex + condition
//     variable. Simple, but thread-creation and wakeup-storm overhead
//     dominates wall-clock once n reaches the hierarchy-bench sizes.
//
// Both backends produce bit-for-bit identical RunResults (outputs, rounds,
// messages, bits, per-node maxima) for any program and any team size —
// asserted by tests/clique/scheduler_test.cpp. Message delivery and cost
// accounting always happen in the serial leader step, iterating nodes in
// id order, so scheduling order can never leak into results.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/graph.hpp"

namespace ccq {

/// Which execution backend Engine::run uses (Engine::Config::backend).
enum class ExecutionBackend {
  kThreadPerNode,  ///< reference: one OS thread per simulated node
  kPooled,         ///< default: fibers in static id blocks over a worker team
};

/// Occupancy counters a scheduler accumulates when stats are enabled
/// (RoundTrace observability; see clique/trace.hpp). Monotonic over the
/// scheduler's lifetime, which spans every run of an EngineSession — the
/// engine snapshots them at run start and the trace diffs consecutive
/// snapshots per collective. All values are wall-clock/backend-shaped: they
/// are *not* covered by the determinism contract.
struct SchedulerStats {
  std::uint64_t fiber_switches = 0;   ///< node-fiber resumes (fiber backend)
  std::uint64_t parallel_jobs = 0;    ///< leader_parallel_for invocations
  std::uint64_t parallel_chunks = 0;  ///< chunks across those jobs
  std::uint64_t fresh_stacks = 0;     ///< fiber stacks mapped because the
                                      ///< stack store had none idle
};

namespace detail {

/// Where every fiber stack comes from (DESIGN.md §12): fixed-size stacks
/// mapped with mmap(MAP_NORESERVE), outside any malloc arena, and recycled
/// last-in first-out, so a run gets the stacks — and the faulted-in pages —
/// that the previous run gave back. A returned stack is unmapped only when
/// the idle list already holds `max_idle` stacks. Thread-safe: one lock
/// around the idle list; mmap and munmap run outside it.
class FiberStackStore {
 public:
  static constexpr std::size_t kStackBytes = 256 * 1024;
  /// The process-wide store's idle cap: the largest legal n, so a run of
  /// any size gives all its stacks back and the next one maps none.
  static constexpr std::size_t kProcessMaxIdle = 8192;

  explicit FiberStackStore(std::size_t max_idle) : max_idle_(max_idle) {}
  ~FiberStackStore();  // unmaps the idle stacks
  FiberStackStore(const FiberStackStore&) = delete;
  FiberStackStore& operator=(const FiberStackStore&) = delete;

  /// The store the fiber backend draws from (never destroyed, so a run
  /// still finishing on another thread at exit can give its stacks back).
  static FiberStackStore& process();

  /// Appends `count` stacks to *out, most recently returned first, and
  /// maps the ones the idle list cannot supply. Returns how many it
  /// mapped. If a mapping fails, the stacks taken so far go back and
  /// std::bad_alloc is thrown.
  std::size_t take(std::size_t count, std::vector<char*>* out);
  /// Returns stacks from take(); the reverse push makes a take of the same
  /// count hand them out in the same order.
  void give_back(const std::vector<char*>& stacks);
  std::size_t idle() const;

 private:
  const std::size_t max_idle_;
  mutable std::mutex mu_;
  std::vector<char*> idle_;  // top of the LIFO at the back
};

// Thrown into node programs to unwind them after another node failed (or a
// model rule was violated); never escapes Scheduler::run.
struct Aborted {};

// Identifies a collective operation for divergence checking.
struct OpTag {
  int opcode = 0;
  std::uint64_t param = 0;
  bool operator==(const OpTag& o) const {
    return opcode == o.opcode && param == o.param;
  }
};

// Runs n node bodies to completion, rendezvousing them at collectives.
//
// Contract (identical across backends; the determinism suite asserts it):
//   * run(n, body) invokes body(v) exactly once for every v in [0, n) and
//     returns once every body has unwound; the first captured error (a body
//     exception, a leader exception, or a divergence ModelViolation) is
//     rethrown.
//   * collective(id, tag, deposit, leader) may only be called from inside
//     body(id). deposit() runs immediately and may touch only node-owned
//     slots. Once all n nodes have arrived with equal tags, leader() runs
//     exactly once, serially, with every deposit visible; afterwards all
//     nodes resume with the leader's writes visible. Unequal tags, or a
//     body returning while others sit inside a collective, abort the run
//     with a ModelViolation.
//   * after an abort, nodes parked in collectives are resumed with Aborted
//     so their stacks unwind; Aborted itself never escapes run().
class Scheduler {
 public:
  using NodeBody = std::function<void(NodeId)>;
  using Thunk = std::function<void()>;
  using ChunkFn = std::function<void(std::size_t)>;

  virtual ~Scheduler() = default;

  virtual void run(NodeId n, const NodeBody& body) = 0;
  virtual void collective(NodeId id, OpTag tag, const Thunk& deposit,
                          const Thunk& leader) = 0;

  // Run fn(chunk) for every chunk in [0, chunks), possibly in parallel.
  // May only be called from inside a leader() thunk: the fiber backend
  // hands chunks to the workers spinning at the superstep barrier, so the
  // serial phase scales with cores instead of running leader-only. Each
  // chunk must write only chunk-owned data (the message plane partitions
  // by node id), which makes the result schedule-independent by
  // construction. The default implementation runs chunks serially in
  // index order — the reference semantics every backend must match.
  virtual void leader_parallel_for(std::size_t chunks, const ChunkFn& fn) {
    count_job(chunks);
    for (std::size_t i = 0; i < chunks; ++i) fn(i);
  }

  /// Occupancy accounting for the round trace. Off by default: with stats
  /// disabled the counters cost one branch per fiber resume / leader job
  /// and nothing per deposited word. Engine::run enables them only when a
  /// RoundTrace is attached.
  void enable_stats(bool on) { stats_on_ = on; }
  bool stats_enabled() const { return stats_on_; }
  SchedulerStats stats() const {
    SchedulerStats s;
    s.fiber_switches = fiber_switches_.load(std::memory_order_relaxed);
    s.parallel_jobs = parallel_jobs_;
    s.parallel_chunks = parallel_chunks_;
    s.fresh_stacks = fresh_stacks_;
    return s;
  }

 protected:
  // Job/chunk counters are leader-owned (serial phase); the fiber-switch
  // counter is bumped by whichever worker resumes a fiber, so it is the one
  // atomic (relaxed — it is a telemetry tally, not a synchronisation edge).
  void count_job(std::size_t chunks) {
    if (stats_on_) {
      parallel_jobs_ += 1;
      parallel_chunks_ += chunks;
    }
  }
  void count_switch() {
    if (stats_on_) {
      fiber_switches_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Caller-owned, like the job counters: stacks are taken before the team
  // starts.
  void count_fresh_stacks(std::size_t stacks) {
    if (stats_on_) fresh_stacks_ += stacks;
  }

 private:
  bool stats_on_ = false;
  std::atomic<std::uint64_t> fiber_switches_{0};
  std::uint64_t parallel_jobs_ = 0;
  std::uint64_t parallel_chunks_ = 0;
  std::uint64_t fresh_stacks_ = 0;
};

/// Backend factory. `workers` caps the fiber team (0 = pool size; the team
/// is min(pool size, cap, n)); the thread-per-node backend ignores it.
/// Fiber stacks are a fixed 256 KiB from FiberStackStore::process(), taken
/// at run start and given back at run end, so a scheduler between runs
/// holds none. Value validation (workers ≤ n) is Engine::run's job — the
/// factory only wires the backend.
std::unique_ptr<Scheduler> make_scheduler(ExecutionBackend backend,
                                          std::size_t workers);

/// True when the calling thread is currently executing a scheduler fiber.
/// Engine::run uses this to route nested runs (a node program that itself
/// simulates a clique) to the thread-per-node backend instead of
/// deadlocking the shared worker pool.
bool on_scheduler_fiber();

}  // namespace detail
}  // namespace ccq
