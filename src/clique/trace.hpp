#pragma once

// Round-trace observability (ccq::RoundTrace).
//
// The cost meter (clique/cost.hpp) is the paper's instrument — but it is an
// aggregate: it says *how many* rounds and bits a protocol spent, never
// *where*. The round trace is the per-collective ledger behind the meter:
// one TraceRecord per engine collective (the engine's metering quantum —
// a collective charges 1..k model rounds), carrying
//
//   * the rounds/messages/bits that collective contributed to the meter
//     (summing any field over records reproduces the CostMeter total
//     exactly — asserted by tests and by every bench run with --trace);
//   * per-node traffic shape: max words sent / received by any one node in
//     this collective, plus log₂-bucketed histograms of both distributions
//     (the quantities Lenzen-style routing arguments are stated in);
//   * bandwidth-cap utilisation: bits actually moved vs the model's
//     rounds · n(n−1) · B capacity for the rounds charged;
//   * protocol-phase labels from CCQ_TRACE_SPAN scopes in node code;
//   * observability-only scheduler/plane occupancy: delivery wall-time,
//     fiber switches, leader_parallel_for jobs/chunks.
//
// Determinism contract: every field above the "observability-only" line is
// a pure function of (program, instance, config.bandwidth_multiplier,
// seed) — identical across {kPooled, kThreadPerNode} backends and team
// sizes. deterministic_eq() compares exactly that subset; the occupancy
// fields are wall-clock / backend-shaped and excluded.
// tests/clique/trace_test.cpp pins the contract on randomized traffic.
//
// Cost contract: a compiled-in but *disabled* trace (Engine::Config::trace
// == nullptr and no global trace installed) costs one pointer test per
// collective on the leader path and one per span push/pop in node code —
// nothing per deposited word. All per-node scans and allocations happen
// only when a trace is attached. bench_matrix --check gates the enabled
// cost per cell (harness::check_trace_overhead).
//
// Exports: write_jsonl() (one self-describing JSON object per line; schema
// in DESIGN.md §9, carrying every field deterministic_eq reads) and
// write_chrome() (Trace Event Format, loadable in chrome://tracing /
// Perfetto: collectives on one lane per run, spans on one lane per node,
// 1 µs ≡ 1 model round). Nothing in the library reads either file back.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "clique/cost.hpp"
#include "graph/graph.hpp"

namespace ccq {

/// Log₂-bucketed distribution of a per-node word count. Bucket 0 counts
/// nodes with 0 words; bucket i ≥ 1 counts nodes with count in
/// [2^(i-1), 2^i); the last bucket absorbs everything larger.
struct TraceHistogram {
  static constexpr unsigned kBuckets = 20;
  std::array<std::uint32_t, kBuckets> bucket{};

  void add(std::uint64_t words) {
    unsigned b = 0;
    while (b + 1 < kBuckets && words != 0) {
      ++b;
      words >>= 1;
    }
    ++bucket[b];
  }
  std::uint64_t nodes() const {
    std::uint64_t s = 0;
    for (auto c : bucket) s += c;
    return s;
  }
  bool operator==(const TraceHistogram&) const = default;
};

/// One engine collective, as metered by the serial leader step.
struct TraceRecord {
  // -- identity -------------------------------------------------------------
  std::uint64_t run = 0;         ///< engine-run index within this trace
  std::uint64_t collective = 0;  ///< collective index within the run
  std::string op;                ///< "round" | "exchange" | "broadcast"
  std::string phase;  ///< innermost CCQ_TRACE_SPAN label on node 0 at
                      ///< deposit time ("" = unlabelled)

  // -- deterministic cost fields (the meter's ledger) -----------------------
  std::uint64_t round_begin = 0;  ///< rounds committed before this collective
  std::uint64_t rounds = 0;       ///< rounds this collective charged
  std::uint64_t messages = 0;     ///< non-self words delivered
  std::uint64_t bits = 0;         ///< their total bit width
  std::uint64_t max_sent = 0;     ///< max words sent by one node (self excl.)
  std::uint64_t max_received = 0;  ///< max words into one inbox (self excl.;
                                   ///< reported by the plane's stats scan)
  TraceHistogram sent_hist;      ///< per-node sent-word distribution
  TraceHistogram received_hist;  ///< per-node received-word distribution
  /// bits / (rounds · n(n−1) · B): fraction of the model's link capacity
  /// the charged rounds actually moved. 0 when rounds == 0 (free
  /// self-delivery collectives). Deterministic (pure function of ints).
  double cap_utilisation = 0;

  // -- observability-only fields (wall-clock / backend-shaped; excluded
  //    from deterministic_eq) ----------------------------------------------
  double delivery_ms = 0;  ///< wall time inside MessagePlane::deliver
  std::uint64_t fiber_switches = 0;   ///< node resumes since the previous
                                      ///< record (fiber backend; 0 on
                                      ///< thread-per-node)
  std::uint64_t parallel_jobs = 0;    ///< leader_parallel_for fan-outs
  std::uint64_t parallel_chunks = 0;  ///< chunks across those jobs

  bool deterministic_eq(const TraceRecord& o) const {
    return run == o.run && collective == o.collective && op == o.op &&
           phase == o.phase && round_begin == o.round_begin &&
           rounds == o.rounds && messages == o.messages && bits == o.bits &&
           max_sent == o.max_sent && max_received == o.max_received &&
           sent_hist == o.sent_hist && received_hist == o.received_hist &&
           cap_utilisation == o.cap_utilisation;
  }
};

/// One closed CCQ_TRACE_SPAN scope. Coordinates are (collective index,
/// committed rounds) at push/pop — deterministic across backends. A span
/// closed by exception unwinding (e.g. ModelViolation aborting the run) is
/// recorded like any other; the trace never holds open spans after a run.
struct TraceSpanEvent {
  std::uint64_t run = 0;
  NodeId node = 0;
  std::string label;
  unsigned depth = 0;  ///< nesting depth at push (0 = outermost)
  std::uint64_t begin_collective = 0, begin_round = 0;
  std::uint64_t end_collective = 0, end_round = 0;

  bool deterministic_eq(const TraceSpanEvent& o) const {
    return run == o.run && node == o.node && label == o.label &&
           depth == o.depth && begin_collective == o.begin_collective &&
           begin_round == o.begin_round && end_collective == o.end_collective &&
           end_round == o.end_round;
  }
};

/// Aggregated ledger for one phase label across a whole trace.
struct PhaseTotals {
  std::uint64_t collectives = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
};

/// Per-run metadata kept alongside the records.
struct TraceRunInfo {
  NodeId n = 0;
  unsigned bandwidth = 1;
  std::uint64_t round_offset = 0;  ///< chrome-timeline start of this run
  std::uint64_t rounds = 0;        ///< final metered rounds of this run
  /// Fiber stacks this run had to map because the stack store had none
  /// idle (0 on thread-per-node). Observability-only, like fiber_switches:
  /// deterministic_eq and the harness's ledger fingerprint ignore it.
  std::uint64_t fresh_stacks = 0;
};

/// Per-collective recorder attached to Engine::run via
/// Engine::Config::trace (one run at a time) or installed process-wide
/// with trace::set_global (benches' --trace flag). Records accumulate
/// across runs until clear().
class RoundTrace {
 public:
  // ---- recorded data ------------------------------------------------------
  const std::vector<TraceRecord>& records() const { return records_; }
  const std::vector<TraceSpanEvent>& spans() const { return spans_; }
  const std::vector<TraceRunInfo>& run_info() const { return runs_info_; }
  std::uint64_t runs() const { return runs_info_.size(); }
  /// Sum of the final CostMeters of every traced run (totals accumulate,
  /// per-node maxima compose by max — CostMeter::add semantics).
  const CostMeter& metered_totals() const { return metered_; }

  /// Ledger check: records().rounds/messages/bits summed over all records
  /// must equal metered_totals() exactly. False means the trace missed a
  /// collective — a bug, never a rounding artefact.
  bool totals_match() const;
  /// Per-phase breakdown ("" renamed "unlabelled"); summing any field over
  /// the map reproduces the corresponding metered total.
  std::map<std::string, PhaseTotals> phase_totals() const;

  /// Deterministic-field equality with another trace (see header comment).
  bool deterministic_eq(const RoundTrace& o) const;

  // ---- export -------------------------------------------------------------
  /// JSONL: line 1 a {"type":"trace"} header, then one {"type":"run"|
  /// "collective"|"span"} object per line (schema documented in DESIGN.md
  /// §9). Returns false if the file cannot be written.
  bool write_jsonl(const std::string& path) const;
  /// Chrome Trace Event Format (chrome://tracing, Perfetto). One process
  /// per run; collectives on tid 0, node spans on tid node+1; 1 µs ≡ 1
  /// model round. Runs are laid out back to back on the timeline.
  bool write_chrome(const std::string& path) const;

  void clear();

  // ---- engine-side hooks (called by Engine internals; not user API) -------
  /// Claim this trace for one run. Returns false when another run holds it
  /// (e.g. a nested Engine::run with the same global trace installed) —
  /// the engine then runs untraced rather than interleaving two runs.
  bool try_acquire();
  void on_run_begin(NodeId n, unsigned bandwidth);
  /// Leader step, once per collective, straight after plane delivery.
  void on_collective(TraceRecord&& rec);
  /// Leader step, straight after the rounds for the last collective are
  /// known (finalises rounds / round_begin / cap_utilisation).
  void on_rounds_charged(std::uint64_t round_begin, std::uint64_t rounds);
  /// Node-owned span stack ops (only node `id`'s fiber touches slot `id`).
  void node_push(NodeId id, const char* label, std::uint64_t collective,
                 std::uint64_t round);
  void node_pop(NodeId id, std::uint64_t collective, std::uint64_t round);
  /// Innermost open label on `id`'s stack ("" when empty). Leader-only.
  const std::string& current_phase(NodeId id) const;
  /// End of run (normal or aborting): closes surviving open spans at the
  /// final (collective, round) coordinates, folds `cost` into
  /// metered_totals, records the run's freshly mapped fiber stacks,
  /// flushes per-node span buffers in node-id order, and releases the
  /// acquire.
  void on_run_end(const CostMeter& cost, std::uint64_t fresh_stacks);

 private:
  struct NodeSpanState {
    std::vector<std::string> stack;            // open labels, outermost first
    std::vector<TraceSpanEvent> open;          // parallel to stack
    std::vector<TraceSpanEvent> closed;        // node-owned until run end
  };

  std::vector<TraceRecord> records_;
  std::vector<TraceSpanEvent> spans_;
  std::vector<TraceRunInfo> runs_info_;
  CostMeter metered_;
  // Current-run state (valid between on_run_begin / on_run_end).
  std::uint64_t cur_collective_ = 0;
  std::vector<NodeSpanState> node_spans_;
  std::atomic<bool> active_{false};  // one engine run at a time
};

namespace trace {
/// Install (or clear, with nullptr) the process-wide default trace:
/// Engine::run attaches it whenever Config::trace is null. Used by the
/// benches' --trace flag so every run in the process lands in one
/// timeline. Not thread-safe against concurrent Engine::runs: a run that
/// fails try_acquire (the trace is already recording another run) simply
/// runs untraced.
void set_global(RoundTrace* t);
RoundTrace* global();
}  // namespace trace

}  // namespace ccq
