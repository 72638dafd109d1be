#pragma once

// Scenario-matrix sweep runner (DESIGN.md §14).
//
// This is the one place a cell is run and checked. cell_instance() builds
// the cell's graph family, and run_traced() makes one traced run of it
// under the Engine::Config the cell names (backend, workers, bandwidth),
// with a fresh ChaosPlan for a chaos cell, and cross-checks the run's
// CostMeter against the trace ledger. ccqd runs each job with run_traced()
// on a leased EngineSession.
// run_cell() builds the instance once and runs the program twice per trial
// — once traced, once untraced — and every run must reproduce the first
// run's outputs, meters and fault count, every traced run its ledger too.
// A cell failing any of these reports ok == false with a reason;
// bench_matrix exits non-zero on it, so a broken cell can never be
// committed as a baseline.
//
// Programs are registered by name in two tables, algorithm_names() and
// manifest_only_names(), and depend only on the instance, so every cell is
// a pure function of its CellSpec. The registry also records which
// programs compute the same product by different schedules (the MM
// squarings), which check_equivalence holds to equal outputs.

#include <cstdint>
#include <string>
#include <vector>

#include "clique/chaos.hpp"
#include "clique/cost.hpp"
#include "clique/trace.hpp"
#include "harness/manifest.hpp"

namespace ccq::harness {

/// Registered sweep algorithms, the ccqd job surface: routing_direct,
/// routing_balanced, broadcast_adj, mm_bool_3d, triangle_mm.
const std::vector<std::string>& algorithm_names();

/// Manifest-only programs: the engine loads exchange_skewed,
/// routing_uniform and ring_rounds, and the squarings mm_bool_naive,
/// mm_bool_sparse, mm_minplus_naive, mm_minplus_3d and mm_minplus_sparse.
const std::vector<std::string>& manifest_only_names();

/// Resolve a program of either table by name (ModelViolation if unknown).
NodeProgram find_algorithm(const std::string& name);

/// The Engine::Config a cell names: backend, workers (clamped to n),
/// bandwidth, and the cell-derived engine seed (a manifest-only program
/// keeps the engine's default seed). trace/chaos are left null — callers attach per-run
/// instruments.
Engine::Config cell_engine_config(const CellSpec& spec);

/// The cell's deterministic fault schedule (seeded from the cell seed).
ChaosPlan::Config cell_chaos_config(const CellSpec& spec);

/// FNV-1a over the per-node outputs — the cross-run output join key.
std::uint64_t outputs_fp(const std::vector<std::uint64_t>& outputs);

/// FNV-1a over the deterministic fields of every trace record, in ledger
/// order. Two runs of the same cell must produce equal fingerprints on any
/// backend/worker count; matrix rows and ccqd results carry it, so a
/// service-side ledger can be compared bit-for-bit against a library run.
std::uint64_t ledger_fingerprint(const RoundTrace& trace);

/// Exact CostMeter equality (every deterministic field).
bool meters_equal(const CostMeter& a, const CostMeter& b);

/// 16 lowercase hex digits: how rows and ccqd results carry a fingerprint.
std::string fp_hex(std::uint64_t fp);

struct CellResult {
  CellSpec spec;
  bool ok = false;          ///< ledger cross-check + trial agreement
  std::string fail_reason;  ///< set when !ok
  CostMeter cost;           ///< deterministic across runs (asserted)
  double wall_ms = 0;       ///< traced runs, best of trials (engine run only)
  double untraced_ms = 0;   ///< untraced runs, best of trials
  std::uint64_t output_fp = 0;  ///< FNV-1a over the per-node outputs
  std::uint64_t ledger_fp = 0;  ///< ledger_fingerprint of the traced runs
  std::uint64_t faults = 0;     ///< chaos faults injected (0 when off)
};

/// The cell's family graph. Throws ModelViolation for unknown families or
/// unloadable corpus files.
Instance cell_instance(const CellSpec& spec);

/// One traced run of the cell on `instance` (cell_instance(spec)): on
/// `session` when given (its shape must be the cell's), else on a fresh
/// Engine::run. The trace ledger must reproduce the run's meter. wall_ms
/// covers the engine run only; untraced_ms stays 0. Throws ModelViolation
/// on an unknown algorithm; engine-level failures surface as ok == false.
CellResult run_traced(const CellSpec& spec, const Instance& instance,
                      EngineSession* session = nullptr);

/// Run one cell for `trials` repetitions (>= 1), each a traced and an
/// untraced run on one instance. Throws ModelViolation on unknown
/// family/algorithm or unloadable corpus file; engine-level violations
/// surface as ok == false with the exception text.
CellResult run_cell(const CellSpec& spec, int trials);

/// Determinism probe used by bench_matrix --check: rerun the cell at a
/// different worker count and require bit-identical outputs, meters and
/// trace ledger.
/// Returns empty string on agreement, a diagnostic otherwise.
std::string check_worker_determinism(const CellSpec& spec);

/// Equivalence over the cells of one bench run. Any two cells whose specs
/// differ only in backend and workers must agree on output_fp, faults, all
/// six meters and ledger_fp. Two chaos-off cells whose specs differ only in
/// algorithm (and backend and workers), where both programs compute the
/// same product, must agree on output_fp; their meters may differ. Returns
/// one diagnostic per cell and rule that disagrees with the first cell of
/// its group, naming both ids.
std::vector<std::string> check_equivalence(
    const std::vector<CellResult>& results);

/// bench_matrix --check's tracing-overhead gate: a diagnostic when the
/// untraced best is at least 2 ms and the traced best exceeds 1.5 times
/// it, else "". Faster cells are below what best-of-k can resolve.
std::string check_trace_overhead(const CellResult& r);

}  // namespace ccq::harness
