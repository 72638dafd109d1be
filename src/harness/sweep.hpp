#pragma once

// Scenario-matrix sweep runner (DESIGN.md §14).
//
// run_cell() executes one manifest cell end to end: instantiate the graph
// family, build the Engine::Config the cell names (backend, workers,
// bandwidth), and run the registered program twice per trial — once with a
// fresh RoundTrace attached, once untraced (each chaos run with a fresh
// ChaosPlan). Every traced run cross-checks its CostMeter against the
// trace ledger, and every run must reproduce the first run's outputs,
// meters and fault count. A cell failing any of these reports ok == false
// with a reason; bench_matrix exits non-zero on it, so a broken cell can
// never be committed as a baseline.
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
/// backend/worker count; ccqd results carry this so a service-side
/// ledger can be compared bit-for-bit against a library-path run.
std::uint64_t ledger_fingerprint(const RoundTrace& trace);

/// Exact CostMeter equality (every deterministic field).
bool meters_equal(const CostMeter& a, const CostMeter& b);

struct CellResult {
  CellSpec spec;
  bool ok = false;          ///< ledger cross-check + trial agreement
  std::string fail_reason;  ///< set when !ok
  CostMeter cost;           ///< deterministic across runs (asserted)
  double wall_ms = 0;       ///< traced runs, best of trials
  double untraced_ms = 0;   ///< untraced runs, best of trials
  std::uint64_t output_fp = 0;  ///< FNV-1a over the per-node outputs
  std::uint64_t faults = 0;     ///< chaos faults injected (0 when off)
};

/// Run one cell for `trials` repetitions (>= 1), each a traced and an
/// untraced run. Throws ModelViolation on unknown family/algorithm or
/// unloadable corpus file; engine-level violations surface as ok == false
/// with the exception text.
CellResult run_cell(const CellSpec& spec, int trials);

/// Determinism probe used by bench_matrix --check: rerun the cell at a
/// different worker count and require bit-identical outputs and meters.
/// Returns empty string on agreement, a diagnostic otherwise.
std::string check_worker_determinism(const CellSpec& spec);

/// Equivalence over the cells of one bench run. Any two cells whose specs
/// differ only in backend and workers must agree on output_fp, faults and
/// all six meters. Two chaos-off cells whose specs differ only in
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
