// Scenario-matrix sweep driver (DESIGN.md §14, EXPERIMENTS.md).
//
// Reads a declarative manifest describing a {algorithm} × {graph family} ×
// {n} × {backend} × {workers} × {chaos on/off} grid, runs every expanded
// cell through the engine traced and untraced, cross-checks each cell's
// CostMeter against its trace ledger, and writes one machine-readable
// BENCH_*.json. tools/check_trajectory.py compares that file against the
// committed baseline: a regression of any deterministic field, or a
// wall-clock regression beyond tolerance, fails CI.
//
// Every correctness gate is always on: a cell whose ledger does not
// reproduce its meter, whose runs disagree (traced vs untraced, or across
// trials), or whose run throws, names itself; so does any pair of cells
// that differ only in backend and workers yet disagree on outputs, faults,
// meters or trace ledger. The bench then exits non-zero without writing its
// JSON — a broken cell can never be committed as a baseline.
//
// Usage: bench_matrix [--manifest=PATH] [--out=PATH] [--trials=N] [--check]
//   --manifest=PATH  manifest to run (default bench/manifests/default.json;
//                    run from the repo root)
//   --out=PATH       output JSON (default BENCH_matrix.json). CI writes to
//                    BENCH_matrix.current.json so the committed baseline
//                    stays intact for the trajectory comparison.
//   --trials=N       override the manifest's trials count
//   --check          CI smoke mode: additionally rerun every cell at a
//                    different worker count and fail unless outputs,
//                    meters and ledger are bit-identical (the engine's
//                    cross-team determinism contract, per cell), and fail
//                    any cell whose tracing overhead is out of bounds
//                    (harness::check_trace_overhead)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "bench_json.hpp"
#include "harness/manifest.hpp"
#include "harness/sweep.hpp"
#include "util/table.hpp"

using namespace ccq;

namespace {

int run(const std::string& manifest_path, const std::string& out_path,
        int trials_override, bool check) {
  harness::Manifest manifest;
  try {
    manifest = harness::load_manifest(manifest_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_matrix: %s\n", e.what());
    return 1;
  }
  const int trials =
      trials_override > 0 ? trials_override : manifest.trials;
  std::printf(
      "Scenario matrix '%s': %zu cell(s), best of %d trial(s)%s\n"
      "(meter == trace ledger and traced == untraced asserted per cell)\n\n",
      manifest.name.c_str(), manifest.cells.size(), trials,
      check ? ", worker-determinism and tracing-overhead gates on" : "");

  Table table({"cell", "rounds", "messages", "bits", "wall ms",
               "untraced ms", "faults"});
  std::vector<harness::CellResult> results;
  bool all_ok = true;
  auto fail = [&](const std::string& id, const std::string& why) {
    std::fprintf(stderr, "FATAL: cell %s: %s\n", id.c_str(), why.c_str());
    all_ok = false;
  };
  for (const harness::CellSpec& spec : manifest.cells) {
    harness::CellResult r;
    try {
      r = harness::run_cell(spec, trials);
    } catch (const std::exception& e) {
      fail(spec.id(), e.what());
      return 1;
    }
    if (!r.ok) {
      fail(spec.id(), r.fail_reason);
      continue;
    }
    if (check) {
      std::string diag = harness::check_worker_determinism(spec);
      if (diag.empty()) diag = harness::check_trace_overhead(r);
      if (!diag.empty()) {
        fail(spec.id(), diag);
        continue;
      }
    }
    table.add_row({spec.id(), std::to_string(r.cost.rounds),
                   std::to_string(r.cost.messages),
                   std::to_string(r.cost.bits), Table::fmt(r.wall_ms, 2),
                   Table::fmt(r.untraced_ms, 2), std::to_string(r.faults)});
    results.push_back(std::move(r));
  }
  table.print();
  for (const std::string& diag : harness::check_equivalence(results)) {
    std::fprintf(stderr, "FATAL: %s\n", diag.c_str());
    all_ok = false;
  }
  if (!all_ok) {
    std::fprintf(stderr,
                 "\nbench_matrix: one or more cells FAILED; not writing %s\n",
                 out_path.c_str());
    return 1;
  }

  benchjson::Writer json;
  for (const harness::CellResult& r : results) {
    const harness::CellSpec& spec = r.spec;
    json.add({{"cell", spec.id()},
              {"manifest", manifest.name},
              {"algorithm", spec.algorithm},
              {"family", spec.family.name},
              {"n", spec.n},
              {"backend", harness::backend_name(spec.backend)},
              {"chaos", spec.chaos ? "on" : "off"},
              {"rounds", r.cost.rounds},
              {"messages", r.cost.messages},
              {"bits", r.cost.bits},
              {"collectives", r.cost.collectives},
              {"max_sent", r.cost.max_node_sent},
              {"max_received", r.cost.max_node_received},
              {"wall_ms", r.wall_ms},
              {"untraced_ms", r.untraced_ms},
              {"faults", r.faults},
              {"output_fp", harness::fp_hex(r.output_fp)},
              {"ledger_fp", harness::fp_hex(r.ledger_fp)}});
  }
  if (!json.write(out_path)) {
    std::fprintf(stderr, "bench_matrix: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu cells)\n", out_path.c_str(),
              manifest.cells.size());
  if (check)
    std::printf("CHECK OK: every cell ledger-consistent, "
                "worker-deterministic and within its tracing budget\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string manifest_path = "bench/manifests/default.json";
  std::string out_path = "BENCH_matrix.json";
  int trials = 0;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--manifest=", 11) == 0) {
      manifest_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--trials=", 9) == 0) {
      trials = static_cast<int>(benchargs::parse_uint(
          argv[0], "--trials", argv[i] + 9, 1, 100));
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--manifest=PATH] [--out=PATH] [--trials=N] "
                   "[--check]\n",
                   argv[0]);
      return 2;
    }
  }
  return run(manifest_path, out_path, trials, check);
}
