// Sparse distributed MM — nnz-proportional communication (DESIGN.md §13).
//
// Sweeps density ∈ {0.1%, 1%, 10%, dense} at n ∈ {256, 512, 1024} and
// measures the nonzero-block schedule (mm_distributed_sparse) against the
// dense 3-D baseline (mm_distributed_3d) and the naive broadcast. Every
// result row of every algorithm is verified bit-for-bit against
// mm_distributed_naive — the schedules fold contributions identically, so
// any difference is a protocol bug and the bench exits non-zero, in or out
// of --check mode.
//
// The headline acceptance number: at 1% density the sparse schedule must
// move ≥5× fewer bits than the dense 3-D baseline for n ≥ 512 (≥2× at
// n = 256, where descriptor overhead is proportionally larger), and sparse
// bits must grow monotonically with density. Violations are fatal.
//
// A second, purely local table compares the SpGEMM kernels themselves
// (serial Gustavson and its pool-parallel sharding) at one density — this
// is the compute that Step B of the sparse schedule runs on the
// centralized callers. Every parallel result is verified CSR-for-CSR
// against the serial kernel (and the serial kernel against mm_naive at
// n ≤ 512) before any time is reported.
//
// Usage: bench_mm_sparse [--n=N] [--density=D] [--out=PATH] [--check]
//                        [--trace=PATH]
//   --n=N       run a single clique size instead of the default sweep
//   --density=D density for the local SpGEMM kernel table (default 0.1;
//               the distributed sweep always runs its fixed density grid)
//   --check     CI smoke mode (same gates, smaller default is advised:
//               bench_mm_sparse --n=256 --check); additionally requires
//               pool-parallel SpGEMM ≥ 1.7x over serial at n ≥ 512 and
//               density ≥ 0.1 when the kernel pool has > 1 workers (the
//               issue's 2x target with a 15% noise margin; printed as
//               skipped on single-core hosts)
//   --out=PATH  output JSON (default BENCH_mm_sparse.json). CI writes to
//               BENCH_mm_sparse.current.json and gates it against the
//               committed file with tools/check_trajectory.py --mm-sparse.
//   --trace=PATH  record a round trace of every run (chrome://tracing)
//
// Writes {n, density, semiring, nnz, algo, rounds, messages, bits, wall_ms}
// per distributed row and {n, density, semiring, kernel, wall_ms, speedup}
// per local-kernel row.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "algebra/distributed_mm.hpp"
#include "algebra/kernels.hpp"
#include "algebra/simd.hpp"
#include "algebra/sparse.hpp"
#include "bench_args.hpp"
#include "bench_json.hpp"
#include "graph/generators.hpp"
#include "graphalg/common.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace ccq;

namespace {

benchjson::Writer g_json;

enum class Algo { kNaive, kDense3d, kSparse };

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kNaive:
      return "naive";
    case Algo::kDense3d:
      return "dense-3d";
    case Algo::kSparse:
      return "sparse";
  }
  return "?";
}

// Node `v`'s input rows for the (n, density, seed) instance — regenerated
// identically inside every algorithm run and by the nnz accountant below.
template <Semiring S>
void instance_rows(NodeId v, NodeId n, double density, std::uint64_t seed,
                   std::uint64_t max_val,
                   std::vector<typename S::Value>& ra,
                   std::vector<typename S::Value>& rb) {
  SplitMix64 rng(seed ^ (v * 0x9e3779b97f4a7c15ULL));
  ra.assign(n, S::zero());
  rb.assign(n, S::zero());
  for (NodeId j = 0; j < n; ++j)
    if (rng.next_bool(density))
      ra[j] = static_cast<typename S::Value>(rng.next_below(max_val));
  for (NodeId j = 0; j < n; ++j)
    if (rng.next_bool(density))
      rb[j] = static_cast<typename S::Value>(rng.next_below(max_val));
}

template <Semiring S>
struct Cell {
  CostMeter cost;
  double ms = 0;
  std::vector<std::vector<typename S::Value>> rows;
};

template <Semiring S>
Cell<S> run_algo(NodeId n, double density, std::uint64_t seed,
                 std::uint64_t max_val, unsigned entry_bits, Algo algo) {
  using V = typename S::Value;
  PerNode<std::vector<V>> sink(n);
  const auto t0 = std::chrono::steady_clock::now();
  auto res = Engine::run(gen::empty(n), [&](NodeCtx& ctx) {
    std::vector<V> ra, rb;
    instance_rows<S>(ctx.id(), ctx.n(), density, seed, max_val, ra, rb);
    std::vector<V> rc;
    switch (algo) {
      case Algo::kNaive:
        rc = mm_distributed_naive<S>(ctx, ra, rb, entry_bits);
        break;
      case Algo::kDense3d:
        rc = mm_distributed_3d<S>(ctx, ra, rb, entry_bits);
        break;
      case Algo::kSparse:
        rc = mm_distributed_sparse<S>(ctx, MmShape{ctx.n(), ctx.n(), ctx.n()},
                                      ra, rb, entry_bits);
        break;
    }
    sink.set(ctx.id(), rc);
    ctx.output(static_cast<std::uint64_t>(rc[0]) & 0x3f);
  });
  const auto t1 = std::chrono::steady_clock::now();
  Cell<S> cell;
  cell.cost = res.cost;
  cell.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  cell.rows = sink.take();
  return cell;
}

// nnz of the A input (the quantity the sparse schedule's bits track).
template <Semiring S>
std::uint64_t instance_nnz(NodeId n, double density, std::uint64_t seed,
                           std::uint64_t max_val) {
  using V = typename S::Value;
  std::uint64_t nnz = 0;
  std::vector<V> ra, rb;
  for (NodeId v = 0; v < n; ++v) {
    instance_rows<S>(v, n, density, seed, max_val, ra, rb);
    for (const V& x : ra) nnz += x != S::zero() ? 1 : 0;
  }
  return nnz;
}

bool g_gates_ok = true;

template <Semiring S>
void sweep(const char* semiring, NodeId n, unsigned entry_bits,
           std::uint64_t max_val, std::uint64_t seed) {
  const double densities[] = {0.001, 0.01, 0.1, 1.0};
  std::printf("\n%s MM, n = %u (every row verified against naive):\n",
              semiring, n);
  Table t({"density", "nnz(A)", "naive bits", "3-D bits", "sparse bits",
           "3-D/sparse", "rounds sp"});
  std::uint64_t prev_sparse_bits = 0;
  for (double d : densities) {
    const auto naive = run_algo<S>(n, d, seed, max_val, entry_bits,
                                   Algo::kNaive);
    const auto dense3d = run_algo<S>(n, d, seed, max_val, entry_bits,
                                     Algo::kDense3d);
    const auto sparse = run_algo<S>(n, d, seed, max_val, entry_bits,
                                    Algo::kSparse);
    if (dense3d.rows != naive.rows || sparse.rows != naive.rows) {
      std::printf("FATAL: result rows diverge from naive at n=%u d=%g\n", n,
                  d);
      std::exit(1);
    }
    const std::uint64_t nnz = instance_nnz<S>(n, d, seed, max_val);
    const double ratio = sparse.cost.bits == 0
                             ? 0.0
                             : static_cast<double>(dense3d.cost.bits) /
                                   static_cast<double>(sparse.cost.bits);
    for (const auto* cell : {&naive, &dense3d, &sparse}) {
      const Algo a = cell == &naive
                         ? Algo::kNaive
                         : (cell == &dense3d ? Algo::kDense3d : Algo::kSparse);
      g_json.add({{"n", n},
                  {"density", d},
                  {"semiring", semiring},
                  {"nnz", nnz},
                  {"algo", algo_name(a)},
                  {"rounds", cell->cost.rounds},
                  {"messages", cell->cost.messages},
                  {"bits", cell->cost.bits},
                  {"wall_ms", cell->ms}});
    }
    t.add_row({Table::fmt(d, 3), std::to_string(nnz),
               std::to_string(naive.cost.bits),
               std::to_string(dense3d.cost.bits),
               std::to_string(sparse.cost.bits), Table::fmt(ratio, 1),
               std::to_string(sparse.cost.rounds)});

    // Gates: bits ∝ nnz means monotone in density, and the 1% column must
    // beat the dense 3-D baseline by the acceptance margin.
    if (sparse.cost.bits < prev_sparse_bits) {
      std::printf("GATE FAILED: sparse bits not monotone in density at "
                  "n=%u d=%g\n",
                  n, d);
      g_gates_ok = false;
    }
    prev_sparse_bits = sparse.cost.bits;
    if (d == 0.01) {
      const double need = n >= 512 ? 5.0 : 2.0;
      if (ratio < need) {
        std::printf("GATE FAILED: 3-D/sparse bits ratio %.2f < %.1f at "
                    "n=%u, 1%% density\n",
                    ratio, need, n);
        g_gates_ok = false;
      }
    }
  }
  t.print();
}

// ---- local SpGEMM kernel comparison ---------------------------------------

template <typename Fn>
double time_best_ms(int trials, Fn&& fn) {
  double best = 0;
  for (int t = 0; t < trials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (t == 0 || ms < best) best = ms;
  }
  return best;
}

Matrix<std::uint64_t> random_minplus_dense(std::size_t n, double density,
                                           std::uint64_t seed) {
  SplitMix64 rng(seed);
  Matrix<std::uint64_t> m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      m.at(i, j) = rng.next_bool(density) ? rng.next_below(100000)
                                          : MinPlusSemiring::infinity();
  return m;
}

// One timed SpGEMM kernel row: best-of-`trials`, CSR-for-CSR equal to the
// serial kernel's output or the bench dies.
template <typename Fn>
double spgemm_row(NodeId n, double density, const char* kernel, int trials,
                  const SparseMatrix<std::uint64_t>& expect, double serial_ms,
                  Fn&& fn) {
  SparseMatrix<std::uint64_t> got;
  const double ms = time_best_ms(trials, [&] { got = fn(); });
  if (!(got == expect)) {
    std::printf("FATAL: SpGEMM kernel %s disagrees with serial spgemm at "
                "n=%u d=%g\n",
                kernel, n, density);
    std::exit(1);
  }
  g_json.add({{"n", n},
              {"density", density},
              {"semiring", "minplus"},
              {"kernel", kernel},
              {"wall_ms", ms},
              {"speedup", ms > 0 ? serial_ms / ms : 1.0}});
  return ms;
}

// The local kernels behind Step B of the sparse schedule (and spgemm_auto
// on any centralized caller). Node programs run on scheduler fibers where
// the pool is unavailable, so this table is about the *centralized* users
// of the sparse kernels — the determinism contract (bit-identical output
// for every worker count) is what makes routing them to the pool safe.
void spgemm_kernel_table(const std::vector<NodeId>& sizes, double density,
                         bool check) {
  const std::size_t workers = kernels::pool().size();
  std::printf("\nLocal (min,+) SpGEMM kernels at density %g (pool: %zu "
              "worker(s), SIMD %s;\nthe parallel kernel shards rows over the "
              "pool, output bit-identical to serial):\n\n",
              density, workers, simd::level_name(simd::active()));
  Table t({"n", "serial ms", "parallel ms", "serial/parallel"});
  for (NodeId n : sizes) {
    const auto da = random_minplus_dense(n, density, 0x5b9 + n);
    const auto db = random_minplus_dense(n, density, 0x5ca + n);
    const auto a = SparseMatrix<std::uint64_t>::from_dense<MinPlusSemiring>(da);
    const auto b = SparseMatrix<std::uint64_t>::from_dense<MinPlusSemiring>(db);
    const int trials = 3;

    SparseMatrix<std::uint64_t> expect;
    const double serial_ms = time_best_ms(
        trials, [&] { expect = kernels::spgemm<MinPlusSemiring>(a, b); });
    if (n <= 512 &&
        !(expect.to_dense<MinPlusSemiring>() ==
          mm_naive<MinPlusSemiring>(da, db))) {
      std::printf("FATAL: serial spgemm disagrees with mm_naive at n=%u\n",
                  n);
      std::exit(1);
    }
    g_json.add({{"n", n},
                {"density", density},
                {"semiring", "minplus"},
                {"kernel", "spgemm_serial"},
                {"wall_ms", serial_ms},
                {"speedup", 1.0}});
    const double parallel_ms =
        spgemm_row(n, density, "spgemm_parallel", trials, expect, serial_ms,
                   [&] { return kernels::spgemm_parallel<MinPlusSemiring>(a, b); });
    t.add_row({std::to_string(n), Table::fmt(serial_ms, 2),
               Table::fmt(parallel_ms, 2),
               Table::fmt(parallel_ms > 0 ? serial_ms / parallel_ms : 1.0,
                          1) +
                   "x"});

    // Parallel-speedup gate: the issue's 2x target at n ≥ 512, 10%
    // density, with the 15% noise tolerance → 1.7. A 1-worker pool cannot
    // speed anything up, so the gate only applies on multi-core hosts (CI
    // runners have ≥ 2; the determinism checks above still ran).
    if (check && n >= 512 && density >= 0.1) {
      if (workers <= 1) {
        std::printf("  gate: parallel speedup check skipped (single-core "
                    "host, pool=%zu)\n",
                    workers);
      } else if (serial_ms < 1.7 * parallel_ms) {
        std::printf("GATE FAILED: parallel SpGEMM speedup %.2f < 1.7x over "
                    "serial at n=%u d=%g (pool=%zu)\n",
                    parallel_ms > 0 ? serial_ms / parallel_ms : 0.0, n,
                    density, workers);
        g_gates_ok = false;
      }
    }
  }
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  benchjson::TraceSession trace_session(&argc, argv);
  std::vector<NodeId> sizes = {256, 512, 1024};
  std::string out_path = "BENCH_mm_sparse.json";
  bool check = false;
  double kernel_density = 0.1;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = benchargs::flag_value(argv[i], "--n")) {
      sizes = {static_cast<NodeId>(
          benchargs::parse_uint(argv[0], "--n", v, 1, 8192))};
    } else if (const char* d = benchargs::flag_value(argv[i], "--density")) {
      kernel_density =
          benchargs::parse_double(argv[0], "--density", d, 0.0, 1.0);
    } else if (const char* o = benchargs::flag_value(argv[i], "--out")) {
      out_path = o;
    } else if (benchargs::flag_is(argv[i], "--check")) {
      check = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--n=N] [--density=D] [--out=PATH] [--check] "
                   "[--trace=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  std::printf("Sparse vs dense distributed MM (DESIGN.md §13)\n");

  for (NodeId n : sizes) sweep<BoolSemiring>("Boolean", n, 1, 2, 0xb001 + n);
  // One (min,+) table at the smallest size: wider entries, same protocol.
  sweep<MinPlusSemiring>("(min,+)", sizes.front(), 8, 30,
                         0x317 + sizes.front());
  spgemm_kernel_table(sizes, kernel_density, check);

  if (!trace_session.finish(&g_json)) return 1;
  if (g_json.write(out_path))
    std::printf("\nwrote %s\n", out_path.c_str());

  if (!g_gates_ok) return 1;
  std::printf("%s: results exact, sparse bits ∝ nnz, 1%%-density ratio "
              "gates met\n",
              check ? "CHECK OK" : "gates OK");
  return 0;
}
