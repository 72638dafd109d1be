// Engine workloads: one op is one library call of a clique algorithm
// (bfs_clique / apsp_clique) on an input generated from --seed, checked
// against a centralised oracle computed once in set-up.
//
//   bfs-path-n256     bfs_clique on a 256-node path whose labels are a
//                     seeded permutation, from one end. 512 one-round
//                     share_bit/any collectives: many small collectives,
//                     so per-collective scheduler and node overhead and
//                     plane delivery dominate; no local kernels run.
//   apsp-dense-n512   apsp_clique on gnp_weighted(512, 0.2, 1000, seed);
//                     kAuto takes the dense 3-D schedule, so local (min,+)
//                     block kernels and pack/unpack do most of the work.
//   apsp-sparse-n512  the same call at p = 0.01, ops cycling over five
//                     seeded graphs; kAuto takes the sparse schedule (nnz
//                     protocol, spgemm_auto) and fill-in then drives it into
//                     its dense fallback. A gain on one MM schedule that
//                     costs the other shows up here.
//
// With --trace 1 the ops alternate untraced / traced (RoundTrace installed
// with trace::set_global, which both algorithms' Engine::run calls attach),
// so trace.overhead_ratio compares neighbours in time, and the kernel layer
// is replayed from outside on the schedule's own blocks. clique.run_ms is
// the traced call's wall time (one Engine::run plus the caller's result
// assembly); the kernel times are serial sums, while the node programs
// spread the same products over the pool. A layer a workload does not
// exercise reads 0 with 0 samples.

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "algebra/distributed_mm.hpp"
#include "algebra/kernels.hpp"
#include "algebra/sparse.hpp"
#include "clique/engine.hpp"
#include "clique/trace.hpp"
#include "common.hpp"
#include "graph/generators.hpp"
#include "graph/oracles.hpp"
#include "graphalg/apsp.hpp"
#include "graphalg/common.hpp"
#include "graphalg/sssp.hpp"
#include "harness/sweep.hpp"
#include "util/math.hpp"

namespace perfbench {
namespace {

using ccq::Graph;
using ccq::NodeId;

constexpr int kSetupReps = 3;
constexpr int kSessionBuildReps = 5;

// ---- kernel replay ---------------------------------------------------------

struct KernelTimes {
  double block_mm_ms = 0;    ///< mm_local over every dense block product
  double spgemm_ms = 0;      ///< spgemm_auto over every sparse block product
  double auto_extra_us = 0;  ///< per product: mm_auto minus its kernel
  double pack_ns = 0, unpack_ns = 0;  ///< per entry, at the op's entry width
  std::size_t products = 0;
};

/// Replays the local steps of one apsp_clique op from outside: the
/// ⌈log₂n⌉ squarings of I ⊕ W, each cut into the d³ worker block products
/// of the n^{1/3} schedule (d = ⌊n^{1/3}⌋; the sparse schedule's greedy
/// grid is the same cube on square shapes). Dense schedule: every product
/// is mm_local. Sparse schedule: a product runs spgemm_auto when both CSR
/// blocks are at most kSparseDispatchMaxDensity dense, else mm_local on
/// the densified blocks — the worker's own rule. The squarings themselves
/// are computed centrally with mm_auto, and the last one must equal the
/// oracle. Returns false (with *why) on any mismatch.
bool replay_kernels(const Graph& g, bool sparse_schedule,
                    const std::vector<std::uint64_t>& ref, KernelTimes* kt,
                    std::string* why) {
  using S = ccq::MinPlusSemiring;
  using V = S::Value;
  using Mat = ccq::Matrix<V>;
  using Csr = ccq::SparseMatrix<V>;
  const NodeId n = g.n();
  std::uint32_t max_w = 1;
  for (const ccq::Edge& e : g.edges()) max_w = std::max(max_w, e.w);
  const unsigned entry_bits = std::max(
      2u, ccq::ceil_log2(static_cast<std::uint64_t>(n) * max_w + 2) + 1);
  const unsigned steps = std::max(1u, ccq::ceil_log2(n));

  Mat d(n, n, S::zero());
  for (NodeId v = 0; v < n; ++v) {
    d.at(v, v) = S::one();
    for (NodeId u : g.neighbours(v)) d.at(v, u) = g.weight(v, u);
  }

  // Pack / unpack: every row sliced into the schedule's column ranges, as
  // the 3-D Step A packs them.
  const ccq::mm3d_detail::Layout L(n);
  {
    std::vector<std::vector<V>> slices;
    for (NodeId v = 0; v < n; ++v)
      for (NodeId t = 0; t < L.d; ++t)
        slices.emplace_back(d.row_data(v) + L.range_begin(t),
                            d.row_data(v) + L.range_end(t));
    std::vector<ccq::BitVector> packed;
    packed.reserve(slices.size());
    auto t0 = Clock::now();
    for (const auto& s : slices)
      packed.push_back(ccq::pack_entries<S>(std::span<const V>(s), entry_bits));
    const double pack_ms = ms_since(t0);
    bool same = true;
    t0 = Clock::now();
    for (std::size_t i = 0; i < slices.size(); ++i)
      same &= ccq::unpack_entries<S>(packed[i], slices[i].size(),
                                     entry_bits) == slices[i];
    const double unpack_ms = ms_since(t0);
    if (!same) {
      *why = "unpack_entries(pack_entries(x)) != x";
      return false;
    }
    const double entries = static_cast<double>(n) * n;
    kt->pack_ns = pack_ms * 1e6 / entries;
    kt->unpack_ns = unpack_ms * 1e6 / entries;
  }

  double auto_ms = 0, kernel_ms = 0;
  for (unsigned s = 0; s < steps; ++s) {
    std::vector<Mat> blk(static_cast<std::size_t>(L.d) * L.d);
    std::vector<Csr> csr(blk.size());
    for (NodeId r = 0; r < L.d; ++r)
      for (NodeId c = 0; c < L.d; ++c) {
        Mat& b = blk[r * L.d + c];
        b = Mat(L.range_size(r), L.range_size(c));
        for (NodeId i = 0; i < b.rows(); ++i)
          std::copy(d.row_data(L.range_begin(r) + i) + L.range_begin(c),
                    d.row_data(L.range_begin(r) + i) + L.range_end(c),
                    b.row_data(i));
        if (sparse_schedule) csr[r * L.d + c] = Csr::from_dense<S>(b);
      }
    for (NodeId i = 0; i < L.d; ++i)
      for (NodeId j = 0; j < L.d; ++j)
        for (NodeId k = 0; k < L.d; ++k) {
          const std::size_t a = i * L.d + k, b = k * L.d + j;
          const bool sparse_local =
              sparse_schedule &&
              csr[a].density() <= ccq::kernels::kSparseDispatchMaxDensity &&
              csr[b].density() <= ccq::kernels::kSparseDispatchMaxDensity;
          auto t0 = Clock::now();
          if (sparse_local) {
            const Csr c = ccq::kernels::spgemm_auto<S>(csr[a], csr[b]);
            const double ms = ms_since(t0);
            kt->spgemm_ms += ms;
            kernel_ms += ms;
          } else {
            const Mat c = ccq::kernels::mm_local<S>(blk[a], blk[b]);
            const double ms = ms_since(t0);
            kt->block_mm_ms += ms;
            kernel_ms += ms;
          }
          t0 = Clock::now();
          const Mat c = ccq::kernels::mm_auto<S>(blk[a], blk[b]);
          auto_ms += ms_since(t0);
          ++kt->products;
        }
    d = ccq::kernels::mm_auto<S>(d, d);
  }
  kt->auto_extra_us =
      (auto_ms - kernel_ms) * 1e3 / static_cast<double>(kt->products);

  for (std::size_t i = 0; i < ref.size(); ++i) {
    const V v = d.data()[i];
    const std::uint64_t got = v >= S::infinity() ? ccq::kUnreachable : v;
    if (got != ref[i]) {
      *why = "central squaring replay differs from oracle::apsp";
      return false;
    }
  }
  return true;
}

// ---- bfs-path-n256 ---------------------------------------------------------

struct BfsCase {
  static constexpr NodeId kN = 256;
  Graph g;
  NodeId source = 0;
  std::vector<std::uint64_t> ref;

  /// gen::path(256) with node v renamed perm[v]; the search starts at the
  /// image of endpoint 0, so every seed has the same shape (diameter 255).
  void build(std::uint64_t seed) {
    const Graph path = ccq::gen::path(kN);
    std::vector<NodeId> perm(kN);
    for (NodeId v = 0; v < kN; ++v) perm[v] = v;
    SeedRng rng(seed);
    for (NodeId i = kN - 1; i > 0; --i)
      std::swap(perm[i], perm[static_cast<NodeId>(rng.below(i + 1))]);
    g = Graph::undirected(kN);
    for (const ccq::Edge& e : path.edges()) g.add_edge(perm[e.u], perm[e.v]);
    source = perm[0];
  }
  std::size_t inputs() const { return 1; }
  void reference() { ref = ccq::oracle::sssp(g, source); }
  ccq::SsspResult run(std::size_t) const { return ccq::bfs_clique(g, source); }
  bool check(const ccq::SsspResult& r, std::size_t, std::string* why) const {
    if (r.dist != ref) {
      *why = "bfs distances differ from oracle::sssp";
      return false;
    }
    for (NodeId v = 0; v < kN; ++v) {
      const NodeId p = r.parent[v];
      const bool good = v == source ? p == source
                                    : g.has_edge(p, v) && ref[p] + 1 == ref[v];
      if (!good) {
        *why = "bfs parent of node " + std::to_string(v) + " is not a tree edge";
        return false;
      }
    }
    return true;
  }
  /// BFS runs no local kernels.
  bool replay_kernels(KernelTimes*, std::string*) const { return true; }
};

// ---- apsp-{dense,sparse}-n512 ----------------------------------------------

struct ApspCase {
  static constexpr NodeId kN = 512;
  static constexpr std::uint32_t kMaxW = 1000;
  double p = 0.2;
  /// Input graphs per run; op i runs on graph i mod `graphs`. More than one
  /// where rounds and bits depend on the graph, so the run's sums average
  /// over several graphs and spread less from seed to seed.
  std::size_t graphs = 1;
  std::vector<Graph> g;
  std::vector<std::vector<std::uint64_t>> ref;

  std::size_t inputs() const { return graphs; }
  /// Graph k of seed s is generated with seed s·graphs + k, so no two
  /// seeds share a graph, and a single graph is generated with s itself.
  void build(std::uint64_t seed) {
    g.clear();
    for (std::size_t k = 0; k < graphs; ++k)
      g.push_back(ccq::gen::gnp_weighted(kN, p, kMaxW, seed * graphs + k));
  }
  void reference() {
    ref.clear();
    for (const Graph& gk : g) ref.push_back(ccq::oracle::apsp(gk));
  }
  ccq::ApspResult run(std::size_t k) const { return ccq::apsp_clique(g[k]); }
  bool check(const ccq::ApspResult& r, std::size_t k, std::string* why) const {
    if (r.dist != ref[k]) {
      *why = "apsp distances differ from oracle::apsp";
      return false;
    }
    return true;
  }
  bool replay_kernels(KernelTimes* kt, std::string* why) const {
    // The schedule apsp_clique's kAuto resolves to for the first graph.
    const bool sparse = ccq::graph_density(g[0]) <= ccq::kSparseMmMaxDensity;
    return perfbench::replay_kernels(g[0], sparse, ref[0], kt, why);
  }
};

// ---- the op loop -----------------------------------------------------------

template <class Case>
void drive(const Options& opt, Case& c, double nominal_op_ms, int warmups,
           Result* out) {
  const std::size_t inputs = c.inputs();
  // Set-up: input generation + reference, repeated (median), then the
  // warm-up ops (the first of which is the process's first run).
  std::vector<double> build_ms, prep_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    c.build(opt.seed);
    build_ms.push_back(ms_since(t0) / static_cast<double>(inputs));
    c.reference();
    prep_ms.push_back(ms_since(t0));
  }
  const auto warm_t0 = Clock::now();
  double first_op_ms = 0;
  for (int w = 0; w < warmups; ++w) {
    const std::size_t k = static_cast<std::size_t>(w) % inputs;
    const auto t0 = Clock::now();
    const auto r = c.run(k);
    if (w == 0) first_op_ms = ms_since(t0);
    std::string why;
    if (c.check(r, k, &why))
      out->ok();
    else
      out->fail("warm-up: " + why);
  }
  const double setup_s = (median(prep_ms) + ms_since(warm_t0)) / 1e3;

  // Measured ops: whole passes over the inputs, so each weighs the same.
  // Untraced ops give the end-to-end samples; with --trace 1 every other op
  // is traced instead.
  const int pass = static_cast<int>(inputs);
  const int ops =
      (op_budget(opt.seconds, nominal_op_ms, 5) + pass - 1) / pass * pass;
  std::vector<double> lat;
  std::vector<TracedOp> traced;
  double words = 0, rounds = 0, bits = 0;
  for (int i = 0; i < ops; ++i) {
    const std::size_t k = static_cast<std::size_t>(i) % inputs;
    const bool tracing = opt.trace && i % 2 == 1;
    ccq::RoundTrace trace;
    if (tracing) ccq::trace::set_global(&trace);
    const auto t0 = Clock::now();
    const auto r = c.run(k);
    const double ms = ms_since(t0);
    if (tracing) ccq::trace::set_global(nullptr);
    std::string why;
    if (!c.check(r, k, &why)) {
      out->fail(why);
      continue;
    }
    if (tracing) {
      const TracedOp t = read_trace(trace, ms, r.cost.messages);
      if (!trace.totals_match() ||
          !ccq::harness::meters_equal(trace.metered_totals(), r.cost)) {
        out->fail("trace ledger does not reproduce the op's meter");
        continue;
      }
      if (trace.runs() != 1) {
        out->fail("traced op did not record exactly one engine run");
        continue;
      }
      if (t.delivery_ms > t.run_ms) {
        out->fail("traced op: delivery time exceeds run time");
        continue;
      }
      traced.push_back(t);
    } else {
      lat.push_back(ms);
      words += static_cast<double>(r.cost.messages);
      rounds += static_cast<double>(r.cost.rounds);
      bits += static_cast<double>(r.cost.bits);
    }
    out->ok();
  }

  const double p50 = median(lat);
  if (!opt.trace) {
    add_end_to_end(out, setup_s, kSetupReps, lat, sum(lat) / 1e3, words,
                   rounds, bits);
    return;
  }

  // ---- per-layer readings (--trace 1) ----
  const double traced_p50 = add_engine_layers(out, traced);

  std::vector<double> session_ms;
  for (int rep = 0; rep < kSessionBuildReps; ++rep) {
    ccq::EngineSession::Shape shape;
    shape.n = Case::kN;
    const auto t0 = Clock::now();
    ccq::EngineSession session(shape);
    session_ms.push_back(ms_since(t0));
  }

  KernelTimes kt;
  std::string why;
  if (!c.replay_kernels(&kt, &why)) out->broken(why);

  out->add("graph.build_ms", median(build_ms), "ms", build_ms.size());
  out->add("clique.session_build_ms", median(session_ms), "ms",
           session_ms.size());
  out->add("clique.first_run_extra_ms", first_op_ms - p50, "ms", lat.size());
  out->add("trace.overhead_ratio", p50 > 0 ? traced_p50 / p50 : 0, "ratio",
           traced.size());
  const std::size_t kp = kt.products;
  out->add("kernels.block_mm_ms", kt.block_mm_ms, "ms", kp);
  out->add("kernels.mm_auto_extra_us", kt.auto_extra_us, "us", kp);
  out->add("kernels.spgemm_ms", kt.spgemm_ms, "ms", kp);
  out->add("kernels.pack_ns_per_entry", kt.pack_ns, "ns", kp ? 1 : 0);
  out->add("kernels.unpack_ns_per_entry", kt.unpack_ns, "ns", kp ? 1 : 0);
  // The service layer does no work on an engine workload.
  out->add("service.engine_ms", 0, "ms", 0);
  out->add("service.overhead_ms_p50", 0, "ms", 0);
  out->add("service.overhead_ms_p99", 0, "ms", 0);
  out->add("service.parse_us", 0, "us", 0);
  out->add("service.instance_miss_ms", 0, "ms", 0);
  out->add("service.session_hit_ratio", 0, "ratio", 0);
  out->add("service.instance_hit_ratio", 0, "ratio", 0);
  out->add("service.evictions", 0, "count", 0);
}

}  // namespace

void run_engine_workload(const Options& opt, Result* out) {
  // Nominal op times (4-core x86-64 host) only size the fixed op budget.
  if (opt.workload == "bfs-path-n256") {
    // Many small collectives: scheduler, node and plane time; no kernels.
    BfsCase c;
    drive(opt, c, 400.0, 2, out);
  } else if (opt.workload == "apsp-dense-n512") {
    // Dense 3-D schedule: local (min,+) kernels and pack/unpack dominate.
    ApspCase c;
    c.p = 0.2;
    drive(opt, c, 1400.0, 1, out);
  } else {
    // Sparse schedule (nnz protocol, spgemm_auto) and its dense fallback.
    // Its rounds and bits vary with the graph, so a run covers 5 graphs.
    ApspCase c;
    c.p = 0.01;
    c.graphs = 5;
    drive(opt, c, 1900.0, 1, out);
  }
}

}  // namespace perfbench
