#include "algebra/sparse.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <utility>
#include <vector>

#include "algebra/distributed_mm.hpp"
#include "algebra/mm.hpp"
#include "clique/chaos.hpp"
#include "clique/trace.hpp"
#include "graph/generators.hpp"
#include "graph/oracles.hpp"
#include "graphalg/apsp.hpp"
#include "graphalg/common.hpp"
#include "graphalg/subgraph.hpp"
#include "util/rng.hpp"

namespace ccq {
namespace {

template <Semiring S>
Matrix<typename S::Value> random_matrix(std::size_t rows, std::size_t cols,
                                        double density, std::uint64_t max_val,
                                        SplitMix64& rng) {
  using V = typename S::Value;
  Matrix<V> m(rows, cols, S::zero());
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      if (rng.next_bool(density))
        m.at(i, j) = static_cast<V>(rng.next_below(max_val));
  return m;
}

// ---------- CSR layer ----------

TEST(SparseMatrix, FromDenseToDenseRoundTrip) {
  SplitMix64 rng(1);
  for (double d : {0.0, 0.05, 0.5, 1.0}) {
    const auto m = random_matrix<I64Ring>(9, 13, d, 50, rng);
    const auto s = SparseMatrix<I64Ring::Value>::from_dense<I64Ring>(m);
    EXPECT_EQ(s.rows(), 9u);
    EXPECT_EQ(s.cols(), 13u);
    EXPECT_EQ(s.to_dense<I64Ring>(), m);
    std::size_t nz = 0;
    for (const auto& v : m.data()) nz += v != 0 ? 1 : 0;
    EXPECT_EQ(s.nnz(), nz);
  }
}

TEST(SparseMatrix, PushRowValidatesColumns) {
  SparseMatrix<std::uint8_t> s(4);
  const std::vector<std::uint32_t> ok = {0, 3};
  const std::vector<std::uint8_t> vals = {1, 1};
  s.push_row(ok, vals);
  const std::vector<std::uint32_t> decreasing = {2, 1};
  EXPECT_THROW(s.push_row(decreasing, vals), ModelViolation);
  const std::vector<std::uint32_t> out_of_range = {1, 4};
  EXPECT_THROW(s.push_row(out_of_range, vals), ModelViolation);
}

// ---------- local SpGEMM kernels ----------

template <Semiring S>
void check_spgemm(std::uint64_t max_val, std::uint64_t seed) {
  SplitMix64 rng(seed);
  for (std::size_t n : {1u, 5u, 64u, 65u}) {
    for (double d : {0.0, 0.02, 0.2, 1.0}) {
      const auto a = random_matrix<S>(n, n, d, max_val, rng);
      const auto b = random_matrix<S>(n, n, d, max_val, rng);
      const auto sa = SparseMatrix<typename S::Value>::template from_dense<S>(a);
      const auto sb = SparseMatrix<typename S::Value>::template from_dense<S>(b);
      const auto expect = mm_naive<S>(a, b);
      const auto c = kernels::spgemm<S>(sa, sb);
      EXPECT_EQ(c.template to_dense<S>(), expect) << "n=" << n << " d=" << d;
    }
  }
}

TEST(SpGemm, BooleanMatchesNaive) { check_spgemm<BoolSemiring>(2, 11); }
TEST(SpGemm, MinPlusMatchesNaive) { check_spgemm<MinPlusSemiring>(30, 12); }
TEST(SpGemm, I64RingMatchesNaive) { check_spgemm<I64Ring>(9, 13); }
TEST(SpGemm, MaxMinMatchesNaive) { check_spgemm<MaxMinSemiring>(15, 14); }

TEST(SpGemm, MmAutoDispatchesSparseInputs) {
  // Above the size floor and below the density ceiling mm_auto must take the
  // sparse route; correctness is all we can observe, so check both semiring
  // flavours against mm_naive on inputs that trigger the dispatch.
  SplitMix64 rng(31);
  const std::size_t n = 160;
  const auto ab = random_matrix<BoolSemiring>(n, n, 0.01, 2, rng);
  const auto bb = random_matrix<BoolSemiring>(n, n, 0.01, 2, rng);
  EXPECT_EQ(kernels::mm_auto<BoolSemiring>(ab, bb),
            mm_naive<BoolSemiring>(ab, bb));
  const auto am = random_matrix<MinPlusSemiring>(n, n, 0.01, 30, rng);
  const auto bm = random_matrix<MinPlusSemiring>(n, n, 0.01, 30, rng);
  EXPECT_EQ(kernels::mm_auto<MinPlusSemiring>(am, bm),
            mm_naive<MinPlusSemiring>(am, bm));
}

// ---------- distributed schedules ----------

// Drives one of the rectangular schedules on nn nodes and compares every
// output row against the centralised product.
template <Semiring S>
void check_rect(NodeId nn, MmShape shape, double density, unsigned entry_bits,
                std::uint64_t max_val, bool sparse_schedule,
                std::uint64_t seed, CostMeter* cost_out = nullptr,
                Engine::Config ecfg = {}) {
  using V = typename S::Value;
  SplitMix64 rng(seed);
  const auto a = random_matrix<S>(shape.n1, shape.n2, density, max_val, rng);
  const auto b = random_matrix<S>(shape.n2, shape.n3, density, max_val, rng);
  const auto expect = mm_naive<S>(a, b);

  PerNode<std::vector<V>> sink(nn);
  auto run = Engine::run(
      gen::empty(nn),
      [&](NodeCtx& ctx) {
        std::vector<V> ra, rb;
        if (ctx.id() < shape.n1) {
          ra.resize(shape.n2);
          for (NodeId j = 0; j < shape.n2; ++j) ra[j] = a.at(ctx.id(), j);
        }
        if (ctx.id() < shape.n2) {
          rb.resize(shape.n3);
          for (NodeId j = 0; j < shape.n3; ++j) rb[j] = b.at(ctx.id(), j);
        }
        auto rc = sparse_schedule
                      ? mm_distributed_sparse<S>(ctx, shape, ra, rb,
                                                 entry_bits)
                      : mm_distributed_rect<S>(ctx, shape, ra, rb,
                                               entry_bits);
        sink.set(ctx.id(), rc);
        ctx.output(0);
      },
      ecfg);
  if (cost_out) *cost_out = run.cost;

  auto rows = sink.take();
  for (NodeId i = 0; i < nn; ++i) {
    if (i >= shape.n1) {
      EXPECT_TRUE(rows[i].empty()) << "non-holder " << i << " returned a row";
      continue;
    }
    ASSERT_EQ(rows[i].size(), shape.n3) << "row " << i;
    for (NodeId j = 0; j < shape.n3; ++j)
      EXPECT_EQ(rows[i][j], expect.at(i, j))
          << "sparse=" << sparse_schedule << " @" << i << "," << j;
  }
}

TEST(RectMM, RectangularShapesMatchCentralised) {
  // n1 ≠ n2 ≠ n3, degenerate 1×k and k×1, a cube, and spare nodes beyond
  // every dimension. Both schedules, Boolean and (min,+).
  struct Case {
    NodeId nn, n1, n2, n3;
  };
  const Case cases[] = {{9, 7, 5, 9},  {8, 1, 8, 3},    {8, 8, 1, 5},
                        {9, 5, 9, 1},  {12, 12, 12, 12}, {16, 10, 16, 4},
                        {14, 6, 3, 11}};
  std::uint64_t seed = 900;
  for (const Case& c : cases) {
    for (bool sparse : {false, true}) {
      check_rect<BoolSemiring>(c.nn, {c.n1, c.n2, c.n3}, 0.35, 1, 2, sparse,
                               seed++);
      check_rect<MinPlusSemiring>(c.nn, {c.n1, c.n2, c.n3}, 0.35, 8, 30,
                                  sparse, seed++);
    }
  }
}

TEST(RectMM, GridsOnSquareShapes) {
  // The greedy rect grid is not the 3-D schedule's ⌊n^{1/3}⌋ cube in
  // general, which is why mm_distributed_3d passes the cube explicitly.
  using mmrect_detail::RectLayout;
  auto dims = [](const RectLayout& L) {
    return std::vector<NodeId>{L.d[0], L.d[1], L.d[2]};
  };
  EXPECT_EQ(dims(RectLayout(96, {96, 96, 96})),
            (std::vector<NodeId>{6, 4, 4}));
  EXPECT_EQ(dims(RectLayout::cube(96)), (std::vector<NodeId>{4, 4, 4}));
  for (NodeId n : {8u, 27u, 64u, 125u, 512u}) {
    const RectLayout greedy(n, {n, n, n}), cube = RectLayout::cube(n);
    EXPECT_EQ(dims(greedy), dims(cube)) << "n=" << n;
    for (int t = 0; t < 3; ++t) {
      EXPECT_EQ(greedy.n[t], cube.n[t]) << "n=" << n;
      EXPECT_EQ(greedy.q[t], cube.q[t]) << "n=" << n;
    }
  }
}

TEST(SparseMM, DensitySweepMatchesCentralised) {
  std::uint64_t seed = 1000;
  for (double d : {0.0, 0.05, 0.3, 1.0}) {
    check_rect<BoolSemiring>(20, {20, 20, 20}, d, 1, 2, /*sparse=*/true,
                             seed++);
    check_rect<MinPlusSemiring>(20, {20, 20, 20}, d, 8, 30, /*sparse=*/true,
                                seed++);
  }
}

TEST(SparseMM, AllZeroInputShipsNothing) {
  const NodeId nn = 16;
  PerNode<std::vector<std::uint64_t>> sink(nn);
  auto run = Engine::run(gen::empty(nn), [&](NodeCtx& ctx) {
    std::vector<MinPlusSemiring::Value> row(nn, MinPlusSemiring::infinity());
    auto rc = mm_distributed_sparse<MinPlusSemiring>(
        ctx, MmShape{nn, nn, nn}, row, row, 8);
    sink.set(ctx.id(), rc);
    ctx.output(0);
  });
  EXPECT_EQ(run.cost.messages, 0u);
  EXPECT_EQ(run.cost.bits, 0u);
  auto rows = sink.take();
  for (NodeId i = 0; i < nn; ++i)
    for (const auto v : rows[i]) EXPECT_EQ(v, MinPlusSemiring::infinity());
}

TEST(SparseMM, FullyDenseInputFallsBackToDenseFraming) {
  // On an all-nonzero input every slice takes the dense branch of the mode
  // rule, so the sparse schedule's bits are the rectangular schedule's plus
  // only descriptor/count overhead — bounded well under 1.5×.
  const NodeId nn = 16;
  CostMeter rect_cost, sparse_cost;
  check_rect<MinPlusSemiring>(nn, {nn, nn, nn}, 1.0, 8, 30, /*sparse=*/false,
                              2000, &rect_cost);
  check_rect<MinPlusSemiring>(nn, {nn, nn, nn}, 1.0, 8, 30, /*sparse=*/true,
                              2000, &sparse_cost);
  EXPECT_GT(sparse_cost.bits, rect_cost.bits);  // descriptors aren't free
  EXPECT_LE(sparse_cost.bits, rect_cost.bits + rect_cost.bits / 2);
}

TEST(SparseMM, BitsScaleWithDensity) {
  const NodeId nn = 32;
  std::uint64_t prev = 0;
  for (double d : {0.01, 0.1, 0.5}) {
    CostMeter cost;
    check_rect<MinPlusSemiring>(nn, {nn, nn, nn}, d, 8, 30, /*sparse=*/true,
                                2100, &cost);
    EXPECT_GT(cost.bits, prev) << "density " << d;
    prev = cost.bits;
  }
  // The same at n = 256 over 0.1% .. dense, Boolean at 1 bit and (min,+)
  // at 8 bits.
  const NodeId big = 256;
  std::uint64_t prev_bool = 0, prev_mp = 0;
  for (double d : {0.001, 0.01, 0.1, 1.0}) {
    CostMeter cost;
    check_rect<BoolSemiring>(big, {big, big, big}, d, 1, 2, /*sparse=*/true,
                             2100, &cost);
    EXPECT_GT(cost.bits, prev_bool) << "Boolean, n = 256, density " << d;
    prev_bool = cost.bits;
    check_rect<MinPlusSemiring>(big, {big, big, big}, d, 8, 30,
                                /*sparse=*/true, 2101, &cost);
    EXPECT_GT(cost.bits, prev_mp) << "(min,+), n = 256, density " << d;
    prev_mp = cost.bits;
  }
}

// Meters of the dense 3-D schedule and of the sparse schedule on one pair
// of seeded n×n matrices of the given density.
template <Semiring S>
std::pair<CostMeter, CostMeter> dense_and_sparse_cost(
    NodeId n, double density, unsigned entry_bits, std::uint64_t max_val,
    std::uint64_t seed) {
  using V = typename S::Value;
  SplitMix64 rng(seed);
  const auto a = random_matrix<S>(n, n, density, max_val, rng);
  const auto b = random_matrix<S>(n, n, density, max_val, rng);
  CostMeter cost[2];
  for (bool sparse : {false, true}) {
    cost[sparse] = Engine::run(gen::empty(n), [&](NodeCtx& ctx) {
                     std::vector<V> ra(n), rb(n);
                     for (NodeId j = 0; j < n; ++j) {
                       ra[j] = a.at(ctx.id(), j);
                       rb[j] = b.at(ctx.id(), j);
                     }
                     if (sparse)
                       mm_distributed_sparse<S>(ctx, MmShape{n, n, n}, ra,
                                                rb, entry_bits);
                     else
                       mm_distributed_3d<S>(ctx, ra, rb, entry_bits);
                     ctx.output(0);
                   }).cost;
  }
  return {cost[0], cost[1]};
}

TEST(SparseMM, OnePercentDensityRatioOverDense3d) {
  // At 1% density the sparse schedule moves at least 2x fewer bits than
  // the dense 3-D schedule at n = 256, where descriptor overhead weighs
  // most, and at least 5x fewer at n = 512.
  const auto [bool256_3d, bool256_sp] =
      dense_and_sparse_cost<BoolSemiring>(256, 0.01, 1, 2, 2200);
  EXPECT_GE(bool256_3d.bits, 2 * bool256_sp.bits);
  const auto [mp256_3d, mp256_sp] =
      dense_and_sparse_cost<MinPlusSemiring>(256, 0.01, 8, 30, 2201);
  EXPECT_GE(mp256_3d.bits, 2 * mp256_sp.bits);
  const auto [bool512_3d, bool512_sp] =
      dense_and_sparse_cost<BoolSemiring>(512, 0.01, 1, 2, 2202);
  EXPECT_GE(bool512_3d.bits, 5 * bool512_sp.bits);
}

// ---------- determinism across substrates ----------

TEST(SparseMM, DeterministicAcrossPlanesBackendsWorkers) {
  const NodeId nn = 18;
  struct Obs {
    std::vector<std::vector<std::uint64_t>> rows;
    CostMeter cost;
    RoundTrace trace;
  };
  std::deque<Obs> obs;
  for (ExecutionBackend backend :
       {ExecutionBackend::kPooled, ExecutionBackend::kThreadPerNode}) {
    for (std::size_t workers : {std::size_t{0}, std::size_t{3}}) {
      Obs& o = obs.emplace_back();
      Engine::Config ecfg;
      ecfg.backend = backend;
      ecfg.workers = workers;
      ecfg.trace = &o.trace;
      PerNode<std::vector<std::uint64_t>> sink(nn);
      auto run = Engine::run(
          gen::empty(nn),
          [&](NodeCtx& ctx) {
            SplitMix64 rng(77 ^ (ctx.id() * 0x9e3779b9ULL));
            std::vector<MinPlusSemiring::Value> ra(
                nn, MinPlusSemiring::infinity());
            std::vector<MinPlusSemiring::Value> rb(
                nn, MinPlusSemiring::infinity());
            for (int t = 0; t < 3; ++t) {
              ra[rng.next_below(nn)] = rng.next_below(30);
              rb[rng.next_below(nn)] = rng.next_below(30);
            }
            auto rc = mm_distributed_sparse<MinPlusSemiring>(
                ctx, MmShape{nn, nn, nn}, ra, rb, 8);
            sink.set(ctx.id(), rc);
            ctx.output(rc[0]);
          },
          ecfg);
      o.rows = sink.take();
      o.cost = run.cost;
      EXPECT_TRUE(o.trace.totals_match());
    }
  }
  for (std::size_t i = 1; i < obs.size(); ++i) {
    EXPECT_EQ(obs[i].rows, obs[0].rows) << "config " << i;
    EXPECT_EQ(obs[i].cost.rounds, obs[0].cost.rounds) << "config " << i;
    EXPECT_EQ(obs[i].cost.messages, obs[0].cost.messages) << "config " << i;
    EXPECT_EQ(obs[i].cost.bits, obs[0].cost.bits) << "config " << i;
    EXPECT_EQ(obs[i].cost.collectives, obs[0].cost.collectives)
        << "config " << i;
    EXPECT_TRUE(obs[i].trace.deterministic_eq(obs[0].trace)) << "config " << i;
  }
}

// ---------- chaos soundness on the descriptor round ----------

// Runs the sparse schedule with a byzantine node whose descriptor words
// (collective 0) are rewritten by `mutate`; payload collectives pass
// through untouched. Every structural lie about a nonzero count must
// surface as a ModelViolation at a receiver.
void run_with_corrupt_descriptor(std::uint64_t (*mutate)(std::uint64_t)) {
  const NodeId nn = 12;
  ChaosPlan::Config cfg;
  cfg.seed = 5;
  cfg.byzantine = {0};
  cfg.adversary = [mutate](const AdversaryView& view) {
    if (view.collective != 0) return view.original.value;
    return mutate(view.original.value);
  };
  ChaosPlan plan(cfg);
  Engine::Config ecfg;
  ecfg.chaos = &plan;
  Engine::run(
      gen::empty(nn),
      [&](NodeCtx& ctx) {
        SplitMix64 rng(88 ^ (ctx.id() * 0x9e3779b9ULL));
        std::vector<MinPlusSemiring::Value> row(nn,
                                                MinPlusSemiring::infinity());
        for (int t = 0; t < 4; ++t) row[rng.next_below(nn)] = rng.next_below(30);
        auto rc = mm_distributed_sparse<MinPlusSemiring>(
            ctx, MmShape{nn, nn, nn}, row, row, 8);
        ctx.output(rc.empty() ? 0 : rc[0]);
      },
      ecfg);
}

TEST(SparseMMChaos, FlippedDescriptorCountRejected) {
  EXPECT_THROW(run_with_corrupt_descriptor(
                   [](std::uint64_t v) { return v ^ 1; }),
               ModelViolation);
}

TEST(SparseMMChaos, ZeroedDescriptorRejected) {
  // The byzantine plane cannot remove a word, so "drop" means the content
  // is wiped: the count field reads 0 while the payload still arrives.
  EXPECT_THROW(run_with_corrupt_descriptor(
                   [](std::uint64_t) { return std::uint64_t{0}; }),
               ModelViolation);
}

TEST(SparseMMChaos, RandomDropsRejected) {
  // Genuine word drops at 50%: some descriptor or payload word vanishes
  // while its counterpart survives, so a declared/received width check
  // fires. Deterministic for the fixed seed.
  const NodeId nn = 12;
  ChaosPlan::Config cfg;
  cfg.seed = 7;
  cfg.p_drop = 0.5;
  ChaosPlan plan(cfg);
  Engine::Config ecfg;
  ecfg.chaos = &plan;
  EXPECT_THROW(
      Engine::run(
          gen::empty(nn),
          [&](NodeCtx& ctx) {
            SplitMix64 rng(99 ^ (ctx.id() * 0x9e3779b9ULL));
            std::vector<MinPlusSemiring::Value> row(
                nn, MinPlusSemiring::infinity());
            for (int t = 0; t < 4; ++t)
              row[rng.next_below(nn)] = rng.next_below(30);
            auto rc = mm_distributed_sparse<MinPlusSemiring>(
                ctx, MmShape{nn, nn, nn}, row, row, 8);
            ctx.output(rc.empty() ? 0 : rc[0]);
          },
          ecfg),
      ModelViolation);
}

// ---------- graphalg routing ----------

TEST(SparseRouting, ApspSparse3dMatchesNaive) {
  const Graph g = gen::gnp_weighted(20, 0.2, 12, 42);
  const auto naive = apsp_clique(g, MmAlgo::kNaiveBroadcast);
  const auto sparse = apsp_clique(g, MmAlgo::kSparse3d);
  EXPECT_EQ(sparse.dist, naive.dist);
  const auto aut = apsp_clique(g, MmAlgo::kAuto);
  EXPECT_EQ(aut.dist, naive.dist);
}

TEST(SparseRouting, ClosureSparse3dMatchesNaive) {
  const Graph g = gen::gnp_directed(18, 0.08, 43);
  const auto naive = transitive_closure_clique(g, MmAlgo::kNaiveBroadcast);
  const auto sparse = transitive_closure_clique(g, MmAlgo::kSparse3d);
  EXPECT_EQ(sparse.reach, naive.reach);
}

TEST(SparseRouting, TriangleMmMatchesOracle) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    for (double p : {0.05, 0.15, 0.5}) {
      const Graph g = gen::gnp(16, p, seed);
      const auto res = triangle_mm_clique(g);
      const auto oracle_wit = oracle::k_clique(g, 3);
      EXPECT_EQ(res.found, oracle_wit.has_value())
          << "seed=" << seed << " p=" << p;
      if (res.found) {
        ASSERT_EQ(res.witness.size(), 3u);
        const auto& w = res.witness;
        EXPECT_TRUE(g.row(w[0]).get(w[1]) && g.row(w[0]).get(w[2]) &&
                    g.row(w[1]).get(w[2]))
            << "witness is not a triangle";
      }
    }
  }
  // Triangle-free: a star.
  Graph star = Graph::undirected(9);
  for (NodeId v = 1; v < 9; ++v) star.add_edge(0, v);
  EXPECT_FALSE(triangle_mm_clique(star).found);
}

TEST(SparseRouting, TriangleCliqueRoutesByDensity) {
  // Dense and sparse inputs must agree with the oracle regardless of which
  // internal path density routing picks.
  for (double p : {0.04, 0.6}) {
    const Graph g = gen::gnp(20, p, 77);
    EXPECT_EQ(triangle_clique(g).found, oracle::k_clique(g, 3).has_value())
        << "p=" << p;
  }
}

TEST(SparseRouting, GraphDensityBoundaryExact) {
  // n = 21 makes the 10% routing threshold exact: a 21-cycle has density
  // 2·21/(21·20) = 0.10, which routes sparse (the comparison is ≤); one
  // chord tips it over. Results must agree with the naive schedule on both
  // sides of the boundary.
  Graph ring = Graph::undirected(21);
  for (NodeId v = 0; v < 21; ++v)
    ring.add_edge(v, (v + 1) % 21, 1 + v % 5);
  ASSERT_EQ(graph_density(ring), kSparseMmMaxDensity);
  EXPECT_EQ(apsp_clique(ring, MmAlgo::kAuto).dist,
            apsp_clique(ring, MmAlgo::kNaiveBroadcast).dist);
  Graph chord = ring;
  chord.add_edge(0, 10, 3);
  ASSERT_GT(graph_density(chord), kSparseMmMaxDensity);
  EXPECT_EQ(apsp_clique(chord, MmAlgo::kAuto).dist,
            apsp_clique(chord, MmAlgo::kNaiveBroadcast).dist);
}

}  // namespace
}  // namespace ccq
