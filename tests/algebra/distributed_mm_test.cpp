#include "algebra/distributed_mm.hpp"

#include <gtest/gtest.h>

#include "clique/chaos.hpp"
#include "clique/trace.hpp"
#include "graph/generators.hpp"
#include "graphalg/common.hpp"
#include "harness/sweep.hpp"
#include "util/rng.hpp"

namespace ccq {
namespace {

// Local copy of the algorithm selector (the canonical one lives in
// graphalg/apsp.hpp; tests of the algebra layer stay below graphalg).
enum class MmAlgo { kNaiveBroadcast, k3dPartition };

// ---------- entry packing ----------

TEST(EntryPacking, RoundTripPlain) {
  std::vector<BoolSemiring::Value> vals = {1, 0, 1, 1, 0};
  auto bv = pack_entries<BoolSemiring>(
      std::span<const BoolSemiring::Value>(vals), 1);
  EXPECT_EQ(bv.size(), 5u);
  auto back = unpack_entries<BoolSemiring>(bv, 5, 1);
  EXPECT_EQ(back, vals);
}

TEST(EntryPacking, RoundTripMinPlusWithInfinity) {
  using V = MinPlusSemiring::Value;
  std::vector<V> vals = {0, 7, MinPlusSemiring::infinity(), 13};
  auto bv = pack_entries<MinPlusSemiring>(std::span<const V>(vals), 5);
  auto back = unpack_entries<MinPlusSemiring>(bv, 4, 5);
  EXPECT_EQ(back[0], 0u);
  EXPECT_EQ(back[1], 7u);
  EXPECT_EQ(back[2], MinPlusSemiring::infinity());
  EXPECT_EQ(back[3], 13u);
}

TEST(EntryPacking, OverflowRejected) {
  std::vector<I64Ring::Value> vals = {9};
  EXPECT_THROW(
      pack_entries<I64Ring>(std::span<const I64Ring::Value>(vals), 3),
      ModelViolation);
  // MinPlus: finite value colliding with the ∞ code is rejected too.
  std::vector<MinPlusSemiring::Value> mp = {7};
  EXPECT_THROW(
      pack_entries<MinPlusSemiring>(
          std::span<const MinPlusSemiring::Value>(mp), 3),
      ModelViolation);
}

// ---------- distributed products ----------

// Runs both distributed algorithms on random matrices and compares against
// the centralised product.
template <Semiring S>
void check_distributed(NodeId n, unsigned entry_bits, std::uint64_t max_val,
                       std::uint64_t seed) {
  using V = typename S::Value;
  SplitMix64 rng(seed);
  Matrix<V> a(n, n, S::zero()), b(n, n, S::zero());
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = 0; j < n; ++j) {
      a.at(i, j) = static_cast<V>(rng.next_below(max_val));
      b.at(i, j) = static_cast<V>(rng.next_below(max_val));
    }
  const auto expect = mm_naive<S>(a, b);

  for (MmAlgo algo : {MmAlgo::kNaiveBroadcast, MmAlgo::k3dPartition}) {
    PerNode<std::vector<V>> sink(n);
    Engine::run(gen::empty(n), [&](NodeCtx& ctx) {
      std::vector<V> ra(ctx.n()), rb(ctx.n());
      for (NodeId j = 0; j < ctx.n(); ++j) {
        ra[j] = a.at(ctx.id(), j);
        rb[j] = b.at(ctx.id(), j);
      }
      auto rc = algo == MmAlgo::kNaiveBroadcast
                    ? mm_distributed_naive<S>(ctx, ra, rb, entry_bits)
                    : mm_distributed_3d<S>(ctx, ra, rb, entry_bits);
      sink.set(ctx.id(), rc);
      ctx.output(0);
    });
    auto rows = sink.take();
    for (NodeId i = 0; i < n; ++i)
      for (NodeId j = 0; j < n; ++j)
        EXPECT_EQ(rows[i][j], expect.at(i, j))
            << "algo=" << static_cast<int>(algo) << " @" << i << "," << j;
  }
}

TEST(DistributedMM, BooleanMatchesCentralised) {
  check_distributed<BoolSemiring>(12, 1, 2, 100);
  check_distributed<BoolSemiring>(27, 1, 2, 101);  // perfect cube
  check_distributed<BoolSemiring>(16, 1, 2, 102);
}

TEST(DistributedMM, IntegerRingMatchesCentralised) {
  // entry_bits must cover the *partial sums* the 3-D algorithm ships in its
  // reduction step, not just the inputs: ≤ n·v² = 10·9² < 2^10 here.
  check_distributed<I64Ring>(10, 12, 10, 200);
  check_distributed<I64Ring>(8, 12, 10, 201);  // cube
}

TEST(DistributedMM, MinPlusMatchesCentralised) {
  check_distributed<MinPlusSemiring>(14, 6, 30, 300);
}

TEST(DistributedMM, MaxMinMatchesCentralised) {
  check_distributed<MaxMinSemiring>(9, 4, 15, 400);
}

TEST(DistributedMM, TinyCliques) {
  check_distributed<BoolSemiring>(1, 1, 2, 500);
  check_distributed<BoolSemiring>(2, 1, 2, 501);
  check_distributed<BoolSemiring>(3, 1, 2, 502);
}

// Meters of one dense schedule on seeded rows with entries below max_val
// (the dense schedules' costs do not depend on the entry values).
template <Semiring S>
CostMeter dense_cost(NodeId n, MmAlgo algo, unsigned entry_bits,
                     std::uint64_t max_val) {
  using V = typename S::Value;
  return Engine::run(gen::empty(n), [&](NodeCtx& ctx) {
           SplitMix64 rng(ctx.id() * 0x9e37ULL + 5);
           std::vector<V> ra(n), rb(n);
           for (NodeId j = 0; j < n; ++j) {
             ra[j] = static_cast<V>(rng.next_below(max_val));
             rb[j] = static_cast<V>(rng.next_below(max_val));
           }
           auto rc = algo == MmAlgo::kNaiveBroadcast
                         ? mm_distributed_naive<S>(ctx, ra, rb, entry_bits)
                         : mm_distributed_3d<S>(ctx, ra, rb, entry_bits);
           ctx.output(rc[0]);
         })
      .cost;
}

TEST(DistributedMM, ThreeDCheaperThanNaiveAtScale) {
  // Boolean MM on n = 64: naive broadcasts n bits/node (⌈64/6⌉ = 11
  // rounds); 3-D moves ~3·n^{4/3}/n words ≈ n^{1/3} scaled. The 3-D
  // algorithm must win on rounds at this size.
  EXPECT_LT(dense_cost<BoolSemiring>(64, MmAlgo::k3dPartition, 1, 2).rounds,
            dense_cost<BoolSemiring>(64, MmAlgo::kNaiveBroadcast, 1, 2).rounds);
  // At n = 256, Boolean at 1 bit and (min,+) at 8 bits: 3-D rounds within
  // 1.15x naive (at these sizes it wins outright, 18 vs 32 and 129 vs 256;
  // the slack only guards small-n block granularity).
  const CostMeter bool_3d =
      dense_cost<BoolSemiring>(256, MmAlgo::k3dPartition, 1, 2);
  const CostMeter bool_naive =
      dense_cost<BoolSemiring>(256, MmAlgo::kNaiveBroadcast, 1, 2);
  EXPECT_LE(static_cast<double>(bool_3d.rounds),
            1.15 * static_cast<double>(bool_naive.rounds));
  const CostMeter mp_3d =
      dense_cost<MinPlusSemiring>(256, MmAlgo::k3dPartition, 8, 30);
  const CostMeter mp_naive =
      dense_cost<MinPlusSemiring>(256, MmAlgo::kNaiveBroadcast, 8, 30);
  EXPECT_LE(static_cast<double>(mp_3d.rounds),
            1.15 * static_cast<double>(mp_naive.rounds));
}

// ---------- pinned meters of the block schedules ----------

// The 3-D, rect and sparse schedules share one block machinery; every
// ordered pair must keep carrying the same word sequence. Each row runs one
// schedule on seeded random inputs under a RoundTrace and pins its meters
// and ledger fingerprint (which folds the trace's phase labels). The 3-D
// rows use n where the cube grid ⌊n^{1/3}⌋³ and the greedy rect grid
// differ, so 3-D on the wrong grid fails here; the dense sparse rows pin
// the one-run framing of a slice pair sent to one worker.
enum class Block { k3d, kRect, kSparse };

struct MeterPin {
  Block schedule;
  bool boolean;  ///< BoolSemiring at 1 bit, else (min,+) at 8 bits
  NodeId nodes;
  MmShape shape;
  double density;
  std::uint64_t rounds, messages, bits, collectives, max_sent, max_received;
  std::uint64_t ledger_fp;
};

template <Semiring S>
CostMeter run_pinned(const MeterPin& p, unsigned entry_bits,
                     std::uint64_t max_val, std::uint64_t seed,
                     std::uint64_t* ledger_fp) {
  using V = typename S::Value;
  SplitMix64 rng(seed);
  auto random = [&](NodeId rows, NodeId cols) {
    Matrix<V> m(rows, cols, S::zero());
    for (NodeId i = 0; i < rows; ++i)
      for (NodeId j = 0; j < cols; ++j)
        if (rng.next_bool(p.density))
          m.at(i, j) = static_cast<V>(rng.next_below(max_val));
    return m;
  };
  const auto a = random(p.shape.n1, p.shape.n2);
  const auto b = random(p.shape.n2, p.shape.n3);
  RoundTrace trace;
  Engine::Config cfg;
  cfg.trace = &trace;
  const auto res = Engine::run(
      gen::empty(p.nodes),
      [&](NodeCtx& ctx) {
        std::vector<V> ra, rb;
        if (ctx.id() < p.shape.n1)
          ra.assign(a.row_data(ctx.id()), a.row_data(ctx.id()) + p.shape.n2);
        if (ctx.id() < p.shape.n2)
          rb.assign(b.row_data(ctx.id()), b.row_data(ctx.id()) + p.shape.n3);
        switch (p.schedule) {
          case Block::k3d:
            mm_distributed_3d<S>(ctx, ra, rb, entry_bits);
            break;
          case Block::kRect:
            mm_distributed_rect<S>(ctx, p.shape, ra, rb, entry_bits);
            break;
          case Block::kSparse:
            mm_distributed_sparse<S>(ctx, p.shape, ra, rb, entry_bits);
            break;
        }
        ctx.output(0);
      },
      cfg);
  *ledger_fp = harness::ledger_fingerprint(trace);
  return res.cost;
}

TEST(DistributedMM, BlockScheduleMetersPinned) {
  constexpr Block k3d = Block::k3d, kRect = Block::kRect,
                  kSparse = Block::kSparse;
  const MeterPin pins[] = {
      {k3d, true, 12, {12, 12, 12}, 0.5,
       6, 256, 768, 2, 28, 32, 0x19041fcd5fe285f6},
      {k3d, false, 12, {12, 12, 12}, 0.5,
       36, 1536, 6144, 2, 168, 192, 0xa46f87af956ae32c},
      {k3d, true, 48, {48, 48, 48}, 0.5,
       9, 3792, 20224, 2, 102, 123, 0x7f4dc0092bf53c25},
      {k3d, false, 48, {48, 48, 48}, 0.5,
       66, 27808, 161792, 2, 748, 902, 0x6a7b015a326e9616},
      {k3d, true, 96, {96, 96, 96}, 0.5,
       12, 18176, 109056, 2, 224, 256, 0xa5b2bfbbd4d994c6},
      {k3d, false, 96, {96, 96, 96}, 0.5,
       84, 127232, 872448, 2, 1568, 1792, 0x2800e205c658f5c4},
      {k3d, true, 256, {256, 256, 256}, 0.5,
       18, 164310, 1168457, 2, 690, 732, 0xf3e28a24950dfd84},
      {k3d, false, 256, {256, 256, 256}, 0.5,
       129, 1168457, 9347656, 2, 4921, 5234, 0xf1cabaf23fe3b4dc},
      {kRect, true, 40, {40, 20, 10}, 0.5,
       4, 818, 3717, 2, 29, 27, 0x830d6cde05d0c0d4},
      {kRect, false, 9, {7, 5, 9}, 0.5,
       26, 446, 1784, 2, 82, 68, 0xe60b0d2b1fe2513b},
      {kSparse, false, 96, {96, 96, 96}, 0.02,
       19, 6088, 36830, 3, 154, 108, 0x366768be90224513},
      {kSparse, false, 96, {96, 96, 96}, 0.3,
       74, 96939, 652486, 3, 1145, 1077, 0x3afd25c4b5f56ce2},
      {kSparse, false, 96, {96, 96, 96}, 1.0,
       86, 149280, 1016520, 3, 1562, 1566, 0xb648178f5b73c796},
      {kSparse, true, 48, {48, 48, 48}, 0.05,
       10, 845, 4060, 3, 36, 36, 0x21fa21b844728a8d},
      {kSparse, true, 8, {8, 1, 5}, 0.5,
       4, 14, 28, 3, 8, 4, 0x937496edd6b124c9},
  };
  const char* names[] = {"3d", "rect", "sparse"};
  std::uint64_t seed = 7000;
  for (const MeterPin& p : pins) {
    std::uint64_t fp = 0;
    const CostMeter c =
        p.boolean ? run_pinned<BoolSemiring>(p, 1, 2, seed++, &fp)
                  : run_pinned<MinPlusSemiring>(p, 8, 30, seed++, &fp);
    const bool same = c.rounds == p.rounds && c.messages == p.messages &&
                      c.bits == p.bits && c.collectives == p.collectives &&
                      c.max_node_sent == p.max_sent &&
                      c.max_node_received == p.max_received &&
                      fp == p.ledger_fp;
    EXPECT_TRUE(same) << names[static_cast<int>(p.schedule)] << " "
                      << (p.boolean ? "bool" : "minplus") << " nodes="
                      << p.nodes << " shape={" << p.shape.n1 << ","
                      << p.shape.n2 << "," << p.shape.n3
                      << "} density=" << p.density << " measured {"
                      << c.rounds << ", " << c.messages << ", " << c.bits
                      << ", " << c.collectives << ", " << c.max_node_sent
                      << ", " << c.max_node_received << ", 0x" << std::hex
                      << fp << std::dec << "}";
  }
}

// ---------- chaos on the block schedules ----------

// Every MM payload travels as the B-bit framing of its packed slices, and
// the chaos layer faults that framing word by word. Each row runs one
// schedule on seeded inputs under one seeded fault plan and pins the fault
// count, the fault ledger's fingerprint and the outcome: the fingerprint of
// every node's output row, or 0 when a receiver's check threw
// ModelViolation.
enum class Fault { kFlip, kDrop, kDup, kByzantine };

struct ChaosPin {
  Block schedule;
  bool boolean;  ///< BoolSemiring at 1 bit, else (min,+) at 8 bits
  Fault fault;
  std::uint64_t faults, ledger_fp, outcome_fp;
};

std::uint64_t fnv_mix(std::uint64_t fp, std::uint64_t v) {
  return (fp ^ v) * 0x100000001b3ull;
}

std::uint64_t fault_ledger_fingerprint(const ChaosPlan& plan) {
  std::uint64_t fp = 0xcbf29ce484222325ull;
  for (const FaultEvent& e : plan.ledger()) {
    for (std::uint64_t v :
         {std::uint64_t{static_cast<unsigned>(e.kind)}, e.collective,
          std::uint64_t{e.src}, std::uint64_t{e.dst}, e.index,
          std::uint64_t{e.bit}, e.before.value, std::uint64_t{e.before.bits},
          e.after.value, std::uint64_t{e.after.bits}})
      fp = fnv_mix(fp, v);
  }
  return fp;
}

template <Semiring S>
std::uint64_t run_under_chaos(Block schedule, NodeId n, double density,
                              unsigned entry_bits, std::uint64_t max_val,
                              std::uint64_t seed, ChaosPlan& plan) {
  using V = typename S::Value;
  SplitMix64 rng(seed);
  auto random = [&] {
    Matrix<V> m(n, n, S::zero());
    for (NodeId i = 0; i < n; ++i)
      for (NodeId j = 0; j < n; ++j)
        if (rng.next_bool(density))
          m.at(i, j) = static_cast<V>(rng.next_below(max_val));
    return m;
  };
  const auto a = random();
  const auto b = random();
  Engine::Config cfg;
  cfg.chaos = &plan;
  PerNode<std::vector<V>> sink(n);
  try {
    Engine::run(
        gen::empty(n),
        [&](NodeCtx& ctx) {
          const std::vector<V> ra(a.row_data(ctx.id()),
                                  a.row_data(ctx.id()) + n);
          const std::vector<V> rb(b.row_data(ctx.id()),
                                  b.row_data(ctx.id()) + n);
          std::vector<V> rc =
              schedule == Block::k3d
                  ? mm_distributed_3d<S>(ctx, ra, rb, entry_bits)
                  : mm_distributed_sparse<S>(ctx, MmShape{n, n, n}, ra, rb,
                                             entry_bits);
          sink.set(ctx.id(), std::move(rc));
          ctx.output(0);
        },
        cfg);
  } catch (const ModelViolation&) {
    return 0;
  }
  std::uint64_t fp = 0xcbf29ce484222325ull;
  for (const std::vector<V>& row : sink.take()) {
    fp = fnv_mix(fp, row.size());
    for (const V& v : row) fp = fnv_mix(fp, static_cast<std::uint64_t>(v));
  }
  return fp;
}

TEST(DistributedMMChaos, FaultsAndOutcomesPinned) {
  constexpr Block k3d = Block::k3d, kSparse = Block::kSparse;
  constexpr Fault kFlip = Fault::kFlip, kDrop = Fault::kDrop,
                  kDup = Fault::kDup, kByz = Fault::kByzantine;
  const ChaosPin pins[] = {
      {k3d, true, kFlip, 14, 0x8ea53f17c154eea4, 0x47b33300c79aa66f},
      {k3d, true, kDrop, 11, 0x77ac095030f3e555, 0x4a9913bf5e1ea94f},
      {k3d, true, kDup, 4, 0xcad743cdb87e8f5a, 0x0},
      {k3d, true, kByz, 47, 0xb2dc159f57e81358, 0xd763ddd275394753},
      {k3d, false, kFlip, 61, 0xfb29ae99c6fc0b63, 0x0},
      {k3d, false, kDrop, 72, 0x60506a721f2588c9, 0x0},
      {k3d, false, kDup, 14, 0x3cb51da1b27ec879, 0x0},
      {k3d, false, kByz, 353, 0x9b10496b2be371d8, 0x1ca9909c8d60f9e1},
      {kSparse, true, kFlip, 22, 0x8f5a9881d03802f2, 0x0},
      {kSparse, true, kDrop, 21, 0x913022c990e6a576, 0x0},
      {kSparse, true, kDup, 5, 0x8aa9cac7b4b2d58a, 0x0},
      {kSparse, true, kByz, 8, 0x3ca6607717278fd, 0x0},
      {kSparse, false, kFlip, 22, 0x7361d358f19757eb, 0x0},
      {kSparse, false, kDrop, 69, 0xa2432d3a3bc43f29, 0x0},
      {kSparse, false, kDup, 7, 0xefcb344e0ebc1cc1, 0x0},
      {kSparse, false, kByz, 21, 0xf5cc77f872e443f3, 0x0},
  };
  const char* faults[] = {"flip", "drop", "dup", "byzantine"};
  std::uint64_t seed = 9100;
  for (const ChaosPin& p : pins) {
    // The 3-D rows run on the 3³ cube; the sparse rows at 5% density, with
    // fewer words in flight and so a higher per-word rate.
    const bool cube = p.schedule == Block::k3d;
    const double rate = cube ? 0.01 : 0.03;
    ChaosPlan::Config ccfg;
    ccfg.seed = seed;
    switch (p.fault) {
      case Fault::kFlip:
        ccfg.p_flip = rate;
        break;
      case Fault::kDrop:
        ccfg.p_drop = rate;
        break;
      case Fault::kDup:
        ccfg.p_dup = rate / 5;
        break;
      case Fault::kByzantine:
        ccfg.byzantine = {1};
        break;
    }
    ChaosPlan plan(ccfg);
    const NodeId n = cube ? 27 : 48;
    const double density = cube ? 0.5 : 0.05;
    const std::uint64_t outcome =
        p.boolean ? run_under_chaos<BoolSemiring>(p.schedule, n, density, 1,
                                                  2, seed++, plan)
                  : run_under_chaos<MinPlusSemiring>(p.schedule, n, density,
                                                     8, 30, seed++, plan);
    const std::uint64_t ledger_fp = fault_ledger_fingerprint(plan);
    EXPECT_EQ(plan.ledger_overflow(), 0u);
    EXPECT_TRUE(plan.total_faults() == p.faults && ledger_fp == p.ledger_fp &&
                outcome == p.outcome_fp)
        << (cube ? "3d " : "sparse ") << (p.boolean ? "bool " : "minplus ")
        << faults[static_cast<int>(p.fault)] << " measured {"
        << plan.total_faults() << ", 0x" << std::hex << ledger_fp << ", 0x"
        << outcome << std::dec << "}";
  }
}

}  // namespace
}  // namespace ccq
