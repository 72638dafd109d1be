// Chaos plane + soundness campaign suite (clique/chaos.hpp,
// nondet/soundness.hpp).
//
// Pins the contracts the chaos header promises:
//   * fault semantics — flip toggles exactly one bit, drop zeroes the value
//     but keeps the width, duplicate appends a copy, byzantine rewrites via
//     the adversary callback clamped to the original width, and words a
//     node queues to itself are never touched;
//   * determinism — the ledger and the run outputs are a pure function of
//     (plan seed, collective, src, dst), identical across backends × worker
//     counts;
//   * lifecycle — p = 0 plans are exact no-ops, the acquire is released on
//     every exit path (config and global attach), the ledger cap converts
//     records to overflow without losing counts, and chaos composes with
//     the round trace;
// and runs the soundness campaign itself in miniature: every case accepts
// all clean certificates and rejects all single-bit-corrupted ones, with a
// named regression for the connectivity root-parent escape the campaign
// found.

#include "clique/chaos.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "clique/engine.hpp"
#include "clique/trace.hpp"
#include "graph/generators.hpp"
#include "nondet/soundness.hpp"
#include "nondet/verifiers.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace ccq {
namespace {

struct ChaosSetup {
  ExecutionBackend backend;
  std::size_t workers;
  const char* name;
};

const ChaosSetup kSetups[] = {
    {ExecutionBackend::kThreadPerNode, 0, "thread-per-node"},
    {ExecutionBackend::kPooled, 2, "pooled-2"},
    {ExecutionBackend::kPooled, 0, "pooled-hw"},
    {ExecutionBackend::kPooled, 3, "pooled-3"},
};

Engine::Config config_for(const ChaosSetup& s, ChaosPlan* plan) {
  Engine::Config cfg;
  cfg.backend = s.backend;
  cfg.workers = s.workers;
  cfg.chaos = plan;
  return cfg;
}

// Each node sends its id (full B bits) to every other node and outputs the
// sum of received values — a digest that notices any value corruption.
void all_to_all_sum(NodeCtx& ctx) {
  std::vector<std::pair<NodeId, Word>> sends;
  for (NodeId u = 0; u < ctx.n(); ++u) {
    if (u != ctx.id()) {
      sends.emplace_back(u, Word(ctx.id(), ctx.bandwidth()));
    }
  }
  auto got = ctx.round(sends);
  std::uint64_t sum = 0;
  for (NodeId u = 0; u < ctx.n(); ++u) {
    if (got[u].has_value()) sum += got[u]->value + 1;
  }
  ctx.output(sum);
}

TEST(ChaosFaults, FlipTogglesExactlyOneBit) {
  ChaosPlan::Config cfg;
  cfg.seed = 7;
  cfg.p_flip = 1.0;
  ChaosPlan plan(cfg);
  const Graph g = gen::empty(8);
  Engine::Config ecfg;
  ecfg.chaos = &plan;
  Engine::run(g, all_to_all_sum, ecfg);
  ASSERT_GT(plan.fault_count(FaultKind::kFlip), 0u);
  EXPECT_EQ(plan.fault_count(FaultKind::kFlip), plan.total_faults());
  // 8 nodes, 7 peers each, every cross word flipped exactly once.
  EXPECT_EQ(plan.total_faults(), 8u * 7u);
  for (const FaultEvent& e : plan.ledger()) {
    EXPECT_EQ(e.kind, FaultKind::kFlip);
    EXPECT_NE(e.src, e.dst);
    EXPECT_LT(e.bit, e.before.bits);
    EXPECT_EQ(e.after.bits, e.before.bits);
    EXPECT_EQ(e.after.value,
              e.before.value ^ (std::uint64_t{1} << e.bit));
  }
}

TEST(ChaosFaults, DropZeroesValueButKeepsWidth) {
  ChaosPlan::Config cfg;
  cfg.seed = 8;
  cfg.p_drop = 1.0;
  ChaosPlan plan(cfg);
  const Graph g = gen::empty(6);
  Engine::Config ecfg;
  ecfg.chaos = &plan;
  auto r = Engine::run(
      g,
      [](NodeCtx& ctx) {
        std::vector<std::pair<NodeId, Word>> sends;
        for (NodeId u = 0; u < ctx.n(); ++u) {
          if (u != ctx.id()) {
            sends.emplace_back(u, Word(ctx.id() + 1, ctx.bandwidth()));
          }
        }
        auto got = ctx.round(sends);
        bool all_zero_full_width = true;
        for (NodeId u = 0; u < ctx.n(); ++u) {
          if (u == ctx.id()) continue;
          all_zero_full_width = all_zero_full_width &&
                                got[u].has_value() && got[u]->value == 0 &&
                                got[u]->bits == ctx.bandwidth();
        }
        ctx.decide(all_zero_full_width);
      },
      ecfg);
  EXPECT_TRUE(r.accepted());
  EXPECT_EQ(plan.fault_count(FaultKind::kDrop), 6u * 5u);
  for (const FaultEvent& e : plan.ledger()) {
    EXPECT_EQ(e.after.value, 0u);
    EXPECT_EQ(e.after.bits, e.before.bits);
  }
}

TEST(ChaosFaults, DuplicateAppendsSecondCopyOnExchange) {
  ChaosPlan::Config cfg;
  cfg.seed = 9;
  cfg.p_dup = 1.0;
  ChaosPlan plan(cfg);
  const Graph g = gen::empty(5);
  Engine::Config ecfg;
  ecfg.chaos = &plan;
  auto r = Engine::run(
      g,
      [](NodeCtx& ctx) {
        // One word per peer through exchange_flat (which tolerates any
        // queue length, unlike round()).
        std::vector<std::pair<NodeId, Word>> sends;
        for (NodeId u = 0; u < ctx.n(); ++u) {
          if (u != ctx.id()) {
            sends.emplace_back(u, Word(ctx.id() + 1, ctx.bandwidth()));
          }
        }
        const FlatInbox in = ctx.exchange_flat(sends);
        bool ok = true;
        for (NodeId u = 0; u < ctx.n(); ++u) {
          if (u == ctx.id()) continue;
          // Every cross word duplicated: two identical copies arrive.
          const auto got = in.from(u);
          ok = ok && got.size() == 2 && got[0] == got[1] &&
               got[0].value == u + 1;
        }
        ctx.decide(ok);
      },
      ecfg);
  EXPECT_TRUE(r.accepted());
  EXPECT_EQ(plan.fault_count(FaultKind::kDuplicate), 5u * 4u);
}

TEST(ChaosFaults, ByzantineAdversaryRewritesClampedToWidth) {
  ChaosPlan::Config cfg;
  cfg.seed = 10;
  cfg.byzantine = {2};
  cfg.adversary = [](const AdversaryView& view) {
    EXPECT_EQ(view.src, 2u);
    // Deliberately over-wide: the plane must clamp to the declared width.
    return ~std::uint64_t{0};
  };
  ChaosPlan plan(cfg);
  const Graph g = gen::empty(6);
  Engine::Config ecfg;
  ecfg.chaos = &plan;
  auto r = Engine::run(
      g,
      [](NodeCtx& ctx) {
        std::vector<std::pair<NodeId, Word>> sends;
        for (NodeId u = 0; u < ctx.n(); ++u) {
          if (u != ctx.id()) sends.emplace_back(u, Word(0, ctx.bandwidth()));
        }
        auto got = ctx.round(sends);
        bool ok = true;
        for (NodeId u = 0; u < ctx.n(); ++u) {
          if (u == ctx.id()) continue;
          const std::uint64_t want =
              u == 2 ? (std::uint64_t{1} << ctx.bandwidth()) - 1 : 0;
          ok = ok && got[u].has_value() && got[u]->value == want &&
               got[u]->bits == ctx.bandwidth();
        }
        ctx.decide(ok);
      },
      ecfg);
  EXPECT_TRUE(r.accepted());
  // Node 2 rewrites all 5 outgoing words; nobody else is touched.
  EXPECT_EQ(plan.fault_count(FaultKind::kByzantine), 5u);
  for (const FaultEvent& e : plan.ledger()) EXPECT_EQ(e.src, 2u);
}

TEST(ChaosFaults, SelfQueueIsNeverFaulted) {
  ChaosPlan::Config cfg;
  cfg.seed = 11;
  cfg.p_flip = 1.0;
  cfg.byzantine = {0, 1, 2, 3};
  ChaosPlan plan(cfg);
  const Graph g = gen::empty(4);
  Engine::Config ecfg;
  ecfg.chaos = &plan;
  auto r = Engine::run(
      g,
      [](NodeCtx& ctx) {
        const std::vector<std::pair<NodeId, Word>> sends = {
            {ctx.id(), Word(ctx.id(), ctx.bandwidth())}};
        const auto got = ctx.exchange_flat(sends).from(ctx.id());
        ctx.decide(got.size() == 1 && got[0].value == ctx.id());
      },
      ecfg);
  EXPECT_TRUE(r.accepted());
  EXPECT_EQ(plan.total_faults(), 0u);
}

TEST(ChaosDeterminism, LedgerAndOutputsIdenticalAcrossSubstrates) {
  const Graph g = gen::gnp(12, 0.5, 42);
  std::vector<FaultEvent> ref_ledger;
  std::vector<std::uint64_t> ref_outputs;
  for (const ChaosSetup& s : kSetups) {
    ChaosPlan::Config cfg;
    cfg.seed = 1234;
    cfg.p_flip = 0.3;
    cfg.p_drop = 0.1;
    cfg.p_dup = 0.1;
    cfg.byzantine = {3};
    ChaosPlan plan(cfg);
    auto r = Engine::run(g, all_to_all_sum, config_for(s, &plan));
    ASSERT_GT(plan.total_faults(), 0u) << s.name;
    if (ref_ledger.empty()) {
      ref_ledger = plan.ledger();
      ref_outputs = r.outputs;
      continue;
    }
    EXPECT_EQ(plan.ledger(), ref_ledger) << s.name;
    EXPECT_EQ(r.outputs, ref_outputs) << s.name;
  }
}

TEST(ChaosDeterminism, ZeroProbabilityPlanIsAnExactNoop) {
  const Graph g = gen::gnp(10, 0.4, 7);
  const auto clean = Engine::run(g, all_to_all_sum, Engine::Config{});
  ChaosPlan plan;  // all probabilities zero, no byzantine nodes
  Engine::Config cfg;
  cfg.chaos = &plan;
  const auto chaotic = Engine::run(g, all_to_all_sum, cfg);
  EXPECT_EQ(chaotic.outputs, clean.outputs);
  EXPECT_EQ(chaotic.cost.rounds, clean.cost.rounds);
  EXPECT_EQ(plan.total_faults(), 0u);
  EXPECT_TRUE(plan.ledger().empty());
}

TEST(ChaosLifecycle, BusyPlanRunsFaultFree) {
  ChaosPlan::Config cfg;
  cfg.p_flip = 1.0;
  ChaosPlan plan(cfg);
  ASSERT_TRUE(plan.try_acquire());  // simulate another run holding it
  const Graph g = gen::empty(4);
  Engine::Config ecfg;
  ecfg.chaos = &plan;
  const auto r = Engine::run(g, all_to_all_sum, ecfg);
  plan.release();
  EXPECT_EQ(plan.total_faults(), 0u);
  const auto clean = Engine::run(g, all_to_all_sum, Engine::Config{});
  EXPECT_EQ(r.outputs, clean.outputs);
}

TEST(ChaosLifecycle, LedgerCapConvertsRecordsToOverflow) {
  ChaosPlan::Config cfg;
  cfg.seed = 5;
  cfg.p_flip = 1.0;
  cfg.max_ledger = 4;
  ChaosPlan plan(cfg);
  const Graph g = gen::empty(8);
  Engine::Config ecfg;
  ecfg.chaos = &plan;
  Engine::run(g, all_to_all_sum, ecfg);
  EXPECT_EQ(plan.ledger().size(), 4u);
  EXPECT_EQ(plan.total_faults(), 8u * 7u);
  EXPECT_EQ(plan.ledger_overflow(), 8u * 7u - 4u);
  plan.clear();
  EXPECT_TRUE(plan.ledger().empty());
  EXPECT_EQ(plan.total_faults(), 0u);
  EXPECT_EQ(plan.ledger_overflow(), 0u);
}

TEST(ChaosLifecycle, ComposesWithRoundTrace) {
  ChaosPlan::Config cfg;
  cfg.seed = 6;
  cfg.p_flip = 1.0;
  ChaosPlan plan(cfg);
  RoundTrace trace;
  const Graph g = gen::empty(6);
  Engine::Config ecfg;
  ecfg.chaos = &plan;
  ecfg.trace = &trace;
  Engine::run(g, all_to_all_sum, ecfg);
  EXPECT_GT(plan.total_faults(), 0u);
  EXPECT_FALSE(trace.records().empty());
  EXPECT_TRUE(plan.try_acquire());
  plan.release();
}

// --- the campaign itself ------------------------------------------------

TEST(SoundnessCampaign, CleanAcceptsAndCorruptRejectsEveryCase) {
  // 12 trials cover both backends six times each; the bench sweeps the
  // statistically meaningful byzantine rates.
  for (const auto& c : soundness::cases()) {
    const auto r = soundness::run_case(c, 16, 12);
    EXPECT_EQ(r.clean_accepts, r.trials) << c.name;
    EXPECT_EQ(r.corrupt_rejects, r.trials) << c.name;
  }
}

TEST(SoundnessCampaign, ReportAggregatesAndFloors) {
  soundness::Report r;
  r.trials = 10;
  r.clean_accepts = 10;
  r.corrupt_rejects = 10;
  r.byz_rejects = 7;
  r.byz_floor = 0.6;
  EXPECT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.byz_rate(), 0.7);
  r.byz_floor = 0.8;
  EXPECT_FALSE(r.byz_ok());
  r.byz_floor = 0.6;
  r.corrupt_rejects = 9;
  EXPECT_FALSE(r.ok());
}

// Regression for the soundness escape the campaign flushed out: the
// connectivity verifier never validated the root's parent field, so a
// corrupted certificate differing from an accepted one only in those bits
// sailed through. The fix pins the canonical self-parent encoding.
TEST(SoundnessRegression, ConnectivityRootParentFlipRejected) {
  const Graph g = gen::path(8);  // a tree; node 0 is the BFS root
  const RoundVerifier v = verifiers::connectivity();
  auto z = v.prover(g);
  ASSERT_TRUE(z.has_value());
  ASSERT_TRUE(run_verifier(g, v, *z).accepted());
  const unsigned idb = node_id_bits(g.n());
  for (unsigned bit = 0; bit < idb; ++bit) {
    Labelling bad = *z;
    bad[0].set(idb + bit, !bad[0].get(idb + bit));  // root's parent field
    EXPECT_FALSE(run_verifier(g, v, bad).accepted())
        << "root parent bit " << bit << " escaped";
  }
}

// The k-colouring campaign escape was an instance-rigidity bug, not a
// verifier bug: with an EMPTY colour class, flipping a node into it is a
// genuinely proper recolouring and MUST be accepted. Pin that the verifier
// keeps the correct behaviour (∃z semantics, not certificate pinning).
TEST(SoundnessRegression, ColouringFlipIntoEmptyClassIsProperlyAccepted) {
  const unsigned k = 4;
  // Complete 3-partite on classes {0,1}, {2,3}, {4,5}: colour 3 is unused.
  const NodeId n = 6;
  std::vector<std::uint64_t> colour = {0, 0, 1, 1, 2, 2};
  Graph g = Graph::undirected(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId w = u + 1; w < n; ++w) {
      if (colour[u] != colour[w]) g.add_edge(u, w);
    }
  }
  const RoundVerifier v = verifiers::k_colouring(k);
  Labelling z(n);
  for (NodeId u = 0; u < n; ++u) {
    BitVector b;
    b.append_bits(colour[u], 2);
    z[u] = std::move(b);
  }
  ASSERT_TRUE(run_verifier(g, v, z).accepted());
  // Flip node 5 from colour 2 to the empty colour 3 (bit 0): proper.
  Labelling moved = z;
  moved[5].set(0, true);
  EXPECT_TRUE(run_verifier(g, v, moved).accepted());
  // Flip node 5 from colour 2 to inhabited colour 0 (bit 1): conflict.
  Labelling clash = z;
  clash[5].set(1, false);
  EXPECT_FALSE(run_verifier(g, v, clash).accepted());
}

}  // namespace
}  // namespace ccq
