// Tests for the broadcast congested clique (§2) and the one-round
// unicast-vs-broadcast achievability analysis.

#include "clique/broadcast.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "clique/trace.hpp"
#include "graph/generators.hpp"
#include "graphalg/sssp.hpp"
#include "harness/sweep.hpp"
#include "hierarchy/bcast_protocol.hpp"
#include "hierarchy/protocol.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace ccq {
namespace {

TEST(BroadcastClique, RoundDeliversSameWordToAll) {
  Graph g = gen::empty(5);
  auto r = run_broadcast_clique(g, [](BcastCtx& ctx) {
    auto in = ctx.round(Word(ctx.id() % 4, 2));
    for (NodeId v = 0; v < ctx.n(); ++v) {
      ASSERT_TRUE(in[v].has_value());
      EXPECT_EQ(in[v]->value, v % 4u);
    }
    ctx.output(0);
  });
  EXPECT_EQ(r.cost.rounds, 1u);
  EXPECT_EQ(r.cost.messages, 5u * 4);
}

TEST(BroadcastClique, SilentNodesSupported) {
  Graph g = gen::empty(4);
  run_broadcast_clique(g, [](BcastCtx& ctx) {
    auto in = ctx.round(ctx.id() == 0
                            ? std::optional<Word>(Word(1, 1))
                            : std::nullopt);
    EXPECT_TRUE(in[0].has_value());
    if (ctx.id() != 1) {
      EXPECT_FALSE(in[1].has_value());
    }
    ctx.output(0);
  });
}

TEST(BroadcastClique, DegreeSumAlgorithm) {
  // Classic BCC-friendly task: every node learns Σ deg(v) (= 2m).
  Graph g = gen::gnp(16, 0.3, 9);
  auto r = run_broadcast_clique(g, [](BcastCtx& ctx) {
    const unsigned idb = node_id_bits(ctx.n());
    auto in = ctx.round(Word(ctx.adj_row().popcount(), idb));
    std::uint64_t sum = 0;
    for (NodeId v = 0; v < ctx.n(); ++v) sum += in[v]->value;
    ctx.output(sum);
  });
  EXPECT_EQ(r.outputs[0], 2 * g.m());
  EXPECT_EQ(r.cost.rounds, 1u);
}

TEST(BroadcastClique, GraphLearnableInNOverLogNRounds) {
  // Broadcasting the whole row still works in the BCC (it is a broadcast).
  Graph g = gen::gnp(16, 0.4, 3);
  auto r = run_broadcast_clique(g, [&](BcastCtx& ctx) {
    auto rows = ctx.broadcast(ctx.adj_row());
    std::size_t m = 0;
    for (auto& row : rows) m += row.popcount();
    ctx.output(m / 2);
  });
  EXPECT_EQ(r.outputs[0], g.m());
  EXPECT_EQ(r.cost.rounds, ceil_div(16, node_id_bits(16)));
}

// ---------- one-round achievability: unicast vs broadcast ----------

TEST(ModelGap, TwoNodesModelsCoincide) {
  // With n = 2 there is one recipient, so "same message to all" is no
  // restriction at all.
  auto gap = one_round_model_gap(2, 1, 1);
  EXPECT_EQ(gap.unicast_count, gap.broadcast_count);
  EXPECT_TRUE(gap.separating_functions.empty());
}

TEST(ModelGap, TwoNodesMatchesGenomeEnumeration) {
  // Cross-validate the measurability analysis against the exhaustive
  // genome enumeration of ProtocolSpace (same model at n = 2).
  auto via_views = achievable_one_round_unicast(2, 1, 1);
  auto via_genomes = ProtocolSpace(2, 1, 1, 1).achievable_functions();
  ASSERT_EQ(via_views.size(), via_genomes.size());
  for (std::size_t i = 0; i < via_views.size(); ++i) {
    EXPECT_EQ(via_views[i], via_genomes[i]) << i;
  }
}

TEST(ModelGap, BroadcastIsSubsetOfUnicast) {
  auto uni = achievable_one_round_unicast(3, 1, 1);
  auto bc = achievable_one_round_broadcast(3, 1, 1);
  for (std::size_t i = 0; i < uni.size(); ++i) {
    EXPECT_LE(bc[i], uni[i]) << i;
  }
}

TEST(ModelGap, SaturationWhenInputsFitOneWord) {
  // When L ≤ b, every node can broadcast its whole input, so one round of
  // EITHER model already computes every function — function-computation
  // achievability cannot separate the models here (the genuine separation
  // is bandwidth-per-task, demonstrated by the personalised-messages test
  // below and bench_bcc).
  auto gap = one_round_model_gap(3, 1, 1);
  EXPECT_EQ(gap.unicast_count, std::size_t{256});
  EXPECT_EQ(gap.broadcast_count, std::size_t{256});
  EXPECT_TRUE(gap.separating_functions.empty());
}

TEST(ModelGap, ConstantsAlwaysAchievable) {
  auto bc = achievable_one_round_broadcast(3, 1, 1);
  EXPECT_TRUE(bc[0]);              // constant 0
  EXPECT_TRUE(bc[bc.size() - 1]);  // constant 1
}

// ---------- the measurable model separation: personalised messages -------

// Task: every node must deliver a DISTINCT word to every other node.
// Unicast: one round. Broadcast: the words must be serialised through the
// shared channel — Θ(n) rounds. This is §2's "bottleneck-free" motivation
// made concrete: per-task bandwidth, not function computability, is what
// the broadcast restriction destroys.
TEST(ModelSeparation, PersonalisedMessagesUnicastVsBroadcast) {
  for (NodeId n : {8u, 16u, 32u}) {
    const unsigned idb = node_id_bits(n);
    // Unicast: node v sends (v+u) mod n to node u; verify and count.
    auto uni = Engine::run(gen::empty(n), [idb](NodeCtx& ctx) {
      std::vector<std::pair<NodeId, Word>> sends;
      for (NodeId u = 0; u < ctx.n(); ++u) {
        if (u != ctx.id())
          sends.emplace_back(u, Word((ctx.id() + u) % ctx.n(), idb));
      }
      auto in = ctx.round(sends);
      bool ok = true;
      for (NodeId v = 0; v < ctx.n(); ++v) {
        if (v == ctx.id()) continue;
        ok = ok && in[v].has_value() &&
             in[v]->value == (v + ctx.id()) % ctx.n();
      }
      ctx.decide(ok);
    });
    EXPECT_TRUE(uni.accepted());
    EXPECT_EQ(uni.cost.rounds, 1u);

    // Broadcast: serialise — in round r, announce the word intended for
    // node (id + 1 + r) mod n; receivers pick out their slot.
    auto bc = run_broadcast_clique(gen::empty(n), [idb](BcastCtx& ctx) {
      bool ok = true;
      for (NodeId r = 0; r + 1 < ctx.n(); ++r) {
        const NodeId target = (ctx.id() + 1 + r) % ctx.n();
        auto in = ctx.round(Word((ctx.id() + target) % ctx.n(), idb));
        // Which sender addressed ME this round? sender s targets
        // (s + 1 + r) mod n = me  ⇒  s = (me - 1 - r) mod n.
        const NodeId s = static_cast<NodeId>(
            (ctx.id() + ctx.n() - 1 - r) % ctx.n());
        ok = ok && in[s].has_value() &&
             in[s]->value == (s + ctx.id()) % ctx.n();
      }
      ctx.decide(ok);
    });
    EXPECT_TRUE(bc.accepted());
    EXPECT_EQ(bc.cost.rounds, static_cast<std::uint64_t>(n) - 1);
  }
}

// ---------- pinned meters of the broadcast-shaped collectives ------------

// NodeCtx::broadcast, share_bit/any/all and BcastCtx::round each deliver
// one word sequence from a source to every other node. Each row runs one
// program built on them under a process-wide RoundTrace (bfs_clique and
// bellman_ford_clique call Engine::run themselves) and pins its meters, an
// output fingerprint and the ledger fingerprint, which folds every
// record's op label and per-node histograms.
struct Measured {
  CostMeter cost;
  std::uint64_t output_fp = 0;
};

struct BcastPin {
  std::string name;
  std::function<Measured()> run;
  std::uint64_t rounds, messages, bits, collectives, max_sent, max_received;
  std::uint64_t output_fp, ledger_fp;
};

Measured measured(const RunResult& r) {
  return {r.cost, harness::outputs_fp(r.outputs)};
}

Measured measured(const SsspResult& r) {
  std::vector<std::uint64_t> out(r.dist);
  out.insert(out.end(), r.parent.begin(), r.parent.end());
  return {r.cost, harness::outputs_fp(out)};
}

// gen::path(n) with node v renamed perm[v] (a seeded shuffle); the BFS
// source is the image of endpoint 0, so the diameter is n - 1.
Measured bfs_relabelled_path(NodeId n, std::uint64_t seed) {
  std::vector<NodeId> perm(n);
  for (NodeId v = 0; v < n; ++v) perm[v] = v;
  SplitMix64 rng(seed);
  for (NodeId i = n; i-- > 1;)
    std::swap(perm[i], perm[static_cast<NodeId>(rng.next_below(i + 1))]);
  Graph g = Graph::undirected(n);
  for (const Edge& e : gen::path(n).edges()) g.add_edge(perm[e.u], perm[e.v]);
  return measured(bfs_clique(g, perm[0]));
}

// share_bit, then any and all over mixed and uniform votes.
Measured bit_collectives(NodeId n) {
  return measured(Engine::run(gen::empty(n), [](NodeCtx& ctx) {
    const NodeId id = ctx.id();
    std::uint64_t acc = 0;
    for (bool b : ctx.share_bit(id % 3 == 1)) acc = acc * 2 + b;
    acc = acc * 2 + ctx.any(id + 1 == ctx.n());
    acc = acc * 2 + ctx.any(false);
    acc = acc * 2 + ctx.all(id % 2 == 0);
    acc = acc * 2 + ctx.all(true);
    ctx.output(acc);
  }));
}

// Degree sum over three broadcast rounds: even-degree nodes speak in the
// first, odd-degree nodes in the second, and everyone is silent in the
// third.
Measured degree_sum_with_silent_nodes() {
  return measured(
      run_broadcast_clique(gen::gnp(24, 0.3, 9), [](BcastCtx& ctx) {
        const unsigned idb = node_id_bits(ctx.n());
        const std::size_t deg = ctx.adj_row().popcount();
        std::uint64_t sum = 0;
        for (int r = 0; r < 3; ++r) {
          const bool speak = r < 2 && (deg % 2 == 0) == (r == 0);
          const auto in = ctx.round(speak ? std::optional<Word>(Word(deg, idb))
                                          : std::nullopt);
          for (const auto& w : in)
            if (w.has_value()) sum += w->value;
        }
        ctx.output(sum);
      }));
}

TEST(BroadcastCollectives, MetersAndLedgerPinned) {
  const BcastPin pins[] = {
      {"bfs path n=1", [] { return bfs_relabelled_path(1, 7); },
       2, 0, 0, 2, 0, 0, 0x88201fb960ff6465, 0xb4fe9b5a5b9d8807},
      {"bfs path n=2", [] { return bfs_relabelled_path(2, 7); },
       4, 8, 8, 4, 4, 4, 0xe5da673c90210b44, 0xeb19ffebf4827bb9},
      {"bfs path n=17", [] { return bfs_relabelled_path(17, 7); },
       34, 9248, 9248, 34, 544, 544, 0x21fa51ab30f2e5c2, 0x75cd186adfecc6a7},
      {"bfs path n=64", [] { return bfs_relabelled_path(64, 7); },
       128, 516096, 516096, 128, 8064, 8064, 0x544c6f187dd9797f, 0x305a704358a096a5},
      {"bellman_ford gnp_weighted n=48",
       [] {
         return measured(
             bellman_ford_clique(gen::gnp_weighted(48, 0.1, 20, 3), 0));
       },
       27, 60912, 223344, 18, 1269, 1269, 0xdd1833ea05742a3f, 0x10f5ff5659e579fd},
      {"share_bit/any/all n=1", [] { return bit_collectives(1); },
       5, 0, 0, 5, 0, 0, 0xbf98f7838a83d4ee, 0x2249fd675dae2ee4},
      {"share_bit/any/all n=2", [] { return bit_collectives(2); },
       5, 10, 10, 5, 5, 5, 0xd86c32e31c64e945, 0xa768d6eef8320cc4},
      {"share_bit/any/all n=33", [] { return bit_collectives(33); },
       5, 5280, 5280, 5, 160, 160, 0x652c0b6e0b750508, 0x1563f0ba2f4083e4},
      {"bcast degree sum, silent nodes", degree_sum_with_silent_nodes,
       3, 552, 2760, 3, 23, 23, 0xed0e338f5431225, 0x8565fd3ebe283541},
      {"broadcast_adj gnp n=64",
       [] {
         return measured(Engine::run(gen::gnp(64, 0.3, 5),
                                     harness::find_algorithm("broadcast_adj")));
       },
       11, 44352, 258048, 1, 693, 693, 0x7dd90e472fa63925, 0x34d8c657b1c1fa95},
  };
  for (const BcastPin& p : pins) {
    RoundTrace trace;
    trace::set_global(&trace);
    Measured m;
    try {
      m = p.run();
    } catch (...) {
      trace::set_global(nullptr);
      throw;
    }
    trace::set_global(nullptr);
    const std::uint64_t fp = harness::ledger_fingerprint(trace);
    EXPECT_TRUE(trace.totals_match()) << p.name;
    const CostMeter& c = m.cost;
    const bool same = c.rounds == p.rounds && c.messages == p.messages &&
                      c.bits == p.bits && c.collectives == p.collectives &&
                      c.max_node_sent == p.max_sent &&
                      c.max_node_received == p.max_received &&
                      m.output_fp == p.output_fp && fp == p.ledger_fp;
    EXPECT_TRUE(same) << p.name << " measured {" << c.rounds << ", "
                      << c.messages << ", " << c.bits << ", "
                      << c.collectives << ", " << c.max_node_sent << ", "
                      << c.max_node_received << ", 0x" << std::hex
                      << m.output_fp << ", 0x" << fp << std::dec << "}";
  }
}

}  // namespace
}  // namespace ccq
