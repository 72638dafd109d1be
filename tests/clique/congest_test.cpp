// Tests for the CONGEST-model restriction and the bottleneck phenomenon
// that motivates the congested clique (§2).

#include "clique/congest.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/oracles.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace ccq {
namespace {

TEST(Congest, NeighbourSendsDelivered) {
  Graph g = gen::path(4);
  auto r = run_congest(g, [](CongestCtx& ctx) {
    std::vector<std::pair<NodeId, Word>> sends;
    if (ctx.id() + 1 < ctx.n())
      sends.emplace_back(ctx.id() + 1, Word(1, 1));
    auto in = ctx.round(sends);
    if (ctx.id() > 0) {
      EXPECT_TRUE(in[ctx.id() - 1].has_value());
    }
    ctx.output(0);
  });
  EXPECT_EQ(r.cost.rounds, 1u);
}

TEST(Congest, NonEdgeSendRejected) {
  Graph g = gen::path(4);  // 0 and 3 not adjacent
  EXPECT_THROW(run_congest(g,
                           [](CongestCtx& ctx) {
                             std::vector<std::pair<NodeId, Word>> sends;
                             if (ctx.id() == 0)
                               sends.emplace_back(3, Word(1, 1));
                             ctx.round(sends);
                             ctx.output(0);
                           }),
               ModelViolation);
}

// Flooding a token takes eccentricity rounds — distance is real in
// CONGEST, unlike in the clique.
TEST(Congest, FloodingTakesDiameterRounds) {
  const NodeId n = 12;
  Graph g = gen::path(n);
  auto r = run_congest(g, [](CongestCtx& ctx) {
    bool have = ctx.id() == 0;
    std::uint64_t heard_at = have ? 0 : ~0ull;
    for (NodeId step = 0; step + 1 < ctx.n(); ++step) {
      std::vector<std::pair<NodeId, Word>> sends;
      if (have) {
        const BitVector& row = ctx.adj_row();
        for (std::size_t u = row.find_first(); u < row.size();
             u = row.find_first(u + 1)) {
          sends.emplace_back(static_cast<NodeId>(u), Word(1, 1));
        }
      }
      auto in = ctx.round(sends);
      if (!have) {
        for (NodeId v = 0; v < ctx.n(); ++v) {
          if (in[v]) {
            have = true;
            heard_at = step + 1;
            break;
          }
        }
      }
    }
    ctx.output(heard_at);
  });
  for (NodeId v = 0; v < n; ++v) EXPECT_EQ(r.outputs[v], v);  // dist to 0
}

// The §2 bottleneck: two cliques joined by a single bridge. Moving L bits
// across costs ⌈L/B⌉ rounds in CONGEST (all flow crosses one edge), vs
// ⌈L/(B·(n/2))⌉-ish in the clique where the cut has Θ(n²) capacity.
TEST(Congest, BridgeBottleneckVsClique) {
  const NodeId n = 16;
  const NodeId half = n / 2;
  Graph g = Graph::undirected(n);
  for (NodeId u = 0; u < half; ++u)
    for (NodeId v = u + 1; v < half; ++v) g.add_edge(u, v);
  for (NodeId u = half; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) g.add_edge(u, v);
  g.add_edge(half - 1, half);  // the bridge

  // Task: node n-1 must learn an L-bit string held by node 0.
  const unsigned L = 64;
  const unsigned B = node_id_bits(n);

  // CONGEST: relay 0 → ... → bridge → ... → n-1 along a path; every bit
  // crosses the single bridge edge: ≥ ⌈L/B⌉ rounds just for the cut.
  auto congest_run = run_congest(g, [L, half](CongestCtx& ctx) {
    const unsigned B = ctx.bandwidth();
    const unsigned chunks = static_cast<unsigned>(ceil_div(L, B));
    // Pipeline along the path 0, 1, ..., n-1 (all consecutive ids are
    // adjacent in this construction).
    std::vector<std::uint64_t> buffer;
    SplitMix64 src_bits(7);
    if (ctx.id() == 0) {
      for (unsigned c = 0; c < chunks; ++c)
        buffer.push_back(src_bits.next() & ((1ull << B) - 1));
    }
    std::uint64_t received_chunks = 0;
    const unsigned total_steps = chunks + ctx.n();
    for (unsigned step = 0; step < total_steps; ++step) {
      std::vector<std::pair<NodeId, Word>> sends;
      if (!buffer.empty() && ctx.id() + 1 < ctx.n()) {
        sends.emplace_back(ctx.id() + 1, Word(buffer.front(), B));
        buffer.erase(buffer.begin());
      }
      auto in = ctx.round(sends);
      if (ctx.id() > 0 && in[ctx.id() - 1]) {
        buffer.push_back(in[ctx.id() - 1]->value);
        if (ctx.id() + 1 == ctx.n()) ++received_chunks;
      }
    }
    (void)half;
    ctx.output(ctx.id() + 1 == ctx.n() ? received_chunks : 0);
  });
  const auto congest_rounds = congest_run.cost.rounds;
  EXPECT_EQ(congest_run.outputs[n - 1], ceil_div(L, B));

  // Clique: node 0 stripes the chunks across n-1 helpers (1 round), which
  // forward to n-1 (1 round): 2 + ⌈L/(B(n-1))⌉-ish rounds.
  auto clique_run = Engine::run(g, [L](NodeCtx& ctx) {
    const unsigned B = ctx.bandwidth();
    const unsigned chunks = static_cast<unsigned>(ceil_div(L, B));
    SplitMix64 src_bits(7);
    std::vector<std::pair<NodeId, Word>> out;
    if (ctx.id() == 0) {
      for (unsigned c = 0; c < chunks; ++c) {
        out.emplace_back(1 + (c % (ctx.n() - 1)),
                         Word(src_bits.next() & ((1ull << B) - 1), B));
      }
    }
    const FlatInbox in = ctx.exchange_flat(out);
    std::vector<std::pair<NodeId, Word>> fwd;
    if (ctx.id() != 0) {
      for (const Word& w : in.from(0)) fwd.emplace_back(ctx.n() - 1, w);
    }
    const FlatInbox fin = ctx.exchange_flat(fwd);
    std::uint64_t got = 0;
    if (ctx.id() + 1 == ctx.n()) {
      for (NodeId v = 0; v < ctx.n(); ++v) got += fin.from(v).size();
    }
    ctx.output(got);
  });
  EXPECT_GE(congest_rounds, ceil_div(L, B));
  EXPECT_LT(clique_run.cost.rounds, congest_rounds / 2);
}

}  // namespace
}  // namespace ccq
