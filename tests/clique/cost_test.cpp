#include "clique/cost.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "clique/engine.hpp"
#include "graph/generators.hpp"

namespace ccq {
namespace {

TEST(CostMeter, AddAccumulatesTotals) {
  CostMeter a;
  a.rounds = 3;
  a.messages = 10;
  a.bits = 40;
  a.collectives = 2;
  CostMeter b;
  b.rounds = 4;
  b.messages = 5;
  b.bits = 15;
  b.collectives = 1;
  a.add(b);
  EXPECT_EQ(a.rounds, 7u);
  EXPECT_EQ(a.messages, 15u);
  EXPECT_EQ(a.bits, 55u);
  EXPECT_EQ(a.collectives, 3u);
}

TEST(CostMeter, AddTakesMaxOfPerNodeMaxima) {
  // max_node_sent / max_node_received are run-wide maxima, not totals:
  // composing two phases must take the heavier phase, not the sum (summing
  // would inflate the Lenzen-routing statistic the bounds are stated in).
  CostMeter a;
  a.max_node_sent = 7;
  a.max_node_received = 5;
  CostMeter b;
  b.max_node_sent = 4;
  b.max_node_received = 9;
  a.add(b);
  EXPECT_EQ(a.max_node_sent, 7u);
  EXPECT_EQ(a.max_node_received, 9u);
}

TEST(CostMeter, ComposingTwoEngineRunsKeepsMaxSemantics) {
  const Graph g = gen::empty(5);
  // Phase 1: node 0 sends 6 words to node 1. Phase 2: node 1 sends 2 words
  // each to nodes 0 and 2.
  auto phase1 = Engine::run(g, [](NodeCtx& ctx) {
    std::vector<std::pair<NodeId, Word>> sends;
    if (ctx.id() == 0) {
      for (int i = 0; i < 6; ++i) sends.emplace_back(1, Word(i % 2, 1));
    }
    ctx.exchange_flat(sends);
    ctx.output(0);
  });
  auto phase2 = Engine::run(g, [](NodeCtx& ctx) {
    std::vector<std::pair<NodeId, Word>> sends;
    if (ctx.id() == 1) {
      for (int i = 0; i < 2; ++i) {
        sends.emplace_back(0, Word(i % 2, 1));
        sends.emplace_back(2, Word(i % 2, 1));
      }
    }
    ctx.exchange_flat(sends);
    ctx.output(0);
  });
  ASSERT_EQ(phase1.cost.max_node_sent, 6u);
  ASSERT_EQ(phase2.cost.max_node_sent, 4u);

  CostMeter composed = phase1.cost;
  composed.add(phase2.cost);
  EXPECT_EQ(composed.rounds, phase1.cost.rounds + phase2.cost.rounds);
  EXPECT_EQ(composed.messages, 6u + 4u);
  EXPECT_EQ(composed.max_node_sent,
            std::max(phase1.cost.max_node_sent, phase2.cost.max_node_sent));
  EXPECT_EQ(composed.max_node_received,
            std::max(phase1.cost.max_node_received,
                     phase2.cost.max_node_received));
}

TEST(CostMeter, AddRefusesToWrapSixtyFourBits) {
  // Regression: add() used to wrap silently. A meter accumulated across a
  // long campaign sits near the top of the range; folding in one more
  // collective's delta (here an n·B product: a full n = 8192 round at
  // B = 13) must throw, not wrap to a tiny total.
  CostMeter total;
  total.bits = ~std::uint64_t{0} - 100;
  CostMeter delta;
  delta.bits = 8192ull * 13ull;
  EXPECT_THROW(total.add(delta), ModelViolation);

  CostMeter rounds_hi;
  rounds_hi.rounds = ~std::uint64_t{0};
  CostMeter one_round;
  one_round.rounds = 1;
  EXPECT_THROW(rounds_hi.add(one_round), ModelViolation);

  // Maxima are max-composed, never summed: saturated maxima stay legal.
  CostMeter maxed;
  maxed.max_node_sent = ~std::uint64_t{0};
  CostMeter more;
  more.max_node_sent = 5;
  maxed.add(more);
  EXPECT_EQ(maxed.max_node_sent, ~std::uint64_t{0});
}

}  // namespace
}  // namespace ccq
