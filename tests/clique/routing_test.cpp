#include "clique/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace ccq {
namespace {

using Delivery = std::map<std::pair<NodeId, NodeId>, std::vector<std::uint64_t>>;

// Runs a router on a demand pattern and returns (per (src,dst): payload
// multiset) plus the cost. demand(src) yields that node's messages.
template <typename Router, typename DemandFn>
std::pair<Delivery, CostMeter> run_router(NodeId n, Router router,
                                          DemandFn demand) {
  Graph g = gen::empty(n);
  std::mutex mu;
  Delivery got;
  auto res = Engine::run(g, [&](NodeCtx& ctx) {
    std::vector<RoutedMessage> msgs = demand(ctx.id(), ctx.n());
    auto received = router(ctx, msgs);
    {
      std::lock_guard<std::mutex> lk(mu);
      for (auto& [src, w] : received) {
        got[{src, ctx.id()}].push_back(w.value);
      }
    }
    ctx.output(0);
  });
  for (auto& [k, v] : got) std::sort(v.begin(), v.end());
  return {std::move(got), res.cost};
}

template <typename DemandFn>
Delivery expected_delivery(NodeId n, DemandFn demand) {
  Delivery want;
  for (NodeId src = 0; src < n; ++src) {
    for (const RoutedMessage& m : demand(src, n)) {
      want[{src, m.dst}].push_back(m.payload.value);
    }
  }
  for (auto& [k, v] : want) std::sort(v.begin(), v.end());
  return want;
}

auto direct = [](NodeCtx& c, const std::vector<RoutedMessage>& m) {
  return route_direct(c, m);
};
auto balanced = [](NodeCtx& c, const std::vector<RoutedMessage>& m) {
  return route_balanced(c, m);
};

// Random demand: each node sends `per_node` messages to random destinations.
auto random_demand(std::uint64_t seed, std::size_t per_node) {
  return [seed, per_node](NodeId id, NodeId n) {
    SplitMix64 rng(seed ^ (id * 0x9e37ULL));
    std::vector<RoutedMessage> out;
    for (std::size_t i = 0; i < per_node; ++i) {
      NodeId dst;
      do {
        dst = static_cast<NodeId>(rng.next_below(n));
      } while (dst == id);
      out.push_back({dst, Word(rng.next_below(4), 2)});
    }
    return out;
  };
}

TEST(RouteDirect, DeliversEverything) {
  const NodeId n = 8;
  auto demand = random_demand(1, 12);
  auto [got, cost] = run_router(n, direct, demand);
  EXPECT_EQ(got, expected_delivery(n, demand));
}

TEST(RouteDirect, CostEqualsMaxPairLoad) {
  // Node 0 sends 9 messages all to node 1 → 9 rounds.
  auto demand = [](NodeId id, NodeId) {
    std::vector<RoutedMessage> out;
    if (id == 0)
      for (int i = 0; i < 9; ++i) out.push_back({1, Word(1, 1)});
    return out;
  };
  auto [got, cost] = run_router(4, direct, demand);
  EXPECT_EQ(cost.rounds, 9u);
}

TEST(RouteDirect, EmptyDemandCostsNothing) {
  auto demand = [](NodeId, NodeId) { return std::vector<RoutedMessage>{}; };
  auto [got, cost] = run_router(5, direct, demand);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(cost.rounds, 0u);
}

TEST(RouteBalanced, DeliversEverything) {
  const NodeId n = 9;
  auto demand = random_demand(2, 15);
  auto [got, cost] = run_router(n, balanced, demand);
  EXPECT_EQ(got, expected_delivery(n, demand));
}

TEST(RouteBalanced, DeliversSkewedHotspot) {
  // Every node sends n messages, all to node 0: S = n sent, R = n^2... no —
  // receiver load must be ≤ about n for Lenzen's regime, so send n messages
  // spread as "all nodes → node 0, one message each, times n batches" is
  // out of regime; instead: each node sends 1 message to node 0 (R = n-1).
  auto demand = [](NodeId id, NodeId) {
    std::vector<RoutedMessage> out;
    if (id != 0) out.push_back({0, Word(id % 2, 1)});
    return out;
  };
  const NodeId n = 16;
  auto [got, cost] = run_router(n, balanced, demand);
  EXPECT_EQ(got, expected_delivery(n, demand));
}

TEST(RouteBalanced, SingleHeavyPairBeatsDirect) {
  // Node 0 sends m = n/2·n messages to node 1. Direct: m rounds on one
  // link. Balanced: stripes across n intermediaries.
  const NodeId n = 16;
  const std::size_t m = 64;
  auto demand = [m](NodeId id, NodeId) {
    std::vector<RoutedMessage> out;
    if (id == 0)
      for (std::size_t i = 0; i < m; ++i)
        out.push_back({1, Word(i % 2, 1)});
    return out;
  };
  auto [got_d, cost_d] = run_router(n, direct, demand);
  auto [got_b, cost_b] = run_router(n, balanced, demand);
  EXPECT_EQ(got_d, got_b);
  EXPECT_EQ(cost_d.rounds, m);  // 64 rounds over the single pair
  // Balanced: phase 1 ⌈m/n⌉·2 = 8, phase 2: node 1 receives m messages
  // from n intermediaries ≈ ⌈m/n⌉·2 = 8; far below direct.
  EXPECT_LT(cost_b.rounds, cost_d.rounds / 2);
}

TEST(RouteBalanced, LenzenRegimeIsConstantRounds) {
  // Lenzen's regime: every node sends ≤ n and receives ≤ n messages.
  // Random balanced demand: each node sends exactly n messages to random
  // destinations. Rounds must be O(1)·(S/n + 1) — assert a fixed budget.
  for (NodeId n : {8u, 16u, 32u}) {
    auto demand = [](NodeId id, NodeId nn) {
      SplitMix64 rng(id * 7919 + 13);
      std::vector<RoutedMessage> out;
      for (NodeId i = 0; i < nn; ++i) {
        NodeId dst;
        do {
          dst = static_cast<NodeId>(rng.next_below(nn));
        } while (dst == id);
        out.push_back({dst, Word(1, 1)});
      }
      return out;
    };
    auto [got, cost] = run_router(n, balanced, demand);
    EXPECT_EQ(got, expected_delivery(n, demand));
    // Phase 1: ⌈n/n⌉·2 = 2 word-rounds; phase 2 load concentration on a
    // random pattern stays within a small constant factor.
    EXPECT_LE(cost.rounds, 24u) << "n=" << n;
  }
}

TEST(RouteBalanced, ReportsOriginalSources) {
  // Message payloads encode the source so we can cross-check attribution.
  const NodeId n = 8;
  auto demand = [](NodeId id, NodeId nn) {
    std::vector<RoutedMessage> out;
    out.push_back({static_cast<NodeId>((id + 1) % nn), Word(id, 3)});
    return out;
  };
  Graph g = gen::empty(n);
  Engine::run(g, [&](NodeCtx& ctx) {
    auto received = route_balanced(ctx, demand(ctx.id(), ctx.n()));
    ASSERT_EQ(received.size(), 1u);
    const NodeId expect_src = (ctx.id() + n - 1) % n;
    EXPECT_EQ(received[0].first, expect_src);
    EXPECT_EQ(received[0].second.value, expect_src);
    ctx.output(0);
  });
}

TEST(RouteDirect, PreservesPerSourceOrder) {
  const NodeId n = 4;
  Graph g = gen::empty(n);
  Engine::run(g, [&](NodeCtx& ctx) {
    std::vector<RoutedMessage> msgs;
    if (ctx.id() == 2) {
      for (std::uint64_t i = 0; i < 5; ++i)
        msgs.push_back({0, Word(i % 4, 2)});
    }
    auto received = route_direct(ctx, msgs);
    if (ctx.id() == 0) {
      ASSERT_EQ(received.size(), 5u);
      for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(received[i].second.value, i % 4);
    }
    ctx.output(0);
  });
}


TEST(RouteBalanced, PerNodeLoadsStayLinearInLenzenRegime) {
  // The quantitative content of the substitution (DESIGN.md §1): in the
  // ≤n-sent regime the relay keeps every node's total traffic O(n) words
  // (2 words per message and per relay hop), so the drain is O(1) rounds.
  const NodeId n = 32;
  auto demand = [](NodeId id, NodeId nn) {
    SplitMix64 rng(id * 31 + 5);
    std::vector<RoutedMessage> out;
    for (NodeId i = 0; i < nn; ++i) {
      NodeId dst;
      do {
        dst = static_cast<NodeId>(rng.next_below(nn));
      } while (dst == id);
      out.push_back({dst, Word(1, 1)});
    }
    return out;
  };
  auto res = Engine::run(gen::empty(n), [&](NodeCtx& ctx) {
    auto got = route_balanced(ctx, demand(ctx.id(), ctx.n()));
    ctx.output(got.size());
  });
  // Each node sends n messages → 2n words in phase 1, relays ≈ n messages
  // → 2n words in phase 2: ≤ ~4n sent; receiving is symmetric plus
  // balls-in-bins slack.
  EXPECT_LE(res.cost.max_node_sent, 5u * n);
  EXPECT_LE(res.cost.max_node_received, 7u * n);
}

TEST(Engine, PerNodeLoadMetersExact) {
  // Node 0 sends 3 words to node 1 and 2 to node 2; meters must report
  // exactly max_sent = 5 (node 0) and max_received = 3 (node 1).
  auto res = Engine::run(gen::empty(4), [](NodeCtx& ctx) {
    std::vector<std::pair<NodeId, Word>> sends;
    if (ctx.id() == 0) {
      for (int i = 0; i < 3; ++i) sends.emplace_back(1, Word(1, 1));
      for (int i = 0; i < 2; ++i) sends.emplace_back(2, Word(1, 1));
    }
    ctx.exchange_flat(sends);
    ctx.output(0);
  });
  EXPECT_EQ(res.cost.max_node_sent, 5u);
  EXPECT_EQ(res.cost.max_node_received, 3u);
}

}  // namespace
}  // namespace ccq
