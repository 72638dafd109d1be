#include "clique/engine.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "util/math.hpp"

namespace ccq {
namespace {

TEST(Engine, TrivialOutputNoCommunication) {
  Graph g = gen::empty(4);
  auto r = Engine::run(g, [](NodeCtx& ctx) { ctx.output(ctx.id() + 10); });
  EXPECT_EQ(r.cost.rounds, 0u);
  EXPECT_EQ(r.outputs, (std::vector<std::uint64_t>{10, 11, 12, 13}));
}

TEST(Engine, AcceptedRejectedSemantics) {
  Graph g = gen::empty(3);
  EXPECT_TRUE(
      Engine::run(g, [](NodeCtx& c) { c.decide(true); }).accepted());
  EXPECT_TRUE(
      Engine::run(g, [](NodeCtx& c) { c.decide(false); }).rejected());
  auto mixed = Engine::run(g, [](NodeCtx& c) { c.decide(c.id() == 0); });
  EXPECT_FALSE(mixed.accepted());
  EXPECT_FALSE(mixed.rejected());
}

TEST(Engine, BandwidthIsCeilLog2N) {
  for (NodeId n : {2u, 3u, 16u, 17u, 64u}) {
    Graph g = gen::empty(n);
    auto r = Engine::run(g, [n](NodeCtx& ctx) {
      EXPECT_EQ(ctx.bandwidth(), ceil_log2(n));
      ctx.output(0);
    });
    (void)r;
  }
}

TEST(Engine, BandwidthMultiplier) {
  Graph g = gen::empty(16);
  Engine::Config cfg;
  cfg.bandwidth_multiplier = 3;
  Engine::run(
      g,
      [](NodeCtx& ctx) {
        EXPECT_EQ(ctx.bandwidth(), 12u);
        ctx.output(0);
      },
      cfg);
}

TEST(Engine, BandwidthBeyondWordLimitThrows) {
  // ⌈log₂16⌉·17 = 68 bits cannot fit a 64-bit Word; the engine must refuse
  // the configuration rather than silently clamp the cost semantics.
  Graph g = gen::empty(16);
  Engine::Config cfg;
  cfg.bandwidth_multiplier = 17;
  EXPECT_THROW(Engine::run(g, [](NodeCtx& ctx) { ctx.output(0); }, cfg),
               ModelViolation);
}

TEST(Engine, BandwidthOfExactly64BitsIsAccepted) {
  Graph g = gen::empty(16);  // base 4 bits
  Engine::Config cfg;
  cfg.bandwidth_multiplier = 16;  // B = 64, the widest legal channel
  auto r = Engine::run(
      g,
      [](NodeCtx& ctx) {
        EXPECT_EQ(ctx.bandwidth(), 64u);
        std::vector<std::pair<NodeId, Word>> sends;
        if (ctx.id() == 0) sends.emplace_back(1, Word(~0ull, 64));
        auto in = ctx.round(sends);
        ctx.output(ctx.id() == 1 && in[0] ? in[0]->value : 0);
      },
      cfg);
  EXPECT_EQ(r.outputs[1], ~0ull);
}

TEST(Engine, RoundDeliversPointToPoint) {
  Graph g = gen::empty(5);
  auto r = Engine::run(g, [](NodeCtx& ctx) {
    // Everyone sends its id+1 to node 0.
    std::vector<std::pair<NodeId, Word>> sends;
    if (ctx.id() != 0) sends.emplace_back(0, Word(ctx.id() + 1, 3));
    auto in = ctx.round(sends);
    if (ctx.id() == 0) {
      std::uint64_t sum = 0;
      for (NodeId v = 0; v < ctx.n(); ++v)
        if (in[v]) sum += in[v]->value;
      ctx.output(sum);  // 2+3+4+5 = 14
    } else {
      for (NodeId v = 0; v < ctx.n(); ++v) EXPECT_FALSE(in[v].has_value());
      ctx.output(0);
    }
  });
  EXPECT_EQ(r.outputs[0], 14u);
  EXPECT_EQ(r.cost.rounds, 1u);
  EXPECT_EQ(r.cost.messages, 4u);
}

TEST(Engine, EmptyRoundStillCostsOne) {
  Graph g = gen::empty(3);
  auto r = Engine::run(g, [](NodeCtx& ctx) {
    ctx.round({});
    ctx.round({});
    ctx.output(0);
  });
  EXPECT_EQ(r.cost.rounds, 2u);
  EXPECT_EQ(r.cost.messages, 0u);
}

TEST(Engine, ExchangeCostIsMaxQueue) {
  Graph g = gen::empty(4);
  auto r = Engine::run(g, [](NodeCtx& ctx) {
    std::vector<std::pair<NodeId, Word>> sends;
    if (ctx.id() == 0) {
      // 5 words to node 1; 2 words to node 2.
      for (int i = 0; i < 5; ++i) sends.emplace_back(1, Word(i % 4, 2));
      for (int i = 0; i < 2; ++i) sends.emplace_back(2, Word(i % 4, 2));
    }
    const FlatInbox in = ctx.exchange_flat(sends);
    if (ctx.id() == 1) {
      EXPECT_EQ(in.from(0).size(), 5u);
    }
    if (ctx.id() == 2) {
      EXPECT_EQ(in.from(0).size(), 2u);
    }
    ctx.output(0);
  });
  EXPECT_EQ(r.cost.rounds, 5u);
  EXPECT_EQ(r.cost.messages, 7u);
}

TEST(Engine, ParallelQueuesShareRounds) {
  // All ordered pairs carry 3 words: still only 3 rounds.
  Graph g = gen::empty(6);
  auto r = Engine::run(g, [](NodeCtx& ctx) {
    std::vector<std::pair<NodeId, Word>> sends;
    for (NodeId v = 0; v < ctx.n(); ++v) {
      if (v == ctx.id()) continue;
      for (int i = 0; i < 3; ++i) sends.emplace_back(v, Word(i, 2));
    }
    const FlatInbox in = ctx.exchange_flat(sends);
    for (NodeId v = 0; v < ctx.n(); ++v) {
      if (v != ctx.id()) {
        EXPECT_EQ(in.from(v).size(), 3u);
      }
    }
    ctx.output(0);
  });
  EXPECT_EQ(r.cost.rounds, 3u);
  EXPECT_EQ(r.cost.messages, 6u * 5 * 3);
}

TEST(Engine, ExchangePreservesFifoOrder) {
  Graph g = gen::empty(4);  // B = 2
  Engine::run(g, [](NodeCtx& ctx) {
    BitVector bits;
    for (std::uint64_t i = 0; i < 8; ++i) bits.append_bits(i % 4, 2);
    const std::vector<BitRun> runs = {{(ctx.id() + 1) % 4, &bits}};
    const FlatInbox in = ctx.exchange_flat(runs);
    const NodeId src = (ctx.id() + 3) % 4;
    ASSERT_EQ(in.words_from(src), 8u);
    const BitVector got = in.bits_from(src, 0, 16);
    for (std::uint64_t i = 0; i < 8; ++i)
      EXPECT_EQ(got.read_bits(2 * i, 2), i % 4);
    ctx.output(0);
  });
}

TEST(Engine, SelfDeliveryIsFree) {
  Graph g = gen::empty(3);
  auto r = Engine::run(g, [](NodeCtx& ctx) {
    const std::vector<std::pair<NodeId, Word>> sends(
        100, {ctx.id(), Word(1, 1)});
    const FlatInbox in = ctx.exchange_flat(sends);
    EXPECT_EQ(in.from(ctx.id()).size(), 100u);
    ctx.output(0);
  });
  EXPECT_EQ(r.cost.rounds, 0u);
  EXPECT_EQ(r.cost.messages, 0u);
}

TEST(Engine, BandwidthViolationThrows) {
  Graph g = gen::empty(4);  // B = 2
  EXPECT_THROW(Engine::run(g,
                           [](NodeCtx& ctx) {
                             std::vector<std::pair<NodeId, Word>> sends;
                             if (ctx.id() == 0)  // 8 > 2 bits
                               sends.emplace_back(1, Word(0xff, 8));
                             ctx.exchange_flat(sends);
                             ctx.output(0);
                           }),
               ModelViolation);
}

TEST(Engine, BroadcastDeliversAndCosts) {
  Graph g = gen::empty(8);  // B = 3
  auto r = Engine::run(g, [](NodeCtx& ctx) {
    BitVector mine(10);
    mine.set(ctx.id());
    auto all = ctx.broadcast(mine);
    for (NodeId v = 0; v < ctx.n(); ++v) {
      EXPECT_EQ(all[v].size(), 10u);
      EXPECT_TRUE(all[v].get(v));
      EXPECT_EQ(all[v].popcount(), 1u);
    }
    ctx.output(0);
  });
  EXPECT_EQ(r.cost.rounds, ceil_div(10, 3));
}

TEST(Engine, BroadcastLengthMismatchIsDivergence) {
  Graph g = gen::empty(3);
  EXPECT_THROW(Engine::run(g,
                           [](NodeCtx& ctx) {
                             BitVector mine(ctx.id() == 0 ? 5 : 6);
                             ctx.broadcast(mine);
                             ctx.output(0);
                           }),
               ModelViolation);
}

TEST(Engine, ShareBitAndReductions) {
  Graph g = gen::empty(5);
  auto r = Engine::run(g, [](NodeCtx& ctx) {
    auto bits = ctx.share_bit(ctx.id() % 2 == 0);
    EXPECT_EQ(bits.size(), 5u);
    EXPECT_TRUE(bits[0]);
    EXPECT_FALSE(bits[1]);
    EXPECT_TRUE(ctx.any(ctx.id() == 3));
    EXPECT_FALSE(ctx.any(false));
    EXPECT_TRUE(ctx.all(true));
    EXPECT_FALSE(ctx.all(ctx.id() != 2));
    ctx.output(0);
  });
  EXPECT_EQ(r.cost.rounds, 5u);  // share_bit + 4 reductions, 1 round each
}

TEST(Engine, DivergentOpsDetected) {
  Graph g = gen::empty(4);
  EXPECT_THROW(Engine::run(g,
                           [](NodeCtx& ctx) {
                             if (ctx.id() == 0) {
                               ctx.round({});
                             } else {
                               ctx.share_bit(false);
                             }
                             ctx.output(0);
                           }),
               ModelViolation);
}

TEST(Engine, EarlyFinishDetected) {
  Graph g = gen::empty(4);
  EXPECT_THROW(Engine::run(g,
                           [](NodeCtx& ctx) {
                             ctx.output(0);
                             if (ctx.id() == 0) return;  // skips collective
                             ctx.round({});
                           }),
               ModelViolation);
}

TEST(Engine, MissingOutputDetected) {
  Graph g = gen::empty(3);
  EXPECT_THROW(Engine::run(g,
                           [](NodeCtx& ctx) {
                             if (ctx.id() != 1) ctx.output(0);
                           }),
               ModelViolation);
}

TEST(Engine, DoubleOutputDetected) {
  Graph g = gen::empty(2);
  EXPECT_THROW(Engine::run(g,
                           [](NodeCtx& ctx) {
                             ctx.output(1);
                             ctx.output(2);
                           }),
               ModelViolation);
}

TEST(Engine, ProgramExceptionPropagates) {
  Graph g = gen::empty(4);
  EXPECT_THROW(Engine::run(g,
                           [](NodeCtx& ctx) {
                             if (ctx.id() == 2)
                               throw std::runtime_error("node crash");
                             ctx.round({});
                             ctx.output(0);
                           }),
               std::runtime_error);
}

TEST(Engine, RoundLimitEnforced) {
  Graph g = gen::empty(2);
  Engine::Config cfg;
  cfg.max_rounds = 10;
  EXPECT_THROW(Engine::run(
                   g,
                   [](NodeCtx& ctx) {
                     for (int i = 0; i < 100; ++i) ctx.round({});
                     ctx.output(0);
                   },
                   cfg),
               ModelViolation);
}

TEST(Engine, AdjacencyRowsMatchInput) {
  Graph g = gen::gnp(10, 0.5, 77);
  Engine::run(g, [&g](NodeCtx& ctx) {
    EXPECT_TRUE(ctx.adj_row() == g.row(ctx.id()));
    EXPECT_FALSE(ctx.directed());
    ctx.output(0);
  });
}

TEST(Engine, DirectedInRowIsTranspose) {
  Graph g = Graph::directed(4);
  g.add_edge(0, 1);
  g.add_edge(2, 1);
  g.add_edge(1, 3);
  Engine::run(g, [](NodeCtx& ctx) {
    if (ctx.id() == 1) {
      EXPECT_TRUE(ctx.in_row().get(0));
      EXPECT_TRUE(ctx.in_row().get(2));
      EXPECT_FALSE(ctx.in_row().get(3));
      EXPECT_TRUE(ctx.adj_row().get(3));
    }
    ctx.output(0);
  });
}

TEST(Engine, EdgeWeightsVisibleLocally) {
  Graph g = Graph::undirected(3);
  g.add_edge(0, 1, 7);
  g.add_edge(1, 2, 9);
  Engine::run(g, [](NodeCtx& ctx) {
    if (ctx.id() == 1) {
      EXPECT_TRUE(ctx.weighted());
      EXPECT_EQ(ctx.edge_weight(0), 7u);
      EXPECT_EQ(ctx.edge_weight(2), 9u);
    }
    ctx.output(0);
  });
}

TEST(Engine, PrivateBitEncodingMatchesSpec) {
  Graph g = Graph::undirected(4);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  // Node u owns bits for {u,v}, v>u, in increasing v order.
  auto enc = private_bit_encoding(g);
  EXPECT_EQ(enc[0].to_string(), "010");  // edges 0-1,0-2,0-3
  EXPECT_EQ(enc[1].to_string(), "01");   // edges 1-2,1-3
  EXPECT_EQ(enc[2].to_string(), "1");    // edge 2-3
  EXPECT_EQ(enc[3].size(), 0u);
  Engine::run(g, [&enc](NodeCtx& ctx) {
    EXPECT_TRUE(ctx.private_bits() == enc[ctx.id()]);
    ctx.output(0);
  });

  // Directed: the bit of {u,v}, u<v, is the arc u→v (row u again), so
  // 1→0 and 3→1 belong to no node.
  Graph d = Graph::directed(4);
  d.add_edge(0, 2);
  d.add_edge(1, 0);
  d.add_edge(2, 3);
  d.add_edge(3, 1);
  const auto denc = private_bit_encoding(d);
  EXPECT_EQ(denc[0].to_string(), "010");
  EXPECT_EQ(denc[1].to_string(), "00");
  EXPECT_EQ(denc[2].to_string(), "1");
  EXPECT_EQ(denc[3].size(), 0u);
  const NodeProgram check = [&denc](NodeCtx& ctx) {
    EXPECT_TRUE(ctx.private_bits() == denc[ctx.id()]);
    ctx.output(0);
  };
  Engine::run(d, check);
  // A warm session derives the same bits.
  EngineSession::Shape shape;
  shape.n = 4;
  EngineSession session(shape);
  session.run(Instance::of(d), check, Engine::Config{});
  EXPECT_EQ(session.runs_completed(), 1u);
}

TEST(Engine, ExplicitPrivateBitsOverride) {
  Instance inst = Instance::of(gen::empty(3));
  inst.private_bits = {BitVector::from_string("101"),
                       BitVector::from_string("11"),
                       BitVector::from_string("0")};
  Engine::run(inst, [](NodeCtx& ctx) {
    if (ctx.id() == 0) {
      EXPECT_EQ(ctx.private_bits().to_string(), "101");
    }
    if (ctx.id() == 2) {
      EXPECT_EQ(ctx.private_bits().to_string(), "0");
    }
    ctx.output(0);
  });
}

TEST(Engine, LabelsAccessible) {
  Instance inst = Instance::of(gen::empty(3));
  Labelling z1 = {BitVector::from_string("0"), BitVector::from_string("1"),
                  BitVector::from_string("0")};
  Labelling z2 = {BitVector::from_string("11"), BitVector::from_string("00"),
                  BitVector::from_string("10")};
  inst.labels = {z1, z2};
  Engine::run(inst, [](NodeCtx& ctx) {
    EXPECT_EQ(ctx.label_count(), 2u);
    if (ctx.id() == 1) {
      EXPECT_EQ(ctx.label(0).to_string(), "1");
      EXPECT_EQ(ctx.label(1).to_string(), "00");
    }
    EXPECT_THROW(ctx.label(2), ModelViolation);
    ctx.output(0);
  });
}

TEST(Engine, DeterministicAcrossRuns) {
  Graph g = gen::gnp(12, 0.4, 5);
  auto program = [](NodeCtx& ctx) {
    auto rows = ctx.broadcast(ctx.adj_row());
    std::uint64_t fingerprint = 0;
    for (const auto& r : rows) fingerprint = fingerprint * 31 + r.popcount();
    ctx.output(fingerprint);
  };
  auto r1 = Engine::run(g, program);
  auto r2 = Engine::run(g, program);
  EXPECT_EQ(r1.outputs, r2.outputs);
  EXPECT_EQ(r1.cost.rounds, r2.cost.rounds);
  EXPECT_EQ(r1.cost.messages, r2.cost.messages);
}

TEST(Engine, SingleNodeClique) {
  Graph g = gen::empty(1);
  auto r = Engine::run(g, [](NodeCtx& ctx) {
    auto all = ctx.broadcast(BitVector(4));
    EXPECT_EQ(all.size(), 1u);
    EXPECT_TRUE(ctx.all(true));
    ctx.output(7);
  });
  EXPECT_EQ(r.outputs[0], 7u);
}

TEST(Engine, ConfigValidationAtRunEntry) {
  // Bad configs must be rejected before any node program runs — each of
  // these used to slip through and fail later in confusing ways (a zero
  // bandwidth multiplier made every word a violation; workers > n spun up
  // owners that could never own a node).
  const Graph g = gen::empty(8);
  auto trivial = [](NodeCtx& ctx) { ctx.output(0); };
  struct Case {
    const char* name;
    std::function<void(Engine::Config&)> tweak;
    bool ok;
  };
  const Case kCases[] = {
      {"defaults", [](Engine::Config&) {}, true},
      {"bandwidth_multiplier=0",
       [](Engine::Config& c) { c.bandwidth_multiplier = 0; }, false},
      {"workers=n", [](Engine::Config& c) { c.workers = 8; }, true},
      {"workers=n+1", [](Engine::Config& c) { c.workers = 9; }, false},
  };
  for (const Case& tc : kCases) {
    Engine::Config cfg;
    tc.tweak(cfg);
    if (tc.ok) {
      EXPECT_EQ(Engine::run(g, trivial, cfg).outputs.size(), 8u) << tc.name;
    } else {
      EXPECT_THROW(Engine::run(g, trivial, cfg), ModelViolation) << tc.name;
    }
  }
}

TEST(Engine, LabellingSizeValidation) {
  Instance inst = Instance::of(gen::empty(3));
  inst.labels.push_back(Labelling{BitVector(1), BitVector(1)});  // short
  EXPECT_THROW(Engine::run(inst, [](NodeCtx& c) { c.output(0); }),
               ModelViolation);
}

TEST(Engine, BitsAccounting) {
  Graph g = gen::empty(4);  // B = 2
  auto r = Engine::run(g, [](NodeCtx& ctx) {
    // Node 0 sends one 2-bit word to each other node.
    std::vector<std::pair<NodeId, Word>> sends;
    if (ctx.id() == 0)
      for (NodeId v = 1; v < 4; ++v) sends.emplace_back(v, Word(3, 2));
    ctx.round(sends);
    ctx.output(0);
  });
  EXPECT_EQ(r.cost.bits, 6u);
  EXPECT_EQ(r.cost.messages, 3u);
}

}  // namespace
}  // namespace ccq
