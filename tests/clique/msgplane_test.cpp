// Equivalence suite for the message planes (clique/msgplane.hpp).
//
// The plane contract promises bit-for-bit identical RunResults — outputs
// and every CostMeter field — between the legacy per-pair-queue plane and
// the flat arena plane, on either execution backend and any worker count.
// The property test below drives ~100 randomised traffic patterns
// (skewed all-to-all, single hot pair, empty, random sparse with
// self-sends) through every (plane, backend) combination, in every deposit
// shape (queues, pairs, runs), and requires the results to match the
// legacy/thread-per-node reference exactly. Targeted tests pin the
// flat-specific behaviours: span views matching queue views, FIFO order,
// free self-delivery, validation at deposit time; and the run form's
// validation messages and its chaos fault ledger.

#include "clique/msgplane.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "clique/chaos.hpp"
#include "clique/engine.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace ccq {
namespace {

struct PlaneSetup {
  MessagePlaneKind plane;
  ExecutionBackend backend;
  std::size_t workers;  // pooled: worker cap; sharded: shard count; 0 = hw
  const char* name;
};

const PlaneSetup kSetups[] = {
    {MessagePlaneKind::kLegacy, ExecutionBackend::kThreadPerNode, 0,
     "legacy/thread-per-node"},
    {MessagePlaneKind::kLegacy, ExecutionBackend::kPooled, 2,
     "legacy/pooled-2"},
    {MessagePlaneKind::kLegacy, ExecutionBackend::kPooled, 0,
     "legacy/pooled-hw"},
    {MessagePlaneKind::kFlat, ExecutionBackend::kThreadPerNode, 0,
     "flat/thread-per-node"},
    {MessagePlaneKind::kFlat, ExecutionBackend::kPooled, 2, "flat/pooled-2"},
    {MessagePlaneKind::kFlat, ExecutionBackend::kPooled, 0, "flat/pooled-hw"},
    {MessagePlaneKind::kLegacy, ExecutionBackend::kSharded, 3,
     "legacy/sharded-3"},
    {MessagePlaneKind::kFlat, ExecutionBackend::kSharded, 5,
     "flat/sharded-5"},  // non-dividing shard count
    {MessagePlaneKind::kFlat, ExecutionBackend::kSharded, 0,
     "flat/sharded-hw"},
};

Engine::Config config_for(const PlaneSetup& s) {
  Engine::Config cfg;
  cfg.plane = s.plane;
  cfg.backend = s.backend;
  cfg.workers = s.workers;
  return cfg;
}

void expect_same_result(const RunResult& ref, const RunResult& got,
                        const std::string& name) {
  EXPECT_EQ(ref.outputs, got.outputs) << name;
  EXPECT_EQ(ref.cost.rounds, got.cost.rounds) << name;
  EXPECT_EQ(ref.cost.messages, got.cost.messages) << name;
  EXPECT_EQ(ref.cost.bits, got.cost.bits) << name;
  EXPECT_EQ(ref.cost.collectives, got.cost.collectives) << name;
  EXPECT_EQ(ref.cost.max_node_sent, got.cost.max_node_sent) << name;
  EXPECT_EQ(ref.cost.max_node_received, got.cost.max_node_received) << name;
}

// One traffic pattern = (seed, kind). Sends are (dst, word) lists, possibly
// with repeats per destination and self-sends (legal in exchange).
enum PatternKind : int {
  kSkewedAllToAll = 0,
  kSingleHotPair = 1,
  kEmpty = 2,
  kRandomSparse = 3,
  kPatternKinds = 4,
};

Word random_word(SplitMix64& rng, unsigned B) {
  const unsigned bits = 1 + static_cast<unsigned>(rng.next_below(B));
  return Word(rng.next() & ((bits == 64 ? ~0ull : (1ull << bits) - 1)), bits);
}

std::vector<std::pair<NodeId, Word>> make_sends(NodeCtx& ctx,
                                                std::uint64_t seed,
                                                int kind) {
  const NodeId n = ctx.n();
  const unsigned B = ctx.bandwidth();
  SplitMix64 rng(seed * 1000003 + ctx.id() * 7919 + kind);
  std::vector<std::pair<NodeId, Word>> sends;
  auto word = [&] { return random_word(rng, B); };
  switch (kind) {
    case kSkewedAllToAll:
      for (NodeId dst = 0; dst < n; ++dst) {
        const NodeId reps = (ctx.id() + dst) % 4;
        for (NodeId i = 0; i < reps; ++i) sends.emplace_back(dst, word());
      }
      break;
    case kSingleHotPair:
      if (ctx.id() == static_cast<NodeId>(seed % n)) {
        const NodeId dst = static_cast<NodeId>((seed + 1) % n);
        for (NodeId i = 0; i < 3 * n; ++i) sends.emplace_back(dst, word());
      }
      break;
    case kEmpty:
      break;
    case kRandomSparse: {
      const std::uint64_t count = rng.next_below(2 * n + 1);
      for (std::uint64_t i = 0; i < count; ++i) {
        sends.emplace_back(static_cast<NodeId>(rng.next_below(n)), word());
      }
      break;
    }
  }
  return sends;
}

// The run form of `sends`: its words copied in order into `flat`, grouped
// into maximal same-destination runs over that one buffer, each preceded
// by an empty run (to a destination the pattern may never use) and the
// whole list closed by an empty self run.
std::vector<WordRun> runs_of(NodeCtx& ctx,
                             const std::vector<std::pair<NodeId, Word>>& sends,
                             std::vector<Word>& flat) {
  flat.clear();
  for (const auto& [dst, w] : sends) flat.push_back(w);
  const std::span<const Word> all(flat);
  std::vector<WordRun> runs;
  for (std::size_t i = 0; i < sends.size();) {
    std::size_t j = i;
    while (j < sends.size() && sends[j].first == sends[i].first) ++j;
    runs.push_back({static_cast<NodeId>((i * 7 + 3) % ctx.n()), {}});
    runs.push_back({sends[i].first, all.subspan(i, j - i)});
    i = j;
  }
  runs.push_back({ctx.id(), {}});
  return runs;
}

// Fingerprints every word received — source, position, value, width — so
// any divergence in content, FIFO order, or metering shows up in outputs.
void traffic_program(NodeCtx& ctx, std::uint64_t seed, int kind) {
  const NodeId n = ctx.n();
  std::uint64_t fp = 0xcbf29ce484222325ull;
  auto mix = [&fp](std::uint64_t v) { fp = (fp ^ v) * 0x100000001b3ull; };

  const auto sends = make_sends(ctx, seed, kind);

  // The same pattern through all three deposit shapes.
  // 1) exchange() with per-destination queues.
  WordQueues out(n);
  for (const auto& [dst, w] : sends) out[dst].push_back(w);
  const WordQueues in = ctx.exchange(out);
  for (NodeId src = 0; src < n; ++src) {
    for (const Word& w : in[src]) mix(src * 131 + w.value * 31 + w.bits);
  }

  // 2) exchange_flat() with the raw pair list.
  WordQueues pair_in(n);
  {
    const FlatInbox fin = ctx.exchange_flat(sends);
    for (NodeId src = 0; src < n; ++src) {
      const auto got = fin.from(src);
      pair_in[src].assign(got.begin(), got.end());
      for (const Word& w : got) mix(src * 139 + w.value * 37 + w.bits);
    }
  }

  // 3) exchange_flat() with runs: must deliver exactly the pair inbox.
  {
    std::vector<Word> flat;
    const auto runs = runs_of(ctx, sends, flat);
    const FlatInbox rin = ctx.exchange_flat(runs);
    for (NodeId src = 0; src < n; ++src) {
      const auto got = rin.from(src);
      if (!std::equal(got.begin(), got.end(), pair_in[src].begin(),
                      pair_in[src].end()))
        throw std::logic_error("run inbox differs from the pair inbox");
      for (const Word& w : got) mix(src * 137 + w.value * 29 + w.bits);
    }
  }

  // Runs aliasing one shared buffer: overlapping windows of it to random
  // destinations (self and repeats included), the way one encoded slice
  // goes to many workers. The buffer and the run list die before the
  // inbox is read — the spans need only outlive the call.
  FlatInbox ain;
  {
    SplitMix64 rng(seed * 31 + ctx.id() * 17 + kind);
    std::vector<Word> shared(rng.next_below(9));
    for (Word& w : shared) w = random_word(rng, ctx.bandwidth());
    std::vector<WordRun> runs;
    const std::size_t count = kind == kEmpty ? 0 : rng.next_below(7);
    for (std::size_t t = 0; t < count; ++t) {
      const std::size_t off = rng.next_below(shared.size() + 1);
      const std::size_t len = rng.next_below(shared.size() - off + 1);
      runs.push_back({static_cast<NodeId>(rng.next_below(n)),
                      std::span<const Word>(shared).subspan(off, len)});
    }
    runs.push_back({static_cast<NodeId>(seed % n), {}});
    ain = ctx.exchange_flat(runs);
  }
  for (NodeId src = 0; src < n; ++src) {
    for (const Word& w : ain.from(src)) mix(src * 151 + w.value * 41 + w.bits);
  }

  // round_flat(): a seed-dependent ring send.
  std::vector<std::pair<NodeId, Word>> ring;
  if (n > 1 && (seed + ctx.id()) % 3 != 0) {
    ring.emplace_back((ctx.id() + 1) % n, Word((seed ^ ctx.id()) & 1, 1));
  }
  const FlatInbox rin = ctx.round_flat(ring);
  for (NodeId src = 0; src < n; ++src) {
    const auto got = rin.from(src);
    if (!got.empty()) mix(src * 149 + got.front().value);
  }

  // broadcast(): same length on every node (engine-checked), varied by seed.
  BitVector mine(seed % 9);
  for (std::size_t i = 0; i < mine.size(); ++i) {
    if ((seed >> i) & 1) mine.set(i);
  }
  for (const BitVector& r : ctx.broadcast(mine)) mix(r.popcount() + 7);

  mix(ctx.rounds_so_far());
  ctx.output(fp);
}

TEST(MsgPlaneProperty, RandomTrafficIdenticalAcrossPlanesAndBackends) {
  const Graph g = gen::gnp(16, 0.4, 7);
  const PlaneSetup& ref_setup = kSetups[0];  // legacy / thread-per-node
  int patterns = 0;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    for (int kind = 0; kind < kPatternKinds; ++kind) {
      ++patterns;
      const auto program = [seed, kind](NodeCtx& ctx) {
        traffic_program(ctx, seed, kind);
      };
      const auto ref = Engine::run(g, program, config_for(ref_setup));
      for (std::size_t i = 1; i < std::size(kSetups); ++i) {
        const std::string name = std::string(kSetups[i].name) + " seed=" +
                                 std::to_string(seed) + " kind=" +
                                 std::to_string(kind);
        expect_same_result(
            ref, Engine::run(g, program, config_for(kSetups[i])), name);
      }
    }
  }
  EXPECT_EQ(patterns, 100);
}

// Per-run sanity on a larger clique: flat vs legacy on the pooled backend.
TEST(MsgPlaneProperty, LargerCliqueFlatMatchesLegacy) {
  const Graph g = gen::gnp(96, 0.3, 11);
  const auto program = [](NodeCtx& ctx) { traffic_program(ctx, 42, 0); };
  Engine::Config legacy, flat;
  legacy.plane = MessagePlaneKind::kLegacy;
  flat.plane = MessagePlaneKind::kFlat;
  expect_same_result(Engine::run(g, program, legacy),
                     Engine::run(g, program, flat), "n=96 flat vs legacy");
}

// ---- targeted flat-plane behaviours --------------------------------------

Engine::Config flat_config() {
  Engine::Config cfg;
  cfg.plane = MessagePlaneKind::kFlat;
  return cfg;
}

TEST(MsgPlaneFlat, SpanViewMatchesQueueViewPerSourceFifo) {
  const Graph g = gen::empty(8);
  Engine::Config cfg = flat_config();
  cfg.bandwidth_multiplier = 2;  // B = 6: room for the id*2+1 tags below
  auto run = Engine::run(
      g,
      [](NodeCtx& ctx) {
        const NodeId n = ctx.n();
        // Two words to every node (self included), tagged with sender and
        // position so order is observable.
        std::vector<std::pair<NodeId, Word>> sends;
        for (NodeId dst = 0; dst < n; ++dst) {
          sends.emplace_back(dst, Word(ctx.id() * 2 + 0, 6));
          sends.emplace_back(dst, Word(ctx.id() * 2 + 1, 6));
        }
        const FlatInbox flat = ctx.exchange_flat(sends);
        WordQueues out(n);
        for (const auto& [dst, w] : sends) out[dst].push_back(w);
        const WordQueues queued = ctx.exchange(out);
        bool equal = true;
        for (NodeId src = 0; src < n; ++src) {
          const auto s = flat.from(src);
          equal = equal && s.size() == queued[src].size();
          for (std::size_t i = 0; equal && i < s.size(); ++i) {
            equal = equal && s[i] == queued[src][i];
          }
          // FIFO: sender's first word first.
          equal = equal && s.size() == 2 &&
                  s[0].value == std::uint64_t{src} * 2 &&
                  s[1].value == std::uint64_t{src} * 2 + 1;
        }
        ctx.output(equal ? 1 : 0);
      },
      cfg);
  EXPECT_TRUE(run.accepted());
}

TEST(MsgPlaneFlat, SelfDeliveryIsFreeThroughTheArena) {
  const Graph g = gen::empty(4);
  auto run = Engine::run(
      g,
      [](NodeCtx& ctx) {
        std::vector<std::pair<NodeId, Word>> sends;
        for (int i = 0; i < 5; ++i) sends.emplace_back(ctx.id(), Word(i, 3));
        const FlatInbox in = ctx.exchange_flat(sends);
        const auto own = in.from(ctx.id());
        bool ok = own.size() == 5;
        for (std::size_t i = 0; ok && i < own.size(); ++i) {
          ok = own[i].value == i;
        }
        ctx.output(ok ? 1 : 0);
      },
      flat_config());
  EXPECT_TRUE(run.accepted());
  EXPECT_EQ(run.cost.rounds, 0u);    // self-only traffic drains for free
  EXPECT_EQ(run.cost.messages, 0u);  // and is not metered as communication
}

TEST(MsgPlaneFlat, BandwidthValidatedAtDepositOnBothPlanes) {
  const Graph g = gen::empty(3);
  for (MessagePlaneKind plane :
       {MessagePlaneKind::kLegacy, MessagePlaneKind::kFlat}) {
    Engine::Config cfg;
    cfg.plane = plane;
    // Pair deposits (exchange_flat).
    EXPECT_THROW(Engine::run(
                     g,
                     [](NodeCtx& ctx) {
                       std::vector<std::pair<NodeId, Word>> sends;
                       sends.emplace_back((ctx.id() + 1) % ctx.n(),
                                          Word(0, 64));
                       ctx.exchange_flat(sends);
                       ctx.output(0);
                     },
                     cfg),
                 ModelViolation);
    // Queue deposits (exchange).
    EXPECT_THROW(Engine::run(
                     g,
                     [](NodeCtx& ctx) {
                       WordQueues out(ctx.n());
                       out[(ctx.id() + 1) % ctx.n()].emplace_back(0, 64);
                       ctx.exchange(out);
                       ctx.output(0);
                     },
                     cfg),
                 ModelViolation);
  }
}

TEST(MsgPlaneFlat, RoundFlatEnforcesRoundRules) {
  const Graph g = gen::empty(4);
  for (MessagePlaneKind plane :
       {MessagePlaneKind::kLegacy, MessagePlaneKind::kFlat}) {
    Engine::Config cfg;
    cfg.plane = plane;
    // Two words to one destination.
    EXPECT_THROW(Engine::run(
                     g,
                     [](NodeCtx& ctx) {
                       std::vector<std::pair<NodeId, Word>> sends;
                       sends.emplace_back((ctx.id() + 1) % ctx.n(),
                                          Word(0, 1));
                       sends.emplace_back((ctx.id() + 1) % ctx.n(),
                                          Word(1, 1));
                       ctx.round_flat(sends);
                       ctx.output(0);
                     },
                     cfg),
                 ModelViolation);
    // Self-send.
    EXPECT_THROW(Engine::run(
                     g,
                     [](NodeCtx& ctx) {
                       std::vector<std::pair<NodeId, Word>> sends;
                       sends.emplace_back(ctx.id(), Word(0, 1));
                       ctx.round_flat(sends);
                       ctx.output(0);
                     },
                     cfg),
                 ModelViolation);
  }
}

TEST(MsgPlaneFlat, RoundFlatCostsOneRoundEvenWhenSilent) {
  const Graph g = gen::empty(5);
  auto run = Engine::run(
      g,
      [](NodeCtx& ctx) {
        for (int i = 0; i < 3; ++i) ctx.round_flat({});
        ctx.output(0);
      },
      flat_config());
  EXPECT_EQ(run.cost.rounds, 3u);
}

TEST(MsgPlaneFlat, ArenaViewSurvivesUntilNextCollectiveOnly) {
  // A node may lag behind the others by one collective while still reading
  // its spans: nodes deposit for collective k+1 while a straggler reads
  // collective k. The double-buffered histogram makes this safe; this test
  // stresses it with per-node skewed local work on the pooled backend.
  const Graph g = gen::empty(32);
  auto run = Engine::run(
      g,
      [](NodeCtx& ctx) {
        const NodeId n = ctx.n();
        std::uint64_t acc = 0;
        for (int r = 0; r < 20; ++r) {
          std::vector<std::pair<NodeId, Word>> sends;
          for (NodeId dst = 0; dst < n; ++dst) {
            sends.emplace_back(dst, Word((ctx.id() + r) % 2, 1));
          }
          const FlatInbox in = ctx.exchange_flat(sends);
          // Skewed local work: high-id nodes linger on their spans longer.
          volatile std::uint64_t sink = 0;
          for (NodeId i = 0; i < ctx.id() * 50; ++i) sink += i;
          for (NodeId src = 0; src < n; ++src) {
            for (const Word& w : in.from(src)) acc += w.value;
          }
        }
        ctx.output(acc);
      },
      flat_config());
  // Every node receives sum over r of n/2 ones from each parity class.
  for (NodeId v = 0; v < 32; ++v) {
    EXPECT_EQ(run.outputs[v], run.outputs[0]);
  }
}

// ---- run deposits ---------------------------------------------------------

// The ModelViolation message a run throws, or "" if it completes; `chaos`
// wraps the plane in a fault-free chaos plan (an exact no-op on traffic).
std::string violation(const Graph& g, const NodeProgram& program,
                      MessagePlaneKind plane, bool chaos) {
  ChaosPlan plan;
  Engine::Config cfg;
  cfg.plane = plane;
  if (chaos) cfg.chaos = &plan;
  try {
    Engine::run(g, program, cfg);
  } catch (const ModelViolation& e) {
    return e.what();
  }
  return "";
}

TEST(MsgPlaneRuns, OverWideWordNamesNodeAndDestination) {
  const Graph g = gen::empty(5);  // B = 3
  const auto program = [](NodeCtx& ctx) {
    const std::vector<Word> words = {Word(1, 1), Word(0, 64)};
    std::vector<WordRun> runs;
    if (ctx.id() == 3) runs.push_back({1, words});
    ctx.exchange_flat(runs);
    ctx.output(0);
  };
  for (MessagePlaneKind plane :
       {MessagePlaneKind::kLegacy, MessagePlaneKind::kFlat}) {
    for (bool chaos : {false, true}) {
      const std::string msg = violation(g, program, plane, chaos);
      EXPECT_NE(msg.find("node 3 sent a 64-bit word to node 1"),
                std::string::npos)
          << msg;
    }
  }
}

TEST(MsgPlaneRuns, OutOfRangeDestinationNamesNodeAndDestination) {
  const Graph g = gen::empty(5);
  for (bool empty_run : {false, true}) {
    // An empty run still names its destination, so it is checked too.
    const auto program = [empty_run](NodeCtx& ctx) {
      const std::vector<Word> words = {Word(1, 1)};
      std::vector<WordRun> runs = {{0, words}};
      if (ctx.id() == 3)
        runs.push_back({9, empty_run ? std::span<const Word>() : words});
      ctx.exchange_flat(runs);
      ctx.output(0);
    };
    for (MessagePlaneKind plane :
         {MessagePlaneKind::kLegacy, MessagePlaneKind::kFlat}) {
      for (bool chaos : {false, true}) {
        const std::string msg = violation(g, program, plane, chaos);
        EXPECT_NE(msg.find("node 3 sent a run to node 9"), std::string::npos)
            << msg;
      }
    }
  }
}

TEST(MsgPlaneRuns, ChaosLedgerMatchesPairShape) {
  // Every (collective, src, dst) fault stream draws over the pair's queue
  // in FIFO order, whatever shape carried it: the run form of a random
  // sparse pattern (repeated destinations split over several runs, empty
  // runs, self words) must leave the pair form's exact ledger.
  const Graph g = gen::empty(12);
  ChaosPlan::Config ccfg;
  ccfg.seed = 91;
  ccfg.p_flip = 0.2;
  ccfg.p_drop = 0.1;
  ccfg.p_dup = 0.1;
  ccfg.byzantine = {5};
  const auto program = [](bool as_runs) {
    return [as_runs](NodeCtx& ctx) {
      std::uint64_t fp = 0;
      for (std::uint64_t seed = 0; seed < 3; ++seed) {
        const auto sends = make_sends(ctx, seed, kRandomSparse);
        std::vector<Word> flat;
        const FlatInbox in = as_runs
                                 ? ctx.exchange_flat(runs_of(ctx, sends, flat))
                                 : ctx.exchange_flat(sends);
        for (NodeId src = 0; src < ctx.n(); ++src) {
          for (const Word& w : in.from(src))
            fp = fp * 131 + src * 7 + w.value * 3 + w.bits;
        }
      }
      ctx.output(fp);
    };
  };
  for (MessagePlaneKind plane :
       {MessagePlaneKind::kLegacy, MessagePlaneKind::kFlat}) {
    ChaosPlan pair_plan(ccfg), run_plan(ccfg);
    Engine::Config cfg;
    cfg.plane = plane;
    cfg.chaos = &pair_plan;
    const auto pairs = Engine::run(g, program(false), cfg);
    cfg.chaos = &run_plan;
    const auto runs = Engine::run(g, program(true), cfg);
    expect_same_result(pairs, runs, "chaos: runs vs pairs");
    ASSERT_GT(pair_plan.total_faults(), 0u);
    EXPECT_EQ(pair_plan.ledger_overflow(), 0u);
    ASSERT_EQ(pair_plan.ledger().size(), run_plan.ledger().size());
    for (std::size_t i = 0; i < pair_plan.ledger().size(); ++i) {
      EXPECT_TRUE(pair_plan.ledger()[i] == run_plan.ledger()[i])
          << "event " << i;
    }
  }
}

}  // namespace
}  // namespace ccq
