// Equivalence suite for the message plane (clique/msgplane.hpp).
//
// The plane contract: every inbox and every CostMeter field are exactly
// what the model's delivery rule says (per-pair FIFO queues drained one
// word per ordered pair per round, self-delivery free), on every execution
// backend and worker count. A test-only reference delivery below writes
// that rule out directly. The property test drives ~100 randomised traffic
// patterns (skewed all-to-all, single hot pair, empty, random sparse with
// self-sends) through every backend setup and a fault-free chaos wrapper,
// at n = 16 and at n = 1 and 2, in every deposit shape (pairs,
// per-destination runs, maximal runs over one buffer, runs aliasing one
// buffer, round, broadcast, and one round mixing broadcast and pair
// deposits), and requires every node's inbox and the RunResult to match
// the reference exactly. Targeted tests pin FIFO order,
// free self-delivery and validation at deposit time, on the bare plane and
// under a fault-free chaos wrapper; and the run form's validation messages
// and its chaos fault ledger.

#include "clique/msgplane.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "clique/chaos.hpp"
#include "clique/engine.hpp"
#include "graph/generators.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace ccq {
namespace {

struct BackendSetup {
  ExecutionBackend backend;
  std::size_t workers;  // cap on the fiber team; 0 = pool size
  const char* name;
};

const BackendSetup kSetups[] = {
    {ExecutionBackend::kThreadPerNode, 0, "thread-per-node"},
    {ExecutionBackend::kPooled, 2, "pooled-2"},
    {ExecutionBackend::kPooled, 0, "pooled-hw"},
    {ExecutionBackend::kPooled, 3, "pooled-3"},
    {ExecutionBackend::kPooled, 5, "pooled-5"},  // non-dividing team caps
};

// The setup's config on an n-node clique (team cap at most n, which run()
// requires).
Engine::Config config_for(const BackendSetup& s, NodeId n) {
  Engine::Config cfg;
  cfg.backend = s.backend;
  cfg.workers = std::min<std::size_t>(s.workers, n);
  return cfg;
}

// The bare plane (chaos = false) or the plane under a fault-free chaos plan
// (an exact no-op on traffic, but every deposit takes the wrapper's path).
// `plan` must outlive the run.
Engine::Config plane_config(bool chaos, ChaosPlan& plan) {
  Engine::Config cfg;
  if (chaos) cfg.chaos = &plan;
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

// ---- reference delivery ---------------------------------------------------

using Outbox = std::vector<std::pair<NodeId, Word>>;  // one node's sends
using Inbox = std::vector<std::vector<Word>>;         // [src] FIFO queue

// One collective delivered by the model's rule, written out directly: the
// oracle the plane is checked against.
struct Reference {
  std::vector<Inbox> inbox;              // [dst][src]
  std::uint64_t max_queue = 0;           // longest non-self queue
  std::uint64_t messages = 0, bits = 0;  // self-delivery is free
  std::vector<std::uint64_t> sent, received;  // [node], self excluded
};

// Every send becomes (dst, src, seq, word); stable-sorting by
// (dst, src, seq) lines each (src → dst) queue up in send order.
Reference reference_delivery(const std::vector<Outbox>& outboxes) {
  struct Send {
    NodeId dst, src;
    std::size_t seq;
    Word w;
  };
  const NodeId n = static_cast<NodeId>(outboxes.size());
  std::vector<Send> sends;
  for (NodeId src = 0; src < n; ++src) {
    for (std::size_t seq = 0; seq < outboxes[src].size(); ++seq) {
      const auto& [dst, w] = outboxes[src][seq];
      sends.push_back({dst, src, seq, w});
    }
  }
  std::stable_sort(sends.begin(), sends.end(),
                   [](const Send& a, const Send& b) {
                     return std::tie(a.dst, a.src, a.seq) <
                            std::tie(b.dst, b.src, b.seq);
                   });
  Reference r;
  r.inbox.assign(n, Inbox(n));
  r.sent.assign(n, 0);
  r.received.assign(n, 0);
  for (const Send& s : sends) {
    std::vector<Word>& q = r.inbox[s.dst][s.src];
    q.push_back(s.w);
    if (s.src == s.dst) continue;
    r.max_queue = std::max<std::uint64_t>(r.max_queue, q.size());
    r.messages += 1;
    r.bits += s.w.bits;
    r.sent[s.src] += 1;
    r.received[s.dst] += 1;
  }
  return r;
}

// ---- randomised traffic ----------------------------------------------------

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

Outbox make_sends(NodeId id, NodeId n, unsigned B, std::uint64_t seed,
                  int kind) {
  SplitMix64 rng(seed * 1000003 + id * 7919 + kind);
  Outbox sends;
  auto word = [&] { return random_word(rng, B); };
  switch (kind) {
    case kSkewedAllToAll:
      for (NodeId dst = 0; dst < n; ++dst) {
        const NodeId reps = (id + dst) % 4;
        for (NodeId i = 0; i < reps; ++i) sends.emplace_back(dst, word());
      }
      break;
    case kSingleHotPair:
      if (id == static_cast<NodeId>(seed % n)) {
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
std::vector<WordRun> runs_of(NodeId id, NodeId n, const Outbox& sends,
                             std::vector<Word>& flat) {
  flat.clear();
  for (const auto& [dst, w] : sends) flat.push_back(w);
  const std::span<const Word> all(flat);
  std::vector<WordRun> runs;
  for (std::size_t i = 0; i < sends.size();) {
    std::size_t j = i;
    while (j < sends.size() && sends[j].first == sends[i].first) ++j;
    runs.push_back({static_cast<NodeId>((i * 7 + 3) % n), {}});
    runs.push_back({sends[i].first, all.subspan(i, j - i)});
    i = j;
  }
  runs.push_back({id, {}});
  return runs;
}

// Runs aliasing one shared buffer: overlapping windows of it to random
// destinations (self and repeats included), the way one encoded slice goes
// to many workers.
std::vector<WordRun> aliased_runs(NodeId id, NodeId n, unsigned B,
                                  std::uint64_t seed, int kind,
                                  std::vector<Word>& shared) {
  SplitMix64 rng(seed * 31 + id * 17 + kind);
  shared.resize(rng.next_below(9));
  for (Word& w : shared) w = random_word(rng, B);
  std::vector<WordRun> runs;
  const std::size_t count = kind == kEmpty ? 0 : rng.next_below(7);
  for (std::size_t t = 0; t < count; ++t) {
    const std::size_t off = rng.next_below(shared.size() + 1);
    const std::size_t len = rng.next_below(shared.size() - off + 1);
    runs.push_back({static_cast<NodeId>(rng.next_below(n)),
                    std::span<const Word>(shared).subspan(off, len)});
  }
  runs.push_back({static_cast<NodeId>(seed % n), {}});
  return runs;
}

// A seed-dependent ring send for round_flat().
Outbox ring_sends(NodeId id, NodeId n, std::uint64_t seed) {
  Outbox ring;
  if (n > 1 && (seed + id) % 3 != 0) {
    ring.emplace_back((id + 1) % n, Word((seed ^ id) & 1, 1));
  }
  return ring;
}

// The broadcast payload: the same length on every node (engine-checked),
// varied by seed.
BitVector broadcast_bits(std::uint64_t seed) {
  BitVector mine(seed % 9);
  for (std::size_t i = 0; i < mine.size(); ++i) {
    if ((seed >> i) & 1) mine.set(i);
  }
  return mine;
}

// The mixed round's bit and its pair form: node `id` sends Word(bit, 1)
// to every other node, either through share_bit or as n − 1 round_flat
// pairs (traffic_program picks by the parity of seed + id).
bool mixed_bit(NodeId id, std::uint64_t seed) {
  return ((seed * 3 + id * 5) >> 1) & 1;
}

Outbox mixed_sends(NodeId id, NodeId n, std::uint64_t seed) {
  Outbox sends;
  for (NodeId dst = 0; dst < n; ++dst) {
    if (dst != id) sends.emplace_back(dst, Word(mixed_bit(id, seed), 1));
  }
  return sends;
}

// traffic_program's collectives, in order.
enum Collective : int {
  kQueueRuns = 0,    // one run per destination (empty ones included)
  kPairs = 1,        // the raw (dst, word) list
  kMaxRuns = 2,      // runs_of
  kAliasedRuns = 3,  // aliased_runs
  kRound = 4,        // round_flat(ring_sends)
  kBroadcast = 5,    // broadcast(broadcast_bits)
  kMixedRound = 6,   // share_bit or round_flat(mixed_sends), per node
  kCollectives = 7,
};

// Every inbox a node read: [collective][node][src].
using Received = std::vector<std::vector<Inbox>>;

// FNV-1a over node `id`'s inboxes — source, position, value, width.
std::uint64_t fingerprint(const Received& got, NodeId id) {
  std::uint64_t fp = 0xcbf29ce484222325ull;
  for (const std::vector<Inbox>& collective : got) {
    for (std::size_t src = 0; src < collective[id].size(); ++src) {
      for (const Word& w : collective[id][src]) {
        fp = (fp ^ (src * 131 + w.value * 31 + w.bits)) * 0x100000001b3ull;
      }
    }
  }
  return fp;
}

// Sends every collective through its deposit shape, records each inbox in
// the node's own slot of `got`, and outputs their fingerprint.
void traffic_program(NodeCtx& ctx, std::uint64_t seed, int kind,
                     Received& got) {
  const NodeId n = ctx.n(), id = ctx.id();
  const unsigned B = ctx.bandwidth();
  auto keep = [&](int c, const FlatInbox& in) {
    got[c][id].assign(n, {});
    for (NodeId src = 0; src < n; ++src) {
      const auto words = in.from(src);
      got[c][id][src].assign(words.begin(), words.end());
    }
  };
  const Outbox sends = make_sends(id, n, B, seed, kind);
  {
    std::vector<std::vector<Word>> queues(n);
    for (const auto& [dst, w] : sends) queues[dst].push_back(w);
    std::vector<WordRun> runs;
    for (NodeId v = 0; v < n; ++v) runs.push_back({v, queues[v]});
    keep(kQueueRuns, ctx.exchange_flat(runs));
  }
  keep(kPairs, ctx.exchange_flat(sends));
  {
    std::vector<Word> flat;
    keep(kMaxRuns, ctx.exchange_flat(runs_of(id, n, sends, flat)));
  }
  // The buffer and the run list die before the inbox is read — the spans
  // need only outlive the call.
  FlatInbox aliased;
  {
    std::vector<Word> shared;
    aliased = ctx.exchange_flat(aliased_runs(id, n, B, seed, kind, shared));
  }
  keep(kAliasedRuns, aliased);
  keep(kRound, ctx.round_flat(ring_sends(id, n, seed)));
  // broadcast() returns decoded bit vectors; re-encoding one recovers the
  // words its source sent.
  const std::vector<BitVector> all = ctx.broadcast(broadcast_bits(seed));
  got[kBroadcast][id].assign(n, {});
  for (NodeId src = 0; src < n; ++src) {
    if (src != id) got[kBroadcast][id][src] = encode_bits(all[src], B);
  }
  // One round tag, two deposit shapes: broadcast and pairs in one delivery.
  if ((seed + id) % 2 == 0) {
    const std::vector<bool> bits = ctx.share_bit(mixed_bit(id, seed));
    got[kMixedRound][id].assign(n, {});
    for (NodeId src = 0; src < n; ++src) {
      if (src != id) got[kMixedRound][id][src] = {Word(bits[src], 1)};
    }
  } else {
    keep(kMixedRound, ctx.round_flat(mixed_sends(id, n, seed)));
  }
  ctx.output(fingerprint(got, id));
}

// What traffic_program must produce: every inbox and the RunResult,
// collective by collective through the reference delivery.
struct Expected {
  Received inboxes;
  RunResult result;
};

Expected expected_traffic(NodeId n, unsigned B, std::uint64_t seed,
                          int kind) {
  std::vector<std::vector<Outbox>> outboxes(kCollectives,
                                            std::vector<Outbox>(n));
  for (NodeId v = 0; v < n; ++v) {
    const Outbox sends = make_sends(v, n, B, seed, kind);
    // Grouping by destination keeps each pair's order, so the per-
    // destination and maximal runs carry the pair list's queues.
    outboxes[kQueueRuns][v] = outboxes[kPairs][v] = outboxes[kMaxRuns][v] =
        sends;
    std::vector<Word> shared;
    for (const WordRun& r : aliased_runs(v, n, B, seed, kind, shared)) {
      for (const Word& w : r.words) {
        outboxes[kAliasedRuns][v].emplace_back(r.dst, w);
      }
    }
    outboxes[kRound][v] = ring_sends(v, n, seed);
    outboxes[kMixedRound][v] = mixed_sends(v, n, seed);
    for (NodeId dst = 0; dst < n; ++dst) {
      if (dst == v) continue;
      for (const Word& w : encode_bits(broadcast_bits(seed), B)) {
        outboxes[kBroadcast][v].emplace_back(dst, w);
      }
    }
  }
  Expected e;
  CostMeter& cost = e.result.cost;
  std::vector<std::uint64_t> sent(n, 0), received(n, 0);
  for (int c = 0; c < kCollectives; ++c) {
    const Reference r = reference_delivery(outboxes[c]);
    e.inboxes.push_back(r.inbox);
    // A round costs exactly 1 and a broadcast of L bits ⌈L/B⌉, even with
    // no receiver (n = 1); an exchange drains its longest queue.
    if (c == kRound || c == kMixedRound) {
      cost.rounds += 1;
    } else if (c == kBroadcast) {
      cost.rounds += ceil_div(broadcast_bits(seed).size(), B);
    } else {
      cost.rounds += r.max_queue;
    }
    cost.messages += r.messages;
    cost.bits += r.bits;
    cost.collectives += 1;
    for (NodeId v = 0; v < n; ++v) {
      sent[v] += r.sent[v];
      received[v] += r.received[v];
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    e.result.outputs.push_back(fingerprint(e.inboxes, v));
    cost.max_node_sent = std::max(cost.max_node_sent, sent[v]);
    cost.max_node_received = std::max(cost.max_node_received, received[v]);
  }
  return e;
}

// Runs traffic_program(seed, kind) on g under `cfg` and compares every
// inbox and the RunResult with the reference delivery.
void expect_reference_traffic(const Graph& g, std::uint64_t seed, int kind,
                              const Engine::Config& cfg,
                              const std::string& name) {
  const NodeId n = g.n();
  const Expected want = expected_traffic(
      n, node_id_bits(n) * cfg.bandwidth_multiplier, seed, kind);
  Received got(kCollectives, std::vector<Inbox>(n));
  const RunResult res = Engine::run(
      g,
      [&](NodeCtx& ctx) { traffic_program(ctx, seed, kind, got); },
      cfg);
  for (int c = 0; c < kCollectives; ++c) {
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_TRUE(got[c][v] == want.inboxes[c][v])
          << name << ": collective " << c << " node " << v;
    }
  }
  expect_same_result(want.result, res, name);
}

TEST(MsgPlaneProperty, RandomTrafficIdenticalAcrossPlanesAndBackends) {
  int patterns = 0;
  // n = 1 and 2 reach the shape rules' edges (no other node, one other
  // node) on fewer seeds.
  for (const Graph& g : {gen::gnp(16, 0.4, 7), gen::empty(1), gen::empty(2)}) {
    const std::uint64_t seeds = g.n() > 2 ? 25 : 6;
    for (std::uint64_t seed = 0; seed < seeds; ++seed) {
      for (int kind = 0; kind < kPatternKinds; ++kind) {
        ++patterns;
        const std::string pattern = " n=" + std::to_string(g.n()) +
                                    " seed=" + std::to_string(seed) +
                                    " kind=" + std::to_string(kind);
        for (const BackendSetup& setup : kSetups) {
          expect_reference_traffic(g, seed, kind, config_for(setup, g.n()),
                                   setup.name + pattern);
        }
        ChaosPlan plan;
        expect_reference_traffic(g, seed, kind, plane_config(true, plan),
                                 "chaos" + pattern);
      }
    }
  }
  EXPECT_EQ(patterns, 100 + 2 * 24);
}

// A larger clique, on every backend setup and under a fault-free chaos
// plan.
TEST(MsgPlaneProperty, LargerCliqueFlatMatchesLegacy) {
  const Graph g = gen::gnp(96, 0.3, 11);
  for (const BackendSetup& setup : kSetups) {
    expect_reference_traffic(g, 42, kSkewedAllToAll, config_for(setup, 96),
                             std::string("n=96 ") + setup.name);
  }
  ChaosPlan plan;
  expect_reference_traffic(g, 42, kSkewedAllToAll, plane_config(true, plan),
                           "n=96 chaos");
}

// ---- targeted plane behaviours --------------------------------------------

TEST(MsgPlaneFlat, SpanViewMatchesQueueViewPerSourceFifo) {
  const Graph g = gen::empty(8);
  Engine::Config cfg;
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
        // The same sends as one run per destination queue; the pair view
        // is read before the second collective reuses the arena.
        std::vector<std::vector<Word>> pair_view(n);
        for (NodeId src = 0; src < n; ++src) {
          const auto s = flat.from(src);
          pair_view[src].assign(s.begin(), s.end());
        }
        std::vector<std::vector<Word>> out(n);
        for (const auto& [dst, w] : sends) out[dst].push_back(w);
        std::vector<WordRun> runs;
        for (NodeId v = 0; v < n; ++v) runs.push_back({v, out[v]});
        const FlatInbox queued = ctx.exchange_flat(runs);
        bool equal = true;
        for (NodeId src = 0; src < n; ++src) {
          const auto s = queued.from(src);
          equal = equal && std::equal(s.begin(), s.end(),
                                      pair_view[src].begin(),
                                      pair_view[src].end());
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
      });
  EXPECT_TRUE(run.accepted());
  EXPECT_EQ(run.cost.rounds, 0u);    // self-only traffic drains for free
  EXPECT_EQ(run.cost.messages, 0u);  // and is not metered as communication
}

TEST(MsgPlaneFlat, BandwidthValidatedAtDepositOnBothPlanes) {
  const Graph g = gen::empty(3);
  for (bool chaos : {false, true}) {
    ChaosPlan plan;
    const Engine::Config cfg = plane_config(chaos, plan);
    // Pair deposits.
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
    // Run deposits.
    EXPECT_THROW(Engine::run(
                     g,
                     [](NodeCtx& ctx) {
                       const std::vector<Word> words = {Word(0, 64)};
                       const std::vector<WordRun> runs = {
                           {(ctx.id() + 1) % ctx.n(), words}};
                       ctx.exchange_flat(runs);
                       ctx.output(0);
                     },
                     cfg),
                 ModelViolation);
  }
}

TEST(MsgPlaneFlat, RoundFlatEnforcesRoundRules) {
  const Graph g = gen::empty(4);
  for (bool chaos : {false, true}) {
    ChaosPlan plan;
    const Engine::Config cfg = plane_config(chaos, plan);
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
      });
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
      });
  // Every node receives sum over r of n/2 ones from each parity class.
  for (NodeId v = 0; v < 32; ++v) {
    EXPECT_EQ(run.outputs[v], run.outputs[0]);
  }
}

// ---- run deposits ---------------------------------------------------------

// The ModelViolation message a run throws, or "" if it completes; `chaos`
// wraps the plane in a fault-free chaos plan (see plane_config).
std::string violation(const Graph& g, const NodeProgram& program,
                      bool chaos) {
  ChaosPlan plan;
  try {
    Engine::run(g, program, plane_config(chaos, plan));
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
  for (bool chaos : {false, true}) {
    const std::string msg = violation(g, program, chaos);
    EXPECT_NE(msg.find("node 3 sent a 64-bit word to node 1"),
              std::string::npos)
        << msg;
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
    for (bool chaos : {false, true}) {
      const std::string msg = violation(g, program, chaos);
      EXPECT_NE(msg.find("node 3 sent a run to node 9"), std::string::npos)
          << msg;
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
        const Outbox sends = make_sends(ctx.id(), ctx.n(), ctx.bandwidth(),
                                        seed, kRandomSparse);
        std::vector<Word> flat;
        const FlatInbox in =
            as_runs ? ctx.exchange_flat(runs_of(ctx.id(), ctx.n(), sends, flat))
                    : ctx.exchange_flat(sends);
        for (NodeId src = 0; src < ctx.n(); ++src) {
          for (const Word& w : in.from(src))
            fp = fp * 131 + src * 7 + w.value * 3 + w.bits;
        }
      }
      ctx.output(fp);
    };
  };
  ChaosPlan pair_plan(ccfg), run_plan(ccfg);
  Engine::Config cfg;
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

}  // namespace
}  // namespace ccq
