// Equivalence suite for the message plane (clique/msgplane.hpp).
//
// The plane contract: every inbox and every CostMeter field are exactly
// what the model's delivery rule says (per-pair FIFO queues drained one
// word per ordered pair per round, self-delivery free), on every execution
// backend and worker count. A test-only reference delivery below writes
// that rule out directly; a bit run enters it as the (dst, word) pairs of
// its encode_bits framing. The property test drives ~100 randomised
// traffic patterns (skewed all-to-all, single hot pair, empty, random
// sparse with self-sends) through every backend setup and a fault-free
// chaos wrapper, at n = 16 and at n = 1 and 2, in every deposit shape
// (pairs, one bit run per destination, bit runs per maximal
// same-destination group with empty runs between, bit runs aliasing one
// pool, round, broadcast, and one round mixing broadcast and pair
// deposits), and requires every node's inbox — each run read back with
// bits_from — and the RunResult to match the reference exactly. Targeted
// tests pin FIFO order, free self-delivery and validation at deposit time,
// on the bare plane and under a fault-free chaos wrapper; and the run
// form's validation messages, readers and chaos fault ledger.

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

// A bit-run outbox: `runs` point into `bits`, which owns their strings.
// Moving keeps the pointers valid; copying does not.
struct RunOutbox {
  std::vector<BitVector> bits;
  std::vector<BitRun> runs;
};

// A random bit string of 0..3B+1 bits: empty, shorter than one word, and
// framed into up to four words with a short last one.
BitVector random_bits(SplitMix64& rng, unsigned B) {
  BitVector bv(rng.next_below(3 * B + 2));
  for (std::size_t i = 0; i < bv.size(); ++i) bv.set(i, rng.next() & 1);
  return bv;
}

// The reference form of a run outbox: every run as the (dst, word) pairs
// of its encode_bits framing.
Outbox framed(const RunOutbox& out, unsigned B) {
  Outbox o;
  for (const BitRun& r : out.runs) {
    for (const Word& w : encode_bits(*r.bits, B)) o.emplace_back(r.dst, w);
  }
  return o;
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
  kQueueRuns = 0,    // make_runs: one run per destination
  kPairs = 1,        // the raw (dst, word) list
  kMaxRuns = 2,      // make_runs: runs per same-destination group
  kAliasedRuns = 3,  // make_runs: runs into one pool
  kRound = 4,        // round_flat(ring_sends)
  kBroadcast = 5,    // broadcast(broadcast_bits)
  kMixedRound = 6,   // share_bit or round_flat(mixed_sends), per node
  kCollectives = 7,
};

// traffic_program's run collectives, shaped by the pattern's pair sends:
//  * kQueueRuns — one run per destination in id order (self included), of
//    random length where the pattern sends, empty elsewhere;
//  * kMaxRuns — one random run per maximal same-destination group of
//    sends (so repeated destinations queue several runs), each preceded by
//    an empty run and the list closed by an empty self run;
//  * kAliasedRuns — runs to random destinations (self and repeats
//    included) pointing into one small pool, the way one packed slice goes
//    to many workers, closed by an empty run.
RunOutbox make_runs(int c, NodeId id, NodeId n, unsigned B,
                    std::uint64_t seed, int kind) {
  SplitMix64 rng(seed * 31 + id * 17 + kind * 5 + c);
  const Outbox sends = make_sends(id, n, B, seed, kind);
  RunOutbox out;
  // Every string is in place before a run points at it.
  auto run_to = [&](NodeId dst, std::size_t string) {
    out.runs.push_back({dst, &out.bits[string]});
  };
  switch (c) {
    case kQueueRuns: {
      std::vector<bool> sent(n, false);
      for (const auto& [dst, w] : sends) sent[dst] = true;
      for (NodeId v = 0; v < n; ++v)
        out.bits.push_back(sent[v] ? random_bits(rng, B) : BitVector());
      for (NodeId v = 0; v < n; ++v) run_to(v, v);
      break;
    }
    case kMaxRuns: {
      out.bits.emplace_back();  // the empty string
      std::vector<NodeId> group_dst;
      for (std::size_t i = 0; i < sends.size();) {
        std::size_t j = i;
        while (j < sends.size() && sends[j].first == sends[i].first) ++j;
        group_dst.push_back(sends[i].first);
        out.bits.push_back(random_bits(rng, B));
        i = j;
      }
      for (std::size_t g = 0; g < group_dst.size(); ++g) {
        run_to(static_cast<NodeId>((g * 7 + 3) % n), 0);
        run_to(group_dst[g], g + 1);
      }
      run_to(id, 0);
      break;
    }
    case kAliasedRuns: {
      const std::size_t pool = 1 + rng.next_below(3);
      for (std::size_t t = 0; t < pool; ++t)
        out.bits.push_back(random_bits(rng, B));
      out.bits.emplace_back();  // the empty string, at index `pool`
      const std::size_t count = kind == kEmpty ? 0 : rng.next_below(7);
      for (std::size_t t = 0; t < count; ++t) {
        const auto dst = static_cast<NodeId>(rng.next_below(n));
        run_to(dst, rng.next_below(pool));
      }
      run_to(static_cast<NodeId>(seed % n), pool);
      break;
    }
  }
  return out;
}

// Every node's run outbox for each run collective: [c][node]. The
// receivers read the run boundaries from it.
using RunPlan = std::vector<std::vector<RunOutbox>>;

RunPlan plan_runs(NodeId n, unsigned B, std::uint64_t seed, int kind) {
  RunPlan plan(kCollectives);
  for (int c : {kQueueRuns, kMaxRuns, kAliasedRuns}) {
    for (NodeId v = 0; v < n; ++v)
      plan[c].push_back(make_runs(c, v, n, B, seed, kind));
  }
  return plan;
}

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
// the node's own slot of `got`, and outputs their fingerprint. A run
// collective's inbox is read run by run: bits_from at each of the source's
// runs to this node (their boundaries come from `plan`), re-framed with
// encode_bits so it compares with the reference queue word for word.
void traffic_program(NodeCtx& ctx, std::uint64_t seed, int kind,
                     const RunPlan& plan, Received& got) {
  const NodeId n = ctx.n(), id = ctx.id();
  const unsigned B = ctx.bandwidth();
  auto keep = [&](int c, const FlatInbox& in) {
    got[c][id].assign(n, {});
    for (NodeId src = 0; src < n; ++src) {
      const auto words = in.from(src);
      got[c][id][src].assign(words.begin(), words.end());
    }
  };
  auto keep_runs = [&](int c, const FlatInbox& in) {
    got[c][id].assign(n, {});
    for (NodeId src = 0; src < n; ++src) {
      std::vector<Word>& q = got[c][id][src];
      std::size_t first = 0;
      for (const BitRun& r : plan[c][src].runs) {
        if (r.dst != id) continue;
        const std::size_t len = r.bits->size();
        for (const Word& w : encode_bits(in.bits_from(src, first, len), B))
          q.push_back(w);
        first += ceil_div(len, B);
      }
      EXPECT_EQ(in.words_from(src), first) << "collective " << c;
    }
  };
  const Outbox sends = make_sends(id, n, B, seed, kind);
  keep_runs(kQueueRuns, ctx.exchange_flat(plan[kQueueRuns][id].runs));
  keep(kPairs, ctx.exchange_flat(sends));
  keep_runs(kMaxRuns, ctx.exchange_flat(plan[kMaxRuns][id].runs));
  // The strings and the run list die before the inbox is read — they need
  // only outlive the call.
  FlatInbox aliased;
  {
    const RunOutbox mine = make_runs(kAliasedRuns, id, n, B, seed, kind);
    aliased = ctx.exchange_flat(mine.runs);
  }
  keep_runs(kAliasedRuns, aliased);
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
                          int kind, const RunPlan& plan) {
  std::vector<std::vector<Outbox>> outboxes(kCollectives,
                                            std::vector<Outbox>(n));
  for (NodeId v = 0; v < n; ++v) {
    outboxes[kPairs][v] = make_sends(v, n, B, seed, kind);
    for (int c : {kQueueRuns, kMaxRuns, kAliasedRuns})
      outboxes[c][v] = framed(plan[c][v], B);
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
  const unsigned B = node_id_bits(n) * cfg.bandwidth_multiplier;
  const RunPlan plan = plan_runs(n, B, seed, kind);
  const Expected want = expected_traffic(n, B, seed, kind, plan);
  Received got(kCollectives, std::vector<Inbox>(n));
  const RunResult res = Engine::run(
      g,
      [&](NodeCtx& ctx) { traffic_program(ctx, seed, kind, plan, got); },
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
        // The same sends as one bit run per destination queue (its words'
        // bits, concatenated, frame back into those words); the pair view
        // is read before the second collective reuses the arena.
        std::vector<std::vector<Word>> pair_view(n);
        for (NodeId src = 0; src < n; ++src) {
          const auto s = flat.from(src);
          pair_view[src].assign(s.begin(), s.end());
        }
        std::vector<BitVector> out(n);
        for (const auto& [dst, w] : sends) out[dst].append_bits(w.value, 6);
        std::vector<BitRun> runs;
        for (NodeId v = 0; v < n; ++v) runs.push_back({v, &out[v]});
        const FlatInbox queued = ctx.exchange_flat(runs);
        bool equal = true;
        for (NodeId src = 0; src < n; ++src) {
          const std::vector<Word> s =
              encode_bits(queued.bits_from(src, 0, 12), 6);
          equal = equal && queued.words_from(src) == 2 && s == pair_view[src];
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
    // A bit run cannot break the bound: its 64 bits are framed into
    // ⌈64/B⌉ words of at most B = 2 bits, each a message.
    const RunResult run = Engine::run(
        g,
        [](NodeCtx& ctx) {
          const BitVector bits(64, true);
          const std::vector<BitRun> runs = {{(ctx.id() + 1) % ctx.n(), &bits}};
          ctx.exchange_flat(runs);
          ctx.output(0);
        },
        cfg);
    EXPECT_EQ(run.cost.rounds, 32u);
    EXPECT_EQ(run.cost.messages, 3u * 32);
    EXPECT_EQ(run.cost.bits, 3u * 64);
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

// A bit run is framed into words of at most B bits, so only the pair form
// can carry an over-wide word.
TEST(MsgPlaneRuns, OverWideWordNamesNodeAndDestination) {
  const Graph g = gen::empty(5);  // B = 3
  const auto program = [](NodeCtx& ctx) {
    Outbox sends;
    if (ctx.id() == 3) sends = {{1, Word(1, 1)}, {1, Word(0, 64)}};
    ctx.exchange_flat(sends);
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
      const BitVector bit(1, true), none;
      std::vector<BitRun> runs = {{0, &bit}};
      if (ctx.id() == 3) runs.push_back({9, empty_run ? &none : &bit});
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
  // in FIFO order, whatever shape carried it: bit runs over a random sparse
  // pattern (repeated destinations split over several runs, empty runs,
  // self runs) must leave the exact ledger of their encode_bits framing
  // sent as pairs. Under chaos both arrive as words, so from() reads both.
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
        const RunOutbox out = make_runs(kMaxRuns, ctx.id(), ctx.n(),
                                        ctx.bandwidth(), seed, kRandomSparse);
        const FlatInbox in = as_runs
                                 ? ctx.exchange_flat(out.runs)
                                 : ctx.exchange_flat(framed(out, ctx.bandwidth()));
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

// A run cell holds packed bits, not words: from() names the cell and
// points at bits_from, on the bare plane. (Under chaos a run arrives as
// the words of its framing, which from() reads.)
TEST(MsgPlaneRuns, FromRefusesRunCell) {
  const Graph g = gen::empty(4);
  const auto program = [](NodeCtx& ctx) {
    const BitVector bits(5, true);
    const std::vector<BitRun> runs = {{(ctx.id() + 1) % ctx.n(), &bits}};
    const FlatInbox in = ctx.exchange_flat(runs);
    // Node 2's run to node 3: the cell exists and reads back whole.
    if (ctx.id() == 3) {
      EXPECT_EQ(in.words_from(2), 3u);  // B = 2
      EXPECT_TRUE(in.carries(2, 5));
      EXPECT_FALSE(in.carries(2, 3));
      EXPECT_TRUE(in.bits_from(2, 0, 5) == bits);
      (void)in.from(2);
    }
    ctx.output(0);
  };
  const std::string msg = violation(g, program, false);
  EXPECT_NE(msg.find("FlatInbox::from: node 2 sent node 3 bit runs"),
            std::string::npos)
      << msg;
  EXPECT_EQ(violation(g, program, true), "");
}

// bits_from reads only the words a cell metered: B bits per word of a run
// cell (zero past each run's end), each word's width in a word cell (a run
// under chaos arrives as the words of its framing).
TEST(MsgPlaneRuns, BitsFromPastMeteredWordsThrows) {
  const Graph g = gen::empty(8);  // B = 3
  struct Past {
    std::size_t first, bare_bits, chaos_bits;
  };
  // Node 5 sends node 0 runs of 4 and 5 bits: words of 3+1 and 3+2 bits,
  // so 6 and 6 bits of a run cell, 4 and 5 of a word cell.
  for (const Past& p : {Past{0, 13, 10}, Past{2, 7, 6}, Past{5, 0, 0}}) {
    for (bool chaos : {false, true}) {
      const auto program = [p, chaos](NodeCtx& ctx) {
        BitVector four(4), five(5);
        four.set(0);
        four.set(3);
        five.set(1);
        five.set(4);
        std::vector<BitRun> runs;
        if (ctx.id() == 5) runs = {{0, &four}, {0, &five}};
        const FlatInbox in = ctx.exchange_flat(runs);
        if (ctx.id() == 0) {
          EXPECT_EQ(in.words_from(5), 4u);
          EXPECT_TRUE(in.bits_from(5, 0, 4) == four);
          EXPECT_TRUE(in.bits_from(5, 2, 5) == five);
          (void)in.bits_from(5, p.first, chaos ? p.chaos_bits : p.bare_bits);
        }
        ctx.output(0);
      };
      const std::string msg = violation(g, program, chaos);
      EXPECT_NE(msg.find("FlatInbox::bits_from"), std::string::npos)
          << "chaos=" << chaos << " first=" << p.first << ": " << msg;
    }
  }
}

}  // namespace
}  // namespace ccq
