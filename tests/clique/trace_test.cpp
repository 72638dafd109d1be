// Round-trace suite (clique/trace.hpp).
//
// Pins the three contracts the trace header promises:
//   * determinism — every cost-side record field (and every span) is a pure
//     function of the program and instance, identical across
//     {kPooled, kThreadPerNode} backends × team sizes,
//     asserted on randomised traffic with nested spans;
//   * ledger exactness — per-record rounds/messages/bits sum to the
//     CostMeter totals, per-phase totals partition them, and the plane's
//     receiver-side max always agrees with the per-node delta scan (the
//     engine CCQ_CHECKs that on every traced collective);
//   * lifecycle — spans unwind and close on ModelViolation aborts, the
//     acquire is released on every exit path, nested/concurrent runs fall
//     back to untraced instead of interleaving, and the JSONL schema
//     round-trips through load_jsonl.

#include "clique/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "clique/chaos.hpp"
#include "clique/engine.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ccq {
namespace {

struct TraceSetup {
  ExecutionBackend backend;
  std::size_t workers;  // cap on the fiber team; 0 = pool size
  const char* name;
};

const TraceSetup kSetups[] = {
    {ExecutionBackend::kThreadPerNode, 0, "thread-per-node"},
    {ExecutionBackend::kPooled, 2, "pooled-2"},
    {ExecutionBackend::kPooled, 0, "pooled-hw"},
    {ExecutionBackend::kPooled, 3,
     "pooled-3"},  // a team that does not divide n in {5, 26}
};
constexpr std::size_t kPooled2 = 1;  // the setup the ledger tests run on

Engine::Config config_for(const TraceSetup& s, RoundTrace* trace) {
  Engine::Config cfg;
  cfg.backend = s.backend;
  cfg.workers = s.workers;
  cfg.trace = trace;
  return cfg;
}

// Randomised traffic with nested spans: a labelled exchange phase (word
// widths and fan-out vary per node and seed), an unlabelled round, and a
// labelled broadcast, so every opcode and the span plumbing show up in one
// trace.
void traced_program(NodeCtx& ctx, std::uint64_t seed) {
  const NodeId n = ctx.n();
  const unsigned B = ctx.bandwidth();
  SplitMix64 rng(seed * 1000003 + ctx.id() * 7919);
  CCQ_TRACE_SPAN(ctx, "outer");

  {
    CCQ_TRACE_SPAN(ctx, "exchange-phase");
    std::vector<std::pair<NodeId, Word>> sends;
    const std::uint64_t count = rng.next_below(2 * n + 1);
    for (std::uint64_t i = 0; i < count; ++i) {
      const unsigned bits = 1 + static_cast<unsigned>(rng.next_below(B));
      sends.emplace_back(
          static_cast<NodeId>(rng.next_below(n)),
          Word(rng.next() & ((bits == 64 ? ~0ull : (1ull << bits) - 1)),
               bits));
    }
    const FlatInbox in = ctx.exchange_flat(sends);
    std::uint64_t fp = 0;
    for (NodeId src = 0; src < n; ++src) {
      for (const Word& w : in.from(src)) fp += src * 131 + w.value + w.bits;
    }
    // Fold the fingerprint into later traffic so content divergence would
    // cascade into metered differences.
    seed ^= fp;
  }

  std::vector<std::pair<NodeId, Word>> ring;
  if (n > 1 && (seed + ctx.id()) % 3 != 0) {
    ring.emplace_back((ctx.id() + 1) % n, Word((seed ^ ctx.id()) & 1, 1));
  }
  (void)ctx.round_flat(ring);

  {
    CCQ_TRACE_SPAN(ctx, "broadcast-phase");
    BitVector mine;
    for (unsigned i = 0; i < 2 * B + 1; ++i) mine.push_back((seed >> i) & 1);
    (void)ctx.broadcast(mine);
  }

  ctx.output(seed & 0xffff);
}

RunResult run_traced(const TraceSetup& s, RoundTrace* trace, NodeId n,
                     std::uint64_t seed) {
  return Engine::run(
      gen::empty(n), [seed](NodeCtx& ctx) { traced_program(ctx, seed); },
      config_for(s, trace));
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

// ---------------------------------------------------------------------------
// Determinism across backends × worker counts
// ---------------------------------------------------------------------------

TEST(TraceDeterminism, RecordsAndSpansIdenticalAcrossSetups) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const NodeId n = 5 + static_cast<NodeId>(seed % 4) * 7;  // 5..26
    RoundTrace ref;
    const RunResult ref_result = run_traced(kSetups[0], &ref, n, seed);
    ASSERT_FALSE(ref.records().empty());
    ASSERT_TRUE(ref.totals_match());
    for (std::size_t i = 1; i < std::size(kSetups); ++i) {
      RoundTrace got;
      const RunResult result = run_traced(kSetups[i], &got, n, seed);
      EXPECT_EQ(ref_result.outputs, result.outputs) << kSetups[i].name;
      EXPECT_TRUE(ref.deterministic_eq(got))
          << kSetups[i].name << " seed=" << seed;
      EXPECT_TRUE(got.totals_match()) << kSetups[i].name;
    }
  }
}

TEST(TraceDeterminism, TracingDoesNotChangeMeteredCost) {
  const NodeId n = 16;
  for (const TraceSetup& s : kSetups) {
    RoundTrace trace;
    const RunResult traced = run_traced(s, &trace, n, 3);
    const RunResult bare = run_traced(s, nullptr, n, 3);
    EXPECT_EQ(bare.outputs, traced.outputs) << s.name;
    EXPECT_EQ(bare.cost.rounds, traced.cost.rounds) << s.name;
    EXPECT_EQ(bare.cost.messages, traced.cost.messages) << s.name;
    EXPECT_EQ(bare.cost.bits, traced.cost.bits) << s.name;
    EXPECT_EQ(bare.cost.collectives, traced.cost.collectives) << s.name;
    EXPECT_EQ(bare.cost.max_node_sent, traced.cost.max_node_sent) << s.name;
    EXPECT_EQ(bare.cost.max_node_received, traced.cost.max_node_received)
        << s.name;
  }
}

// ---------------------------------------------------------------------------
// Ledger contents
// ---------------------------------------------------------------------------

TEST(TraceLedger, RecordsSumToMeterAndPhasesPartition) {
  RoundTrace trace;
  const RunResult result = run_traced(kSetups[kPooled2], &trace, 12, 1);

  EXPECT_TRUE(trace.totals_match());
  EXPECT_EQ(trace.metered_totals().rounds, result.cost.rounds);
  EXPECT_EQ(trace.metered_totals().bits, result.cost.bits);
  EXPECT_EQ(trace.runs(), 1u);

  // One record per collective, op labels from the engine's opcode set,
  // contiguous round intervals, utilisation within the model's capacity.
  std::uint64_t expect_begin = 0;
  for (const TraceRecord& r : trace.records()) {
    EXPECT_TRUE(r.op == "round" || r.op == "exchange" || r.op == "broadcast")
        << r.op;
    EXPECT_EQ(r.round_begin, expect_begin);
    expect_begin += r.rounds;
    EXPECT_GE(r.cap_utilisation, 0.0);
    EXPECT_LE(r.cap_utilisation, 1.0);
    // Histograms cover every node exactly once.
    EXPECT_EQ(r.sent_hist.nodes(), 12u);
    EXPECT_EQ(r.received_hist.nodes(), 12u);
    EXPECT_GE(r.bits, r.messages);  // every word is >= 1 bit
  }
  EXPECT_EQ(expect_begin, result.cost.rounds);

  // Phase totals partition the meter; the labels are the program's spans.
  const auto phases = trace.phase_totals();
  EXPECT_TRUE(phases.count("exchange-phase"));
  EXPECT_TRUE(phases.count("broadcast-phase"));
  EXPECT_TRUE(phases.count("outer"));  // the bare round_flat between spans
  std::uint64_t rounds = 0, bits = 0, collectives = 0;
  for (const auto& [label, t] : phases) {
    rounds += t.rounds;
    bits += t.bits;
    collectives += t.collectives;
  }
  EXPECT_EQ(rounds, result.cost.rounds);
  EXPECT_EQ(bits, result.cost.bits);
  EXPECT_EQ(collectives, result.cost.collectives);
}

TEST(TraceLedger, ReceiverSideMaxMatchesKnownPattern) {
  // Every node sends 3 words to node 0: receiver max = 3 * (n - 1) at node
  // 0 (self excluded), sender max = 3. The plane must report it bare and
  // under a fault-free chaos wrapper.
  const NodeId n = 9;
  for (bool chaos : {false, true}) {
    RoundTrace trace;
    ChaosPlan fault_free;
    Engine::Config cfg;
    if (chaos) cfg.chaos = &fault_free;
    cfg.trace = &trace;
    Engine::run(
        gen::empty(n),
        [](NodeCtx& ctx) {
          std::vector<std::pair<NodeId, Word>> sends;
          if (ctx.id() != 0) {
            for (int i = 0; i < 3; ++i) sends.emplace_back(0, Word(1, 1));
          }
          (void)ctx.exchange_flat(sends);
          ctx.output(0);
        },
        cfg);
    ASSERT_EQ(trace.records().size(), 1u);
    const TraceRecord& r = trace.records()[0];
    EXPECT_EQ(r.max_sent, 3u);
    EXPECT_EQ(r.max_received, 3u * (n - 1));
    EXPECT_EQ(r.rounds, 3u);  // one hot pair drains 3 per round
    // Histogram shape: node 0 sent nothing, everyone else 3 words; node 0
    // received 24 words, everyone else 0.
    EXPECT_EQ(r.sent_hist.bucket[0], 1u);
    EXPECT_EQ(r.received_hist.bucket[0], static_cast<std::uint32_t>(n - 1));
  }
}

TEST(TraceLedger, SpanCoordinatesAndNesting) {
  RoundTrace trace;
  const NodeId n = 6;
  Engine::Config cfg;
  cfg.trace = &trace;
  Engine::run(
      gen::empty(n),
      [](NodeCtx& ctx) {
        EXPECT_TRUE(ctx.tracing());
        CCQ_TRACE_SPAN(ctx, "a");
        (void)ctx.round_flat({});
        {
          CCQ_TRACE_SPAN(ctx, "b");
          (void)ctx.round_flat({});
          (void)ctx.round_flat({});
        }
        ctx.output(0);
      },
      cfg);

  // Per node: span "a" over collectives [0, 3), depth 0; "b" over [1, 3),
  // depth 1. Spans flush in node-id order.
  ASSERT_EQ(trace.spans().size(), 2u * n);
  for (NodeId v = 0; v < n; ++v) {
    const TraceSpanEvent& a = trace.spans()[2 * v];
    const TraceSpanEvent& b = trace.spans()[2 * v + 1];
    EXPECT_EQ(a.node, v);
    EXPECT_EQ(a.label, "a");
    EXPECT_EQ(a.depth, 0u);
    EXPECT_EQ(a.begin_collective, 0u);
    EXPECT_EQ(a.end_collective, 3u);
    EXPECT_EQ(a.begin_round, 0u);
    EXPECT_EQ(a.end_round, 3u);
    EXPECT_EQ(b.label, "b");
    EXPECT_EQ(b.depth, 1u);
    EXPECT_EQ(b.begin_collective, 1u);
    EXPECT_EQ(b.end_collective, 3u);
  }
  // Phase attribution: collective 0 under "a", 1 and 2 under "b".
  ASSERT_EQ(trace.records().size(), 3u);
  EXPECT_EQ(trace.records()[0].phase, "a");
  EXPECT_EQ(trace.records()[1].phase, "b");
  EXPECT_EQ(trace.records()[2].phase, "b");
}

TEST(TraceLedger, HistogramBuckets) {
  TraceHistogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(4);
  h.add(7);
  h.add(8);
  h.add(~0ull);
  EXPECT_EQ(h.bucket[0], 1u);  // zero
  EXPECT_EQ(h.bucket[1], 1u);  // [1, 2)
  EXPECT_EQ(h.bucket[2], 2u);  // [2, 4)
  EXPECT_EQ(h.bucket[3], 2u);  // [4, 8)
  EXPECT_EQ(h.bucket[4], 1u);  // [8, 16)
  EXPECT_EQ(h.bucket[TraceHistogram::kBuckets - 1], 1u);  // overflow bucket
  EXPECT_EQ(h.nodes(), 8u);
}

// ---------------------------------------------------------------------------
// Lifecycle: aborts, acquire/release, nested runs
// ---------------------------------------------------------------------------

TEST(TraceLifecycle, SpansUnwindAndCloseOnModelViolation) {
  for (const TraceSetup& s : kSetups) {
    RoundTrace trace;
    const NodeId n = 6;
    EXPECT_THROW(
        Engine::run(
            gen::empty(n),
            [](NodeCtx& ctx) {
              CCQ_TRACE_SPAN(ctx, "outer");
              (void)ctx.round_flat({});
              CCQ_TRACE_SPAN(ctx, "doomed");
              std::vector<std::pair<NodeId, Word>> sends;
              if (ctx.id() == 0) {
                // One bit over B: rejected in the deposit scan, aborting
                // the run mid-collective.
                sends.emplace_back(1, Word(0, ctx.bandwidth() + 1));
              }
              (void)ctx.exchange_flat(sends);
              ctx.output(0);
            },
            config_for(s, &trace)),
        ModelViolation)
        << s.name;

    // Every node deposited in collective 0, so every node opened "outer";
    // whether a node also reached the "doomed" push before the abort killed
    // it is backend-dependent (a parked pooled fiber is aborted inside the
    // first rendezvous and never returns to the program body). What IS
    // guaranteed: no span dangles, everything closes at the abort
    // coordinates (1 committed collective / 1 committed round), and the
    // violating node recorded both spans.
    std::size_t outer = 0, doomed = 0;
    for (const TraceSpanEvent& ev : trace.spans()) {
      EXPECT_EQ(ev.end_collective, 1u) << s.name;
      EXPECT_EQ(ev.end_round, 1u) << s.name;
      if (ev.label == "outer") {
        ++outer;
        EXPECT_EQ(ev.begin_collective, 0u) << s.name;
      } else {
        ASSERT_EQ(ev.label, "doomed") << s.name;
        ++doomed;
        EXPECT_EQ(ev.begin_collective, 1u) << s.name;
      }
    }
    EXPECT_EQ(outer, static_cast<std::size_t>(n)) << s.name;
    EXPECT_GE(doomed, 1u) << s.name;
    EXPECT_LE(doomed, static_cast<std::size_t>(n)) << s.name;
    // The aborted collective was never metered; the clean round was.
    EXPECT_EQ(trace.records().size(), 1u) << s.name;
    EXPECT_TRUE(trace.totals_match()) << s.name;
    // The acquire was released: the same trace records a fresh run.
    const RunResult ok = run_traced(s, &trace, 4, 0);
    EXPECT_EQ(trace.runs(), 2u) << s.name;
    EXPECT_TRUE(trace.totals_match()) << s.name;
    EXPECT_EQ(trace.metered_totals().rounds, 1 + ok.cost.rounds) << s.name;
  }
}

TEST(TraceLifecycle, MultiRunAccumulationAndChromeOffsets) {
  RoundTrace trace;
  Engine::Config cfg;
  cfg.trace = &trace;
  const auto one_round = [](NodeCtx& ctx) {
    (void)ctx.round_flat({});
    (void)ctx.round_flat({});
    ctx.output(0);
  };
  Engine::run(gen::empty(4), one_round, cfg);
  Engine::run(gen::empty(8), one_round, cfg);

  ASSERT_EQ(trace.runs(), 2u);
  EXPECT_EQ(trace.run_info()[0].rounds, 2u);
  EXPECT_EQ(trace.run_info()[1].round_offset, 2u);  // laid back to back
  ASSERT_EQ(trace.records().size(), 4u);
  EXPECT_EQ(trace.records()[2].run, 1u);
  EXPECT_EQ(trace.records()[2].collective, 0u);  // per-run numbering
  EXPECT_TRUE(trace.totals_match());

  trace.clear();
  EXPECT_EQ(trace.runs(), 0u);
  EXPECT_TRUE(trace.records().empty());
}

TEST(TraceLifecycle, NestedRunsFallBackToUntraced) {
  RoundTrace trace;
  trace::set_global(&trace);
  // Thread-per-node outer backend: each node runs on a full OS thread, so
  // the nested Engine::run below executes on a regular stack (a pooled
  // fiber stack is not sized for a whole nested engine).
  Engine::Config cfg;
  cfg.backend = ExecutionBackend::kThreadPerNode;
  const RunResult outer = Engine::run(
      gen::empty(2),
      [](NodeCtx& ctx) {
        (void)ctx.round_flat({});
        // Nested simulation while the outer run holds the global trace: the
        // inner run must execute untraced, not interleave records.
        const RunResult inner = Engine::run(gen::empty(2), [](NodeCtx& ic) {
          (void)ic.round_flat({});
          ic.output(1);
        });
        ctx.output(inner.cost.rounds);
      },
      cfg);
  trace::set_global(nullptr);

  EXPECT_EQ(outer.outputs, std::vector<std::uint64_t>(2, 1));  // inner rounds
  EXPECT_EQ(trace.runs(), 1u);
  ASSERT_EQ(trace.records().size(), 1u);  // the outer round only
  EXPECT_TRUE(trace.totals_match());
}

TEST(TraceLifecycle, ConfigTraceOverridesGlobal) {
  RoundTrace global_trace, local_trace;
  trace::set_global(&global_trace);
  Engine::Config cfg;
  cfg.trace = &local_trace;
  Engine::run(
      gen::empty(4),
      [](NodeCtx& ctx) {
        (void)ctx.round_flat({});
        ctx.output(0);
      },
      cfg);
  trace::set_global(nullptr);
  EXPECT_EQ(global_trace.runs(), 0u);
  EXPECT_EQ(local_trace.runs(), 1u);
}

TEST(TraceLifecycle, UntracedRunsCostNoRecordsAndSpansNoop) {
  const RunResult r = Engine::run(gen::empty(4), [](NodeCtx& ctx) {
    EXPECT_FALSE(ctx.tracing());
    CCQ_TRACE_SPAN(ctx, "ignored");
    (void)ctx.round_flat({});
    ctx.output(0);
  });
  EXPECT_EQ(r.cost.rounds, 1u);
}

// ---------------------------------------------------------------------------
// Export round-trips
// ---------------------------------------------------------------------------

TEST(TraceExport, JsonlRoundTrip) {
  RoundTrace trace;
  run_traced(kSetups[kPooled2], &trace, 11, 5);
  run_traced(kSetups[kPooled2], &trace, 7, 6);

  const std::string path = temp_path("trace_roundtrip.jsonl");
  ASSERT_TRUE(trace.write_jsonl(path));

  RoundTrace loaded;
  ASSERT_TRUE(RoundTrace::load_jsonl(path, &loaded));
  EXPECT_TRUE(trace.deterministic_eq(loaded));
  EXPECT_EQ(loaded.runs(), trace.runs());
  EXPECT_EQ(loaded.metered_totals().rounds, trace.metered_totals().rounds);
  EXPECT_EQ(loaded.metered_totals().messages,
            trace.metered_totals().messages);
  EXPECT_EQ(loaded.metered_totals().bits, trace.metered_totals().bits);
  EXPECT_TRUE(loaded.totals_match());
  // Observability-only fields survive the round-trip too.
  for (std::size_t i = 0; i < trace.records().size(); ++i) {
    EXPECT_EQ(trace.records()[i].delivery_ms, loaded.records()[i].delivery_ms);
    EXPECT_EQ(trace.records()[i].fiber_switches,
              loaded.records()[i].fiber_switches);
  }
  for (std::size_t i = 0; i < trace.runs(); ++i) {
    EXPECT_EQ(trace.run_info()[i].fresh_stacks,
              loaded.run_info()[i].fresh_stacks);
  }
  std::remove(path.c_str());
}

TEST(TraceExport, LoadRejectsGarbage) {
  const std::string path = temp_path("trace_garbage.jsonl");
  {
    std::ofstream f(path);
    f << "{\"type\":\"nonsense\"}\n";
  }
  RoundTrace loaded;
  EXPECT_FALSE(RoundTrace::load_jsonl(path, &loaded));
  EXPECT_FALSE(RoundTrace::load_jsonl(temp_path("does_not_exist.jsonl"),
                                      &loaded));
  std::remove(path.c_str());
}

TEST(TraceExport, ChromeFileIsWellFormed) {
  RoundTrace trace;
  run_traced(kSetups[kPooled2], &trace, 9, 2);
  const std::string path = temp_path("trace_chrome.json");
  ASSERT_TRUE(trace.write_chrome(path));

  // Structural smoke check without a JSON parser: the writer emits one
  // event object per line between the traceEvents brackets; brace balance
  // and the required keys must hold.
  std::ifstream f(path);
  std::string all((std::istreambuf_iterator<char>(f)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(all.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(all.find("\"cat\":\"collective\""), std::string::npos);
  EXPECT_NE(all.find("\"cat\":\"span\""), std::string::npos);
  std::int64_t depth = 0;
  for (char c : all) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ccq
