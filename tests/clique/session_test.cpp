// EngineSession (clique/engine.hpp): a warm scheduler+plane reused across
// runs must be bit-for-bit indistinguishable from a fresh Engine::run —
// outputs, cost meter, trace ledger, and chaos fault schedule. This is the
// contract ccqd's engine cache (src/service/engine_cache.hpp) stands on:
// if warm reuse changed one bit, the daemon would silently measure a
// different experiment than the bench binaries.

#include "clique/engine.hpp"

#include <gtest/gtest.h>

#include "clique/chaos.hpp"
#include "clique/trace.hpp"
#include "graph/generators.hpp"
#include "harness/sweep.hpp"

namespace ccq {
namespace {

// Communication-heavy enough to exercise the plane: every node sends its
// degree to every neighbour, sums what it hears, then everyone broadcasts
// the sum's parity.
void traffic_program(NodeCtx& ctx) {
  const BitVector& row = ctx.adj_row();
  std::uint64_t deg = 0;
  for (NodeId v = 0; v < ctx.n(); ++v)
    if (row.get(v)) ++deg;
  std::vector<std::pair<NodeId, Word>> sends;
  for (NodeId v = 0; v < ctx.n(); ++v)
    if (row.get(v)) sends.emplace_back(v, Word(deg, ctx.bandwidth()));
  auto in = ctx.round(sends);
  std::uint64_t sum = 0;
  for (const auto& w : in)
    if (w) sum += w->value;
  const std::vector<bool> bits = ctx.share_bit((sum & 1) != 0);
  std::uint64_t ones = 0;
  for (const bool b : bits) ones += b ? 1 : 0;
  ctx.output(sum ^ ones);
}

struct RunArtifacts {
  RunResult result;
  std::uint64_t ledger_fp = 0;
  std::uint64_t faults = 0;
};

RunArtifacts run_fresh(const Graph& g, Engine::Config cfg, bool chaos) {
  RoundTrace trace;
  cfg.trace = &trace;
  ChaosPlan plan(ChaosPlan::Config{.seed = 77, .p_flip = 0.02, .p_dup = 0.01});
  cfg.chaos = chaos ? &plan : nullptr;
  RunArtifacts a;
  a.result = Engine::run(g, traffic_program, cfg);
  a.ledger_fp = harness::ledger_fingerprint(trace);
  a.faults = plan.total_faults();
  return a;
}

RunArtifacts run_warm(EngineSession& session, const Graph& g,
                      Engine::Config cfg, bool chaos) {
  RoundTrace trace;
  cfg.trace = &trace;
  ChaosPlan plan(ChaosPlan::Config{.seed = 77, .p_flip = 0.02, .p_dup = 0.01});
  cfg.chaos = chaos ? &plan : nullptr;
  RunArtifacts a;
  a.result = session.run(Instance::of(g), traffic_program, cfg);
  a.ledger_fp = harness::ledger_fingerprint(trace);
  a.faults = plan.total_faults();
  return a;
}

void expect_identical(const RunArtifacts& fresh, const RunArtifacts& warm,
                      const char* what) {
  EXPECT_EQ(fresh.result.outputs, warm.result.outputs) << what;
  EXPECT_TRUE(harness::meters_equal(fresh.result.cost, warm.result.cost))
      << what;
  EXPECT_EQ(fresh.ledger_fp, warm.ledger_fp) << what;
  EXPECT_EQ(fresh.faults, warm.faults) << what;
}

EngineSession::Shape shape_for(NodeId n, const Engine::Config& cfg) {
  EngineSession::Shape s;
  s.n = n;
  s.bandwidth_multiplier = cfg.bandwidth_multiplier;
  s.backend = cfg.backend;
  s.workers = cfg.workers;
  return s;
}

TEST(EngineSession, BitIdenticalToEngineRunAcrossPlanesAndBackends) {
  const Graph g = gen::gnp(24, 0.3, 42);
  for (const auto& [backend, workers] :
       {std::pair{ExecutionBackend::kPooled, std::size_t{0}},
        std::pair{ExecutionBackend::kPooled, std::size_t{3}},
        std::pair{ExecutionBackend::kThreadPerNode, std::size_t{0}}})
    for (const bool chaos : {false, true}) {
      Engine::Config cfg;
      cfg.backend = backend;
      cfg.workers = workers;
      const char* what = chaos ? "chaos" : "bare";
      const RunArtifacts fresh = run_fresh(g, cfg, chaos);
      EngineSession session(shape_for(24, cfg));
      const RunArtifacts warm = run_warm(session, g, cfg, chaos);
      expect_identical(fresh, warm, what);
      if (chaos) {
        EXPECT_GT(fresh.faults, 0u) << what;
      }
    }
}

TEST(EngineSession, RepeatedWarmRunsAreDeterministic) {
  const Graph g = gen::gnp(20, 0.4, 7);
  Engine::Config cfg;
  EngineSession session(shape_for(20, cfg));
  const RunArtifacts first = run_warm(session, g, cfg, /*chaos=*/false);
  for (int i = 0; i < 4; ++i) {
    const RunArtifacts again = run_warm(session, g, cfg, /*chaos=*/false);
    expect_identical(first, again, "repeat");
  }
  EXPECT_EQ(session.runs_completed(), 5u);
}

TEST(EngineSession, PerRunParametersVaryFreelyWithinOneShape) {
  // seed / max_rounds / trace / chaos are per-run; only shape fields pin.
  const Graph g = gen::gnp(16, 0.5, 3);
  Engine::Config cfg;
  EngineSession session(shape_for(16, cfg));
  cfg.seed = 1;
  const auto a = session.run(Instance::of(g), traffic_program, cfg);
  cfg.seed = 2;
  cfg.max_rounds = 1000;
  const auto b = session.run(Instance::of(g), traffic_program, cfg);
  // This program ignores shared randomness, so results agree; the point is
  // that neither call throws a shape mismatch.
  EXPECT_EQ(a.outputs, b.outputs);
}

TEST(EngineSession, ShapeMismatchedConfigThrows) {
  const Graph g = gen::gnp(16, 0.5, 3);
  Engine::Config cfg;
  EngineSession session(shape_for(16, cfg));
  Engine::Config wrong = cfg;
  wrong.bandwidth_multiplier = 2;
  EXPECT_THROW(session.run(Instance::of(g), traffic_program, wrong),
               ModelViolation);
  wrong = cfg;
  wrong.workers = 3;
  EXPECT_THROW(session.run(Instance::of(g), traffic_program, wrong),
               ModelViolation);
}

TEST(EngineSession, WrongInstanceSizeThrows) {
  Engine::Config cfg;
  EngineSession session(shape_for(16, cfg));
  const Graph smaller = gen::gnp(8, 0.5, 3);
  EXPECT_THROW(session.run(Instance::of(smaller), traffic_program, cfg),
               ModelViolation);
}

TEST(EngineSession, SessionFailuresDoNotPoisonTheSession) {
  // A run that throws (round-limit overrun) must leave the warm scheduler
  // and plane reusable for the next run — the service returns leases to
  // the cache after failed jobs too.
  const Graph g = gen::gnp(12, 0.5, 9);
  Engine::Config cfg;
  EngineSession session(shape_for(12, cfg));
  Engine::Config tight = cfg;
  tight.max_rounds = 1;
  EXPECT_THROW(
      session.run(Instance::of(g), traffic_program, tight),
      ModelViolation);
  const RunArtifacts after = run_warm(session, g, cfg, /*chaos=*/false);
  const RunArtifacts fresh = run_fresh(g, cfg, /*chaos=*/false);
  expect_identical(fresh, after, "after failure");
}

}  // namespace
}  // namespace ccq
