// Determinism regression suite for the execution backends.
//
// The scheduler contract (clique/scheduler.hpp) promises bit-for-bit
// identical RunResults across backends and team sizes. These tests pin
// that down over a fixed mix of collectives (round / exchange / broadcast /
// share_bit / any / all / route_balanced / route_blocks), lock in the
// abort/unwind behaviour when a node throws mid-collective, and check that
// the fiber team's static id blocks never show: team caps that do not
// divide n, n around the team size, and composition with trace and chaos.

#include "clique/scheduler.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "clique/chaos.hpp"
#include "clique/engine.hpp"
#include "clique/routing.hpp"
#include "clique/trace.hpp"
#include "graph/generators.hpp"
#include "harness/sweep.hpp"
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
    {ExecutionBackend::kPooled, 1, "pooled/1"},
    {ExecutionBackend::kPooled, 2, "pooled/2"},
    {ExecutionBackend::kPooled, 3, "pooled/3"},  // teams that do not divide
    {ExecutionBackend::kPooled, 5, "pooled/5"},  // n = 26 on a 4-thread pool
    {ExecutionBackend::kPooled, 0, "pooled/hw"},
};

Engine::Config config_for(const BackendSetup& s) {
  Engine::Config cfg;
  cfg.backend = s.backend;
  cfg.workers = s.workers;
  return cfg;
}

Engine::Config team_of(std::size_t workers) {
  Engine::Config cfg;
  cfg.workers = workers;
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

// A fixed mix of every collective the engine offers, with per-node skew so
// scheduling order would show up in the result if it could leak.
void mixed_program(NodeCtx& ctx) {
  const NodeId n = ctx.n();
  std::uint64_t fp = 0xcbf29ce484222325ull;
  auto mix = [&fp](std::uint64_t v) { fp = (fp ^ v) * 0x100000001b3ull; };

  // round(): a ring send.
  std::vector<std::pair<NodeId, Word>> sends;
  if (n > 1) sends.emplace_back((ctx.id() + 1) % n, Word(ctx.id() % 2, 1));
  auto in = ctx.round(sends);
  for (NodeId v = 0; v < n; ++v) {
    if (in[v]) mix(in[v]->value + v);
  }

  // exchange_flat(): skewed queue lengths.
  std::vector<std::pair<NodeId, Word>> out;
  for (NodeId v = 0; v < n; ++v) {
    if (v == ctx.id()) continue;
    for (NodeId i = 0; i <= (ctx.id() + v) % 3; ++i) {
      out.emplace_back(v, Word((i + v) % 2, 1));
    }
  }
  const FlatInbox ex = ctx.exchange_flat(out);
  for (NodeId v = 0; v < n; ++v) mix(ex.from(v).size());

  // broadcast(): everyone shares its adjacency row.
  auto rows = ctx.broadcast(ctx.adj_row());
  for (const auto& r : rows) mix(r.popcount());

  // share_bit / any / all.
  auto bits = ctx.share_bit(ctx.id() % 2 == 0);
  for (bool b : bits) mix(b ? 1 : 2);
  mix(ctx.any(ctx.id() == 0) ? 3 : 4);
  mix(ctx.all(true) ? 5 : 6);

  // route_balanced(): n messages to pseudorandom destinations.
  SplitMix64 rng(ctx.id() * 7919 + 13);
  std::vector<RoutedMessage> msgs;
  for (NodeId i = 0; i < n; ++i) {
    NodeId dst;
    do {
      dst = static_cast<NodeId>(rng.next_below(n));
    } while (n > 1 && dst == ctx.id());
    msgs.push_back({dst, Word(i % 2, 1)});
  }
  for (const auto& [src, w] : route_balanced(ctx, msgs)) mix(src + w.value);

  // route_blocks(): one small block to the next node (5 bits; a 2-node
  // clique frames at most 3).
  BitVector payload(std::min<NodeId>(n + 1, 5));
  payload.set(ctx.id() % 5);
  std::vector<RoutedBlock> blocks;
  if (n > 1) blocks.push_back({(ctx.id() + 1) % n, payload});
  for (const auto& [src, bv] : route_blocks(ctx, blocks)) {
    mix(src + bv.popcount());
  }

  mix(ctx.rounds_so_far());
  ctx.output(fp);
}

TEST(SchedulerDeterminism, IdenticalResultsAcrossBackendsAndWorkerCounts) {
  const Graph g = gen::gnp(26, 0.5, 99);
  const auto ref =
      Engine::run(g, mixed_program, config_for(kSetups[0]));
  EXPECT_GT(ref.cost.rounds, 0u);
  EXPECT_GT(ref.cost.messages, 0u);
  for (const BackendSetup& s : kSetups) {
    expect_same_result(ref, Engine::run(g, mixed_program, config_for(s)),
                       s.name);
  }
}

TEST(SchedulerDeterminism, RepeatedPooledRunsAreIdentical) {
  const Graph g = gen::gnp(17, 0.4, 5);
  Engine::Config cfg;
  cfg.backend = ExecutionBackend::kPooled;
  const auto r1 = Engine::run(g, mixed_program, cfg);
  const auto r2 = Engine::run(g, mixed_program, cfg);
  expect_same_result(r1, r2, "pooled repeat");
}

TEST(SchedulerDeterminism, WorkerCapBeyondPoolSizeIsClamped) {
  // workers may legally exceed the machine's pool size (just not n — that
  // is rejected at run() entry); the scheduler must clamp, not deadlock.
  const Graph g = gen::gnp(64, 0.5, 3);
  const auto ref = Engine::run(g, mixed_program);
  // 64 == n, far beyond any pool on CI hardware.
  expect_same_result(ref, Engine::run(g, mixed_program, team_of(64)),
                     "clamped");
}

// Team caps that divide n = 26 (1, 2, 13), that do not (3, 5), one node per
// worker (26 = n) and the pool size (0), all against thread-per-node.
TEST(ShardedDeterminism, BitForBitAcrossShardCounts) {
  const Graph g = gen::gnp(26, 0.5, 17);
  const auto ref = Engine::run(g, mixed_program, config_for(kSetups[0]));
  EXPECT_GT(ref.cost.rounds, 0u);
  for (std::size_t cap : {1u, 2u, 3u, 5u, 13u, 26u, 0u}) {
    expect_same_result(ref, Engine::run(g, mixed_program, team_of(cap)),
                       "w=" + std::to_string(cap));
  }
}

TEST(ShardedDeterminism, RepeatedRunsIdentical) {
  const Graph g = gen::gnp(19, 0.4, 7);
  const auto r1 = Engine::run(g, mixed_program, team_of(3));
  const auto r2 = Engine::run(g, mixed_program, team_of(3));
  expect_same_result(r1, r2, "w=3 repeat");
}

// The bare plane and the plane under a fault-free chaos wrapper (an exact
// no-op on traffic) must agree on a team that does not divide n.
TEST(ShardedDeterminism, BothPlanesAgree) {
  const Graph g = gen::gnp(21, 0.5, 29);
  ChaosPlan fault_free;
  Engine::Config wrapped = team_of(4);
  wrapped.chaos = &fault_free;
  expect_same_result(Engine::run(g, mixed_program, team_of(4)),
                     Engine::run(g, mixed_program, wrapped),
                     "w=4 bare vs fault-free chaos");
  EXPECT_EQ(fault_free.total_faults(), 0u);
}

// n around the team size: team caps n - 1 and n, and the pool size.
TEST(ShardedDeterminism, DegenerateCliqueSizes) {
  for (NodeId n : {1u, 2u, 3u, 4u, 5u}) {
    const Graph g = gen::gnp(n, 0.6, 11 + n);
    const auto ref = Engine::run(g, mixed_program, config_for(kSetups[0]));
    for (std::size_t cap : {std::size_t{n} - 1, std::size_t{n}, std::size_t{0}})
      expect_same_result(ref, Engine::run(g, mixed_program, team_of(cap)),
                         std::to_string(n) + "/" + std::to_string(cap));
  }
}

TEST(SchedulerDeterminism, ManyNodesOnPooledBackend) {
  // Exercise fiber multiplexing well past the worker count.
  const Graph g = gen::empty(300);
  Engine::Config cfg;
  cfg.backend = ExecutionBackend::kPooled;
  auto r = Engine::run(
      g,
      [](NodeCtx& ctx) {
        auto bits = ctx.share_bit(ctx.id() % 3 == 0);
        std::uint64_t count = 0;
        for (bool b : bits) count += b ? 1 : 0;
        ctx.output(count);
      },
      cfg);
  EXPECT_EQ(r.outputs[0], 100u);
  EXPECT_EQ(r.cost.rounds, 1u);
}

// ---- abort / unwind ------------------------------------------------------

std::atomic<int> live_guards{0};

struct UnwindGuard {
  UnwindGuard() { live_guards.fetch_add(1); }
  ~UnwindGuard() { live_guards.fetch_sub(1); }
};

// Node 3 throws between two collectives while every other node is parked
// inside the second one; all stacks must unwind (guards destroyed) and the
// program exception must surface from Engine::run.
void mid_collective_crash(NodeCtx& ctx) {
  UnwindGuard guard;
  ctx.round({});
  if (ctx.id() == 3) throw std::runtime_error("node crash");
  ctx.round({});
  ctx.output(0);
}

TEST(SchedulerAbort, MidCollectiveExceptionUnwindsAllNodes) {
  const Graph g = gen::empty(8);
  for (const BackendSetup& s : kSetups) {
    live_guards.store(0);
    EXPECT_THROW(Engine::run(g, mid_collective_crash, config_for(s)),
                 std::runtime_error)
        << s.name;
    EXPECT_EQ(live_guards.load(), 0) << s.name;
  }
}

TEST(SchedulerAbort, DivergentOperationsDetectedOnEveryBackend) {
  const Graph g = gen::empty(6);
  for (const BackendSetup& s : kSetups) {
    EXPECT_THROW(Engine::run(
                     g,
                     [](NodeCtx& ctx) {
                       if (ctx.id() == 0) {
                         ctx.round({});
                       } else {
                         ctx.broadcast(BitVector(3));
                       }
                       ctx.output(0);
                     },
                     config_for(s)),
                 ModelViolation)
        << s.name;
  }
}

TEST(SchedulerAbort, EarlyFinishDetectedOnEveryBackend) {
  const Graph g = gen::empty(6);
  for (const BackendSetup& s : kSetups) {
    live_guards.store(0);
    EXPECT_THROW(Engine::run(
                     g,
                     [](NodeCtx& ctx) {
                       UnwindGuard guard;
                       ctx.output(0);
                       if (ctx.id() == 0) return;  // skips the collective
                       ctx.round({});
                     },
                     config_for(s)),
                 ModelViolation)
        << s.name;
    EXPECT_EQ(live_guards.load(), 0) << s.name;
  }
}

// A chaos-duplicated broadcast word makes the receiver reassemble more
// bits than the collective's framing declares — a ModelViolation raised
// inside the node program (clique/chaos.hpp). Every backend must unwind
// all node stacks, release the chaos plan on the throw path, and leave the
// engine serviceable for the next run.
TEST(SchedulerAbort, ChaosCorruptedCollectiveUnwindsCleanly) {
  const Graph g = gen::empty(6);
  for (const BackendSetup& s : kSetups) {
    ChaosPlan::Config ccfg;
    ccfg.seed = 21;
    ccfg.p_dup = 1.0;
    ChaosPlan plan(ccfg);
    Engine::Config cfg = config_for(s);
    cfg.chaos = &plan;
    live_guards.store(0);
    EXPECT_THROW(Engine::run(
                     g,
                     [](NodeCtx& ctx) {
                       UnwindGuard guard;
                       ctx.broadcast(BitVector(5, true));
                       ctx.output(0);
                     },
                     cfg),
                 ModelViolation)
        << s.name;
    EXPECT_EQ(live_guards.load(), 0) << s.name;
    EXPECT_GT(plan.fault_count(FaultKind::kDuplicate), 0u) << s.name;
    // The abort path must have released the plan...
    EXPECT_TRUE(plan.try_acquire()) << s.name;
    plan.release();
    // ...and left the backend reusable.
    const auto r = Engine::run(
        g, [](NodeCtx& ctx) { ctx.decide(ctx.all(true)); }, config_for(s));
    EXPECT_TRUE(r.accepted()) << s.name;
  }
}

// Sanitizer runtimes reserve terabytes of shadow address space, so an
// RLIMIT_AS probe cannot run under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitizerBuild = true;
#else
constexpr bool kSanitizerBuild = false;
#endif
#else
constexpr bool kSanitizerBuild = false;
#endif

/// This process's address-space size (VmSize) in bytes, or 0 if unknown.
std::uint64_t vm_size_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmSize:", 0) == 0)
      return std::stoull(line.substr(7)) * 1024;  // reported in kB
  return 0;
}

// Thread-per-node start-up that runs out of threads part-way must surface a
// ModelViolation after joining the nodes that did start — destroying their
// joinable std::threads would std::terminate the process. The death-test
// child caps its address space 64 MiB above its current size, which fits
// only a handful of 8 MiB thread stacks out of 256, and exits 0 only if
// Engine::run throws ModelViolation.
TEST(SchedulerAbort, ThreadStartFailureIsModelViolation) {
  if (kSanitizerBuild) GTEST_SKIP() << "RLIMIT_AS probe needs a plain build";
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        const Graph g = gen::empty(256);
        Engine::Config cfg;
        cfg.backend = ExecutionBackend::kThreadPerNode;
        rlimit lim{};
        const std::uint64_t vm = vm_size_bytes();
        if (vm == 0 || getrlimit(RLIMIT_AS, &lim) != 0) std::_Exit(3);
        lim.rlim_cur = vm + (std::uint64_t{64} << 20);
        if (setrlimit(RLIMIT_AS, &lim) != 0) std::_Exit(3);
        int code = 1;  // no exception: the limit did not bite
        try {
          Engine::run(
              g, [](NodeCtx& ctx) { ctx.decide(ctx.any(false)); }, cfg);
        } catch (const ModelViolation&) {
          code = 0;
        } catch (...) {
          code = 2;
        }
        std::_Exit(code);
      },
      ::testing::ExitedWithCode(0), "");
}

// A node mid-block throws: its worker has resumed the block's earlier
// fibers and still holds later ones. Every stack must unwind, and the pool
// must be serviceable immediately afterwards.
TEST(ShardedAbort, MidRoundExceptionUnwindsAllShards) {
  const Graph g = gen::empty(10);
  for (std::size_t cap : {1u, 3u, 10u}) {  // 3 does not divide 10
    live_guards.store(0);
    EXPECT_THROW(Engine::run(
                     g,
                     [](NodeCtx& ctx) {
                       UnwindGuard guard;
                       ctx.round({});
                       if (ctx.id() == 6) throw std::runtime_error("boom");
                       ctx.round({});
                       ctx.output(0);
                     },
                     team_of(cap)),
                 std::runtime_error)
        << "w=" << cap;
    EXPECT_EQ(live_guards.load(), 0) << "w=" << cap;
    const auto r = Engine::run(
        g, [](NodeCtx& ctx) { ctx.decide(ctx.all(true)); }, team_of(cap));
    EXPECT_TRUE(r.accepted()) << "w=" << cap;
  }
}

TEST(ShardedAbort, DivergentCollectivesDetected) {
  const Graph g = gen::empty(7);
  EXPECT_THROW(Engine::run(
                   g,
                   [](NodeCtx& ctx) {
                     if (ctx.id() == 2) {
                       ctx.round({});
                     } else {
                       ctx.share_bit(true);
                     }
                     ctx.output(0);
                   },
                   team_of(3)),
               ModelViolation);
}

// The calling thread creates every fiber before the team starts, so a stack
// allocation that fails surfaces from Engine::run instead of leaving one
// worker short of the barrier while the rest of the team spins. The
// death-test child caps its address space 64 MiB above its current size,
// which fits the n = 1024 plane but only a few hundred of the 1024 256 KiB
// fiber stacks, and exits 0 only if Engine::run throws std::bad_alloc.
TEST(SchedulerAbort, FiberStackAllocationFailureThrows) {
  if (kSanitizerBuild) GTEST_SKIP() << "RLIMIT_AS probe needs a plain build";
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        const Graph g = gen::empty(1024);
        rlimit lim{};
        const std::uint64_t vm = vm_size_bytes();
        if (vm == 0 || getrlimit(RLIMIT_AS, &lim) != 0) std::_Exit(3);
        lim.rlim_cur = vm + (std::uint64_t{64} << 20);
        if (setrlimit(RLIMIT_AS, &lim) != 0) std::_Exit(3);
        int code = 1;  // no exception: the limit did not bite
        try {
          Engine::run(g, [](NodeCtx& ctx) { ctx.decide(ctx.any(false)); });
        } catch (const std::bad_alloc&) {
          code = 0;
        } catch (...) {
          code = 2;
        }
        std::_Exit(code);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(SchedulerAbort, RoundLimitEnforcedOnPooledBackend) {
  const Graph g = gen::empty(2);
  Engine::Config cfg;
  cfg.backend = ExecutionBackend::kPooled;
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

// ---- composition with trace and chaos ------------------------------------

TEST(ShardedTrace, LedgerIdenticalToPooledBackend) {
  const Graph g = gen::gnp(15, 0.5, 23);
  RoundTrace ref_trace;
  Engine::Config ref_cfg;
  ref_cfg.trace = &ref_trace;
  const auto ref = Engine::run(g, mixed_program, ref_cfg);
  ASSERT_FALSE(ref_trace.records().empty());
  ASSERT_TRUE(ref_trace.totals_match());

  for (std::size_t cap : {2u, 3u}) {
    RoundTrace trace;
    Engine::Config cfg = team_of(cap);
    cfg.trace = &trace;
    expect_same_result(ref, Engine::run(g, mixed_program, cfg), "traced");
    EXPECT_TRUE(ref_trace.deterministic_eq(trace)) << "w=" << cap;
    EXPECT_TRUE(trace.totals_match()) << "w=" << cap;
  }
}

TEST(ShardedChaos, FaultScheduleIndependentOfSharding) {
  const Graph g = gen::empty(9);
  auto run_with = [&](Engine::Config cfg, ChaosPlan& plan) {
    cfg.chaos = &plan;
    return Engine::run(
        g,
        [](NodeCtx& ctx) {
          std::vector<std::pair<NodeId, Word>> sends;
          for (NodeId v = 0; v < ctx.n(); ++v) {
            if (v != ctx.id()) sends.emplace_back(v, Word(ctx.id() % 2, 1));
          }
          const FlatInbox in = ctx.exchange_flat(sends);
          std::uint64_t fp = 0;
          for (NodeId v = 0; v < ctx.n(); ++v) {
            for (const Word& w : in.from(v)) fp = fp * 131 + w.value + v;
          }
          ctx.output(fp);
        },
        cfg);
  };
  ChaosPlan::Config ccfg;
  ccfg.seed = 77;
  ccfg.p_flip = 0.3;
  ccfg.p_dup = 0.2;

  ChaosPlan ref_plan(ccfg);
  const auto ref = run_with(Engine::Config{}, ref_plan);
  ASSERT_GT(ref_plan.total_faults(), 0u);

  ChaosPlan plan(ccfg);
  expect_same_result(ref, run_with(team_of(3), plan), "chaos w=3");
  ASSERT_EQ(ref_plan.ledger().size(), plan.ledger().size());
  for (std::size_t i = 0; i < plan.ledger().size(); ++i) {
    EXPECT_TRUE(ref_plan.ledger()[i] == plan.ledger()[i]) << "event " << i;
  }
}

// Full duplication under a trace: the plane's max_node_in report must stay
// consistent with the trace's independent per-node delta scan (the engine
// cross-checks them and throws on mismatch), and the ledger and metered
// cost must not depend on the team size.
TEST(ShardedChaos, LegacyPlaneDuplicateAgreesWithTraceCrossCheck) {
  const Graph g = gen::empty(6);
  ChaosPlan::Config ccfg;
  ccfg.seed = 5;
  ccfg.p_dup = 1.0;  // every word doubled
  // exchange_flat (not broadcast): raw queues carry no framing, so
  // duplicated words arrive as extra words instead of tripping reassembly
  // checks — the run must complete with the inflated traffic fully
  // accounted.
  const auto program = [](NodeCtx& ctx) {
    std::vector<std::pair<NodeId, Word>> sends;
    for (NodeId v = 0; v < ctx.n(); ++v) {
      if (v != ctx.id()) sends.emplace_back(v, Word(1, 1));
    }
    const FlatInbox in = ctx.exchange_flat(sends);
    std::uint64_t words = 0;
    for (NodeId v = 0; v < ctx.n(); ++v) words += in.from(v).size();
    ctx.output(words);
  };
  struct Run {
    RunResult result;
    std::vector<FaultEvent> ledger;
  };
  const auto run_on = [&](Engine::Config cfg, const char* name) {
    ChaosPlan plan(ccfg);
    RoundTrace trace;
    cfg.chaos = &plan;
    cfg.trace = &trace;
    Run out{Engine::run(g, program, cfg), plan.ledger()};
    EXPECT_GT(plan.fault_count(FaultKind::kDuplicate), 0u) << name;
    EXPECT_TRUE(trace.totals_match()) << name;
    // Every word was duplicated: each node received 2 words from each of
    // the other 5 nodes, and the trace's per-collective receiver max must
    // agree.
    for (auto w : out.result.outputs) EXPECT_EQ(w, 10u) << name;
    EXPECT_EQ(trace.records().size(), 1u) << name;
    if (!trace.records().empty()) {
      EXPECT_EQ(trace.records()[0].max_received, 10u) << name;
    }
    return out;
  };
  const Run hw = run_on(Engine::Config{}, "w=0");
  const Run three = run_on(team_of(3), "w=3");
  expect_same_result(hw.result, three.result, "w=0 vs w=3 under duplication");
  EXPECT_TRUE(hw.ledger == three.ledger);
}

// ---- the n cap ------------------------------------------------------------

TEST(ShardedScale, CliqueAbovePreviousCapRuns) {
  // Above 4096 (the cap before 8192): 4097 fibers on the default team.
  const NodeId n = 4097;
  const auto r = Engine::run(gen::empty(n), [](NodeCtx& ctx) {
    auto bits = ctx.share_bit(ctx.id() % 7 == 0);
    std::uint64_t count = 0;
    for (bool b : bits) count += b ? 1 : 0;
    ctx.output(count);
  });
  EXPECT_EQ(r.outputs[0], (n + 6) / 7);
  EXPECT_EQ(r.cost.rounds, 1u);
}

TEST(ShardedScale, CliqueBeyondCapRejected) {
  EXPECT_THROW(
      Engine::run(gen::empty(8193), [](NodeCtx& ctx) { ctx.output(0); }),
      ModelViolation);
}

// ---- the fiber stack store ------------------------------------------------

using detail::FiberStackStore;

struct StoreRun {
  RunResult result;
  std::uint64_t ledger_fp = 0;
  std::uint64_t fresh_stacks = 0;  // what the trace reports for the run
};

StoreRun traced_run(const Graph& g, Engine::Config cfg,
                    EngineSession* session = nullptr) {
  RoundTrace trace;
  cfg.trace = &trace;
  StoreRun r;
  r.result = session != nullptr
                 ? session->run(Instance::of(g), mixed_program, cfg)
                 : Engine::run(g, mixed_program, cfg);
  r.ledger_fp = harness::ledger_fingerprint(trace);
  r.fresh_stacks = trace.run_info().at(0).fresh_stacks;
  return r;
}

EngineSession::Shape shape_of(NodeId n, const Engine::Config& cfg) {
  EngineSession::Shape shape;
  shape.n = n;
  shape.backend = cfg.backend;
  shape.workers = cfg.workers;
  return shape;
}

// Holds every idle stack of the process-wide store, so the next run must
// map all of its stacks fresh.
class DrainedStore {
 public:
  DrainedStore() {
    FiberStackStore& store = FiberStackStore::process();
    store.take(store.idle(), &held_);
  }
  ~DrainedStore() { FiberStackStore::process().give_back(held_); }

 private:
  std::vector<char*> held_;
};

TEST(FiberStackStore, SecondRunAtTheSameSizeMapsNoStacks) {
  const Graph g = gen::gnp(40, 0.3, 5);
  const Engine::Config cfg;
  {
    DrainedStore drained;
    EXPECT_EQ(traced_run(g, cfg).fresh_stacks, 40u);
    EXPECT_EQ(traced_run(g, cfg).fresh_stacks, 0u);
  }
  {
    DrainedStore drained;
    EngineSession session(shape_of(40, cfg));
    EXPECT_EQ(traced_run(g, cfg, &session).fresh_stacks, 40u);
    EXPECT_EQ(traced_run(g, cfg, &session).fresh_stacks, 0u);
  }
  Engine::Config threaded;
  threaded.backend = ExecutionBackend::kThreadPerNode;
  EXPECT_EQ(traced_run(g, threaded).fresh_stacks, 0u);
}

// Stacks carry nothing from one run into the next: a run on freshly mapped
// stacks, a plain run and a session run on recycled ones all match the
// thread-per-node oracle bit for bit.
TEST(FiberStackStore, RecycledStacksChangeNoResult) {
  for (const NodeId n : {NodeId{1}, NodeId{5}, NodeId{64}}) {
    const Graph g = gen::gnp(n, 0.5, 31 + n);
    Engine::Config oracle_cfg;
    oracle_cfg.backend = ExecutionBackend::kThreadPerNode;
    const StoreRun oracle = traced_run(g, oracle_cfg);
    for (const std::size_t cap : {1, 3, 0}) {
      const Engine::Config cfg = team_of(std::min<std::size_t>(cap, n));
      const std::string what =
          "n=" + std::to_string(n) + " cap=" + std::to_string(cap);
      DrainedStore drained;
      const StoreRun fresh = traced_run(g, cfg);
      EXPECT_EQ(fresh.fresh_stacks, n) << what;
      const StoreRun plain = traced_run(g, cfg);
      EngineSession session(shape_of(n, cfg));
      const StoreRun warm = traced_run(g, cfg, &session);
      for (const StoreRun* r : {&fresh, &plain, &warm}) {
        expect_same_result(oracle.result, r->result, what);
        EXPECT_EQ(oracle.ledger_fp, r->ledger_fp) << what;
      }
      EXPECT_EQ(plain.fresh_stacks, 0u) << what;
      EXPECT_EQ(warm.fresh_stacks, 0u) << what;
    }
  }
}

TEST(FiberStackStore, UnmapsReturnedStacksPastItsIdleCap) {
  static_assert(FiberStackStore::kProcessMaxIdle >= 8192,
                "the process-wide store must keep a full n = 8192 run");
  FiberStackStore store(2);
  std::vector<char*> stacks;
  EXPECT_EQ(store.take(5, &stacks), 5u);
  ASSERT_EQ(stacks.size(), 5u);
  for (char* s : stacks) {
    s[0] = 1;
    s[FiberStackStore::kStackBytes - 1] = 1;
  }
  std::vector<unsigned char> pages(FiberStackStore::kStackBytes /
                                   static_cast<std::size_t>(getpagesize()));
  store.give_back(stacks);
  EXPECT_EQ(store.idle(), 2u);
  // The first two stay mapped; the three past the cap are unmapped, which
  // mincore reports as ENOMEM.
  for (std::size_t i = 0; i < stacks.size(); ++i) {
    errno = 0;
    const int rc = mincore(stacks[i], FiberStackStore::kStackBytes,
                           pages.data());
    if (i < 2) {
      EXPECT_EQ(rc, 0) << i;
    } else {
      EXPECT_EQ(rc, -1) << i;
      EXPECT_EQ(errno, ENOMEM) << i;
    }
  }
  // The kept stacks come back first, in their original order; the third
  // is mapped fresh.
  std::vector<char*> again;
  EXPECT_EQ(store.take(3, &again), 1u);
  ASSERT_EQ(again.size(), 3u);
  EXPECT_EQ(again[0], stacks[0]);
  EXPECT_EQ(again[1], stacks[1]);
  EXPECT_EQ(store.idle(), 0u);
  store.give_back(again);
  EXPECT_EQ(store.idle(), 2u);
}

// ccqd's executors run engines concurrently, so the store is shared across
// threads: a stack must never be handed to two takers at once. Each thread
// stamps its stacks and checks the stamps before giving them back; under
// TSan a shared stack would also be a reported race.
TEST(FiberStackStore, ConcurrentTakersNeverShareAStack) {
  FiberStackStore store(6);
  std::atomic<int> clashes{0};
  std::vector<std::thread> threads;
  for (char tag = 1; tag <= 4; ++tag) {
    threads.emplace_back([&store, &clashes, tag] {
      std::vector<char*> stacks;
      for (int i = 0; i < 200; ++i) {
        store.take(1 + (i + tag) % 5, &stacks);
        for (char* s : stacks) s[0] = tag;
        std::this_thread::yield();
        for (char* s : stacks) clashes += s[0] != tag;
        store.give_back(stacks);
        stacks.clear();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(clashes.load(), 0);
  EXPECT_LE(store.idle(), 6u);
}

}  // namespace
}  // namespace ccq
