// ccqd-mix: the job daemon under a closed loop.
//
// An in-process ccq::service::Server with ccqd's default options (2
// executors, queue 16, 8 cached sessions) listens on a Unix socket in the
// working directory; 4 client connections from this process each send their
// next submit only after the previous reply. Each run sends one fixed,
// seeded list of jobs over the five registered sweep algorithms, the gnp,
// powerlaw and community families and 12 sizes n ∈ {48, 64, …, 224}:
// 12 engine shapes against 8 cached sessions, so session misses occur; half
// the jobs repeat one of 8 hot cells (instance-cache hits), the other half
// carry a fresh family seed (instance misses). Chosen because it stresses
// the protocol, queueing, both caches and per-run engine set-up while each
// engine run is small.
//
// Every response is checked against a library-path replay of its cell
// (output_fp, ledger_fp, rounds, bits); a mismatch, an error response
// (queue_full, job_failed, ...) or a dropped connection is a failed job and
// stays out of the latency sample.

#include <unistd.h>

#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "clique/engine.hpp"
#include "clique/trace.hpp"
#include "common.hpp"
#include "graph/corpus.hpp"
#include "harness/manifest.hpp"
#include "harness/sweep.hpp"
#include "service/engine_cache.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/json.hpp"

namespace perfbench {
namespace {

using ccq::NodeId;
namespace json = ccq::json;
namespace harness = ccq::harness;
namespace service = ccq::service;

constexpr int kClients = 4;
constexpr int kSetupReps = 3;
constexpr int kHotCells = 8;
constexpr int kMinJobs = 1000;  // op_ms_p99 then has ≥ 10 samples above it
constexpr const char* kFamilies[] = {"gnp", "powerlaw", "community"};
constexpr int kSizes = 12;  // n = 48, 64, ..., 224
constexpr int kInstanceMissProbes = 32;
constexpr int kOverheadPasses = 5;
constexpr int kSteadyRuns = 3;

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// What a correct response for one cell carries.
struct Expect {
  std::string output_fp, ledger_fp;
  std::uint64_t rounds = 0, bits = 0;
};

/// One library-path replay: the expected response and the layer readings.
struct Replay {
  Expect expect;
  double build_ms = 0;
  TracedOp layers;
};

// The eight hot cells, as (algorithm, family, n); their family seeds come
// from --seed. Fixed here, with every fresh cell drawn equally often, so the
// work in a run is the same for every seed and only the graphs change.
struct CellShape {
  const char* algorithm;
  const char* family;
  int n;
};
constexpr CellShape kHot[kHotCells] = {
    {"routing_direct", "gnp", 64},       {"routing_balanced", "powerlaw", 96},
    {"broadcast_adj", "community", 128}, {"mm_bool_3d", "gnp", 160},
    {"triangle_mm", "powerlaw", 192},    {"routing_direct", "community", 224},
    {"broadcast_adj", "gnp", 48},        {"mm_bool_3d", "community", 112}};

std::string cell_body(const std::string& algorithm, const std::string& family,
                      int n, std::uint64_t family_seed) {
  return "{\"algorithm\": \"" + algorithm + "\", \"family\": \"" + family +
         "\", \"n\": " + std::to_string(n) +
         ", \"seed\": " + std::to_string(family_seed) + "}";
}

/// The job list: `cell_passes` × every (algorithm, family, n) cell
/// with a fresh family seed, as many hot-cell jobs (each hot cell equally
/// often), in a seeded order.
std::vector<std::string> make_jobs(std::uint64_t seed, int cell_passes) {
  SeedRng rng(seed);
  // Family seeds stay below 2^53: job bodies travel as JSON numbers.
  auto family_seed = [&] { return rng.next() >> 11; };
  std::vector<std::string> hot;
  for (const CellShape& c : kHot)
    hot.push_back(cell_body(c.algorithm, c.family, c.n, family_seed()));
  std::vector<std::string> jobs;
  for (int r = 0; r < cell_passes; ++r)
    for (const std::string& algo : harness::algorithm_names())
      for (const char* family : kFamilies)
        for (int s = 0; s < kSizes; ++s)
          jobs.push_back(cell_body(algo, family, 48 + 16 * s, family_seed()));
  const std::size_t fresh = jobs.size();
  for (std::size_t j = 0; j < fresh; ++j) jobs.push_back(hot[j % kHotCells]);
  for (std::size_t i = jobs.size() - 1; i > 0; --i)
    std::swap(jobs[i], jobs[rng.below(i + 1)]);
  return jobs;
}

harness::CellSpec parse_cell(const std::string& body) {
  return harness::parse_job_cell(json::parse(body, "perfbench job"),
                                 "perfbench job");
}

std::string submit_frame(const std::string& body) {
  return "{\"type\": \"submit\", \"job\": " + body + "}";
}

/// Library-path run of one cell: the config the daemon builds, through
/// plain Engine::run with a RoundTrace attached. Returns false (with *why)
/// when the trace ledger does not reproduce the meter or delivery time
/// exceeds run time.
bool replay(const std::string& body, Replay* r, std::string* why) {
  const harness::CellSpec spec = parse_cell(body);
  auto t0 = Clock::now();
  const ccq::Graph g = ccq::corpus::make_family(spec.family, spec.n);
  r->build_ms = ms_since(t0);
  const ccq::NodeProgram program = harness::find_algorithm(spec.algorithm);
  ccq::Engine::Config cfg = harness::cell_engine_config(spec);
  ccq::RoundTrace trace;
  cfg.trace = &trace;
  t0 = Clock::now();
  const ccq::RunResult res = ccq::Engine::run(g, program, cfg);
  r->layers = read_trace(trace, ms_since(t0), res.cost.messages);
  r->expect.output_fp = hex(harness::outputs_fp(res.outputs));
  r->expect.ledger_fp = hex(harness::ledger_fingerprint(trace));
  r->expect.rounds = res.cost.rounds;
  r->expect.bits = res.cost.bits;
  if (!trace.totals_match() ||
      !harness::meters_equal(trace.metered_totals(), res.cost)) {
    *why = "replay ledger does not reproduce the meter: " + body;
    return false;
  }
  if (r->layers.delivery_ms > r->layers.run_ms) {
    *why = "replay delivery time exceeds run time: " + body;
    return false;
  }
  return true;
}

/// One client connection's closed loop over its share of the job list.
struct ClientLog {
  std::vector<double> lat_ms, engine_ms;
  std::uint64_t ok = 0;
  std::vector<std::string> failures;  ///< one entry per failed job
  double words = 0, rounds = 0, bits = 0;
};

void client_loop(const std::string& socket_path,
                 const std::vector<const std::string*>& bodies,
                 const std::map<std::string, Replay>& ref, ClientLog* log) {
  std::unique_ptr<service::Client> client;
  std::size_t next = 0;
  try {
    client = std::make_unique<service::Client>(socket_path);
    for (; next < bodies.size(); ++next) {
      const std::string& body = *bodies[next];
      const std::string frame = submit_frame(body);
      const auto t0 = Clock::now();
      const std::string response = client->request(frame);
      const double ms = ms_since(t0);
      const json::Value v = json::parse(response, "ccqd response");
      const json::Value* type = v.find("type");
      if (type == nullptr || type->str != "result") {
        const json::Value* code = v.find("code");
        log->failures.push_back("error response: " +
                                (code != nullptr ? code->str : response));
        continue;
      }
      const Replay& rp = ref.at(body);
      const Expect& e = rp.expect;
      auto field = [&](const char* key) -> const json::Value& {
        const json::Value* f = v.find(key);
        if (f == nullptr)
          throw std::runtime_error(std::string("response lacks ") + key);
        return *f;
      };
      const bool same =
          field("output_fp").str == e.output_fp &&
          field("ledger_fp").str == e.ledger_fp &&
          json::as_uint(field("rounds"), 0, ~0ull, "rounds", "response") ==
              e.rounds &&
          json::as_uint(field("bits"), 0, ~0ull, "bits", "response") == e.bits;
      if (!same) {
        log->failures.push_back("result differs from the library replay: " +
                                body);
        continue;
      }
      ++log->ok;
      log->lat_ms.push_back(ms);
      log->engine_ms.push_back(field("wall_ms").num);
      log->words += rp.layers.words;
      log->rounds += static_cast<double>(e.rounds);
      log->bits += static_cast<double>(e.bits);
    }
  } catch (const std::exception& e) {
    // A dropped connection (or unparseable reply) fails this job and every
    // job the client had left.
    for (; next < bodies.size(); ++next)
      log->failures.push_back(std::string("connection lost: ") + e.what());
  }
}

std::uint64_t stat_field(const json::Value& stats, const char* key) {
  const json::Value* f = stats.find(key);
  return f == nullptr ? 0 : json::as_uint(*f, 0, ~0ull, key, "ccqd stats");
}

}  // namespace

void run_service_workload(const Options& opt, Result* out) {
  // ---- set-up: job list and reference replays (once; they are most of
  // the set-up and average over thousands of cells), then the daemon ----
  const auto setup_t0 = Clock::now();
  // Sized from --seconds (about 600 jobs per second on a 4-core x86-64
  // host); one round of cells is 180 fresh jobs plus 180 hot ones.
  const int cells = static_cast<int>(harness::algorithm_names().size() *
                                     std::size(kFamilies)) *
                    kSizes;
  const int cell_passes =
      (op_budget(opt.seconds, 1000.0 / 600.0, kMinJobs) + cells) / (2 * cells);
  const std::vector<std::string> jobs = make_jobs(opt.seed, cell_passes);
  std::map<std::string, Replay> ref;
  std::vector<std::string> hot_bodies, fresh_bodies;
  {
    std::map<std::string, int> uses;
    for (const std::string& b : jobs) ++uses[b];
    for (const auto& [body, n] : uses) {
      Replay r;
      std::string why;
      if (!replay(body, &r, &why)) out->broken(why);
      ref.emplace(body, std::move(r));
      (n > 1 ? hot_bodies : fresh_bodies).push_back(body);
    }
  }

  const double prep_ms = ms_since(setup_t0);

  // Daemon start + warm-up (each hot cell once, from one connection),
  // repeated on a fresh daemon; the last one serves the measured loop.
  service::Server::Options sopts;  // ccqd defaults
  sopts.unix_path = "perfbench-ccqd-" + std::to_string(::getpid()) + ".sock";
  std::unique_ptr<service::Server> server;
  std::vector<double> daemon_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server != nullptr) server->drain();
    const auto t0 = Clock::now();
    server = std::make_unique<service::Server>(sopts);
    server->start();
    ClientLog warm;
    std::vector<const std::string*> bodies;
    for (const std::string& b : hot_bodies) bodies.push_back(&b);
    client_loop(sopts.unix_path, bodies, ref, &warm);
    for (std::uint64_t i = 0; i < warm.ok; ++i) out->ok();
    for (const std::string& f : warm.failures) out->fail("warm-up: " + f);
    daemon_ms.push_back(ms_since(t0));
  }
  const double setup_s = (prep_ms + median(daemon_ms)) / 1e3;

  // ---- measured closed loop ----
  std::vector<std::vector<const std::string*>> share(kClients);
  for (std::size_t j = 0; j < jobs.size(); ++j)
    share[j % kClients].push_back(&jobs[j]);
  std::vector<ClientLog> logs(kClients);
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back(client_loop, sopts.unix_path, std::cref(share[c]),
                         std::cref(ref), &logs[c]);
  for (std::thread& t : threads) t.join();
  const double wall_s = ms_since(t0) / 1e3;

  json::Value stats;
  try {
    service::Client probe(sopts.unix_path);
    stats = json::parse(probe.request("{\"type\": \"stats\"}"), "ccqd stats");
  } catch (const std::exception& e) {
    out->broken(std::string("stats request failed: ") + e.what());
  }
  server->drain();

  std::vector<double> lat, engine_ms, overhead;
  double words = 0, rounds = 0, bits = 0;
  for (const ClientLog& log : logs) {
    for (std::uint64_t i = 0; i < log.ok; ++i) out->ok();
    for (const std::string& f : log.failures) out->fail(f);
    lat.insert(lat.end(), log.lat_ms.begin(), log.lat_ms.end());
    engine_ms.insert(engine_ms.end(), log.engine_ms.begin(),
                     log.engine_ms.end());
    for (std::size_t i = 0; i < log.lat_ms.size(); ++i)
      overhead.push_back(log.lat_ms[i] - log.engine_ms[i]);
    words += log.words;
    rounds += log.rounds;
    bits += log.bits;
  }

  if (!opt.trace) {
    add_end_to_end(out, setup_s, daemon_ms.size(), lat, wall_s, words, rounds,
                   bits);
    return;
  }

  // ---- per-layer readings (--trace 1) ----
  std::vector<double> build_ms;
  std::vector<TracedOp> replays;
  for (const auto& [body, r] : ref) {
    build_ms.push_back(r.build_ms);
    replays.push_back(r.layers);
  }
  add_engine_layers(out, replays);

  // Engine set-up layers on the workload's own shapes and hot cells.
  std::vector<double> session_ms;
  for (int s = 0; s < kSizes; ++s) {
    ccq::EngineSession::Shape shape;
    shape.n = static_cast<NodeId>(48 + 16 * s);
    const auto ts = Clock::now();
    ccq::EngineSession session(shape);
    session_ms.push_back(ms_since(ts));
  }
  std::vector<double> first_extra;
  std::vector<double> untraced_pass, traced_pass;
  {
    struct Hot {
      harness::CellSpec spec;
      ccq::Graph g;
      ccq::NodeProgram program;
      std::string output_fp;
    };
    std::vector<Hot> hot;
    for (const std::string& b : hot_bodies) {
      Hot h;
      h.spec = parse_cell(b);
      h.output_fp = ref.at(b).expect.output_fp;
      h.g = ccq::corpus::make_family(h.spec.family, h.spec.n);
      h.program = harness::find_algorithm(h.spec.algorithm);
      hot.push_back(std::move(h));
    }
    auto check = [&](const Hot& h, const ccq::RunResult& res) {
      if (hex(harness::outputs_fp(res.outputs)) != h.output_fp)
        out->broken("hot-cell rerun differs from the library replay");
    };
    for (const Hot& h : hot) {
      const ccq::Instance inst = ccq::Instance::of(h.g);
      const ccq::Engine::Config cfg = harness::cell_engine_config(h.spec);
      ccq::EngineSession session(service::cell_shape(h.spec));
      auto ts = Clock::now();
      const ccq::RunResult first_run = session.run(inst, h.program, cfg);
      const double first = ms_since(ts);
      check(h, first_run);
      std::vector<double> steady;
      for (int i = 0; i < kSteadyRuns; ++i) {
        ts = Clock::now();
        const ccq::RunResult res = session.run(inst, h.program, cfg);
        steady.push_back(ms_since(ts));
        check(h, res);
      }
      first_extra.push_back(first - median(steady));
    }
    // Trace overhead: passes over the hot cells, alternating untraced and
    // traced so both see the same machine state.
    for (int pass = 0; pass < 2 * kOverheadPasses; ++pass) {
      const bool tracing = pass % 2 == 1;
      const auto tp = Clock::now();
      for (const Hot& h : hot) {
        ccq::Engine::Config cfg = harness::cell_engine_config(h.spec);
        ccq::RoundTrace trace;
        if (tracing) cfg.trace = &trace;
        check(h, ccq::Engine::run(h.g, h.program, cfg));
      }
      (tracing ? traced_pass : untraced_pass).push_back(ms_since(tp));
    }
  }

  // Service layers from outside: wire parse and an instance-cache miss.
  double parse_ms = 0;
  for (const std::string& body : jobs) {
    const std::string frame = submit_frame(body);
    const auto tp = Clock::now();
    const service::Request req = service::parse_request(frame, "perfbench");
    harness::parse_job_cell(*req.body.find("job"), "perfbench");
    parse_ms += ms_since(tp);
  }
  std::vector<double> miss_ms;
  {
    service::EngineCache cache(sopts.cache_sessions);
    for (std::size_t i = 0;
         i < fresh_bodies.size() && miss_ms.size() < kInstanceMissProbes; ++i) {
      const harness::CellSpec spec = parse_cell(fresh_bodies[i]);
      const auto tp = Clock::now();
      cache.instance(spec);
      miss_ms.push_back(ms_since(tp));
    }
  }

  const std::uint64_t hits = stat_field(stats, "cache_hits");
  const std::uint64_t misses = stat_field(stats, "cache_misses");
  const std::uint64_t ihits = stat_field(stats, "instance_hits");
  const std::uint64_t imisses = stat_field(stats, "instance_misses");
  out->add("graph.build_ms", median(build_ms), "ms", build_ms.size());
  out->add("clique.session_build_ms", median(session_ms), "ms",
           session_ms.size());
  out->add("clique.first_run_extra_ms", median(first_extra), "ms",
           first_extra.size());
  out->add("trace.overhead_ratio",
           median(traced_pass) / median(untraced_pass), "ratio",
           traced_pass.size());
  // The workload's engine runs are small; the kernel layer is replayed only
  // on the APSP workloads.
  out->add("kernels.block_mm_ms", 0, "ms", 0);
  out->add("kernels.mm_auto_extra_us", 0, "us", 0);
  out->add("kernels.spgemm_ms", 0, "ms", 0);
  out->add("kernels.pack_ns_per_entry", 0, "ns", 0);
  out->add("kernels.unpack_ns_per_entry", 0, "ns", 0);
  out->add("service.engine_ms", median(engine_ms), "ms", engine_ms.size());
  out->add("service.overhead_ms_p50", median(overhead), "ms", overhead.size());
  out->add("service.overhead_ms_p99", percentile(overhead, 0.99), "ms",
           overhead.size());
  out->add("service.parse_us", parse_ms * 1e3 / static_cast<double>(jobs.size()),
           "us", jobs.size());
  out->add("service.instance_miss_ms", median(miss_ms), "ms", miss_ms.size());
  out->add("service.session_hit_ratio",
           hits + misses ? static_cast<double>(hits) / (hits + misses) : 0,
           "ratio", hits + misses);
  out->add("service.instance_hit_ratio",
           ihits + imisses ? static_cast<double>(ihits) / (ihits + imisses)
                           : 0,
           "ratio", ihits + imisses);
  out->add("service.evictions",
           static_cast<double>(stat_field(stats, "cache_evictions")), "count",
           1);
}

}  // namespace perfbench
