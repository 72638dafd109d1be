// ccqd service throughput bench (DESIGN.md §15, EXPERIMENTS.md).
//
// Spins up an in-process ccqd Server on a Unix socket and drives it with a
// closed-loop load generator: C client threads, each holding one
// connection and submitting the same scenario-matrix cell back-to-back,
// measuring per-job latency. Two daemon modes are compared:
//
//   cold  engine cache disabled — every job constructs and destroys its
//         scheduler and message plane (exactly what a plain Engine::run
//         pays; fiber stacks come from the process-wide stack store
//         either way);
//   warm  engine cache on — jobs lease a kept-alive EngineSession and an
//         LRU-cached instance, paying only the run itself.
//
// For each (mode × clients ∈ {1, 8, 64}) the bench reports jobs/sec and
// p50/p99 latency, and writes BENCH_service.json for the CI trajectory
// gate. Correctness gates (--check):
//   * every submitted job received exactly one response, and every
//     response was a result — nothing rejected, nothing hung;
//   * all results across every config are bit-identical (output_fp,
//     ledger_fp, rounds, messages, bits) — the warm path may not change
//     a single bit of what is measured;
//   * a daemon result equals the library path (harness::run_traced on a
//     fresh engine) — fingerprints, cost meter, trace ledger;
//   * warm jobs/sec strictly above cold at 8 clients.
//
// Usage: bench_service [--jobs=N] [--executors=N] [--queue=N] [--out=PATH]
//                      [--check]
//   --jobs=N       jobs per client per config (default 8)
//   --executors=N  daemon executor threads (default 4)
//   --queue=N      daemon queue depth (default 128 — sized above the
//                  client count so admission control never rejects here;
//                  rejection behaviour is bench'd by tests, not here)
//   --out=PATH     output JSON (default BENCH_service.json)
//   --check        enforce the correctness gates above

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <cstring>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_args.hpp"
#include "bench_json.hpp"
#include "harness/manifest.hpp"
#include "harness/sweep.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

using namespace ccq;

namespace {

// The benched cell: small enough that per-job engine setup is a visible
// fraction of the job, which is exactly what the warm cache removes.
constexpr const char* kJobCell =
    "{\"algorithm\": \"routing_balanced\", \"family\": \"gnp\", "
    "\"p\": 0.25, \"n\": 128, \"backend\": \"pooled\", \"chaos\": false}";

struct Fingerprints {
  std::string output_fp, ledger_fp;
  std::uint64_t rounds = 0, messages = 0, bits = 0;
  bool operator==(const Fingerprints&) const = default;
};

struct ClientTally {
  std::vector<double> latencies_ms;
  std::uint64_t results = 0;
  std::uint64_t errors = 0;
  std::string first_error;
  Fingerprints fp;
  bool fp_consistent = true;
};

// One client's closed loop: submit `jobs` identical cells, timing each.
void client_loop(const std::string& socket_path, int jobs, ClientTally* t) {
  const std::string request =
      std::string("{\"type\": \"submit\", \"job\": ") + kJobCell + "}";
  try {
    service::Client client(socket_path);
    for (int j = 0; j < jobs; ++j) {
      const auto t0 = std::chrono::steady_clock::now();
      const std::string response = client.request(request);
      const auto t1 = std::chrono::steady_clock::now();
      t->latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      const json::Value v = json::parse(response, "response");
      const json::Value* type = v.find("type");
      if (type == nullptr || type->str != "result") {
        ++t->errors;
        if (t->first_error.empty()) t->first_error = response;
        continue;
      }
      Fingerprints fp;
      fp.output_fp = json::as_string(*v.find("output_fp"), "output_fp",
                                     "response");
      fp.ledger_fp = json::as_string(*v.find("ledger_fp"), "ledger_fp",
                                     "response");
      fp.rounds = json::as_uint(*v.find("rounds"), 0, ~0ull, "rounds",
                                "response");
      fp.messages = json::as_uint(*v.find("messages"), 0, ~0ull, "messages",
                                  "response");
      fp.bits = json::as_uint(*v.find("bits"), 0, ~0ull, "bits", "response");
      if (t->results == 0) {
        t->fp = fp;
      } else if (!(fp == t->fp)) {
        t->fp_consistent = false;
      }
      ++t->results;
    }
  } catch (const std::exception& e) {
    ++t->errors;
    if (t->first_error.empty()) t->first_error = e.what();
  }
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = std::min(
      v.size() - 1, static_cast<std::size_t>(p * static_cast<double>(v.size())));
  return v[idx];
}

struct ConfigResult {
  std::string mode;
  int clients = 0;
  std::uint64_t jobs = 0;
  double wall_ms = 0, jobs_per_sec = 0, p50_ms = 0, p99_ms = 0;
  std::uint64_t errors = 0, rejected = 0, cache_hits = 0;
  Fingerprints fp;
  bool fp_consistent = true;
  std::string first_error;
};

ConfigResult run_config(const std::string& mode, int clients, int jobs,
                        std::size_t executors, std::size_t queue) {
  service::Server::Options opts;
  opts.unix_path = "/tmp/ccqd_bench_" + std::to_string(::getpid()) + ".sock";
  opts.executors = executors;
  opts.queue_capacity = queue;
  opts.cache_sessions = mode == "warm" ? 8 : 0;
  service::Server server(opts);
  server.start();

  if (mode == "warm") {
    // Prime the cache untimed so "warm" measures steady state, not the
    // first-touch misses (those are the cold column's whole point).
    ClientTally prime;
    client_loop(opts.unix_path, static_cast<int>(2 * executors), &prime);
  }

  std::vector<ClientTally> tallies(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c)
    threads.emplace_back(client_loop, opts.unix_path, jobs, &tallies[c]);
  for (std::thread& t : threads) t.join();
  const auto t1 = std::chrono::steady_clock::now();

  ConfigResult r;
  r.mode = mode;
  r.clients = clients;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  std::vector<double> lat;
  for (const ClientTally& t : tallies) {
    r.jobs += t.results;
    r.errors += t.errors;
    lat.insert(lat.end(), t.latencies_ms.begin(), t.latencies_ms.end());
    if (!t.fp_consistent) r.fp_consistent = false;
    if (t.results > 0) {
      if (r.fp.output_fp.empty()) {
        r.fp = t.fp;
      } else if (!(t.fp == r.fp)) {
        r.fp_consistent = false;
      }
    }
    if (r.first_error.empty()) r.first_error = t.first_error;
  }
  r.jobs_per_sec = r.wall_ms > 0 ? 1000.0 * static_cast<double>(r.jobs) /
                                       r.wall_ms
                                 : 0;
  r.p50_ms = percentile(lat, 0.50);
  r.p99_ms = percentile(lat, 0.99);
  const service::Server::Stats stats = server.stats();
  r.rejected = stats.jobs_rejected;
  r.cache_hits = stats.cache.hits;
  server.drain();
  return r;
}

// Fold `reps` samples of one config into a single reported row:
// correctness accumulates (every job of every rep must be answered,
// all fingerprints must agree), throughput is best-of-reps —
// scheduling noise on a shared box only ever slows a rep down, so the
// best rep is the least-noisy measurement. Same convention as
// bench_matrix's best-of-trials wall clock.
ConfigResult reduce_reps(const std::vector<ConfigResult>& samples) {
  ConfigResult best = samples.front();
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const ConfigResult& r = samples[i];
    best.errors += r.errors;
    best.rejected += r.rejected;
    if (!r.fp_consistent) best.fp_consistent = false;
    if (r.jobs > 0 && best.jobs > 0 && !(r.fp == best.fp))
      best.fp_consistent = false;
    if (best.first_error.empty()) best.first_error = r.first_error;
    if (r.jobs != best.jobs) best.fp_consistent = false;  // lost jobs differ
    if (r.jobs_per_sec > best.jobs_per_sec) {
      best.wall_ms = r.wall_ms;
      best.jobs_per_sec = r.jobs_per_sec;
      best.p50_ms = r.p50_ms;
      best.p99_ms = r.p99_ms;
      best.cache_hits = r.cache_hits;
    }
  }
  return best;
}

int run(int jobs, std::size_t executors, std::size_t queue, int reps,
        const std::string& out_path, bool check) {
  std::printf(
      "ccqd service bench: cell %s\n"
      "closed loop, %d job(s)/client, %zu executor(s), queue %zu, "
      "best of %d rep(s)\n\n",
      kJobCell, jobs, executors, queue, reps);

  const int kClientCounts[] = {1, 8, 64};
  // Rep-major, cold/warm innermost: the two modes of one client count
  // run back to back, so a paired warm/cold ratio from the same rep
  // cancels machine-state drift (CPU frequency, noisy neighbours) that
  // separate best-of sets would not.
  std::map<std::string, std::vector<ConfigResult>> samples;
  for (int rep = 0; rep < reps; ++rep)
    for (const int clients : kClientCounts)
      for (const char* mode : {"cold", "warm"})
        samples[std::string(mode) + "/" + std::to_string(clients)].push_back(
            run_config(mode, clients, jobs, executors, queue));

  std::vector<ConfigResult> results;
  for (const char* mode : {"cold", "warm"})
    for (const int clients : kClientCounts)
      results.push_back(reduce_reps(
          samples.at(std::string(mode) + "/" + std::to_string(clients))));

  Table table({"mode", "clients", "jobs", "jobs/sec", "p50 ms", "p99 ms",
               "rejected", "cache hits"});
  benchjson::Writer json;
  bool ok = true;
  for (const ConfigResult& r : results) {
    table.add_row({r.mode, std::to_string(r.clients), std::to_string(r.jobs),
                   Table::fmt(r.jobs_per_sec, 1), Table::fmt(r.p50_ms, 3),
                   Table::fmt(r.p99_ms, 3), std::to_string(r.rejected),
                   std::to_string(r.cache_hits)});
    json.add({{"mode", r.mode},
              {"clients", r.clients},
              {"jobs", r.jobs},
              {"executors", executors},
              {"queue", queue},
              {"wall_ms", r.wall_ms},
              {"jobs_per_sec", r.jobs_per_sec},
              {"p50_ms", r.p50_ms},
              {"p99_ms", r.p99_ms},
              {"errors", r.errors},
              {"rejected", r.rejected},
              {"cache_hits", r.cache_hits},
              {"output_fp", r.fp.output_fp},
              {"ledger_fp", r.fp.ledger_fp}});
    const std::uint64_t expected =
        static_cast<std::uint64_t>(r.clients) * static_cast<std::uint64_t>(jobs);
    if (r.errors > 0 || r.jobs != expected) {
      std::fprintf(stderr,
                   "FAIL %s/%d clients: %llu of %llu jobs answered with a "
                   "result, %llu errors%s%s\n",
                   r.mode.c_str(), r.clients,
                   static_cast<unsigned long long>(r.jobs),
                   static_cast<unsigned long long>(expected),
                   static_cast<unsigned long long>(r.errors),
                   r.first_error.empty() ? "" : "; first: ",
                   r.first_error.c_str());
      ok = false;
    }
    if (!r.fp_consistent) {
      std::fprintf(stderr, "FAIL %s/%d clients: results not bit-identical\n",
                   r.mode.c_str(), r.clients);
      ok = false;
    }
  }
  table.print();

  // Cross-config identity: warm results must equal cold results exactly.
  for (const ConfigResult& r : results) {
    if (!(r.fp == results[0].fp)) {
      std::fprintf(stderr,
                   "FAIL: %s/%d clients fingerprints diverge from %s/%d\n",
                   r.mode.c_str(), r.clients, results[0].mode.c_str(),
                   results[0].clients);
      ok = false;
    }
  }

  if (check) {
    // Library-path replay of the bench cell: one traced run on a fresh
    // engine. The daemon must match it bit for bit — fingerprints, meter
    // and trace ledger.
    const harness::CellSpec spec = harness::parse_job_cell(
        json::parse(kJobCell, "bench cell"), "bench cell");
    const harness::CellResult replay =
        harness::run_traced(spec, harness::cell_instance(spec));
    Fingerprints lib;
    lib.output_fp = harness::fp_hex(replay.output_fp);
    lib.ledger_fp = harness::fp_hex(replay.ledger_fp);
    lib.rounds = replay.cost.rounds;
    lib.messages = replay.cost.messages;
    lib.bits = replay.cost.bits;
    if (!replay.ok) {
      std::fprintf(stderr, "FAIL: library replay: %s\n",
                   replay.fail_reason.c_str());
      ok = false;
    } else if (!(lib == results[0].fp)) {
      std::fprintf(
          stderr,
          "FAIL: daemon result diverges from the library path\n"
          "  library: output_fp=%s ledger_fp=%s rounds=%llu bits=%llu\n"
          "  daemon:  output_fp=%s ledger_fp=%s rounds=%llu bits=%llu\n",
          lib.output_fp.c_str(), lib.ledger_fp.c_str(),
          static_cast<unsigned long long>(lib.rounds),
          static_cast<unsigned long long>(lib.bits),
          results[0].fp.output_fp.c_str(), results[0].fp.ledger_fp.c_str(),
          static_cast<unsigned long long>(results[0].fp.rounds),
          static_cast<unsigned long long>(results[0].fp.bits));
      ok = false;
    } else {
      std::printf("\nreplay: daemon == library path (output_fp %s, "
                  "ledger_fp %s)\n",
                  lib.output_fp.c_str(), lib.ledger_fp.c_str());
    }
    // Warm-over-cold gate at 8 clients: median of the per-rep paired
    // ratios (each rep's cold and warm ran adjacent in time), not a
    // ratio of independently-reduced numbers — robust against drift
    // between the start and end of the bench.
    const std::vector<ConfigResult>& cold8 = samples.at("cold/8");
    const std::vector<ConfigResult>& warm8 = samples.at("warm/8");
    std::vector<double> ratios;
    for (int rep = 0; rep < reps; ++rep)
      if (cold8[static_cast<std::size_t>(rep)].jobs_per_sec > 0)
        ratios.push_back(warm8[static_cast<std::size_t>(rep)].jobs_per_sec /
                         cold8[static_cast<std::size_t>(rep)].jobs_per_sec);
    const double speedup = percentile(ratios, 0.50);
    if (!(speedup > 1.0)) {
      std::fprintf(stderr,
                   "FAIL: warm not above cold at 8 clients (median paired "
                   "speedup %.2fx over %d rep(s))\n",
                   speedup, reps);
      ok = false;
    } else {
      std::printf("warm speedup at 8 clients: %.2fx (median of %d paired "
                  "rep(s))\n",
                  speedup, reps);
    }
  }

  if (!ok) {
    std::fprintf(stderr, "\nbench_service: FAILED; not writing %s\n",
                 out_path.c_str());
    return 1;
  }
  if (!json.write(out_path)) {
    std::fprintf(stderr, "bench_service: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu configs)\n", out_path.c_str(), results.size());
  if (check) std::printf("CHECK OK: all service gates passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 8;
  std::size_t executors = 4;
  std::size_t queue = 128;
  int reps = 3;
  std::string out_path = "BENCH_service.json";
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      jobs = static_cast<int>(
          benchargs::parse_uint(argv[0], "--jobs", argv[i] + 7, 1, 1000));
    } else if (std::strncmp(argv[i], "--executors=", 12) == 0) {
      executors = static_cast<std::size_t>(benchargs::parse_uint(
          argv[0], "--executors", argv[i] + 12, 1, 64));
    } else if (std::strncmp(argv[i], "--queue=", 8) == 0) {
      queue = static_cast<std::size_t>(
          benchargs::parse_uint(argv[0], "--queue", argv[i] + 8, 1, 4096));
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = static_cast<int>(
          benchargs::parse_uint(argv[0], "--reps", argv[i] + 7, 1, 32));
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--jobs=N] [--executors=N] [--queue=N] "
                   "[--reps=N] [--out=PATH] [--check]\n",
                   argv[0]);
      return 2;
    }
  }
  return run(jobs, executors, queue, reps, out_path, check);
}
