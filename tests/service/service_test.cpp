// ccqd protocol + server tests (src/service/). The contract under test:
// every frame the server reads gets exactly one *named* error or result
// response — malformed frames, oversized length prefixes, garbage JSON,
// bad jobs, full queues and drains are all answered by code, and none of
// them crash, hang, or poison a worker. Plus the warm-cache paths: many
// clients hammering one cache key get bit-identical results, and a job
// replayed through the daemon equals the library path.

#include "service/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "graph/corpus.hpp"
#include "graph/generators.hpp"
#include "harness/sweep.hpp"
#include "service/protocol.hpp"
#include "util/json.hpp"

namespace ccq::service {
namespace {

constexpr const char* kGoodJob =
    "{\"algorithm\": \"routing_balanced\", \"family\": \"gnp\", "
    "\"p\": 0.25, \"n\": 16, \"backend\": \"pooled\", \"chaos\": false}";

std::string submit_body(const std::string& job) {
  return "{\"type\": \"submit\", \"job\": " + job + "}";
}

// Unique-per-test socket path (tests may run in parallel processes).
std::string test_socket(const char* tag) {
  return "/tmp/ccqd_test_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

Server::Options base_options(const char* tag) {
  Server::Options opts;
  opts.unix_path = test_socket(tag);
  opts.executors = 2;
  opts.queue_capacity = 8;
  opts.cache_sessions = 4;
  return opts;
}

// Parse a response and return its "type"; for errors also outputs the code.
std::string response_type(const std::string& payload,
                          std::string* code = nullptr) {
  const json::Value v = json::parse(payload, "response");
  const json::Value* type = v.find("type");
  EXPECT_NE(type, nullptr) << payload;
  if (type == nullptr) return "";
  if (code != nullptr) {
    const json::Value* c = v.find("code");
    *code = c != nullptr ? c->str : "";
  }
  return type->str;
}

TEST(Protocol, PingPongAndStats) {
  Server server(base_options("ping"));
  server.start();
  Client client(server.options().unix_path);
  EXPECT_EQ(response_type(client.request("{\"type\": \"ping\"}")), "pong");
  const std::string stats = client.request("{\"type\": \"stats\"}");
  EXPECT_EQ(response_type(stats), "stats");
  const json::Value v = json::parse(stats, "stats");
  EXPECT_EQ(v.find("queue_depth")->num, 0.0);
  server.drain();
}

TEST(Protocol, MalformedJsonIsNamedNotFatal) {
  Server server(base_options("json"));
  server.start();
  Client client(server.options().unix_path);
  std::string code;
  EXPECT_EQ(response_type(client.request("{not json"), &code), "error");
  EXPECT_EQ(code, kErrBadJson);
  // A frame nested 30,000 deep is a named parse error, not a stack
  // overflow.
  EXPECT_EQ(response_type(client.request(std::string(30000, '[') +
                                         std::string(30000, ']')),
                          &code),
            "error");
  EXPECT_EQ(code, kErrBadJson);
  // The connection survives a parse error — framing was intact.
  EXPECT_EQ(response_type(client.request("{\"type\": \"ping\"}")), "pong");
  server.drain();
}

TEST(Protocol, BadRequestsAndUnknownTypes) {
  Server server(base_options("badreq"));
  server.start();
  Client client(server.options().unix_path);
  std::string code;
  EXPECT_EQ(response_type(client.request("[1, 2]"), &code), "error");
  EXPECT_EQ(code, kErrBadRequest);
  EXPECT_EQ(response_type(client.request("{\"x\": 1}"), &code), "error");
  EXPECT_EQ(code, kErrBadRequest);
  EXPECT_EQ(response_type(client.request("{\"type\": \"frobnicate\"}"), &code),
            "error");
  EXPECT_EQ(code, kErrUnknownType);
  EXPECT_EQ(response_type(client.request("{\"type\": \"submit\"}"), &code),
            "error");
  EXPECT_EQ(code, kErrBadRequest);  // submit without an object-valued job
  server.drain();
}

TEST(Protocol, BadJobsAreNamed) {
  Server server(base_options("badjob"));
  server.start();
  Client client(server.options().unix_path);
  std::string code;
  // Missing required keys.
  EXPECT_EQ(response_type(
                client.request(submit_body("{\"algorithm\": \"nope\"}")),
                &code),
            "error");
  EXPECT_EQ(code, kErrBadJob);
  // Axis arrays are manifest syntax, not job syntax: a job is one cell.
  EXPECT_EQ(
      response_type(client.request(submit_body(
                        "{\"algorithm\": \"routing_balanced\", \"family\": "
                        "\"gnp\", \"p\": 0.25, \"n\": [16, 32], "
                        "\"backend\": \"pooled\", \"chaos\": false}")),
                    &code),
      "error");
  EXPECT_EQ(code, kErrBadJob);
  // Unknown algorithm names are caught at cell-parse time, like manifests.
  EXPECT_EQ(
      response_type(client.request(submit_body(
                        "{\"algorithm\": \"no_such_algorithm\", \"family\": "
                        "\"gnp\", \"p\": 0.25, \"n\": 16, "
                        "\"backend\": \"pooled\", \"chaos\": false}")),
                    &code),
      "error");
  EXPECT_EQ(code, kErrBadJob);
  // Manifest-only programs (engine loads, MM squarings by the other
  // schedules) are manifest cells, not jobs.
  EXPECT_EQ(
      response_type(client.request(submit_body(
                        "{\"algorithm\": \"exchange_skewed\", \"family\": "
                        "\"empty\", \"n\": 16, \"backend\": \"pooled\", "
                        "\"chaos\": false}")),
                    &code),
      "error");
  EXPECT_EQ(code, kErrBadJob);
  EXPECT_EQ(
      response_type(client.request(submit_body(
                        "{\"algorithm\": \"mm_minplus_sparse\", \"family\": "
                        "\"gnp_weighted\", \"n\": 16, \"backend\": "
                        "\"pooled\", \"chaos\": false}")),
                    &code),
      "error");
  EXPECT_EQ(code, kErrBadJob);
  // A job's label keeps the manifest rule: no character that a BENCH row
  // would have to escape.
  EXPECT_EQ(
      response_type(client.request(submit_body(
                        "{\"label\": \"a\\\"b\", \"algorithm\": "
                        "\"routing_balanced\", \"family\": \"gnp\", "
                        "\"p\": 0.25, \"n\": 16, \"backend\": "
                        "\"pooled\", \"chaos\": false}")),
                    &code),
      "error");
  EXPECT_EQ(code, kErrBadJob);
  // workers is an axis like backend: an array is manifest syntax too.
  EXPECT_EQ(
      response_type(client.request(submit_body(
                        "{\"algorithm\": \"routing_balanced\", \"family\": "
                        "\"gnp\", \"p\": 0.25, \"n\": 16, "
                        "\"backend\": \"pooled\", \"workers\": [1, 2], "
                        "\"chaos\": false}")),
                    &code),
      "error");
  EXPECT_EQ(code, kErrBadJob);
  // A job that parses but fails in the executor (every word duplicated,
  // which the 3-D schedule's fixed framing rejects) must be a named
  // job_failed response, not a dead worker.
  EXPECT_EQ(
      response_type(client.request(submit_body(
                        "{\"algorithm\": \"mm_bool_3d\", \"family\": "
                        "\"gnp\", \"n\": 16, \"backend\": \"pooled\", "
                        "\"chaos\": true, \"chaos_dup\": 1.0}")),
                    &code),
      "error");
  EXPECT_EQ(code, kErrJobFailed);
  // The server still works after all of the above.
  EXPECT_EQ(response_type(client.request(submit_body(kGoodJob))), "result");
  server.drain();
}

// The thread-per-node oracle starts one OS thread per node, so one frame
// naming it could make the daemon start 8192 threads. A job may ask only
// for the pooled backend, and the refusal comes at parse time: neither job
// below reaches an executor, so no engine runs and no node thread starts.
TEST(Protocol, ThreadedAndShardedJobsAreRefusedAtParse) {
  Server server(base_options("threaded"));
  server.start();
  Client client(server.options().unix_path);
  for (const std::string backend : {"threaded", "sharded"}) {
    const std::string reply = client.request(submit_body(
        "{\"algorithm\": \"routing_balanced\", \"family\": \"gnp\", "
        "\"p\": 0.25, \"n\": 8, \"backend\": \"" +
        backend + "\", \"chaos\": false}"));
    std::string code;
    EXPECT_EQ(response_type(reply, &code), "error") << backend;
    EXPECT_EQ(code, kErrBadJob) << backend;
    EXPECT_NE(reply.find("'" + backend + "'"), std::string::npos) << reply;
    EXPECT_NE(reply.find("(accepted: pooled)"), std::string::npos) << reply;
  }
  const Server::Stats s = server.stats();
  EXPECT_EQ(s.jobs_ok + s.jobs_failed, 0u);
  EXPECT_EQ(s.cache.misses, 0u);
  EXPECT_EQ(response_type(client.request("{\"type\": \"ping\"}")), "pong");
  server.drain();
}

// A job may not name a file-backed family: ccqd would open whatever path
// the client chose. Each probe below gets the refusal a job naming no path
// at all gets — the text names the family only, so it quotes no file
// content and nothing that depends on the path.
std::string file_job(const std::string& family, const char* path) {
  std::string job = "{\"algorithm\": \"routing_balanced\", \"family\": \"" +
                    family + "\", \"n\": 16, \"backend\": \"pooled\"";
  if (path != nullptr) job += std::string(", \"path\": \"") + path + "\"";
  return job + "}";
}

// parse_job_cell's refusal of `job`, or "" when it accepts the job.
std::string job_refusal(const std::string& job) {
  try {
    harness::parse_job_cell(json::parse(job, "job"), "conn#0");
  } catch (const ModelViolation& e) {
    return e.what();
  }
  return "";
}

void expect_file_job_refused(const char* path) {
  for (const std::string family : {"edgelist"}) {
    const std::string pathless = job_refusal(file_job(family, nullptr));
    EXPECT_NE(pathless.find("'" + family +
                            "' reads a file and cannot run as a job"),
              std::string::npos)
        << pathless;
    EXPECT_EQ(job_refusal(file_job(family, path)), pathless) << path;
  }
}

// /dev/zero never ends: a daemon reading it grows by about 0.5 GB/s until
// it is killed. The refusal comes at parse time, before anything opens the
// path.
TEST(Protocol, FileFamilyJobNeverReadsDevZero) {
  expect_file_job_refused("/dev/zero");
}

// A loader error on /etc/passwd would quote the file's first line.
TEST(Protocol, FileFamilyJobQuotesNoFileContent) {
  expect_file_job_refused("/etc/passwd");
}

// "cannot open file" for a missing path would tell a client whether a file
// exists. Through the daemon, a missing and an existing path get
// byte-identical bad_job answers, and no engine runs.
TEST(Protocol, FileFamilyJobDoesNotRevealWhetherAPathExists) {
  const std::string existing = test_socket("exists") + ".edges";
  corpus::save_edge_list(gen::cycle(16), existing);
  Server server(base_options("filejob"));
  server.start();
  Client client(server.options().unix_path);
  for (const std::string family : {"edgelist"}) {
    const std::string missing_reply = client.request(
        submit_body(file_job(family, "/nonexistent/ccqd.edges")));
    const std::string existing_reply =
        client.request(submit_body(file_job(family, existing.c_str())));
    std::string code;
    EXPECT_EQ(response_type(missing_reply, &code), "error");
    EXPECT_EQ(code, kErrBadJob);
    EXPECT_EQ(missing_reply, existing_reply);
    EXPECT_EQ(existing_reply.find(existing), std::string::npos);
  }
  const Server::Stats s = server.stats();
  EXPECT_EQ(s.jobs_ok + s.jobs_failed, 0u);
  EXPECT_EQ(s.cache.misses, 0u);
  server.drain();
  ::unlink(existing.c_str());
}

std::int64_t vm_size_kb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmSize:", 0) == 0) return std::stoll(line.substr(7));
  return 0;
}

// A finished connection's thread keeps its stack mapped until it is joined;
// joined only at drain, 2,000 open/close cycles grew VmSize from 162 MB to
// 16.8 GB. The acceptor joins finished connections on each accept.
// Connections here are sequential, so at most a few threads are ever alive
// at once.
TEST(Protocol, SequentialConnectionsAreReaped) {
  Server server(base_options("reap"));
  server.start();
  const auto ping_once = [&] {
    Client client(server.options().unix_path);
    return response_type(client.request("{\"type\": \"ping\"}")) == "pong";
  };
  // Warm-up: malloc's per-thread arenas and glibc's cache of thread stacks
  // grow with how many threads overlap, then stay put.
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(ping_once());
  constexpr int kCycles = 400;
  const std::int64_t vm_before = vm_size_kb();
  for (int i = 0; i < kCycles; ++i) ASSERT_TRUE(ping_once());
  // A thread kept until drain keeps its whole stack (8 MiB by default);
  // joined threads add only arenas for threads that overlapped (64 MiB of
  // address space each, a few at most even on a loaded host).
  EXPECT_LT(vm_size_kb() - vm_before, std::int64_t{kCycles} * 2048);
  // Each accept joins the connections finished by then; a loaded host may
  // leave the last few unfinished, so accept until they are gone.
  std::size_t held = 0;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(ping_once());
    held = server.stats().connection_threads;
    if (held <= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(held, 2u);
  server.drain();
  EXPECT_EQ(server.stats().connection_threads, 0u);
}

TEST(Protocol, OversizedLengthPrefixIsRefused) {
  Server server(base_options("oversize"));
  server.start();
  Client client(server.options().unix_path);
  const int fd = client.fd();
  // Declare a 256 MiB frame; the server must refuse before buffering it.
  const unsigned char prefix[4] = {0x10, 0x00, 0x00, 0x00};
  ASSERT_EQ(::send(fd, prefix, sizeof prefix, MSG_NOSIGNAL), 4);
  std::string response;
  ASSERT_EQ(read_frame(fd, &response), FrameStatus::kOk);
  std::string code;
  EXPECT_EQ(response_type(response, &code), "error");
  EXPECT_EQ(code, kErrFrameTooLarge);
  // Framing is untrusted after that: the server closes the connection.
  std::string next;
  EXPECT_EQ(read_frame(fd, &next), FrameStatus::kClosed);
  // A new connection is unaffected.
  Client fresh(server.options().unix_path);
  EXPECT_EQ(response_type(fresh.request("{\"type\": \"ping\"}")), "pong");
  server.drain();
}

TEST(Protocol, TruncatedFramesDoNotWedgeTheServer) {
  Server server(base_options("trunc"));
  server.start();
  {
    // Half a length prefix, then hang up.
    Client client(server.options().unix_path);
    const unsigned char half[2] = {0x00, 0x00};
    ASSERT_EQ(::send(client.fd(), half, sizeof half, MSG_NOSIGNAL), 2);
  }
  {
    // A full prefix declaring 100 bytes, then only 3 bytes, then hang up.
    Client client(server.options().unix_path);
    const unsigned char prefix[4] = {0x00, 0x00, 0x00, 0x64};
    ASSERT_EQ(::send(client.fd(), prefix, sizeof prefix, MSG_NOSIGNAL), 4);
    ASSERT_EQ(::send(client.fd(), "abc", 3, MSG_NOSIGNAL), 3);
  }
  // The server is still fully alive.
  Client client(server.options().unix_path);
  EXPECT_EQ(response_type(client.request(submit_body(kGoodJob))), "result");
  const Server::Stats stats = server.stats();
  EXPECT_GE(stats.protocol_errors, 1u);
  server.drain();
}

TEST(Protocol, MidJobClientDisconnectDoesNotKillTheWorker) {
  Server::Options opts = base_options("midjob");
  opts.job_delay_ms = 100;  // hold the job so the disconnect lands mid-run
  Server server(opts);
  server.start();
  {
    Client client(server.options().unix_path);
    ASSERT_TRUE(write_frame(client.fd(), submit_body(kGoodJob)));
    // Destructor closes the socket with the job still queued/running.
  }
  // Give the executor time to finish the orphaned job and hit the dead
  // socket, then prove the worker survived by running another job.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  Client client(server.options().unix_path);
  EXPECT_EQ(response_type(client.request(submit_body(kGoodJob))), "result");
  EXPECT_GE(server.stats().jobs_ok, 1u);
  server.drain();
}

TEST(Protocol, QueueFullIsRejectedNotParked) {
  Server::Options opts = base_options("quefull");
  opts.executors = 1;
  opts.queue_capacity = 1;
  opts.job_delay_ms = 150;  // the single executor sits on the first job
  Server server(opts);
  server.start();

  // Enough concurrent submits that admission control must trip: 1 can run,
  // 1 can queue, the rest must be answered queue_full immediately.
  constexpr int kClients = 6;
  std::atomic<int> results{0}, queue_full{0}, other{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      Client client(server.options().unix_path);
      std::string code;
      const std::string type =
          response_type(client.request(submit_body(kGoodJob)), &code);
      if (type == "result") {
        ++results;
      } else if (code == kErrQueueFull) {
        ++queue_full;
      } else {
        ++other;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Every client got exactly one answer (the loop above would hang
  // otherwise); with a 1-deep queue and one delayed executor at least one
  // submit must have been rejected, and rejected ones were answered fast.
  EXPECT_EQ(results + queue_full + other, kClients);
  EXPECT_GE(results.load(), 1);
  EXPECT_GE(queue_full.load(), 1);
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(server.stats().jobs_rejected,
            static_cast<std::uint64_t>(queue_full.load()));
  server.drain();
}

TEST(Protocol, ConcurrentClientsOnOneWarmKeyAgreeBitForBit) {
  Server server(base_options("warmkey"));
  server.start();
  constexpr int kClients = 8;
  constexpr int kJobsEach = 4;
  std::mutex mu;
  std::set<std::string> fingerprints;
  std::atomic<int> results{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      Client client(server.options().unix_path);
      for (int j = 0; j < kJobsEach; ++j) {
        const std::string response =
            client.request(submit_body(kGoodJob));
        ASSERT_EQ(response_type(response), "result") << response;
        const json::Value v = json::parse(response, "result");
        std::lock_guard<std::mutex> lk(mu);
        fingerprints.insert(v.find("output_fp")->str + "/" +
                            v.find("ledger_fp")->str);
        ++results;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(results.load(), kClients * kJobsEach);
  // One cache key, one result — every job measured the identical bits.
  EXPECT_EQ(fingerprints.size(), 1u);
  const Server::Stats stats = server.stats();
  EXPECT_GT(stats.cache.hits, 0u);
  EXPECT_EQ(stats.jobs_ok, static_cast<std::uint64_t>(kClients * kJobsEach));
  server.drain();
}

TEST(Protocol, DrainRejectsNewSubmitsAndFinishesQueuedOnes) {
  Server::Options opts = base_options("drain");
  opts.executors = 1;
  opts.job_delay_ms = 200;
  Server server(opts);
  server.start();

  // A slow job in flight...
  std::thread slow([&] {
    Client client(server.options().unix_path);
    EXPECT_EQ(response_type(client.request(submit_body(kGoodJob))), "result");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // ...a second client already connected (the ping forces the accept to
  // complete — a connection still sitting in the listen backlog when the
  // drain begins is legitimately dropped, which is not what this test is
  // about)...
  Client bystander(server.options().unix_path);
  ASSERT_EQ(response_type(bystander.request("{\"type\": \"ping\"}")), "pong");
  // ...then a drain starts while the slow job runs.
  std::thread drainer([&] { server.drain(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(server.draining());
  // The connected bystander's submit is rejected by name, not hung.
  std::string code;
  EXPECT_EQ(response_type(bystander.request(submit_body(kGoodJob)), &code),
            "error");
  EXPECT_EQ(code, kErrDraining);
  slow.join();     // the in-flight job still completed with a result
  drainer.join();
  EXPECT_FALSE(server.running());
}

TEST(Protocol, ShutdownRequestDrainsTheServer) {
  Server server(base_options("shutdown"));
  server.start();
  {
    Client client(server.options().unix_path);
    EXPECT_EQ(response_type(client.request("{\"type\": \"shutdown\"}")), "ok");
  }
  for (int i = 0; i < 200 && server.running(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(server.running());
}

TEST(Jobs, DaemonResultEqualsLibraryPath) {
  // The acceptance gate in miniature: a job answered by the daemon, cold
  // and then warm, carries its cell's matrix row (harness::run_cell), and
  // that row equals a hand-built library run.
  constexpr const char* kChaosJob =
      "{\"algorithm\": \"routing_direct\", \"family\": \"powerlaw\", "
      "\"n\": 32, \"backend\": \"pooled\", \"chaos\": true, "
      "\"chaos_dup\": 0.01}";
  Server server(base_options("jobs"));
  server.start();
  Client client(server.options().unix_path);
  for (const char* job : {kGoodJob, kChaosJob}) {
    const harness::CellSpec spec =
        harness::parse_job_cell(json::parse(job, "job"), "job");
    const harness::CellResult row = harness::run_cell(spec, 2);
    ASSERT_TRUE(row.ok) << row.fail_reason;
    EXPECT_EQ(row.faults > 0, spec.chaos) << spec.id();

    // The first job of a shape builds its session; the second leases it.
    for (const bool warm : {false, true}) {
      const std::string response = client.request(submit_body(job));
      ASSERT_EQ(response_type(response), "result") << response;
      const json::Value v = json::parse(response, "result");
      auto uint_field = [&](const char* key) {
        return json::as_uint(*v.find(key), 0, ~0ull, key, "result");
      };
      EXPECT_EQ(json::as_bool(*v.find("warm"), "warm", "result"), warm);
      EXPECT_EQ(v.find("trials"), nullptr) << response;
      EXPECT_EQ(uint_field("rounds"), row.cost.rounds);
      EXPECT_EQ(uint_field("messages"), row.cost.messages);
      EXPECT_EQ(uint_field("bits"), row.cost.bits);
      EXPECT_EQ(uint_field("collectives"), row.cost.collectives);
      EXPECT_EQ(uint_field("max_sent"), row.cost.max_node_sent);
      EXPECT_EQ(uint_field("max_received"), row.cost.max_node_received);
      EXPECT_EQ(uint_field("faults"), row.faults);
      EXPECT_EQ(v.find("output_fp")->str, harness::fp_hex(row.output_fp));
      EXPECT_EQ(v.find("ledger_fp")->str, harness::fp_hex(row.ledger_fp));
    }

    // Library path: fresh Engine::run with the identical cell config.
    const Graph g = corpus::make_family(spec.family, spec.n);
    Engine::Config cfg = harness::cell_engine_config(spec);
    RoundTrace trace;
    cfg.trace = &trace;
    ChaosPlan plan(harness::cell_chaos_config(spec));
    cfg.chaos = spec.chaos ? &plan : nullptr;
    const RunResult res =
        Engine::run(g, harness::find_algorithm(spec.algorithm), cfg);
    EXPECT_EQ(harness::outputs_fp(res.outputs), row.output_fp);
    EXPECT_EQ(harness::ledger_fingerprint(trace), row.ledger_fp);
    EXPECT_TRUE(harness::meters_equal(res.cost, row.cost));
    EXPECT_EQ(plan.total_faults(), row.faults);
  }
  server.drain();
}

}  // namespace
}  // namespace ccq::service
