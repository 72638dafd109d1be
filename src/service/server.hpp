#pragma once

// ccqd — the clique measurement daemon (DESIGN.md §15).
//
// A Server listens on a Unix-domain socket (or loopback TCP), speaks the
// length-prefixed strict-JSON protocol of service/protocol.hpp, and
// executes submitted jobs on warm engines from an EngineCache:
//
//   * thread-per-connection frontend: each accepted client gets a thread
//     that reads frames, answers ping/stats immediately, and turns submits
//     into queued jobs (blocking that connection — the protocol is one
//     outstanding request per connection);
//   * bounded job queue with reject-over-buffer admission control: a
//     submit that does not fit the queue is answered kErrQueueFull *now*
//     rather than silently parked — a load generator can tell "slow" from
//     "overloaded", and no job is ever accepted and then forgotten;
//   * a fixed executor pool runs each job as one harness::run_traced on
//     a warm EngineSession lease (a fresh RoundTrace, the meter↔ledger
//     cross-check) and answers with the cell's matrix-row fields;
//   * graceful drain: drain() (the SIGTERM path, also triggered by a
//     shutdown request) stops accepting connections, answers every further
//     submit kErrDraining, finishes the jobs already queued, then joins
//     all threads. Every accepted frame gets a response on every path.
//
// Thread safety: Options are immutable after start(); counters and the
// connection registry are mutex-guarded; the job queue is a classic
// mutex+condvar bounded queue. Job responses travel through per-job
// promise/future pairs, so an executor never touches a socket.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/manifest.hpp"
#include "service/engine_cache.hpp"

namespace ccq::service {

class Server {
 public:
  struct Options {
    /// Unix-domain socket path (unlinked on bind and on drain). Ignored
    /// when tcp_port != 0.
    std::string unix_path;
    /// When nonzero, listen on 127.0.0.1:tcp_port instead of unix_path.
    std::uint16_t tcp_port = 0;
    /// Executor threads running jobs.
    std::size_t executors = 2;
    /// Bounded job-queue depth; submits beyond it are rejected with
    /// kErrQueueFull.
    std::size_t queue_capacity = 16;
    /// Warm EngineSessions kept idle (0 = cold mode: every job constructs
    /// and destroys its engine — the bench_service baseline).
    std::size_t cache_sessions = 8;
    /// Test hook: every executor sleeps this long before starting a job,
    /// making queue_full admission control deterministic to provoke.
    std::uint64_t job_delay_ms = 0;
  };

  struct Stats {
    std::uint64_t connections = 0;
    /// Connection threads held: live connections plus finished ones not
    /// yet joined (the acceptor joins those on its next accept).
    std::size_t connection_threads = 0;
    std::uint64_t jobs_ok = 0;
    std::uint64_t jobs_failed = 0;       ///< ran but failed (kErrJobFailed)
    std::uint64_t jobs_rejected = 0;     ///< kErrQueueFull + kErrDraining
    std::uint64_t protocol_errors = 0;   ///< bad frames / JSON / requests
    std::size_t queue_depth = 0;
    CacheStats cache;
  };

  explicit Server(Options opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, spawn acceptor + executors. Throws ModelViolation on
  /// bind/listen failure (e.g. the path is taken).
  void start();

  /// Graceful drain (idempotent): stop accepting, reject new submits,
  /// finish queued jobs, join every thread. Blocks until quiescent.
  void drain();

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// True between start() and the end of drain(). Lets a host poll for a
  /// drain triggered remotely (a shutdown request).
  bool running() const { return started_.load(std::memory_order_acquire); }

  Stats stats() const;
  const Options& options() const { return opts_; }

 private:
  struct Job {
    harness::CellSpec spec;
    std::promise<std::string> response;
  };

  void acceptor_loop(int listen_fd);
  void connection_loop(int fd, std::uint64_t conn_id);
  void executor_loop();
  std::string handle_request(const std::string& payload,
                             const std::string& origin, bool* start_drain);
  std::string submit(const harness::CellSpec& spec);
  std::string stats_json() const;

  Options opts_;
  EngineCache cache_;

  int listen_fd_ = -1;
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};

  std::thread acceptor_;
  std::vector<std::thread> executors_;

  // Connection registry, keyed by connection id: each thread and its fd
  // (for drain's SHUT_RD nudge). A finished connection closes its fd and
  // sets it to -1 under conn_mu_; the acceptor then joins and drops it.
  struct Connection {
    std::thread thread;
    int fd = -1;
  };
  mutable std::mutex conn_mu_;
  std::map<std::uint64_t, Connection> conns_;

  // Bounded job queue.
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;

  // Counters (conn_mu_-guarded alongside the registry).
  std::uint64_t connections_ = 0;
  std::atomic<std::uint64_t> jobs_ok_{0};
  std::atomic<std::uint64_t> jobs_failed_{0};
  std::atomic<std::uint64_t> jobs_rejected_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
};

}  // namespace ccq::service
