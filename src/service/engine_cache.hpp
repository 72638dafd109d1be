#pragma once

// Warm engine + instance caches for ccqd (DESIGN.md §15).
//
// A ccqd job names a scenario cell; executing it cold costs, beyond the
// protocol itself, (a) regenerating the graph family and (b) constructing
// a scheduler and a message plane and sizing the plane's arrays per run.
// The two caches below amortise both (fiber stacks are recycled for warm
// and cold runs alike by the process-wide stack store, DESIGN.md §12):
//
//   * InstanceCache — keyed by the family identity (name, n, seed, tuning
//     parameters): harness::cell_instance(spec), the generated Graph. A
//     family is a pure function of its spec, so a cached instance is
//     bit-identical to a fresh one.
//
//   * EngineCache — keyed by EngineSession::Shape (n, B-multiplier,
//     backend, workers): a pool of idle warm sessions.
//     acquire() hands out an exclusive lease (concurrent jobs on the same
//     key get *distinct* sessions — a session is single-run); release()
//     returns the session for the next job, evicting least-recently-used
//     idle sessions beyond the capacity cap. capacity 0 disables the cache
//     entirely (every acquire is a cold construction, every release a
//     destruction) — the cold baseline bench_service measures against.
//
// Both caches are mutex-guarded; the engine runs themselves happen outside
// the locks.

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

#include "clique/engine.hpp"
#include "harness/manifest.hpp"

namespace ccq::service {

/// Cache telemetry (served by ccqd's stats request).
struct CacheStats {
  std::uint64_t hits = 0;       ///< acquire satisfied by an idle session
  std::uint64_t misses = 0;     ///< acquire had to construct
  std::uint64_t evictions = 0;  ///< idle sessions destroyed over capacity
  std::uint64_t instance_hits = 0;
  std::uint64_t instance_misses = 0;
};

class EngineCache {
 public:
  /// `session_capacity` caps idle sessions across all keys (0 = disabled);
  /// `instance_capacity` caps cached instances.
  explicit EngineCache(std::size_t session_capacity,
                       std::size_t instance_capacity = 32);

  /// An exclusive session lease plus whether it came warm. The session is
  /// returned to the cache (or destroyed, over capacity / disabled) when
  /// the lease is destroyed.
  class Lease {
   public:
    Lease(EngineCache* cache, std::unique_ptr<EngineSession> session,
          bool warm)
        : cache_(cache), session_(std::move(session)), warm_(warm) {}
    ~Lease() {
      if (session_ != nullptr) cache_->release(std::move(session_));
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease(Lease&&) = default;

    EngineSession& session() { return *session_; }
    bool warm() const { return warm_; }

   private:
    EngineCache* cache_;
    std::unique_ptr<EngineSession> session_;
    bool warm_;
  };

  Lease acquire(const EngineSession::Shape& shape);

  /// harness::cell_instance(spec), shared from the LRU tier. Throws
  /// ModelViolation for unknown families / unloadable corpus files.
  std::shared_ptr<const Instance> instance(const harness::CellSpec& spec);

  CacheStats stats() const;

 private:
  friend class Lease;
  void release(std::unique_ptr<EngineSession> session);

  const std::size_t session_capacity_;
  const std::size_t instance_capacity_;

  mutable std::mutex mu_;
  // Idle sessions, most recently released last; eviction pops the front.
  // Linear scan on acquire: the pool is small (≤ capacity, default 8).
  std::deque<std::unique_ptr<EngineSession>> idle_;
  // Instance LRU, most recently used last.
  struct CachedInstance {
    std::string key;
    std::shared_ptr<const Instance> instance;
  };
  std::deque<CachedInstance> instances_;
  CacheStats stats_;
};

/// The engine shape a cell runs on (the EngineCache key): n plus the
/// shape-valued fields of harness::cell_engine_config(spec).
EngineSession::Shape cell_shape(const harness::CellSpec& spec);

/// The instance-cache identity of a cell's graph family: every CellSpec
/// field that reaches the generator (name, n, seed, tuning parameters).
std::string instance_key(const harness::CellSpec& spec);

}  // namespace ccq::service
