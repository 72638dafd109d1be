#include "service/engine_cache.hpp"

#include <sstream>

#include "graph/corpus.hpp"
#include "harness/sweep.hpp"

namespace ccq::service {

EngineCache::EngineCache(std::size_t session_capacity,
                         std::size_t instance_capacity)
    : session_capacity_(session_capacity),
      instance_capacity_(instance_capacity) {}

EngineCache::Lease EngineCache::acquire(const EngineSession::Shape& shape) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto it = idle_.begin(); it != idle_.end(); ++it) {
      if ((*it)->shape() == shape) {
        std::unique_ptr<EngineSession> s = std::move(*it);
        idle_.erase(it);
        ++stats_.hits;
        return Lease(this, std::move(s), /*warm=*/true);
      }
    }
    ++stats_.misses;
  }
  // Construction outside the lock: it allocates the scheduler and plane.
  return Lease(this, std::make_unique<EngineSession>(shape), /*warm=*/false);
}

void EngineCache::release(std::unique_ptr<EngineSession> session) {
  if (session_capacity_ == 0) return;  // disabled: cold baseline mode
  std::unique_ptr<EngineSession> evicted;  // destroyed outside the lock
  {
    std::lock_guard<std::mutex> lk(mu_);
    idle_.push_back(std::move(session));
    if (idle_.size() > session_capacity_) {
      evicted = std::move(idle_.front());
      idle_.pop_front();
      ++stats_.evictions;
    }
  }
}

std::shared_ptr<const Instance> EngineCache::instance(
    const harness::CellSpec& spec) {
  const std::string key = instance_key(spec);
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto it = instances_.begin(); it != instances_.end(); ++it) {
      if (it->key == key) {
        CachedInstance hit = std::move(*it);
        instances_.erase(it);
        instances_.push_back(std::move(hit));  // most recently used last
        ++stats_.instance_hits;
        return instances_.back().instance;
      }
    }
    ++stats_.instance_misses;
  }
  // Generate outside the lock (O(n²) work); racing jobs on the same key may
  // both generate — the results are identical pure functions of the spec,
  // so the duplicate work is a startup blip, not a correctness issue.
  auto inst = std::make_shared<Instance>(
      Instance::of(corpus::make_family(spec.family, spec.n)));
  // Precompute the §3 encoding the engine would otherwise derive per run.
  inst->private_bits = private_bit_encoding(inst->graph);
  std::shared_ptr<const Instance> shared = std::move(inst);
  {
    std::lock_guard<std::mutex> lk(mu_);
    instances_.push_back({key, shared});
    if (instances_.size() > instance_capacity_) instances_.pop_front();
  }
  return shared;
}

CacheStats EngineCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

EngineSession::Shape cell_shape(const harness::CellSpec& spec) {
  const Engine::Config cfg = harness::cell_engine_config(spec);
  EngineSession::Shape shape;
  shape.n = spec.n;
  shape.bandwidth_multiplier = cfg.bandwidth_multiplier;
  shape.backend = cfg.backend;
  shape.workers = cfg.workers;
  return shape;
}

std::string instance_key(const harness::CellSpec& spec) {
  const corpus::FamilySpec& f = spec.family;
  std::ostringstream os;
  os << f.name << "/n=" << spec.n << "/seed=" << f.seed << "/p=" << f.p
     << "/max_w=" << f.max_w << "/exp=" << f.exponent
     << "/deg=" << f.avg_degree << "/k=" << f.k << "/p_in=" << f.p_in
     << "/p_out=" << f.p_out << "/path=" << f.path;
  return os.str();
}

}  // namespace ccq::service
