#pragma once

// Shared pieces of the repository benchmark program (perfbench/run.py runs
// the ccq_perfbench executable built from this directory, one process per
// workload): timing, sample statistics, the seeded input generator, the
// result record every workload fills, and the per-layer readings of a traced
// engine run.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "clique/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// splitmix64. Every input the benchmark draws from --seed goes through
/// this generator (not <random>, whose distributions are
/// implementation-defined), so a seed names the same inputs everywhere.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound) (bound small, so the modulo bias is negligible
  /// and, more to the point, deterministic).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// Median; the two middle samples are averaged for an even count.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Nearest-rank percentile, p in (0, 1].
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t idx =
      std::min(v.size(), static_cast<std::size_t>(std::max(1.0, rank))) - 1;
  return v[idx];
}

inline double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value
};

/// What one workload process reports. An op that returns a wrong answer,
/// an error response or a dropped connection is failed: it is counted in
/// `failed`, never timed as a success.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  bool incorrect = false;             ///< a check outside any op failed
  std::vector<std::string> failures;  ///< first few reasons, for the log
  std::vector<Metric> metrics;

  void ok() {
    ++attempted;
    ++succeeded;
  }
  void fail(const std::string& reason) {
    ++attempted;
    ++failed;
    if (failures.size() < 8) failures.push_back(reason);
  }
  /// A check outside any op (a reference or replay mismatch): marks the
  /// run incorrect without counting an op.
  void broken(const std::string& reason) {
    if (failures.size() < 8) failures.push_back(reason);
    incorrect = true;
  }
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    metrics.push_back(Metric{name, value, unit, samples});
  }
};

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Fixed op budget for a run of `seconds`: a pure function of the workload
/// and --seconds (never of the measured speed), so the run's summed rounds
/// and bits repeat exactly and a faster program simply finishes sooner.
inline int op_budget(unsigned seconds, double nominal_op_ms, int min_ops) {
  const double ops = std::round(1000.0 * seconds / nominal_op_ms);
  return std::max(min_ops, static_cast<int>(ops));
}

/// Adds the end-to-end metrics (BENCHMARK.json "end_to_end"). `lat_ms`
/// holds the latency of every succeeded measured op, `busy_s` the host time
/// those ops took, and words/rounds/bits are summed over them.
inline void add_end_to_end(Result* out, double setup_s,
                           std::size_t setup_samples,
                           const std::vector<double>& lat_ms, double busy_s,
                           double words, double rounds, double bits) {
  const std::size_t n = lat_ms.size();
  out->add("setup_s", setup_s, "s", setup_samples);
  out->add("op_ms_p50", median(lat_ms), "ms", n);
  out->add("op_ms_p99", percentile(lat_ms, 0.99), "ms", n);
  out->add("mwords_per_s", busy_s > 0 ? words / busy_s / 1e6 : 0, "Mword/s",
           n);
  out->add("jobs_per_s", busy_s > 0 ? static_cast<double>(n) / busy_s : 0,
           "1/s", n);
  // The success share, not the failure share: a metric must never read 0.
  out->add("ops_ok_frac",
           out->attempted > 0 ? static_cast<double>(out->succeeded) /
                                    static_cast<double>(out->attempted)
                              : 0,
           "ratio", out->attempted);
  out->add("rounds", rounds, "count", n);
  out->add("bits", bits, "bit", n);
  out->add("peak_rss_mb", peak_rss_mb(), "MB", 1);
}

/// Layer readings of one traced engine run: a traced op of an engine
/// workload, or a library-path replay of one ccqd-mix cell.
struct TracedOp {
  double run_ms = 0, delivery_ms = 0;
  double collectives = 0, fiber_switches = 0, parallel_chunks = 0;
  double words = 0;  ///< non-self words delivered
};

inline TracedOp read_trace(const ccq::RoundTrace& trace, double run_ms,
                           std::uint64_t words) {
  TracedOp t;
  t.run_ms = run_ms;
  for (const ccq::TraceRecord& rec : trace.records()) {
    t.delivery_ms += rec.delivery_ms;
    t.fiber_switches += static_cast<double>(rec.fiber_switches);
    t.parallel_chunks += static_cast<double>(rec.parallel_chunks);
  }
  t.collectives = static_cast<double>(trace.records().size());
  t.words = static_cast<double>(words);
  return t;
}

/// Adds the clique, scheduler and msgplane per-layer metrics over traced
/// runs and returns their median run time.
inline double add_engine_layers(Result* out, const std::vector<TracedOp>& ops) {
  std::vector<double> run, deliv, coll, fib, chunks, nondeliv, nd_per_coll;
  double run_sum = 0, deliv_sum = 0, words_sum = 0;
  for (const TracedOp& t : ops) {
    run.push_back(t.run_ms);
    deliv.push_back(t.delivery_ms);
    coll.push_back(t.collectives);
    fib.push_back(t.fiber_switches);
    chunks.push_back(t.parallel_chunks);
    nondeliv.push_back(t.run_ms - t.delivery_ms);
    if (t.collectives > 0)
      nd_per_coll.push_back((t.run_ms - t.delivery_ms) * 1e3 / t.collectives);
    run_sum += t.run_ms;
    deliv_sum += t.delivery_ms;
    words_sum += t.words;
  }
  const std::size_t n = ops.size();
  out->add("clique.run_ms", median(run), "ms", n);
  out->add("clique.collectives", median(coll), "count", n);
  out->add("scheduler.fiber_switches", median(fib), "count", n);
  out->add("scheduler.parallel_chunks", median(chunks), "count", n);
  out->add("clique.non_delivery_ms", median(nondeliv), "ms", n);
  out->add("clique.non_delivery_us_per_collective", median(nd_per_coll), "us",
           nd_per_coll.size());
  out->add("msgplane.delivery_ms", median(deliv), "ms", n);
  out->add("msgplane.delivery_share", run_sum > 0 ? deliv_sum / run_sum : 0,
           "ratio", n);
  out->add("msgplane.ns_per_word",
           words_sum > 0 ? deliv_sum * 1e6 / words_sum : 0, "ns", n);
  return median(run);
}

void run_engine_workload(const Options& opt, Result* out);
void run_service_workload(const Options& opt, Result* out);

}  // namespace perfbench
