// ccq_perfbench — one workload of the repository benchmark per process.
//
// Usage: ccq_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs the workload (engine.cpp, service.cpp), then prints one JSON line:
// the workload, the host/build settings the numbers depend on, op counts
// (attempted / succeeded / failed, with the first failure reasons) and
// every metric as {"value", "unit", "samples"}. perfbench/run.py builds this
// program, runs it and turns that line into the benchmark's result.

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "algebra/simd.hpp"
#include "common.hpp"
#include "service/protocol.hpp"
#include "util/env.hpp"

#ifndef CCQ_PERFBENCH_BUILD_TYPE
#define CCQ_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {

constexpr const char* kWorkloads[] = {"bfs-path-n256", "apsp-dense-n512",
                                      "apsp-sparse-n512", "ccqd-mix"};

std::string quoted(const std::string& s) {
  std::string q = "\"";
  q += ccq::service::json_escape(s);
  q += '"';
  return q;
}

std::string env_or_unset(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? "unset" : v;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Options& opt, const Result& r) {
  std::string s = "{\"workload\": " + quoted(opt.workload) +
                  ", \"seed\": " + std::to_string(opt.seed) +
                  ", \"trace\": " + (opt.trace ? "1" : "0");
  s += ", \"env\": {\"nproc\": " +
       std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
       ", \"CCQ_POOL_THREADS\": " + quoted(env_or_unset("CCQ_POOL_THREADS")) +
       ", \"CCQ_KERNEL_THREADS\": " +
       quoted(env_or_unset("CCQ_KERNEL_THREADS")) +
       ", \"CCQ_SIMD\": " + quoted(env_or_unset("CCQ_SIMD")) +
       ", \"simd_detected\": " +
       quoted(ccq::simd::level_name(ccq::simd::detected())) +
       ", \"simd_active\": " +
       quoted(ccq::simd::level_name(ccq::simd::active())) +
       ", \"build_type\": " + quoted(CCQ_PERFBENCH_BUILD_TYPE) + "}";
  const bool correct = !r.incorrect && r.failed == 0 && r.attempted > 0;
  s += std::string(", \"correct\": ") + (correct ? "true" : "false") +
       ", \"attempted\": " + std::to_string(r.attempted) +
       ", \"succeeded\": " + std::to_string(r.succeeded) +
       ", \"failed\": " + std::to_string(r.failed) + ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    s += (i ? ", " : "") + quoted(r.failures[i]);
  s += "], \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    s += (i ? ", " : "") + quoted(m.name) + ": {\"value\": " + number(m.value) +
         ", \"unit\": " + quoted(m.unit) +
         ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "workloads: bfs-path-n256 apsp-dense-n512 apsp-sparse-n512 "
               "ccqd-mix\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i], value = argv[i + 1];
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = ccq::parse_uint_strict(value, 0, ~0ull, "--seed");
      } else if (flag == "--seconds") {
        opt.seconds = static_cast<unsigned>(
            ccq::parse_uint_strict(value, 1, 3600, "--seconds"));
      } else if (flag == "--trace") {
        opt.trace = ccq::parse_uint_strict(value, 0, 1, "--trace") == 1;
      } else {
        return usage(argv[0]);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ccq_perfbench: %s\n", e.what());
    return usage(argv[0]);
  }
  if (argc % 2 != 1 || !have_workload) return usage(argv[0]);
  bool known = false;
  for (const char* w : kWorkloads) known |= opt.workload == w;
  if (!known) return usage(argv[0]);

  Result result;
  try {
    if (opt.workload == "ccqd-mix")
      run_service_workload(opt, &result);
    else
      run_engine_workload(opt, &result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ccq_perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  print_result(opt, result);
  return 0;
}
