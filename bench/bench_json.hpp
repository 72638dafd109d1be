#pragma once

// Machine-readable benchmark output: a minimal JSON array writer so CI (and
// EXPERIMENTS.md tooling) can diff benchmark runs without scraping the
// printed tables. Keys and string values in this repo are plain
// identifiers, so no escaping is needed; numbers are emitted verbatim.
//
// Usage:
//   benchjson::Writer out;
//   out.add({{"cell", id}, {"rounds", 8}, {"wall_ms", 12.3}});
//   out.write("BENCH_matrix.json");
//
// TraceSession (below) is the shared --trace=<path> plumbing: construct it
// first thing in main() and call finish() before writing BENCH_*.json.
// ShapeChecks turns a bench's printed pass/fail markers into its exit code.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <variant>
#include <vector>

#include "clique/trace.hpp"

namespace ccq::benchjson {

struct Field {
  Field(const char* k, const char* v) : key(k), value(v) {}
  Field(const char* k, const std::string& v) : key(k), value(v) {}
  Field(const char* k, double v) : key(k), value(v) {}
  Field(const char* k, std::uint64_t v) : key(k), value(v) {}
  Field(const char* k, unsigned v) : key(k), value(std::uint64_t{v}) {}
  Field(const char* k, int v)
      : key(k), value(static_cast<std::uint64_t>(v)) {}

  std::string key;
  std::variant<std::string, double, std::uint64_t> value;
};

class Writer {
 public:
  void add(std::initializer_list<Field> fields) {
    std::string rec = "{";
    bool first = true;
    for (const Field& f : fields) {
      if (!first) rec += ", ";
      first = false;
      rec += "\"" + f.key + "\": ";
      if (const auto* s = std::get_if<std::string>(&f.value)) {
        rec += "\"" + *s + "\"";
      } else if (const auto* d = std::get_if<double>(&f.value)) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.3f", *d);
        rec += buf;
      } else {
        rec += std::to_string(std::get<std::uint64_t>(f.value));
      }
    }
    records_.push_back(rec + "}");
  }

  bool write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      std::fprintf(f, "  %s%s\n", records_[i].c_str(),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    return true;
  }

 private:
  std::vector<std::string> records_;
};

// Per-bench round-trace session (clique/trace.hpp). Construction scans argv
// for --trace=<path> and strips it so bench-specific flag parsing never
// sees it; when enabled, it installs the process-wide trace, so every
// Engine::run the bench performs lands in one timeline. finish() writes
// <path> in Chrome Trace Event Format (load in chrome://tracing or
// https://ui.perfetto.dev) plus the raw per-collective ledger next to it
// as <path>l / <path>.jsonl, prints a per-phase rounds/bits breakdown,
// appends the same breakdown to the bench's BENCH_*.json rows, and
// self-checks that the per-record sums reproduce the CostMeter totals
// exactly — a false return is a tracing bug, and benches exit non-zero on
// it.
//
// Usage:
//   int main(int argc, char** argv) {
//     benchjson::TraceSession trace(&argc, argv);
//     ...run benchmarks...
//     if (!trace.finish(&json)) return 1;   // before json.write(...)
//     json.write("BENCH_foo.json");
//   }
class TraceSession {
 public:
  TraceSession(int* argc, char** argv) {
    int keep = 1;
    for (int i = 1; i < *argc; ++i) {
      if (std::strncmp(argv[i], "--trace=", 8) == 0) {
        path_ = argv[i] + 8;
      } else {
        argv[keep++] = argv[i];
      }
    }
    *argc = keep;
    argv[keep] = nullptr;
    if (enabled()) trace::set_global(&trace_);
  }

  ~TraceSession() {
    if (enabled()) {
      if (!finished_) finish(nullptr);
      trace::set_global(nullptr);
    }
  }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }
  const RoundTrace& trace() const { return trace_; }

  bool finish(Writer* json) {
    if (!enabled() || finished_) return true;
    finished_ = true;
    trace::set_global(nullptr);

    const CostMeter& total = trace_.metered_totals();
    std::printf("\ntrace: %llu run(s), %zu collective(s), %llu round(s)\n",
                static_cast<unsigned long long>(trace_.runs()),
                trace_.records().size(),
                static_cast<unsigned long long>(total.rounds));
    std::printf("  %-22s %12s %12s %14s %16s\n", "phase", "collectives",
                "rounds", "messages", "bits");
    for (const auto& [phase, t] : trace_.phase_totals()) {
      std::printf("  %-22s %12llu %12llu %14llu %16llu\n", phase.c_str(),
                  static_cast<unsigned long long>(t.collectives),
                  static_cast<unsigned long long>(t.rounds),
                  static_cast<unsigned long long>(t.messages),
                  static_cast<unsigned long long>(t.bits));
      if (json != nullptr) {
        json->add({{"phase", phase},
                   {"collectives", t.collectives},
                   {"rounds", t.rounds},
                   {"messages", t.messages},
                   {"bits", t.bits}});
      }
    }

    bool ok = true;
    if (trace_.totals_match()) {
      std::printf("trace self-check: OK (per-record sums == metered totals)\n");
    } else {
      std::printf("trace self-check: FAILED — per-record sums do not "
                  "reproduce the CostMeter totals\n");
      ok = false;
    }

    const std::string jsonl_path =
        path_.size() >= 5 && path_.compare(path_.size() - 5, 5, ".json") == 0
            ? path_ + "l"
            : path_ + ".jsonl";
    if (trace_.write_chrome(path_) && trace_.write_jsonl(jsonl_path)) {
      std::printf("wrote %s (chrome://tracing) and %s (JSONL ledger)\n",
                  path_.c_str(), jsonl_path.c_str());
    } else {
      std::printf("trace: failed to write %s / %s\n", path_.c_str(),
                  jsonl_path.c_str());
      ok = false;
    }
    return ok;
  }

 private:
  RoundTrace trace_;
  std::string path_;
  bool finished_ = false;
};

/// A bench's shape checks: check(ok, pass, fail) returns the marker to
/// print, and exit_code() is 1 once any check failed, so a failed check
/// both shows in the table and fails the run.
class ShapeChecks {
 public:
  const char* operator()(bool ok, const char* pass, const char* fail) {
    failed_ = failed_ || !ok;
    return ok ? pass : fail;
  }
  int exit_code() const { return failed_ ? 1 : 0; }

 private:
  bool failed_ = false;
};

}  // namespace ccq::benchjson
