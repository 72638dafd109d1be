#include "clique/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/check.hpp"

namespace ccq {

namespace {

// The schema uses only identifier-safe labels; anything else is dropped to
// '_' at write time so the emitted JSON never needs escaping (mirrors the
// bench_json.hpp convention).
std::string sanitize(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.' || c == '/' || c == ' ';
    if (!ok) c = '_';
  }
  return out;
}

void append_hist(std::string& out, const char* key,
                 const TraceHistogram& h) {
  out += "\"";
  out += key;
  out += "\":[";
  for (unsigned i = 0; i < TraceHistogram::kBuckets; ++i) {
    if (i) out += ",";
    out += std::to_string(h.bucket[i]);
  }
  out += "]";
}

void append_u64(std::string& out, const char* key, std::uint64_t v,
                bool comma = true) {
  out += "\"";
  out += key;
  out += "\":";
  out += std::to_string(v);
  if (comma) out += ",";
}

void append_str(std::string& out, const char* key, const std::string& v,
                bool comma = true) {
  out += "\"";
  out += key;
  out += "\":\"";
  out += sanitize(v);
  out += "\"";
  if (comma) out += ",";
}

void append_dbl(std::string& out, const char* key, double v,
                bool comma = true) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += "\"";
  out += key;
  out += "\":";
  out += buf;
  if (comma) out += ",";
}

// ---------------------------------------------------------------------------
// Minimal extractors for load_jsonl. The input is our own flat, unescaped
// schema, so a key scan is sufficient; every helper reports failure rather
// than guessing so a truncated/foreign file fails loudly.
// ---------------------------------------------------------------------------

bool find_key(const std::string& line, const char* key, std::size_t* pos) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  *pos = at + needle.size();
  return true;
}

bool get_u64(const std::string& line, const char* key, std::uint64_t* out) {
  std::size_t pos;
  if (!find_key(line, key, &pos)) return false;
  char* end = nullptr;
  *out = std::strtoull(line.c_str() + pos, &end, 10);
  return end != line.c_str() + pos;
}

bool get_dbl(const std::string& line, const char* key, double* out) {
  std::size_t pos;
  if (!find_key(line, key, &pos)) return false;
  char* end = nullptr;
  *out = std::strtod(line.c_str() + pos, &end);
  return end != line.c_str() + pos;
}

bool get_str(const std::string& line, const char* key, std::string* out) {
  std::size_t pos;
  if (!find_key(line, key, &pos)) return false;
  if (pos >= line.size() || line[pos] != '"') return false;
  const std::size_t close = line.find('"', pos + 1);
  if (close == std::string::npos) return false;
  *out = line.substr(pos + 1, close - pos - 1);
  return true;
}

bool get_hist(const std::string& line, const char* key, TraceHistogram* out) {
  std::size_t pos;
  if (!find_key(line, key, &pos)) return false;
  if (pos >= line.size() || line[pos] != '[') return false;
  ++pos;
  for (unsigned i = 0; i < TraceHistogram::kBuckets; ++i) {
    char* end = nullptr;
    out->bucket[i] =
        static_cast<std::uint32_t>(std::strtoull(line.c_str() + pos, &end, 10));
    if (end == line.c_str() + pos) return false;
    pos = static_cast<std::size_t>(end - line.c_str());
    if (pos < line.size() && line[pos] == ',') ++pos;
  }
  return pos < line.size() && line[pos] == ']';
}

}  // namespace

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

bool RoundTrace::try_acquire() {
  bool expected = false;
  return active_.compare_exchange_strong(expected, true);
}

void RoundTrace::on_run_begin(NodeId n, unsigned bandwidth) {
  TraceRunInfo info;
  info.n = n;
  info.bandwidth = bandwidth;
  // Runs are laid back to back on the chrome timeline.
  info.round_offset = runs_info_.empty()
                          ? 0
                          : runs_info_.back().round_offset +
                                runs_info_.back().rounds;
  runs_info_.push_back(info);
  cur_collective_ = 0;
  node_spans_.assign(n, {});
}

void RoundTrace::on_collective(TraceRecord&& rec) {
  rec.run = runs_info_.size() - 1;
  rec.collective = cur_collective_++;
  records_.push_back(std::move(rec));
}

void RoundTrace::on_rounds_charged(std::uint64_t round_begin,
                                   std::uint64_t rounds) {
  CCQ_CHECK_MSG(!records_.empty(), "rounds charged before any collective");
  TraceRecord& rec = records_.back();
  rec.round_begin = round_begin;
  rec.rounds = rounds;
  const TraceRunInfo& run = runs_info_.back();
  if (rounds > 0 && run.n > 1) {
    const double capacity = static_cast<double>(rounds) *
                            static_cast<double>(run.n) *
                            static_cast<double>(run.n - 1) * run.bandwidth;
    rec.cap_utilisation = static_cast<double>(rec.bits) / capacity;
  }
}

void RoundTrace::node_push(NodeId id, const char* label,
                           std::uint64_t collective, std::uint64_t round) {
  NodeSpanState& s = node_spans_[id];
  TraceSpanEvent ev;
  ev.run = runs_info_.size() - 1;
  ev.node = id;
  ev.label = label;
  ev.depth = static_cast<unsigned>(s.stack.size());
  ev.begin_collective = collective;
  ev.begin_round = round;
  s.stack.emplace_back(label);
  s.open.push_back(std::move(ev));
}

void RoundTrace::node_pop(NodeId id, std::uint64_t collective,
                          std::uint64_t round) {
  NodeSpanState& s = node_spans_[id];
  CCQ_CHECK_MSG(!s.stack.empty(), "trace span pop without push");
  TraceSpanEvent ev = std::move(s.open.back());
  s.open.pop_back();
  s.stack.pop_back();
  ev.end_collective = collective;
  ev.end_round = round;
  s.closed.push_back(std::move(ev));
}

const std::string& RoundTrace::current_phase(NodeId id) const {
  static const std::string kEmpty;
  const NodeSpanState& s = node_spans_[id];
  return s.stack.empty() ? kEmpty : s.stack.back();
}

void RoundTrace::on_run_end(const CostMeter& cost,
                            std::uint64_t fresh_stacks) {
  runs_info_.back().rounds = cost.rounds;
  runs_info_.back().fresh_stacks = fresh_stacks;
  metered_.add(cost);
  // Flush per-node span buffers in node-id order (deterministic output
  // order regardless of which fibers closed their spans first). Spans that
  // are still open — the run aborted before RAII unwinding could pop them,
  // which only happens if a node program leaked a TraceSpan — are closed at
  // the run's final coordinates so exports never carry dangling spans.
  for (NodeId v = 0; v < static_cast<NodeId>(node_spans_.size()); ++v) {
    NodeSpanState& s = node_spans_[v];
    while (!s.stack.empty()) {
      TraceSpanEvent ev = std::move(s.open.back());
      s.open.pop_back();
      s.stack.pop_back();
      ev.end_collective = cur_collective_;
      ev.end_round = cost.rounds;
      s.closed.push_back(std::move(ev));
    }
    // Node-local close order is pop order; sort by begin for readability.
    std::stable_sort(s.closed.begin(), s.closed.end(),
                     [](const TraceSpanEvent& a, const TraceSpanEvent& b) {
                       return a.begin_collective != b.begin_collective
                                  ? a.begin_collective < b.begin_collective
                                  : a.depth < b.depth;
                     });
    for (TraceSpanEvent& ev : s.closed) spans_.push_back(std::move(ev));
    s = {};
  }
  active_.store(false);
}

void RoundTrace::clear() {
  CCQ_CHECK_MSG(!active_.load(), "clear() while a run is recording");
  records_.clear();
  spans_.clear();
  runs_info_.clear();
  metered_ = CostMeter{};
  node_spans_.clear();
  cur_collective_ = 0;
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

bool RoundTrace::totals_match() const {
  std::uint64_t rounds = 0, messages = 0, bits = 0, collectives = 0;
  for (const TraceRecord& r : records_) {
    rounds += r.rounds;
    messages += r.messages;
    bits += r.bits;
    collectives += 1;
  }
  return rounds == metered_.rounds && messages == metered_.messages &&
         bits == metered_.bits && collectives == metered_.collectives;
}

std::map<std::string, PhaseTotals> RoundTrace::phase_totals() const {
  std::map<std::string, PhaseTotals> out;
  for (const TraceRecord& r : records_) {
    PhaseTotals& t = out[r.phase.empty() ? "unlabelled" : r.phase];
    t.collectives += 1;
    t.rounds += r.rounds;
    t.messages += r.messages;
    t.bits += r.bits;
  }
  return out;
}

bool RoundTrace::deterministic_eq(const RoundTrace& o) const {
  if (records_.size() != o.records_.size() ||
      spans_.size() != o.spans_.size() ||
      runs_info_.size() != o.runs_info_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (!records_[i].deterministic_eq(o.records_[i])) return false;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!spans_[i].deterministic_eq(o.spans_[i])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// JSONL export / import
// ---------------------------------------------------------------------------

bool RoundTrace::write_jsonl(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  {
    std::string line = "{";
    append_str(line, "type", "trace");
    append_u64(line, "version", 1);
    append_u64(line, "runs", runs());
    append_u64(line, "records", records_.size());
    append_u64(line, "spans", spans_.size());
    append_u64(line, "total_rounds", metered_.rounds);
    append_u64(line, "total_messages", metered_.messages);
    append_u64(line, "total_bits", metered_.bits);
    append_u64(line, "total_collectives", metered_.collectives,
               /*comma=*/false);
    f << line << "}\n";
  }
  for (std::size_t i = 0; i < runs_info_.size(); ++i) {
    const TraceRunInfo& r = runs_info_[i];
    std::string line = "{";
    append_str(line, "type", "run");
    append_u64(line, "run", i);
    append_u64(line, "n", r.n);
    append_u64(line, "bandwidth", r.bandwidth);
    append_u64(line, "round_offset", r.round_offset);
    append_u64(line, "rounds", r.rounds);
    append_u64(line, "fresh_stacks", r.fresh_stacks, /*comma=*/false);
    f << line << "}\n";
  }
  for (const TraceRecord& r : records_) {
    std::string line = "{";
    append_str(line, "type", "collective");
    append_u64(line, "run", r.run);
    append_u64(line, "collective", r.collective);
    append_str(line, "op", r.op);
    append_str(line, "phase", r.phase);
    append_u64(line, "round_begin", r.round_begin);
    append_u64(line, "rounds", r.rounds);
    append_u64(line, "messages", r.messages);
    append_u64(line, "bits", r.bits);
    append_u64(line, "max_sent", r.max_sent);
    append_u64(line, "max_received", r.max_received);
    append_hist(line, "sent_hist", r.sent_hist);
    line += ",";
    append_hist(line, "received_hist", r.received_hist);
    line += ",";
    append_dbl(line, "cap_utilisation", r.cap_utilisation);
    append_dbl(line, "delivery_ms", r.delivery_ms);
    append_u64(line, "fiber_switches", r.fiber_switches);
    append_u64(line, "parallel_jobs", r.parallel_jobs);
    append_u64(line, "parallel_chunks", r.parallel_chunks, /*comma=*/false);
    f << line << "}\n";
  }
  for (const TraceSpanEvent& s : spans_) {
    std::string line = "{";
    append_str(line, "type", "span");
    append_u64(line, "run", s.run);
    append_u64(line, "node", s.node);
    append_str(line, "label", s.label);
    append_u64(line, "depth", s.depth);
    append_u64(line, "begin_collective", s.begin_collective);
    append_u64(line, "begin_round", s.begin_round);
    append_u64(line, "end_collective", s.end_collective);
    append_u64(line, "end_round", s.end_round, /*comma=*/false);
    f << line << "}\n";
  }
  return static_cast<bool>(f);
}

bool RoundTrace::load_jsonl(const std::string& path, RoundTrace* out) {
  std::ifstream f(path);
  if (!f) return false;
  out->clear();
  CostMeter totals;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    std::string type;
    if (!get_str(line, "type", &type)) return false;
    if (type == "trace") {
      if (!get_u64(line, "total_rounds", &totals.rounds) ||
          !get_u64(line, "total_messages", &totals.messages) ||
          !get_u64(line, "total_bits", &totals.bits) ||
          !get_u64(line, "total_collectives", &totals.collectives)) {
        return false;
      }
    } else if (type == "run") {
      TraceRunInfo r;
      std::uint64_t n = 0, bw = 0;
      if (!get_u64(line, "n", &n) || !get_u64(line, "bandwidth", &bw) ||
          !get_u64(line, "round_offset", &r.round_offset) ||
          !get_u64(line, "rounds", &r.rounds) ||
          !get_u64(line, "fresh_stacks", &r.fresh_stacks)) {
        return false;
      }
      r.n = static_cast<NodeId>(n);
      r.bandwidth = static_cast<unsigned>(bw);
      out->runs_info_.push_back(r);
    } else if (type == "collective") {
      TraceRecord r;
      if (!get_u64(line, "run", &r.run) ||
          !get_u64(line, "collective", &r.collective) ||
          !get_str(line, "op", &r.op) || !get_str(line, "phase", &r.phase) ||
          !get_u64(line, "round_begin", &r.round_begin) ||
          !get_u64(line, "rounds", &r.rounds) ||
          !get_u64(line, "messages", &r.messages) ||
          !get_u64(line, "bits", &r.bits) ||
          !get_u64(line, "max_sent", &r.max_sent) ||
          !get_u64(line, "max_received", &r.max_received) ||
          !get_hist(line, "sent_hist", &r.sent_hist) ||
          !get_hist(line, "received_hist", &r.received_hist) ||
          !get_dbl(line, "cap_utilisation", &r.cap_utilisation) ||
          !get_dbl(line, "delivery_ms", &r.delivery_ms) ||
          !get_u64(line, "fiber_switches", &r.fiber_switches) ||
          !get_u64(line, "parallel_jobs", &r.parallel_jobs) ||
          !get_u64(line, "parallel_chunks", &r.parallel_chunks)) {
        return false;
      }
      out->records_.push_back(std::move(r));
    } else if (type == "span") {
      TraceSpanEvent s;
      std::uint64_t node = 0, depth = 0;
      if (!get_u64(line, "run", &s.run) || !get_u64(line, "node", &node) ||
          !get_str(line, "label", &s.label) ||
          !get_u64(line, "depth", &depth) ||
          !get_u64(line, "begin_collective", &s.begin_collective) ||
          !get_u64(line, "begin_round", &s.begin_round) ||
          !get_u64(line, "end_collective", &s.end_collective) ||
          !get_u64(line, "end_round", &s.end_round)) {
        return false;
      }
      s.node = static_cast<NodeId>(node);
      s.depth = static_cast<unsigned>(depth);
      out->spans_.push_back(std::move(s));
    } else {
      return false;  // unknown record type: not one of our files
    }
  }
  out->metered_ = totals;
  return true;
}

// ---------------------------------------------------------------------------
// Chrome Trace Event Format
// ---------------------------------------------------------------------------

bool RoundTrace::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](const std::string& ev) {
    if (!first) f << ",\n";
    first = false;
    f << ev;
  };
  for (std::size_t i = 0; i < runs_info_.size(); ++i) {
    const TraceRunInfo& r = runs_info_[i];
    std::string ev = "{";
    append_str(ev, "name", "process_name");
    append_str(ev, "ph", "M");
    append_u64(ev, "pid", i);
    append_u64(ev, "tid", 0);
    ev += "\"args\":{\"name\":\"ccq run " + std::to_string(i) + " (n=" +
          std::to_string(r.n) + ", B=" + std::to_string(r.bandwidth) +
          ")\"}}";
    emit(ev);
  }
  for (const TraceRecord& r : records_) {
    const TraceRunInfo& run = runs_info_[r.run];
    std::string ev = "{";
    append_str(ev, "name", r.phase.empty() ? r.op : r.phase + ":" + r.op);
    append_str(ev, "cat", "collective");
    append_str(ev, "ph", "X");
    append_u64(ev, "pid", r.run);
    append_u64(ev, "tid", 0);
    // 1 µs ≡ 1 model round. Zero-round collectives (free self-delivery)
    // still get a sliver so they are visible and clickable.
    append_u64(ev, "ts", run.round_offset + r.round_begin);
    append_dbl(ev, "dur", r.rounds > 0 ? static_cast<double>(r.rounds) : 0.1);
    ev += "\"args\":{";
    append_u64(ev, "collective", r.collective);
    append_u64(ev, "rounds", r.rounds);
    append_u64(ev, "messages", r.messages);
    append_u64(ev, "bits", r.bits);
    append_u64(ev, "max_sent", r.max_sent);
    append_u64(ev, "max_received", r.max_received);
    append_dbl(ev, "cap_utilisation", r.cap_utilisation);
    append_dbl(ev, "delivery_ms", r.delivery_ms);
    append_u64(ev, "fiber_switches", r.fiber_switches);
    append_u64(ev, "parallel_chunks", r.parallel_chunks, /*comma=*/false);
    ev += "}}";
    emit(ev);
  }
  for (const TraceSpanEvent& s : spans_) {
    const TraceRunInfo& run = runs_info_[s.run];
    std::string ev = "{";
    append_str(ev, "name", s.label);
    append_str(ev, "cat", "span");
    append_str(ev, "ph", "X");
    append_u64(ev, "pid", s.run);
    append_u64(ev, "tid", std::uint64_t{s.node} + 1);
    append_u64(ev, "ts", run.round_offset + s.begin_round);
    const std::uint64_t dur = s.end_round - s.begin_round;
    append_dbl(ev, "dur", dur > 0 ? static_cast<double>(dur) : 0.1);
    ev += "\"args\":{";
    append_u64(ev, "node", s.node);
    append_u64(ev, "begin_collective", s.begin_collective);
    append_u64(ev, "end_collective", s.end_collective, /*comma=*/false);
    ev += "}}";
    emit(ev);
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------------------
// Process-wide default trace (benches' --trace flag)
// ---------------------------------------------------------------------------

namespace trace {
namespace {
std::atomic<RoundTrace*> g_trace{nullptr};
}  // namespace

void set_global(RoundTrace* t) { g_trace.store(t); }
RoundTrace* global() { return g_trace.load(); }
}  // namespace trace

}  // namespace ccq
