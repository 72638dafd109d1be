#include "harness/manifest.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "harness/sweep.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace ccq::harness {

namespace {

// The strict JSON reader lives in util/json.{hpp,cpp} (shared with the
// ccqd service protocol); these aliases keep the validation code below
// reading as before.
using JsonValue = json::Value;
using json::as_bool;
using json::as_number;
using json::as_prob;
using json::as_string;
using json::as_uint;
using json::fail_at;

// Accepted keys — the single source of truth for the schema. The DESIGN.md
// §14 schema table documents exactly these names; tools/check_docs.py
// fails the docs job if either side drifts.
// manifest-keys-begin
constexpr const char* kTopLevelKeys[] = {"name", "trials", "cells"};
constexpr const char* kCellKeys[] = {
    "label",     "algorithm", "family",     "n",          "backend",
    "chaos",     "workers",   "bandwidth",  "seed",       "p",
    "max_w",     "exponent",  "avg_degree", "k",          "p_in",
    "p_out",     "path",      "chaos_flip", "chaos_drop", "chaos_dup"};
// manifest-keys-end

// ---- manifest validation --------------------------------------------------

template <std::size_t N>
void check_keys(const JsonValue& obj, const char* const (&known)[N],
                const char* what, const std::string& origin) {
  for (const auto& [k, v] : obj.obj) {
    if (std::find_if(std::begin(known), std::end(known),
                     [&](const char* s) { return k == s; }) ==
        std::end(known)) {
      std::ostringstream os;
      os << "unknown " << what << " key '" << k << "' (accepted:";
      for (const char* s : known) os << " " << s;
      os << ")";
      fail_at(origin, v.line, os.str());
    }
  }
}

/// Scalar-or-array axis `key` of `group`: returns the scalar, or each
/// array element, as JsonValue pointers in manifest order (none when the
/// key is absent). An empty array is an error: it would expand the group
/// to no cells, or drop an optional axis to its default unannounced.
std::vector<const JsonValue*> axis_values(const JsonValue& group,
                                          const char* key,
                                          const std::string& origin) {
  std::vector<const JsonValue*> out;
  const JsonValue* v = group.find(key);
  if (v == nullptr) return out;
  if (v->kind == JsonValue::Kind::kArray) {
    if (v->arr.empty())
      fail_at(origin, v->line,
              std::string("axis '") + key +
                  "' is an empty array (give at least one value)");
    for (const auto& e : v->arr) out.push_back(&e);
  } else {
    out.push_back(v);
  }
  return out;
}

// A manifest may name the thread-per-node oracle (bench_matrix's
// equivalence check); a ccqd job may not, since it starts one OS thread per
// node.
ExecutionBackend parse_backend(const JsonValue& v, bool job,
                               const std::string& origin) {
  const std::string s = as_string(v, "backend", origin);
  if (s == "pooled") return ExecutionBackend::kPooled;
  if (s == "threaded" && !job) return ExecutionBackend::kThreadPerNode;
  const std::string what = s == "threaded"
                               ? "backend 'threaded' cannot run as a job"
                               : "unknown backend '" + s + "'";
  fail_at(origin, v.line,
          what + " (accepted: " + (job ? "pooled" : "pooled, threaded") + ")");
}

// A manifest's name and a cell's label land in BENCH rows ("manifest", and
// "cell" through CellSpec::id()), whose writer does not escape strings, so
// both keep to characters that need no escaping and no quoting in an id.
std::string as_identifier(const JsonValue& v, const char* what,
                          const std::string& origin) {
  std::string s = as_string(v, what, origin);
  for (const char c : s) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.' || c == '=';
    if (!ok)
      fail_at(origin, v.line,
              std::string(what) + " '" + s +
                  "' has a character outside A-Z a-z 0-9 _ - . =");
  }
  return s;
}

std::string read_file(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    throw ModelViolation(path + ": cannot open manifest");
  std::string data;
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) data.append(buf, got);
  std::fclose(f);
  return data;
}

}  // namespace

const char* backend_name(ExecutionBackend b) {
  return b == ExecutionBackend::kPooled ? "pooled" : "threaded";
}

std::string CellSpec::id() const {
  std::ostringstream os;
  if (!label.empty()) os << label << "/";
  os << algorithm << "/" << family.name << "/n=" << n << "/"
     << backend_name(backend) << "/chaos=" << (chaos ? "on" : "off");
  if (workers != 0) os << "/w=" << workers;
  if (bandwidth != 1) os << "/B=" << bandwidth;
  return os.str();
}

namespace {

// Expand one cell group (a JSON object with scalar-or-array axis keys) into
// `out`, checking expanded ids against `seen_ids`. Shared by parse_manifest
// (each entry of "cells") and parse_job_cell (a ccqd job body, which must
// expand to exactly one cell and may name only algorithm_names(), not a
// manifest-only program, and no file-backed family).
void expand_cell_group(const JsonValue& group, const std::string& origin,
                       bool job, std::set<std::string>& seen_ids,
                       std::vector<CellSpec>& out) {
  if (group.kind != JsonValue::Kind::kObject)
    fail_at(origin, group.line, "each cell must be a JSON object");
  check_keys(group, kCellKeys, "cell", origin);

  CellSpec base;
  if (const JsonValue* v = group.find("label"))
    base.label = as_identifier(*v, "label", origin);
  if (const JsonValue* v = group.find("bandwidth"))
    base.bandwidth =
        static_cast<unsigned>(as_uint(*v, 1, 4, "bandwidth", origin));
  if (const JsonValue* v = group.find("seed"))
    base.seed = as_uint(*v, 0, ~std::uint64_t{0}, "seed", origin);
  if (const JsonValue* v = group.find("p"))
    base.family.p = as_prob(*v, "p", origin);
  if (const JsonValue* v = group.find("max_w"))
    base.family.max_w = static_cast<std::uint32_t>(
        as_uint(*v, 1, 0xffffffffu, "max_w", origin));
  if (const JsonValue* v = group.find("exponent")) {
    base.family.exponent = as_number(*v, "exponent", origin);
    if (base.family.exponent <= 1.0)
      fail_at(origin, v->line, "exponent must be > 1");
  }
  if (const JsonValue* v = group.find("avg_degree")) {
    base.family.avg_degree = as_number(*v, "avg_degree", origin);
    if (base.family.avg_degree <= 0)
      fail_at(origin, v->line, "avg_degree must be > 0");
  }
  if (const JsonValue* v = group.find("k"))
    base.family.k =
        static_cast<unsigned>(as_uint(*v, 1, 1u << 20, "k", origin));
  if (const JsonValue* v = group.find("p_in"))
    base.family.p_in = as_prob(*v, "p_in", origin);
  if (const JsonValue* v = group.find("p_out"))
    base.family.p_out = as_prob(*v, "p_out", origin);
  if (const JsonValue* v = group.find("path"))
    base.family.path = as_string(*v, "path", origin);
  if (const JsonValue* v = group.find("chaos_flip"))
    base.chaos_flip = as_prob(*v, "chaos_flip", origin);
  if (const JsonValue* v = group.find("chaos_drop"))
    base.chaos_drop = as_prob(*v, "chaos_drop", origin);
  if (const JsonValue* v = group.find("chaos_dup"))
    base.chaos_dup = as_prob(*v, "chaos_dup", origin);
  base.family.seed = base.seed;

  const auto algs = axis_values(group, "algorithm", origin);
  if (algs.empty()) fail_at(origin, group.line, "missing 'algorithm'");
  const auto fams = axis_values(group, "family", origin);
  if (fams.empty()) fail_at(origin, group.line, "missing 'family'");
  const auto ns = axis_values(group, "n", origin);
  if (ns.empty()) fail_at(origin, group.line, "missing 'n'");
  const auto backends = axis_values(group, "backend", origin);
  const auto workers = axis_values(group, "workers", origin);
  const auto chaoses = axis_values(group, "chaos", origin);

  const auto listed = [](const std::vector<std::string>& names,
                         const std::string& s) {
    return std::find(names.begin(), names.end(), s) != names.end();
  };
  for (const JsonValue* av : algs) {
    CellSpec a = base;
    a.algorithm = as_string(*av, "algorithm", origin);
    const bool manifest_only = listed(manifest_only_names(), a.algorithm);
    if (!listed(algorithm_names(), a.algorithm) && (job || !manifest_only)) {
      std::ostringstream os;
      os << (manifest_only ? "manifest-only program '"
                           : "unknown algorithm '")
         << a.algorithm
         << (manifest_only ? "' cannot run as a job (known:" : "' (known:");
      for (const auto& s : algorithm_names()) os << " " << s;
      if (!job)
        for (const auto& s : manifest_only_names()) os << " " << s;
      os << ")";
      fail_at(origin, av->line, os.str());
    }
    for (const JsonValue* fv : fams) {
      CellSpec f = a;
      f.family.name = as_string(*fv, "family", origin);
      const auto& fnames = corpus::family_names();
      const bool known = listed(fnames, f.family.name);
      // A job may not make the daemon open a path: the refusal names the
      // family only, so it reveals nothing about the path or the file.
      if (!known || (job && corpus::reads_file(f.family.name))) {
        std::ostringstream os;
        os << (known ? "family '" : "unknown family '") << f.family.name
           << (known ? "' reads a file and cannot run as a job (accepted:"
                     : "' (known:");
        for (const auto& s : fnames)
          if (!job || !corpus::reads_file(s)) os << " " << s;
        os << ")";
        fail_at(origin, fv->line, os.str());
      }
      for (const JsonValue* nn : ns) {
        CellSpec c = f;
        c.n = static_cast<NodeId>(as_uint(*nn, 1, 8192, "n", origin));
        std::vector<ExecutionBackend> be;
        if (backends.empty()) {
          be.push_back(ExecutionBackend::kPooled);
        } else {
          for (const JsonValue* bv : backends)
            be.push_back(parse_backend(*bv, job, origin));
        }
        std::vector<std::size_t> ws;
        if (workers.empty()) {
          ws.push_back(0);
        } else {
          for (const JsonValue* wv : workers)
            ws.push_back(static_cast<std::size_t>(
                as_uint(*wv, 0, 8192, "workers", origin)));
        }
        std::vector<bool> ch;
        if (chaoses.empty()) {
          ch.push_back(false);
        } else {
          for (const JsonValue* cv : chaoses)
            ch.push_back(as_bool(*cv, "chaos", origin));
        }
        for (ExecutionBackend b : be)
          for (std::size_t w : ws)
            for (bool cx : ch) {
              CellSpec cell = c;
              cell.backend = b;
              cell.workers = w;
              cell.chaos = cx;
              const std::string cid = cell.id();
              if (!seen_ids.insert(cid).second)
                fail_at(origin, group.line,
                        "duplicate expanded cell id '" + cid +
                            "' (use 'label' to disambiguate)");
              out.push_back(std::move(cell));
            }
      }
    }
  }
}

}  // namespace

Manifest parse_manifest(const std::string& text, const std::string& origin) {
  const JsonValue root = json::parse(text, origin);
  if (root.kind != JsonValue::Kind::kObject)
    fail_at(origin, root.line, "manifest must be a JSON object");
  check_keys(root, kTopLevelKeys, "manifest", origin);

  Manifest m;
  const JsonValue* name = root.find("name");
  if (name == nullptr) fail_at(origin, root.line, "missing 'name'");
  m.name = as_identifier(*name, "name", origin);
  if (const JsonValue* t = root.find("trials"))
    m.trials = static_cast<int>(as_uint(*t, 1, 100, "trials", origin));

  const JsonValue* cells = root.find("cells");
  if (cells == nullptr || cells->kind != JsonValue::Kind::kArray ||
      cells->arr.empty())
    fail_at(origin, root.line, "'cells' must be a non-empty array");

  std::set<std::string> seen_ids;
  for (const JsonValue& group : cells->arr)
    expand_cell_group(group, origin, /*job=*/false, seen_ids, m.cells);
  return m;
}

CellSpec parse_job_cell(const json::Value& job, const std::string& origin) {
  std::set<std::string> seen_ids;
  std::vector<CellSpec> cells;
  expand_cell_group(job, origin, /*job=*/true, seen_ids, cells);
  if (cells.size() != 1)
    fail_at(origin, job.line,
            "a job must describe exactly one cell (axis arrays expand to " +
                std::to_string(cells.size()) + "; sweep grids are for "
                "manifests, not ccqd jobs)");
  return cells.front();
}

Manifest load_manifest(const std::string& path) {
  return parse_manifest(read_file(path), path);
}

}  // namespace ccq::harness
