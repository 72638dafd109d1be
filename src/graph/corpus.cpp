#include "graph/corpus.hpp"

#include <cstdio>
#include <sstream>

#include "graph/generators.hpp"
#include "util/check.hpp"

namespace ccq::corpus {

namespace {

[[noreturn]] void fail(const std::string& origin, std::size_t line,
                       const std::string& msg) {
  std::ostringstream os;
  os << origin;
  if (line != 0) os << ":" << line;
  os << ": " << msg;
  throw ModelViolation(os.str());
}

// Strict unsigned parse: the whole token must be digits and the value must
// fit below `bound`. Loaders reject anything else — a token that silently
// truncated or wrapped would load a *different* graph, not fail.
std::uint64_t parse_uint(const std::string& tok, std::uint64_t bound,
                         const char* what, const std::string& origin,
                         std::size_t line) {
  if (tok.empty()) fail(origin, line, std::string("empty ") + what);
  std::uint64_t v = 0;
  for (char c : tok) {
    if (c < '0' || c > '9')
      fail(origin, line,
           std::string(what) + " '" + tok + "' is not a non-negative integer");
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (v > (~std::uint64_t{0} - digit) / 10)
      fail(origin, line, std::string(what) + " '" + tok + "' overflows");
    v = v * 10 + digit;
  }
  if (v >= bound) {
    std::ostringstream os;
    os << what << " " << v << " out of range (must be < " << bound << ")";
    fail(origin, line, os.str());
  }
  return v;
}

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

std::string read_file(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) fail(path, 0, "cannot open file");
  std::string data;
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) data.append(buf, got);
  std::fclose(f);
  return data;
}

void write_file(const std::string& path, const std::string& data) {
  FILE* f = std::fopen(path.c_str(), "wb");
  CCQ_CHECK_MSG(f != nullptr, "cannot open " << path << " for writing");
  const std::size_t wrote = std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  CCQ_CHECK_MSG(wrote == data.size(), "short write to " << path);
}

}  // namespace

// ---- edge-list text format ----------------------------------------------

Graph parse_edge_list(std::string_view text, const std::string& origin) {
  std::istringstream is{std::string(text)};
  std::string line;
  std::size_t lineno = 0;

  bool have_header = false, directed = false, weighted = false;
  NodeId n = 0;
  Graph g;
  while (std::getline(is, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const auto toks = split_ws(line);
    if (toks.empty() || toks[0][0] == '#') continue;

    if (!have_header) {
      if (toks[0] != "ccq-edges")
        fail(origin, lineno,
             "expected header 'ccq-edges <n> [directed] [weighted]', got '" +
                 toks[0] + "'");
      if (toks.size() < 2) fail(origin, lineno, "header is missing <n>");
      n = static_cast<NodeId>(
          parse_uint(toks[1], kMaxNodes + 1, "n", origin, lineno));
      for (std::size_t i = 2; i < toks.size(); ++i) {
        if (toks[i] == "directed") {
          directed = true;
        } else if (toks[i] == "weighted") {
          weighted = true;
        } else {
          fail(origin, lineno, "unknown header flag '" + toks[i] + "'");
        }
      }
      g = directed ? Graph::directed(n) : Graph::undirected(n);
      have_header = true;
      continue;
    }

    const std::size_t want = weighted ? 3 : 2;
    if (toks.size() != want) {
      std::ostringstream os;
      os << "expected " << want << " tokens ('u v" << (weighted ? " w" : "")
         << "'), got " << toks.size();
      fail(origin, lineno, os.str());
    }
    const NodeId u =
        static_cast<NodeId>(parse_uint(toks[0], n, "u", origin, lineno));
    const NodeId v =
        static_cast<NodeId>(parse_uint(toks[1], n, "v", origin, lineno));
    if (u == v) fail(origin, lineno, "self loop");
    if (g.has_edge(u, v))
      fail(origin, lineno,
           directed ? "duplicate arc" : "duplicate edge (either orientation)");
    if (weighted) {
      const std::uint64_t w = parse_uint(
          toks[2], std::uint64_t{1} << 32, "weight", origin, lineno);
      if (w == 0) fail(origin, lineno, "zero weight");
      g.add_edge(u, v, static_cast<std::uint32_t>(w));
    } else {
      g.add_edge(u, v);
    }
  }
  if (!have_header) fail(origin, lineno, "missing 'ccq-edges' header");
  return g;
}

Graph load_edge_list(const std::string& path) {
  return parse_edge_list(read_file(path), path);
}

void save_edge_list(const Graph& g, const std::string& path) {
  std::ostringstream os;
  os << "ccq-edges " << g.n();
  if (g.is_directed()) os << " directed";
  if (g.is_weighted()) os << " weighted";
  os << "\n";
  for (const Edge& e : g.edges()) {
    os << e.u << " " << e.v;
    if (g.is_weighted()) os << " " << e.w;
    os << "\n";
  }
  write_file(path, os.str());
}

// ---- family registry -----------------------------------------------------

const std::vector<std::string>& family_names() {
  static const std::vector<std::string> names = {
      "empty",    "complete", "cycle",     "path", "star",     "gnp",
      "gnp_weighted", "powerlaw", "community", "edgelist"};
  return names;
}

bool reads_file(const std::string& name) { return name == "edgelist"; }

Graph make_family(const FamilySpec& spec, NodeId n) {
  CCQ_CHECK_MSG(n >= 1, "family size n must be >= 1");
  if (spec.name == "empty") return gen::empty(n);
  if (spec.name == "complete") return gen::complete(n);
  if (spec.name == "cycle") return gen::cycle(n);
  if (spec.name == "path") return gen::path(n);
  if (spec.name == "star") return gen::star(n);
  if (spec.name == "gnp") {
    CCQ_CHECK_MSG(spec.p >= 0 && spec.p <= 1, "gnp requires p in [0,1]");
    return gen::gnp(n, spec.p, spec.seed);
  }
  if (spec.name == "gnp_weighted") {
    CCQ_CHECK_MSG(spec.p >= 0 && spec.p <= 1,
                  "gnp_weighted requires p in [0,1]");
    return gen::gnp_weighted(n, spec.p, spec.max_w, spec.seed);
  }
  if (spec.name == "powerlaw")
    return gen::powerlaw_chung_lu(n, spec.exponent, spec.avg_degree,
                                  spec.seed);
  if (spec.name == "community")
    return gen::planted_communities(n, spec.k, spec.p_in, spec.p_out,
                                    spec.seed)
        .graph;
  if (reads_file(spec.name)) {
    CCQ_CHECK_MSG(!spec.path.empty(),
                  "family '" << spec.name << "' requires a path");
    Graph g = load_edge_list(spec.path);
    CCQ_CHECK_MSG(g.n() == n, "file " << spec.path << " has n = " << g.n()
                                      << " but the cell asks for n = " << n);
    return g;
  }
  std::ostringstream os;
  os << "unknown graph family '" << spec.name << "' (known:";
  for (const auto& f : family_names()) os << " " << f;
  os << ")";
  throw ModelViolation(os.str());
}

}  // namespace ccq::corpus
