#include "graph/corpus.hpp"

#include <cstdio>
#include <cstring>
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

// Little-endian fixed-width readers/writers for the CSR codec.
template <typename T>
void append_le(std::string* out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    out->push_back(static_cast<char>((static_cast<std::uint64_t>(v) >>
                                      (8 * i)) & 0xff));
}

template <typename T>
T read_le(const std::string& data, std::size_t offset) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(data[offset + i]))
         << (8 * i);
  return static_cast<T>(v);
}

constexpr char kCsrMagic[8] = {'C', 'C', 'Q', 'C', 'S', 'R', '0', '1'};
constexpr std::uint32_t kFlagDirected = 1u << 0;
constexpr std::uint32_t kFlagWeighted = 1u << 1;

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

// ---- CSR binary format ---------------------------------------------------

Graph load_csr(const std::string& path) {
  const std::string data = read_file(path);
  if (data.size() < 24) fail(path, 0, "file too short for a CSR header");
  if (std::memcmp(data.data(), kCsrMagic, 8) != 0)
    fail(path, 0, "bad magic (not a CCQCSR01 file)");
  const auto n64 = static_cast<std::uint64_t>(read_le<std::uint32_t>(data, 8));
  if (n64 > kMaxNodes) fail(path, 0, "n out of range");
  const NodeId n = static_cast<NodeId>(n64);
  const std::uint32_t flags = read_le<std::uint32_t>(data, 12);
  if ((flags & ~(kFlagDirected | kFlagWeighted)) != 0)
    fail(path, 0, "unknown flag bits set");
  const bool directed = (flags & kFlagDirected) != 0;
  const bool weighted = (flags & kFlagWeighted) != 0;
  const std::uint64_t nnz = read_le<std::uint64_t>(data, 16);
  if (nnz > n64 * n64) fail(path, 0, "nnz exceeds n^2");

  const std::uint64_t expect = 24 + 8 * (n64 + 1) + 4 * nnz * (weighted ? 2 : 1);
  if (data.size() != expect) {
    std::ostringstream os;
    os << "file size " << data.size() << " does not match header (expected "
       << expect << " bytes)";
    fail(path, 0, os.str());
  }

  const std::size_t row_ptr_off = 24;
  const std::size_t col_off = row_ptr_off + 8 * (n + 1);
  const std::size_t w_off = col_off + 4 * nnz;

  std::uint64_t prev = read_le<std::uint64_t>(data, row_ptr_off);
  if (prev != 0) fail(path, 0, "row_ptr[0] != 0");
  Graph g = directed ? Graph::directed(n) : Graph::undirected(n);
  for (NodeId r = 0; r < n; ++r) {
    const std::uint64_t end =
        read_le<std::uint64_t>(data, row_ptr_off + 8 * (r + 1));
    if (end < prev) {
      std::ostringstream os;
      os << "row_ptr not nondecreasing at row " << r;
      fail(path, 0, os.str());
    }
    if (end > nnz) fail(path, 0, "row_ptr exceeds nnz");
    std::uint64_t prev_col = 0;
    bool first = true;
    for (std::uint64_t i = prev; i < end; ++i) {
      const std::uint32_t c = read_le<std::uint32_t>(data, col_off + 4 * i);
      if (c >= n) {
        std::ostringstream os;
        os << "column " << c << " out of range in row " << r;
        fail(path, 0, os.str());
      }
      if (c == r) {
        std::ostringstream os;
        os << "self loop in row " << r;
        fail(path, 0, os.str());
      }
      if (!first && c <= prev_col) {
        std::ostringstream os;
        os << "columns not strictly increasing in row " << r;
        fail(path, 0, os.str());
      }
      first = false;
      prev_col = c;
      // Undirected files carry each edge in both rows; materialise it once
      // (the symmetry of the file itself is validated below).
      if (directed || r < c) {
        if (weighted) {
          const std::uint32_t w = read_le<std::uint32_t>(data, w_off + 4 * i);
          if (w == 0) {
            std::ostringstream os;
            os << "zero weight on arc (" << r << "," << c << ")";
            fail(path, 0, os.str());
          }
          g.add_edge(r, static_cast<NodeId>(c), w);
        } else {
          g.add_edge(r, static_cast<NodeId>(c));
        }
      }
    }
    prev = end;
  }
  if (prev != nnz) fail(path, 0, "row_ptr[n] != nnz");

  if (!directed) {
    // Re-scan and require every (r, c) arc's mirror — and, when weighted,
    // the same weight on both orientations. The lookup must run over the
    // file's own arc data: the Graph built above is symmetric by
    // construction, so asking it would mask a one-sided file.
    auto find_arc = [&](NodeId a, NodeId b) -> std::int64_t {
      std::uint64_t lo = read_le<std::uint64_t>(data, row_ptr_off + 8 * a);
      std::uint64_t hi =
          read_le<std::uint64_t>(data, row_ptr_off + 8 * (a + 1));
      while (lo < hi) {  // columns are strictly increasing (validated above)
        const std::uint64_t mid = lo + (hi - lo) / 2;
        const std::uint32_t c = read_le<std::uint32_t>(data, col_off + 4 * mid);
        if (c == b) return static_cast<std::int64_t>(mid);
        if (c < b) lo = mid + 1; else hi = mid;
      }
      return -1;
    };
    for (NodeId r = 0; r < n; ++r) {
      const std::uint64_t begin =
          read_le<std::uint64_t>(data, row_ptr_off + 8 * r);
      const std::uint64_t end =
          read_le<std::uint64_t>(data, row_ptr_off + 8 * (r + 1));
      for (std::uint64_t i = begin; i < end; ++i) {
        const auto c = static_cast<NodeId>(
            read_le<std::uint32_t>(data, col_off + 4 * i));
        const std::int64_t mirror = find_arc(c, r);
        if (mirror < 0) {
          std::ostringstream os;
          os << "undirected file is asymmetric: arc (" << r << "," << c
             << ") has no mirror";
          fail(path, 0, os.str());
        }
        if (weighted) {
          const std::uint32_t w = read_le<std::uint32_t>(data, w_off + 4 * i);
          const std::uint32_t wm = read_le<std::uint32_t>(
              data, w_off + 4 * static_cast<std::uint64_t>(mirror));
          if (w != wm) {
            std::ostringstream os;
            os << "undirected file has asymmetric weights on edge {" << r
               << "," << c << "}";
            fail(path, 0, os.str());
          }
        }
      }
    }
  }
  return g;
}

void save_csr(const Graph& g, const std::string& path) {
  const NodeId n = g.n();
  std::string out;
  out.append(kCsrMagic, 8);
  append_le<std::uint32_t>(&out, n);
  std::uint32_t flags = 0;
  if (g.is_directed()) flags |= kFlagDirected;
  if (g.is_weighted()) flags |= kFlagWeighted;
  append_le<std::uint32_t>(&out, flags);

  std::uint64_t nnz = 0;
  for (NodeId v = 0; v < n; ++v) nnz += g.row(v).popcount();
  append_le<std::uint64_t>(&out, nnz);

  std::uint64_t acc = 0;
  append_le<std::uint64_t>(&out, acc);
  for (NodeId v = 0; v < n; ++v) {
    acc += g.row(v).popcount();
    append_le<std::uint64_t>(&out, acc);
  }
  for (NodeId v = 0; v < n; ++v)
    for (NodeId c : g.neighbours(v)) append_le<std::uint32_t>(&out, c);
  if (g.is_weighted())
    for (NodeId v = 0; v < n; ++v)
      for (NodeId c : g.neighbours(v))
        append_le<std::uint32_t>(&out, g.weight(v, c));
  write_file(path, out);
}

// ---- family registry -----------------------------------------------------

const std::vector<std::string>& family_names() {
  static const std::vector<std::string> names = {
      "empty",    "complete", "cycle",     "path", "star",     "gnp",
      "gnp_weighted", "powerlaw", "community", "edgelist", "csr"};
  return names;
}

bool reads_file(const std::string& name) {
  return name == "edgelist" || name == "csr";
}

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
    Graph g = spec.name == "csr" ? load_csr(spec.path)
                                 : load_edge_list(spec.path);
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
