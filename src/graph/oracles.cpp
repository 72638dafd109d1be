#include "graph/oracles.hpp"

#include <algorithm>
#include <bit>
#include <queue>

namespace ccq::oracle {

namespace {

// Recursive search for an independent set of size k among candidates with
// id ≥ `from`.
bool find_is(const Graph& g, unsigned k, NodeId from,
             std::vector<NodeId>& acc) {
  if (acc.size() == k) return true;
  for (NodeId v = from; v < g.n(); ++v) {
    if (g.n() - v < k - acc.size()) return false;  // not enough left
    bool ok = true;
    for (NodeId u : acc) {
      if (g.has_edge(u, v)) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    acc.push_back(v);
    if (find_is(g, k, v + 1, acc)) return true;
    acc.pop_back();
  }
  return false;
}

bool find_clique(const Graph& g, unsigned k, NodeId from,
                 std::vector<NodeId>& acc) {
  if (acc.size() == k) return true;
  for (NodeId v = from; v < g.n(); ++v) {
    if (g.n() - v < k - acc.size()) return false;
    bool ok = true;
    for (NodeId u : acc) {
      if (!g.has_edge(u, v)) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    acc.push_back(v);
    if (find_clique(g, k, v + 1, acc)) return true;
    acc.pop_back();
  }
  return false;
}

// Branch on the first vertex not yet dominated; one of its closed
// neighbours must be in any dominating set.
bool find_ds(const Graph& g, unsigned budget, BitVector& dominated,
             std::vector<NodeId>& acc) {
  const std::size_t first = [&] {
    for (std::size_t v = 0; v < g.n(); ++v)
      if (!dominated.get(v)) return v;
    return static_cast<std::size_t>(g.n());
  }();
  if (first == g.n()) return true;  // everything dominated
  if (budget == 0) return false;

  std::vector<NodeId> candidates;
  candidates.push_back(static_cast<NodeId>(first));
  for (NodeId u : g.neighbours(static_cast<NodeId>(first)))
    candidates.push_back(u);

  for (NodeId c : candidates) {
    // Add c to the dominating set.
    std::vector<std::size_t> newly;
    if (!dominated.get(c)) {
      dominated.set(c);
      newly.push_back(c);
    }
    for (NodeId u : g.neighbours(c)) {
      if (!dominated.get(u)) {
        dominated.set(u);
        newly.push_back(u);
      }
    }
    acc.push_back(c);
    if (find_ds(g, budget - 1, dominated, acc)) return true;
    acc.pop_back();
    for (std::size_t u : newly) dominated.set(u, false);
  }
  return false;
}

// Bounded-depth vertex cover branching: pick an uncovered edge, branch on
// covering it with either endpoint.
bool find_vc(Graph g, unsigned budget, std::vector<NodeId>& acc) {
  // Find an uncovered edge.
  for (NodeId u = 0; u < g.n(); ++u) {
    const BitVector& r = g.row(u);
    const std::size_t i = r.find_first();
    if (i >= r.size()) continue;
    const NodeId v = static_cast<NodeId>(i);
    if (budget == 0) return false;
    // Branch u.
    {
      Graph gu = g;
      for (NodeId w : gu.neighbours(u)) gu.remove_edge(u, w);
      acc.push_back(u);
      if (find_vc(std::move(gu), budget - 1, acc)) return true;
      acc.pop_back();
    }
    // Branch v.
    {
      Graph gv = std::move(g);
      for (NodeId w : gv.neighbours(v)) gv.remove_edge(v, w);
      acc.push_back(v);
      if (find_vc(std::move(gv), budget - 1, acc)) return true;
      acc.pop_back();
    }
    return false;
  }
  return true;  // no edges left
}

bool colour_rec(const Graph& g, unsigned k, NodeId v,
                std::vector<NodeId>& colour) {
  if (v == g.n()) return true;
  // Symmetry breaking: first vertex may only take colour 0, and in general a
  // vertex may use at most one colour beyond those already in use.
  NodeId max_used = 0;
  for (NodeId u = 0; u < v; ++u) max_used = std::max(max_used, colour[u] + 1);
  const unsigned limit = std::min<unsigned>(k, max_used + 1);
  for (NodeId c = 0; c < limit; ++c) {
    bool ok = true;
    for (NodeId u = 0; u < v; ++u) {
      if (g.has_edge(u, v) && colour[u] == c) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    colour[v] = c;
    if (colour_rec(g, k, v + 1, colour)) return true;
  }
  return false;
}

// Extend a simple path; `remaining` = vertices still needed (including none).
bool extend_path(const Graph& g, unsigned target_len, BitVector& used,
                 std::vector<NodeId>& acc, bool close_cycle) {
  if (acc.size() == target_len) {
    return !close_cycle || g.has_edge(acc.back(), acc.front());
  }
  const NodeId last = acc.back();
  for (NodeId v : g.neighbours(last)) {
    if (used.get(v)) continue;
    used.set(v);
    acc.push_back(v);
    if (extend_path(g, target_len, used, acc, close_cycle)) return true;
    acc.pop_back();
    used.set(v, false);
  }
  return false;
}

bool subgraph_rec(const Graph& host, const Graph& pattern,
                  std::vector<NodeId>& map, BitVector& used,
                  std::size_t next) {
  if (next == pattern.n()) return true;
  for (NodeId cand = 0; cand < host.n(); ++cand) {
    if (used.get(cand)) continue;
    bool ok = true;
    for (std::size_t p = 0; p < next; ++p) {
      if (pattern.has_edge(static_cast<NodeId>(p),
                           static_cast<NodeId>(next)) &&
          !host.has_edge(map[p], cand)) {
        ok = false;
        break;
      }
      if (pattern.is_directed() &&
          pattern.has_edge(static_cast<NodeId>(next),
                           static_cast<NodeId>(p)) &&
          !host.has_edge(cand, map[p])) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    used.set(cand);
    map[next] = cand;
    if (subgraph_rec(host, pattern, map, used, next + 1)) return true;
    used.set(cand, false);
  }
  return false;
}

}  // namespace

std::optional<std::vector<NodeId>> independent_set(const Graph& g,
                                                   unsigned k) {
  if (k == 0) return std::vector<NodeId>{};
  if (k > g.n()) return std::nullopt;
  std::vector<NodeId> acc;
  if (find_is(g, k, 0, acc)) return acc;
  return std::nullopt;
}

std::vector<NodeId> max_independent_set(const Graph& g) {
  // Ascend: successful searches are cheap (greedy-ish first hits); only
  // the final failing size pays the full backtracking cost.
  std::vector<NodeId> best;
  for (unsigned k = 1; k <= g.n(); ++k) {
    auto w = independent_set(g, k);
    if (!w) break;
    best = std::move(*w);
  }
  return best;
}

std::optional<std::vector<NodeId>> dominating_set(const Graph& g,
                                                  unsigned k) {
  BitVector dominated(g.n());
  std::vector<NodeId> acc;
  if (find_ds(g, k, dominated, acc)) return acc;
  return std::nullopt;
}

std::vector<NodeId> min_dominating_set(const Graph& g) {
  for (unsigned k = 0; k <= g.n(); ++k) {
    if (auto w = dominating_set(g, k)) return *w;
  }
  return {};  // unreachable: V always dominates
}

std::optional<std::vector<NodeId>> vertex_cover(const Graph& g, unsigned k) {
  std::vector<NodeId> acc;
  if (find_vc(g, k, acc)) return acc;
  return std::nullopt;
}

std::vector<NodeId> min_vertex_cover(const Graph& g) {
  for (unsigned k = 0; k <= g.n(); ++k) {
    if (auto w = vertex_cover(g, k)) return *w;
  }
  return {};
}

std::optional<std::vector<NodeId>> k_colouring(const Graph& g, unsigned k) {
  std::vector<NodeId> colour(g.n(), 0);
  if (g.n() == 0) return colour;
  if (k == 0) return std::nullopt;
  if (colour_rec(g, k, 0, colour)) return colour;
  return std::nullopt;
}

std::optional<std::vector<NodeId>> hamiltonian_path(const Graph& g) {
  const NodeId n = g.n();
  if (n == 0) return std::vector<NodeId>{};
  CCQ_CHECK_MSG(n <= 22, "hamiltonian_path oracle limited to n <= 22");
  if (n == 1) return std::vector<NodeId>{0};
  // Held–Karp: reach[mask] bit v set iff a path visiting exactly `mask`
  // can end at v.
  const std::size_t full = std::size_t{1} << n;
  std::vector<std::uint32_t> reach(full, 0);
  for (NodeId v = 0; v < n; ++v)
    reach[std::size_t{1} << v] = std::uint32_t{1} << v;
  for (std::size_t mask = 1; mask < full; ++mask) {
    std::uint32_t ends = reach[mask];
    while (ends != 0) {
      const NodeId v = static_cast<NodeId>(std::countr_zero(ends));
      ends &= ends - 1;
      for (NodeId u : g.neighbours(v)) {
        const std::size_t bit = std::size_t{1} << u;
        if (mask & bit) continue;
        reach[mask | bit] |= std::uint32_t{1} << u;
      }
    }
  }
  const std::size_t all = full - 1;
  NodeId end = n;
  for (NodeId v = 0; v < n; ++v)
    if (reach[all] & (std::uint32_t{1} << v)) {
      end = v;
      break;
    }
  if (end == n) return std::nullopt;
  // Reconstruct backwards.
  std::vector<NodeId> order;
  std::size_t mask = all;
  NodeId cur = end;
  order.push_back(cur);
  while (order.size() < n) {
    const std::size_t prev_mask = mask & ~(std::size_t{1} << cur);
    for (NodeId u : g.neighbours(cur)) {
      const std::size_t bit = std::size_t{1} << u;
      if ((prev_mask & bit) && (reach[prev_mask] & (std::uint32_t{1} << u))) {
        mask = prev_mask;
        cur = u;
        order.push_back(cur);
        break;
      }
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

std::optional<std::vector<NodeId>> k_clique(const Graph& g, unsigned k) {
  if (k == 0) return std::vector<NodeId>{};
  if (k > g.n()) return std::nullopt;
  std::vector<NodeId> acc;
  if (find_clique(g, k, 0, acc)) return acc;
  return std::nullopt;
}

std::optional<std::vector<NodeId>> k_cycle(const Graph& g, unsigned k) {
  if (k < 3 || k > g.n()) return std::nullopt;
  for (NodeId s = 0; s < g.n(); ++s) {
    BitVector used(g.n());
    used.set(s);
    std::vector<NodeId> acc{s};
    if (extend_path(g, k, used, acc, /*close_cycle=*/true)) return acc;
  }
  return std::nullopt;
}

std::optional<std::vector<NodeId>> k_path(const Graph& g, unsigned k) {
  if (k == 0) return std::vector<NodeId>{};
  if (k > g.n()) return std::nullopt;
  for (NodeId s = 0; s < g.n(); ++s) {
    BitVector used(g.n());
    used.set(s);
    std::vector<NodeId> acc{s};
    if (k == 1 || extend_path(g, k, used, acc, /*close_cycle=*/false))
      return acc;
  }
  return std::nullopt;
}

std::optional<std::vector<NodeId>> subgraph(const Graph& host,
                                            const Graph& pattern) {
  if (pattern.n() > host.n()) return std::nullopt;
  std::vector<NodeId> map(pattern.n());
  BitVector used(host.n());
  if (subgraph_rec(host, pattern, map, used, 0)) return map;
  return std::nullopt;
}

bool is_dominating_set(const Graph& g, const std::vector<NodeId>& set) {
  BitVector dominated(g.n());
  for (NodeId v : set) {
    dominated.set(v);
    for (NodeId u : g.neighbours(v)) dominated.set(u);
  }
  return dominated.popcount() == g.n();
}

bool is_vertex_cover(const Graph& g, const std::vector<NodeId>& set) {
  BitVector in(g.n());
  for (NodeId v : set) in.set(v);
  for (const Edge& e : g.edges()) {
    if (!in.get(e.u) && !in.get(e.v)) return false;
  }
  return true;
}

bool is_independent_set(const Graph& g, const std::vector<NodeId>& set) {
  for (std::size_t a = 0; a < set.size(); ++a)
    for (std::size_t b = a + 1; b < set.size(); ++b)
      if (set[a] == set[b] || g.has_edge(set[a], set[b])) return false;
  return true;
}

bool is_proper_colouring(const Graph& g, const std::vector<NodeId>& colour,
                         unsigned k) {
  if (colour.size() != g.n()) return false;
  for (NodeId v = 0; v < g.n(); ++v)
    if (colour[v] >= k) return false;
  for (const Edge& e : g.edges())
    if (colour[e.u] == colour[e.v]) return false;
  return true;
}

bool is_hamiltonian_path(const Graph& g, const std::vector<NodeId>& order) {
  if (order.size() != g.n()) return false;
  BitVector seen(g.n());
  for (NodeId v : order) {
    if (v >= g.n() || seen.get(v)) return false;
    seen.set(v);
  }
  for (std::size_t i = 0; i + 1 < order.size(); ++i)
    if (!g.has_edge(order[i], order[i + 1])) return false;
  return true;
}

std::vector<std::uint64_t> sssp(const Graph& g, NodeId s) {
  std::vector<std::uint64_t> dist(g.n(), kInfDist);
  dist[s] = 0;
  if (!g.is_weighted()) {
    std::queue<NodeId> q;
    q.push(s);
    while (!q.empty()) {
      const NodeId v = q.front();
      q.pop();
      for (NodeId u : g.neighbours(v)) {
        if (dist[u] == kInfDist) {
          dist[u] = dist[v] + 1;
          q.push(u);
        }
      }
    }
    return dist;
  }
  using Item = std::pair<std::uint64_t, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  pq.push({0, s});
  while (!pq.empty()) {
    auto [d, v] = pq.top();
    pq.pop();
    if (d != dist[v]) continue;
    for (NodeId u : g.neighbours(v)) {
      const std::uint64_t nd = d + g.weight(v, u);
      if (nd < dist[u]) {
        dist[u] = nd;
        pq.push({nd, u});
      }
    }
  }
  return dist;
}

std::vector<std::uint64_t> apsp(const Graph& g) {
  const std::size_t n = g.n();
  std::vector<std::uint64_t> d(n * n, kInfDist);
  for (std::size_t v = 0; v < n; ++v) d[v * n + v] = 0;
  for (const Edge& e : g.edges()) {
    d[static_cast<std::size_t>(e.u) * n + e.v] =
        std::min<std::uint64_t>(d[static_cast<std::size_t>(e.u) * n + e.v],
                                e.w);
    if (!g.is_directed())
      d[static_cast<std::size_t>(e.v) * n + e.u] =
          std::min<std::uint64_t>(d[static_cast<std::size_t>(e.v) * n + e.u],
                                  e.w);
  }
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t dik = d[i * n + k];
      if (dik == kInfDist) continue;
      // Branch-free: the compare-and-store form ran 20–25% faster or slower
      // at n = 512 depending only on where the linker placed the loop.
      std::uint64_t* di = d.data() + i * n;
      const std::uint64_t* dk = d.data() + k * n;
      for (std::size_t j = 0; j < n; ++j) di[j] = std::min(di[j], dik + dk[j]);
    }
  return d;
}

namespace {

struct UnionFind {
  std::vector<NodeId> parent;
  explicit UnionFind(NodeId n) : parent(n) {
    for (NodeId v = 0; v < n; ++v) parent[v] = v;
  }
  NodeId find(NodeId v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  }
  bool unite(NodeId a, NodeId b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent[std::max(a, b)] = std::min(a, b);
    return true;
  }
};

}  // namespace

std::vector<Edge> min_spanning_forest(const Graph& g) {
  CCQ_CHECK_MSG(!g.is_directed(), "MSF is defined for undirected graphs");
  std::vector<Edge> edges = g.edges();
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.w != b.w) return a.w < b.w;
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  });
  UnionFind uf(g.n());
  std::vector<Edge> forest;
  for (const Edge& e : edges) {
    if (uf.unite(e.u, e.v)) forest.push_back(e);
  }
  std::sort(forest.begin(), forest.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  return forest;
}

std::uint64_t msf_weight(const Graph& g) {
  std::uint64_t total = 0;
  for (const Edge& e : min_spanning_forest(g)) total += e.w;
  return total;
}

bool is_connected(const Graph& g) {
  if (g.n() == 0) return true;
  auto dist = sssp(g, 0);
  for (auto d : dist)
    if (d == kInfDist) return false;
  return true;
}

}  // namespace ccq::oracle
