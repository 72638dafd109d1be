#pragma once

// Graph corpus: loaders and the named graph-family registry.
//
// Every bench used to run synthetic generators at a handful of sizes; the
// corpus layer makes graph *inputs* first-class so the scenario matrix
// (DESIGN.md §14, bench_matrix) can sweep {algorithm} × {graph family} ×
// {n} × {plane/backend} × {chaos} from a declarative manifest. Two halves:
//
//  * Loaders — a text edge-list format and a binary CSR format, both with
//    strict validation. A malformed file is a ModelViolation naming the
//    offending line/offset, never a silently-wrong graph: corpus inputs
//    feed cost measurements, so "garbage in" must be loud. save_* writers
//    round-trip bit-for-bit (asserted in tests/graph/corpus_test.cpp).
//
//  * Family registry — make_family() maps a FamilySpec (family name +
//    parameters, as written in a manifest cell) onto the generators in
//    graph/generators.hpp (including the Chung–Lu power-law and
//    planted-community families) or onto a loader. Every family is a pure
//    function of (spec, n): same spec, same graph, on any machine.
//
// Format grammars are specified normatively in DESIGN.md §14.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"

namespace ccq::corpus {

// ---- edge-list text format ----------------------------------------------
//
//   # comment / blank lines anywhere
//   ccq-edges <n> [directed] [weighted]     header, first payload line
//   <u> <v> [<w>]                           one edge per line, 0-based ids
//
// Rejected (ModelViolation): missing/malformed header, u or v >= n,
// self loops, duplicate edges (either orientation when undirected),
// weight present iff the header says weighted, zero or > 2^32-1 weights,
// trailing tokens, n > kMaxNodes.

/// Largest n any loader accepts (far above the engine's own cap; guards
/// integer overflow in size computations, not model fidelity).
constexpr std::uint64_t kMaxNodes = 1u << 20;

Graph load_edge_list(const std::string& path);
/// Parse from memory; `origin` names the source in error messages.
Graph parse_edge_list(std::string_view text, const std::string& origin);
/// Write `g` in the grammar above (edges in increasing (u,v) order).
void save_edge_list(const Graph& g, const std::string& path);

// ---- CSR binary format ---------------------------------------------------
//
//   offset  size        field
//   0       8           magic "CCQCSR01"
//   8       4           u32 n
//   12      4           u32 flags (bit 0 directed, bit 1 weighted)
//   16      8           u64 nnz (stored arcs; an undirected edge appears
//                       in both endpoint rows)
//   24      8·(n+1)     u64 row_ptr, row_ptr[0] = 0, nondecreasing,
//                       row_ptr[n] = nnz
//   ...     4·nnz       u32 col (strictly increasing within a row)
//   [...    4·nnz       u32 w, iff weighted; all weights >= 1]
//
// Little-endian throughout. Rejected (ModelViolation): short/oversized
// file, bad magic, non-monotone row_ptr, col >= n, self loops, unsorted or
// duplicate columns, zero weights, and asymmetric adjacency or weights
// when the directed flag is clear.

Graph load_csr(const std::string& path);
void save_csr(const Graph& g, const std::string& path);

// ---- family registry -----------------------------------------------------

/// One graph family plus its parameters, as named by a manifest cell
/// (harness/manifest.hpp). Fields irrelevant to a family are ignored;
/// make_family validates the relevant ones.
struct FamilySpec {
  std::string name;        ///< registry key, see family_names()
  std::uint64_t seed = 1;  ///< random families; pure function of (spec, n)
  double p = 0.1;          ///< gnp / gnp_weighted edge probability
  std::uint32_t max_w = 8;       ///< gnp_weighted weight range [1, max_w]
  double exponent = 2.5;         ///< powerlaw tail exponent
  double avg_degree = 8.0;       ///< powerlaw mean degree
  unsigned k = 4;                ///< community count
  double p_in = 0.5;             ///< community in-block density
  double p_out = 0.05;           ///< community cross-block density
  std::string path;              ///< edgelist / csr file to load

  bool operator==(const FamilySpec&) const = default;
};

/// Registered family names: empty, complete, cycle, path, star, gnp,
/// gnp_weighted, powerlaw, community, edgelist, csr.
const std::vector<std::string>& family_names();

/// True for the families make_family loads from spec.path: edgelist, csr.
bool reads_file(const std::string& name);

/// Instantiate `spec` at size n. File-backed families (edgelist, csr) load
/// spec.path and require the file's n to equal the requested n — the
/// manifest's n axis is part of every cell's identity, so a silent mismatch
/// would mislabel measurements. Unknown names and invalid parameters are
/// ModelViolations.
Graph make_family(const FamilySpec& spec, NodeId n);

}  // namespace ccq::corpus
