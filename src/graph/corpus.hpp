#pragma once

// Graph corpus: the edge-list loader and the named graph-family registry.
//
// Every bench used to run synthetic generators at a handful of sizes; the
// corpus layer makes graph *inputs* first-class so the scenario matrix
// (DESIGN.md §14, bench_matrix) can sweep {algorithm} × {graph family} ×
// {n} × {plane/backend} × {chaos} from a declarative manifest. Two halves:
//
//  * Loader — a text edge-list format with strict validation. A malformed
//    file is a ModelViolation naming the offending line, never a
//    silently-wrong graph: corpus inputs feed cost measurements, so
//    "garbage in" must be loud. save_edge_list round-trips bit-for-bit
//    (asserted in tests/graph/corpus_test.cpp).
//
//  * Family registry — make_family() maps a FamilySpec (family name +
//    parameters, as written in a manifest cell) onto the generators in
//    graph/generators.hpp (including the Chung–Lu power-law and
//    planted-community families) or onto the loader. Every family is a pure
//    function of (spec, n): same spec, same graph, on any machine.
//
// The format grammar is specified normatively in DESIGN.md §14.

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

/// Largest n the loader accepts (far above the engine's own cap; guards
/// integer overflow in size computations, not model fidelity).
constexpr std::uint64_t kMaxNodes = 1u << 20;

Graph load_edge_list(const std::string& path);
/// Parse from memory; `origin` names the source in error messages.
Graph parse_edge_list(std::string_view text, const std::string& origin);
/// Write `g` in the grammar above (edges in increasing (u,v) order).
void save_edge_list(const Graph& g, const std::string& path);

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
  std::string path;              ///< edgelist file to load

  bool operator==(const FamilySpec&) const = default;
};

/// Registered family names: empty, complete, cycle, path, star, gnp,
/// gnp_weighted, powerlaw, community, edgelist.
const std::vector<std::string>& family_names();

/// True for the family make_family loads from spec.path: edgelist.
bool reads_file(const std::string& name);

/// Instantiate `spec` at size n. The file-backed family (edgelist) loads
/// spec.path and requires the file's n to equal the requested n — the
/// manifest's n axis is part of every cell's identity, so a silent mismatch
/// would mislabel measurements. Unknown names and invalid parameters are
/// ModelViolations.
Graph make_family(const FamilySpec& spec, NodeId n);

}  // namespace ccq::corpus
