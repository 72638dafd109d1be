#include "graph/corpus.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "harness/manifest.hpp"
#include "harness/sweep.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace ccq {
namespace {

std::string tmp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

// ---- edge-list loader ----------------------------------------------------

TEST(Corpus, EdgeListRoundTrip) {
  Graph g = gen::gnp(32, 0.3, 5);
  const std::string path = tmp_path("rt_plain.edges");
  corpus::save_edge_list(g, path);
  EXPECT_TRUE(corpus::load_edge_list(path) == g);
}

TEST(Corpus, EdgeListRoundTripWeighted) {
  Graph g = gen::gnp_weighted(24, 0.4, 100, 9);
  const std::string path = tmp_path("rt_weighted.edges");
  corpus::save_edge_list(g, path);
  Graph back = corpus::load_edge_list(path);
  EXPECT_TRUE(back.is_weighted());
  EXPECT_TRUE(back == g);
}

TEST(Corpus, EdgeListRoundTripDirected) {
  Graph g = gen::gnp_directed(20, 0.3, 11);
  const std::string path = tmp_path("rt_directed.edges");
  corpus::save_edge_list(g, path);
  Graph back = corpus::load_edge_list(path);
  EXPECT_TRUE(back.is_directed());
  EXPECT_TRUE(back == g);
}

TEST(Corpus, EdgeListCommentsAndBlanksIgnored) {
  Graph g = corpus::parse_edge_list(
      "# corpus sample\n"
      "\n"
      "ccq-edges 4\n"
      "0 1\n"
      "  # indented comment\n"
      "2 3\n",
      "inline");
  EXPECT_EQ(g.n(), 4u);
  EXPECT_EQ(g.m(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(3, 2));
}

TEST(Corpus, EdgeListRejectionTable) {
  // Every malformed input is a ModelViolation, never a silently-wrong graph.
  const char* kBad[] = {
      "0 1\n",                             // missing header
      "ccq-graph 4\n0 1\n",                // wrong magic word
      "ccq-edges\n",                       // n missing
      "ccq-edges four\n",                  // n not a number
      "ccq-edges 4 sparse\n0 1\n",         // unknown header flag
      "ccq-edges 2097152\n",               // n > kMaxNodes
      "ccq-edges 4\n0 4\n",                // endpoint out of range
      "ccq-edges 4\n4 0\n",                // endpoint out of range
      "ccq-edges 4\n2 2\n",                // self loop
      "ccq-edges 4\n0 1\n0 1\n",           // duplicate edge
      "ccq-edges 4\n0 1\n1 0\n",           // duplicate, reversed orientation
      "ccq-edges 4 weighted\n0 1\n",       // weight missing
      "ccq-edges 4\n0 1 7\n",              // weight on unweighted graph
      "ccq-edges 4 weighted\n0 1 0\n",     // zero weight
      "ccq-edges 4 weighted\n0 1 4294967296\n",  // weight overflows u32
      "ccq-edges 4\n0 1 2 3\n",            // trailing tokens
      "ccq-edges 4\n0 -1\n",               // not an unsigned integer
  };
  for (const char* text : kBad) {
    EXPECT_THROW(corpus::parse_edge_list(text, "table"), ModelViolation)
        << "accepted malformed input:\n" << text;
  }
}

// ---- generators & family registry ----------------------------------------

TEST(Corpus, NewGeneratorsDeterministicPerSeed) {
  Graph a = gen::powerlaw_chung_lu(64, 2.5, 8.0, 7);
  EXPECT_TRUE(a == gen::powerlaw_chung_lu(64, 2.5, 8.0, 7));
  EXPECT_FALSE(a == gen::powerlaw_chung_lu(64, 2.5, 8.0, 8));
  gen::Planted c = gen::planted_communities(64, 4, 0.5, 0.05, 7);
  EXPECT_TRUE(c.graph == gen::planted_communities(64, 4, 0.5, 0.05, 7).graph);
  EXPECT_FALSE(c.graph == gen::planted_communities(64, 4, 0.5, 0.05, 9).graph);
}

TEST(Corpus, PowerlawDensityRoughlyRight) {
  Graph g = gen::powerlaw_chung_lu(256, 2.5, 8.0, 3);
  const double expected = 8.0 * 256 / 2;  // avg_degree * n / 2 edges
  EXPECT_GT(static_cast<double>(g.m()), expected * 0.5);
  EXPECT_LT(static_cast<double>(g.m()), expected * 1.5);
}

TEST(Corpus, FamilyRegistryDeterministic) {
  // Every non-file family is a pure function of (spec, n).
  for (const std::string& name : corpus::family_names()) {
    if (name == "edgelist") continue;
    corpus::FamilySpec spec;
    spec.name = name;
    spec.seed = 5;
    Graph a = corpus::make_family(spec, 48);
    Graph b = corpus::make_family(spec, 48);
    EXPECT_TRUE(a == b) << "family '" << name << "' not deterministic";
    EXPECT_EQ(a.n(), 48u);
  }
  corpus::FamilySpec unknown;
  unknown.name = "mystery";
  EXPECT_THROW(corpus::make_family(unknown, 16), ModelViolation);
}

TEST(Corpus, FileFamiliesRequireMatchingN) {
  Graph g = gen::gnp(16, 0.4, 2);
  const std::string path = tmp_path("family_n.edges");
  corpus::save_edge_list(g, path);
  corpus::FamilySpec spec;
  spec.name = "edgelist";
  spec.path = path;
  EXPECT_TRUE(corpus::make_family(spec, 16) == g);
  EXPECT_THROW(corpus::make_family(spec, 8), ModelViolation);
}

// ---- manifest parsing & expansion ----------------------------------------

TEST(Corpus, ManifestAxisExpansion) {
  harness::Manifest m = harness::parse_manifest(R"json({
    "name": "grid",
    "trials": 3,
    "cells": [{
      "algorithm": ["routing_direct", "routing_balanced"],
      "family": "gnp", "p": 0.2,
      "n": [16, 32],
      "backend": ["pooled", "threaded"],
      "workers": [0, 3],
      "chaos": [false, true]
    }]
  })json", "inline");
  EXPECT_EQ(m.trials, 3);
  // 2 algos x 2 n x 2 backends x 2 workers x 2 chaos
  EXPECT_EQ(m.cells.size(), 32u);
  std::vector<std::string> ids;
  for (const auto& c : m.cells) ids.push_back(c.id());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(),
                      "routing_direct/gnp/n=32/threaded/chaos=on/w=3"),
            ids.end());
}

TEST(Corpus, ManifestRejectionTable) {
  // Each malformed manifest, and a fragment its error message must carry.
  const std::pair<std::string, const char*> kBad[] = {
      {R"({"name": "x"})", "'cells' must be a non-empty array"},
      {R"({"name": "x", "cells": [], "bogus": 1})",
       "unknown manifest key 'bogus'"},
      {R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "gnp", "n": 16, "frobnicate": 2}]})",
       "unknown cell key 'frobnicate'"},
      {R"({"name": "x", "cells": [{"algorithm": "nope",
          "family": "gnp", "n": 16}]})",
       "unknown algorithm 'nope'"},
      {R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "nope", "n": 16}]})",
       "unknown family 'nope'"},
      // The binary CSR format is gone: its family name is unknown.
      {R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "csr", "n": 16, "path": "g.csr"}]})",
       "unknown family 'csr' (known: empty complete cycle path star gnp "
       "gnp_weighted powerlaw community edgelist)"},
      {R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "gnp", "n": 16, "backend": "warped"}]})",
       "unknown backend 'warped'"},
      // The two fiber backends are one: the old name is unknown.
      {R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "gnp", "n": 16, "backend": "sharded"}]})",
       "unknown backend 'sharded' (accepted: pooled, threaded)"},
      // The message plane is no longer an axis: the old key is unknown.
      {R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "gnp", "n": 16, "plane": "flat"}]})",
       "unknown cell key 'plane'"},
      {R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "gnp", "n": 0}]})",
       "n 0 out of range"},
      {R"({"name": "x", "trials": 0, "cells": [{"algorithm":
          "routing_direct", "family": "gnp", "n": 16}]})",
       "trials 0 out of range"},
      {R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "gnp", "n": 16, "p": 1.5}]})",
       "p must be in [0, 1]"},
      {R"({"name": "x", "cells": [
          {"algorithm": "routing_direct", "family": "gnp", "n": 16},
          {"algorithm": "routing_direct", "family": "gnp", "n": 16}]})",
       "duplicate expanded cell id"},
      {R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "gnp", "n": 16,)",
       "unexpected end of input"},
      // Numbers past 2^64 are range errors, printed as written.
      {R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "gnp", "n": 16, "seed": 1e20}]})",
       "seed 1e20 out of range"},
      {R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "gnp", "n": 1e30}]})",
       "n 1e30 out of range [1, 8192]"},
      // Digit strings are read exactly, so 2^64 is a range error; a u64
      // written any other way must be below 2^53 to be exact.
      {R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "gnp", "n": 16, "seed": 18446744073709551616}]})",
       "table:2: seed 18446744073709551616 out of range [0, "
       "18446744073709551615]"},
      {R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "gnp", "n": 16, "seed": 1e19}]})",
       "table:2: seed 1e19 is not exact as a double; write it as a plain "
       "integer"},
      // Names and labels reach BENCH rows unescaped.
      {R"({"name": "x", "cells": [{"label": "a\"b",
          "algorithm": "routing_direct", "family": "gnp", "n": 16}]})",
       "table:1: label 'a\"b' has a character outside A-Z a-z 0-9 _ - . ="},
      {R"({"name": "nightly run/2", "cells": [{
          "algorithm": "routing_direct", "family": "gnp", "n": 16}]})",
       "table:1: name 'nightly run/2' has a character outside"},
      // An empty axis array would expand to no cells (or to the default).
      {R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "gnp", "n": []}]})",
       "table:2: axis 'n' is an empty array"},
      {R"({"name": "x", "cells": [{"algorithm": [],
          "family": "gnp", "n": 16}]})",
       "table:1: axis 'algorithm' is an empty array"},
      {R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "gnp", "n": 16, "backend": []}]})",
       "table:2: axis 'backend' is an empty array"},
      {R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "gnp", "n": 16, "workers": []}]})",
       "table:2: axis 'workers' is an empty array"},
      {R"({"name": "x", "cells": [{"algorithm": "routing_direct",
          "family": "gnp", "n": 16, "workers": [1, 9000]}]})",
       "workers 9000 out of range [0, 8192]"},
      // Nesting far past any real manifest must not recurse off the stack.
      {std::string(30000, '[') + std::string(30000, ']'),
       "nesting deeper than 64 levels"},
  };
  for (const auto& [text, needle] : kBad) {
    try {
      harness::parse_manifest(text, "table");
      ADD_FAILURE() << "accepted malformed manifest:\n" << text;
    } catch (const ModelViolation& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "error '" << e.what() << "' lacks '" << needle << "'";
    }
  }
}

TEST(Corpus, SeedsPastTwoToThe53AreExact) {
  // A double holds every integer only up to 2^53; u64 seeds past it must
  // come back as written, from a manifest cell and from a ccqd job body.
  for (const std::uint64_t seed :
       {std::uint64_t{9007199254740993u}, ~std::uint64_t{0}}) {
    const std::string cell =
        R"("algorithm": "routing_direct", "family": "gnp", "n": 16, )"
        R"("seed": )" + std::to_string(seed);
    const harness::Manifest m = harness::parse_manifest(
        R"({"name": "x", "cells": [{)" + cell + "}]}", "inline");
    ASSERT_EQ(m.cells.size(), 1u);
    EXPECT_EQ(m.cells[0].seed, seed);
    EXPECT_EQ(m.cells[0].family.seed, seed);
    const harness::CellSpec job =
        harness::parse_job_cell(json::parse("{" + cell + "}", "job"), "job");
    EXPECT_EQ(job.seed, seed);
    EXPECT_EQ(job.family.seed, seed);
  }
}

// ---- sweep registry and bench-level checks -------------------------------

TEST(Sweep, JobAlgorithmsUnchanged) {
  // perfbench's ccqd-mix enumerates this list; a load added to it would
  // change that workload.
  const std::vector<std::string> kJobAlgorithms = {
      "routing_direct", "routing_balanced", "broadcast_adj", "mm_bool_3d",
      "triangle_mm"};
  EXPECT_EQ(harness::algorithm_names(), kJobAlgorithms);
}

TEST(Sweep, LoadsAreManifestCellsNotJobs) {
  const harness::Manifest m = harness::parse_manifest(R"json({
    "name": "loads", "cells": [{
      "algorithm": ["exchange_skewed", "routing_uniform", "ring_rounds"],
      "family": "empty", "n": 16}]})json", "inline");
  EXPECT_EQ(m.cells.size(), 3u);
  for (const std::string& load : harness::manifest_only_names()) {
    json::Value job = json::parse(
        "{\"algorithm\": \"" + load + "\", \"family\": \"empty\", \"n\": 16}",
        "job");
    try {
      harness::parse_job_cell(job, "job");
      ADD_FAILURE() << "a job ran the bench load " << load;
    } catch (const ModelViolation& e) {
      EXPECT_NE(std::string(e.what()).find("cannot run as a job"),
                std::string::npos)
          << e.what();
    }
  }
  // A manifest's unknown-algorithm error lists both tables.
  try {
    harness::parse_manifest(R"({"name": "x", "cells": [{"algorithm":
        "nope", "family": "empty", "n": 16}]})", "inline");
    ADD_FAILURE() << "accepted an unknown algorithm";
  } catch (const ModelViolation& e) {
    EXPECT_NE(std::string(e.what()).find("triangle_mm"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("ring_rounds"), std::string::npos);
  }
}

harness::CellResult fake_result(harness::CellSpec spec) {
  harness::CellResult r;
  r.spec = std::move(spec);
  r.ok = true;
  r.cost.rounds = 4;
  r.cost.messages = 40;
  r.cost.bits = 400;
  r.cost.collectives = 2;
  r.output_fp = 0x1234;
  return r;
}

TEST(Sweep, EquivalenceCheckNamesBothCellsOfAPair) {
  harness::CellSpec spec;
  spec.algorithm = "routing_uniform";
  spec.family.name = "empty";
  spec.n = 1024;
  const harness::CellResult w0 = fake_result(spec);
  spec.workers = 3;
  harness::CellResult w3 = fake_result(spec);
  EXPECT_TRUE(harness::check_equivalence({w0, w3}).empty());

  w3.output_fp ^= 1;
  auto diags = harness::check_equivalence({w0, w3});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].find(w0.spec.id()), std::string::npos) << diags[0];
  EXPECT_NE(diags[0].find(w3.spec.id()), std::string::npos) << diags[0];
  EXPECT_NE(diags[0].find("output_fp"), std::string::npos) << diags[0];

  w3.output_fp = w0.output_fp;
  w3.cost.max_node_received += 1;
  diags = harness::check_equivalence({w0, w3});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].find("meters"), std::string::npos) << diags[0];

  // The determinism contract names trace ledgers too.
  w3.cost = w0.cost;
  w3.ledger_fp = w0.ledger_fp ^ 1;
  diags = harness::check_equivalence({w0, w3});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].find(w3.spec.id()), std::string::npos) << diags[0];
  EXPECT_NE(diags[0].find("ledger_fp"), std::string::npos) << diags[0];
}

TEST(Sweep, EquivalenceCheckGroupsOnlyBackendAndWorkers) {
  harness::CellSpec spec;
  spec.algorithm = "mm_bool_3d";
  spec.family.name = "gnp";
  spec.family.p = 0.25;
  spec.n = 64;
  const harness::CellResult a = fake_result(spec);
  // Same backend, different p: two scenarios, never compared.
  spec.family.p = 0.1;
  harness::CellResult b = fake_result(spec);
  b.output_fp ^= 1;
  EXPECT_TRUE(harness::check_equivalence({a, b}).empty());
  // Different workers *and* seed: still two scenarios.
  spec.family.p = 0.25;
  spec.workers = 3;
  spec.seed = 7;
  harness::CellResult c = fake_result(spec);
  c.output_fp ^= 1;
  EXPECT_TRUE(harness::check_equivalence({a, c}).empty());
}

TEST(Sweep, EquivalenceCheckHoldsSchedulesOfOneProductToOneOutput) {
  harness::CellSpec spec;
  spec.label = "p=0.01";
  spec.algorithm = "mm_bool_naive";
  spec.family.name = "gnp";
  spec.family.p = 0.01;
  spec.n = 256;
  harness::CellResult naive = fake_result(spec);
  spec.algorithm = "mm_bool_sparse";
  harness::CellResult sparse = fake_result(spec);
  // Schedules of one product differ in meters, never in the answer.
  sparse.cost.rounds = 12;
  sparse.cost.bits = 123;
  EXPECT_TRUE(harness::check_equivalence({naive, sparse}).empty());

  sparse.output_fp ^= 1;
  auto diags = harness::check_equivalence({naive, sparse});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].find(naive.spec.id()), std::string::npos) << diags[0];
  EXPECT_NE(diags[0].find(sparse.spec.id()), std::string::npos) << diags[0];
  EXPECT_NE(diags[0].find("output_fp"), std::string::npos) << diags[0];
  EXPECT_NE(diags[0].find("different schedules"), std::string::npos)
      << diags[0];
  // On another team the pair is still one product.
  sparse.spec.workers = 2;
  EXPECT_EQ(harness::check_equivalence({naive, sparse}).size(), 1u);

  // Under chaos a schedule's faults change its answer: not compared.
  harness::CellResult naive_chaos = naive, sparse_chaos = sparse;
  naive_chaos.spec.chaos = sparse_chaos.spec.chaos = true;
  EXPECT_TRUE(harness::check_equivalence({naive_chaos, sparse_chaos}).empty());
  // Another density, another product, or a program no other one
  // computes: never compared.
  harness::CellResult other = sparse;
  other.spec.family.p = 0.1;
  EXPECT_TRUE(harness::check_equivalence({naive, other}).empty());
  other = sparse;
  other.spec.algorithm = "mm_minplus_sparse";
  EXPECT_TRUE(harness::check_equivalence({naive, other}).empty());
  other.spec.algorithm = "triangle_mm";
  EXPECT_TRUE(harness::check_equivalence({naive, other}).empty());
}

TEST(Sweep, TraceOverheadGate) {
  harness::CellResult r;
  r.untraced_ms = 2.0;
  r.wall_ms = 3.1;  // > 1.5 x 2 ms
  EXPECT_NE(harness::check_trace_overhead(r), "");
  r.wall_ms = 2.9;
  EXPECT_EQ(harness::check_trace_overhead(r), "");
  // Under the 2 ms floor the gate stays quiet whatever the ratio.
  r.untraced_ms = 1.9;
  r.wall_ms = 10.0;
  EXPECT_EQ(harness::check_trace_overhead(r), "");
}

// ---- end-to-end: cells through the engine with ledger cross-check --------

TEST(Corpus, TwoCellManifestEndToEnd) {
  // run_cell() itself asserts meter == trace-ledger totals and inter-trial
  // agreement; ok == true certifies the cross-check passed for the cell.
  harness::Manifest m = harness::parse_manifest(R"json({
    "name": "e2e",
    "trials": 2,
    "cells": [
      {"algorithm": "routing_balanced", "family": "gnp", "p": 0.3, "n": 32,
       "backend": "pooled", "chaos": false},
      {"algorithm": "routing_direct", "family": "powerlaw", "n": 32,
       "backend": "pooled", "chaos": true, "chaos_dup": 0.01}
    ]
  })json", "inline");
  ASSERT_EQ(m.cells.size(), 2u);
  for (const harness::CellSpec& spec : m.cells) {
    harness::CellResult r = harness::run_cell(spec, m.trials);
    EXPECT_TRUE(r.ok) << spec.id() << ": " << r.fail_reason;
    EXPECT_GT(r.cost.rounds, 0u) << spec.id();
    EXPECT_GT(r.cost.bits, 0u) << spec.id();
    if (spec.chaos) {
      EXPECT_GT(r.faults, 0u) << spec.id();
    } else {
      EXPECT_EQ(r.faults, 0u) << spec.id();
    }
  }
}

TEST(Corpus, CellDeterministicAcrossWorkerCounts) {
  harness::CellSpec spec;
  spec.algorithm = "mm_bool_3d";
  spec.family.name = "gnp";
  spec.family.p = 0.2;
  spec.n = 27;  // perfect cube: exercises the 3D grid path
  spec.family.seed = spec.seed = 3;
  EXPECT_EQ(harness::check_worker_determinism(spec), "");
}

}  // namespace
}  // namespace ccq
