// THM7 — the unlimited constant-round hierarchy collapses: EVERY decision
// problem is in Σ₂ via guess-the-graph + universal spot-check. This bench
// (a) runs the universal Σ₂ algorithm for several unrelated languages on
// tiny instances, exhaustively quantifying the universal probe, and
// (b) tabulates the existential label size n(n-1)/2 against the
// logarithmic hierarchy's O(n·log n) budget — the quantitative gap that
// lets Theorem 8 still separate the logarithmic version.

#include <cstdio>

#include "graph/generators.hpp"
#include "graph/oracles.hpp"
#include "hierarchy/alternation.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

#include "bench_json.hpp"

using namespace ccq;

int main(int argc, char** argv) {
  ccq::benchjson::TraceSession ccq_trace_session(&argc, argv);
  ccq::benchjson::ShapeChecks check;
  std::printf("THM7: all problems are in Sigma_2 (unlimited labels)\n\n");

  struct Lang {
    const char* name;
    std::function<bool(const Graph&)> f;
  };
  std::vector<Lang> langs = {
      {"has-triangle",
       [](const Graph& g) { return oracle::k_clique(g, 3).has_value(); }},
      {"connected",
       [](const Graph& g) { return oracle::is_connected(g); }},
      {"even-edge-count", [](const Graph& g) { return g.m() % 2 == 0; }},
      {"has-isolated-node",
       [](const Graph& g) {
         for (NodeId v = 0; v < g.n(); ++v)
           if (g.degree(v) == 0) return true;
         return false;
       }},
  };

  std::printf(
      "(a) Universal Sigma_2 on all 64 graphs with n = 4 (honest guess,\n"
      "    all universal probes enumerated):\n");
  Table t({"language", "instances", "correct", "dishonest guess caught"});
  for (auto& lang : langs) {
    auto algo = sigma2_universal(lang.name, lang.f);
    int correct = 0, total = 0;
    for (std::uint64_t code = 0; code < 64; ++code) {
      Graph g = Graph::undirected(4);
      std::size_t bit = 0;
      for (NodeId u = 0; u < 4; ++u)
        for (NodeId v = u + 1; v < 4; ++v)
          if ((code >> bit++) & 1) g.add_edge(u, v);
      const bool expect = lang.f(g);
      const bool got =
          accepts_for_all_suffix(g, algo, sigma2_honest_guess(g));
      ++total;
      correct += got == expect;
    }
    // Dishonest prover: one node guesses K4 instead of the true P4.
    Graph truth = gen::path(4);
    Labelling z1 = sigma2_honest_guess(truth);
    z1[1] = sigma2_encode_guess(gen::complete(4));
    auto algo2 = sigma2_universal(lang.name, lang.f);
    const bool caught = !accepts_for_all_suffix(truth, algo2, z1);
    t.add_row({lang.name, std::to_string(total), std::to_string(correct),
               check(caught, "yes", "NO")});
  }
  t.print();

  std::printf(
      "\n(b) Label sizes: Theorem 7's existential guess vs the logarithmic "
      "budget:\n");
  Table ts({"n", "guess bits n(n-1)/2", "log budget n·logn",
            "fits log hierarchy?"});
  for (NodeId n : {4u, 8u, 16u, 64u, 256u}) {
    const std::size_t guess = static_cast<std::size_t>(n) * (n - 1) / 2;
    const std::size_t budget = static_cast<std::size_t>(n) * ceil_log2(n);
    ts.add_row({std::to_string(n), std::to_string(guess),
                std::to_string(budget), guess <= budget ? "yes" : "no"});
  }
  ts.print();
  std::printf(
      "\nShape check: the universal algorithm decides every plugged-in "
      "language exactly\n(collapse to Sigma_2), and its labels outgrow the "
      "O(n log n) budget from n = 8 on —\nwhich is why the logarithmic "
      "hierarchy does NOT collapse (Theorem 8).\n");
  if (!ccq_trace_session.finish(nullptr)) return 1;
  return check.exit_code();
}
