// SEC7.1 dependency — the routing layer standing in for Lenzen [43]
// (DESIGN.md §1). Measures both routers on the load regimes the paper's
// algorithms generate: balanced all-to-all (Lenzen's regime: ≤ n sent and
// received per node ⇒ O(1) rounds) and a skewed single-hot-pair load where
// indirection is mandatory. Wall-clock rows of the routing loads (uniform
// balanced routing, ring rounds across backends) are bench_matrix cells.
//
// Usage: bench_routing [--trace=PATH]

#include <cstdio>

#include "bench_json.hpp"
#include "clique/routing.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace ccq;

namespace {

template <typename Router>
std::uint64_t measure(NodeId n, Router router,
                      const std::function<std::vector<RoutedMessage>(
                          NodeId, NodeId)>& demand) {
  auto res = Engine::run(gen::empty(n), [&](NodeCtx& ctx) {
    auto msgs = demand(ctx.id(), ctx.n());
    auto got = router(ctx, msgs);
    ctx.output(got.size());
  });
  return res.cost.rounds;
}

}  // namespace

int main(int argc, char** argv) {
  // --trace=<path>: record every run below into one chrome://tracing
  // timeline + JSONL ledger (see EXPERIMENTS.md "Reading a trace").
  benchjson::TraceSession trace_session(&argc, argv);
  std::printf("Routing substrate (Lenzen-regime loads)\n\n");

  std::printf(
      "Balanced load: every node sends exactly n messages to random\n"
      "destinations (paper regime: O(1) rounds expected, n-independent):\n");
  Table tb({"n", "direct rounds", "balanced rounds"});
  for (NodeId n : {16u, 32u, 64u, 128u}) {
    auto demand = [](NodeId id, NodeId nn) {
      SplitMix64 rng(id * 7919 + 13);
      std::vector<RoutedMessage> out;
      for (NodeId i = 0; i < nn; ++i) {
        NodeId dst;
        do {
          dst = static_cast<NodeId>(rng.next_below(nn));
        } while (dst == id);
        out.push_back({dst, Word(1, 1)});
      }
      return out;
    };
    const auto dr = measure(n, [](NodeCtx& c, const auto& m) {
      return route_direct(c, m);
    }, demand);
    const auto br = measure(n, [](NodeCtx& c, const auto& m) {
      return route_balanced(c, m);
    }, demand);
    tb.add_row({std::to_string(n), std::to_string(dr), std::to_string(br)});
  }
  tb.print();

  std::printf(
      "\nSkewed load: node 0 sends m = 4n messages to node 1 (direct pays\n"
      "m rounds on one link; indirection spreads it):\n");
  Table ts({"n", "m", "direct rounds", "balanced rounds"});
  for (NodeId n : {16u, 32u, 64u}) {
    const std::size_t m = 4u * n;
    auto demand = [m](NodeId id, NodeId) {
      std::vector<RoutedMessage> out;
      if (id == 0)
        for (std::size_t i = 0; i < m; ++i)
          out.push_back({1, Word(i % 2, 1)});
      return out;
    };
    const auto dr = measure(n, [](NodeCtx& c, const auto& m_) {
      return route_direct(c, m_);
    }, demand);
    const auto br = measure(n, [](NodeCtx& c, const auto& m_) {
      return route_balanced(c, m_);
    }, demand);
    ts.add_row({std::to_string(n), std::to_string(m), std::to_string(dr),
                std::to_string(br)});
  }
  ts.print();

  // Flush the trace (if any); a failed self-check (per-record sums !=
  // metered totals) fails the bench.
  if (!trace_session.finish(nullptr)) return 1;

  std::printf(
      "\nShape check: balanced-load rounds stay O(1) as n grows; skewed "
      "direct grows\nlinearly in m while the two-phase router stays near "
      "2·⌈m/n⌉·2.\n");
  return 0;
}
