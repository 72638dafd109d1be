// THM8 — the logarithmic constant-round hierarchy does not contain all
// problems: with O(n log n)-bit labels, even k alternations (for every
// k ≤ T) leave the protocol count at 2^{o(2^{nL})}. The counting table
// uses the proof's parameters (L = T²·log n, M = ¼·T·n·log n); the toy
// table shows Σ-achievability saturating under independent per-node advice.

#include <cstdio>

#include "hierarchy/counting.hpp"
#include "util/table.hpp"

#include "bench_json.hpp"

using namespace ccq;

int main(int argc, char** argv) {
  ccq::benchjson::TraceSession ccq_trace_session(&argc, argv);
  ccq::benchjson::ShapeChecks check;
  std::printf(
      "THM8: a problem outside every level of the logarithmic "
      "hierarchy\n\n");

  std::printf("(a) Counting with the proof's parameters:\n");
  Table ta({"n", "T", "k", "L=T^2·logn", "kM+L", "ll(protocols)",
            "ll(functions)", "proof ineq", "hard fn"});
  for (std::uint64_t n : {256u, 1024u}) {
    const std::uint64_t T = 4;
    for (std::uint64_t k = 1; k <= T; ++k) {
      auto row = thm8_row(n, T, k);
      ta.add_row({std::to_string(n), std::to_string(T), std::to_string(k),
                  std::to_string(row.L),
                  std::to_string(k * row.M + row.L),
                  Table::fmt(row.loglog_protocols, 1),
                  Table::fmt(row.loglog_funcs, 1),
                  check(row.inequality_holds, "holds", "FAILS"),
                  check(row.hard_function_exists, "yes", "NO")});
    }
  }
  ta.print();

  std::printf(
      "\n(b) Toy Σ_k achievability (n = 2, b = 1, L = 1, M = 1, t = 0,\n"
      "    exhaustive — counts out of 16 functions):\n");
  Table tb({"k (alternations)", "achievable"});
  for (unsigned k : {1u, 2u}) {
    auto a = achievable_sigma_functions(2, 1, 1, 1, 0, k);
    std::size_t c = 0;
    for (bool x : a) c += x;
    tb.add_row({std::to_string(k), std::to_string(c)});
  }
  tb.print();
  std::printf(
      "\nShape check: (a) for every level k ≤ T the protocol count stays "
      "doubly-exponentially\nbelow the function count — some problem avoids "
      "all of Σ^log_1..Σ^log_T; (b) with\nindependent per-node advice and "
      "no communication, extra alternations do not grow\nthe achievable set "
      "(both levels sit at 10/16), matching the proof's intuition that\n"
      "label *size*, not alternation depth, is the binding resource here.\n");
  if (!ccq_trace_session.finish(nullptr)) return 1;
  return check.exit_code();
}
