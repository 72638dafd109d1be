// Local-compute kernel comparison bench (DESIGN.md §11, §16).
//
// Sweeps the tiled/bit-packed/dispatched MM kernels against mm_naive per
// semiring, the (min,+) SpGEMM kernel at 10% density, and the entry codec
// that the block MM schedules send — Boolean entries at 1 bit and (min,+)
// entries at 20 bits — at both SIMD dispatch levels against the per-entry
// reference, printing speedup tables. Every timed result is compared
// bit-for-bit against mm_naive (the SpGEMM at n <= 512), or the per-entry
// codec, before it is reported — a kernel that is fast but wrong fails the
// run, not just --check.
//
// Usage: bench_kernels [--n=N] [--check]
//   --n=N     run a single size instead of the 128/256/512 sweep (and
//             the SpGEMM table's 256/512/1024 sweep)
//   --check   CI smoke mode: exit non-zero if any kernel disagrees with
//             mm_naive, or if the headline speedups regress (bit-packed
//             Boolean < 4x, best min-plus < 1.2x at n ≥ 256, and — when
//             AVX2 is active — SIMD min-plus tiled ≥ 1.3x over the forced
//             scalar tiled kernel at n ≥ 512; the target is 1.5x and the
//             gate keeps a 15% noise margin so a shared runner cannot
//             flake it)
//
// Respects CCQ_SIMD=off (forces the scalar paths); the SIMD columns are
// measured by forcing each dispatch level around the same kernel, so the
// scalar/SIMD comparison works regardless of the ambient policy.
//
// Writes BENCH_kernels.json ({n, semiring, kernel, wall_ms, speedup} per
// MM and SpGEMM row; {semiring, entry_bits, op, path, wall_ms,
// mentries_per_s} per packing row).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algebra/distributed_mm.hpp"
#include "algebra/kernels.hpp"
#include "algebra/mm.hpp"
#include "algebra/simd.hpp"
#include "algebra/sparse.hpp"
#include "bench_args.hpp"
#include "bench_json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace ccq {
namespace {

// ---- shared helpers -------------------------------------------------------

template <typename S>
Matrix<typename S::Value> random_square(std::size_t n, std::uint64_t seed,
                                        std::uint64_t cap) {
  SplitMix64 rng(seed);
  Matrix<typename S::Value> m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      m.at(i, j) = static_cast<typename S::Value>(rng.next_below(cap));
  return m;
}

// Each entry is ∞ (the semiring zero) with probability p_inf.
Matrix<std::uint64_t> random_minplus(std::size_t n, std::uint64_t seed,
                                     double p_inf = 0.2) {
  SplitMix64 rng(seed);
  Matrix<std::uint64_t> m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      m.at(i, j) = rng.next_bool(p_inf) ? MinPlusSemiring::infinity()
                                        : rng.next_below(100000);
  return m;
}

template <typename Fn>
double time_best_ms(int trials, Fn&& fn) {
  double best = 0;
  for (int t = 0; t < trials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (t == 0 || ms < best) best = ms;
  }
  return best;
}

struct CheckState {
  bool check = false;
  bool failed = false;
  std::vector<std::string> failures;

  void fail(const std::string& why) {
    failed = true;
    failures.push_back(why);
  }
};

// One timed kernel row: runs `fn` best-of-`trials`, verifies the result
// against `expect`, records JSON, and returns the wall time.
template <typename M, typename Fn>
double mm_row(benchjson::Writer& json, std::size_t n, const char* semiring,
              const char* kernel, int trials, const M& expect,
              double naive_ms, Fn&& fn) {
  M got;
  const double ms = time_best_ms(trials, [&] { got = fn(); });
  if (!(got == expect)) {
    std::printf("FATAL: kernel %s/%s disagrees with its reference at "
                "n=%zu\n",
                semiring, kernel, n);
    std::exit(1);
  }
  const double speedup = naive_ms > 0 && ms > 0 ? naive_ms / ms : 1.0;
  json.add({{"n", n},
            {"semiring", semiring},
            {"kernel", kernel},
            {"wall_ms", ms},
            {"speedup", speedup}});
  return ms;
}

std::string fmt_speedup(double naive_ms, double ms) {
  return Table::fmt(ms > 0 ? naive_ms / ms : 1.0, 1) + "x";
}

// Pins the SIMD dispatch level around one kernel invocation so the scalar
// and vector paths of the *same* kernel can sit side by side in a table.
// force/clear_force are single atomic stores — noise, not overhead, next to
// an n^3 kernel.
template <typename Fn>
auto at_level(simd::Level level, Fn&& fn) {
  simd::force(level);
  auto result = fn();
  simd::clear_force();
  return result;
}

void bool_mm_table(benchjson::Writer& json, CheckState& cs,
                   const std::vector<std::size_t>& sizes, int trials) {
  std::printf("Boolean MM (byte-wide mm_naive vs bit-packed kernels; the\n"
              "bitpacked column includes the Matrix<->BitMatrix "
              "conversions):\n\n");
  Table t({"n", "naive ms", "tiled ms", "bitpk scalar ms", "bitpacked ms",
           "auto ms", "bitpacked speedup"});
  for (std::size_t n : sizes) {
    const auto a = random_square<BoolSemiring>(n, 11, 2);
    const auto b = random_square<BoolSemiring>(n, 12, 2);
    Matrix<std::uint8_t> expect;
    const double naive_ms = time_best_ms(
        trials, [&] { expect = mm_naive<BoolSemiring>(a, b); });
    json.add({{"n", n},
              {"semiring", "bool"},
              {"kernel", "naive"},
              {"wall_ms", naive_ms},
              {"speedup", 1.0}});
    const double tiled_ms =
        mm_row(json, n, "bool", "tiled", trials, expect, naive_ms,
               [&] { return kernels::mm_tiled<BoolSemiring>(a, b); });
    const double bit_scalar_ms =
        mm_row(json, n, "bool", "bitpacked_scalar", trials, expect, naive_ms,
               [&] {
                 return at_level(simd::Level::kScalar,
                                 [&] { return kernels::bool_mm_bitpacked(a, b); });
               });
    const double bit_ms =
        mm_row(json, n, "bool", "bitpacked", trials, expect, naive_ms,
               [&] { return kernels::bool_mm_bitpacked(a, b); });
    const double auto_ms =
        mm_row(json, n, "bool", "auto", trials, expect, naive_ms,
               [&] { return kernels::mm_auto<BoolSemiring>(a, b); });
    t.add_row({std::to_string(n), Table::fmt(naive_ms, 2),
               Table::fmt(tiled_ms, 2), Table::fmt(bit_scalar_ms, 2),
               Table::fmt(bit_ms, 2),
               Table::fmt(auto_ms, 2), fmt_speedup(naive_ms, bit_ms)});
    if (cs.check && n >= 256 && naive_ms < 4.0 * bit_ms)
      cs.fail("boolean bitpacked speedup < 4x at n=" + std::to_string(n));
  }
  t.print();
}

void minplus_mm_table(benchjson::Writer& json, CheckState& cs,
                      const std::vector<std::size_t>& sizes, int trials) {
  std::printf("\n(min,+) MM (the APSP inner loop; tiled uses the "
              "saturation-shortcut\nmicro-kernel):\n\n");
  Table t({"n", "naive ms", "tiled scalar ms", "tiled ms", "auto ms",
           "simd speedup"});
  for (std::size_t n : sizes) {
    const auto a = random_minplus(n, 21);
    const auto b = random_minplus(n, 22);
    Matrix<std::uint64_t> expect;
    const double naive_ms = time_best_ms(
        trials, [&] { expect = mm_naive<MinPlusSemiring>(a, b); });
    json.add({{"n", n},
              {"semiring", "minplus"},
              {"kernel", "naive"},
              {"wall_ms", naive_ms},
              {"speedup", 1.0}});
    const double tiled_scalar_ms =
        mm_row(json, n, "minplus", "tiled_scalar", trials, expect, naive_ms,
               [&] {
                 return at_level(simd::Level::kScalar, [&] {
                   return kernels::mm_tiled<MinPlusSemiring>(a, b);
                 });
               });
    const double tiled_ms =
        mm_row(json, n, "minplus", "tiled", trials, expect, naive_ms,
               [&] { return kernels::mm_tiled<MinPlusSemiring>(a, b); });
    const double auto_ms =
        mm_row(json, n, "minplus", "auto", trials, expect, naive_ms,
               [&] { return kernels::mm_auto<MinPlusSemiring>(a, b); });
    const double best = std::min(tiled_ms, auto_ms);
    t.add_row({std::to_string(n), Table::fmt(naive_ms, 2),
               Table::fmt(tiled_scalar_ms, 2),
               Table::fmt(tiled_ms, 2), Table::fmt(auto_ms, 2),
               fmt_speedup(tiled_scalar_ms, tiled_ms)});
    if (cs.check && n >= 256 && naive_ms < 1.2 * best)
      cs.fail("min-plus best kernel speedup < 1.2x at n=" +
              std::to_string(n));
    // The SIMD gate: issue target is 1.5x over the scalar tiled kernel at
    // n=512; 1.3 = 1.5 with the 15% noise tolerance. Only meaningful when
    // the vector path can actually run (AVX2 detected, not CCQ_SIMD=off).
    if (cs.check && n >= 512 && simd::active() == simd::Level::kAvx2 &&
        tiled_scalar_ms < 1.3 * tiled_ms)
      cs.fail("min-plus SIMD tiled speedup < 1.3x over scalar tiled at n=" +
              std::to_string(n));
  }
  t.print();
}

void ring_mm_table(benchjson::Writer& json,
                   const std::vector<std::size_t>& sizes, int trials) {
  std::printf("\nRing MM (I64Ring; auto runs the tiled kernel on dense "
              "inputs; Strassen is\nthe DESIGN.md §1 stand-in for fast ring "
              "MM and no dispatch picks it):\n\n");
  Table t({"n", "naive ms", "tiled ms", "strassen ms", "auto ms",
           "auto speedup"});
  for (std::size_t n : sizes) {
    const auto a = random_square<I64Ring>(n, 31, 100);
    const auto b = random_square<I64Ring>(n, 32, 100);
    Matrix<std::int64_t> expect;
    const double naive_ms =
        time_best_ms(trials, [&] { expect = mm_naive<I64Ring>(a, b); });
    json.add({{"n", n},
              {"semiring", "i64"},
              {"kernel", "naive"},
              {"wall_ms", naive_ms},
              {"speedup", 1.0}});
    const double tiled_ms =
        mm_row(json, n, "i64", "tiled", trials, expect, naive_ms,
               [&] { return kernels::mm_tiled<I64Ring>(a, b); });
    const double strassen_ms =
        mm_row(json, n, "i64", "strassen", trials, expect, naive_ms,
               [&] { return mm_strassen<I64Ring>(a, b); });
    const double auto_ms =
        mm_row(json, n, "i64", "auto", trials, expect, naive_ms,
               [&] { return kernels::mm_auto<I64Ring>(a, b); });
    t.add_row({std::to_string(n), Table::fmt(naive_ms, 2),
               Table::fmt(tiled_ms, 2), Table::fmt(strassen_ms, 2),
               Table::fmt(auto_ms, 2), fmt_speedup(naive_ms, auto_ms)});
  }
  t.print();
}

// The local kernel behind the sparse schedule's Step B at 10% density,
// checked against mm_naive at n <= 512.
void spgemm_table(benchjson::Writer& json,
                  const std::vector<std::size_t>& sizes, int trials) {
  std::printf("\n(min,+) SpGEMM at density 0.1 (serial Gustavson):\n\n");
  Table t({"n", "serial ms"});
  for (std::size_t n : sizes) {
    const auto da = random_minplus(n, 0x5b9 + n, 0.9);
    const auto db = random_minplus(n, 0x5ca + n, 0.9);
    const auto a = SparseMatrix<std::uint64_t>::from_dense<MinPlusSemiring>(da);
    const auto b = SparseMatrix<std::uint64_t>::from_dense<MinPlusSemiring>(db);
    SparseMatrix<std::uint64_t> expect;
    const double serial_ms = time_best_ms(
        trials, [&] { expect = kernels::spgemm<MinPlusSemiring>(a, b); });
    if (n <= 512 && !(expect.to_dense<MinPlusSemiring>() ==
                      mm_naive<MinPlusSemiring>(da, db))) {
      std::printf("FATAL: serial spgemm disagrees with mm_naive at n=%zu\n",
                  n);
      std::exit(1);
    }
    json.add({{"n", n},
              {"semiring", "minplus"},
              {"kernel", "spgemm_serial"},
              {"wall_ms", serial_ms},
              {"speedup", 1.0}});
    t.add_row({std::to_string(n), Table::fmt(serial_ms, 2)});
  }
  t.print();
}

// Per-entry reference codec (the seed's implementation): every bulk pack
// and unpack below must reproduce it bit for bit.
template <Semiring S>
BitVector pack_per_entry(const std::vector<typename S::Value>& values,
                         unsigned entry_bits) {
  BitVector bv;
  for (const auto& v : values)
    bv.append_bits(encode_value<S>(v, entry_bits), entry_bits);
  return bv;
}

template <Semiring S>
std::vector<typename S::Value> unpack_per_entry(const BitVector& bv,
                                                std::size_t count,
                                                unsigned entry_bits) {
  std::vector<typename S::Value> out;
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(decode_value<S>(bv.read_bits(i * entry_bits, entry_bits),
                                  entry_bits));
  return out;
}

// Best-of-`trials` wall time of `run` at each of `levels`, after one untimed
// warm-up call. The levels alternate inside each trial and swap order
// between trials, so no column alone pays for a cold cache or first-touch
// page faults. Every result goes to `check`, outside the timed region.
template <typename Run, typename Check>
std::vector<double> best_ms_per_level(const std::vector<simd::Level>& levels,
                                      int trials, Run&& run, Check&& check) {
  check(run());
  std::vector<double> best(levels.size(), 0.0);
  for (int t = 0; t < trials; ++t) {
    for (std::size_t k = 0; k < levels.size(); ++k) {
      const std::size_t l = t % 2 == 0 ? k : levels.size() - 1 - k;
      simd::force(levels[l]);
      const auto t0 = std::chrono::steady_clock::now();
      const auto got = run();
      const auto t1 = std::chrono::steady_clock::now();
      simd::clear_force();
      check(got);
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (t == 0 || ms < best[l]) best[l] = ms;
    }
  }
  return best;
}

// Pack and unpack `values` at `entry_bits` through pack_entries /
// unpack_entries at every dispatch level: one table row and one JSON row
// per (op, level).
template <Semiring S>
void packing_rows(benchjson::Writer& json, Table& t, const char* semiring,
                  unsigned entry_bits,
                  const std::vector<typename S::Value>& values, int trials) {
  using V = typename S::Value;
  const auto fail_unless = [&](bool ok, const char* op) {
    if (ok) return;
    std::printf("FATAL: %s mismatch for %s at entry_bits=%u\n", op,
                semiring, entry_bits);
    std::exit(1);
  };
  const std::span<const V> span(values);
  const BitVector ref = pack_per_entry<S>(values, entry_bits);
  const auto ref_out = unpack_per_entry<S>(ref, values.size(), entry_bits);
  fail_unless(ref_out == values, "per-entry round-trip");
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::detected() != simd::Level::kScalar)
    levels.push_back(simd::detected());
  const auto pack_ms = best_ms_per_level(
      levels, trials, [&] { return pack_entries<S>(span, entry_bits); },
      [&](const BitVector& got) {
        fail_unless(got == ref, "pack_entries vs per-entry");
      });
  const auto unpack_ms = best_ms_per_level(
      levels, trials,
      [&] { return unpack_entries<S>(ref, values.size(), entry_bits); },
      [&](const std::vector<V>& got) {
        fail_unless(got == ref_out, "unpack_entries vs per-entry");
      });
  for (const auto& [op, ms] : {std::pair{"pack", pack_ms},
                               std::pair{"unpack", unpack_ms}}) {
    for (std::size_t l = 0; l < levels.size(); ++l) {
      json.add({{"semiring", semiring},
                {"entry_bits", entry_bits},
                {"op", op},
                {"path", simd::level_name(levels[l])},
                {"wall_ms", ms[l]},
                {"mentries_per_s",
                 ms[l] > 0 ? static_cast<double>(values.size()) /
                                 (ms[l] * 1000.0)
                           : 0.0}});
    }
    const bool vec = levels.size() > 1;
    t.add_row({semiring, std::to_string(entry_bits), op,
               Table::fmt(ms[0], 3), vec ? Table::fmt(ms[1], 3) : "-",
               vec ? fmt_speedup(ms[0], ms[1]) : "-"});
  }
}

// The two entry shapes the block MM schedules send: Boolean entries at 1 bit
// (every Boolean block product; the AVX2 build takes the vector 1-bit
// codec) and (min,+) distances at 20 bits (apsp_clique's width at n = 512
// with weights ≤ 1000; the ∞ remap keeps it on the generic path at every
// level).
void packing_table(benchjson::Writer& json, int trials) {
  constexpr std::size_t kCount = 1 << 20;
  std::printf("\nEntry packing (%zu entries through pack_entries/"
              "unpack_entries at each\nSIMD dispatch level, best of %d "
              "after one warm-up call, levels alternated):\n\n",
              kCount, trials);
  Table t({"semiring", "entry_bits", "op", "scalar ms", "avx2 ms",
           "avx2 speedup"});
  SplitMix64 rng(1000);
  std::vector<std::uint8_t> bools(kCount);
  for (auto& v : bools) v = rng.next_bool(0.5) ? 1 : 0;
  packing_rows<BoolSemiring>(json, t, "bool", 1, bools, trials);
  std::vector<std::uint64_t> dists(kCount);
  for (auto& v : dists)
    v = rng.next_bool(0.2) ? MinPlusSemiring::infinity()
                           : rng.next_below(512 * 1000 + 1);
  packing_rows<MinPlusSemiring>(json, t, "minplus", 20, dists, trials);
  t.print();
}

int run_comparison(const std::vector<std::size_t>& sizes,
                   const std::vector<std::size_t>& spgemm_sizes, bool check) {
  const int trials = check ? 5 : 3;
  CheckState cs;
  cs.check = check;
  std::printf("Local-compute kernels (best of %d trials):\n", trials);
  std::printf("SIMD dispatch: detected=%s active=%s (CCQ_SIMD=%s)\n\n",
              simd::level_name(simd::detected()),
              simd::level_name(simd::active()),
              std::getenv("CCQ_SIMD") != nullptr ? std::getenv("CCQ_SIMD")
                                                 : "<unset>");

  benchjson::Writer json;
  bool_mm_table(json, cs, sizes, trials);
  minplus_mm_table(json, cs, sizes, trials);
  ring_mm_table(json, sizes, trials);
  spgemm_table(json, spgemm_sizes, trials);
  packing_table(json, trials);

  if (json.write("BENCH_kernels.json"))
    std::printf("\nwrote BENCH_kernels.json\n");

  if (check) {
    if (cs.failed) {
      for (const auto& f : cs.failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());
      return 1;
    }
    std::printf("CHECK OK: all kernels bit-for-bit equal to mm_naive, "
                "headline speedups\nwithin bounds\n");
  }
  return 0;
}

}  // namespace
}  // namespace ccq

int main(int argc, char** argv) {
  std::size_t only_n = 0;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = ccq::benchargs::flag_value(argv[i], "--n")) {
      only_n = static_cast<std::size_t>(
          ccq::benchargs::parse_uint(argv[0], "--n", v, 1, 8192));
    } else if (ccq::benchargs::flag_is(argv[i], "--check")) {
      check = true;
    } else {
      std::fprintf(stderr, "usage: %s [--n=N] [--check]\n", argv[0]);
      return 2;
    }
  }
  std::vector<std::size_t> sizes = {128, 256, 512};
  std::vector<std::size_t> spgemm_sizes = {256, 512, 1024};
  if (only_n != 0) sizes = spgemm_sizes = {only_n};

  return ccq::run_comparison(sizes, spgemm_sizes, check);
}
