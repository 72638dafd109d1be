#include "harness/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "algebra/distributed_mm.hpp"
#include "clique/chaos.hpp"
#include "clique/engine.hpp"
#include "clique/routing.hpp"
#include "clique/trace.hpp"
#include "util/rng.hpp"

namespace ccq::harness {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv_fold(std::uint64_t fp, std::uint64_t v) {
  for (unsigned i = 0; i < 8; ++i) {
    fp = (fp ^ (v & 0xff)) * kFnvPrime;
    v >>= 8;
  }
  return fp;
}

// Fingerprint of (source, word) pairs — what a node received.
std::uint64_t received_fp(std::uint64_t fp, NodeId src, const Word& w) {
  return fnv_fold(fp, (std::uint64_t{src} << 8) | w.value);
}

std::uint64_t routed_fp(const std::vector<std::pair<NodeId, Word>>& got) {
  std::uint64_t fp = kFnvOffset;
  for (const auto& [src, w] : got) fp = received_fp(fp, src, w);
  return fp;
}

// ---- registered node programs -------------------------------------------
//
// Each program reads only the cell's instance (adjacency row, edge weights,
// id) so a cell is a pure function of its CellSpec. Outputs are per-node
// fingerprints: any delivery or compute divergence is visible in output_fp.

// One payload word per incident edge, through `Router`: route_direct
// delivers link-direct; route_balanced uses the two-phase router (relay
// headers + salted stripes — the Lenzen-regime collective). Payloads are
// single bits, so the program is insensitive to chaos bit-flips' *framing*
// (a flipped payload changes outputs, never the collective structure).
template <auto Router>
void routing_program(NodeCtx& ctx) {
  std::vector<RoutedMessage> msgs;
  const BitVector& adj = ctx.adj_row();
  for (NodeId v = 0; v < ctx.n(); ++v)
    if (adj.get(v)) msgs.push_back({v, Word((ctx.id() + v) & 1, 1)});
  ctx.output(routed_fp(Router(ctx, msgs)));
}

// Learn-everything primitive: every node broadcasts its adjacency row
// (⌈n/B⌉ rounds) and fingerprints the full graph it received.
void broadcast_adj_program(NodeCtx& ctx) {
  std::uint64_t fp = kFnvOffset;
  for (const BitVector& row : ctx.broadcast(ctx.adj_row()))
    for (std::uint64_t w : row.words()) fp = fnv_fold(fp, w);
  ctx.output(fp);
}

// ---- semiring squarings ---------------------------------------------------
//
// Each squares the cell's own matrix with one distributed schedule (§7 /
// Censor-Hillel et al.; the sparse schedule after Le Gall) and folds every
// entry of its product row into the node's output, so two schedules of one
// product must produce equal outputs (check_equivalence's schedule rule).

enum class Schedule { kNaive, k3d, kSparse };

// Boolean: the adjacency matrix, entries 0/1 at 1 bit.
std::vector<std::uint8_t> adjacency_row(NodeCtx& ctx) {
  const BitVector& adj = ctx.adj_row();
  std::vector<std::uint8_t> row(ctx.n());
  for (NodeId j = 0; j < ctx.n(); ++j) row[j] = adj.get(j) ? 1 : 0;
  return row;
}

// (min,+): the weight matrix (weight 1 on an unweighted family), ∞
// off-edge and on the diagonal. Entries travel at 8 bits, ∞ being the
// all-ones code, so the family's weights must keep every product entry
// below 255 (gnp_weighted max_w ≤ 127); a wider one is a named
// ModelViolation from the entry codec.
constexpr unsigned kMinPlusEntryBits = 8;

std::vector<std::uint64_t> weight_row(NodeCtx& ctx) {
  const BitVector& adj = ctx.adj_row();
  std::vector<std::uint64_t> row(ctx.n(), MinPlusSemiring::infinity());
  for (NodeId j = 0; j < ctx.n(); ++j)
    if (adj.get(j)) row[j] = ctx.weighted() ? ctx.edge_weight(j) : 1;
  return row;
}

// Row v of A·A for the cell's matrix A over S.
template <Semiring S, Schedule kSchedule>
std::vector<typename S::Value> squared_row(NodeCtx& ctx) {
  constexpr bool kBool = std::is_same_v<S, BoolSemiring>;
  const auto row = [&] {
    if constexpr (kBool)
      return adjacency_row(ctx);
    else
      return weight_row(ctx);
  }();
  const unsigned bits = kBool ? 1 : kMinPlusEntryBits;
  if constexpr (kSchedule == Schedule::kNaive)
    return mm_distributed_naive<S>(ctx, row, row, bits);
  else if constexpr (kSchedule == Schedule::k3d)
    return mm_distributed_3d<S>(ctx, row, row, bits);
  else
    return mm_distributed_sparse<S>(ctx, MmShape{ctx.n(), ctx.n(), ctx.n()},
                                    row, row, bits);
}

template <Semiring S, Schedule kSchedule>
void mm_square_program(NodeCtx& ctx) {
  std::uint64_t fp = kFnvOffset;
  for (const auto c : squared_row<S, kSchedule>(ctx)) fp = fnv_fold(fp, c);
  ctx.output(fp);
}

// Triangle count through v: |{ j : (A²)[v][j] ∧ A[v][j] }| — the MM-based
// detector pattern, output-sensitive to the family's clustering.
void triangle_mm_program(NodeCtx& ctx) {
  const auto row_c = squared_row<BoolSemiring, Schedule::k3d>(ctx);
  std::uint64_t count = 0;
  for (NodeId j = 0; j < ctx.n(); ++j)
    if (row_c[j] != 0 && ctx.adj_row().get(j)) ++count;
  ctx.output(count);
}

// ---- synthetic engine loads ---------------------------------------------
//
// Loads read only n and the node id (their cells use the empty family);
// each outputs an FNV fingerprint of every word it received.

// Skewed all-to-all: 16 exchange_flat supersteps, in each of which a node
// sends (id + dst + r) mod 4 one-bit words to every destination — the
// allocation-bound delivery load of the counting-sort plane.
void exchange_skewed_load(NodeCtx& ctx) {
  const NodeId n = ctx.n();
  std::uint64_t fp = kFnvOffset;
  std::vector<std::pair<NodeId, Word>> sends;
  for (int r = 0; r < 16; ++r) {
    sends.clear();
    for (NodeId v = 0; v < n; ++v) {
      const NodeId reps = (ctx.id() + v + r) % 4;
      for (NodeId i = 0; i < reps; ++i)
        sends.emplace_back(v, Word((i + r) % 2, 1));
    }
    const FlatInbox in = ctx.exchange_flat(sends);
    for (NodeId v = 0; v < n; ++v)
      for (const Word& w : in.from(v)) fp = received_fp(fp, v, w);
  }
  ctx.output(fp);
}

// Lenzen's regime: every node routes n one-bit words to seeded uniform
// destinations other than itself through the two-phase balanced router.
void routing_uniform_load(NodeCtx& ctx) {
  const NodeId n = ctx.n();
  SplitMix64 rng(ctx.id() * 7919 + 13);
  std::vector<RoutedMessage> msgs;
  msgs.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    NodeId dst;
    do {
      dst = static_cast<NodeId>(rng.next_below(n));
    } while (n > 1 && dst == ctx.id());
    msgs.push_back({dst, Word(i % 2, 1)});
  }
  ctx.output(routed_fp(route_balanced(ctx, msgs)));
}

// Rendezvous-bound: 8 supersteps of one word to the ring successor, so the
// barrier, not delivery, dominates — the load that separates backends.
void ring_rounds_load(NodeCtx& ctx) {
  const NodeId n = ctx.n();
  std::uint64_t fp = kFnvOffset;
  for (int r = 0; r < 8; ++r) {
    std::vector<std::pair<NodeId, Word>> sends;
    if (n > 1) sends.emplace_back((ctx.id() + 1) % n, Word(r % 2, 1));
    const auto in = ctx.round(sends);
    for (NodeId v = 0; v < n; ++v)
      if (in[v]) fp = received_fp(fp, v, *in[v]);
  }
  ctx.output(fp);
}

struct Algo {
  const char* name;
  void (*fn)(NodeCtx&);
  // Programs naming one product compute equal outputs on any instance by
  // different schedules; nullptr when no other program computes it.
  const char* product = nullptr;
};

// The ccqd job surface: perfbench's ccqd-mix enumerates this table, so an
// entry added here changes that workload.
constexpr Algo kAlgos[] = {
    {"routing_direct", routing_program<route_direct>},
    {"routing_balanced", routing_program<route_balanced>},
    {"broadcast_adj", broadcast_adj_program},
    {"mm_bool_3d", mm_square_program<BoolSemiring, Schedule::k3d>,
     "bool_square"},
    {"triangle_mm", triangle_mm_program},
};

// Manifest-only programs: the synthetic engine loads and the squarings by
// the other schedules.
constexpr Algo kManifestOnly[] = {
    {"exchange_skewed", exchange_skewed_load},
    {"routing_uniform", routing_uniform_load},
    {"ring_rounds", ring_rounds_load},
    {"mm_bool_naive", mm_square_program<BoolSemiring, Schedule::kNaive>,
     "bool_square"},
    {"mm_bool_sparse", mm_square_program<BoolSemiring, Schedule::kSparse>,
     "bool_square"},
    {"mm_minplus_naive",
     mm_square_program<MinPlusSemiring, Schedule::kNaive>, "minplus_square"},
    {"mm_minplus_3d", mm_square_program<MinPlusSemiring, Schedule::k3d>,
     "minplus_square"},
    {"mm_minplus_sparse",
     mm_square_program<MinPlusSemiring, Schedule::kSparse>, "minplus_square"},
};

const Algo* find_entry(const std::string& name) {
  for (const Algo& a : kAlgos)
    if (name == a.name) return &a;
  for (const Algo& a : kManifestOnly)
    if (name == a.name) return &a;
  return nullptr;
}

// The product `name` computes, or "" when no other program computes it.
std::string_view product_of(const std::string& name) {
  const Algo* a = find_entry(name);
  return a != nullptr && a->product != nullptr ? a->product : "";
}

template <std::size_t N>
std::vector<std::string> names_of(const Algo (&table)[N]) {
  std::vector<std::string> v;
  for (const Algo& a : table) v.emplace_back(a.name);
  return v;
}

}  // namespace

const std::vector<std::string>& algorithm_names() {
  static const std::vector<std::string> names = names_of(kAlgos);
  return names;
}

const std::vector<std::string>& manifest_only_names() {
  static const std::vector<std::string> names = names_of(kManifestOnly);
  return names;
}

NodeProgram find_algorithm(const std::string& name) {
  if (const Algo* a = find_entry(name)) return NodeProgram(a->fn);
  std::ostringstream os;
  os << "unknown sweep algorithm '" << name << "'";
  throw ModelViolation(os.str());
}

bool meters_equal(const CostMeter& a, const CostMeter& b) {
  return a.rounds == b.rounds && a.messages == b.messages &&
         a.bits == b.bits && a.collectives == b.collectives &&
         a.max_node_sent == b.max_node_sent &&
         a.max_node_received == b.max_node_received;
}

std::uint64_t outputs_fp(const std::vector<std::uint64_t>& outputs) {
  std::uint64_t fp = kFnvOffset;
  for (std::uint64_t v : outputs) fp = fnv_fold(fp, v);
  return fp;
}

std::uint64_t ledger_fingerprint(const RoundTrace& trace) {
  std::uint64_t fp = kFnvOffset;
  auto fold_str = [&](const std::string& s) {
    for (unsigned char c : s) fp = (fp ^ c) * kFnvPrime;
    fp = (fp ^ 0xff) * kFnvPrime;  // terminator: "ab","c" != "a","bc"
  };
  for (const TraceRecord& r : trace.records()) {
    fold_str(r.op);
    fold_str(r.phase);
    fp = fnv_fold(fp, r.run);
    fp = fnv_fold(fp, r.collective);
    fp = fnv_fold(fp, r.round_begin);
    fp = fnv_fold(fp, r.rounds);
    fp = fnv_fold(fp, r.messages);
    fp = fnv_fold(fp, r.bits);
    fp = fnv_fold(fp, r.max_sent);
    fp = fnv_fold(fp, r.max_received);
    for (std::uint32_t b : r.sent_hist.bucket) fp = fnv_fold(fp, b);
    for (std::uint32_t b : r.received_hist.bucket) fp = fnv_fold(fp, b);
  }
  return fp;
}

Engine::Config cell_engine_config(const CellSpec& spec) {
  Engine::Config cfg;
  cfg.backend = spec.backend;
  cfg.workers = std::min<std::size_t>(spec.workers, spec.n);
  cfg.bandwidth_multiplier = spec.bandwidth;
  // Manifest-only programs keep the engine's default common seed: the
  // loads' rows were pinned with it (route_balanced salts its stripes
  // with it), and the squarings never draw on it.
  const auto is_named = [&](const Algo& a) { return spec.algorithm == a.name; };
  if (std::none_of(std::begin(kManifestOnly), std::end(kManifestOnly),
                   is_named))
    cfg.seed = mix64(spec.seed ^ 0x5ce9a11ceull);
  return cfg;
}

ChaosPlan::Config cell_chaos_config(const CellSpec& spec) {
  ChaosPlan::Config ch;
  ch.seed = mix64(spec.seed ^ 0xc4a05ull);
  ch.p_flip = spec.chaos_flip;
  ch.p_drop = spec.chaos_drop;
  ch.p_dup = spec.chaos_dup;
  return ch;
}

std::string fp_hex(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

Instance cell_instance(const CellSpec& spec) {
  return Instance::of(corpus::make_family(spec.family, spec.n));
}

namespace {

// One run of the cell with a fresh fault plan, traced when `trace` is set,
// on `session` or else on a fresh engine. Only the engine run is timed.
CellResult run_once(const CellSpec& spec, const Instance& instance,
                    RoundTrace* trace, EngineSession* session) {
  CellResult out;
  out.spec = spec;
  const NodeProgram program = find_algorithm(spec.algorithm);
  ChaosPlan plan(cell_chaos_config(spec));
  Engine::Config cfg = cell_engine_config(spec);
  cfg.trace = trace;
  cfg.chaos = spec.chaos ? &plan : nullptr;
  RunResult res;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    res = session != nullptr ? session->run(instance, program, cfg)
                             : Engine::run(instance, program, cfg);
  } catch (const std::exception& e) {
    out.fail_reason = std::string("engine run failed: ") + e.what();
    return out;
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.cost = res.cost;
  out.output_fp = outputs_fp(res.outputs);
  out.faults = plan.total_faults();
  out.ok = true;
  return out;
}

}  // namespace

CellResult run_traced(const CellSpec& spec, const Instance& instance,
                      EngineSession* session) {
  RoundTrace trace;
  CellResult out = run_once(spec, instance, &trace, session);
  if (!out.ok) return out;
  out.ledger_fp = ledger_fingerprint(trace);
  // Ledger cross-check: the trace's per-record sums must reproduce its own
  // metered totals, and those totals must be exactly the run's CostMeter —
  // the meter and the ledger are two independent accountings of the same
  // collectives.
  if (!trace.totals_match())
    out.fail_reason = "trace ledger does not sum to its metered totals";
  else if (!meters_equal(trace.metered_totals(), out.cost))
    out.fail_reason = "trace metered totals diverge from the run's meter";
  out.ok = out.fail_reason.empty();
  return out;
}

CellResult run_cell(const CellSpec& spec, int trials) {
  CCQ_CHECK_MSG(trials >= 1, "run_cell requires trials >= 1");
  CellResult out;
  out.spec = spec;
  const Instance instance = cell_instance(spec);

  // Each trial runs the cell traced and untraced, alternating which goes
  // first. The first run (traced) is the reference every later run must
  // reproduce: tracing may cost wall-clock, never a metered word.
  for (int t = 0; t < trials; ++t) {
    for (int k = 0; k < 2; ++k) {
      const bool traced = (k == 0) == (t % 2 == 0);
      const CellResult r = traced ? run_traced(spec, instance)
                                  : run_once(spec, instance, nullptr, nullptr);
      if (!r.ok) {
        out.fail_reason = r.fail_reason;
        return out;
      }
      double& best = traced ? out.wall_ms : out.untraced_ms;
      if (t == 0 || r.wall_ms < best) best = r.wall_ms;
      if (t == 0 && k == 0) {
        out.cost = r.cost;
        out.output_fp = r.output_fp;
        out.ledger_fp = r.ledger_fp;
        out.faults = r.faults;
        continue;
      }
      if (r.output_fp != out.output_fp || !meters_equal(r.cost, out.cost)) {
        out.fail_reason = traced ? "trials disagree (nondeterministic cell)"
                                 : "the untraced run's outputs or meters "
                                   "differ from the traced run's";
        return out;
      }
      if (traced && r.ledger_fp != out.ledger_fp) {
        out.fail_reason = "trace ledgers disagree across trials";
        return out;
      }
      if (r.faults != out.faults) {
        out.fail_reason = "fault schedule not reproducible across runs";
        return out;
      }
    }
  }
  out.ok = true;
  return out;
}

std::string check_worker_determinism(const CellSpec& spec) {
  CellSpec alt = spec;
  // Pick a genuinely different team cap (clamped to n inside cell_config);
  // determinism across team sizes is the engine contract every backend
  // pins.
  alt.workers = spec.workers == 3 ? 2 : 3;
  const CellResult a = run_cell(spec, 1);
  const CellResult b = run_cell(alt, 1);
  if (!a.ok) return "base cell failed: " + a.fail_reason;
  if (!b.ok) return "alt-workers cell failed: " + b.fail_reason;
  const std::vector<std::string> diags = check_equivalence({a, b});
  return diags.empty() ? "" : diags.front();
}

std::vector<std::string> check_equivalence(
    const std::vector<CellResult>& results) {
  std::vector<std::string> diags;
  for (std::size_t j = 0; j < results.size(); ++j) {
    const CellResult& b = results[j];
    // Compare against the first earlier cell of b's group: a spec equal to
    // b's once backend and workers are set to b's.
    for (std::size_t i = 0; i < j; ++i) {
      const CellResult& a = results[i];
      CellSpec probe = a.spec;
      probe.backend = b.spec.backend;
      probe.workers = b.spec.workers;
      if (!(probe == b.spec)) continue;
      const char* what = nullptr;
      if (a.output_fp != b.output_fp)
        what = "output_fp";
      else if (a.faults != b.faults)
        what = "faults";
      else if (!meters_equal(a.cost, b.cost))
        what = "meters";
      else if (a.ledger_fp != b.ledger_fp)
        what = "ledger_fp";
      if (what != nullptr)
        diags.push_back(b.spec.id() + " disagrees with " + a.spec.id() +
                        " on " + what +
                        " (the cells differ only in backend and workers)");
      break;
    }
    // A chaos-off cell of a product is also compared against the first
    // earlier cell computing that product by another schedule: a spec equal
    // to b's once algorithm, backend and workers are set to b's. Meters may
    // differ; the answer may not.
    const std::string_view product = product_of(b.spec.algorithm);
    if (b.spec.chaos || product.empty()) continue;
    for (std::size_t i = 0; i < j; ++i) {
      const CellResult& a = results[i];
      if (a.spec.algorithm == b.spec.algorithm ||
          product_of(a.spec.algorithm) != product)
        continue;
      CellSpec probe = a.spec;
      probe.algorithm = b.spec.algorithm;
      probe.backend = b.spec.backend;
      probe.workers = b.spec.workers;
      if (!(probe == b.spec)) continue;
      if (a.output_fp != b.output_fp)
        diags.push_back(b.spec.id() + " disagrees with " + a.spec.id() +
                        " on output_fp (the cells compute the same product "
                        "by different schedules)");
      break;
    }
  }
  return diags;
}

std::string check_trace_overhead(const CellResult& r) {
  constexpr double kMinMs = 2.0;  // below this, best-of-k is timer noise
  constexpr double kRatio = 1.5;
  if (r.untraced_ms < kMinMs || r.wall_ms <= kRatio * r.untraced_ms)
    return "";
  std::ostringstream os;
  os << "tracing costs " << r.wall_ms << " ms against " << r.untraced_ms
     << " ms untraced (allowed " << kRatio << "x)";
  return os.str();
}

}  // namespace ccq::harness
