#pragma once

// Distributed matrix multiplication on the congested clique.
//
// Input convention (matching how graph problems present themselves in the
// model): node v holds row v of A and row v of B; on return it holds row v
// of C = A·B. Four schedules:
//
//  * mm_distributed_naive — every node broadcasts its row of B and
//    multiplies locally: Θ(n·w/B) rounds (w = entry bits). The baseline.
//
//  * mm_distributed_3d — the semiring algorithm of Censor-Hillel et al.
//    [10] as cited in §7 of the paper: nodes are identified with triples
//    (i,j,k) ∈ [d]³, d = ⌊n^{1/3}⌋; node (i,j,k) obtains the blocks
//    A[R_i,R_k] and B[R_k,R_j], multiplies them locally, and the partial
//    products are summed at the row owners. O(n^{1/3}·w/B) rounds — this is
//    the δ(semiring MM) ≤ 1/3 edge of Figure 1, and our bench measures it.
//
//  * mm_distributed_rect — the same block schedule for rectangular shapes
//    on a greedy grid; one dense body serves both it and the 3-D schedule,
//    which passes the cube grid explicitly.
//
//  * mm_distributed_sparse — the block schedule shipping only nonzero
//    content (see "block schedules" below).
//
// Entries are packed `entry_bits` per entry; the paper assumes entries fit
// in O(log n) bits, which callers express by picking entry_bits.

#include <algorithm>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "algebra/kernels.hpp"
#include "algebra/mm.hpp"
#include "algebra/simd.hpp"
#include "clique/engine.hpp"
#include "util/math.hpp"

namespace ccq {

/// True when encode_value<S>/decode_value<S> are the identity cast (plus a
/// range check): the packed stream is then a plain little-endian scalar
/// stream and the simd 1-bit codec may (un)pack it directly. MinPlus is the
/// one exception — its all-ones ∞ codepoint remaps values.
template <Semiring S>
inline constexpr bool kIdentityEncoding =
    !std::is_same_v<S, MinPlusSemiring>;

// ---- value <-> fixed-width bits -----------------------------------------

/// Default encoding: plain unsigned value, must fit entry_bits.
template <Semiring S>
std::uint64_t encode_value(typename S::Value v, unsigned entry_bits) {
  const auto u = static_cast<std::uint64_t>(v);
  if (entry_bits < 64)
    CCQ_CHECK_MSG(u < (std::uint64_t{1} << entry_bits),
                  "matrix entry does not fit in " << entry_bits << " bits");
  return u;
}

template <Semiring S>
typename S::Value decode_value(std::uint64_t u, unsigned /*entry_bits*/) {
  return static_cast<typename S::Value>(u);
}

/// MinPlus: +∞ is encoded as the all-ones pattern; finite distances must
/// leave that codepoint free.
template <>
inline std::uint64_t encode_value<MinPlusSemiring>(
    MinPlusSemiring::Value v, unsigned entry_bits) {
  const std::uint64_t all_ones =
      entry_bits == 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << entry_bits) - 1;
  if (v >= MinPlusSemiring::infinity()) return all_ones;
  CCQ_CHECK_MSG(v < all_ones, "finite distance does not fit in "
                                  << entry_bits << " bits");
  return v;
}

template <>
inline MinPlusSemiring::Value decode_value<MinPlusSemiring>(
    std::uint64_t u, unsigned entry_bits) {
  const std::uint64_t all_ones =
      entry_bits == 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << entry_bits) - 1;
  return u == all_ones ? MinPlusSemiring::infinity() : u;
}

/// Pack `values` at `entry_bits` per entry into a BitVector, writing whole
/// 64-bit words instead of calling append_bits per entry (which resizes the
/// vector every call). Two bulk paths: when entry_bits divides 64, each
/// output word is filled from a whole number of entries with no carry state;
/// otherwise a shift-carry accumulator spills completed words. Boolean
/// entries at entry_bits 1 — every Boolean block product — go through the
/// vector codec first. Bit layout is identical to the per-entry reference
/// (LSB-first, entry i at bit offset i·entry_bits) —
/// tests/algebra/kernels_test.cpp checks that bit-for-bit.
template <Semiring S>
BitVector pack_entries(std::span<const typename S::Value> values,
                       unsigned entry_bits) {
  CCQ_CHECK(entry_bits >= 1 && entry_bits <= 64);
  using V = typename S::Value;
  const std::size_t total = values.size() * entry_bits;
  std::vector<std::uint64_t> words(ceil_div(total, 64), 0);
  // Vector 1-bit path for identity-encoded byte values. On any
  // out-of-range entry (or a scalar-only dispatch level) it leaves `words`
  // in a fully-overwritable state and returns false, and the generic writers
  // below redo the pack — re-checking every entry so the canonical range
  // error fires at the exact offending value.
  if constexpr (kIdentityEncoding<S> && sizeof(V) == 1) {
    if (entry_bits == 1 &&
        simd::pack_bits_u8(reinterpret_cast<const std::uint8_t*>(values.data()),
                           values.size(), words.data()))
      return BitVector::from_words(std::move(words), total);
  }
  if (64 % entry_bits == 0) {
    const unsigned per = 64u / entry_bits;
    std::size_t idx = 0;
    for (std::size_t w = 0; w < words.size(); ++w) {
      std::uint64_t acc = 0;
      const std::size_t lim =
          std::min<std::size_t>(per, values.size() - idx);
      for (unsigned e = 0; e < lim; ++e, ++idx)
        acc |= encode_value<S>(values[idx], entry_bits)
               << (e * entry_bits);
      words[w] = acc;
    }
  } else {
    // entry_bits ∈ (1, 64) and not a divisor, so filled stays in [1, 63]
    // whenever a word spills — the carry shift below never hits 64.
    std::uint64_t acc = 0;
    unsigned filled = 0;
    std::size_t w = 0;
    for (const auto& v : values) {
      const std::uint64_t u = encode_value<S>(v, entry_bits);
      acc |= u << filled;
      if (filled + entry_bits >= 64) {
        words[w++] = acc;
        acc = u >> (64u - filled);
        filled = filled + entry_bits - 64;
      } else {
        filled += entry_bits;
      }
    }
    if (filled > 0) words[w] = acc;
  }
  return BitVector::from_words(std::move(words), total);
}

/// Inverse of pack_entries; same two bulk paths (per-word extraction when
/// entry_bits divides 64, a two-word shift window otherwise).
template <Semiring S>
std::vector<typename S::Value> unpack_entries(const BitVector& bv,
                                              std::size_t count,
                                              unsigned entry_bits) {
  CCQ_CHECK(entry_bits >= 1 && entry_bits <= 64);
  CCQ_CHECK(bv.size() == count * entry_bits);
  using V = typename S::Value;
  std::vector<V> out;
  // Vector 1-bit path (identity-encoded bytes only; bit-for-bit the
  // generic extraction below). False means the scalar dispatch level is
  // active — fall through with the buffer reset.
  if constexpr (kIdentityEncoding<S> && sizeof(V) == 1) {
    if (entry_bits == 1) {
      out.resize(count);
      if (simd::unpack_bits_u8(bv.words().data(), count,
                               reinterpret_cast<std::uint8_t*>(out.data())))
        return out;
      out.clear();
    }
  }
  out.reserve(count);
  const std::uint64_t mask =
      entry_bits == 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << entry_bits) - 1;
  if (entry_bits == 64) {
    for (std::size_t i = 0; i < count; ++i)
      out.push_back(decode_value<S>(bv.word(i), entry_bits));
  } else if (64 % entry_bits == 0) {
    const unsigned per = 64u / entry_bits;
    std::size_t idx = 0;
    for (std::size_t w = 0; idx < count; ++w) {
      std::uint64_t cur = bv.word(w);
      for (unsigned e = 0; e < per && idx < count; ++e, ++idx) {
        out.push_back(decode_value<S>(cur & mask, entry_bits));
        cur >>= entry_bits;
      }
    }
  } else {
    const auto& words = bv.words();
    std::size_t pos = 0;
    for (std::size_t i = 0; i < count; ++i, pos += entry_bits) {
      const std::size_t w = pos >> 6;
      const unsigned off = pos & 63;
      std::uint64_t v = words[w] >> off;
      // off + entry_bits > 64 implies off ≥ 1, so 64 − off ≤ 63.
      if (off + entry_bits > 64) v |= words[w + 1] << (64u - off);
      out.push_back(decode_value<S>(v & mask, entry_bits));
    }
  }
  return out;
}

// ---- naive broadcast algorithm -------------------------------------------

template <Semiring S>
std::vector<typename S::Value> mm_distributed_naive(
    NodeCtx& ctx, const std::vector<typename S::Value>& row_a,
    const std::vector<typename S::Value>& row_b, unsigned entry_bits) {
  using V = typename S::Value;
  const NodeId n = ctx.n();
  CCQ_CHECK(row_a.size() == n && row_b.size() == n);

  // Everyone broadcasts its row of B; then row_c = row_a · B locally.
  auto rows =
      ctx.broadcast(pack_entries<S>(std::span<const V>(row_b), entry_bits));
  std::vector<V> row_c(n, S::zero());
  if constexpr (std::is_same_v<S, BoolSemiring>) {
    if (entry_bits == 1) {
      // Word-level local step: each broadcast row *is* a bit vector, so
      // row_c = OR of rows[k] over set bits of row_a — no unpack at all.
      // Sound only for 0/1 entries (mul is bitwise AND over bytes).
      bool domain_ok = true;
      for (NodeId k = 0; k < n; ++k) domain_ok &= row_a[k] <= 1;
      if (domain_ok) {
        BitVector acc(n);
        for (NodeId k = 0; k < n; ++k)
          if (row_a[k] != 0) acc |= rows[k];
        for (NodeId j = 0; j < n; ++j)
          row_c[j] = static_cast<V>(acc.get(j));
        return row_c;
      }
    }
  }
  for (NodeId k = 0; k < n; ++k) {
    if (row_a[k] == S::zero()) continue;
    const auto bk = unpack_entries<S>(rows[k], n, entry_bits);
    for (NodeId j = 0; j < n; ++j)
      row_c[j] = S::add(row_c[j], S::mul(row_a[k], bk[j]));
  }
  return row_c;
}

// ---- block schedules -----------------------------------------------------
//
// The 3-D, rect and sparse schedules compute C[n1×n3] = A[n1×n2]·B[n2×n3]
// on a grid of worker triples: node v < n1 holds row v of A, node v < n2
// holds row v of B, and on return node v < n1 holds row v of C. Worker
// (i,j,k) obtains A[R⁰_i, R¹_k] and B[R¹_k, R²_j] (Step A), multiplies them
// locally (Step B), and sends its partial rows to their owners, which
// reduce them (Step C).
//
// mm_distributed_3d and mm_distributed_rect are one dense body
// (mmrect_detail::dense_block_mm) run on two grids: the ⌊n^{1/3}⌋ cube of
// §7 and a greedy grid d1·d2·d3 ≤ n for any shape. mm_distributed_sparse
// runs on the greedy grid but ships only nonzero content (DESIGN.md §13):
// a block-occupancy descriptor round tells each worker the per-slice
// nonzero counts, then every slice travels either as strictly-increasing
// (index,value) runs or — when the count makes runs no cheaper — in the
// dense packed format, the choice being a pure function of the agreed
// count. Partial result rows travel the same way, prefixed by a
// self-describing count. Measured bits therefore scale with nnz, and every
// structural corruption of a descriptor (drop, flip) makes the declared and
// received payload widths disagree, which the receivers CCQ_CHECK.
//
// All three pack each distinct payload once and deposit bit runs that point
// at that packing, one run per destination. The plane meters a run as its
// B-bit framing and stores it packed (DESIGN.md §8); receivers read it back
// with FlatInbox::bits_from after checking its framing with words_from or
// carries.

namespace mm3d_detail {

/// The cube grid of the 3-D schedule: [n] split into d = ⌊n^{1/3}⌋ ranges
/// of width ⌈n/d⌉ in every dimension. The one definition of the cube side
/// (RectLayout::cube builds on it).
struct Layout {
  NodeId n;
  NodeId d;  ///< cube side ⌊n^{1/3}⌋
  NodeId q;  ///< range width ⌈n/d⌉

  explicit Layout(NodeId n_)
      : n(n_),
        d(static_cast<NodeId>(std::max<std::uint64_t>(1, floor_root(n_, 3)))),
        q(static_cast<NodeId>(ceil_div(n_, d))) {}

  NodeId range_begin(NodeId t) const { return std::min<NodeId>(t * q, n); }
  NodeId range_end(NodeId t) const { return std::min<NodeId>((t + 1) * q, n); }
  NodeId range_size(NodeId t) const { return range_end(t) - range_begin(t); }
};

}  // namespace mm3d_detail

/// Shape of a rectangular product C[n1×n3] = A[n1×n2] · B[n2×n3].
struct MmShape {
  NodeId n1, n2, n3;
};

namespace mmrect_detail {

/// Bits for an index into a slice of `width` entries.
inline unsigned slice_index_bits(NodeId width) {
  return width <= 1 ? 1u : ceil_log2(width);
}

/// Bits for a nonzero count in [0, width].
inline unsigned slice_count_bits(NodeId width) {
  return std::max(1u, ceil_log2(static_cast<std::uint64_t>(width) + 1));
}

/// Deterministic per-slice mode rule, computable by sender and receiver
/// from the agreed count alone: ship (index,value) runs iff strictly
/// cheaper than the dense packed slice (ties go dense, so a fully dense
/// input degenerates to the dense block schedule plus descriptors).
inline bool slice_runs_sparse(NodeId width, NodeId count,
                              unsigned entry_bits) {
  return static_cast<std::uint64_t>(count) *
             (slice_index_bits(width) + entry_bits) <
         static_cast<std::uint64_t>(width) * entry_bits;
}

/// Payload bits a slice with `count` nonzeros occupies (0 ⇒ nothing sent).
inline std::size_t slice_payload_bits(NodeId width, NodeId count,
                                      unsigned entry_bits) {
  if (count == 0) return 0;
  return slice_runs_sparse(width, count, entry_bits)
             ? static_cast<std::size_t>(count) *
                   (slice_index_bits(width) + entry_bits)
             : static_cast<std::size_t>(width) * entry_bits;
}

/// Per-dimension block grids: dim 0 indexes C/A row ranges (d1 parts of
/// [n1]), dim 1 the inner ranges (d2 parts of [n2]), dim 2 the C/B column
/// ranges (d3 parts of [n3]). Worker (i,j,k) = (i·d3+j)·d2+k multiplies
/// A[R⁰_i, R¹_k] · B[R¹_k, R²_j].
struct RectLayout {
  NodeId n[3];
  NodeId d[3];
  NodeId q[3];

  /// The greedy grid: repeatedly split the dimension with the widest parts
  /// (ties → lowest index) while the grid fits the clique. On square shapes
  /// it is not the cube in general — at n = 96 it stops at (6,4,4) where
  /// the cube is 4³ — so the 3-D schedule asks for cube() explicitly.
  RectLayout(NodeId nodes, MmShape s) {
    CCQ_CHECK_MSG(s.n1 >= 1 && s.n2 >= 1 && s.n3 >= 1,
                  "mm shape dimensions must be positive");
    CCQ_CHECK_MSG(s.n1 <= nodes && s.n2 <= nodes,
                  "row-holding mm dimensions must fit the clique");
    n[0] = s.n1;
    n[1] = s.n2;
    n[2] = s.n3;
    d[0] = d[1] = d[2] = 1;
    for (;;) {
      int best = -1;
      NodeId best_w = 0;
      for (int t = 0; t < 3; ++t) {
        if (d[t] >= n[t]) continue;
        const std::uint64_t grown = static_cast<std::uint64_t>(d[0]) * d[1] *
                                    d[2] / d[t] * (d[t] + 1);
        if (grown > nodes) continue;
        const NodeId w = static_cast<NodeId>(ceil_div(n[t], d[t]));
        if (w > best_w) {
          best = t;
          best_w = w;
        }
      }
      if (best < 0) break;
      ++d[best];
    }
    for (int t = 0; t < 3; ++t)
      q[t] = static_cast<NodeId>(ceil_div(n[t], d[t]));
  }

  /// The 3-D schedule's cube grid on an n×n×n product (mm3d_detail::Layout).
  static RectLayout cube(NodeId nodes) {
    const mm3d_detail::Layout c(nodes);
    RectLayout L;
    for (int t = 0; t < 3; ++t) {
      L.n[t] = nodes;
      L.d[t] = c.d;
      L.q[t] = c.q;
    }
    return L;
  }

  NodeId begin(int t, NodeId r) const { return std::min(r * q[t], n[t]); }
  NodeId end(int t, NodeId r) const {
    return std::min((r + 1) * q[t], n[t]);
  }
  NodeId size(int t, NodeId r) const { return end(t, r) - begin(t, r); }
  /// Which part contains index v (v < n[t]).
  NodeId of(int t, NodeId v) const { return v / q[t]; }

  bool is_worker(NodeId v) const {
    return v < static_cast<std::uint64_t>(d[0]) * d[1] * d[2];
  }
  NodeId worker(NodeId i, NodeId j, NodeId k) const {
    return (i * d[2] + j) * d[1] + k;
  }
  NodeId wi(NodeId v) const { return v / (d[1] * d[2]); }
  NodeId wj(NodeId v) const { return (v / d[1]) % d[2]; }
  NodeId wk(NodeId v) const { return v % d[1]; }

 private:
  RectLayout() = default;
};

/// The dense block schedule on grid L, shared by mm_distributed_3d (cube
/// grid) and mm_distributed_rect (greedy grid): every slice and partial row
/// travels packed at entry_bits per entry.
template <Semiring S>
std::vector<typename S::Value> dense_block_mm(
    NodeCtx& ctx, const RectLayout& L,
    std::span<const typename S::Value> row_a,
    std::span<const typename S::Value> row_b, unsigned entry_bits) {
  using V = typename S::Value;
  const NodeId nn = ctx.n();
  const NodeId me = ctx.id();
  const unsigned B = ctx.bandwidth();
  CCQ_CHECK(entry_bits >= 1 && entry_bits <= 64);
  const bool holds_a = me < L.n[0];
  const bool holds_b = me < L.n[1];
  CCQ_CHECK(!holds_a || row_a.size() == L.n[1]);
  CCQ_CHECK(!holds_b || row_b.size() == L.n[2]);

  // ---- Step A: source v sends A_v[R¹_k] to every worker (of⁰(v), j, k) and
  // B_v[R²_j] to every worker (i, j, of¹(v)). Each slice is packed once;
  // every destination's run points at that packing. A worker owed both
  // gets its A run first (the A loop deposits first), which is the order
  // Step B reads in.
  std::vector<BitVector> a_bits(holds_a ? L.d[1] : 0);
  std::vector<BitVector> b_bits(holds_b ? L.d[2] : 0);
  std::vector<BitRun> phase_a;
  if (holds_a) {
    const NodeId iv = L.of(0, me);
    for (NodeId k = 0; k < L.d[1]; ++k) {
      a_bits[k] = pack_entries<S>(row_a.subspan(L.begin(1, k), L.size(1, k)),
                                  entry_bits);
      for (NodeId j = 0; j < L.d[2]; ++j)
        phase_a.push_back({L.worker(iv, j, k), &a_bits[k]});
    }
  }
  if (holds_b) {
    const NodeId kv = L.of(1, me);
    for (NodeId j = 0; j < L.d[2]; ++j) {
      b_bits[j] = pack_entries<S>(row_b.subspan(L.begin(2, j), L.size(2, j)),
                                  entry_bits);
      for (NodeId i = 0; i < L.d[0]; ++i)
        phase_a.push_back({L.worker(i, j, kv), &b_bits[j]});
    }
  }
  const FlatInbox inbox_a = ctx.exchange_flat(phase_a);

  // ---- Step B: workers assemble their blocks and multiply locally.
  Matrix<V> partial;
  if (L.is_worker(me)) {
    const NodeId i = L.wi(me), j = L.wj(me), k = L.wk(me);
    const NodeId ri = L.size(0, i), rj = L.size(2, j), rk = L.size(1, k);
    Matrix<V> a_blk(ri, rk, S::zero()), b_blk(rk, rj, S::zero());
    const std::size_t a_nw =
        ceil_div(static_cast<std::size_t>(rk) * entry_bits, B);
    const std::size_t b_nw =
        ceil_div(static_cast<std::size_t>(rj) * entry_bits, B);
    auto unpack_row = [&](NodeId src, std::size_t first_word, NodeId width,
                          V* out) {
      const auto vals = unpack_entries<S>(
          inbox_a.bits_from(src, first_word,
                            static_cast<std::size_t>(width) * entry_bits),
          width, entry_bits);
      std::copy(vals.begin(), vals.end(), out);
    };
    for (NodeId src = 0; src < nn; ++src) {
      const std::size_t got = inbox_a.words_from(src);
      const bool sends_a = src < L.n[0] && L.of(0, src) == i;
      const bool sends_b = src < L.n[1] && L.of(1, src) == k;
      const std::size_t na = sends_a ? a_nw : 0;
      const std::size_t nb = sends_b ? b_nw : 0;
      CCQ_CHECK_MSG(got == na + nb, "mm_block: node "
                                        << src << " sent " << got
                                        << " slice words, expected "
                                        << na + nb);
      if (sends_a) unpack_row(src, 0, rk, a_blk.row_data(src - L.begin(0, i)));
      if (sends_b)
        unpack_row(src, na, rj, b_blk.row_data(src - L.begin(1, k)));
    }
    // Local computation, free in the model: no meter moves here.
    partial = kernels::mm_local<S>(a_blk, b_blk);
  }

  // ---- Step C: return partial rows to their owners and reduce.
  std::vector<BitVector> c_bits;
  std::vector<BitRun> phase_c;
  if (L.is_worker(me)) {
    const NodeId i = L.wi(me);
    c_bits.resize(partial.rows());
    for (NodeId r = L.begin(0, i); r < L.end(0, i); ++r) {
      const NodeId lr = r - L.begin(0, i);
      // Pack straight from the row (contiguous row-major storage).
      c_bits[lr] = pack_entries<S>(
          std::span<const V>(partial.row_data(lr), partial.cols()),
          entry_bits);
      phase_c.push_back({r, &c_bits[lr]});
    }
  }
  const FlatInbox inbox_c = ctx.exchange_flat(phase_c);

  std::vector<V> row_c;
  if (holds_a) {
    row_c.assign(L.n[2], S::zero());
    const NodeId i = L.of(0, me);
    for (NodeId src = 0; src < nn; ++src) {
      if (inbox_c.words_from(src) == 0) continue;
      CCQ_CHECK_MSG(L.is_worker(src) && L.wi(src) == i,
                    "mm_block: partial row from unexpected worker");
      const NodeId j = L.wj(src);
      const NodeId rj = L.size(2, j);
      const std::size_t bits = static_cast<std::size_t>(rj) * entry_bits;
      CCQ_CHECK_MSG(inbox_c.carries(src, bits),
                    "mm_block: partial row from node "
                        << src << " does not carry " << bits << " bits");
      auto vals =
          unpack_entries<S>(inbox_c.bits_from(src, 0, bits), rj, entry_bits);
      for (NodeId c = 0; c < rj; ++c) {
        const NodeId col = L.begin(2, j) + c;
        row_c[col] = S::add(row_c[col], vals[c]);
      }
    }
  } else {
    for (NodeId src = 0; src < nn; ++src)
      CCQ_CHECK_MSG(inbox_c.words_from(src) == 0,
                    "mm_block: partial row sent to a non-owner");
  }
  return row_c;
}

/// Append every bit of `src` to `dst`.
inline void append_bit_vector(BitVector& dst, const BitVector& src) {
  for (std::size_t pos = 0; pos < src.size(); pos += 64) {
    const unsigned take =
        static_cast<unsigned>(std::min<std::size_t>(64, src.size() - pos));
    dst.append_bits(src.read_bits(pos, take), take);
  }
}

/// One sparse-schedule payload part: the bits a source owes for one slice,
/// and whether they travel on their own (`send` false: only inside a run
/// combined with a part that does).
struct SlicePart {
  BitVector bits;
  bool send = false;
};

/// Step A's replication pattern for the sparse schedule: this node's part
/// a[k] goes to every worker (of⁰(me), j, k) and b[j] to every worker
/// (i, j, of¹(me)); `a` is empty unless this node holds an A row, `b`
/// unless it holds a B row. A worker owed both gets one run of the
/// bit-concatenated a[k]+b[j] — framing the two separately could cost an
/// extra word. Runs point into the parts and into `both`.
inline void replicate_parts(const RectLayout& L, NodeId me,
                            const std::vector<SlicePart>& a,
                            const std::vector<SlicePart>& b,
                            std::vector<BitVector>& both,
                            std::vector<BitRun>& runs) {
  const NodeId iv = a.empty() ? 0 : L.of(0, me);
  const NodeId kv = b.empty() ? 0 : L.of(1, me);
  both.clear();
  runs.clear();
  // At most one combined run per B part: the runs' pointers stay valid.
  both.reserve(b.size());
  for (NodeId k = 0; k < a.size(); ++k) {
    if (!b.empty() && k == kv) {
      for (NodeId j = 0; j < L.d[2]; ++j) {
        if (!a[k].send && !b[j].send) continue;
        BitVector& ab = both.emplace_back(a[k].bits);
        append_bit_vector(ab, b[j].bits);
        runs.push_back({L.worker(iv, j, k), &ab});
      }
    } else if (a[k].send) {
      for (NodeId j = 0; j < L.d[2]; ++j)
        runs.push_back({L.worker(iv, j, k), &a[k].bits});
    }
  }
  for (NodeId j = 0; j < b.size(); ++j) {
    if (!b[j].send) continue;
    for (NodeId i = 0; i < L.d[0]; ++i)
      if (a.empty() || i != iv) runs.push_back({L.worker(i, j, kv), &b[j].bits});
  }
}

}  // namespace mmrect_detail

/// The 3-D semiring schedule of §7 (Censor-Hillel et al. [10]) on the cube
/// grid: every node passes its rows of A and B (length n) and gets back its
/// row of C = A·B in O(n^{1/3}·w/B) rounds — the δ(semiring MM) ≤ 1/3 edge
/// of Figure 1.
template <Semiring S>
std::vector<typename S::Value> mm_distributed_3d(
    NodeCtx& ctx, const std::vector<typename S::Value>& row_a,
    const std::vector<typename S::Value>& row_b, unsigned entry_bits) {
  using V = typename S::Value;
  return mmrect_detail::dense_block_mm<S>(
      ctx, mmrect_detail::RectLayout::cube(ctx.n()),
      std::span<const V>(row_a), std::span<const V>(row_b), entry_bits);
}

/// Dense rectangular schedule on the greedy grid. Node v < n1 passes row v
/// of A (length n2), node v < n2 passes row v of B (length n3); other nodes
/// pass empty spans. Returns row v of C (length n3) for v < n1, an empty
/// vector otherwise.
template <Semiring S>
std::vector<typename S::Value> mm_distributed_rect(
    NodeCtx& ctx, MmShape shape, std::span<const typename S::Value> row_a,
    std::span<const typename S::Value> row_b, unsigned entry_bits) {
  const mmrect_detail::RectLayout L(ctx.n(), shape);
  CCQ_TRACE_SPAN(ctx, "mm-rect");
  return mmrect_detail::dense_block_mm<S>(ctx, L, row_a, row_b, entry_bits);
}

/// Sparsity-aware rectangular schedule: same shape convention and worker
/// grid as mm_distributed_rect, but only nonzero content is exchanged, so
/// measured bits scale with nnz. Three collectives: a descriptor round
/// (per-slice nonzero counts), the slice payloads (runs or dense per the
/// count rule), and the partial-row reduction (count-prefixed rows, empty
/// rows free). All three are validated receiver-side; any width or count
/// inconsistency throws ModelViolation.
template <Semiring S>
std::vector<typename S::Value> mm_distributed_sparse(
    NodeCtx& ctx, MmShape shape, std::span<const typename S::Value> row_a,
    std::span<const typename S::Value> row_b, unsigned entry_bits) {
  using V = typename S::Value;
  using namespace mmrect_detail;
  const NodeId nn = ctx.n();
  const RectLayout L(nn, shape);
  const NodeId me = ctx.id();
  CCQ_CHECK(entry_bits >= 1 && entry_bits <= 64);
  const bool holds_a = me < L.n[0];
  const bool holds_b = me < L.n[1];
  CCQ_CHECK(!holds_a || row_a.size() == L.n[1]);
  CCQ_CHECK(!holds_b || row_b.size() == L.n[2]);
  CCQ_TRACE_SPAN(ctx, "mm-sparse");

  // Pack one of my input slices once: its nonzero count for Phase 0 and
  // its payload (runs or dense per the mode rule) for Phase A. An all-zero
  // slice sends neither on its own.
  auto encode_slice = [&](std::span<const V> row, int dim, NodeId t,
                          SlicePart& desc, SlicePart& pay) {
    const NodeId lo = L.begin(dim, t), width = L.size(dim, t);
    NodeId count = 0;
    for (NodeId c = 0; c < width; ++c)
      if (row[lo + c] != S::zero()) ++count;
    if (width > 0) desc.bits.append_bits(count, slice_count_bits(width));
    desc.send = pay.send = count > 0;
    if (count == 0) return;
    if (!slice_runs_sparse(width, count, entry_bits)) {
      pay.bits = pack_entries<S>(row.subspan(lo, width), entry_bits);
      return;
    }
    const unsigned ib = slice_index_bits(width);
    for (NodeId c = 0; c < width; ++c) {
      if (row[lo + c] == S::zero()) continue;
      pay.bits.append_bits(c, ib);
      pay.bits.append_bits(encode_value<S>(row[lo + c], entry_bits),
                           entry_bits);
    }
  };

  // Decode one slice with an agreed count into (index, value) pairs.
  auto parse_slice = [&](const BitVector& bv, std::size_t& pos, NodeId width,
                         NodeId count, std::vector<std::uint32_t>& cols,
                         std::vector<V>& vals) {
    if (slice_runs_sparse(width, count, entry_bits)) {
      const unsigned ib = slice_index_bits(width);
      std::uint64_t prev = ~std::uint64_t{0};
      for (NodeId t = 0; t < count; ++t) {
        const std::uint64_t idx = bv.read_bits(pos, ib);
        pos += ib;
        CCQ_CHECK_MSG(idx < width && (prev == ~std::uint64_t{0} || idx > prev),
                      "mm_sparse: corrupt slice run indices");
        prev = idx;
        cols.push_back(static_cast<std::uint32_t>(idx));
        vals.push_back(
            decode_value<S>(bv.read_bits(pos, entry_bits), entry_bits));
        pos += entry_bits;
      }
    } else {
      NodeId found = 0;
      for (NodeId c = 0; c < width; ++c) {
        const V v = decode_value<S>(bv.read_bits(pos, entry_bits), entry_bits);
        pos += entry_bits;
        if (v != S::zero()) {
          cols.push_back(c);
          vals.push_back(v);
          ++found;
        }
      }
      CCQ_CHECK_MSG(found == count, "mm_sparse: dense slice count mismatch");
    }
  };

  std::vector<SlicePart> a_desc(holds_a ? L.d[1] : 0), a_pay(a_desc.size());
  std::vector<SlicePart> b_desc(holds_b ? L.d[2] : 0), b_pay(b_desc.size());
  for (NodeId k = 0; k < a_desc.size(); ++k)
    encode_slice(row_a, 1, k, a_desc[k], a_pay[k]);
  for (NodeId j = 0; j < b_desc.size(); ++j)
    encode_slice(row_b, 2, j, b_desc[j], b_pay[j]);
  std::vector<BitVector> both;
  std::vector<BitRun> runs;

  // ---- Phase 0: block-occupancy descriptors. Destination (i,j,k) learns
  // the nonzero count of my A slice k (if of⁰(me)=i) and of my B slice j
  // (if of¹(me)=k); a destination owed both gets one combined descriptor.
  // All-zero descriptors are simply not sent.
  replicate_parts(L, me, a_desc, b_desc, both, runs);
  const FlatInbox inbox0 = ctx.exchange_flat(runs);

  // Workers record per-source agreed counts.
  std::vector<NodeId> cnt_a_from, cnt_b_from;
  NodeId bi = 0, bj = 0, bk = 0;   // my worker coordinates
  NodeId ri = 0, rj = 0, rk = 0;   // my block dimensions
  if (L.is_worker(me)) {
    bi = L.wi(me), bj = L.wj(me), bk = L.wk(me);
    ri = L.size(0, bi), rj = L.size(2, bj), rk = L.size(1, bk);
    cnt_a_from.assign(nn, 0);
    cnt_b_from.assign(nn, 0);
    for (NodeId src = 0; src < nn; ++src) {
      const bool qa = src < L.n[0] && L.of(0, src) == bi && rk > 0;
      const bool qb = src < L.n[1] && L.of(1, src) == bk && rj > 0;
      // All counts zero (or non-sender).
      if (inbox0.words_from(src) == 0) continue;
      CCQ_CHECK_MSG(qa || qb, "mm_sparse: descriptor from unexpected source");
      const std::size_t total = (qa ? slice_count_bits(rk) : 0) +
                                (qb ? slice_count_bits(rj) : 0);
      CCQ_CHECK_MSG(inbox0.carries(src, total),
                    "mm_sparse: descriptor width mismatch");
      const BitVector bv = inbox0.bits_from(src, 0, total);
      std::size_t pos = 0;
      if (qa) {
        cnt_a_from[src] =
            static_cast<NodeId>(bv.read_bits(pos, slice_count_bits(rk)));
        pos += slice_count_bits(rk);
        CCQ_CHECK_MSG(cnt_a_from[src] <= rk,
                      "mm_sparse: A slice count exceeds its width");
      }
      if (qb) {
        cnt_b_from[src] =
            static_cast<NodeId>(bv.read_bits(pos, slice_count_bits(rj)));
        CCQ_CHECK_MSG(cnt_b_from[src] <= rj,
                      "mm_sparse: B slice count exceeds its width");
      }
    }
  } else {
    for (NodeId src = 0; src < nn; ++src)
      CCQ_CHECK_MSG(inbox0.words_from(src) == 0,
                    "mm_sparse: descriptor sent to a non-worker");
  }

  // ---- Phase A: slice payloads, gated and framed by the agreed counts.
  replicate_parts(L, me, a_pay, b_pay, both, runs);
  const FlatInbox inbox_a = ctx.exchange_flat(runs);

  // ---- Local step: assemble CSR blocks, multiply (sparse or dense kernel
  // — identical values either way), keep the nonzero runs per partial row.
  std::vector<std::vector<std::pair<NodeId, V>>> c_runs;
  if (L.is_worker(me)) {
    std::vector<std::vector<std::uint32_t>> a_cols(ri), b_cols(rk);
    std::vector<std::vector<V>> a_vals(ri), b_vals(rk);
    for (NodeId src = 0; src < nn; ++src) {
      const bool qa = src < L.n[0] && L.of(0, src) == bi;
      const bool qb = src < L.n[1] && L.of(1, src) == bk;
      const NodeId ca = qa ? cnt_a_from[src] : 0;
      const NodeId cb = qb ? cnt_b_from[src] : 0;
      const std::size_t expect = slice_payload_bits(rk, ca, entry_bits) +
                                 slice_payload_bits(rj, cb, entry_bits);
      if (expect == 0) {
        CCQ_CHECK_MSG(inbox_a.words_from(src) == 0,
                      "mm_sparse: payload without a descriptor");
        continue;
      }
      CCQ_CHECK_MSG(inbox_a.carries(src, expect),
                    "mm_sparse: payload width mismatch");
      const BitVector bv = inbox_a.bits_from(src, 0, expect);
      std::size_t pos = 0;
      if (ca > 0)
        parse_slice(bv, pos, rk, ca, a_cols[src - L.begin(0, bi)],
                    a_vals[src - L.begin(0, bi)]);
      if (cb > 0)
        parse_slice(bv, pos, rj, cb, b_cols[src - L.begin(1, bk)],
                    b_vals[src - L.begin(1, bk)]);
    }
    SparseMatrix<V> a_csr(rk), b_csr(rj);
    for (NodeId r = 0; r < ri; ++r) a_csr.push_row(a_cols[r], a_vals[r]);
    for (NodeId r = 0; r < rk; ++r) b_csr.push_row(b_cols[r], b_vals[r]);
    c_runs.assign(ri, {});
    const bool sparse_local =
        a_csr.density() <= kernels::kSparseDispatchMaxDensity &&
        b_csr.density() <= kernels::kSparseDispatchMaxDensity;
    if (sparse_local) {
      const auto c_csr = kernels::spgemm_auto<S>(a_csr, b_csr);
      for (NodeId r = 0; r < ri; ++r)
        for (std::size_t t = c_csr.row_begin(r); t < c_csr.row_end(r); ++t)
          if (c_csr.values()[t] != S::zero())
            c_runs[r].emplace_back(c_csr.col_idx()[t], c_csr.values()[t]);
    } else {
      const auto c_dense = kernels::mm_local<S>(
          a_csr.template to_dense<S>(), b_csr.template to_dense<S>());
      for (NodeId r = 0; r < ri; ++r) {
        const V* row = c_dense.row_data(r);
        for (NodeId c = 0; c < rj; ++c)
          if (row[c] != S::zero()) c_runs[r].emplace_back(c, row[c]);
      }
    }
  }

  // ---- Phase C: count-prefixed partial rows to their owners; empty
  // partial rows cost nothing.
  std::vector<BitVector> c_bits;
  runs.clear();
  if (L.is_worker(me) && rj > 0) {
    const unsigned cb = slice_count_bits(rj);
    const unsigned ib = slice_index_bits(rj);
    c_bits.resize(ri);
    for (NodeId r = 0; r < ri; ++r) {
      const auto& row_runs = c_runs[r];
      if (row_runs.empty()) continue;
      const NodeId count = static_cast<NodeId>(row_runs.size());
      BitVector& bv = c_bits[r];
      bv.append_bits(count, cb);
      if (slice_runs_sparse(rj, count, entry_bits)) {
        for (const auto& [c, v] : row_runs) {
          bv.append_bits(c, ib);
          bv.append_bits(encode_value<S>(v, entry_bits), entry_bits);
        }
      } else {
        std::vector<V> dense(rj, S::zero());
        for (const auto& [c, v] : row_runs) dense[c] = v;
        append_bit_vector(
            bv, pack_entries<S>(std::span<const V>(dense), entry_bits));
      }
      runs.push_back({L.begin(0, bi) + r, &bv});
    }
  }
  const FlatInbox inbox_c = ctx.exchange_flat(runs);

  std::vector<V> row_c;
  if (holds_a) {
    row_c.assign(L.n[2], S::zero());
    const NodeId oi = L.of(0, me);
    std::vector<std::uint32_t> cols;
    std::vector<V> vals;
    for (NodeId src = 0; src < nn; ++src) {
      if (inbox_c.words_from(src) == 0) continue;
      CCQ_CHECK_MSG(L.is_worker(src) && L.wi(src) == oi,
                    "mm_sparse: partial row from unexpected worker");
      const NodeId j = L.wj(src);
      const NodeId width = L.size(2, j);
      CCQ_CHECK_MSG(width > 0, "mm_sparse: partial row for an empty range");
      const unsigned cb = slice_count_bits(width);
      // bits_from throws on a row too short to hold its count.
      const NodeId count =
          static_cast<NodeId>(inbox_c.bits_from(src, 0, cb).read_bits(0, cb));
      CCQ_CHECK_MSG(count >= 1 && count <= width,
                    "mm_sparse: corrupt partial-row count");
      const std::size_t total =
          cb + slice_payload_bits(width, count, entry_bits);
      CCQ_CHECK_MSG(inbox_c.carries(src, total),
                    "mm_sparse: partial-row payload width mismatch");
      const BitVector bv = inbox_c.bits_from(src, 0, total);
      std::size_t pos = cb;
      cols.clear();
      vals.clear();
      parse_slice(bv, pos, width, count, cols, vals);
      for (std::size_t t = 0; t < cols.size(); ++t) {
        const NodeId col = L.begin(2, j) + cols[t];
        row_c[col] = S::add(row_c[col], vals[t]);
      }
    }
  } else {
    for (NodeId src = 0; src < nn; ++src)
      CCQ_CHECK_MSG(inbox_c.words_from(src) == 0,
                    "mm_sparse: partial row sent to a non-owner");
  }
  return row_c;
}

}  // namespace ccq
