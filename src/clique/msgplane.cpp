#include "clique/msgplane.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/math.hpp"

namespace ccq {

// Sole builder of FlatInbox views (friend of FlatInbox): keeps the view's
// raw pointers constructible only by the plane in this translation unit.
class FlatInboxAccess {
 public:
  static FlatInbox flat(const Word* words, const std::uint32_t* cursor,
                        const std::uint32_t* counts,
                        const detail::SourceSlot* slots, NodeId self,
                        NodeId n, unsigned bandwidth) {
    FlatInbox ib;
    ib.words_ = words;
    ib.cursor_ = cursor;
    ib.counts_ = counts;
    ib.slots_ = slots;
    ib.self_ = self;
    ib.n_ = n;
    ib.bandwidth_ = bandwidth;
    return ib;
  }
};

// A run cell's bits sit in the `value` fields of consecutive arena slots,
// 64 per slot, LSB-first: cell bit p is bit p mod 64 of slot p / 64.

void FlatInbox::refuse_run_cell(NodeId src) const {
  std::ostringstream os;
  os << "FlatInbox::from: node " << src << " sent node " << self_
     << " bit runs, which hold no words; read them with bits_from";
  throw ModelViolation(os.str());
}

BitVector FlatInbox::bits_from(NodeId src, std::size_t first_word,
                               std::size_t nbits) const {
  const std::size_t words = words_from(src);
  CCQ_CHECK_MSG(first_word <= words,
                "FlatInbox::bits_from: word " << first_word << " of node "
                                              << src << "'s " << words
                                              << " metered words");
  if (slots_[src].off != detail::kRunSource) {
    // A word cell: its words carry their widths, which decode_words checks.
    const std::span<const Word> q = from(src).subspan(first_word);
    std::size_t carried = 0, k = 0;
    while (carried < nbits && k < q.size()) carried += q[k++].bits;
    CCQ_CHECK_MSG(carried >= nbits,
                  "FlatInbox::bits_from: node "
                      << src << "'s words from " << first_word << " carry "
                      << carried << " bits, fewer than " << nbits);
    BitVector out = decode_words(q.first(k), carried);
    out.resize(nbits);
    return out;
  }
  CCQ_CHECK_MSG(nbits <= (words - first_word) * bandwidth_,
                "FlatInbox::bits_from: " << nbits << " bits from word "
                                         << first_word << " run past node "
                                         << src << "'s " << words
                                         << " metered words");
  // An empty cell's cursor may be stale: leave it unread.
  if (nbits == 0) return {};
  const std::size_t i = static_cast<std::size_t>(src) * n_ + self_;
  const std::size_t pos =
      std::size_t{cursor_[i]} * 64 + first_word * bandwidth_;
  const Word* slot = words_ + (pos >> 6);
  const unsigned off = pos & 63;
  std::vector<std::uint64_t> out(ceil_div(nbits, 64));
  for (std::size_t j = 0; j < out.size(); ++j) {
    std::uint64_t v = slot[j].value >> off;
    // Touch the next slot only for bits this read needs: it may lie past
    // the cell. off > 0 here, so the shift stays below 64.
    if (off != 0 && off + std::min<std::size_t>(64, nbits - 64 * j) > 64)
      v |= slot[j + 1].value << (64 - off);
    out[j] = v;
  }
  return BitVector::from_words(std::move(out), nbits);
}

bool FlatInbox::carries(NodeId src, std::size_t nbits) const {
  if (slots_[src].off == detail::kRunSource)
    return words_from(src) == ceil_div(nbits, bandwidth_);
  std::size_t carried = 0;
  for (const Word& w : from(src)) carried += w.bits;
  return carried == nbits;
}

namespace detail {
namespace {

// Per-source totals computed during the deposit scan; the leader folds them
// in node-id order, so the meter never depends on scheduling.
struct NodeStats {
  std::uint64_t msgs = 0;     // words to other nodes (self excluded)
  std::uint64_t bits = 0;     // their total bit width
  std::uint64_t row_max = 0;  // longest non-self queue (rounds to drain)
};

#define CCQ_BANDWIDTH_CHECK(self, dst, w, bandwidth)                       \
  CCQ_CHECK_MSG((w).bits <= (bandwidth),                                   \
                "bandwidth violation: node " << (self) << " sent a "       \
                                             << (w).bits                   \
                                             << "-bit word to node "       \
                                             << (dst) << " but B = "       \
                                             << (bandwidth))

#define CCQ_RUN_DST_CHECK(self, dst, n)                                   \
  CCQ_CHECK_MSG((dst) < (n), "exchange: node " << (self)                  \
                                               << " sent a run to node "  \
                                               << (dst)                   \
                                               << ", out of range for n = " \
                                               << (n))

// ---------------------------------------------------------------------------
// FlatPlane: arena-backed counting-sort delivery.
//
// Deposits record a pointer to the node's outbox and fill the node's row of
// a [src][dst] histogram with metered words (validating bandwidth in the
// same scan). A broadcast deposit instead leaves its row all zero and
// records its length in a per-source slot: its words are stored once, and
// every receiver reads the same region. A bit-run deposit marks its slot's
// offset kRunSource; its (u, v) cell of m metered words takes ⌈m·B/64⌉
// arena slots of packed bits, every other cell one slot per word.
// The arena is laid out as
//
//   [ broadcast regions, in source-id order | inbox of dst 0 | dst 1 | ... ]
//
// Delivery runs entirely over persisted arrays:
//
//   1. fold per-source stats into the meter and give each broadcast source
//      its region offset, in id order (serial, O(n));
//   2. column sums → metered words per destination, and the slots packing
//      saves on them (parallel over destination chunks);
//   3. exclusive prefix over destinations, starting after the broadcast
//      regions → each destination's base slot in the shared arena, and
//      received_words (serial, O(n));
//   4. per-pair cursors: cursor[u][v] = base[v] + Σ_{u'<u} cell slots of
//      (u', v), i.e. where source u's cell for destination v starts
//      (parallel over destination chunks — each chunk walks its columns
//      top-down);
//   5. scatter: each pair source copies its words through its cursor row,
//      leaving every cursor one past the end of its cell; each run source
//      writes run i at cell bit (its metered-word offset) × B, zero-padded
//      to its last word's end, leaving cursors on the cells' first slots;
//      each broadcast source copies its words once into its region
//      (parallel over source chunks). FlatInbox recovers a word cell as
//      [cursor - count, cursor) and a run cell from its first slot.
//
// A collective in which every deposit is a broadcast touches no histogram
// block, so passes 2 and 4 are not dispatched at all: it costs O(n + words)
// instead of O(n² · L).
//
// Every parallel pass writes data partitioned by node id, and every serial
// reduction iterates in id order, so results are bit-identical for any
// worker count and any backend.
//
// Delivery is block-sparse: the [src][dst] histogram is tiled into
// kChunk×kChunk shard blocks, each deposit records which destination
// chunks its row touches (one bit per chunk), and deliver() folds the row
// masks into per-source-block masks. The column-sum and cursor passes then
// skip blocks no deposit touched, so a sparse collective (a ring exchange
// at n = 8192, say) costs O(touched blocks) instead of O(n²) histogram
// reads. Skipped cursor entries keep stale values — sound because their
// counts are zero and no FlatInbox reader touches the cursor of an empty
// cell. Mask invariant, on which all of this rests: a clear chunk bit
// implies every count in that chunk of the row is zero (bits may
// over-approximate the other way).
//
// The histogram, its touch masks and the source slots are
// double-buffered: a node may deposit for collective k+1 while a straggler
// still reads its collective-k inbox (whose FlatInbox dereferences the
// *delivered* histogram and slots), so deposits must not scribble on the
// buffers backing live inboxes. The arena, the cursors and the slots'
// offsets need no buffering: they are written only inside deliver(), which
// runs after every node has parked — no inbox from the previous collective
// can still be read.
// ---------------------------------------------------------------------------
class FlatPlane final : public MessagePlane {
 public:
  void init(NodeId n, unsigned bandwidth) override {
    n_ = n;
    bandwidth_ = bandwidth;
    parity_ = 0;
    read_parity_ = 0;
    const std::size_t nn = static_cast<std::size_t>(n) * n;
    counts_[0].assign(nn, 0);
    counts_[1].assign(nn, 0);
    cursor_.assign(nn, 0);
    col_base_.assign(static_cast<std::size_t>(n) + 1, 0);
    col_saved_.assign(n, 0);
    stats_.assign(n, {});
    deposits_.assign(n, {});
    run_offsets_.resize(n);
    mask_words_ = (num_chunks() + 63) / 64;
    touch_[0].assign(static_cast<std::size_t>(n) * mask_words_, 0);
    touch_[1].assign(static_cast<std::size_t>(n) * mask_words_, 0);
    block_touch_.assign(num_chunks() * mask_words_, 0);
    slots_[0].assign(n, {});
    slots_[1].assign(n, {});
  }

  void deposit_runs(NodeId self, std::span<const BitRun> runs) override {
    std::uint32_t* cnt = row(self);
    std::uint64_t* m = mask(self);
    // Zero only the chunks this row touched the last time it used this
    // buffer (the mask invariant says the rest already are).
    clear_touched(cnt, m);
    // A run of L bits is metered as its encode_bits framing: ⌈L/B⌉ words
    // carrying L bits, none wider than B. Its cell offset is the words
    // queued to its destination before it.
    std::vector<std::uint32_t>& offs = run_offsets_[self];
    offs.resize(runs.size());
    NodeStats s;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const BitRun& r = runs[i];
      CCQ_RUN_DST_CHECK(self, r.dst, n_);
      const std::size_t len = r.bits->size();
      // Guard before the narrowing cast: a pair queue of 2^32 or more words
      // would wrap the histogram entry and slip past deliver()'s
      // arena-size check.
      const std::uint64_t q = cnt[r.dst] + ceil_div(len, bandwidth_);
      CCQ_CHECK_MSG(q <= 0xffffffffull,
                    "queue to node " << r.dst << " exceeds 2^32 words");
      offs[i] = cnt[r.dst];
      if (len == 0) continue;
      cnt[r.dst] = static_cast<std::uint32_t>(q);
      set_touch(m, r.dst);  // self runs live in the arena too
      if (r.dst == self) continue;  // self-delivery is free
      s.msgs += q - offs[i];
      s.bits += len;
      s.row_max = std::max(s.row_max, q);
    }
    stats_[self] = s;
    slot(self) = {kRunSource, 0};
    deposits_[self] =
        Deposit{Deposit::kRuns, runs.data(), nullptr, nullptr, runs.size()};
  }

  void deposit_pairs(NodeId self,
                     std::span<const std::pair<NodeId, Word>> out,
                     bool unique_dst) override {
    // Per-destination counts are bounded by the deposit size, so one check
    // keeps every histogram increment below the uint32 wrap.
    CCQ_CHECK_MSG(out.size() <= 0xffffffffull,
                  "deposit exceeds 2^32 words");
    std::uint32_t* cnt = row(self);
    std::uint64_t* m = mask(self);
    // Zero only the chunks this row touched the last time it used this
    // buffer (the mask invariant says the rest already are) — a sparse
    // deposit costs O(sends + touched chunks), not O(n).
    clear_touched(cnt, m);
    NodeStats s;
    for (const auto& [dst, w] : out) {
      if (unique_dst) {
        CCQ_CHECK_MSG(dst < n_, "round(): destination out of range");
        CCQ_CHECK_MSG(dst != self, "round(): no self-messages in round()");
        CCQ_CHECK_MSG(cnt[dst] == 0,
                      "round(): at most one word per destination per round");
      } else {
        CCQ_CHECK_MSG(dst < n_, "exchange_flat: destination out of range");
      }
      ++cnt[dst];
      set_touch(m, dst);
      if (dst != self) {
        CCQ_BANDWIDTH_CHECK(self, dst, w, bandwidth_);
        s.bits += w.bits;
        s.msgs += 1;
        s.row_max = std::max<std::uint64_t>(s.row_max, cnt[dst]);
      }
    }
    stats_[self] = s;
    slot(self) = {};  // not a broadcast
    deposits_[self] =
        Deposit{Deposit::kPairs, nullptr, out.data(), nullptr, out.size()};
  }

  void deposit_broadcast(NodeId self, std::span<const Word> words) override {
    std::uint64_t wbits = 0;
    for (const Word& w : words) {
      CCQ_CHECK_MSG(w.bits <= bandwidth_,
                    "bandwidth violation: node "
                        << self << " broadcast a " << w.bits
                        << "-bit word but B = " << bandwidth_);
      wbits += w.bits;
    }
    CCQ_CHECK_MSG(words.size() <= 0xffffffffull,
                  "broadcast exceeds 2^32 words");
    const std::uint32_t k = static_cast<std::uint32_t>(words.size());
    // The words go once into the arena's broadcast region, not through this
    // row: leave the row all zero and its mask clear, so passes 2 and 4
    // skip it and FlatInbox::from reads the slot instead.
    clear_touched(row(self), mask(self));
    slot(self) = {0, k};
    NodeStats s;
    if (n_ > 1 && k > 0) {
      s.msgs = static_cast<std::uint64_t>(n_ - 1) * k;
      s.bits = static_cast<std::uint64_t>(n_ - 1) * wbits;
      s.row_max = k;
    }
    stats_[self] = s;
    deposits_[self] =
        Deposit{Deposit::kBcast, nullptr, nullptr, words.data(), words.size()};
  }

  void deliver(Scheduler& sched, DeliveryAccounting& acc) override {
    const std::uint32_t* cnt = counts_[parity_].data();
    SourceSlot* bc = slots_[parity_].data();
    // Pass 1: the meter, and the broadcast regions in source-id order at
    // the front of the arena (a run source's offset keeps its mark).
    std::uint64_t bcast_words = 0;
    for (NodeId u = 0; u < n_; ++u) {
      const NodeStats& s = stats_[u];
      acc.max_queue = std::max(acc.max_queue, s.row_max);
      acc.messages += s.msgs;
      acc.bits += s.bits;
      acc.sent_words[u] += s.msgs;
      if (bc[u].len == 0) continue;
      // Truncation past 2^32 is caught by the arena-size check below,
      // before any offset is used.
      bc[u].off = static_cast<std::uint32_t>(bcast_words);
      bcast_words += bc[u].len;
    }

    const std::size_t chunks = num_chunks();
    // Pass 1.5: fold the per-source touch masks into per-source-block masks
    // (OR over each kChunk-source block). Serial and O(n · maskwords) —
    // cheap next to what it lets passes 2 and 4 skip.
    std::uint64_t touched = 0;
    {
      std::fill(block_touch_.begin(), block_touch_.end(), std::uint64_t{0});
      const std::uint64_t* tm = touch_[parity_].data();
      for (NodeId u = 0; u < n_; ++u) {
        std::uint64_t* bt = block_touch_.data() + (u / kChunk) * mask_words_;
        const std::uint64_t* rm = tm + static_cast<std::size_t>(u) * mask_words_;
        for (std::size_t i = 0; i < mask_words_; ++i) {
          bt[i] |= rm[i];
          touched |= rm[i];
        }
      }
    }

    // Pass 2: column sums, chunked by destination; source blocks that
    // deposited nothing for this destination chunk are skipped wholesale
    // (the shard×shard block-sparse walk), and with no touched block at all
    // (every deposit a broadcast, or nothing sent) so is the dispatch.
    std::fill(col_base_.begin(), col_base_.end(), std::uint64_t{0});
    std::fill(col_saved_.begin(), col_saved_.end(), std::uint64_t{0});
    if (touched != 0) {
      sched.leader_parallel_for(chunks, [&](std::size_t c) {
        const NodeId v0 = chunk_begin(c), v1 = chunk_end(c);
        const std::size_t cw = c >> 6;
        const std::uint64_t cb = std::uint64_t{1} << (c & 63);
        for (std::size_t b = 0; b < chunks; ++b) {
          if (!(block_touch_[b * mask_words_ + cw] & cb)) continue;
          const NodeId u0 = chunk_begin(b), u1 = chunk_end(b);
          for (NodeId u = u0; u < u1; ++u) {
            const std::uint32_t* r = cnt + static_cast<std::size_t>(u) * n_;
            for (NodeId v = v0; v < v1; ++v) col_base_[v + 1] += r[v];
            if (bc[u].off != kRunSource) continue;
            for (NodeId v = v0; v < v1; ++v)
              col_saved_[v] += r[v] - cell_slots(r[v]);
          }
        }
      });
    }

    // Pass 3: exclusive prefix → per-destination arena base, after the
    // broadcast regions. Before the prefix folds it away, col_base_[v + 1]
    // is still v's raw column sum of metered words, so v's received words
    // (self cell and own broadcast excluded) and the receiver-side max fall
    // out for free; the prefix itself adds v's slots.
    col_base_[0] = bcast_words;
    for (NodeId v = 0; v < n_; ++v) {
      const std::uint64_t in = col_base_[v + 1] -
                               cnt[static_cast<std::size_t>(v) * n_ + v] +
                               bcast_words - bc[v].len;
      acc.received_words[v] += in;
      acc.max_node_in = std::max(acc.max_node_in, in);
      col_base_[v + 1] += col_base_[v] - col_saved_[v];
    }
    const std::uint64_t total = col_base_[n_];
    CCQ_CHECK_MSG(total <= 0xffffffffull,
                  "collective exceeds 2^32 arena slots");
    if (arena_.size() < total) arena_.resize(total);

    // Pass 4: per-pair start cursors, chunked by destination. Each chunk
    // keeps a running cursor per column (seeded from the arena bases) and
    // walks only the touched source blocks top-down. An untouched block's
    // counts are all zero (mask invariant), so the running cursors pass over
    // it unchanged; its cursor entries keep stale values, which are never
    // read (no FlatInbox reader touches an empty cell's cursor).
    if (touched != 0) {
      sched.leader_parallel_for(chunks, [&](std::size_t c) {
        const NodeId v0 = chunk_begin(c), v1 = chunk_end(c);
        const std::size_t cw = c >> 6;
        const std::uint64_t cb = std::uint64_t{1} << (c & 63);
        std::uint32_t run[kChunk];
        for (NodeId v = v0; v < v1; ++v) {
          run[v - v0] = static_cast<std::uint32_t>(col_base_[v]);
        }
        for (std::size_t b = 0; b < chunks; ++b) {
          if (!(block_touch_[b * mask_words_ + cw] & cb)) continue;
          const NodeId u0 = chunk_begin(b), u1 = chunk_end(b);
          for (NodeId u = u0; u < u1; ++u) {
            const std::size_t base = static_cast<std::size_t>(u) * n_;
            if (bc[u].off == kRunSource) {
              for (NodeId v = v0; v < v1; ++v) {
                cursor_[base + v] = run[v - v0];
                run[v - v0] += cell_slots(cnt[base + v]);
              }
            } else {
              for (NodeId v = v0; v < v1; ++v) {
                cursor_[base + v] = run[v - v0];
                run[v - v0] += cnt[base + v];
              }
            }
          }
        }
      });
    }

    // Pass 5: scatter, chunked by source; word-cell cursors finish one past
    // the end of each cell, and each broadcast lands once in its region.
    sched.leader_parallel_for(chunks, [&](std::size_t c) {
      const NodeId u0 = chunk_begin(c), u1 = chunk_end(c);
      for (NodeId u = u0; u < u1; ++u) scatter(u);
    });

    read_parity_ = parity_;
    parity_ ^= 1;
  }

  FlatInbox inbox(NodeId self) override {
    return FlatInboxAccess::flat(arena_.data(), cursor_.data(),
                                 counts_[read_parity_].data(),
                                 slots_[read_parity_].data(), self, n_,
                                 bandwidth_);
  }

 private:
  struct Deposit {
    enum Kind : std::uint8_t { kRuns, kPairs, kBcast } kind = kRuns;
    const BitRun* runs = nullptr;
    const std::pair<NodeId, Word>* pairs = nullptr;
    const Word* bcast = nullptr;
    std::size_t count = 0;  // runs / pairs / broadcast words
  };

  static constexpr NodeId kChunk = 32;  // nodes per parallel chunk
  std::size_t num_chunks() const { return (n_ + kChunk - 1) / kChunk; }
  NodeId chunk_begin(std::size_t c) const {
    return static_cast<NodeId>(c * kChunk);
  }
  NodeId chunk_end(std::size_t c) const {
    return static_cast<NodeId>(
        std::min<std::size_t>(n_, (c + 1) * kChunk));
  }
  std::uint32_t* row(NodeId u) {
    return counts_[parity_].data() + static_cast<std::size_t>(u) * n_;
  }
  std::uint64_t* mask(NodeId u) {
    return touch_[parity_].data() + static_cast<std::size_t>(u) * mask_words_;
  }
  SourceSlot& slot(NodeId u) { return slots_[parity_][u]; }
  /// Arena slots of a run cell of `words` metered words: ⌈words·B/64⌉.
  std::uint64_t cell_slots(std::uint32_t words) const {
    return (std::uint64_t{words} * bandwidth_ + 63) >> 6;
  }
  static void set_touch(std::uint64_t* m, NodeId dst) {
    const std::size_t c = dst / kChunk;
    m[c >> 6] |= std::uint64_t{1} << (c & 63);
  }
  /// Zero exactly the count chunks the mask marks, then the mask itself —
  /// restoring the invariant "clear bit ⇒ all-zero chunk" for this row.
  void clear_touched(std::uint32_t* cnt, std::uint64_t* m) {
    for (std::size_t w = 0; w < mask_words_; ++w) {
      std::uint64_t bits = m[w];
      m[w] = 0;
      while (bits != 0) {
        const auto b = static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::size_t c = (w << 6) + b;
        std::fill_n(cnt + chunk_begin(c),
                    static_cast<std::size_t>(chunk_end(c) - chunk_begin(c)),
                    std::uint32_t{0});
      }
    }
  }

  /// Writes the bits of `bits` at cell bit `pos` of the run cell starting
  /// at slot `cell`, zero-padded to `span` bits: the run's ⌈L/B⌉ metered
  /// words. Runs of one cell are written in cell order, so the slot a run
  /// starts inside already holds its predecessor's bits below `pos`, and
  /// every slot above is written whole.
  void put_run(Word* cell, std::size_t pos, const BitVector& bits,
               std::size_t span) {
    Word* slot = cell + (pos >> 6);
    const unsigned off = pos & 63;
    const std::uint64_t* src = bits.words().data();
    const std::size_t nsrc = bits.word_count();
    const std::size_t nslots = (off + span + 63) >> 6;
    // Bits past bits.size() in its last word are zero (BitVector trims).
    if (off == 0) {
      for (std::size_t j = 0; j < nslots; ++j)
        slot[j].value = j < nsrc ? src[j] : 0;
      return;
    }
    std::uint64_t carry = slot[0].value & ((std::uint64_t{1} << off) - 1);
    for (std::size_t j = 0; j < nslots; ++j) {
      const std::uint64_t w = j < nsrc ? src[j] : 0;
      slot[j].value = carry | (w << off);
      carry = w >> (64 - off);
    }
  }

  void scatter(NodeId u) {
    std::uint32_t* cur = cursor_.data() + static_cast<std::size_t>(u) * n_;
    Word* arena = arena_.data();
    const Deposit& d = deposits_[u];
    switch (d.kind) {
      case Deposit::kRuns: {
        const std::uint32_t* offs = run_offsets_[u].data();
        for (std::size_t i = 0; i < d.count; ++i) {
          const BitRun& r = d.runs[i];
          const std::size_t len = r.bits->size();
          if (len == 0) continue;
          put_run(arena + cur[r.dst], std::size_t{offs[i]} * bandwidth_,
                  *r.bits, ceil_div(len, bandwidth_) * bandwidth_);
        }
        break;
      }
      case Deposit::kPairs:
        for (std::size_t i = 0; i < d.count; ++i) {
          arena[cur[d.pairs[i].first]++] = d.pairs[i].second;
        }
        break;
      case Deposit::kBcast:
        std::copy(d.bcast, d.bcast + d.count, arena + slots_[parity_][u].off);
        break;
    }
  }

  NodeId n_ = 0;
  unsigned bandwidth_ = 0;
  int parity_ = 0;       // histogram buffer receiving deposits
  int read_parity_ = 0;  // histogram buffer backing delivered inboxes
  std::vector<Deposit> deposits_;
  std::vector<NodeStats> stats_;
  std::vector<std::uint32_t> counts_[2];  // [src * n + dst], double-buffered
  std::vector<std::uint32_t> cursor_;     // [src * n + dst]
  std::vector<std::uint64_t> col_base_;   // [n + 1] arena base per dst
  std::vector<std::uint64_t> col_saved_;  // [n] slots packing saves per dst
  std::vector<Word> arena_;               // shared flat inbox storage
  // [src][i]: run i's metered-word offset in its cell, set at deposit.
  std::vector<std::vector<std::uint32_t>> run_offsets_;
  // Block-sparse tiling (see class comment): per-row destination-chunk
  // touch masks, double-buffered in lockstep with counts_, plus the
  // per-source-block fold deliver() rebuilds each collective.
  std::size_t mask_words_ = 0;              // ceil(num_chunks / 64)
  std::vector<std::uint64_t> touch_[2];     // [src * mask_words + w]
  std::vector<std::uint64_t> block_touch_;  // [src_chunk * mask_words + w]
  // Per-source slots, double-buffered in lockstep with counts_: deposits
  // write them, deliver() a broadcast's offset.
  std::vector<SourceSlot> slots_[2];  // [src]
};

#undef CCQ_BANDWIDTH_CHECK
#undef CCQ_RUN_DST_CHECK

}  // namespace

std::unique_ptr<MessagePlane> make_message_plane() {
  return std::make_unique<FlatPlane>();
}

}  // namespace detail
}  // namespace ccq
