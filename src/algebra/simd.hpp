#pragma once

// ccq::simd — runtime-dispatched vector micro-kernels for the local-compute
// layer (DESIGN.md §16).
//
// The congested-clique cost model charges communication only, so every
// local-compute speedup lands 1:1 on end-to-end wall-clock without moving a
// single CostMeter counter. This layer vectorizes the inner loops that some
// schedule actually runs — the (min,+) saturation row update of APSP's block
// products, the OR-select and first-common-word scans behind BitMatrix, and
// the 1-bit Boolean entry codec of the block MM schedules — behind a
// *runtime* CPU-feature dispatch:
//
//  * detected() probes the CPU once (AVX2 + POPCNT on x86-64; anything else
//    is kScalar). Binaries are portable: the vector bodies are compiled with
//    per-function target attributes, never with a global -mavx2, so a scalar
//    host never executes an illegal instruction.
//  * active() = detected() ∩ the CCQ_SIMD env override (off/0/scalar forces
//    the scalar path; on/1/auto/unset means "use what the CPU has"; any
//    other value throws — same strict-parse contract as util/env.hpp).
//  * force()/clear_force() let tests and benches pin a level to compare the
//    two paths in one process; forcing above detected() clamps.
//
// Determinism contract: every kernel here is bit-for-bit identical to its
// scalar fallback on every input. That is free for the bit ops (OR/AND are
// associative and commutative over words) and holds for the (min,+) row
// update because the per-entry fold is independent across j — the vector
// path changes *which lanes* compute in parallel, never the fold order of
// any single output entry. The packing path reproduces the exact LSB-first
// layout of the scalar writer and falls back (returning false) rather than
// weaken any range check.

#include <cstddef>
#include <cstdint>
#include <optional>

namespace ccq::simd {

/// Vector instruction tier. Higher levels strictly extend lower ones.
enum class Level : int { kScalar = 0, kAvx2 = 1 };

/// "scalar" / "avx2" — stable names for logs and bench JSON.
const char* level_name(Level level);

/// Highest level this CPU (and this build) supports. Probed once.
Level detected() noexcept;

/// Parse a CCQ_SIMD-style override: nullopt means "auto" (use detected());
/// kScalar for off/0/scalar. Throws ModelViolation on anything else.
std::optional<Level> parse_level(const char* text);

/// Level the kernels dispatch on: force() override if set, else the
/// CCQ_SIMD env policy (read once) clamped to detected().
Level active();

/// Pin the dispatch level (test/bench hook); clamped to detected() so a
/// scalar host can never be forced onto vector code.
void force(Level level) noexcept;
void clear_force() noexcept;

// ---- (min,+) row update ---------------------------------------------------

/// c[j] = min(c[j], aik + b[j]) for j in [0, n). Callers must have verified
/// the saturation domain (kernels::detail::minplus_in_domain): every entry
/// ≤ MinPlusSemiring::infinity() < 2^62, so sums stay below 2^63 and the
/// vector path's signed 64-bit compare agrees with the scalar unsigned one.
void minplus_row(std::uint64_t* c, std::uint64_t aik, const std::uint64_t* b,
                 std::size_t n);

// ---- BitMatrix word-row ops -----------------------------------------------

/// out[t] = OR over s of base[ks[s]·stride + t], t in [0, nwords) — the
/// bit_mm inner step: OR the selected b word-rows into one output row,
/// accumulating in registers chunk by chunk.
void or_select_rows(const std::uint64_t* base, std::size_t stride,
                    const std::uint32_t* ks, std::size_t nks,
                    std::uint64_t* out, std::size_t nwords);

/// Smallest w in [from, nwords) with a[w] & b[w] ≠ 0, else nwords — the
/// word scan behind bit_first_common.
std::size_t first_common_word(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t from, std::size_t nwords);

// ---- 1-bit Boolean entry codec --------------------------------------------
//
// pack_entries/unpack_entries (algebra/distributed_mm.hpp) route Boolean
// entries at entry_bits 1 here. Both return false when they did NOT produce
// the result — because the active level is scalar or (pack) a byte is out of
// range — and the caller must fall back to its generic path (which re-checks
// every entry and throws the canonical range error). On success the output
// is bit-for-bit the generic path's. `words` must be zero-initialised.

/// Pack `count` bytes ∈ {0, 1} at 1 bit per entry, LSB-first.
bool pack_bits_u8(const std::uint8_t* values, std::size_t count,
                  std::uint64_t* words);

/// Inverse of pack_bits_u8: expand `count` bits to one byte each.
bool unpack_bits_u8(const std::uint64_t* words, std::size_t count,
                    std::uint8_t* out);

}  // namespace ccq::simd
