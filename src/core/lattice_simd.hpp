// Runtime-dispatched SIMD kernels for the subset-lattice hot loops.
//
// Two shapes dominate core/lattice.cpp: the Moebius pair pass
// (hi -= lo over all pairs of a bit) and the Shapley/Banzhaf marginal
// sums (acc += w * (v[hi] - v[lo]) over all pairs of a player's bit).
// Both are legal to vectorize under the repo's bitwise-determinism
// contract:
//
//  * Pair passes: within one bit pass every slot belongs to exactly one
//    (lo, hi) pair, so the per-slot update `hi -= lo` is independent of
//    every other slot's — vector lanes only interleave *independent*
//    operations and never reorder any slot's own FP sequence.
//  * Marginal sums: the per-pair product w * (v[hi] - v[lo]) is one
//    subtraction then one multiplication per element (no FMA — fusing
//    would drop a rounding step the scalar loop performs); products are
//    computed into a tile and then accumulated scalar in ascending pair
//    order, which is the scalar loop's exact addition sequence.
//
// For bit >= 2 the lo slots of consecutive pairs form contiguous runs
// of length 2^bit (hi runs shifted by 2^bit), so plain vector loads
// suffice; bits 0 and 1 stay scalar (runs too short to vectorize).
//
// Dispatch: AVX2 paths are compiled behind __attribute__((target)) and
// selected at runtime via CPU detection. Mode overrides exist for tests
// (kForceScalar / kForceSimd run both code paths on any host; forcing
// SIMD without AVX2 exercises the run-decomposed kernels with scalar
// arithmetic — identical results by the argument above).
#pragma once

#include <cstdint>

namespace fedshare::game::simd {

enum class Mode {
  kAuto,         ///< use AVX2 when the CPU supports it (default)
  kForceScalar,  ///< always the scalar reference loops
  kForceSimd,    ///< always the run-decomposed kernels (vector when able)
};

/// Overrides kernel dispatch process-wide (atomic; tests only).
void set_mode(Mode mode) noexcept;
[[nodiscard]] Mode mode() noexcept;

/// True when this process can execute the AVX2 paths.
[[nodiscard]] bool cpu_has_avx2() noexcept;

/// Moebius pair pass over pair indices [begin, end) of `bit`:
/// values[lo | 2^bit] -= values[lo], each pair independent.
void sub_pass(double* values, std::uint64_t begin, std::uint64_t end,
              int bit);

/// Weighted marginal sum for player `i` over all 2^(n-1) pairs:
/// sum_u wvec[u] * (v[lo_u | 2^i] - v[lo_u]) accumulated in ascending
/// pair order — bitwise the scalar marginal loop. `wvec` holds one
/// weight per pair index (for Shapley, weight[popcount(u)] — popcount
/// is invariant under the zero-bit insertion, so one table serves every
/// player); pass nullptr to use the constant `scale` (Banzhaf).
[[nodiscard]] double marginal_sum(const double* v, int num_players, int i,
                                  const double* wvec, double scale);

}  // namespace fedshare::game::simd
