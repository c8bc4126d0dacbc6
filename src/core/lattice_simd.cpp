#include "core/lattice_simd.hpp"

#include <algorithm>
#include <atomic>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define FEDSHARE_X86 1
#else
#define FEDSHARE_X86 0
#endif

namespace fedshare::game::simd {

namespace {

std::atomic<Mode> g_mode{Mode::kAuto};

// Products per marginal tile: vector-compute the tile, then accumulate
// it scalar in order. Small enough to stay in L1 alongside the source
// runs.
constexpr std::uint64_t kMarginalTile = 512;

inline std::uint64_t lo_of_pair(std::uint64_t p, int bit) noexcept {
  const std::uint64_t low = p & ((std::uint64_t{1} << bit) - 1);
  return ((p >> bit) << (bit + 1)) | low;
}

bool detect_avx2() noexcept {
#if FEDSHARE_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool use_vector() noexcept {
  switch (g_mode.load(std::memory_order_relaxed)) {
    case Mode::kForceScalar: return false;
    case Mode::kForceSimd: return cpu_has_avx2();
    case Mode::kAuto: break;
  }
  return cpu_has_avx2();
}

// True when the run-decomposed kernel shape should be used at all
// (kForceSimd without AVX2 still runs it, with scalar arithmetic).
bool use_runs() noexcept {
  switch (g_mode.load(std::memory_order_relaxed)) {
    case Mode::kForceScalar: return false;
    case Mode::kForceSimd: return true;
    case Mode::kAuto: break;
  }
  return cpu_has_avx2();
}

// ---- scalar reference bodies ------------------------------------------

void sub_pass_scalar(double* values, std::uint64_t begin, std::uint64_t end,
                     int bit) {
  const std::uint64_t step = std::uint64_t{1} << bit;
  for (std::uint64_t p = begin; p < end; ++p) {
    const std::uint64_t lo = lo_of_pair(p, bit);
    values[lo | step] -= values[lo];
  }
}

double marginal_scalar(const double* v, int num_players, int i,
                       const double* wvec, double scale) {
  const std::uint64_t half = std::uint64_t{1} << (num_players - 1);
  const std::uint64_t bit = std::uint64_t{1} << i;
  double acc = 0.0;
  for (std::uint64_t u = 0; u < half; ++u) {
    const std::uint64_t mask = lo_of_pair(u, i);
    const double w = wvec != nullptr ? wvec[u] : scale;
    acc += w * (v[mask | bit] - v[mask]);
  }
  return acc;
}

// ---- run bodies (contiguous lo/hi, bit >= 2) --------------------------

#if FEDSHARE_X86
__attribute__((target("avx2"))) void sub_run_avx2(double* hi,
                                                  const double* lo,
                                                  std::uint64_t len) {
  std::uint64_t j = 0;
  for (; j + 4 <= len; j += 4) {
    const __m256d a = _mm256_loadu_pd(hi + j);
    const __m256d b = _mm256_loadu_pd(lo + j);
    _mm256_storeu_pd(hi + j, _mm256_sub_pd(a, b));
  }
  for (; j < len; ++j) hi[j] -= lo[j];
}

// t[j] = w[j] * (hi[j] - lo[j]) — explicit sub then mul, never FMA: the
// scalar loop performs two roundings per element and contraction would
// skip one.
__attribute__((target("avx2"))) void marginal_tile_avx2(
    const double* hi, const double* lo, const double* w, double* t,
    std::uint64_t len) {
  std::uint64_t j = 0;
  for (; j + 4 <= len; j += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(hi + j),
                                    _mm256_loadu_pd(lo + j));
    _mm256_storeu_pd(t + j, _mm256_mul_pd(_mm256_loadu_pd(w + j), d));
  }
  for (; j < len; ++j) t[j] = w[j] * (hi[j] - lo[j]);
}

__attribute__((target("avx2"))) void marginal_tile_const_avx2(
    const double* hi, const double* lo, double scale, double* t,
    std::uint64_t len) {
  const __m256d ws = _mm256_set1_pd(scale);
  std::uint64_t j = 0;
  for (; j + 4 <= len; j += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(hi + j),
                                    _mm256_loadu_pd(lo + j));
    _mm256_storeu_pd(t + j, _mm256_mul_pd(ws, d));
  }
  for (; j < len; ++j) t[j] = scale * (hi[j] - lo[j]);
}
#endif  // FEDSHARE_X86

void sub_run(double* hi, const double* lo, std::uint64_t len, bool vec) {
#if FEDSHARE_X86
  if (vec) {
    sub_run_avx2(hi, lo, len);
    return;
  }
#else
  (void)vec;
#endif
  for (std::uint64_t j = 0; j < len; ++j) hi[j] -= lo[j];
}

void marginal_tile(const double* hi, const double* lo, const double* w,
                   double scale, double* t, std::uint64_t len, bool vec) {
#if FEDSHARE_X86
  if (vec) {
    if (w != nullptr) {
      marginal_tile_avx2(hi, lo, w, t, len);
    } else {
      marginal_tile_const_avx2(hi, lo, scale, t, len);
    }
    return;
  }
#else
  (void)vec;
#endif
  if (w != nullptr) {
    for (std::uint64_t j = 0; j < len; ++j) t[j] = w[j] * (hi[j] - lo[j]);
  } else {
    for (std::uint64_t j = 0; j < len; ++j) t[j] = scale * (hi[j] - lo[j]);
  }
}

template <typename RunFn>
void pass_by_runs(double* values, std::uint64_t begin, std::uint64_t end,
                  int bit, const RunFn& run) {
  // Pairs sharing p >> bit have contiguous lo slots; a run covers the
  // pairs [q * step, (q+1) * step) clipped to [begin, end).
  const std::uint64_t step = std::uint64_t{1} << bit;
  std::uint64_t p = begin;
  while (p < end) {
    const std::uint64_t run_end = std::min(end, ((p >> bit) + 1) << bit);
    double* lo = values + lo_of_pair(p, bit);
    run(lo + step, lo, run_end - p);
    p = run_end;
  }
}

}  // namespace

void set_mode(Mode mode) noexcept {
  g_mode.store(mode, std::memory_order_relaxed);
}

Mode mode() noexcept { return g_mode.load(std::memory_order_relaxed); }

bool cpu_has_avx2() noexcept {
  static const bool has = detect_avx2();
  return has;
}

void sub_pass(double* values, std::uint64_t begin, std::uint64_t end,
              int bit) {
  if (bit < 2 || !use_runs()) {
    sub_pass_scalar(values, begin, end, bit);
    return;
  }
  const bool vec = use_vector();
  pass_by_runs(values, begin, end, bit,
               [&](double* hi, const double* lo, std::uint64_t len) {
                 sub_run(hi, lo, len, vec);
               });
}

double marginal_sum(const double* v, int num_players, int i,
                    const double* wvec, double scale) {
  if (i < 2 || !use_runs()) {
    return marginal_scalar(v, num_players, i, wvec, scale);
  }
  const bool vec = use_vector();
  const std::uint64_t half = std::uint64_t{1} << (num_players - 1);
  const std::uint64_t step = std::uint64_t{1} << i;
  double tile[kMarginalTile];
  double acc = 0.0;
  std::uint64_t u = 0;
  while (u < half) {
    // Runs are whole multiples of the tile here (step >= 4 and the tile
    // divides step or vice versa), but clip generically anyway.
    const std::uint64_t run_end = std::min(half, ((u >> i) + 1) << i);
    const double* lo = v + lo_of_pair(u, i);
    const double* hi = lo + step;
    std::uint64_t off = 0;
    const std::uint64_t run_len = run_end - u;
    while (off < run_len) {
      const std::uint64_t len = std::min(kMarginalTile, run_len - off);
      marginal_tile(hi + off, lo + off,
                    wvec != nullptr ? wvec + u + off : nullptr, scale, tile,
                    len, vec);
      // Strict ascending accumulation: the scalar loop's exact order.
      for (std::uint64_t j = 0; j < len; ++j) acc += tile[j];
      off += len;
    }
    u = run_end;
  }
  return acc;
}

}  // namespace fedshare::game::simd
