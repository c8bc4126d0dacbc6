// Flat memo table for coalition values.
//
// A ValueCache maps small dense integer keys — a coalition bitmask below
// 2^n, a serve slot mask below 2^kMaxFacilities, or an orbit id — to
// V(S) so that each coalition's characteristic-function evaluation (an
// allocation in the paper's model) is computed once per table and then
// shared by every consumer: tabulation, the symmetry oracle, and the
// schemes that read the tabulated game.
//
// Layout: the key space [0, capacity) is fixed at construction. Values
// live in an array indexed by key and presence in a bitmap, both in
// atomic words. store() writes the value and then sets the presence
// bit (release); lookup() tests the bit (acquire) and then reads the
// value, so a reader that sees the bit sees the value. Two threads
// racing to materialise one key both compute and both store; that is
// harmless because the characteristic function is deterministic.
// invalidate_if() clears presence bits word by word, so a reader
// racing it sees either the value or a miss.
//
// Budget accounting (see runtime/budget.hpp "charging rule"): a hit is
// free; a miss charges one unit before computing, so one distinct
// coalition costs exactly one unit no matter how many schemes later
// re-read it.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "runtime/budget.hpp"

namespace fedshare::exec {

/// A snapshot of a cache's counters (each an atomic read, so the set is
/// exact once the cache is quiescent).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;  ///< entries dropped by invalidate_if
  std::size_t entries = 0;          ///< distinct keys currently cached
  /// hits / (hits + misses); 0 when nothing was looked up yet.
  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Thread-safe memo of double values keyed by an integer in
/// [0, capacity). A key outside that range throws std::out_of_range.
class ValueCache {
 public:
  explicit ValueCache(std::uint64_t capacity);

  ValueCache(const ValueCache&) = delete;
  ValueCache& operator=(const ValueCache&) = delete;

  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }

  /// The cached value for `key`, if materialised. Not counted.
  [[nodiscard]] std::optional<double> lookup(std::uint64_t key) const {
    check(key);
    if ((present_[key / 64].load(std::memory_order_acquire) >> (key % 64) &
         1) == 0) {
      return std::nullopt;
    }
    return values_[key].load(std::memory_order_relaxed);
  }

  /// Stores `value` for `key`; a store to a present key is a no-op
  /// (values are deterministic, so the present value is the right one).
  void store(std::uint64_t key, double value) {
    if (lookup(key)) return;
    values_[key].store(value, std::memory_order_relaxed);
    present_[key / 64].fetch_or(std::uint64_t{1} << (key % 64),
                                std::memory_order_release);
  }

  /// Returns the cached value for `key`, computing it with `compute()`
  /// and storing it on a miss. Counts one hit or one miss per call.
  template <typename Fn>
  double value_or_compute(std::uint64_t key, Fn&& compute) {
    if (const auto cached = lookup(key)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return *cached;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    const double value = compute();
    store(key, value);
    return value;
  }

  /// Budget-aware variant implementing the charging rule directly: a
  /// hit is free; a miss charges `budget` one unit *before* computing
  /// and returns nullopt if the charge trips.
  template <typename Fn>
  std::optional<double> value_or_compute_budgeted(
      std::uint64_t key, const runtime::ComputeBudget& budget,
      Fn&& compute) {
    if (const auto cached = lookup(key)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return *cached;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (!budget.charge()) return std::nullopt;
    const double value = compute();
    store(key, value);
    return value;
  }

  /// Drops every cached entry whose key satisfies `pred` and returns
  /// how many were dropped (also added to the invalidation counter).
  /// This is the churn API: an event touching facility slot s calls
  /// invalidate_if([&](auto mask) { return mask >> s & 1; }) so only the
  /// affected slice of the lattice is recomputed. `pred` runs once per
  /// present key; each bitmap word is cleared with one atomic and-not.
  template <typename Pred>
  std::size_t invalidate_if(Pred&& pred) {
    std::size_t dropped = 0;
    for (std::uint64_t w = 0; w < words_; ++w) {
      std::uint64_t bits = present_[w].load(std::memory_order_acquire);
      std::uint64_t drop = 0;
      for (; bits != 0; bits &= bits - 1) {
        const int bit = std::countr_zero(bits);
        if (pred(w * 64 + static_cast<std::uint64_t>(bit))) {
          drop |= std::uint64_t{1} << bit;
        }
      }
      if (drop == 0) continue;
      const std::uint64_t before =
          present_[w].fetch_and(~drop, std::memory_order_acq_rel);
      dropped += static_cast<std::size_t>(std::popcount(before & drop));
    }
    invalidations_.fetch_add(dropped, std::memory_order_relaxed);
    return dropped;
  }

  /// Every cached (key, value) pair in ascending key order. Intended for
  /// checkpointing: deterministic for a quiescent cache.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, double>>
  export_entries() const;

  /// Number of distinct keys materialised.
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Entries dropped by invalidate_if since construction (or clear()).
  [[nodiscard]] std::uint64_t invalidations() const noexcept {
    return invalidations_.load(std::memory_order_relaxed);
  }

  /// Counter snapshot (hits, misses, invalidations, live entries).
  [[nodiscard]] CacheStats stats() const;

  /// Drops every entry and resets the statistics.
  void clear();

 private:
  void check(std::uint64_t key) const {
    if (key >= capacity_) {
      throw std::out_of_range("ValueCache: key outside the table");
    }
  }

  std::uint64_t capacity_;
  std::uint64_t words_;  // presence words: ceil(capacity / 64)
  std::unique_ptr<std::atomic<double>[]> values_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> present_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> invalidations_{0};
};

}  // namespace fedshare::exec
