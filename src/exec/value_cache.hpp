// Sharded, lock-striped memo table for coalition values.
//
// A ValueCache maps coalition bitmasks to V(S) so that each coalition's
// characteristic-function evaluation — an allocation LP in the paper's
// model — is solved once per federation instance and then shared by
// every consumer: tabulation, exact and Monte-Carlo Shapley, the
// nucleolus and core checks (through the tabulated game), and the
// incentive/sensitivity sweeps that re-query V(N) after tabulating.
//
// Concurrency: the key space is hashed across a fixed power-of-two
// number of shards, each a mutex-guarded open hash map, so concurrent
// readers and writers on different shards never contend and same-shard
// operations serialise only briefly. value_or_compute() runs the
// compute callable *outside* the shard lock (an LP solve must never
// block unrelated lookups); if two threads race to materialise the same
// mask, both compute but the first store wins — harmless, because the
// characteristic function is deterministic, and rare, because the
// parallel tabulation path partitions masks across chunks.
//
// Budget accounting (see runtime/budget.hpp "charging rule"): a hit is
// free; the cost of a miss is charged by the *caller* computing the
// value, so one distinct coalition costs exactly one unit no matter how
// many schemes later re-read it.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/budget.hpp"

namespace fedshare::exec {

/// One consistent-enough view of a cache's counters (each counter is an
/// atomic snapshot; the set is taken without a global lock, so the
/// numbers are exact once the cache is quiescent).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;  ///< entries dropped by invalidate_if
  std::size_t entries = 0;          ///< distinct masks currently cached
  /// hits / (hits + misses); 0 when nothing was looked up yet.
  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Thread-safe memo of double values keyed by 64-bit coalition mask.
class ValueCache {
 public:
  /// `shards` is rounded up to a power of two in [1, 256]; the default
  /// comfortably out-stripes any realistic worker count.
  explicit ValueCache(int shards = 64);

  ValueCache(const ValueCache&) = delete;
  ValueCache& operator=(const ValueCache&) = delete;

  /// The cached value for `mask`, if materialised.
  [[nodiscard]] std::optional<double> lookup(std::uint64_t mask) const;

  /// Stores `value` for `mask`. First store wins; a concurrent or
  /// repeated store of the same mask is a no-op (values are
  /// deterministic, so any stored value is the right one).
  void store(std::uint64_t mask, double value);

  /// Returns the cached value for `mask`, computing it with `compute()`
  /// (outside any lock) and storing it on a miss. Counts one hit or one
  /// miss per call.
  template <typename Fn>
  double value_or_compute(std::uint64_t mask, Fn&& compute) {
    if (const auto cached = lookup(mask)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return *cached;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    const double value = compute();
    store(mask, value);
    return value;
  }

  /// Budget-aware variant implementing the charging rule directly: a
  /// hit is free; a miss charges `budget` one unit *before* computing
  /// and returns nullopt if the charge trips.
  template <typename Fn>
  std::optional<double> value_or_compute_budgeted(
      std::uint64_t mask, const runtime::ComputeBudget& budget,
      Fn&& compute) {
    if (const auto cached = lookup(mask)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return *cached;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (!budget.charge()) return std::nullopt;
    const double value = compute();
    store(mask, value);
    return value;
  }

  /// Drops every cached entry whose mask satisfies `pred` and returns
  /// how many were dropped (also added to the invalidation counter).
  /// This is the churn API: an event touching facility slot s calls
  /// invalidate_if([&](auto mask) { return mask >> s & 1; }) so only the
  /// affected slice of the lattice is recomputed. Shards are processed
  /// one at a time under their own locks, so concurrent readers of
  /// *other* shards never block and concurrent readers of the same
  /// shard serialise briefly; a reader racing the invalidation sees
  /// either the old value or a miss, never a torn entry. `pred` must
  /// not touch the cache (the shard lock is held while it runs).
  template <typename Pred>
  std::size_t invalidate_if(Pred&& pred) {
    std::size_t dropped = 0;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lk(shard.m);
      for (auto it = shard.map.begin(); it != shard.map.end();) {
        if (pred(it->first)) {
          it = shard.map.erase(it);
          ++dropped;
        } else {
          ++it;
        }
      }
    }
    invalidations_.fetch_add(dropped, std::memory_order_relaxed);
    return dropped;
  }

  /// Every cached (mask, value) pair, sorted by mask. Intended for
  /// checkpointing: the result is deterministic for a quiescent cache
  /// regardless of shard layout or insertion order. Takes each shard
  /// lock once.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, double>>
  export_entries() const;

  /// Number of distinct masks materialised.
  [[nodiscard]] std::size_t size() const;

  /// Lookup statistics (relaxed counters; exact once quiescent).
  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  /// hits / (hits + misses); 0 when nothing was looked up yet.
  [[nodiscard]] double hit_rate() const noexcept;
  /// Entries dropped by invalidate_if since construction (or clear()).
  [[nodiscard]] std::uint64_t invalidations() const noexcept {
    return invalidations_.load(std::memory_order_relaxed);
  }

  /// Counter snapshot (hits, misses, invalidations, live entries).
  [[nodiscard]] CacheStats stats() const;

  /// Drops every entry and resets the statistics.
  void clear();

 private:
  struct Shard {
    mutable std::mutex m;
    std::unordered_map<std::uint64_t, double> map;
  };

  [[nodiscard]] Shard& shard_of(std::uint64_t mask) const noexcept;

  std::vector<Shard> shards_;
  std::uint64_t shard_mask_;  // shards_.size() - 1 (power of two)
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> invalidations_{0};
};

}  // namespace fedshare::exec
