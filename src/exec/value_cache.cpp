#include "exec/value_cache.hpp"

namespace fedshare::exec {

ValueCache::ValueCache(std::uint64_t capacity)
    : capacity_(capacity),
      words_((capacity + 63) / 64),
      values_(std::make_unique<std::atomic<double>[]>(capacity)),
      present_(std::make_unique<std::atomic<std::uint64_t>[]>(words_)) {}

std::vector<std::pair<std::uint64_t, double>> ValueCache::export_entries()
    const {
  std::vector<std::pair<std::uint64_t, double>> entries;
  for (std::uint64_t w = 0; w < words_; ++w) {
    for (std::uint64_t bits = present_[w].load(std::memory_order_acquire);
         bits != 0; bits &= bits - 1) {
      const std::uint64_t key =
          w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
      entries.emplace_back(key, values_[key].load(std::memory_order_relaxed));
    }
  }
  return entries;
}

std::size_t ValueCache::size() const {
  std::size_t total = 0;
  for (std::uint64_t w = 0; w < words_; ++w) {
    total += static_cast<std::size_t>(
        std::popcount(present_[w].load(std::memory_order_relaxed)));
  }
  return total;
}

CacheStats ValueCache::stats() const {
  CacheStats s;
  s.hits = hits();
  s.misses = misses();
  s.invalidations = invalidations();
  s.entries = size();
  return s;
}

void ValueCache::clear() {
  for (std::uint64_t w = 0; w < words_; ++w) {
    present_[w].store(0, std::memory_order_relaxed);
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  invalidations_.store(0, std::memory_order_relaxed);
}

}  // namespace fedshare::exec
