#include "exec/value_cache.hpp"

#include <algorithm>

namespace fedshare::exec {

namespace {

// Masks are tiny integers with structure in the low bits; finalise them
// so shard selection stays uniform (same splitmix64 finaliser as
// chunk_seed).
std::uint64_t mix(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t round_up_pow2(int n) {
  std::size_t p = 1;
  const auto target =
      static_cast<std::size_t>(std::clamp(n, 1, 256));
  while (p < target) p <<= 1;
  return p;
}

}  // namespace

ValueCache::ValueCache(int shards)
    : shards_(round_up_pow2(shards)),
      shard_mask_(shards_.size() - 1) {}

ValueCache::Shard& ValueCache::shard_of(std::uint64_t mask) const noexcept {
  return const_cast<Shard&>(shards_[mix(mask) & shard_mask_]);
}

std::optional<double> ValueCache::lookup(std::uint64_t mask) const {
  const Shard& shard = shard_of(mask);
  std::lock_guard<std::mutex> lk(shard.m);
  const auto it = shard.map.find(mask);
  if (it == shard.map.end()) return std::nullopt;
  return it->second;
}

void ValueCache::store(std::uint64_t mask, double value) {
  Shard& shard = shard_of(mask);
  std::lock_guard<std::mutex> lk(shard.m);
  shard.map.emplace(mask, value);  // first store wins
}

std::vector<std::pair<std::uint64_t, double>> ValueCache::export_entries()
    const {
  std::vector<std::pair<std::uint64_t, double>> entries;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard.m);
    entries.insert(entries.end(), shard.map.begin(), shard.map.end());
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

std::size_t ValueCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard.m);
    total += shard.map.size();
  }
  return total;
}

double ValueCache::hit_rate() const noexcept {
  const std::uint64_t h = hits();
  const std::uint64_t m = misses();
  if (h + m == 0) return 0.0;
  return static_cast<double>(h) / static_cast<double>(h + m);
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
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard.m);
    shard.map.clear();
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  invalidations_.store(0, std::memory_order_relaxed);
}

}  // namespace fedshare::exec
