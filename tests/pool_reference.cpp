#include "pool_reference.hpp"

#include <algorithm>
#include <numeric>

#include "alloc/greedy.hpp"

namespace fedshare::alloc::reference {

CapacityHistogram histogram_of(const LocationPool& pool) {
  pool.validate();
  CapacityHistogram hist;
  hist.bins.reserve(pool.capacity.size());
  for (const double c : pool.capacity) hist.bins.push_back({c, 1});
  hist.canonicalize();
  return hist;
}

AllocationResult pool_greedy(const LocationPool& pool,
                             const std::vector<RequestClass>& classes) {
  pool.validate();
  const std::size_t num_loc = pool.num_locations();
  // Locations by (capacity, index): each run of equal capacity is one
  // histogram bin, numbered in that order.
  std::vector<std::size_t> order(num_loc);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return pool.capacity[a] < pool.capacity[b];
                   });
  CapacityHistogram histogram;
  for (const std::size_t l : order) {
    const double c = pool.capacity[l];
    if (!histogram.bins.empty() && histogram.bins.back().capacity == c) {
      ++histogram.bins.back().count;
    } else {
      histogram.bins.push_back({c, 1});
    }
  }
  std::vector<ConsumedRun> runs;
  AllocationResult result = allocate_greedy(histogram, classes, runs);
  result.units_per_location.assign(num_loc, 0.0);
  for (const ConsumedRun& run : runs) {
    for (std::size_t p = run.first; p < run.first + run.count; ++p) {
      result.units_per_location[order[p]] = run.units;
    }
  }
  return result;
}

}  // namespace fedshare::alloc::reference
