#include "greedy_reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace fedshare::alloc::reference {

double slot_budget(const std::vector<double>& capacities,
                   double units_per_location, double m) {
  if (units_per_location <= 0.0) {
    throw std::invalid_argument("slot_budget: units_per_location must be > 0");
  }
  double total = 0.0;
  for (const double c : capacities) {
    total += std::min(c / units_per_location, m);
  }
  return total;
}

double max_feasible_experiments(const std::vector<double>& capacities,
                                double units_per_location, double threshold) {
  if (threshold < 1.0) {
    throw std::invalid_argument(
        "max_feasible_experiments: threshold must be >= 1");
  }
  // g(m) = U(m) - m * threshold is concave; its upper root is m*. Where
  // U(m) = m * threshold holds exactly, rounding in the per-location sum
  // can tip g either way, so a g within 1e-12 relative of 0 counts as met.
  const auto g = [&](double m) {
    return slot_budget(capacities, units_per_location, m) - m * threshold;
  };
  const auto met = [&](double m) { return g(m) >= -1e-12 * m * threshold; };
  if (!met(1.0)) return 0.0;
  // U is linear between consecutive slot values: walk them upward from
  // m = 1 and solve the segment on which g turns negative.
  std::vector<double> points{1.0};
  for (const double c : capacities) {
    if (c / units_per_location > 1.0) points.push_back(c / units_per_location);
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  for (std::size_t k = 1; k < points.size(); ++k) {
    const double a = points[k - 1];
    const double b = points[k];
    if (!met(b)) {
      return std::clamp(a + g(a) * (b - a) / (g(a) - g(b)), a, b);
    }
  }
  // Past the largest slot value U is flat at its total.
  return std::max(points.back(),
                  slot_budget(capacities, units_per_location,
                              std::numeric_limits<double>::infinity()) /
                      threshold);
}

namespace {

// Convex classes (d > 1): experiments filled one by one, each taking
// every location that still has a free slot for it, while the threshold
// is met. Consumes its usage from `remaining` directly.
ClassOutcome allocate_convex_class(std::vector<double>& remaining,
                                   const RequestClass& rc) {
  ClassOutcome out;
  const double r = rc.units_per_location;
  const double threshold = rc.effective_threshold();
  const double m_star = max_feasible_experiments(remaining, r, threshold);
  if (m_star <= 0.0) return out;

  double total_utility = 0.0;
  double total_slots = 0.0;
  double served = 0.0;
  const auto max_m =
      static_cast<long>(std::floor(std::min(rc.count, m_star)));
  double prev_budget = 0.0;
  for (long j = 1; j <= max_m; ++j) {
    const double budget = slot_budget(remaining, r, static_cast<double>(j));
    const double x = budget - prev_budget;
    if (x < threshold * (1.0 - 1e-12)) break;  // ties met, as in m*
    total_utility += std::pow(x, rc.exponent);
    total_slots = budget;
    served += 1.0;
    prev_budget = budget;
  }
  if (served == 0.0) return out;
  out.served = served;
  out.locations_per_experiment = total_slots / served;
  out.utility = total_utility;
  out.units = r * total_slots;
  for (double& cap : remaining) {
    const double take = r * std::min(cap / r, served);
    cap -= take;
  }
  return out;
}

}  // namespace

AllocationResult per_location_greedy(const LocationPool& pool,
                                     const std::vector<RequestClass>& classes) {
  pool.validate();
  for (const auto& rc : classes) rc.validate();

  const std::size_t num_loc = pool.num_locations();
  AllocationResult result;
  result.per_class.resize(classes.size());
  result.units_per_location.assign(num_loc, 0.0);

  std::vector<std::size_t> order(classes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (classes[a].units_per_location !=
                         classes[b].units_per_location) {
                       return classes[a].units_per_location <
                              classes[b].units_per_location;
                     }
                     return classes[a].min_locations >
                            classes[b].min_locations;
                   });

  std::vector<double> remaining = pool.capacity;
  std::vector<std::vector<double>> used(
      classes.size(), std::vector<double>(num_loc, 0.0));
  std::vector<double> served(classes.size(), 0.0);

  // Phase 1 — frugal admission.
  for (const std::size_t idx : order) {
    const RequestClass& rc = classes[idx];
    if (rc.count <= 0.0 || num_loc == 0) continue;
    if (rc.exponent > 1.0) {
      std::vector<double> before = remaining;
      ClassOutcome oc = allocate_convex_class(remaining, rc);
      for (std::size_t l = 0; l < num_loc; ++l) {
        used[idx][l] = before[l] - remaining[l];
      }
      served[idx] = oc.served;
      result.per_class[idx] = std::move(oc);
      continue;
    }
    const double r = rc.units_per_location;
    const double threshold = rc.effective_threshold();
    const double m_star = max_feasible_experiments(remaining, r, threshold);
    const double m = std::min(rc.count, m_star);
    if (m <= 0.0) continue;
    served[idx] = m;
    // Best fit in the state order; equal states keep index order.
    std::vector<std::size_t> loc_order(num_loc);
    std::iota(loc_order.begin(), loc_order.end(), std::size_t{0});
    std::stable_sort(loc_order.begin(), loc_order.end(),
                     [&](std::size_t a, std::size_t b) {
                       if (remaining[a] != remaining[b]) {
                         return remaining[a] > remaining[b];
                       }
                       if (pool.capacity[a] != pool.capacity[b]) {
                         return pool.capacity[a] > pool.capacity[b];
                       }
                       for (const std::size_t k : order) {
                         if (used[k][a] != used[k][b]) {
                           return used[k][a] > used[k][b];
                         }
                       }
                       return false;
                     });
    double need = m * threshold;
    for (const std::size_t l : loc_order) {
      if (need <= 1e-12) break;
      const double take_slots = std::min({remaining[l] / r, m, need});
      used[idx][l] += take_slots * r;
      remaining[l] -= take_slots * r;
      need -= take_slots;
    }
  }

  // Phase 2 — fill.
  for (const std::size_t idx : order) {
    const RequestClass& rc = classes[idx];
    if (served[idx] <= 0.0 || rc.exponent > 1.0) continue;
    const double r = rc.units_per_location;
    for (std::size_t l = 0; l < num_loc; ++l) {
      const double ceiling = r * std::min(pool.capacity[l] / r, served[idx]);
      const double extra = std::min(remaining[l], ceiling - used[idx][l]);
      if (extra > 0.0) {
        used[idx][l] += extra;
        remaining[l] -= extra;
      }
    }
  }

  // Assemble outcomes.
  for (std::size_t idx = 0; idx < classes.size(); ++idx) {
    const RequestClass& rc = classes[idx];
    if (rc.exponent <= 1.0) {
      ClassOutcome oc;
      if (served[idx] > 0.0) {
        const double units =
            std::accumulate(used[idx].begin(), used[idx].end(), 0.0);
        const double slots = units / rc.units_per_location;
        const double x = slots / served[idx];
        oc.served = served[idx];
        oc.locations_per_experiment = x;
        oc.utility = served[idx] * std::pow(x, rc.exponent);
        oc.units = units;
      }
      result.per_class[idx] = oc;
    }
    result.total_utility += result.per_class[idx].utility;
    result.total_units += result.per_class[idx].units;
    for (std::size_t l = 0; l < num_loc; ++l) {
      result.units_per_location[l] += used[idx][l];
    }
  }
  return result;
}

}  // namespace fedshare::alloc::reference
