#include "exact_reference.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace fedshare::alloc::reference {

namespace {

struct SearchState {
  const std::vector<const RequestClass*>* experiments = nullptr;
  std::vector<double> remaining;  // per-location capacity
  std::uint64_t nodes = 0;
  std::uint64_t max_nodes = 0;
  bool aborted = false;

  double best_utility = -1.0;
  std::vector<std::uint32_t> best_assignment;  // location mask per experiment
  std::vector<std::uint32_t> current;
};

void search(SearchState& st, std::size_t idx, double utility_so_far) {
  if (st.aborted) return;
  if (++st.nodes > st.max_nodes) {
    st.aborted = true;
    return;
  }
  const auto& experiments = *st.experiments;
  if (idx == experiments.size()) {
    if (utility_so_far > st.best_utility) {
      st.best_utility = utility_so_far;
      st.best_assignment = st.current;
    }
    return;
  }
  const RequestClass& rc = *experiments[idx];
  const double r = rc.units_per_location;
  const auto num_loc = st.remaining.size();
  const std::uint32_t full = (num_loc >= 32)
                                 ? ~std::uint32_t{0}
                                 : ((std::uint32_t{1} << num_loc) - 1);
  // Option: block the experiment.
  st.current[idx] = 0;
  search(st, idx + 1, utility_so_far);
  // Options: every capacity-feasible subset meeting the threshold.
  const auto threshold =
      static_cast<int>(std::ceil(rc.effective_threshold() - 1e-9));
  for (std::uint32_t subset = 1; subset <= full && !st.aborted; ++subset) {
    const int x = __builtin_popcount(subset);
    if (x < threshold) continue;
    bool feasible = true;
    for (std::size_t l = 0; l < num_loc; ++l) {
      if ((subset >> l) & 1u) {
        if (st.remaining[l] < r - 1e-9) {
          feasible = false;
          break;
        }
      }
    }
    if (!feasible) continue;
    for (std::size_t l = 0; l < num_loc; ++l) {
      if ((subset >> l) & 1u) st.remaining[l] -= r;
    }
    st.current[idx] = subset;
    search(st, idx + 1, utility_so_far + std::pow(x, rc.exponent));
    for (std::size_t l = 0; l < num_loc; ++l) {
      if ((subset >> l) & 1u) st.remaining[l] += r;
    }
  }
  st.current[idx] = 0;
}

}  // namespace

std::optional<AllocationResult> allocate_exact(
    const LocationPool& pool, const std::vector<RequestClass>& classes,
    std::uint64_t max_nodes) {
  pool.validate();
  if (pool.num_locations() > 16) {
    throw std::invalid_argument("allocate_exact: at most 16 locations");
  }
  std::vector<const RequestClass*> experiments;
  std::vector<std::size_t> class_of;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    classes[c].validate();
    const double count = classes[c].count;
    if (std::abs(count - std::round(count)) > 1e-9) {
      throw std::invalid_argument(
          "allocate_exact: class counts must be integers");
    }
    for (long k = 0; k < static_cast<long>(std::llround(count)); ++k) {
      experiments.push_back(&classes[c]);
      class_of.push_back(c);
    }
  }
  if (experiments.size() > 8) {
    throw std::invalid_argument("allocate_exact: at most 8 experiments");
  }

  SearchState st;
  st.experiments = &experiments;
  st.remaining = pool.capacity;
  st.max_nodes = max_nodes;
  st.current.assign(experiments.size(), 0);
  search(st, 0, 0.0);
  if (st.aborted) return std::nullopt;

  AllocationResult result;
  result.per_class.resize(classes.size());
  result.units_per_location.assign(pool.num_locations(), 0.0);
  result.total_utility = std::max(0.0, st.best_utility);
  for (std::size_t e = 0; e < experiments.size(); ++e) {
    const std::uint32_t subset = st.best_assignment.empty()
                                     ? 0u
                                     : st.best_assignment[e];
    if (subset == 0) continue;
    const RequestClass& rc = *experiments[e];
    const int x = __builtin_popcount(subset);
    ClassOutcome& oc = result.per_class[class_of[e]];
    oc.served += 1.0;
    oc.locations_per_experiment += x;  // converted to mean below
    oc.utility += std::pow(x, rc.exponent);
    oc.units += rc.units_per_location * x;
    result.total_units += rc.units_per_location * x;
    for (std::size_t l = 0; l < pool.num_locations(); ++l) {
      if ((subset >> l) & 1u) {
        result.units_per_location[l] += rc.units_per_location;
      }
    }
  }
  for (auto& oc : result.per_class) {
    if (oc.served > 0.0) oc.locations_per_experiment /= oc.served;
  }
  return result;
}

}  // namespace fedshare::alloc::reference
