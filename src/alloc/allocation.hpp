// Resource-allocation problem types (the paper's Eq. 2).
//
// A coalition pools its locations into a LocationPool; demand arrives as
// RequestClasses (groups of identical experiments). An allocator assigns
// distinct locations to experiments, maximising total threshold-power
// utility u(x) = x^d for x >= l (Eq. 1).
//
// Continuous relaxation: experiment counts, location slots, and location
// assignments are modelled as continuous quantities. This matches the
// paper's numerical analysis (which evaluates closed forms) and keeps the
// allocator exact for the d = 1 settings of Figs. 4-9; an exact integer
// search in tests/exact_reference.hpp validates it on small instances.
#pragma once

#include <cstddef>
#include <vector>

namespace fedshare::alloc {

/// Per-location available capacity, in resource units (the paper's R).
struct LocationPool {
  std::vector<double> capacity;

  [[nodiscard]] std::size_t num_locations() const noexcept {
    return capacity.size();
  }
  [[nodiscard]] double total_capacity() const noexcept;

  /// Validates that all capacities are finite and non-negative; throws
  /// std::invalid_argument otherwise.
  void validate() const;
};

/// `count` locations that each hold `capacity` resource units.
struct CapacityBin {
  double capacity = 0.0;
  std::size_t count = 0;
};

/// A pool reduced to its capacity multiset: which location holds which
/// capacity is dropped. Canonical form: bins ascending by capacity,
/// capacities distinct, counts positive (see canonicalize()).
struct CapacityHistogram {
  std::vector<CapacityBin> bins;

  /// Sorts bins by capacity, merges equal capacities and drops empty
  /// bins. Capacities must be valid (not NaN).
  void canonicalize();

  /// Validates capacities like LocationPool::validate().
  void validate() const;
};

/// A group of identical experiments (Sec. 2.2's demand attributes).
struct RequestClass {
  double count = 1.0;               ///< number of experiments requesting
  double min_locations = 0.0;       ///< diversity threshold l (>= 0)
  double units_per_location = 1.0;  ///< resources per location r (> 0)
  double exponent = 1.0;            ///< utility shape d (> 0)
  double holding_time = 1.0;        ///< t; used by the DES, not here

  /// Effective threshold: an experiment with zero locations has zero
  /// utility, so the binding minimum is max(l, 1) in the continuous model.
  [[nodiscard]] double effective_threshold() const noexcept;

  /// Throws std::invalid_argument if any field is out of domain.
  void validate() const;
};

/// Outcome for one request class.
struct ClassOutcome {
  double served = 0.0;                    ///< experiments admitted
  double locations_per_experiment = 0.0;  ///< mean x over served
  double utility = 0.0;                   ///< total class utility
  double units = 0.0;                     ///< resource units consumed
};

/// Full allocation outcome.
struct AllocationResult {
  double total_utility = 0.0;
  double total_units = 0.0;
  std::vector<ClassOutcome> per_class;
  /// Units consumed at each location (for consumption attribution to the
  /// facilities providing that location, Eq. 7).
  std::vector<double> units_per_location;
};

/// Positions [first, first + count) of a pool's (capacity, index) order
/// whose locations each consumed `units` resource units (see
/// allocate_greedy in greedy.hpp).
struct ConsumedRun {
  std::size_t first = 0;
  std::size_t count = 0;
  double units = 0.0;
};

}  // namespace fedshare::alloc
