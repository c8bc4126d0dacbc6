// LP relaxation of the allocation problem (upper bound, d <= 1).
//
// Relaxes Eq. (2): assignments become fractional (y_{c,l} in [0, count_c])
// and diversity thresholds are dropped. For d <= 1, per-experiment utility
// satisfies u(x) = x^d <= x on x >= 1, so the LP optimum bounds the true
// optimum from above. Without the thresholds the LP splits by location:
// each location is a fractional knapsack with unit profits, which the
// closed form solves exactly by filling classes in ascending
// units_per_location. The serve layer's bound on the grand coalition
// uses the closed form; lp_upper_bound solves the LP itself and is the
// reference that tests check the closed form and the greedy allocator
// against, and RelaxationTemplate feeds the simplex benches.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "alloc/allocation.hpp"
#include "lp/problem.hpp"
#include "lp/revised_simplex.hpp"

namespace fedshare::alloc {

/// Reusable build of the relaxation LP for a *family* of pools over the
/// same location set that differ only in per-location capacities — e.g.
/// the grand coalition's locations with some facilities out of service,
/// their locations patched to capacity 0 (capacity 0 forces
/// y_{c,l} = 0 because every class consumes r_c > 0 units, so this is
/// exactly equivalent to dropping the location).
///
/// Constraint layout: capacity row l is constraint l (one per location),
/// followed by the per-location class caps as singleton rows (which
/// lp::RevisedSimplex absorbs into variable bounds, shrinking the basis
/// to one row per location). Build once, then re-target capacities via
/// capacity_patch() — with RevisedSimplex::solve_from_basis this turns
/// a run of capacity changes into a chain of warm re-solves.
class RelaxationTemplate {
 public:
  /// Validates `classes` (throws std::invalid_argument for exponents
  /// > 1, like lp_upper_bound) and builds the LP over `num_locations`
  /// locations with all capacities 0. empty() when either dimension is
  /// zero (the relaxation bound is identically 0).
  RelaxationTemplate(std::size_t num_locations,
                     std::vector<RequestClass> classes);

  [[nodiscard]] bool empty() const noexcept { return !problem_.has_value(); }
  /// The template LP (capacities all 0). Requires !empty().
  [[nodiscard]] const lp::Problem& problem() const;
  [[nodiscard]] std::size_t num_locations() const noexcept {
    return num_locations_;
  }
  [[nodiscard]] const std::vector<RequestClass>& classes() const noexcept {
    return classes_;
  }

  /// Patch setting the capacity-row rhs to `capacities` (one entry per
  /// location). Apply to a RevisedSimplex built from problem(), or use
  /// apply_capacities for a dense-solver Problem copy.
  [[nodiscard]] lp::ProblemPatch capacity_patch(
      const std::vector<double>& capacities) const;

  /// In-place equivalent for the dense path: rewrites the capacity rows
  /// of `prob`, which must be a copy of problem().
  void apply_capacities(lp::Problem& prob,
                        const std::vector<double>& capacities) const;

 private:
  std::size_t num_locations_ = 0;
  std::vector<RequestClass> classes_;
  std::optional<lp::Problem> problem_;
};

/// Upper bound on total utility via the LP relaxation. All class
/// exponents must be <= 1 (throws std::invalid_argument otherwise).
/// Throws std::runtime_error if the LP fails to solve.
[[nodiscard]] double lp_upper_bound(const LocationPool& pool,
                                    const std::vector<RequestClass>& classes);

/// The optimum of the LP that lp_upper_bound solves, in closed form: per
/// location, classes fill the capacity in ascending units_per_location
/// (ties in input order), each up to its count. O(L + k log k) for L
/// locations and k classes. Same domain as lp_upper_bound: throws
/// std::invalid_argument for an exponent > 1 or an invalid pool or
/// class, and returns 0 for a pool without locations or classes.
[[nodiscard]] double closed_form_upper_bound(
    const LocationPool& pool, const std::vector<RequestClass>& classes);

}  // namespace fedshare::alloc
