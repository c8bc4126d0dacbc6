// The allocation cascade: a graceful-degradation wrapper over the
// allocators.
//
// resilient_allocate returns a *complete, structured* answer no matter
// what the ComputeBudget does: when the budget trips, it degrades from
// exact enumeration to LP-certified greedy to greedy and records which
// engine answered plus a human-readable degradation note, instead of
// throwing or hanging. The cheap final engine runs to completion even
// on a tripped budget — a deadline bounds the exponential work, not the
// polynomial floor that any answer requires. The Shapley and scheme
// cascades live with their schemes (game::resilient_shapley,
// game::compare_schemes).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "alloc/allocation.hpp"
#include "runtime/budget.hpp"

namespace fedshare::runtime {

/// Which allocation engine produced the answer.
enum class AllocEngine { kExact, kGreedy };

[[nodiscard]] const char* to_string(AllocEngine engine) noexcept;

/// Outcome of the allocation cascade.
struct ResilientAllocation {
  alloc::AllocationResult result;
  AllocEngine engine = AllocEngine::kGreedy;
  bool exact_attempted = false;
  /// LP-relaxation upper bound (d <= 1 instances, budget allowing).
  std::optional<double> upper_bound;
  /// upper_bound - result.total_utility, when the bound was computed:
  /// how far the answer can be from optimal (0 certifies optimality of
  /// the relaxed objective).
  std::optional<double> optimality_gap;
  /// Empty when the preferred engine answered; otherwise a degradation
  /// note, e.g. "exact search exhausted its budget (deadline); greedy
  /// fallback".
  std::string note;
};

/// Allocation cascade: exact enumeration when the instance is in the
/// exact solver's domain and the budget holds, otherwise the greedy
/// water-filling allocator (which always completes), plus an LP quality
/// certificate when d <= 1 and the budget allows. Never throws for
/// budget reasons and never returns an empty result.
[[nodiscard]] ResilientAllocation resilient_allocate(
    const alloc::LocationPool& pool,
    const std::vector<alloc::RequestClass>& classes,
    const ComputeBudget& budget = {});

}  // namespace fedshare::runtime
