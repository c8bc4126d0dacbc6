#include "runtime/resilient.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "alloc/exact.hpp"
#include "alloc/greedy.hpp"
#include "alloc/lp_relax.hpp"

namespace fedshare::runtime {

namespace {

// Exact-solver domain (mirrors allocate_exact's preconditions, which
// throw; the cascade probes instead of catching).
bool exact_eligible(const alloc::LocationPool& pool,
                    const std::vector<alloc::RequestClass>& classes) {
  if (pool.num_locations() > 16) return false;
  double experiments = 0.0;
  for (const auto& rc : classes) {
    if (std::abs(rc.count - std::round(rc.count)) > 1e-9) return false;
    experiments += rc.count;
  }
  return experiments <= 8.0 + 1e-9;
}

}  // namespace

const char* to_string(AllocEngine engine) noexcept {
  switch (engine) {
    case AllocEngine::kExact: return "exact";
    case AllocEngine::kGreedy: return "greedy";
  }
  return "unknown";
}

ResilientAllocation resilient_allocate(
    const alloc::LocationPool& pool,
    const std::vector<alloc::RequestClass>& classes,
    const ComputeBudget& budget) {
  ResilientAllocation out;
  if (exact_eligible(pool, classes)) {
    out.exact_attempted = true;
    const auto exact =
        alloc::allocate_exact(pool, classes, std::uint64_t{1} << 24, &budget);
    if (exact) {
      out.engine = AllocEngine::kExact;
      out.result = *exact;
    } else {
      out.note = std::string("exact search exhausted its budget (") +
                 stop_label(budget) + "); greedy fallback";
    }
  }
  if (out.engine != AllocEngine::kExact) {
    out.result = alloc::allocate_greedy(pool, classes);
  }
  // Quality certificate: the LP relaxation bounds the optimum from above
  // for d <= 1, budget allowing.
  const bool lp_applicable = std::all_of(
      classes.begin(), classes.end(),
      [](const alloc::RequestClass& rc) { return rc.exponent <= 1.0; });
  if (lp_applicable && !budget.exhausted()) {
    if (const auto bound =
            alloc::lp_upper_bound_budgeted(pool, classes, budget)) {
      out.upper_bound = *bound;
      out.optimality_gap = std::max(0.0, *bound - out.result.total_utility);
    }
  }
  return out;
}

}  // namespace fedshare::runtime
