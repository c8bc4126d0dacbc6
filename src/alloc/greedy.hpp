// Two-phase water-filling allocator ("admit frugally, then fill").
//
// With per-location slots s_l = C_l / r, define
//
//   U(m) = sum_l min(s_l, m)   — the most location-slots m experiments can
//                                consume (each uses a location at most once),
//   m*   = max m with U(m) >= m * threshold (feasibility is an interval
//          because U is concave and m*threshold is linear).
//
// Phase 1 (admission): classes are visited by priority — ascending r
// (cheapest utility per unit first), then *descending* threshold, so
// diversity-gated classes are admitted before slack is spread. Each
// admitted concave-class experiment reserves exactly its threshold in
// slots, best fit: locations are visited in the tie order below and each
// gives min(s_l, m) until the reservation is met. Convex classes (d > 1)
// instead take their full concentrated allocation (experiments filled one
// by one with every available distinct location).
//
// Phase 2 (fill): leftover capacity is granted to the admitted concave
// classes up to their per-location ceiling min(s_l, m) — for d <= 1,
// utility m^(1-d) * slots^d is non-decreasing in slots, and an equal
// split among the class's experiments is optimal under concavity.
//
// Tie order. Phase 1 visits locations in a total order on their *state*:
// more remaining capacity first (best fit); then more original capacity;
// then, class by class in priority order, more units already used by
// that class. Locations in the same state are interchangeable, so the
// result depends only on the multiset of capacities, never on the order
// in which the pool lists its locations.
//
// Histogram core. Because of that, the allocator runs on a capacity
// histogram (K bins of equal capacity) rather than on locations: it keeps
// groups of locations in identical state. U(m) is a sum over groups, so
// slot_budget is O(K). m* is solved exactly: U is piecewise linear with
// breakpoints at the groups' slot counts, so one ascending walk finds the
// segment where U(m) - m * threshold changes sign and solves its line,
// with no bisection. A phase-1 reservation takes whole groups and splits
// at most one (into fully taken, one partly taken and untouched
// locations), so a run keeps at most K + 2 * (classes) groups. Each
// group also keeps its place in the pool's (capacity, index) order: an
// initial group holds its bin's range of positions, and a split hands
// the lowest positions to the locations taken first. The final groups
// are therefore runs of consecutive positions (ConsumedRun): a caller
// that numbers a pool's locations that way hands each run's use back to
// its locations (model::consumption_weights does, per facility).
//
// Scratch. V(S) runs this greedy once per coalition, 2^n times per
// table, so a run keeps its groups, their per-class use (one flat row of
// C doubles per group, at most (K + 2C) * C doubles), the admission order
// and the visiting order in buffers private to greedy.cpp, one set per
// thread, reused by the thread's next run. A histogram that is already
// canonical (as LocationSpace::capacity_histogram returns it) is read in
// place, and the classes are re-sorted only when their (r, l) pairs
// change. A run then allocates only its AllocationResult, and the V(S)
// path (greedy_total_utility) not even that: it fills the coalition's
// histogram into the scratch (scratch_histogram) and keeps the
// per-class outcomes there too, so a warm V(S) allocates nothing. The
// arithmetic is that of fresh buffers, bit for bit.
//
// Ties in need. Capacities such as 0.9 * 3 are not exact in binary, so
// slots that meet a threshold exactly can sum a few ulps short of it.
// Whether U(1) reaches a threshold, and whether a convex experiment's
// locations do, is therefore decided with 1e-12 relative slack.
//
// On single-class instances and the paper's configurations (d = 1,
// common r) this is exactly optimal; under adversarial multi-class
// contention it is a heuristic, which tests/test_alloc_property.cpp
// sandwiches between the exact integer solver and the LP upper bound on
// randomized small instances.
#pragma once

#include <vector>

#include "alloc/allocation.hpp"

namespace fedshare::alloc {

/// Allocates `classes` on a capacity histogram (any bin order),
/// returning per-class outcomes; by the tie order above they depend
/// only on the capacity multiset. Inputs are validated.
/// `units_per_location` is left empty.
[[nodiscard]] AllocationResult allocate_greedy(
    const CapacityHistogram& histogram,
    const std::vector<RequestClass>& classes);

/// allocate_greedy on a histogram, also saying where the units went.
/// The histogram's locations are numbered bin by bin in ascending
/// capacity; `runs` (overwritten) tiles those positions in ascending
/// `first`. Within a bin the numbering follows whatever order the caller
/// gives that bin's locations, e.g. a pool's (capacity, index) order,
/// which model::LocationSpace::attribute_runs reads the runs back in.
[[nodiscard]] AllocationResult allocate_greedy(
    const CapacityHistogram& histogram,
    const std::vector<RequestClass>& classes, std::vector<ConsumedRun>& runs);

/// allocate_greedy(histogram, classes).total_utility, bit for bit, with
/// the per-class outcomes kept in the calling thread's scratch: once the
/// scratch has grown to the run's shape, a run allocates nothing. The
/// V(S) path; allocate_greedy serves the callers that read the outcomes.
[[nodiscard]] double greedy_total_utility(
    const CapacityHistogram& histogram,
    const std::vector<RequestClass>& classes);

/// A histogram of the calling thread's scratch, for a caller to fill
/// (LocationSpace::capacity_histogram_into) and hand to
/// greedy_total_utility; the thread's next fill reuses its bins.
[[nodiscard]] CapacityHistogram& scratch_histogram();

/// Whether x is an integer multiple of 2^e, read off its bits: its
/// lowest set significand bit weighs 2^e or more (0 is a multiple of
/// anything). Equal to std::fmod(x, std::ldexp(1.0, e)) == 0.0 for
/// every finite x and every e at which 2^e is a finite double, without
/// fmod's long division over the exponent gap.
[[nodiscard]] bool multiple_of_pow2(double x, int e) noexcept;

/// The slot-budget function U(m) = sum_l min(capacity_l / r, m) used by
/// the greedy, summed over the histogram's bins.
[[nodiscard]] double slot_budget(const CapacityHistogram& histogram,
                                 double units_per_location, double m);

}  // namespace fedshare::alloc
