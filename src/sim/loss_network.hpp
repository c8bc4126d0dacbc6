// Analytic loss-network formulas (the paper's Sec. 6 future-work
// direction, after Paschalidis & Liu).
//
// Provides Erlang-B for single-class links, plus a reduced-load (Erlang
// fixed point) approximation for an experiment that must be admitted at
// several locations at once. These give closed-form cross-checks for the
// multiplexing simulator.
#pragma once

#include <cstdint>
#include <vector>

namespace fedshare::sim {

/// Erlang-B blocking probability for offered load `erlangs` on an
/// integer-capacity link of `servers` circuits. Uses the numerically
/// stable recursive form. servers >= 0, erlangs >= 0.
[[nodiscard]] double erlang_b(double erlangs, int servers);

/// Reduced-load approximation for "diversity" calls that need one circuit
/// at each of `locations_needed` distinct locations, where every location
/// is an independent Erlang link of `servers_per_location` circuits and
/// the per-location offered load (including thinning) is found by fixed-
/// point iteration. Returns the end-to-end blocking probability of a
/// call, i.e. 1 - (1 - B)^locations_needed at the fixed point.
struct ReducedLoadResult {
  double call_blocking = 0.0;      ///< probability a call is blocked
  double link_blocking = 0.0;      ///< per-location blocking at fixed point
  int iterations = 0;              ///< fixed-point iterations used
  bool converged = false;
};

[[nodiscard]] ReducedLoadResult reduced_load_blocking(
    double call_arrival_rate, double mean_holding_time, int locations_needed,
    int total_locations, int servers_per_location, int max_iterations = 200,
    double tolerance = 1e-10);

/// Log of the binomial lower tail P(X < k) for X ~ Binomial(n, p),
/// computed stably in log space (returns -inf for a zero tail).
/// Requires 0 <= k <= n+1 and p in [0, 1].
[[nodiscard]] double log_binomial_lower_tail(int k, int n, double p);

/// Blocking for "any k of L" diversity calls: an arrival is admitted iff
/// at least `locations_needed` of the `total_locations` locations have a
/// free server — the admission rule of the multiplexing simulator and of
/// the paper's experiments (any sufficiently large set of distinct
/// locations will do, unlike a fixed loss-network route). Per-location
/// occupancy is an Erlang link fed the thinned per-location load
/// lambda * t * k / L * (1 - B_call); the call blocking is the binomial
/// tail P(free locations < k) at the fixed point.
[[nodiscard]] ReducedLoadResult any_k_blocking(
    double call_arrival_rate, double mean_holding_time, int locations_needed,
    int total_locations, int servers_per_location, int max_iterations = 200,
    double tolerance = 1e-10);

}  // namespace fedshare::sim
