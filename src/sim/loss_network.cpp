#include "sim/loss_network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>
#include <stdexcept>

namespace fedshare::sim {

double erlang_b(double erlangs, int servers) {
  if (erlangs < 0.0 || servers < 0) {
    throw std::invalid_argument("erlang_b: need erlangs >= 0, servers >= 0");
  }
  if (erlangs == 0.0) return 0.0;
  // B(0) = 1; B(k) = a*B(k-1) / (k + a*B(k-1)).
  double b = 1.0;
  for (int k = 1; k <= servers; ++k) {
    b = erlangs * b / (static_cast<double>(k) + erlangs * b);
  }
  return b;
}

ReducedLoadResult reduced_load_blocking(double call_arrival_rate,
                                        double mean_holding_time,
                                        int locations_needed,
                                        int total_locations,
                                        int servers_per_location,
                                        int max_iterations, double tolerance) {
  if (!(call_arrival_rate >= 0.0) || !(mean_holding_time > 0.0)) {
    throw std::invalid_argument(
        "reduced_load_blocking: bad arrival rate or holding time");
  }
  if (locations_needed < 1 || total_locations < locations_needed ||
      servers_per_location < 1) {
    throw std::invalid_argument(
        "reduced_load_blocking: need 1 <= locations_needed <= "
        "total_locations and servers_per_location >= 1");
  }
  // Each accepted call picks locations uniformly; a location carries a
  // fraction locations_needed / total_locations of accepted calls. With
  // per-location blocking B, admitted calls are thinned by the other
  // locations' acceptance: reduced load per location
  //   a = lambda * t * (l/L) * (1 - B)^(l - 1).
  const double base_load = call_arrival_rate * mean_holding_time *
                           static_cast<double>(locations_needed) /
                           static_cast<double>(total_locations);
  double b = 0.0;
  ReducedLoadResult out;
  for (int it = 0; it < max_iterations; ++it) {
    const double thinned =
        base_load *
        std::pow(1.0 - b, static_cast<double>(locations_needed - 1));
    const double next = erlang_b(thinned, servers_per_location);
    ++out.iterations;
    if (std::abs(next - b) < tolerance) {
      b = next;
      out.converged = true;
      break;
    }
    // Damped update for stability at high load.
    b = 0.5 * b + 0.5 * next;
  }
  out.link_blocking = b;
  out.call_blocking =
      1.0 - std::pow(1.0 - b, static_cast<double>(locations_needed));
  return out;
}

double log_binomial_lower_tail(int k, int n, double p) {
  if (n < 0 || k < 0 || k > n + 1 || p < 0.0 || p > 1.0) {
    throw std::invalid_argument(
        "log_binomial_lower_tail: need 0 <= k <= n+1 and p in [0, 1]");
  }
  if (k == 0) return -std::numeric_limits<double>::infinity();
  if (k == n + 1) return 0.0;  // whole distribution
  if (p == 0.0) return 0.0;    // X = 0 < k surely (k >= 1)
  if (p == 1.0) {
    // X = n; tail is non-empty only if n < k, handled by k == n+1 above.
    return -std::numeric_limits<double>::infinity();
  }
  const double log_p = std::log(p);
  const double log_q = std::log1p(-p);
  double max_term = -std::numeric_limits<double>::infinity();
  std::vector<double> terms(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    const double log_c = std::lgamma(n + 1.0) - std::lgamma(j + 1.0) -
                         std::lgamma(n - j + 1.0);
    const double t = log_c + j * log_p + (n - j) * log_q;
    terms[static_cast<std::size_t>(j)] = t;
    max_term = std::max(max_term, t);
  }
  if (!std::isfinite(max_term)) {
    return -std::numeric_limits<double>::infinity();
  }
  double sum = 0.0;
  for (const double t : terms) sum += std::exp(t - max_term);
  return std::min(0.0, max_term + std::log(sum));
}

ReducedLoadResult any_k_blocking(double call_arrival_rate,
                                 double mean_holding_time,
                                 int locations_needed, int total_locations,
                                 int servers_per_location,
                                 int max_iterations, double tolerance) {
  if (!(call_arrival_rate >= 0.0) || !(mean_holding_time > 0.0)) {
    throw std::invalid_argument(
        "any_k_blocking: bad arrival rate or holding time");
  }
  if (locations_needed < 1 || total_locations < locations_needed ||
      servers_per_location < 1) {
    throw std::invalid_argument(
        "any_k_blocking: need 1 <= locations_needed <= total_locations "
        "and servers_per_location >= 1");
  }
  const double base_load = call_arrival_rate * mean_holding_time *
                           static_cast<double>(locations_needed) /
                           static_cast<double>(total_locations);
  ReducedLoadResult out;
  double b_call = 0.0;
  for (int it = 0; it < max_iterations; ++it) {
    const double thinned = base_load * (1.0 - b_call);
    const double p_busy = erlang_b(thinned, servers_per_location);
    // Blocked iff fewer than k locations have a free server:
    // #free ~ Binomial(L, 1 - p_busy).
    const double next = std::exp(log_binomial_lower_tail(
        locations_needed, total_locations, 1.0 - p_busy));
    ++out.iterations;
    out.link_blocking = p_busy;
    if (std::abs(next - b_call) < tolerance) {
      b_call = next;
      out.converged = true;
      break;
    }
    b_call = 0.5 * b_call + 0.5 * next;
  }
  out.call_blocking = b_call;
  return out;
}

}  // namespace fedshare::sim
