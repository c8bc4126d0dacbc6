// Kaufman-Roberts recursion for multi-class loss links, kept out of the
// library: no program runs it, but on a single class it is an
// independent route to Erlang-B (an occupancy distribution rather than
// the blocking recursion), the oracle tests/test_sim.cpp checks
// sim::erlang_b against.
#pragma once

#include <vector>

namespace fedshare::sim::reference {

/// One class: offered load (erlangs) and the integer number of circuits
/// one call occupies.
struct KrClass {
  double offered_load = 0.0;
  int circuits_per_call = 1;
};

/// Per-class blocking probabilities on a shared link of `capacity`
/// circuits. capacity >= 0; loads >= 0; circuits_per_call >= 1.
[[nodiscard]] std::vector<double> kaufman_roberts(
    int capacity, const std::vector<KrClass>& classes);

}  // namespace fedshare::sim::reference
