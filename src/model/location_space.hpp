// Location space with overlap (the paper's Sec. 2.1 and Fig. 1).
//
// Facilities contribute resources at locations; location sets may be
// disjoint (the configurations of Figs. 4-9) or overlapping (each
// facility's L_i locations sampled uniformly from a universe of size L,
// which realises the paper's pairwise overlap probabilities o_ij). Where
// sets overlap, capacities add (Fig. 1's note).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "alloc/allocation.hpp"
#include "core/coalition.hpp"
#include "model/facility.hpp"

namespace fedshare::model {

/// Immutable assignment of facilities to locations.
class LocationSpace {
 public:
  /// Disjoint layout: facility i occupies its own L_i fresh locations.
  static LocationSpace disjoint(std::vector<FacilityConfig> configs);

  /// Overlapping layout: each facility's L_i locations are sampled
  /// uniformly without replacement from a universe of `universe_size`
  /// locations (>= max L_i). Deterministic given `seed`. The expected
  /// pairwise overlap is L_i * L_j / universe_size locations.
  static LocationSpace overlapping(std::vector<FacilityConfig> configs,
                                   int universe_size, std::uint64_t seed);

  [[nodiscard]] int num_facilities() const noexcept {
    return static_cast<int>(facilities_.size());
  }
  [[nodiscard]] const Facility& facility(int id) const;
  [[nodiscard]] const std::vector<Facility>& facilities() const noexcept {
    return facilities_;
  }

  /// Size of the location universe.
  [[nodiscard]] int num_locations() const noexcept { return num_locations_; }

  /// The location ids where `facility` provides resources (ascending).
  [[nodiscard]] const std::vector<int>& locations_of(int facility) const;

  /// Number of distinct locations covered by a coalition (the paper's
  /// |union of L_i| driving the diversity value).
  [[nodiscard]] int distinct_locations(game::Coalition coalition) const;

  /// The capacity multiset of pool_for(coalition), in canonical form:
  /// each capacity is summed exactly as pool_for sums it, so binning
  /// pool_for(c)'s capacities gives it bitwise. Costs
  /// O(location types * |coalition|), with no per-location pass.
  [[nodiscard]] alloc::CapacityHistogram capacity_histogram(
      game::Coalition coalition) const;

  /// capacity_histogram(coalition) into `out`, whose bins are
  /// overwritten and whose storage is reused.
  void capacity_histogram_into(game::Coalition coalition,
                               alloc::CapacityHistogram& out) const;

  /// Fraction of facility a's locations also covered by facility b
  /// (the empirical overlap o_ab); 0 when a has no locations.
  [[nodiscard]] double overlap(int facility_a, int facility_b) const;

  /// Pooled per-location capacities for a coalition: one entry per
  /// distinct covered location (ascending location id), capacities of
  /// co-located members summed, each scaled by availability T_i.
  [[nodiscard]] alloc::LocationPool pool_for(game::Coalition coalition) const;

  /// Location ids corresponding to pool_for(coalition)'s entries.
  [[nodiscard]] std::vector<int> pooled_location_ids(
      game::Coalition coalition) const;

  /// Degraded copy realising an outage scenario: facility i keeps only
  /// the locations whose entry in `up[i]` is true (up[i] is indexed like
  /// locations_of(i) and must match its size). Because the outage
  /// *realises* each facility's availability T_i, surviving locations
  /// carry their full capacity R_il and the degraded facilities report
  /// availability 1 — so a facility with T_i = 1 and an all-up mask is
  /// unchanged, and the expected degraded capacity under masks sampled
  /// from T_i equals the nominal effective capacity R_il * T_i. The
  /// location universe (ids, size) is preserved, so overlaps survive.
  [[nodiscard]] LocationSpace with_outages(
      const std::vector<std::vector<bool>>& up) const;

  /// Splits a greedy allocation's consumption across facilities,
  /// pro-rata to each member's capacity at each location. `runs` are
  /// those of alloc::allocate_greedy on capacity_histogram(coalition),
  /// read as positions in pool_for(coalition)'s (capacity, location id)
  /// order; they must tile every position. Returns consumed units per
  /// facility (all facilities; non-members get 0).
  ///
  /// Works on location types, not locations: a run that covers the rest
  /// of a capacity bin hands each of the bin's types its remaining count
  /// at once, and only where a reservation ended inside a bin that two or
  /// more types share are ids walked, in id order up to that boundary (an
  /// isolated type moves as one block even then).
  /// Each location's share is added one location at a time in id order
  /// (repeated_sum), so on a space whose types are all isolated every
  /// facility's total is bitwise the per-location attribution's.
  [[nodiscard]] std::vector<double> attribute_runs(
      game::Coalition coalition,
      const std::vector<alloc::ConsumedRun>& runs) const;

 private:
  LocationSpace() = default;

  // Locations that the same facilities cover with the same per-member
  // units: a coalition pools all of them at one capacity, or none.
  // An isolated type (one uniform-units facility whose id range meets no
  // other facility's) is all of that facility's locations, with no other
  // covered location between its lowest id and its highest; a grouped
  // type's ids are grouped_ids_[ids_begin, ids_begin + count), ascending.
  struct LocationType {
    std::uint64_t covered_by = 0;  // member bitmask
    std::vector<std::pair<int, double>> units;  // (member, units), ascending
    std::size_t count = 0;
    bool isolated = false;
    std::size_t ids_begin = 0;
  };

  std::vector<Facility> facilities_;
  std::vector<std::vector<int>> facility_locations_;  // ascending ids
  int num_locations_ = 0;
  std::vector<LocationType> types_;
  std::vector<int> grouped_ids_;  // grouped types' ids, type by type

  void check_coalition(game::Coalition coalition) const;
  // The type's capacity pooled over `members` (a bitmask).
  static double pooled_capacity(const LocationType& type,
                                std::uint64_t members);
  // Fills types_ from the facilities and their locations.
  void build_types();
};

/// s + t + ... + t with k terms t, added one at a time from the left in
/// double arithmetic: bitwise the sum of k sequential `s += t`. Inside
/// one binade of the running sum each addition rounds t to the same
/// multiple of the binade's ulp, unless t lies exactly halfway between
/// two (then the sum's last bit breaks the tie), so the additions that
/// stay in the binade are taken in one exact step. Costs O(binades the
/// sum crosses), or up to O(k) on halfway ties. Needs finite s, t >= 0.
[[nodiscard]] double repeated_sum(double s, double t, std::size_t k);

}  // namespace fedshare::model
