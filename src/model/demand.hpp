// Demand modelling (the paper's Sec. 2.2).
//
// Demand is a set of request classes — groups of identical experiments
// characterised by a diversity threshold l, per-location resources r,
// holding time t, and count. The three PlanetLab workload archetypes the
// paper lists (P2P experiment, CDN service, measurement experiment) are
// provided as presets.
#pragma once

#include <vector>

#include "alloc/allocation.hpp"

namespace fedshare::model {

/// Request classes are shared with the allocator.
using alloc::RequestClass;

/// A demand profile: the request classes facing the federation.
struct DemandProfile {
  std::vector<RequestClass> classes;

  /// Single experiment with threshold l, shape d, resources r per
  /// location (the Fig. 4/5 setting).
  static DemandProfile single_experiment(double min_locations,
                                         double exponent = 1.0,
                                         double units_per_location = 1.0);

  /// `count` identical experiments (the Fig. 8/9 setting).
  static DemandProfile uniform(double count, double min_locations,
                               double exponent = 1.0,
                               double units_per_location = 1.0);

  /// Demand guaranteed to exceed any capacity in this library's benches
  /// (the Fig. 6/7 "enough in number to fill the system's capacity").
  static DemandProfile saturating(double min_locations, double exponent = 1.0,
                                  double units_per_location = 1.0);

  /// Throws std::invalid_argument if any class is invalid.
  void validate() const;
};

/// Count used by saturating(): large enough to exceed every bench's
/// capacity while staying exactly representable.
inline constexpr double kSaturatingCount = 1e9;

/// Sec. 2.3.1 archetype: P2P experiment (l=40, r=1, t=0.1).
[[nodiscard]] RequestClass p2p_experiment(double count = 1.0);

/// Sec. 2.3.1 archetype: CDN service (l=100, r=4, t=1).
[[nodiscard]] RequestClass cdn_service(double count = 1.0);

/// Sec. 2.3.1 archetype: measurement experiment (l=500, r=2, t=0.4).
[[nodiscard]] RequestClass measurement_experiment(double count = 1.0);

}  // namespace fedshare::model
