// Federation sharing policies (the pipeline in the paper's Fig. 3).
//
// A SharingPolicy turns a Federation (providers + demand) into a share
// vector s with sum(s) = 1; payoffs are s_i * V(N). The two concrete
// policies wrap the Shapley and availability-proportional schemes of
// core/sharing.hpp, the pair the incentive, sensitivity and equilibrium
// analyses compare.
#pragma once

#include <string>
#include <vector>

#include "core/sharing.hpp"
#include "model/federation.hpp"

namespace fedshare::policy {

/// Abstract profit/value-sharing policy.
class SharingPolicy {
 public:
  virtual ~SharingPolicy() = default;

  /// Share vector for the federation (one entry per facility, sums to 1).
  [[nodiscard]] virtual std::vector<double> shares(
      const model::Federation& federation) const = 0;

  /// Policy name for reports.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Normalised Shapley value policy (the paper's recommendation).
class ShapleyPolicy final : public SharingPolicy {
 public:
  [[nodiscard]] std::vector<double> shares(
      const model::Federation& federation) const override;
  [[nodiscard]] std::string name() const override { return "shapley"; }
};

/// Availability-proportional policy (Eq. 6: weights L_i * R_i * T_i).
class ProportionalAvailabilityPolicy final : public SharingPolicy {
 public:
  [[nodiscard]] std::vector<double> shares(
      const model::Federation& federation) const override;
  [[nodiscard]] std::string name() const override {
    return "prop-availability";
  }
};

}  // namespace fedshare::policy
