#include "market/revenue.hpp"

#include <numeric>
#include <stdexcept>
#include <string>

#include "core/limits.hpp"
#include "core/sharing.hpp"
#include "model/value.hpp"

namespace fedshare::market {

void RevenueModel::validate() const {
  if (!(mu > 0.0) || mu > 1.0) {
    throw std::invalid_argument("RevenueModel: mu must be in (0, 1]");
  }
}

double SettlementReport::standalone_total() const {
  return std::accumulate(standalone_revenue.begin(),
                         standalone_revenue.end(), 0.0);
}

SettlementReport evaluate_settlement(const model::LocationSpace& space,
                                     const std::vector<Customer>& customers,
                                     const RevenueModel& revenue) {
  revenue.validate();
  const int n = space.num_facilities();
  limits::require("evaluate_settlement", n, limits::kMaxFacilities);
  for (const auto& c : customers) {
    c.demand.validate();
    if (c.sponsor_facility < 0 || c.sponsor_facility >= n) {
      throw std::invalid_argument(
          "evaluate_settlement: bad sponsor facility for customer '" +
          c.name + "'");
    }
  }

  SettlementReport report;
  report.standalone_revenue.assign(static_cast<std::size_t>(n), 0.0);

  // Status quo: each facility serves its own customers alone.
  for (int i = 0; i < n; ++i) {
    model::DemandProfile own;
    for (const auto& c : customers) {
      if (c.sponsor_facility == i) own.classes.push_back(c.demand);
    }
    if (own.classes.empty()) continue;
    report.standalone_revenue[static_cast<std::size_t>(i)] =
        revenue.mu *
        model::coalition_value(space, own, game::Coalition::single(i));
  }

  // Federated: all customers served by the pooled infrastructure; the
  // coalition game is played over the pooled demand.
  model::DemandProfile pooled;
  for (const auto& c : customers) pooled.classes.push_back(c.demand);
  model::Federation fed(space, pooled);
  const auto g = fed.build_game();
  report.total_profit = revenue.mu * g.grand_value();

  const auto shapley = game::shapley_shares(g);
  const auto prop = game::proportional_shares(fed.availability_weights());
  report.shapley_revenue.resize(static_cast<std::size_t>(n));
  report.proportional_revenue.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    report.shapley_revenue[ui] = shapley[ui] * report.total_profit;
    report.proportional_revenue[ui] = prop[ui] * report.total_profit;
  }
  return report;
}

}  // namespace fedshare::market
