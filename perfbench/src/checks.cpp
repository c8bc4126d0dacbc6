#include "checks.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>

namespace fedbench {

namespace {

constexpr const char* kSchemes[] = {"shapley",  "prop-availability",
                                    "prop-consumption", "equal",
                                    "nucleolus", "banzhaf"};

std::string fmt(double x) {
  std::ostringstream out;
  out.precision(17);
  out << x;
  return out.str();
}

}  // namespace

std::optional<ShareTable> parse_share_table(const std::string& report,
                                            int n) {
  const std::string heading = "\nSharing schemes\n";
  const auto at = report.find(heading);
  if (at == std::string::npos) return std::nullopt;
  std::istringstream in(report.substr(at + heading.size()));
  std::string line;
  // Underline, column headers, rule.
  for (int skip = 0; skip < 3; ++skip) {
    if (!std::getline(in, line)) return std::nullopt;
  }
  ShareTable table;
  while (std::getline(in, line) && !line.empty()) {
    std::istringstream row(line);
    std::string scheme;
    row >> scheme;
    std::vector<double> shares;
    for (int i = 0; i < n; ++i) {
      std::string cell;
      if (!(row >> cell)) return std::nullopt;
      char* end = nullptr;
      const double v = std::strtod(cell.c_str(), &end);
      if (end == cell.c_str() || *end != '\0') return std::nullopt;
      shares.push_back(v);
    }
    std::string in_core;
    if (!(row >> in_core) || (in_core != "yes" && in_core != "no")) {
      return std::nullopt;
    }
    table.schemes.push_back(scheme);
    table.shares.push_back(std::move(shares));
  }
  return table;
}

ShareTable share_table(
    const std::vector<fedshare::game::SchemeOutcome>& outcomes) {
  ShareTable table;
  for (const auto& o : outcomes) {
    table.schemes.emplace_back(fedshare::game::to_string(o.scheme));
    table.shares.push_back(o.shares);
  }
  return table;
}

std::string check_shares(const ShareTable& table, int n, double tolerance) {
  constexpr std::size_t kCount = std::size(kSchemes);
  if (table.schemes.size() != kCount) {
    return std::to_string(table.schemes.size()) + " scheme rows, want " +
           std::to_string(kCount);
  }
  for (std::size_t s = 0; s < kCount; ++s) {
    if (table.schemes[s] != kSchemes[s]) {
      return "row " + std::to_string(s) + " is '" + table.schemes[s] +
             "', want '" + kSchemes[s] + "'";
    }
    const auto& row = table.shares[s];
    if (row.size() != static_cast<std::size_t>(n)) {
      return table.schemes[s] + ": " + std::to_string(row.size()) +
             " shares, want " + std::to_string(n);
    }
    double sum = 0.0;
    for (const double x : row) {
      if (!std::isfinite(x)) return table.schemes[s] + ": non-finite share";
      sum += x;
    }
    if (std::abs(sum - 1.0) > tolerance) {
      return table.schemes[s] + ": shares sum to " + fmt(sum);
    }
  }
  return {};
}

std::string check_answer(const fedshare::serve::EpochAnswer& a) {
  if (a.stale()) {
    return "stale answer: epoch " + std::to_string(a.epoch) + " of " +
           std::to_string(a.current_epoch);
  }
  if (a.degraded != fedshare::runtime::StopReason::kNone) {
    return "degraded answer";
  }
  return check_shares(share_table(a.outcomes), a.num_facilities, 1e-9);
}

bool same_answer(const fedshare::serve::EpochAnswer& a,
                 const fedshare::serve::EpochAnswer& b) {
  if (a.names != b.names ||
      a.grand_value != b.grand_value || a.grand_bound != b.grand_bound ||
      a.standalone != b.standalone || a.incentives != b.incentives ||
      a.outcomes.size() != b.outcomes.size()) {
    return false;
  }
  for (std::size_t s = 0; s < a.outcomes.size(); ++s) {
    const auto& x = a.outcomes[s];
    const auto& y = b.outcomes[s];
    if (x.scheme != y.scheme || x.shares != y.shares ||
        x.payoffs != y.payoffs || x.in_core != y.in_core) {
      return false;
    }
  }
  return true;
}

}  // namespace fedbench
