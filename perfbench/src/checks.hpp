// Per-op correctness checks. Each returns an empty string when the
// output is correct and a one-line reason otherwise; an op whose check
// fails (or that throws) counts toward `failed`.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/game.hpp"
#include "core/sharing.hpp"
#include "serve/state.hpp"

namespace fedbench {

/// One "Sharing schemes" table: scheme names and their share rows.
struct ShareTable {
  std::vector<std::string> schemes;
  std::vector<std::vector<double>> shares;
};

/// Parses the "Sharing schemes" table of a report with `n` facilities.
/// Returns nullopt when the section is missing or a row is malformed.
[[nodiscard]] std::optional<ShareTable> parse_share_table(
    const std::string& report, int n);

/// The outcomes of a compare_schemes call as a ShareTable.
[[nodiscard]] ShareTable share_table(
    const std::vector<fedshare::game::SchemeOutcome>& outcomes);

/// All six schemes present in order, n shares per row, each row summing
/// to 1 within `tolerance`.
[[nodiscard]] std::string check_shares(const ShareTable& table, int n,
                                       double tolerance);

/// A serve answer is fresh, undegraded and has valid shares.
[[nodiscard]] std::string check_answer(const fedshare::serve::EpochAnswer& a);

/// Two answers agree bit for bit in everything but their epoch tags
/// (values, bound, every scheme outcome).
[[nodiscard]] bool same_answer(const fedshare::serve::EpochAnswer& a,
                               const fedshare::serve::EpochAnswer& b);

}  // namespace fedbench
