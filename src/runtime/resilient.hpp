// Graceful-degradation cascades over the solver stack.
//
// Every entry point here returns a *complete, structured* answer no
// matter what the ComputeBudget does: when a budget trips, the cascade
// degrades to a cheaper engine (exact -> LP-certified greedy -> greedy;
// exact Shapley -> antithetic Monte Carlo with standard errors) and
// records which engine answered plus a human-readable degradation note,
// instead of throwing or hanging. The cheap final engines run to
// completion even on a tripped budget — a deadline bounds the
// exponential work, not the polynomial floor that any answer requires.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "alloc/allocation.hpp"
#include "core/game.hpp"
#include "core/sharing.hpp"
#include "runtime/budget.hpp"
#include "verify/audit.hpp"
#include "verify/certificates.hpp"

namespace fedshare::runtime {

/// Which allocation engine produced the answer.
enum class AllocEngine { kExact, kGreedy };

[[nodiscard]] const char* to_string(AllocEngine engine) noexcept;

/// Outcome of the allocation cascade.
struct ResilientAllocation {
  alloc::AllocationResult result;
  AllocEngine engine = AllocEngine::kGreedy;
  bool exact_attempted = false;
  /// LP-relaxation upper bound (d <= 1 instances, budget allowing).
  std::optional<double> upper_bound;
  /// upper_bound - result.total_utility, when the bound was computed:
  /// how far the answer can be from optimal (0 certifies optimality of
  /// the relaxed objective).
  std::optional<double> optimality_gap;
  /// Empty when the preferred engine answered; otherwise a degradation
  /// note, e.g. "exact search exhausted its budget (deadline); greedy
  /// fallback".
  std::string note;
};

/// Allocation cascade: exact enumeration when the instance is in the
/// exact solver's domain and the budget holds, otherwise the greedy
/// water-filling allocator (which always completes), plus an LP quality
/// certificate when d <= 1 and the budget allows. Never throws for
/// budget reasons and never returns an empty result.
[[nodiscard]] ResilientAllocation resilient_allocate(
    const alloc::LocationPool& pool,
    const std::vector<alloc::RequestClass>& classes,
    const ComputeBudget& budget = {});

/// Which Shapley engine produced the answer.
enum class ShapleyEngine { kExact, kMonteCarlo };

[[nodiscard]] const char* to_string(ShapleyEngine engine) noexcept;

/// Outcome of the Shapley cascade.
struct ResilientShapley {
  std::vector<double> phi;
  /// Per-player standard errors; empty for the exact engine.
  std::vector<double> standard_error;
  ShapleyEngine engine = ShapleyEngine::kExact;
  std::uint64_t samples = 0;  ///< permutations drawn (Monte Carlo only)
  std::string note;           ///< degradation note, empty when exact
};

/// Shapley cascade: exact subset formula under the budget, degrading to
/// antithetic Monte Carlo with reported standard errors when the budget
/// trips or n > 24. The Monte Carlo stage draws at most `mc_samples`
/// permutations under a grace budget (a fresh deadline of a few times
/// the original, so a too-tight deadline still yields an estimate of at
/// least one antithetic pair). Deterministic given `mc_seed`.
[[nodiscard]] ResilientShapley resilient_shapley(const game::Game& game,
                                                 const ComputeBudget& budget = {},
                                                 std::uint64_t mc_samples = 4096,
                                                 std::uint64_t mc_seed = 1);

/// A scheme (or the core check) the cascade did not answer, and why.
struct SkippedScheme {
  std::string scheme;  ///< "nucleolus", "banzhaf" or "core membership"
  std::string reason;  ///< e.g. "deadline", "n > 16"
  /// True when the instance's size alone rules it out (the same for
  /// every run at this n); false when the budget or a solver failure
  /// cut it short.
  bool size_limit = false;
};

/// Budget-aware replacement for game::compare_schemes, used by the CLI
/// report and the outage evaluator.
struct ResilientSchemes {
  std::vector<game::SchemeOutcome> outcomes;
  /// True when core membership was actually evaluated (tabulated game,
  /// n <= 16); false means every in_core flag is a placeholder.
  bool core_checked = false;
  ShapleyEngine shapley_engine = ShapleyEngine::kExact;
  std::uint64_t shapley_samples = 0;
  double shapley_max_se = 0.0;  ///< max standard error (Monte Carlo only)
  /// One entry per degradation (empty on a clean run), e.g.
  /// "shapley: antithetic monte-carlo (64 samples, max se 0.0132)" or
  /// "nucleolus: skipped (deadline)".
  std::vector<std::string> notes;
  /// Every scheme left without a row (and an unchecked core), in report
  /// order; each also has a note.
  std::vector<SkippedScheme> skipped;

  /// Records a skip and its note "<scheme>: skipped (<reason>)".
  void skip(std::string scheme, std::string reason, bool size_limit = false);
  /// True when the budget or a solver failure degraded a scheme (Monte
  /// Carlo Shapley, or a skip that is not a size limit).
  [[nodiscard]] bool cut_short() const noexcept;
};

/// Computes every sharing scheme with per-engine degradation. `tab` may
/// be null when tabulation itself was cut short by the deadline; the
/// schemes that need the full table (nucleolus, Banzhaf, core checks)
/// are then skipped and Shapley runs Monte Carlo against `game`
/// directly. Every skip lands in `skipped` and `notes`, including a
/// nucleolus ruled out by size (n past the dense ceiling without a
/// non-trivial partition). Pass empty weight vectors to skip the
/// proportional schemes, mirroring game::compare_schemes. `lp_solver` picks the
/// simplex engine for the nucleolus LPs (the CLI's --lp-solver flag).
/// A non-trivial `partition` routes the nucleolus through the orbit-row
/// quotient formulation (see game::nucleolus_quotient), lifting the
/// dense n <= 10 ceiling; a budget trip inside either path degrades to
/// a skip instead of throwing.
[[nodiscard]] ResilientSchemes compare_schemes_resilient(
    const game::Game& game, const game::TabularGame* tab,
    const std::vector<double>& availability_weights,
    const std::vector<double>& consumption_weights,
    const ComputeBudget& budget = {}, std::uint64_t mc_samples = 4096,
    std::uint64_t mc_seed = 1,
    lp::SolverKind lp_solver = lp::SolverKind::kDense,
    const game::PlayerPartition* partition = nullptr,
    game::QuotientNucleolusInfo* nucleolus_info = nullptr);

/// Verification-aware variant (the CLI's --verify flag with a deadline
/// active). Behaviour by verify_options.level:
///  * kOff   — identical to compare_schemes_resilient; `audit` untouched.
///  * kCheap — same computation, then game/outcome audits into `*audit`.
///  * kFull  — every nucleolus LP additionally runs under the
///    certificate-check/refine/escalate cascade (verify/certified.hpp),
///    and the observer's tallies land in audit->lp.
/// When tabulation was cut short (tab == nullptr) the audits are skipped
/// — sampling V(S) on the raw game could re-trigger the very work the
/// deadline cut — and an issue records that verification was abridged.
[[nodiscard]] ResilientSchemes compare_schemes_resilient_verified(
    const game::Game& game, const game::TabularGame* tab,
    const std::vector<double>& availability_weights,
    const std::vector<double>& consumption_weights,
    const verify::VerifyOptions& verify_options, verify::AuditReport* audit,
    const ComputeBudget& budget = {}, std::uint64_t mc_samples = 4096,
    std::uint64_t mc_seed = 1,
    lp::SolverKind lp_solver = lp::SolverKind::kDense,
    const game::PlayerPartition* partition = nullptr,
    game::QuotientNucleolusInfo* nucleolus_info = nullptr);

}  // namespace fedshare::runtime
