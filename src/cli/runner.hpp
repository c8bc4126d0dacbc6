// The fedshare CLI engine: parse a federation config, build the game,
// and render a sharing report. Kept as a library so tests can drive it
// without spawning processes; tools/fedshare_cli.cpp is the thin main.
//
// Config format (INI, see io/config.hpp):
//
//   [facility]            # one block per facility (>= 1 required)
//   name = PLC
//   locations = 300       # L_i (required)
//   units = 4             # R_i (default 1)
//   availability = 1.0    # T_i (default 1)
//
//   [demand]              # one block per request class (>= 1 required)
//   count = 10            # experiments (default 1)
//   min_locations = 450   # threshold l (default 0)
//   units = 1             # r per location (default 1)
//   exponent = 1          # utility shape d (default 1)
//
//   [options]             # optional
//   precision = 4         # digits in the report (an integer, 0..17)
//
// Facilities may optionally declare `region = <name>`; when any does,
// the report adds a hierarchy section (quotient Shapley per region and
// structure-consistent Owen shares per facility). Facilities without a
// region form their own singleton block.
//
// Resilience flags (tools/fedshare_cli.cpp, mapped onto ReportOptions):
//
//   --deadline-ms <ms>       compute budget for the exponential solvers;
//                            when it trips the report degrades (Monte-
//                            Carlo Shapley with standard errors, schemes
//                            needing the full coalition table skipped)
//                            instead of running long, and a Resilience
//                            section records which engines answered.
//   --outage-scenarios <k>   sample k outage scenarios from each
//                            facility's availability T_i and append a
//                            share/payoff distribution section.
//   --outage-seed <seed>     RNG seed for the outage sampler (default 1).
//   --threads <n>            exec worker threads (see exec/pool.hpp);
//                            maps to exec::set_threads() before the
//                            report runs. Results are identical at any
//                            thread count.
//   --verify <off|cheap|full>
//                            verification level (see verify/). `cheap`
//                            audits the game and every scheme outcome
//                            (monotonicity/superadditivity samples,
//                            efficiency, core residuals, nucleolus
//                            excess optimality) and appends a
//                            Verification section; `full` additionally
//                            runs every LP solve through the
//                            certificate-check / refine / cross-engine
//                            cascade. `off` (the default) skips all of
//                            it.
//   --symmetry <off|auto|exact>
//                            symmetry quotient (see core/symmetry.hpp).
//                            `exact` groups equal-config facilities into
//                            types and evaluates one allocation per
//                            orbit (prod (m_t + 1) instead of 2^n);
//                            `auto` verifies the grouping on sampled
//                            coalitions first; `off` (the default)
//                            keeps the per-coalition path.
//   --structure <off|optimal|hedonic>
//                            coalition-structure analysis (see
//                            src/structure). `optimal` appends a
//                            section with the welfare-maximising
//                            partition from the exact subset-lattice
//                            DP; `hedonic` reports the merge/split
//                            fixed point instead. Both include
//                            stability verdicts (D_hp and within-block
//                            defection-proofness). `off` (the default)
//                            leaves the output untouched.
//
// Every flag combination runs the same report body. A report that
// leaves a scheme out (a budget trip, or the nucleolus past the dense
// ceiling without --symmetry) says why in a Resilience section, and the
// CLI exits 3.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "io/config.hpp"
#include "lp/simplex.hpp"
#include "model/federation.hpp"
#include "runtime/budget.hpp"
#include "structure/csg.hpp"
#include "verify/certificates.hpp"

namespace fedshare::cli {

/// Knobs for run_report. Default-constructed options give the plain
/// report: unlimited budget, no optional sections.
struct ReportOptions {
  /// Compute budget for the exponential solvers (tabulation, exact
  /// Shapley, nucleolus LPs). Unset = unlimited.
  std::optional<double> deadline_ms;
  /// When > 0, append an outage-distribution section over this many
  /// sampled scenarios.
  int outage_scenarios = 0;
  /// Seed for the outage sampler.
  std::uint64_t outage_seed = 1;
  /// The engine the nucleolus LPs run on: always the started dense
  /// engine, which lp::SimplexOptions selects by default. Not settable;
  /// kept only because perfbench/ reads it, until the benchmark next
  /// changes.
  static constexpr lp::SolverKind lp_solver = lp::SolverKind::kDense;
  /// Verification level (--verify). kOff runs no audit; kCheap appends
  /// a Verification section with the game/outcome audits; kFull
  /// additionally certifies every LP solve through the verification
  /// cascade.
  verify::VerifyLevel verify = verify::VerifyLevel::kOff;
  /// Symmetry quotient (--symmetry, see core/symmetry.hpp). kOff (the
  /// default) keeps the historical per-mask tabulation and output;
  /// kExact groups equal-config facilities into types and evaluates one
  /// allocation per orbit; kAuto additionally verifies the grouping
  /// with the sampling oracle. Non-kOff modes append a Symmetry section
  /// but produce the same values (symmetric games only).
  game::SymmetryMode symmetry = game::SymmetryMode::kOff;
  /// Coalition-structure analysis (--structure, see structure/csg.hpp).
  /// kOff (the default) leaves the report untouched; kOptimal appends a
  /// section with the exact-DP welfare-optimal partition; kHedonic with
  /// the merge/split fixed point. Both report stability verdicts.
  structure::StructureMode structure = structure::StructureMode::kOff;
  /// --cache-stats: append a Value cache section with the federation's
  /// raw V(S) memo counters (entries, hits/misses, invalidations). Off
  /// by default. Not part of any():
  /// the footer does not call for a Resilience section.
  bool cache_stats = false;

  /// True when a deadline or outage scenarios were requested, which
  /// always prints the Resilience section.
  [[nodiscard]] bool any() const noexcept {
    return deadline_ms.has_value() || outage_scenarios > 0;
  }
};

/// Builds a Federation from a parsed config. Throws io::ConfigError on
/// missing/invalid sections or values.
[[nodiscard]] model::Federation federation_from_config(
    const io::Config& config);

/// Full report: coalition values, game properties, and every sharing
/// scheme with core membership. Deterministic text output.
[[nodiscard]] std::string run_report(const io::Config& config);

/// Report with options. With default options this is run_report(config);
/// with a deadline the solvers degrade gracefully (the report always
/// completes) and a Resilience section is appended; with outage
/// scenarios an outage-distribution section is appended.
[[nodiscard]] std::string run_report(const io::Config& config,
                                     const ReportOptions& options);

/// A report plus degradation telemetry, so callers (the CLI) can turn
/// "some section degraded or some scheme was skipped" into a nonzero
/// exit code and a stderr note instead of silently printing a reduced
/// report.
struct ReportResult {
  std::string text;
  /// Why the budget tripped (kNone when nothing degraded, or when only
  /// the instance's size left a scheme out).
  runtime::StopReason stop = runtime::StopReason::kNone;
  /// Human-readable names of the degraded sections and skipped schemes,
  /// report order (e.g. "coalition table", "shapley (monte-carlo
  /// fallback)", "nucleolus").
  std::vector<std::string> degraded_sections;
  [[nodiscard]] bool degraded() const noexcept {
    return !degraded_sections.empty();
  }
};

/// run_report with telemetry; `text` is byte-identical to
/// run_report(config, options).
[[nodiscard]] ReportResult run_report_result(const io::Config& config,
                                             const ReportOptions& options);

/// Convenience: parse `text` and report; rethrows io::ConfigError.
[[nodiscard]] std::string run_report_from_string(const std::string& text);

/// The federation's characteristic function serialized in the
/// fedshare-game v1 format (see core/game_io.hpp), for `--dump-game`.
[[nodiscard]] std::string dump_game_text(const io::Config& config);

}  // namespace fedshare::cli
