// Objective-only warm re-solve chains against one cached factorization.
//
// The nucleolus probe chains solve long runs of LPs that share rows,
// rhs and bounds and differ only in their objective, each warm from the
// previous optimum. Chained through per-probe
// RevisedSimplex::solve_from_basis calls, every probe re-runs the whole
// warm preamble — prepare, adopt statuses, LU-factorize the basis, FTRAN
// the rhs — although for objective-only changes that state is a pure
// function of the basic set, which most probes do not move.
//
// BatchSolver keeps that state as a frame: the LU of the current basis
// and its basic values. A probe whose starting statuses match the frame
// re-prices the new objective against it (one BTRAN and two scans); when
// the basis is still optimal it extracts the Solution directly, and when
// the objective wants pivots it hands the cached state to the engine's
// own dual/primal runs. Probes that start from a different basis take
// the ordinary solve_from_basis path and rebuild the frame afterwards.
//
// Determinism contract: every Solution, Basis snapshot, pivot count,
// and budget charge sequence is bitwise/observably identical to the
// equivalent chain of RevisedSimplex::solve_from_basis calls on one
// engine. The frame cache only skips recomputing state that the next
// solve's preamble would rebuild bitwise. A BatchSolver is driven by one
// thread at a time.
#pragma once

#include <vector>

#include "lp/revised_simplex.hpp"

namespace fedshare::lp {

class BatchSolver {
 public:
  /// Copies `prototype` (computational form, rhs, bounds, options) as
  /// the engine every probe of the chain runs on.
  explicit BatchSolver(const RevisedSimplex& prototype);

  /// Objective-only warm re-solve from `basis` (the nucleolus probe
  /// shape: rhs and bounds never change across the chain). Consecutive
  /// zero-pivot probes whose starting statuses match the cached frame
  /// skip prepare/adopt/factorize/FTRAN entirely — one BTRAN for the
  /// new objective plus two scans. An empty `basis` solves cold.
  [[nodiscard]] Solution solve_objective(const std::vector<double>& objective,
                                         const Basis& basis,
                                         Basis* basis_out = nullptr);

  /// Appends a row to the chain's engine (RevisedSimplex::add_constraint)
  /// and drops the cached frame, whose factorization no longer spans the
  /// basis. Bases handed to later probes may predate the append.
  void add_constraint(const std::vector<double>& coefficients,
                      Relation relation, double rhs);

 private:
  // After a pivoting solve on the engine, replays the warm-start
  // preamble (prepare / adopt / factorize / FTRAN) once so the next
  // zero-pivot probe can reuse the cached state. Pure replay: it only
  // reconstructs state the next solve's own preamble would rebuild.
  void rebuild_frame_from_current();
  void refresh_y();
  [[nodiscard]] bool primal_feasible() const;
  [[nodiscard]] bool pricing_none() const;
  [[nodiscard]] bool dual_feasible_from_d() const;

  RevisedSimplex engine_;  ///< frame engine, persistent across the chain

  // Frame cache. frame_ok_: engine_'s LU matches its basic set with an
  // empty eta file, and x_basic_ is a fresh compute_basic_values for the
  // current instance data. y_/d_ are rebuilt per probe by refresh_y.
  bool frame_ok_ = false;
  std::vector<double> y_;  ///< btran'd basic costs of the frame
  std::vector<double> d_;  ///< reduced cost per column against y_
};

}  // namespace fedshare::lp
