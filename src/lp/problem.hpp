// Linear-program builder.
//
// A Problem holds `maximize/minimize c^T x` subject to linear constraints
// `a^T x {<=,==,>=} b`. Variables are non-negative by default; individual
// variables can be declared free (they are split internally by the solver).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fedshare::lp {

/// Constraint relation.
enum class Relation { kLessEqual, kEqual, kGreaterEqual };

/// Optimization direction.
enum class Objective { kMaximize, kMinimize };

/// One linear constraint: coefficients (dense, one per variable), relation,
/// right-hand side.
struct Constraint {
  std::vector<double> coefficients;
  Relation relation = Relation::kLessEqual;
  double rhs = 0.0;
};

/// A linear program over a fixed number of variables.
class Problem {
 public:
  /// Creates a problem with `num_variables` variables (>= 1), all with
  /// objective coefficient 0 and non-negativity bounds.
  explicit Problem(std::size_t num_variables,
                   Objective sense = Objective::kMaximize);

  /// Sets the objective coefficient of one variable.
  void set_objective_coefficient(std::size_t variable, double coefficient);

  /// Declares a variable free (may take negative values).
  void set_free(std::size_t variable);

  /// Adds a constraint; `coefficients` must have one entry per variable.
  void add_constraint(std::vector<double> coefficients, Relation relation,
                      double rhs);

  /// Replaces the right-hand side of an existing constraint. The cheap
  /// path for families of LPs that differ only in rhs (per-coalition
  /// capacity patches): build once, patch in place, re-solve.
  void set_constraint_rhs(std::size_t constraint, double rhs);

  /// Replaces an existing constraint wholesale (coefficients, relation,
  /// rhs). The row-set patching path for probe chains whose constraint
  /// *set* evolves in place — e.g. the nucleolus converting an active
  /// excess row `a^T x + eps >= b` into a fixed row `a^T x == b'`
  /// between rounds — without rebuilding the whole problem.
  void set_constraint(std::size_t constraint,
                      std::vector<double> coefficients, Relation relation,
                      double rhs);

  /// Re-shapes the problem in place to `num_variables` variables (all
  /// non-negative, objective 0) and `num_constraints` constraints
  /// 0 <= 0, for a family of LPs of changing shape rebuilt between
  /// solves: the storage of the constraints kept is reused, so a rebuild
  /// no larger than an earlier one allocates nothing. Fill the rows with
  /// edit_constraint.
  void reshape(std::size_t num_variables, std::size_t num_constraints);

  /// Sets an existing constraint's relation and rhs and returns its
  /// coefficients (one per variable) for writing in place; the view is
  /// valid until the next call that adds constraints or reshapes.
  [[nodiscard]] std::span<double> edit_constraint(std::size_t constraint,
                                                  Relation relation,
                                                  double rhs);

  [[nodiscard]] std::size_t num_variables() const noexcept {
    return objective_.size();
  }
  [[nodiscard]] std::size_t num_constraints() const noexcept {
    return constraints_.size();
  }
  [[nodiscard]] Objective sense() const noexcept { return sense_; }
  [[nodiscard]] const std::vector<double>& objective() const noexcept {
    return objective_;
  }
  [[nodiscard]] const std::vector<Constraint>& constraints() const noexcept {
    return constraints_;
  }
  /// Whether `variable` is free; throws std::out_of_range past the last
  /// one. Inline: the dense engine asks once per coefficient it reads.
  [[nodiscard]] bool is_free(std::size_t variable) const {
    if (variable >= free_.size()) throw_variable_out_of_range();
    return free_[variable];
  }

 private:
  [[noreturn]] static void throw_variable_out_of_range();

  Objective sense_;
  std::vector<double> objective_;
  std::vector<bool> free_;
  std::vector<Constraint> constraints_;
};

}  // namespace fedshare::lp
