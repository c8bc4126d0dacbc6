#include "lp/problem.hpp"

#include <stdexcept>

namespace fedshare::lp {

Problem::Problem(std::size_t num_variables, Objective sense)
    : sense_(sense), objective_(num_variables, 0.0),
      free_(num_variables, false) {
  if (num_variables == 0) {
    throw std::invalid_argument("Problem: need at least one variable");
  }
}

void Problem::set_objective_coefficient(std::size_t variable,
                                        double coefficient) {
  if (variable >= objective_.size()) {
    throw std::out_of_range("Problem: variable index out of range");
  }
  objective_[variable] = coefficient;
}

void Problem::set_free(std::size_t variable) {
  if (variable >= free_.size()) {
    throw std::out_of_range("Problem: variable index out of range");
  }
  free_[variable] = true;
}

void Problem::add_constraint(std::vector<double> coefficients,
                             Relation relation, double rhs) {
  if (coefficients.size() != objective_.size()) {
    throw std::invalid_argument(
        "Problem::add_constraint: coefficient count must match variables");
  }
  constraints_.push_back({std::move(coefficients), relation, rhs});
}

void Problem::set_constraint_rhs(std::size_t constraint, double rhs) {
  if (constraint >= constraints_.size()) {
    throw std::out_of_range("Problem: constraint index out of range");
  }
  constraints_[constraint].rhs = rhs;
}

void Problem::set_constraint(std::size_t constraint,
                             std::vector<double> coefficients,
                             Relation relation, double rhs) {
  if (constraint >= constraints_.size()) {
    throw std::out_of_range("Problem: constraint index out of range");
  }
  if (coefficients.size() != objective_.size()) {
    throw std::invalid_argument(
        "Problem::set_constraint: coefficient count must match variables");
  }
  constraints_[constraint] = {std::move(coefficients), relation, rhs};
}

void Problem::reshape(std::size_t num_variables,
                      std::size_t num_constraints) {
  if (num_variables == 0) {
    throw std::invalid_argument("Problem: need at least one variable");
  }
  objective_.assign(num_variables, 0.0);
  free_.assign(num_variables, false);
  constraints_.resize(num_constraints);
  for (Constraint& c : constraints_) {
    c.coefficients.assign(num_variables, 0.0);
    c.relation = Relation::kLessEqual;
    c.rhs = 0.0;
  }
}

std::span<double> Problem::edit_constraint(std::size_t constraint,
                                           Relation relation, double rhs) {
  if (constraint >= constraints_.size()) {
    throw std::out_of_range("Problem: constraint index out of range");
  }
  Constraint& c = constraints_[constraint];
  c.relation = relation;
  c.rhs = rhs;
  return c.coefficients;
}

void Problem::throw_variable_out_of_range() {
  throw std::out_of_range("Problem: variable index out of range");
}

}  // namespace fedshare::lp
