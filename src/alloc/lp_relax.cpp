#include "alloc/lp_relax.hpp"

#include <stdexcept>

#include "lp/simplex.hpp"

namespace fedshare::alloc {

RelaxationTemplate::RelaxationTemplate(std::size_t num_locations,
                                       std::vector<RequestClass> classes)
    : num_locations_(num_locations), classes_(std::move(classes)) {
  for (const auto& rc : classes_) {
    rc.validate();
    if (rc.exponent > 1.0) {
      throw std::invalid_argument(
          "lp_upper_bound: only valid for exponents <= 1");
    }
  }
  const std::size_t num_cls = classes_.size();
  if (num_locations_ == 0 || num_cls == 0) return;

  // Variable y[c * num_loc + l]: class-c experiment-assignments at
  // location l. Objective: one utility unit per assignment (d <= 1 bound).
  lp::Problem prob(num_cls * num_locations_, lp::Objective::kMaximize);
  for (std::size_t v = 0; v < num_cls * num_locations_; ++v) {
    prob.set_objective_coefficient(v, 1.0);
  }
  // Capacity: sum_c y_{c,l} * r_c <= C_l (constraint l, patched later).
  for (std::size_t l = 0; l < num_locations_; ++l) {
    std::vector<double> row(num_cls * num_locations_, 0.0);
    for (std::size_t c = 0; c < num_cls; ++c) {
      row[c * num_locations_ + l] = classes_[c].units_per_location;
    }
    prob.add_constraint(std::move(row), lp::Relation::kLessEqual, 0.0);
  }
  // Per-location class cap: y_{c,l} <= count_c (an experiment uses a
  // location at most once, so at most count_c class-c uses per location).
  for (std::size_t c = 0; c < num_cls; ++c) {
    for (std::size_t l = 0; l < num_locations_; ++l) {
      std::vector<double> row(num_cls * num_locations_, 0.0);
      row[c * num_locations_ + l] = 1.0;
      prob.add_constraint(std::move(row), lp::Relation::kLessEqual,
                          classes_[c].count);
    }
  }
  problem_ = std::move(prob);
}

const lp::Problem& RelaxationTemplate::problem() const {
  if (!problem_) {
    throw std::logic_error("RelaxationTemplate: empty template has no LP");
  }
  return *problem_;
}

lp::ProblemPatch RelaxationTemplate::capacity_patch(
    const std::vector<double>& capacities) const {
  if (capacities.size() != num_locations_) {
    throw std::invalid_argument(
        "RelaxationTemplate: need one capacity per location");
  }
  lp::ProblemPatch patch;
  patch.rhs.reserve(num_locations_);
  for (std::size_t l = 0; l < num_locations_; ++l) {
    patch.rhs.push_back({l, capacities[l]});
  }
  return patch;
}

void RelaxationTemplate::apply_capacities(
    lp::Problem& prob, const std::vector<double>& capacities) const {
  if (capacities.size() != num_locations_) {
    throw std::invalid_argument(
        "RelaxationTemplate: need one capacity per location");
  }
  for (std::size_t l = 0; l < num_locations_; ++l) {
    prob.set_constraint_rhs(l, capacities[l]);
  }
}

double lp_upper_bound(const LocationPool& pool,
                      const std::vector<RequestClass>& classes) {
  pool.validate();
  const RelaxationTemplate tmpl(pool.num_locations(), classes);
  if (tmpl.empty()) return 0.0;
  lp::Problem prob = tmpl.problem();
  tmpl.apply_capacities(prob, pool.capacity);
  const lp::Solution sol = lp::solve(prob);
  if (!sol.optimal()) {
    throw std::runtime_error("lp_upper_bound: LP solve failed");
  }
  return sol.objective;
}

}  // namespace fedshare::alloc
