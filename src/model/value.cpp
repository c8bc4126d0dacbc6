#include "model/value.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "alloc/greedy.hpp"
#include "alloc/lp_relax.hpp"
#include "exec/pool.hpp"
#include "lp/batch_solver.hpp"
#include "lp/revised_simplex.hpp"

namespace fedshare::model {

alloc::AllocationResult coalition_allocation(const LocationSpace& space,
                                             const DemandProfile& demand,
                                             game::Coalition coalition) {
  demand.validate();
  const alloc::LocationPool pool = space.pool_for(coalition);
  return alloc::allocate_greedy(pool, demand.classes);
}

double coalition_value(const LocationSpace& space, const DemandProfile& demand,
                       game::Coalition coalition) {
  if (coalition.empty()) return 0.0;
  return alloc::allocate_greedy(space.capacity_histogram(coalition),
                                demand.classes)
      .total_utility;
}

std::vector<double> consumption_weights(const LocationSpace& space,
                                        const DemandProfile& demand) {
  const game::Coalition grand =
      game::Coalition::grand(space.num_facilities());
  const alloc::AllocationResult result =
      coalition_allocation(space, demand, grand);
  return space.attribute_consumption(grand, result.units_per_location);
}

namespace {

int popcount32(std::uint32_t v) noexcept {
  int c = 0;
  while (v != 0) {
    v &= v - 1;
    ++c;
  }
  return c;
}

bool same_facility_config(const FacilityConfig& a, const FacilityConfig& b) {
  return a.num_locations == b.num_locations &&
         a.units_per_location == b.units_per_location &&
         a.availability == b.availability && a.custom_units == b.custom_units;
}

// Batched sweeps hand this many sibling groups to one BatchSolver per
// worker chunk — large enough to amortize the solver's engine clones
// and frame cache, small enough to keep levels load-balanced.
constexpr std::uint64_t kGroupChunk = 8;

}  // namespace

game::PlayerPartition config_symmetry_partition(const LocationSpace& space) {
  const int n = space.num_facilities();
  // Disjointness gate: grouping is only sound when no two facilities
  // share a location (then swapping equal-config members permutes the
  // pooled capacity vector without changing its multiset).
  std::size_t own_locations = 0;
  for (int i = 0; i < n; ++i) {
    own_locations += space.locations_of(i).size();
  }
  if (n > 0 &&
      static_cast<std::size_t>(
          space.distinct_locations(game::Coalition::grand(n))) !=
          own_locations) {
    return game::PlayerPartition::identity(n);
  }
  std::vector<int> type_of(static_cast<std::size_t>(n), 0);
  std::vector<int> anchors;  // first facility of each type
  for (int i = 0; i < n; ++i) {
    int label = -1;
    for (std::size_t t = 0; t < anchors.size(); ++t) {
      if (same_facility_config(space.facility(i).config(),
                               space.facility(anchors[t]).config())) {
        label = static_cast<int>(t);
        break;
      }
    }
    if (label < 0) {
      label = static_cast<int>(anchors.size());
      anchors.push_back(i);
    }
    type_of[static_cast<std::size_t>(i)] = label;
  }
  return game::PlayerPartition::from_type_of(type_of);
}

LpSweepResult lp_relaxation_sweep(const LocationSpace& space,
                                  const DemandProfile& demand,
                                  const LpSweepOptions& options) {
  demand.validate();
  const int n = space.num_facilities();
  if (n > 20) {
    throw std::invalid_argument(
        "lp_relaxation_sweep: more than 20 facilities");
  }
  const std::size_t count = std::size_t{1} << n;
  LpSweepResult result;
  result.values.assign(count, 0.0);
  if (n == 0) return result;

  // Optional symmetry quotient: one LP per orbit instead of one per
  // mask. Detection is static (config equality + disjointness); kAuto
  // re-checks the candidate with the sampling oracle on the greedy V.
  game::PlayerPartition partition = game::PlayerPartition::identity(n);
  if (options.symmetry != game::SymmetryMode::kOff) {
    partition = config_symmetry_partition(space);
    if (options.symmetry == game::SymmetryMode::kAuto &&
        !partition.is_trivial()) {
      const game::FunctionGame raw(n, [&](game::Coalition s) {
        return coalition_value(space, demand, s);
      });
      partition = game::verified_partition(raw, partition);
    }
  }

  const game::Coalition grand = game::Coalition::grand(n);
  const std::vector<int> ids = space.pooled_location_ids(grand);
  const std::size_t num_loc = ids.size();
  alloc::RelaxationTemplate tmpl(num_loc, demand.classes);
  if (tmpl.empty()) return result;

  // Position of each location id within the grand pool, and each
  // facility's capacity contribution at those positions. A coalition's
  // capacity vector is the sum of its members' contributions (uncovered
  // locations stay 0, equivalent to dropping them).
  std::vector<std::size_t> pos_of(
      static_cast<std::size_t>(space.num_locations()), 0);
  for (std::size_t p = 0; p < num_loc; ++p) {
    pos_of[static_cast<std::size_t>(ids[p])] = p;
  }
  struct Contribution {
    std::size_t pos;
    double units;
  };
  std::vector<std::vector<Contribution>> contrib(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto& locs = space.locations_of(i);
    const Facility& fac = space.facility(i);
    auto& list = contrib[static_cast<std::size_t>(i)];
    list.reserve(locs.size());
    for (std::size_t k = 0; k < locs.size(); ++k) {
      list.push_back({pos_of[static_cast<std::size_t>(locs[k])],
                      fac.effective_units_at(static_cast<int>(k))});
    }
  }

  const bool revised = options.simplex.solver == lp::SolverKind::kRevised;
  const bool warm = revised && options.warm_start;
  // Batched level solving applies to the unbudgeted, unobserved warm
  // sweep (budgets need per-chunk charging order, observers need a
  // per-LP mirror — both spill to the legacy path).
  const bool batch = warm && options.batch &&
                     options.simplex.budget == nullptr &&
                     options.simplex.observer == nullptr;
  lp::SimplexOptions chunk_options = options.simplex;
  chunk_options.budget = nullptr;  // budgets are forked per chunk below
  // Template engine cloned per coalition: the clone carries the
  // presolved computational form, so per-mask work is patch + solve.
  std::optional<lp::RevisedSimplex> proto;
  if (revised) proto.emplace(tmpl.problem(), chunk_options);

  if (!partition.is_trivial()) {
    // Quotient sweep: solve each orbit's canonical representative, warm
    // chained along the quotient lattice, then expand orbit values back
    // to all 2^n masks. Per-orbit result slots keep the exec determinism
    // contract, exactly like the per-mask sweep below.
    const game::OrbitIndex index(partition);
    const std::uint64_t orbits = index.orbit_count();
    std::vector<double> orbit_values(orbits, 0.0);
    std::vector<std::uint64_t> orbit_pivots(orbits, 0);
    std::vector<unsigned char> orbit_solved(orbits, 0);
    orbit_solved[0] = 1;
    std::vector<lp::Basis> orbit_bases(warm ? orbits : 0);

    const auto orbit_caps_into = [&](std::uint64_t orbit,
                                     std::vector<double>& caps) {
      const std::uint64_t rep = index.representative(orbit);
      caps.assign(num_loc, 0.0);
      for (int i = 0; i < n; ++i) {
        if (((rep >> i) & 1u) == 0) continue;
        for (const Contribution& c : contrib[static_cast<std::size_t>(i)]) {
          caps[c.pos] += c.units;
        }
      }
    };
    const auto orbit_caps = [&](std::uint64_t orbit) {
      std::vector<double> caps;
      orbit_caps_into(orbit, caps);
      return caps;
    };
    // Warm chain: drop one member of the lowest populated type — the
    // quotient analogue of mask & (mask - 1). Representatives take
    // the lowest-indexed members, so the predecessor's representative
    // is a strict subset of this one.
    const auto orbit_pred = [&](std::uint64_t orbit) {
      for (int t = 0; t < index.num_types(); ++t) {
        if (const auto p = index.predecessor(orbit, t)) return *p;
      }
      return std::uint64_t{0};
    };

    const auto process_orbit = [&](std::uint64_t orbit,
                                   const runtime::ComputeBudget* budget) {
      const std::vector<double> caps = orbit_caps(orbit);
      const std::uint64_t pred = orbit_pred(orbit);
      lp::Solution sol;
      if (revised) {
        lp::RevisedSimplex engine = *proto;
        engine.set_budget(budget);
        engine.apply(tmpl.capacity_patch(caps));
        if (warm && !orbit_bases[pred].empty()) {
          sol = engine.solve_from_basis(orbit_bases[pred]);
        } else {
          sol = engine.solve();
        }
        if (warm && sol.optimal()) orbit_bases[orbit] = engine.basis();
      } else {
        lp::Problem prob = tmpl.problem();
        tmpl.apply_capacities(prob, caps);
        lp::SimplexOptions so = chunk_options;
        so.budget = budget;
        sol = lp::solve(prob, so);
      }
      orbit_pivots[orbit] = sol.pivots;
      if (sol.optimal()) {
        orbit_values[orbit] = sol.objective;
        orbit_solved[orbit] = 1;
      }
      return sol.status != lp::SolveStatus::kBudgetExhausted;
    };

    std::vector<std::vector<std::uint64_t>> orbit_levels(
        static_cast<std::size_t>(n) + 1);
    for (std::uint64_t orbit = 1; orbit < orbits; ++orbit) {
      orbit_levels[static_cast<std::size_t>(index.level(orbit))].push_back(
          orbit);
    }
    constexpr std::uint64_t kOrbitChunk = 4;
    bool cancelled = false;
    for (int lvl = 1; lvl <= n && !cancelled; ++lvl) {
      const auto& os = orbit_levels[static_cast<std::size_t>(lvl)];
      if (options.simplex.budget != nullptr) {
        cancelled = !exec::parallel_for_budgeted(
            0, os.size(), kOrbitChunk, *options.simplex.budget,
            [&](const exec::ChunkRange& r,
                const runtime::ComputeBudget& child) {
              for (std::uint64_t k = r.begin; k < r.end; ++k) {
                if (!process_orbit(os[k], &child)) return false;
              }
              return true;
            });
      } else if (batch) {
        // Group this level's orbits by their predecessor's basis
        // statuses; each group shares one factorization through a
        // BatchSolver. A level has few distinct status vectors, so a
        // linear scan over group representatives (one byte-compare
        // each) beats a keyed map; groups run in first-appearance
        // order with members in ascending orbit id, both deterministic.
        // Orbits whose predecessor has no basis solve cold on the
        // legacy path.
        std::vector<const lp::Basis*> reps;
        std::vector<std::vector<std::uint64_t>> groups;
        std::vector<std::uint64_t> cold;
        for (const std::uint64_t orbit : os) {
          const lp::Basis& pb = orbit_bases[orbit_pred(orbit)];
          if (pb.empty()) {
            cold.push_back(orbit);
            continue;
          }
          std::size_t g = 0;
          while (g < reps.size() && reps[g]->status != pb.status) ++g;
          if (g == reps.size()) {
            reps.push_back(&pb);
            groups.emplace_back();
          }
          groups[g].push_back(orbit);
        }
        exec::parallel_for(0, cold.size(), kOrbitChunk,
                           [&](const exec::ChunkRange& r) {
                             for (std::uint64_t k = r.begin; k < r.end; ++k) {
                               process_orbit(cold[k], nullptr);
                             }
                             return true;
                           });
        std::vector<std::uint64_t> fast_slots(groups.size(), 0);
        std::vector<std::uint64_t> spill_slots(groups.size(), 0);
        exec::parallel_for(
            0, groups.size(), kGroupChunk, [&](const exec::ChunkRange& r) {
              // One solver (three engine clones) per chunk, not per
              // group: solve_group re-adopts the start basis and
              // restores the prototype rhs on entry, so reuse is
              // bitwise inert — it only recycles allocations and the
              // frame cache.
              lp::BatchSolver solver(*proto);
              std::vector<lp::ProblemPatch> patches;
              std::vector<lp::Solution> sols;
              std::vector<lp::Basis> snaps;
              std::vector<double> caps;
              for (std::uint64_t g = r.begin; g < r.end; ++g) {
                const std::vector<std::uint64_t>& grp = groups[g];
                const lp::Basis& start = orbit_bases[orbit_pred(grp.front())];
                patches.resize(grp.size());
                for (std::size_t i = 0; i < grp.size(); ++i) {
                  orbit_caps_into(grp[i], caps);
                  tmpl.capacity_patch_into(caps, patches[i]);
                }
                const std::uint64_t fast0 = solver.stats().fast;
                const std::uint64_t spill0 = solver.stats().spilled;
                solver.solve_group(start, patches, sols, &snaps,
                                   /*objective_only=*/true);
                for (std::size_t i = 0; i < grp.size(); ++i) {
                  const std::uint64_t orbit = grp[i];
                  orbit_pivots[orbit] = sols[i].pivots;
                  if (sols[i].optimal()) {
                    orbit_values[orbit] = sols[i].objective;
                    orbit_solved[orbit] = 1;
                    orbit_bases[orbit] = std::move(snaps[i]);
                  }
                }
                fast_slots[g] = solver.stats().fast - fast0;
                spill_slots[g] = solver.stats().spilled - spill0;
              }
              return true;
            });
        for (std::size_t g = 0; g < groups.size(); ++g) {
          result.batch_fast += fast_slots[g];
          result.batch_spilled += spill_slots[g];
        }
      } else {
        exec::parallel_for(0, os.size(), kOrbitChunk,
                           [&](const exec::ChunkRange& r) {
                             for (std::uint64_t k = r.begin; k < r.end;
                                  ++k) {
                               process_orbit(os[k], nullptr);
                             }
                             return true;
                           });
      }
    }

    for (std::uint64_t orbit = 0; orbit < orbits; ++orbit) {
      result.total_pivots += orbit_pivots[orbit];
      if (orbit_solved[orbit] == 0) {
        result.complete = false;
      } else if (orbit != 0) {
        ++result.lps_solved;
      }
    }
    exec::parallel_for(
        0, static_cast<std::uint64_t>(count), 4096,
        [&](const exec::ChunkRange& r) {
          for (std::uint64_t mask = r.begin; mask < r.end; ++mask) {
            result.values[mask] = orbit_values[index.orbit_of(mask)];
          }
          return true;
        });
    return result;
  }

  // Per-mask result slots keep the level sweep free of shared mutable
  // state (the exec determinism contract): values, pivot counts, and
  // warm-start bases are each written by exactly one mask.
  std::vector<std::uint64_t> pivots(count, 0);
  std::vector<unsigned char> solved(count, 0);
  solved[0] = 1;
  std::vector<lp::Basis> bases(warm ? count : 0);

  const auto mask_caps_into = [&](std::uint32_t mask,
                                  std::vector<double>& caps) {
    caps.assign(num_loc, 0.0);
    for (int i = 0; i < n; ++i) {
      if (((mask >> i) & 1u) == 0) continue;
      for (const Contribution& c : contrib[static_cast<std::size_t>(i)]) {
        caps[c.pos] += c.units;
      }
    }
  };
  const auto mask_caps = [&](std::uint32_t mask) {
    std::vector<double> caps;
    mask_caps_into(mask, caps);
    return caps;
  };

  const auto process = [&](std::uint32_t mask,
                           const runtime::ComputeBudget* budget) {
    const std::vector<double> caps = mask_caps(mask);
    lp::Solution sol;
    if (revised) {
      lp::RevisedSimplex engine = *proto;
      engine.set_budget(budget);
      engine.apply(tmpl.capacity_patch(caps));
      const std::uint32_t pred = mask & (mask - 1);
      if (warm && !bases[pred].empty()) {
        sol = engine.solve_from_basis(bases[pred]);
      } else {
        sol = engine.solve();
      }
      if (warm && sol.optimal()) bases[mask] = engine.basis();
    } else {
      lp::Problem prob = tmpl.problem();
      tmpl.apply_capacities(prob, caps);
      lp::SimplexOptions so = chunk_options;
      so.budget = budget;
      sol = lp::solve(prob, so);
    }
    pivots[mask] = sol.pivots;
    if (sol.optimal()) {
      result.values[mask] = sol.objective;
      solved[mask] = 1;
    }
    return sol.status != lp::SolveStatus::kBudgetExhausted;
  };

  // Popcount-level sweep: every coalition's lattice predecessor
  // (mask & (mask - 1)) sits one level down, so each parallel_for
  // barrier guarantees the warm-start basis is ready before any reader.
  std::vector<std::vector<std::uint32_t>> levels(
      static_cast<std::size_t>(n) + 1);
  for (std::uint32_t mask = 1; mask < count; ++mask) {
    levels[static_cast<std::size_t>(popcount32(mask))].push_back(mask);
  }
  constexpr std::uint64_t kChunk = 4;
  bool cancelled = false;
  for (int lvl = 1; lvl <= n && !cancelled; ++lvl) {
    const auto& ms = levels[static_cast<std::size_t>(lvl)];
    if (options.simplex.budget != nullptr) {
      cancelled = !exec::parallel_for_budgeted(
          0, ms.size(), kChunk, *options.simplex.budget,
          [&](const exec::ChunkRange& r, const runtime::ComputeBudget& child) {
            for (std::uint64_t k = r.begin; k < r.end; ++k) {
              if (!process(ms[k], &child)) return false;
            }
            return true;
          });
    } else if (batch) {
      // Same grouping as the quotient branch: siblings whose lattice
      // predecessors left identical basis statuses share one
      // factorization. A linear representative scan replaces a keyed
      // map — levels have few distinct status vectors and the byte
      // compare is cheaper than hashing/ordering thousands of keys.
      // Cold masks take the legacy path.
      std::vector<const lp::Basis*> reps;
      std::vector<std::vector<std::uint32_t>> groups;
      std::vector<std::uint32_t> cold;
      for (const std::uint32_t mask : ms) {
        const lp::Basis& pb = bases[mask & (mask - 1)];
        if (pb.empty()) {
          cold.push_back(mask);
          continue;
        }
        std::size_t g = 0;
        while (g < reps.size() && reps[g]->status != pb.status) ++g;
        if (g == reps.size()) {
          reps.push_back(&pb);
          groups.emplace_back();
        }
        groups[g].push_back(mask);
      }
      exec::parallel_for(0, cold.size(), kChunk,
                         [&](const exec::ChunkRange& r) {
                           for (std::uint64_t k = r.begin; k < r.end; ++k) {
                             process(cold[k], nullptr);
                           }
                           return true;
                         });
      std::vector<std::uint64_t> fast_slots(groups.size(), 0);
      std::vector<std::uint64_t> spill_slots(groups.size(), 0);
      exec::parallel_for(
          0, groups.size(), kGroupChunk, [&](const exec::ChunkRange& r) {
            // One solver per chunk (see the quotient branch): reuse is
            // bitwise inert, it only recycles allocations and the
            // frame cache.
            lp::BatchSolver solver(*proto);
            std::vector<lp::ProblemPatch> patches;
            std::vector<lp::Solution> sols;
            std::vector<lp::Basis> snaps;
            std::vector<double> caps;
            for (std::uint64_t g = r.begin; g < r.end; ++g) {
              const std::vector<std::uint32_t>& grp = groups[g];
              const lp::Basis& start = bases[grp.front() & (grp.front() - 1)];
              patches.resize(grp.size());
              for (std::size_t i = 0; i < grp.size(); ++i) {
                mask_caps_into(grp[i], caps);
                tmpl.capacity_patch_into(caps, patches[i]);
              }
              const std::uint64_t fast0 = solver.stats().fast;
              const std::uint64_t spill0 = solver.stats().spilled;
              solver.solve_group(start, patches, sols, &snaps,
                                 /*objective_only=*/true);
              for (std::size_t i = 0; i < grp.size(); ++i) {
                const std::uint32_t mask = grp[i];
                pivots[mask] = sols[i].pivots;
                if (sols[i].optimal()) {
                  result.values[mask] = sols[i].objective;
                  solved[mask] = 1;
                  bases[mask] = std::move(snaps[i]);
                }
              }
              fast_slots[g] = solver.stats().fast - fast0;
              spill_slots[g] = solver.stats().spilled - spill0;
            }
            return true;
          });
      for (std::size_t g = 0; g < groups.size(); ++g) {
        result.batch_fast += fast_slots[g];
        result.batch_spilled += spill_slots[g];
      }
    } else {
      exec::parallel_for(0, ms.size(), kChunk,
                         [&](const exec::ChunkRange& r) {
                           for (std::uint64_t k = r.begin; k < r.end; ++k) {
                             process(ms[k], nullptr);
                           }
                           return true;
                         });
    }
  }

  for (std::size_t mask = 0; mask < count; ++mask) {
    result.total_pivots += pivots[mask];
    if (solved[mask] == 0) {
      result.complete = false;
    } else if (mask != 0) {
      ++result.lps_solved;
    }
  }
  return result;
}

}  // namespace fedshare::model
