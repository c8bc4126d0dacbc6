#include "serve/state.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/limits.hpp"
#include "core/symmetry.hpp"
#include "exec/pool.hpp"
#include "model/value.hpp"
#include "runtime/outage.hpp"
#include "verify/certified.hpp"

namespace fedshare::serve {

namespace {

// Byte budget of the published-answer memo. One entry of a
// kMaxFacilities = 12 roster holds a 4096-double table (32 KiB)
// plus its weights and rows, so the memo keeps the ~30 most recent games
// of the largest roster, and hundreds of a 6-facility one.
constexpr std::size_t kAnswerMemoBytes = std::size_t{1} << 20;

// Roster slots: one per facility the service accepts.
constexpr auto kSlots = static_cast<std::size_t>(limits::kMaxFacilities.value);

// Refreshes a budget's stop reason after a failed stage (the amortised
// charge path may not have recorded a deadline yet).
runtime::StopReason stop_reason_of(const runtime::ComputeBudget& budget) {
  (void)budget.exhausted();
  const runtime::StopReason reason = budget.stop_reason();
  // A cancelled parallel job can leave the parent untripped; report the
  // most conservative reason rather than "none" for an incomplete stage.
  return reason == runtime::StopReason::kNone
             ? runtime::StopReason::kCancelled
             : reason;
}

}  // namespace

ServiceState::ServiceState(ServeOptions options)
    : options_(options),
      space_(model::LocationSpace::disjoint({})),
      cache_(std::uint64_t{1} << limits::kMaxFacilities.value),
      memo_(kAnswerMemoBytes) {
  lp_offset_.assign(kSlots, -1);
  publish_snapshot();  // epoch 0: the empty federation, always complete
}

std::uint64_t ServiceState::active_mask() const {
  std::uint64_t mask = 0;
  for (const Member& m : roster_) mask |= std::uint64_t{1} << m.slot;
  return mask;
}

int ServiceState::member_index(const std::string& name) const {
  for (std::size_t i = 0; i < roster_.size(); ++i) {
    if (roster_[i].config.name == name) return static_cast<int>(i);
  }
  return -1;
}

game::Coalition ServiceState::compact_coalition(
    std::uint64_t slot_mask) const {
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < roster_.size(); ++i) {
    if (slot_mask >> roster_[i].slot & 1) bits |= std::uint64_t{1} << i;
  }
  return game::Coalition::from_bits(bits);
}

int ServiceState::validate_and_stage(const Event& event) {
  if (const auto* e = std::get_if<FacilityJoin>(&event)) {
    try {
      e->config.validate();
    } catch (const std::invalid_argument& err) {
      throw ServeError(err.what());
    }
    if (e->config.name.empty()) throw ServeError("join: empty name");
    if (member_index(e->config.name) >= 0) {
      throw ServeError("join: facility '" + e->config.name +
                       "' is already federated");
    }
    const auto joined = static_cast<std::int64_t>(roster_.size()) + 1;
    if (limits::exceeds(joined, limits::kMaxFacilities)) {
      throw ServeError(
          limits::refusal("join: roster full", joined, limits::kMaxFacilities));
    }
    // Smallest free slot; leavers free their slot for later joiners, so
    // the lattice never outgrows 2^kMaxFacilities masks.
    const std::uint64_t used = active_mask();
    int slot = 0;
    while (used >> slot & 1) ++slot;
    Member m;
    m.slot = slot;
    m.config = e->config;
    roster_.insert(
        std::upper_bound(roster_.begin(), roster_.end(), m,
                         [](const Member& a, const Member& b) {
                           return a.slot < b.slot;
                         }),
        std::move(m));
    return slot;
  }
  if (const auto* e = std::get_if<FacilityLeave>(&event)) {
    const int idx = member_index(e->name);
    if (idx < 0) {
      throw ServeError("leave: unknown facility '" + e->name + "'");
    }
    const int slot = roster_[static_cast<std::size_t>(idx)].slot;
    roster_.erase(roster_.begin() + idx);
    return slot;
  }
  if (const auto* e = std::get_if<OutageStart>(&event)) {
    const int idx = member_index(e->name);
    if (idx < 0) {
      throw ServeError("outage-start: unknown facility '" + e->name + "'");
    }
    Member& m = roster_[static_cast<std::size_t>(idx)];
    if (m.outage) {
      throw ServeError("outage-start: '" + e->name +
                       "' is already under outage");
    }
    // Sample the mask against the *nominal* space of the roster — a
    // pure function of (seed, scenario, roster configs in slot order),
    // which is what replay determinism rests on. Each location of the
    // facility survives independently with probability T_i.
    std::vector<model::FacilityConfig> nominal;
    nominal.reserve(roster_.size());
    for (const Member& r : roster_) nominal.push_back(r.config);
    const runtime::OutageScenario scenario =
        runtime::OutageModel(e->seed).sample(
            model::LocationSpace::disjoint(std::move(nominal)), e->scenario);
    m.outage = true;
    m.outage_seed = e->seed;
    m.outage_scenario = e->scenario;
    m.up = scenario.up[static_cast<std::size_t>(idx)];
    return m.slot;
  }
  if (const auto* e = std::get_if<OutageEnd>(&event)) {
    const int idx = member_index(e->name);
    if (idx < 0) {
      throw ServeError("outage-end: unknown facility '" + e->name + "'");
    }
    Member& m = roster_[static_cast<std::size_t>(idx)];
    if (!m.outage) {
      throw ServeError("outage-end: '" + e->name + "' has no outage");
    }
    m.outage = false;
    m.up.clear();
    return m.slot;
  }
  const auto& e = std::get<DemandUpdate>(event);
  try {
    e.demand.validate();
  } catch (const std::invalid_argument& err) {
    throw ServeError(err.what());
  }
  demand_ = e.demand;
  return -1;
}

void ServiceState::rebuild_space() {
  // The effective space realises only the members under outage: their
  // surviving locations run at full capacity (availability 1 — the
  // uncertainty has resolved), down locations disappear. Members *not*
  // under outage keep their nominal availability discount, unlike
  // LocationSpace::with_outages which realises every facility at once.
  std::vector<model::FacilityConfig> configs;
  configs.reserve(roster_.size());
  for (const Member& m : roster_) {
    if (!m.outage) {
      configs.push_back(m.config);
      continue;
    }
    model::FacilityConfig cfg;
    cfg.name = m.config.name;
    cfg.availability = 1.0;
    cfg.units_per_location = m.config.units_per_location;
    for (std::size_t k = 0; k < m.up.size(); ++k) {
      if (!m.up[k]) continue;
      cfg.custom_units.push_back(m.config.custom_units.empty()
                                     ? m.config.units_per_location
                                     : m.config.custom_units[k]);
    }
    cfg.num_locations = static_cast<int>(cfg.custom_units.size());
    configs.push_back(std::move(cfg));
  }
  space_ = model::LocationSpace::disjoint(std::move(configs));
}

bool ServiceState::tabulate_values(const runtime::ComputeBudget& budget,
                                   ApplyResult& result) {
  const std::uint64_t active = active_mask();
  if (active == 0) return true;

  // Every non-empty subset of the active mask, ascending. Misses are
  // only the invalidated slice — a hit costs one lookup and is free
  // under the charging rule. The memo holds raw greedy values, so masks
  // are independent and need no level order; publish_snapshot() closes
  // the table.
  std::vector<std::uint64_t> masks;
  std::uint64_t sub = 0;
  while (sub != active) {
    sub = (sub - active) & active;  // next subset, ascending mask order
    masks.push_back(sub);
  }

  const std::uint64_t misses_before = cache_.misses();
  const bool ok = exec::parallel_for_budgeted(
      0, masks.size(), 4, budget,
      [&](const exec::ChunkRange& r, const runtime::ComputeBudget& child) {
        for (std::uint64_t i = r.begin; i < r.end; ++i) {
          const std::uint64_t mask = masks[i];
          const auto value =
              cache_.value_or_compute_budgeted(mask, child, [&] {
                return model::coalition_value(space_, demand_,
                                              compact_coalition(mask));
              });
          if (!value) return false;
        }
        return true;
      });
  result.values_recomputed +=
      static_cast<std::size_t>(cache_.misses() - misses_before);
  return ok;
}

void ServiceState::rebuild_template() {
  lp_template_.reset();
  lp_proto_.reset();
  bound_.basis = lp::Basis{};  // belongs to the old layout/objective
  lp_offset_.assign(kSlots, -1);
  lp_locations_ = 0;
  for (const Member& m : roster_) {
    lp_offset_[static_cast<std::size_t>(m.slot)] =
        static_cast<int>(lp_locations_);
    lp_locations_ += static_cast<std::size_t>(m.config.num_locations);
  }
  if (lp_locations_ == 0 || demand_.classes.empty()) return;
  try {
    lp_template_.emplace(lp_locations_, demand_.classes);
  } catch (const std::invalid_argument&) {
    // Demand outside the relaxation's domain (exponent > 1): the bound
    // is unavailable, answers carry no grand_bound.
    return;
  }
  if (lp_template_->empty()) {
    lp_template_.reset();
    return;
  }
  lp_proto_.emplace(lp_template_->problem(), lp::SimplexOptions{});
}

void ServiceState::narrow_template(int departed_slot) {
  // A leave rebuilds the template from the remaining roster, as restore()
  // does, so the live and a restored state solve the same LP from the
  // same basis. The relaxation is block-diagonal by location: location l
  // owns the structural columns c * L + l, one per class, and the slack
  // of its capacity row when that row is real (two or more classes; one
  // class presolves it into a bound). An optimal basis holds exactly one
  // basic per block, so dropping the departed member's blocks leaves a
  // basis of the narrower LP and the re-solve stays warm.
  const std::size_t old_locations = lp_locations_;
  const int first = lp_offset_[static_cast<std::size_t>(departed_slot)];
  const lp::Basis old = std::move(bound_.basis);
  rebuild_template();
  if (first < 0 || !lp_template_ || old.empty()) return;
  const auto begin = static_cast<std::size_t>(first);
  const std::size_t end = begin + (old_locations - lp_locations_);
  const auto kept = [&](std::size_t l) { return l < begin || l >= end; };
  const std::size_t classes = old.num_structural / old_locations;
  lp::Basis mapped;
  mapped.num_structural = classes * lp_locations_;
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t l = 0; l < old_locations; ++l) {
      if (kept(l)) mapped.status.push_back(old.status[c * old_locations + l]);
    }
  }
  if (old.status.size() > old.num_structural) {
    for (std::size_t l = 0; l < old_locations; ++l) {
      if (kept(l)) mapped.status.push_back(old.status[old.num_structural + l]);
    }
  }
  bound_.basis = std::move(mapped);
}

std::vector<double> ServiceState::active_caps() const {
  std::vector<double> caps(lp_locations_, 0.0);
  for (const Member& m : roster_) {
    const int off = lp_offset_[static_cast<std::size_t>(m.slot)];
    if (off < 0) continue;
    for (int k = 0; k < m.config.num_locations; ++k) {
      const double full = m.config.custom_units.empty()
                              ? m.config.units_per_location
                              : m.config.custom_units[static_cast<std::size_t>(
                                    k)];
      double cap = full * m.config.availability;
      if (m.outage) {
        cap = m.up[static_cast<std::size_t>(k)] ? full : 0.0;
      }
      caps[static_cast<std::size_t>(off + k)] = cap;
    }
  }
  return caps;
}

bool ServiceState::resolve_bound(const runtime::ComputeBudget& budget,
                                 ApplyResult& result) {
  if (!options_.track_bounds || !lp_template_ || bound_.valid ||
      roster_.empty()) {
    return true;
  }
  if (budget.exhausted()) return false;
  const std::vector<double> caps = active_caps();

  // Warm from the previous epoch's optimal basis when the template kept
  // it (an outage is a pure rhs patch — a dual-simplex re-solve; a leave
  // keeps it minus the departed columns); an empty basis (after a join
  // or a demand update) solves cold.
  const bool warm = !bound_.basis.empty();
  lp::RevisedSimplex engine = *lp_proto_;
  engine.apply(lp_template_->capacity_patch(caps));
  engine.set_budget(&budget);
  lp::Solution sol = engine.solve_from_basis(bound_.basis);
  ++result.lp_solves;
  result.lp_pivots += sol.pivots;
  if (warm) {
    ++result.lp_incremental;
  } else {
    ++result.lp_cold;
  }
  if (sol.status == lp::SolveStatus::kBudgetExhausted) return false;
  if (sol.status == lp::SolveStatus::kOptimal) {
    bound_.value = sol.objective;
    bound_.valid = true;
    bound_.basis = engine.basis();
    return true;
  }
  // Failed solve: fall back cold through the certified cascade (check /
  // refine / revised-cold / dense-cold). Its basis is not recoverable,
  // so the next epoch solves cold.
  lp::Problem patched = lp_template_->problem();
  lp_template_->apply_capacities(patched, caps);
  lp::SimplexOptions lp_options;
  lp_options.solver = lp::SolverKind::kRevised;
  lp_options.budget = &budget;
  verify::VerifyOptions verify_options;
  verify_options.level = verify::VerifyLevel::kFull;
  const verify::CertifiedSolve certified = verify::certify_or_escalate(
      patched, std::move(sol), lp_options, verify_options);
  ++result.lp_cold;
  if (certified.solution.status == lp::SolveStatus::kBudgetExhausted) {
    return false;
  }
  bound_.basis = lp::Basis{};
  // Genuinely unsolvable (should not happen for capacity LPs): the bound
  // stays invalid and the answer simply carries no bound.
  bound_.valid = certified.solution.status == lp::SolveStatus::kOptimal;
  bound_.value = certified.solution.objective;
  return true;
}

bool ServiceState::publish_snapshot() {
  auto snap = std::make_shared<Snapshot>();
  snap->epoch = epoch_;
  const int m = static_cast<int>(roster_.size());
  snap->names.reserve(roster_.size());
  snap->slots.reserve(roster_.size());
  for (const Member& member : roster_) {
    snap->names.push_back(member.config.name);
    snap->slots.push_back(member.slot);
  }
  snap->space = space_;
  snap->demand = demand_;

  EpochAnswer answer;
  answer.epoch = epoch_;
  answer.current_epoch = epoch_;
  answer.num_facilities = m;
  answer.names = snap->names;
  bool reused = false;
  if (m > 0) {
    const std::size_t size = std::size_t{1} << m;
    std::vector<double> values(size, 0.0);
    for (std::size_t cm = 1; cm < size; ++cm) {
      std::uint64_t slot_mask = 0;
      for (int i = 0; i < m; ++i) {
        if (cm >> i & 1) {
          slot_mask |= std::uint64_t{1}
                       << roster_[static_cast<std::size_t>(i)].slot;
        }
      }
      const auto cached = cache_.lookup(slot_mask);
      if (!cached) {
        throw std::logic_error("serve: publishing an incomplete lattice");
      }
      values[cm] = *cached;
    }
    // Compact index i is the i-th active slot in ascending order, so the
    // identity closure visits subsets exactly as the slot lattice would.
    game::close_monotone(
        game::OrbitIndex(game::PlayerPartition::identity(m)), values);
    snap->game.emplace(m, std::move(values));

    answer.grand_value = snap->game->grand_value();
    answer.standalone.reserve(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      answer.standalone.push_back(
          snap->game->value(game::Coalition::single(i)));
    }
    std::vector<double> availability;
    availability.reserve(static_cast<std::size_t>(m));
    for (const auto& f : space_.facilities()) {
      availability.push_back(f.availability_weight());
    }
    std::vector<double> consumption =
        model::consumption_weights(space_, demand_);
    const std::vector<double>& table = snap->game->values();
    if (const AnswerMemo::Answer* hit =
            memo_.find(table, availability, consumption)) {
      answer.outcomes = hit->outcomes;
      answer.skipped = hit->skipped;
      reused = true;
    } else {
      game::SchemeComparison comparison = game::compare_schemes(
          *snap->game, availability, consumption);
      answer.outcomes = std::move(comparison.outcomes);
      answer.skipped = std::move(comparison.skipped);
      // Keep only clean rows: a comparison cut short by a solver
      // failure is retried the next time its game comes back.
      if (!comparison.cut_short()) {
        memo_.store(table, std::move(availability), std::move(consumption),
                    {answer.outcomes, answer.skipped});
      }
    }
    for (const auto& outcome : answer.outcomes) {
      if (outcome.scheme != game::Scheme::kShapley) continue;
      answer.incentives.resize(static_cast<std::size_t>(m));
      for (int i = 0; i < m; ++i) {
        const auto fi = static_cast<std::size_t>(i);
        answer.incentives[fi] = outcome.payoffs[fi] - answer.standalone[fi];
      }
      break;
    }
    if (options_.track_bounds && lp_template_ && bound_.valid) {
      answer.grand_bound = bound_.value;
    }
  }
  snap->answer = std::move(answer);
  snapshot_ = std::move(snap);
  dirty_ = false;
  last_stop_ = runtime::StopReason::kNone;
  return reused;
}

ApplyResult ServiceState::finish(ApplyResult result,
                                 const runtime::ComputeBudget& budget) {
  // Degradation bookkeeping: epochs already pending before this call
  // (the current epoch is this call's own work for an apply, so it only
  // counts as "repaired" when healed by a *later* call).
  const bool was_dirty = dirty_;
  const std::uint64_t published = snapshot_ ? snapshot_->epoch : 0;
  const bool is_repair = result.kind == "repair";
  const std::uint64_t backlog =
      was_dirty ? epoch_ - published - (is_repair ? 0 : 1) : 0;
  if (!tabulate_values(budget, result) || !resolve_bound(budget, result)) {
    result.complete = false;
    result.stop = stop_reason_of(budget);
    dirty_ = true;
    last_stop_ = result.stop;
    if (!is_repair) ++epochs_tripped_;
  } else {
    result.answer_reused = publish_snapshot();
    result.complete = true;
    result.stop = runtime::StopReason::kNone;
    if (was_dirty) {
      epochs_repaired_ += backlog;
      if (is_repair) ++repairs_;
    }
  }
  values_recomputed_ += result.values_recomputed;
  lp_solves_ += result.lp_solves;
  lp_incremental_ += result.lp_incremental;
  lp_cold_ += result.lp_cold;
  lp_pivots_ += result.lp_pivots;
  answers_reused_ += result.answer_reused ? 1 : 0;
  return result;
}

ApplyResult ServiceState::apply(const Event& event,
                                const runtime::ComputeBudget& budget) {
  // Never queue behind a background repair: fire its token first, so it
  // yields mu_ within one budget amortisation window (~64 charges).
  interrupt_repair();
  std::lock_guard<std::mutex> lk(mu_);
  const int slot = validate_and_stage(event);  // throws; state unchanged
  log_.push_back(event);
  ++epoch_;
  ++events_applied_;
  rebuild_space();

  ApplyResult result;
  result.epoch = epoch_;
  result.kind = event_kind(event);

  // Invalidate only the affected slice of the lattice: masks containing
  // the touched slot, or everything for a demand change.
  if (slot < 0) {
    result.invalidated =
        cache_.invalidate_if([](std::uint64_t) { return true; });
  } else {
    const std::uint64_t bit = std::uint64_t{1} << slot;
    result.invalidated = cache_.invalidate_if(
        [bit](std::uint64_t mask) { return (mask & bit) != 0; });
  }

  // Every event changes the grand coalition, so its bound is re-solved.
  // Join and demand change the template (block layout / objective) and
  // drop the basis with it; a leave narrows both to the remaining
  // blocks; an outage keeps both — a pure capacity patch.
  bound_.valid = false;
  if (options_.track_bounds) {
    if (std::holds_alternative<FacilityJoin>(event) ||
        std::holds_alternative<DemandUpdate>(event)) {
      rebuild_template();
    } else if (std::holds_alternative<FacilityLeave>(event)) {
      narrow_template(slot);
    }
  }

  return finish(std::move(result), budget);
}

ApplyResult ServiceState::repair(const runtime::ComputeBudget& budget) {
  std::lock_guard<std::mutex> lk(mu_);
  ApplyResult result;
  result.epoch = epoch_;
  result.kind = "repair";
  if (!dirty_) return result;  // nothing pending
  return finish(std::move(result), budget);
}

ApplyResult ServiceState::repair_yielding(const runtime::ComputeBudget& budget) {
  runtime::CancellationToken token = runtime::CancellationToken::create();
  {
    std::lock_guard<std::mutex> lk(yield_mu_);
    yield_token_ = token;
    yield_active_ = true;
  }
  // fork() keeps the caller's own deadline/token and adds ours as the
  // job token, so either party can stop the repair.
  ApplyResult result = repair(budget.fork(std::move(token)));
  {
    std::lock_guard<std::mutex> lk(yield_mu_);
    yield_active_ = false;
    yield_token_ = runtime::CancellationToken();
  }
  return result;
}

void ServiceState::interrupt_repair() {
  std::lock_guard<std::mutex> lk(yield_mu_);
  if (yield_active_) yield_token_.cancel();
}

EpochAnswer ServiceState::query() const {
  std::shared_ptr<const Snapshot> snap;
  std::uint64_t current = 0;
  runtime::StopReason stop = runtime::StopReason::kNone;
  {
    std::lock_guard<std::mutex> lk(mu_);
    snap = snapshot_;
    current = epoch_;
    stop = last_stop_;
  }
  EpochAnswer answer = snap->answer;
  answer.current_epoch = current;
  answer.degraded =
      answer.epoch == current ? runtime::StopReason::kNone : stop;
  return answer;
}

std::shared_ptr<const ServiceState::Snapshot> ServiceState::snapshot()
    const {
  std::lock_guard<std::mutex> lk(mu_);
  return snapshot_;
}

std::uint64_t ServiceState::epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return epoch_;
}

bool ServiceState::dirty() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dirty_;
}

std::vector<Event> ServiceState::log() const {
  std::lock_guard<std::mutex> lk(mu_);
  return log_;
}

ServiceStats ServiceState::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  ServiceStats s;
  s.epoch = epoch_;
  s.events_applied = events_applied_;
  s.values_recomputed = values_recomputed_;
  s.lp_solves = lp_solves_;
  s.lp_incremental = lp_incremental_;
  s.lp_cold = lp_cold_;
  s.lp_pivots = lp_pivots_;
  s.answers_reused = answers_reused_;
  s.epochs_tripped = epochs_tripped_;
  s.epochs_repaired = epochs_repaired_;
  s.repairs = repairs_;
  s.cache = cache_.stats();
  return s;
}

void ServiceState::replay_log(const std::vector<Event>& log,
                              std::size_t prefix) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (epoch_ != 0 || !log_.empty()) {
      throw ServeError("replay_log: state is not fresh");
    }
  }
  const std::size_t count = std::min(prefix, log.size());
  for (std::size_t i = 0; i < count; ++i) {
    (void)apply(log[i]);
  }
}

CheckpointImage ServiceState::checkpoint_image() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (dirty_) {
    throw ServeError("checkpoint: epoch " + std::to_string(epoch_) +
                     " is unsolved (budget-tripped); repair before "
                     "checkpointing");
  }
  CheckpointImage image;
  image.epoch = epoch_;
  image.options = options_;
  image.roster.reserve(roster_.size());
  for (const Member& m : roster_) {
    CheckpointImage::MemberImage mi;
    mi.slot = m.slot;
    mi.config = m.config;
    mi.outage = m.outage;
    mi.outage_seed = m.outage_seed;
    mi.outage_scenario = m.outage_scenario;
    mi.up = m.up;
    image.roster.push_back(std::move(mi));
  }
  image.demand = demand_;
  image.cache = cache_.export_entries();
  if (bound_.valid) {
    CheckpointImage::BoundImage bi;
    bi.mask = active_mask();
    bi.value = bound_.value;
    bi.has_basis = !bound_.basis.empty();
    bi.basis = bound_.basis;
    image.bounds.push_back(std::move(bi));
  }
  image.epochs_tripped = epochs_tripped_;
  image.epochs_repaired = epochs_repaired_;
  image.repairs = repairs_;
  return image;
}

void ServiceState::restore(const CheckpointImage& image) {
  std::lock_guard<std::mutex> lk(mu_);
  if (epoch_ != 0 || !log_.empty()) {
    throw ServeError("restore: state is not fresh");
  }
  if (image.options.track_bounds != options_.track_bounds) {
    // Bounds are not portable across track_bounds: a mismatch breaks
    // bitwise recovery.
    throw ServeError(
        "restore: checkpoint options disagree with this service "
        "(track_bounds)");
  }
  std::uint64_t used_slots = 0;
  for (const auto& mi : image.roster) {
    if (mi.slot < 0 || mi.slot >= limits::kMaxFacilities.value) {
      throw ServeError("restore: member slot out of range");
    }
    if (used_slots >> mi.slot & 1) {
      throw ServeError("restore: duplicate member slot");
    }
    used_slots |= std::uint64_t{1} << mi.slot;
    try {
      mi.config.validate();
    } catch (const std::invalid_argument& e) {
      throw ServeError(std::string("restore: ") + e.what());
    }
    if (mi.outage &&
        mi.up.size() != static_cast<std::size_t>(mi.config.num_locations)) {
      throw ServeError("restore: outage mask length mismatch");
    }
  }
  if (!image.demand.classes.empty()) {
    try {
      image.demand.validate();
    } catch (const std::invalid_argument& e) {
      throw ServeError(std::string("restore: ") + e.what());
    }
  }
  // Validate the lattice and bound records BEFORE mutating anything:
  // recovery retries restore() on an older checkpoint after a failure,
  // which is only sound if a throwing restore leaves the state fresh.
  {
    std::vector<std::uint64_t> masks;
    masks.reserve(image.cache.size());
    for (const auto& [mask, value] : image.cache) {
      (void)value;
      masks.push_back(mask);
    }
    std::sort(masks.begin(), masks.end());
    if (!masks.empty() && masks.back() >= cache_.capacity()) {
      throw ServeError("restore: cache mask out of range");
    }
    if (std::adjacent_find(masks.begin(), masks.end()) != masks.end()) {
      throw ServeError("restore: duplicate cache mask");
    }
    const std::uint64_t active = used_slots;
    std::uint64_t sub = 0;
    while (active != 0) {
      sub = (sub - active) & active;
      if (sub != 0 &&
          !std::binary_search(masks.begin(), masks.end(), sub)) {
        throw ServeError("restore: checkpoint lattice is incomplete");
      }
      if (sub == active) break;
    }
  }
  for (const auto& bi : image.bounds) {
    if (bi.mask >= (std::uint64_t{1} << limits::kMaxFacilities.value)) {
      throw ServeError("restore: bound mask out of range");
    }
  }

  epoch_ = image.epoch;
  events_applied_ = image.epoch;
  epochs_tripped_ = image.epochs_tripped;
  epochs_repaired_ = image.epochs_repaired;
  repairs_ = image.repairs;
  roster_.clear();
  roster_.reserve(image.roster.size());
  for (const auto& mi : image.roster) {
    Member m;
    m.slot = mi.slot;
    m.config = mi.config;
    m.outage = mi.outage;
    m.outage_seed = mi.outage_seed;
    m.outage_scenario = mi.outage_scenario;
    m.up = mi.up;
    roster_.push_back(std::move(m));
  }
  std::sort(roster_.begin(), roster_.end(),
            [](const Member& a, const Member& b) { return a.slot < b.slot; });
  demand_ = image.demand;
  rebuild_space();

  cache_.clear();
  for (const auto& [mask, value] : image.cache) cache_.store(mask, value);
  memo_.clear();  // never persisted: the first publish solves cold

  rebuild_template();
  bound_ = BoundEntry{};
  for (const auto& bi : image.bounds) {
    // Older files carry a record per slot mask; only the active mask's
    // is live state.
    if (bi.mask != used_slots) continue;
    bound_.value = bi.value;
    bound_.valid = true;
    // The basis keeps warm-starting future re-solves exactly as in the
    // uncrashed run.
    if (bi.has_basis && lp_template_) bound_.basis = bi.basis;
  }
  publish_snapshot();
}

}  // namespace fedshare::serve
