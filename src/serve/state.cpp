#include "serve/state.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "alloc/lp_relax.hpp"
#include "core/limits.hpp"
#include "core/symmetry.hpp"
#include "exec/pool.hpp"
#include "model/value.hpp"
#include "runtime/outage.hpp"

namespace fedshare::serve {

namespace {

// Byte budget of the published-answer memo. One entry of a
// kMaxFacilities = 12 roster holds a 4096-double table (32 KiB)
// plus its weights and rows, so the memo keeps the ~30 most recent games
// of the largest roster, and hundreds of a 6-facility one.
constexpr std::size_t kAnswerMemoBytes = std::size_t{1} << 20;

// Byte budget of the V(S) memo: 2^16 slots of 16 bytes, at most half
// full, so 32 768 entries. A kMaxFacilities = 12 roster's nominal
// lattice is 4 095 of them and each distinct outage draw adds 2 048; a
// 6-facility roster fills at most 63 + 6 * 15 * 32 = 2 943.
constexpr std::size_t kValueMemoBytes = std::size_t{1} << 20;

// Roster slots: one per facility the service accepts.
constexpr auto kSlots = static_cast<std::size_t>(limits::kMaxFacilities.value);

// A V(S) memo key: the slot mask in the low kSlots bits, then per member
// slot s its state id in the kIdBits bits from kSlots + kIdBits * s.
constexpr int kIdBits = 4;
static_assert(kSlots + kIdBits * kSlots < 64,
              "a memo key must fit below ValueMemo::kEmpty");

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
      value_memo_(kValueMemoBytes),
      memo_(kAnswerMemoBytes) {
  publish_snapshot();  // epoch 0: the empty federation, always complete
}

std::uint64_t ServiceState::active_mask() const {
  std::uint64_t mask = 0;
  for (const Member& m : roster_) mask |= std::uint64_t{1} << m.slot;
  return mask;
}

int ServiceState::intern_outage(Member& m, const std::vector<double>& units) {
  // Compared bit for bit, so -0.0 and 0.0 units get two ids.
  const auto same = [&units](const std::vector<double>& known) {
    return known.size() == units.size() &&
           (units.empty() || std::memcmp(known.data(), units.data(),
                                         units.size() * sizeof(double)) == 0);
  };
  const auto known = std::find_if(m.outages.begin(), m.outages.end(), same);
  if (known != m.outages.end()) {
    return static_cast<int>(known - m.outages.begin()) + 1;
  }
  // Ids 1 .. 2^kIdBits - 1 name realised outages; past them the
  // member's state is not memoised.
  if (m.outages.size() + 1 >= std::size_t{1} << kIdBits) return -1;
  m.outages.push_back(units);
  return static_cast<int>(m.outages.size());
}

int ServiceState::member_index(const std::string& name) const {
  for (std::size_t i = 0; i < roster_.size(); ++i) {
    if (roster_[i].config.name == name) return static_cast<int>(i);
  }
  return -1;
}

std::uint64_t ServiceState::memo_key(std::uint64_t slot_mask) const {
  std::uint64_t key = slot_mask;
  for (const Member& m : roster_) {
    if (slot_mask >> m.slot & 1) {
      key |= static_cast<std::uint64_t>(m.state_id)
             << (kSlots + kIdBits * m.slot);
    }
  }
  return key;
}

void ServiceState::refresh_unmemoised() {
  unmemoised_ = 0;
  for (const Member& m : roster_) {
    if (m.state_id < 0) unmemoised_ |= std::uint64_t{1} << m.slot;
  }
}

void ServiceState::remember(std::uint64_t slot_mask, double value) {
  const std::uint64_t key = memo_key(slot_mask);
  if (value_memo_.store(key, value)) return;
  // Full: keep the nominal lattice (every id 0), which an outage-end
  // always needs back, and make room among the outage states.
  value_memo_.retain_if([](std::uint64_t k) { return (k >> kSlots) == 0; });
  (void)value_memo_.store(key, value);
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
    // facility survives independently with probability T_i. The nominal
    // space is disjoint, so the facility's draws follow one draw per
    // nominal location of the members before it.
    std::size_t skip = 0;
    for (int i = 0; i < idx; ++i) {
      skip += static_cast<std::size_t>(
          roster_[static_cast<std::size_t>(i)].config.num_locations);
    }
    m.up = runtime::OutageModel(e->seed).sample_locations(
        e->scenario, skip, static_cast<std::size_t>(m.config.num_locations),
        m.config.availability);
    m.outage = true;
    m.outage_seed = e->seed;
    m.outage_scenario = e->scenario;
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

void ServiceState::realise_outage(const Member& m,
                                  model::FacilityConfig& cfg) {
  // The effective space realises only the members under outage: their
  // surviving locations run at full capacity (availability 1 — the
  // uncertainty has resolved), down locations disappear. Members *not*
  // under outage keep their nominal availability discount, unlike
  // LocationSpace::with_outages which realises every facility at once.
  cfg.name = m.config.name;
  cfg.availability = 1.0;
  cfg.units_per_location = m.config.units_per_location;
  cfg.custom_units.clear();
  for (std::size_t k = 0; k < m.up.size(); ++k) {
    if (!m.up[k]) continue;
    cfg.custom_units.push_back(m.config.custom_units.empty()
                                   ? m.config.units_per_location
                                   : m.config.custom_units[k]);
  }
  cfg.num_locations = static_cast<int>(cfg.custom_units.size());
}

void ServiceState::rebuild_space() {
  std::vector<model::FacilityConfig> configs(roster_.size());
  for (std::size_t i = 0; i < roster_.size(); ++i) {
    if (roster_[i].outage) {
      realise_outage(roster_[i], configs[i]);
    } else {
      configs[i] = roster_[i].config;
    }
  }
  space_ = model::LocationSpace::disjoint(std::move(configs));
}

bool ServiceState::update_member(int slot) {
  for (std::size_t i = 0; i < roster_.size(); ++i) {
    Member& m = roster_[i];
    if (m.slot != slot) continue;
    bool known = true;
    if (m.outage) {
      realise_outage(m, outage_config_);
      const std::size_t interned = m.outages.size();
      m.state_id = intern_outage(m, outage_config_.custom_units);
      known = m.state_id > 0 && m.outages.size() == interned;
    } else {
      m.state_id = 0;
    }
    space_.replace_facility(static_cast<int>(i),
                            m.outage ? outage_config_ : m.config);
    return known;
  }
  return false;
}

bool ServiceState::tabulate_values(const runtime::ComputeBudget& budget,
                                   ApplyResult& result) {
  const std::uint64_t active = active_mask();
  if (active == 0) return true;

  // Every non-empty subset of the active mask, ascending. Misses are
  // only the invalidated slice that the V(S) memo did not refill — a hit
  // costs one lookup and is free under the charging rule. The cache
  // holds raw greedy values, so masks are independent and need no level
  // order; publish_snapshot() closes the table.
  masks_.clear();
  missing_.clear();
  std::uint64_t sub = 0;
  while (sub != active) {
    sub = (sub - active) & active;  // next subset, ascending mask order
    masks_.push_back(sub);
    if (!cache_.lookup(sub)) missing_.push_back(sub);
  }

  const std::uint64_t misses_before = cache_.misses();
  const bool ok = exec::parallel_for_budgeted(
      0, masks_.size(), 4, budget,
      [&](const exec::ChunkRange& r, const runtime::ComputeBudget& child) {
        for (std::uint64_t i = r.begin; i < r.end; ++i) {
          const std::uint64_t mask = masks_[i];
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
  // File what was computed (also before a budget trip) under the
  // members' current states, here rather than on the pool threads.
  for (const std::uint64_t mask : missing_) {
    if ((mask & unmemoised_) != 0) continue;
    if (const auto value = cache_.lookup(mask)) remember(mask, *value);
  }
  return ok;
}

bool ServiceState::resolve_bound(const runtime::ComputeBudget& budget) {
  // Like the relaxation LP, a roster without locations or a demand
  // without classes has no bound.
  if (!options_.track_bounds || bound_ || demand_.classes.empty() ||
      std::none_of(roster_.begin(), roster_.end(), [](const Member& m) {
        return m.config.num_locations > 0;
      })) {
    return true;
  }
  // The effective space is disjoint, so the grand pool is every
  // facility's locations in order (a down location is not in the space).
  bound_pool_.capacity.clear();
  for (const model::Facility& f : space_.facilities()) {
    for (int k = 0; k < f.num_locations(); ++k) {
      bound_pool_.capacity.push_back(f.effective_units_at(k));
    }
  }
  double value = 0.0;
  try {
    value = alloc::closed_form_upper_bound(bound_pool_, demand_.classes);
  } catch (const std::invalid_argument&) {
    // Demand outside the relaxation's domain (exponent > 1): answers
    // carry no grand_bound.
    return true;
  }
  // An epoch whose budget ran out after its last V(S) still trips here.
  if (budget.exhausted()) return false;
  bound_ = value;
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
    // Compact index i is the i-th active slot in ascending order, so the
    // active mask's subsets in ascending order are the compact masks
    // 1, 2, ... in order.
    const std::uint64_t active = active_mask();
    std::uint64_t slot_mask = 0;
    for (std::size_t cm = 1; cm < size; ++cm) {
      slot_mask = (slot_mask - active) & active;  // next subset
      const auto cached = cache_.lookup(slot_mask);
      if (!cached) {
        throw std::logic_error("serve: publishing an incomplete lattice");
      }
      values[cm] = *cached;
    }
    // Compact index i is the i-th active slot in ascending order, so the
    // identity closure visits subsets exactly as the slot lattice would.
    game::close_monotone(game::identity_index(m), values);
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
    answer.grand_bound = bound_;
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
  if (!tabulate_values(budget, result) || !resolve_bound(budget)) {
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
  answers_reused_ += result.answer_reused ? 1 : 0;
  return result;
}

void ServiceState::update_for(const Event& event, int slot,
                              ApplyResult& result) {
  if (slot < 0) {  // a demand update changes every value, not the space
    value_memo_.clear();
    result.invalidated =
        cache_.invalidate_if([](std::uint64_t) { return true; });
    return;
  }
  const std::uint64_t bit = std::uint64_t{1} << slot;
  const auto contains_slot = [bit](std::uint64_t mask) {
    return (mask & bit) != 0;
  };
  if (!std::holds_alternative<OutageStart>(event) &&
      !std::holds_alternative<OutageEnd>(event)) {
    // A join or a leave renumbers the roster's locations. A leave ends
    // the slot's tenure: the next one's ids name other configs, so no
    // memo entry that holds the slot stays, and a joiner finds none.
    rebuild_space();
    if (std::holds_alternative<FacilityLeave>(event)) {
      value_memo_.retain_if(
          [bit](std::uint64_t key) { return (key & bit) == 0; });
    }
    result.invalidated = cache_.invalidate_if(contains_slot);
    return;
  }
  const bool known_state = update_member(slot);
  refresh_unmemoised();
  result.invalidated = cache_.invalidate_if(contains_slot);
  if (!known_state) return;  // the memo holds nothing for it
  // The slot is back in a state it had before: every mask that holds
  // it and was computed with its members in their current states comes
  // back from the memo.
  const std::uint64_t others = active_mask() & ~bit;
  std::uint64_t sub = 0;
  do {
    const std::uint64_t mask = sub | bit;
    if ((mask & unmemoised_) == 0) {
      if (const auto value = value_memo_.find(memo_key(mask))) {
        cache_.store(mask, *value);
      }
    }
    sub = (sub - others) & others;  // next subset of the others
  } while (sub != 0);
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

  ApplyResult result;
  result.epoch = epoch_;
  result.kind = event_kind(event);

  update_for(event, slot, result);
  bound_.reset();  // every event changes the grand coalition
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
  if (bound_) image.bounds.push_back({active_mask(), *bound_});
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
  for (Member& m : roster_) {
    if (!m.outage) continue;
    realise_outage(m, outage_config_);
    m.state_id = intern_outage(m, outage_config_.custom_units);
  }
  refresh_unmemoised();

  cache_.clear();
  for (const auto& [mask, value] : image.cache) cache_.store(mask, value);
  // Neither memo is persisted: the first publish solves cold, and the
  // first outage-end of a member recomputes its slice.
  memo_.clear();
  value_memo_.clear();

  // The bound is a pure function of the roster and the demand, so it is
  // re-derived rather than read: the image's record (or an older file's
  // records) cannot make it drift from the uncrashed run.
  bound_.reset();
  (void)resolve_bound(runtime::ComputeBudget::unlimited());
  publish_snapshot();
}

}  // namespace fedshare::serve
