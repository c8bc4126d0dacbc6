#include "alloc/greedy.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace fedshare::alloc {

namespace {

// Reservations below this many slots count as met (absorbs the rounding
// left over from subtracting takes).
constexpr double kNeedEps = 1e-12;

// Whether `have` slots meet a need of `need`. Capacities such as 0.9 * 3
// are not exact in binary, so a need that the slots meet exactly can read
// a few ulps short; anything within 1e-12 relative counts as met.
bool meets(double have, double need) { return have >= need * (1.0 - 1e-12); }

// `count` locations offering `slots` slots each; one bin of U(m).
struct SlotBin {
  double slots;
  double count;
};

// U(m) = sum over bins of count * min(slots, m).
double budget_at(const std::vector<SlotBin>& bins, double m) {
  double total = 0.0;
  for (const SlotBin& b : bins) total += b.count * std::min(b.slots, m);
  return total;
}

// Largest m with U(m) >= m * threshold, 0 when U(1) does not meet the
// threshold (see meets()). `bins`
// ascend by slots, which are distinct. U is linear between breakpoints:
// on [s_{k-1}, s_k] it is below + m * above, where `below` sums the slots
// of the bins under the segment and `above` counts the locations at or
// over it. U(m) - m * threshold is concave and non-negative at m = 1, so
// its upper root lies on the first segment (past m = 1) whose right end
// is infeasible, or on the final flat segment U = total.
double upper_root(const std::vector<SlotBin>& bins, double threshold) {
  if (!meets(budget_at(bins, 1.0), threshold)) return 0.0;
  double below = 0.0;
  double above = 0.0;
  for (const SlotBin& b : bins) above += b.count;
  double left = 1.0;
  for (const SlotBin& b : bins) {
    if (b.slots > 1.0) {
      if (below + b.slots * above < b.slots * threshold) {
        return std::clamp(below / (threshold - above), left, b.slots);
      }
      left = b.slots;
    }
    below += b.count * b.slots;
    above -= b.count;
  }
  return std::max(below / threshold, left);
}

void check_units(double units_per_location, const char* who) {
  if (units_per_location <= 0.0) {
    throw std::invalid_argument(std::string(who) +
                                ": units_per_location must be > 0");
  }
}

std::vector<SlotBin> slot_bins(const CapacityHistogram& histogram,
                               double units_per_location) {
  CapacityHistogram canonical = histogram;
  canonical.canonicalize();
  std::vector<SlotBin> bins;
  bins.reserve(canonical.bins.size());
  for (const CapacityBin& b : canonical.bins) {
    const double slots = b.capacity / units_per_location;
    const auto count = static_cast<double>(b.count);
    if (!bins.empty() && bins.back().slots == slots) {
      bins.back().count += count;
    } else {
      bins.push_back({slots, count});
    }
  }
  return bins;
}

// Locations in identical state: same original capacity, remaining
// capacity and per-class use, at positions [first, first + count) of the
// bin-by-bin numbering (see ConsumedRun). The per-class use is row `slot`
// of Scratch::used.
struct Group {
  double capacity = 0.0;
  double remaining = 0.0;
  std::size_t count = 0;
  std::size_t first = 0;
  std::size_t slot = 0;
};

// The buffers of one greedy run, kept per thread and reused by the next
// run on that thread, so a run allocates nothing but its result once
// they have grown to its shape. A run on K bins and C classes keeps at
// most K + 2C groups (see greedy.hpp), each with its own row of C
// doubles in `used`.
struct Scratch {
  std::vector<Group> groups;
  std::vector<double> used;  // units per location, slot-major by class
  std::size_t slots = 0;     // rows of `used` handed out this run
  // Admission order of the last class list, and the (r, l) pairs it was
  // sorted by: a run on the same pairs reuses it.
  std::vector<std::size_t> order;
  std::vector<double> order_key;
  std::vector<double> served;
  std::vector<std::size_t> rank;
  std::vector<SlotBin> bins;
  CapacityHistogram canonical;  // a copy, for an input not yet canonical
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

// Admission priority: cheapest units-per-utility first (ascending r);
// within equal cost, hardest diversity threshold first — frugal
// reservations mean the easy classes lose nothing by waiting, while
// threshold-gated classes must be admitted before the slack is spread.
// Sorted only when the classes' (r, l) pairs differ from the last run's.
void admission_order(const std::vector<RequestClass>& classes, Scratch& s) {
  bool same = s.order_key.size() == 2 * classes.size();
  for (std::size_t i = 0; same && i < classes.size(); ++i) {
    same = s.order_key[2 * i] == classes[i].units_per_location &&
           s.order_key[2 * i + 1] == classes[i].min_locations;
  }
  if (same) return;
  s.order_key.clear();  // until the new order is complete
  s.order.resize(classes.size());
  std::iota(s.order.begin(), s.order.end(), std::size_t{0});
  std::stable_sort(s.order.begin(), s.order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (classes[a].units_per_location !=
                         classes[b].units_per_location) {
                       return classes[a].units_per_location <
                              classes[b].units_per_location;
                     }
                     return classes[a].min_locations >
                            classes[b].min_locations;
                   });
  for (const RequestClass& rc : classes) {
    s.order_key.push_back(rc.units_per_location);
    s.order_key.push_back(rc.min_locations);
  }
}

// The greedy on groups. The scratch's groups start one per distinct
// capacity, ascending by capacity; on return they hold every location's
// final state. Fills `result` except units_per_location.
class GroupGreedy {
 public:
  GroupGreedy(Scratch& s, const std::vector<RequestClass>& classes)
      : s_(s), groups_(s.groups), classes_(classes), order_(s.order),
        served_(s.served) {
    admission_order(classes, s);
    served_.assign(classes.size(), 0.0);
  }

  void run(AllocationResult& result) {
    result.per_class.assign(classes_.size(), ClassOutcome{});
    // Phase 1 — admission, by priority.
    for (const std::size_t idx : order_) {
      const RequestClass& rc = classes_[idx];
      if (rc.count <= 0.0 || groups_.empty()) continue;
      if (rc.exponent > 1.0) {
        result.per_class[idx] = admit_convex(idx);
        served_[idx] = result.per_class[idx].served;
      } else {
        admit_concave(idx);
      }
    }
    // Phase 2 — fill: leftover capacity goes to already-admitted concave
    // classes (utility is non-decreasing in slots for d <= 1), capped per
    // location at the class's water-filling ceiling min(s_l^orig, m).
    for (const std::size_t idx : order_) {
      const RequestClass& rc = classes_[idx];
      if (served_[idx] <= 0.0 || rc.exponent > 1.0) continue;
      const double r = rc.units_per_location;
      for (Group& g : groups_) {
        double& used = used_of(g, idx);
        const double ceiling = r * std::min(g.capacity / r, served_[idx]);
        const double extra = std::min(g.remaining, ceiling - used);
        if (extra > 0.0) {
          used += extra;
          g.remaining -= extra;
        }
      }
    }
    // Assemble outcomes.
    for (std::size_t idx = 0; idx < classes_.size(); ++idx) {
      const RequestClass& rc = classes_[idx];
      ClassOutcome& oc = result.per_class[idx];
      if (rc.exponent <= 1.0 && served_[idx] > 0.0) {
        double units = 0.0;
        for (const Group& g : groups_) {
          units += static_cast<double>(g.count) * used_of(g, idx);
        }
        const double x = units / rc.units_per_location / served_[idx];
        oc.served = served_[idx];
        oc.locations_per_experiment = x;
        oc.utility = served_[idx] * std::pow(x, rc.exponent);
        oc.units = units;
      }
      result.total_utility += oc.utility;
      result.total_units += oc.units;
    }
  }

 private:
  [[nodiscard]] double& used_of(const Group& g, std::size_t idx) const {
    return s_.used[g.slot * classes_.size() + idx];
  }

  // A copy of `g` with its own row of per-class use.
  [[nodiscard]] Group clone(const Group& g) const {
    Group copy = g;
    copy.slot = s_.slots++;
    const std::size_t c = classes_.size();
    const double* from = s_.used.data() + g.slot * c;
    std::copy(from, from + c, s_.used.data() + copy.slot * c);
    return copy;
  }

  // Phase-1 visiting order (the tie order documented in greedy.hpp).
  [[nodiscard]] bool visits_before(const Group& a, const Group& b) const {
    if (a.remaining != b.remaining) return a.remaining > b.remaining;
    if (a.capacity != b.capacity) return a.capacity > b.capacity;
    for (const std::size_t idx : order_) {
      const double ua = used_of(a, idx);
      const double ub = used_of(b, idx);
      if (ua != ub) return ua > ub;
    }
    return false;
  }

  // Sorts the scratch's rank into visiting order and fills its bins with
  // U's bins at r (ascending slots).
  void visit_order(double r) {
    std::vector<std::size_t>& rank = s_.rank;
    std::vector<SlotBin>& bins = s_.bins;
    rank.resize(groups_.size());
    std::iota(rank.begin(), rank.end(), std::size_t{0});
    std::sort(rank.begin(), rank.end(), [&](std::size_t a, std::size_t b) {
      return visits_before(groups_[a], groups_[b]);
    });
    bins.clear();
    for (auto it = rank.rbegin(); it != rank.rend(); ++it) {
      const Group& g = groups_[*it];
      const auto count = static_cast<double>(g.count);
      const double slots = g.remaining / r;
      if (!bins.empty() && bins.back().slots == slots) {
        bins.back().count += count;
      } else {
        bins.push_back({slots, count});
      }
    }
  }

  // Convex classes (d > 1): concentrate. Experiments are filled one by
  // one, each taking every location that still has a free slot for it,
  // while the threshold is met. Experiment j (1-based) can use location l
  // iff s_l >= j; its location count is U(j) - U(j-1).
  ClassOutcome admit_convex(std::size_t idx) {
    const RequestClass& rc = classes_[idx];
    ClassOutcome out;
    const double r = rc.units_per_location;
    const double threshold = rc.effective_threshold();
    visit_order(r);
    const std::vector<SlotBin>& bins = s_.bins;
    const double m_star = upper_root(bins, threshold);
    if (m_star <= 0.0) return out;

    double total_utility = 0.0;
    double total_slots = 0.0;
    double served = 0.0;
    const auto max_m =
        static_cast<long>(std::floor(std::min(rc.count, m_star)));
    double prev_budget = 0.0;
    for (long j = 1; j <= max_m; ++j) {
      const double budget = budget_at(bins, static_cast<double>(j));
      const double x = budget - prev_budget;
      if (!meets(x, threshold)) break;
      total_utility += std::pow(x, rc.exponent);
      total_slots = budget;
      served += 1.0;
      prev_budget = budget;
    }
    if (served == 0.0) return out;
    out.served = served;
    out.locations_per_experiment = total_slots / served;
    out.utility = total_utility;
    out.units = r * total_slots;
    for (Group& g : groups_) {
      const double before = g.remaining;
      g.remaining -= r * std::min(before / r, served);
      used_of(g, idx) = before - g.remaining;
    }
    return out;
  }

  // Concave classes: reserve m * threshold slots, best fit, each location
  // giving min(s_l, m). A group is taken whole until the reservation runs
  // short; that group splits into fully taken, one partly taken and
  // untouched locations.
  void admit_concave(std::size_t idx) {
    const RequestClass& rc = classes_[idx];
    const double r = rc.units_per_location;
    const double threshold = rc.effective_threshold();
    visit_order(r);
    const double m = std::min(rc.count, upper_root(s_.bins, threshold));
    if (m <= 0.0) return;
    served_[idx] = m;
    double need = m * threshold;
    for (const std::size_t gi : s_.rank) {
      if (need <= kNeedEps) break;
      const double full = std::min(groups_[gi].remaining / r, m);
      if (!(full > 0.0)) continue;
      const std::size_t n = groups_[gi].count;
      const std::size_t k = take_full(need, full, n);
      if (k == n) {
        take(groups_[gi], idx, full * r);
        continue;
      }
      // The reservation ends inside this group: the first k locations
      // give `full`, the next gives what is left (if it counts), the rest
      // nothing.
      Group rest = clone(groups_[gi]);
      rest.first += k;
      rest.count = n - k;
      if (need > kNeedEps) {
        Group part = clone(rest);
        part.count = 1;
        take(part, idx, need * r);
        groups_.push_back(part);
        ++rest.first;
        --rest.count;
      }
      groups_[gi].count = k;
      take(groups_[gi], idx, full * r);
      if (rest.count > 0) groups_.push_back(rest);
      if (k == 0) {
        groups_.erase(groups_.begin() + static_cast<std::ptrdiff_t>(gi));
      }
      break;
    }
  }

  // Counts how many of `n` locations give `full` slots before the running
  // reservation `need` drops below `full` (or to kNeedEps), and reduces
  // `need` by their takes with the rounding of one subtraction per
  // location — so the greedy's decisions do not depend on how locations
  // are grouped. When `full` is a multiple of need's ulp every such
  // subtraction is exact, and the count and the rest take O(1).
  static std::size_t take_full(double& need, double full, std::size_t n) {
    const auto gives_full = [full](double left) {
      return left > kNeedEps && left >= full;
    };
    std::size_t k = 0;
    const double ulp = std::ldexp(1.0, std::ilogb(need) - 52);
    if (std::fmod(full, ulp) == 0.0) {
      const double q = std::floor(need / full);
      k = q >= static_cast<double>(n) ? n : static_cast<std::size_t>(q);
      const auto left = [&](std::size_t j) {
        return need - static_cast<double>(j) * full;
      };
      while (k > 0 && !gives_full(left(k - 1))) --k;
      while (k < n && gives_full(left(k))) ++k;
      need = left(k);
      return k;
    }
    while (k < n && gives_full(need)) {
      need -= full;
      ++k;
    }
    return k;
  }

  void take(Group& g, std::size_t idx, double units) const {
    used_of(g, idx) += units;
    g.remaining -= units;
  }

  Scratch& s_;
  std::vector<Group>& groups_;
  const std::vector<RequestClass>& classes_;
  const std::vector<std::size_t>& order_;
  std::vector<double>& served_;
};

// Whether `histogram` is already canonical: capacities strictly
// ascending, counts positive.
bool is_canonical(const CapacityHistogram& histogram) {
  const std::vector<CapacityBin>& bins = histogram.bins;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    if (bins[i].count == 0) return false;
    if (i > 0 && !(bins[i - 1].capacity < bins[i].capacity)) return false;
  }
  return true;
}

// Runs the core on `histogram`'s bins, numbering locations bin by bin
// in ascending capacity; the thread's scratch groups end holding every
// location's final state, and the scratch is returned.
Scratch& run_greedy(const CapacityHistogram& histogram,
                    const std::vector<RequestClass>& classes,
                    AllocationResult& result) {
  histogram.validate();
  for (const auto& rc : classes) rc.validate();
  Scratch& s = scratch();
  const CapacityHistogram* canonical = &histogram;
  if (!is_canonical(histogram)) {
    s.canonical.bins.assign(histogram.bins.begin(), histogram.bins.end());
    s.canonical.canonicalize();
    canonical = &s.canonical;
  }
  const std::size_t max_groups =
      canonical->bins.size() + 2 * classes.size();
  s.groups.clear();
  s.groups.reserve(max_groups);
  s.used.assign(max_groups * classes.size(), 0.0);
  s.slots = 0;
  std::size_t first = 0;
  for (const CapacityBin& b : canonical->bins) {
    s.groups.push_back({b.capacity, b.capacity, b.count, first, s.slots++});
    first += b.count;
  }
  GroupGreedy(s, classes).run(result);
  return s;
}

}  // namespace

double slot_budget(const CapacityHistogram& histogram,
                   double units_per_location, double m) {
  check_units(units_per_location, "slot_budget");
  return budget_at(slot_bins(histogram, units_per_location), m);
}

AllocationResult allocate_greedy(const CapacityHistogram& histogram,
                                 const std::vector<RequestClass>& classes) {
  AllocationResult result;
  (void)run_greedy(histogram, classes, result);
  return result;
}

AllocationResult allocate_greedy(const CapacityHistogram& histogram,
                                 const std::vector<RequestClass>& classes,
                                 std::vector<ConsumedRun>& runs) {
  AllocationResult result;
  const Scratch& s = run_greedy(histogram, classes, result);
  const std::size_t c = classes.size();
  runs.clear();
  runs.reserve(s.groups.size());
  for (const Group& g : s.groups) {
    double units = 0.0;
    for (std::size_t idx = 0; idx < c; ++idx) units += s.used[g.slot * c + idx];
    runs.push_back({g.first, g.count, units});
  }
  std::sort(runs.begin(), runs.end(),
            [](const ConsumedRun& a, const ConsumedRun& b) {
              return a.first < b.first;
            });
  return result;
}

}  // namespace fedshare::alloc
