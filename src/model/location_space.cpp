#include "model/location_space.hpp"

#include <algorithm>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "sim/rng.hpp"

namespace fedshare::model {

namespace {

// A facility's bit in a coalition mask (none past Coalition::kMaxPlayers,
// since no coalition can hold such a facility).
std::uint64_t member_bit(int member) {
  return member < game::Coalition::kMaxPlayers ? std::uint64_t{1} << member
                                               : 0;
}

}  // namespace

LocationSpace LocationSpace::disjoint(std::vector<FacilityConfig> configs) {
  LocationSpace space;
  int next_location = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    configs[i].validate();
    space.facilities_.emplace_back(static_cast<int>(i), configs[i]);
    std::vector<int> locs(static_cast<std::size_t>(configs[i].num_locations));
    for (int& l : locs) l = next_location++;
    space.facility_locations_.push_back(std::move(locs));
  }
  space.num_locations_ = next_location;
  space.build_types();
  return space;
}

LocationSpace LocationSpace::overlapping(std::vector<FacilityConfig> configs,
                                         int universe_size,
                                         std::uint64_t seed) {
  int max_l = 0;
  for (const auto& c : configs) {
    c.validate();
    max_l = std::max(max_l, c.num_locations);
  }
  if (universe_size < max_l) {
    throw std::invalid_argument(
        "LocationSpace::overlapping: universe smaller than a facility's "
        "location count");
  }
  LocationSpace space;
  space.num_locations_ = universe_size;
  sim::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    space.facilities_.emplace_back(static_cast<int>(i), configs[i]);
    space.facility_locations_.push_back(sim::sample_without_replacement(
        rng, universe_size, configs[i].num_locations));
  }
  space.build_types();
  return space;
}

void LocationSpace::build_types() {
  types_.clear();
  grouped_ids_.clear();
  // A facility with uniform units whose id range meets no other
  // facility's range shares none of its locations, so it is one type,
  // found with no per-location pass. This covers every facility of a
  // disjoint uniform-units layout: parsing and building 100 six-facility
  // federations of ~3300 locations takes ~1.5 ms this way and 20-30 ms
  // when their locations are grouped by covering list (4 cores at
  // 2.1 GHz).
  const std::size_t num_facilities = facilities_.size();
  const auto spans = [&](std::size_t a, std::size_t b) {
    const auto& la = facility_locations_[a];
    const auto& lb = facility_locations_[b];
    return la.front() <= lb.back() && lb.front() <= la.back();
  };
  std::vector<char> grouped(num_facilities, 0);
  bool rest = false;
  for (std::size_t i = 0; i < num_facilities; ++i) {
    const Facility& f = facilities_[i];
    if (f.num_locations() == 0) continue;
    bool isolated = f.config().custom_units.empty();
    for (std::size_t j = 0; isolated && j < num_facilities; ++j) {
      isolated = j == i || facility_locations_[j].empty() || !spans(i, j);
    }
    if (!isolated) {
      rest = true;
      continue;
    }
    const int member = static_cast<int>(i);
    types_.push_back({member_bit(member),
                      {{member, f.effective_units_at(0)}},
                      static_cast<std::size_t>(f.num_locations()), true,
                      0});
    grouped[i] = 1;
  }
  if (!rest) return;
  // Every other location, grouped by its covering list (members
  // ascending), stored flat by location id.
  const auto universe = static_cast<std::size_t>(num_locations_);
  std::vector<std::size_t> start(universe + 1, 0);
  for (std::size_t i = 0; i < num_facilities; ++i) {
    if (grouped[i] != 0) continue;
    for (const int loc : facility_locations_[i]) {
      ++start[static_cast<std::size_t>(loc) + 1];
    }
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<std::pair<int, double>> cover(start.back());
  std::vector<std::size_t> fill(start.begin(), start.end() - 1);
  for (std::size_t i = 0; i < num_facilities; ++i) {
    if (grouped[i] != 0) continue;
    const auto& locs = facility_locations_[i];
    for (std::size_t k = 0; k < locs.size(); ++k) {
      cover[fill[static_cast<std::size_t>(locs[k])]++] = {
          static_cast<int>(i),
          facilities_[i].effective_units_at(static_cast<int>(k))};
    }
  }
  const auto begin = [&](std::size_t loc) {
    return cover.begin() + static_cast<std::ptrdiff_t>(start[loc]);
  };
  const auto end = [&](std::size_t loc) { return begin(loc + 1); };
  std::vector<std::size_t> covered;
  for (std::size_t loc = 0; loc < universe; ++loc) {
    if (start[loc + 1] > start[loc]) covered.push_back(loc);
  }
  // Stable: each type's ids stay ascending.
  std::stable_sort(covered.begin(), covered.end(),
                   [&](std::size_t a, std::size_t b) {
                     return std::lexicographical_compare(begin(a), end(a),
                                                         begin(b), end(b));
                   });
  grouped_ids_.reserve(covered.size());
  for (std::size_t j = 0; j < covered.size(); ++j) {
    const std::size_t loc = covered[j];
    grouped_ids_.push_back(static_cast<int>(loc));
    if (j > 0 && std::equal(begin(loc), end(loc), begin(covered[j - 1]),
                            end(covered[j - 1]))) {
      ++types_.back().count;
      continue;
    }
    LocationType type;
    type.units.assign(begin(loc), end(loc));
    for (const auto& [member, units] : type.units) {
      type.covered_by |= member_bit(member);
    }
    type.count = 1;
    type.ids_begin = j;
    types_.push_back(std::move(type));
  }
}

double LocationSpace::pooled_capacity(const LocationType& type,
                                      std::uint64_t members) {
  double capacity = 0.0;  // summed in member order, as in pool_for
  for (const auto& [member, units] : type.units) {
    if ((member_bit(member) & members) != 0) capacity += units;
  }
  return capacity;
}

const Facility& LocationSpace::facility(int id) const {
  if (id < 0 || id >= num_facilities()) {
    throw std::out_of_range("LocationSpace::facility: bad id");
  }
  return facilities_[static_cast<std::size_t>(id)];
}

const std::vector<int>& LocationSpace::locations_of(int facility) const {
  if (facility < 0 || facility >= num_facilities()) {
    throw std::out_of_range("LocationSpace::locations_of: bad id");
  }
  return facility_locations_[static_cast<std::size_t>(facility)];
}

void LocationSpace::check_coalition(game::Coalition coalition) const {
  if (!coalition.is_subset_of(game::Coalition::grand(num_facilities()))) {
    throw std::out_of_range(
        "LocationSpace: coalition contains unknown facilities");
  }
}

int LocationSpace::distinct_locations(game::Coalition coalition) const {
  check_coalition(coalition);
  std::size_t count = 0;
  for (const LocationType& type : types_) {
    if ((type.covered_by & coalition.bits()) != 0) count += type.count;
  }
  return static_cast<int>(count);
}

alloc::CapacityHistogram LocationSpace::capacity_histogram(
    game::Coalition coalition) const {
  alloc::CapacityHistogram histogram;
  capacity_histogram_into(coalition, histogram);
  return histogram;
}

void LocationSpace::capacity_histogram_into(
    game::Coalition coalition, alloc::CapacityHistogram& out) const {
  check_coalition(coalition);
  out.bins.clear();
  out.bins.reserve(types_.size());
  for (const LocationType& type : types_) {
    if ((type.covered_by & coalition.bits()) == 0) continue;
    out.bins.push_back({pooled_capacity(type, coalition.bits()), type.count});
  }
  out.canonicalize();
}

double LocationSpace::overlap(int facility_a, int facility_b) const {
  const auto& a = locations_of(facility_a);
  const auto& b = locations_of(facility_b);
  if (a.empty()) return 0.0;
  std::vector<int> common;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(common));
  return static_cast<double>(common.size()) / static_cast<double>(a.size());
}

std::vector<int> LocationSpace::pooled_location_ids(
    game::Coalition coalition) const {
  check_coalition(coalition);
  std::vector<char> covered(static_cast<std::size_t>(num_locations_), 0);
  for (const int member : coalition.members()) {
    for (const int loc :
         facility_locations_[static_cast<std::size_t>(member)]) {
      covered[static_cast<std::size_t>(loc)] = 1;
    }
  }
  std::vector<int> ids;
  for (int loc = 0; loc < num_locations_; ++loc) {
    if (covered[static_cast<std::size_t>(loc)] != 0) ids.push_back(loc);
  }
  return ids;
}

alloc::LocationPool LocationSpace::pool_for(game::Coalition coalition) const {
  check_coalition(coalition);
  // Indexed by location id: pool index = rank of the id among covered.
  std::vector<double> capacity(static_cast<std::size_t>(num_locations_), 0.0);
  std::vector<char> covered(static_cast<std::size_t>(num_locations_), 0);
  for (const int member : coalition.members()) {
    const auto mi = static_cast<std::size_t>(member);
    const auto& locs = facility_locations_[mi];
    for (std::size_t k = 0; k < locs.size(); ++k) {
      const auto loc = static_cast<std::size_t>(locs[k]);
      capacity[loc] += facilities_[mi].effective_units_at(static_cast<int>(k));
      covered[loc] = 1;
    }
  }
  alloc::LocationPool pool;
  for (std::size_t loc = 0; loc < capacity.size(); ++loc) {
    if (covered[loc] != 0) pool.capacity.push_back(capacity[loc]);
  }
  return pool;
}

LocationSpace LocationSpace::with_outages(
    const std::vector<std::vector<bool>>& up) const {
  if (up.size() != facilities_.size()) {
    throw std::invalid_argument(
        "with_outages: need one up-mask per facility");
  }
  LocationSpace degraded;
  degraded.num_locations_ = num_locations_;
  for (std::size_t i = 0; i < facilities_.size(); ++i) {
    const Facility& f = facilities_[i];
    const auto& locs = facility_locations_[i];
    const auto& mask = up[i];
    if (mask.size() != locs.size()) {
      throw std::invalid_argument(
          "with_outages: up-mask size must match the facility's location "
          "count");
    }
    FacilityConfig cfg;
    cfg.name = f.name();
    cfg.availability = 1.0;  // realised: survivors are fully up
    std::vector<int> surviving;
    for (std::size_t k = 0; k < locs.size(); ++k) {
      if (!mask[k]) continue;
      surviving.push_back(locs[k]);
      // Full (availability-free) capacity at the surviving location.
      cfg.custom_units.push_back(f.effective_units_at(static_cast<int>(k)) /
                                 f.availability());
    }
    cfg.num_locations = static_cast<int>(surviving.size());
    degraded.facilities_.emplace_back(static_cast<int>(i), std::move(cfg));
    degraded.facility_locations_.push_back(std::move(surviving));
  }
  degraded.build_types();
  return degraded;
}

void LocationSpace::replace_facility(int id, const FacilityConfig& config) {
  (void)facility(id);  // range check
  int next_location = 0;
  for (const auto& locs : facility_locations_) {
    for (const int loc : locs) {
      if (loc != next_location++) {
        throw std::logic_error(
            "LocationSpace::replace_facility: the layout is not disjoint");
      }
    }
  }
  const auto fi = static_cast<std::size_t>(id);
  facilities_[fi] = Facility(id, config);  // validates
  facility_locations_[fi].resize(
      static_cast<std::size_t>(config.num_locations));
  next_location = 0;
  for (auto& locs : facility_locations_) {
    for (int& loc : locs) loc = next_location++;
  }
  num_locations_ = next_location;
  build_types();
}

std::vector<double> LocationSpace::attribute_runs(
    game::Coalition coalition,
    const std::vector<alloc::ConsumedRun>& runs) const {
  check_coalition(coalition);
  const std::uint64_t bits = coalition.bits();
  // The coalition's types grouped into the pool's capacity bins,
  // ascending; inside a bin, walk() takes locations in id order.
  struct Cursor {
    const LocationType* type;
    double capacity;
    std::size_t next;  // the type's locations attributed so far
  };
  std::vector<Cursor> cursors;
  cursors.reserve(types_.size());
  std::size_t total = 0;
  for (const LocationType& type : types_) {
    if ((type.covered_by & bits) == 0) continue;
    cursors.push_back({&type, pooled_capacity(type, bits), 0});
    total += type.count;
  }
  std::stable_sort(cursors.begin(), cursors.end(),
                   [](const Cursor& a, const Cursor& b) {
                     return a.capacity < b.capacity;
                   });
  bool tiles = true;
  std::size_t at = 0;
  for (const alloc::ConsumedRun& run : runs) {
    tiles = tiles && run.first == at;
    at += run.count;
  }
  if (!tiles || at != total) {
    throw std::invalid_argument(
        "attribute_runs: runs do not tile the coalition's pool");
  }

  std::vector<double> consumed(static_cast<std::size_t>(num_facilities()),
                               0.0);
  // Attributes the cursor's next `count` locations, `units` each.
  const auto credit = [&](Cursor& c, std::size_t count, double units) {
    if (count == 0) return;
    c.next += count;
    if (!(c.capacity > 0.0)) return;
    for (const auto& [member, member_units] : c.type->units) {
      if ((member_bit(member) & bits) == 0) continue;
      double& sum = consumed[static_cast<std::size_t>(member)];
      sum = repeated_sum(sum, units * member_units / c.capacity, count);
    }
  };
  // The id of a cursor's next location. An isolated type answers with
  // its lowest id at every step: no other covered id lies in its range,
  // so that id orders it against the other types just as well.
  const auto next_id = [this](const Cursor& c) {
    const LocationType& type = *c.type;
    return type.isolated
               ? facility_locations_[static_cast<std::size_t>(
                                         type.units.front().first)]
                     .front()
               : grouped_ids_[type.ids_begin + c.next];
  };
  // Attributes the next `take` locations of the bin cursors[b, e), in id
  // order, `units` each.
  const auto walk = [&](std::size_t b, std::size_t e, std::size_t take,
                        double units) {
    while (take > 0) {
      Cursor* low = nullptr;
      int low_id = 0;
      int other_id = INT_MAX;  // lowest next id of every other cursor
      for (std::size_t k = b; k < e; ++k) {
        Cursor& c = cursors[k];
        if (c.next == c.type->count) continue;
        const int id = next_id(c);
        if (low == nullptr || id < low_id) {
          if (low != nullptr) other_id = low_id;
          low = &c;
          low_id = id;
        } else {
          other_id = std::min(other_id, id);
        }
      }
      const LocationType& type = *low->type;
      std::size_t k = std::min(take, type.count - low->next);
      if (!type.isolated && other_id != INT_MAX) {
        const int* ids = grouped_ids_.data() + type.ids_begin + low->next;
        std::size_t below = 1;  // ids[0] == low_id < other_id
        while (below < k && ids[below] < other_id) ++below;
        k = below;
      }
      credit(*low, k, units);
      take -= k;
    }
  };

  std::size_t r = 0;
  std::size_t run_left = 0;  // positions of runs[r - 1] not yet attributed
  for (std::size_t b = 0; b < cursors.size();) {
    std::size_t e = b;
    std::size_t bin_left = 0;
    for (; e < cursors.size() && cursors[e].capacity == cursors[b].capacity;
         ++e) {
      bin_left += cursors[e].type->count;
    }
    while (bin_left > 0) {
      while (run_left == 0) run_left = runs[r++].count;
      const double units = runs[r - 1].units;
      if (run_left >= bin_left) {
        // The run holds the rest of the bin: every type gives what is left.
        for (std::size_t k = b; k < e; ++k) {
          credit(cursors[k], cursors[k].type->count - cursors[k].next, units);
        }
        run_left -= bin_left;
        bin_left = 0;
      } else {
        walk(b, e, run_left, units);
        bin_left -= run_left;
        run_left = 0;
      }
    }
    b = e;
  }
  return consumed;
}

double repeated_sum(double s, double t, std::size_t k) {
  while (k > 0) {
    if (t == 0.0) return s;
    if (s < DBL_MIN) {  // zero or subnormal: one plain step
      s += t;
      --k;
      continue;
    }
    // In units of the binade's ulp q: s = S, t = D + f with D whole and
    // |f| <= 1/2, the binade's end is 2^53. While S + t stays below it,
    // an addition rounds to S + D exactly.
    const int e = std::ilogb(s);
    const double q = std::ldexp(1.0, e - 52);
    const double tq = t / q;
    const double d = std::round(tq);
    const double f = tq - d;
    if (tq < 0x1p53 && std::abs(f) != 0.5) {
      if (d == 0.0) return s;  // t rounds away here and in every binade above
      const auto big_s = static_cast<std::uint64_t>(s / q);
      const auto big_d = static_cast<std::uint64_t>(d);
      const std::uint64_t room = (std::uint64_t{1} << 53) - big_s;
      // Steps j with j * D + f < room.
      const std::uint64_t steps = f < 0.0 ? room / big_d : (room - 1) / big_d;
      const std::uint64_t j = std::min<std::uint64_t>(k, steps);
      s = static_cast<double>(big_s + j * big_d) * q;
      k -= static_cast<std::size_t>(j);
      if (k == 0) return s;
    }
    // The step that leaves the binade (or a halfway tie), taken as is.
    s += t;
    --k;
  }
  return s;
}

}  // namespace fedshare::model
