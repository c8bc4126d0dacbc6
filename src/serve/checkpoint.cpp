#include "serve/checkpoint.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <vector>

#include "core/limits.hpp"
#include "io/atomic_file.hpp"
#include "lp/simplex.hpp"

namespace fedshare::serve {

namespace {

constexpr const char* kMagic = "fedshare-checkpoint v1";

// Shortest string that parses back to exactly `value` — same codec as
// the event log, so checkpoints round-trip doubles bit-for-bit.
std::string format_double(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

double parse_double(const std::string& text) {
  if (text.empty()) throw ServeError("checkpoint: empty number");
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) {
    throw ServeError("checkpoint: bad number '" + text + "'");
  }
  return value;
}

std::uint64_t parse_u64(const std::string& text) {
  std::uint64_t value = 0;
  const auto res =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (res.ec != std::errc() || res.ptr != text.data() + text.size()) {
    throw ServeError("checkpoint: bad integer '" + text + "'");
  }
  return value;
}

// `key=value` with exactly the expected key.
std::string expect_kv(const std::string& token, const char* key) {
  const auto eq = token.find('=');
  if (eq == std::string::npos || token.substr(0, eq) != key) {
    throw ServeError("checkpoint: expected '" + std::string(key) +
                     "=...', got '" + token + "'");
  }
  return token.substr(eq + 1);
}

// The statuses of a simplex basis as older files wrote them: at lower,
// at upper, basic, free nonbasic.
bool is_basis_status(char c) {
  return c == 'L' || c == 'U' || c == 'B' || c == 'F';
}

// Sequential line reader that reports the 1-based line number on error.
struct LineReader {
  std::istringstream in;
  int line_no = 0;

  explicit LineReader(std::string_view text) : in(std::string(text)) {}

  std::string next() {
    std::string line;
    if (!std::getline(in, line)) {
      throw ServeError("checkpoint: truncated after line " +
                       std::to_string(line_no));
    }
    ++line_no;
    return line;
  }
};

}  // namespace

std::string encode_checkpoint(const CheckpointImage& image) {
  std::ostringstream out;
  out << kMagic << '\n';
  out << "epoch " << image.epoch << '\n';
  // The log offset equals the epoch (one log line per applied event);
  // recorded explicitly so a reader can pick its replay suffix without
  // knowing that invariant.
  out << "log-offset " << image.epoch << '\n';
  out << "options max_facilities=" << limits::kMaxFacilities.value
      << " track_bounds=" << (image.options.track_bounds ? 1 : 0)
      << " lp_solver=" << lp::to_string(image.options.lp_solver) << '\n';
  out << "history tripped=" << image.epochs_tripped
      << " repaired=" << image.epochs_repaired
      << " repairs=" << image.repairs << '\n';

  out << "members " << image.roster.size() << '\n';
  for (const auto& m : image.roster) {
    out << "slot=" << m.slot << " outage=" << (m.outage ? 1 : 0)
        << " seed=" << m.outage_seed << " scenario=" << m.outage_scenario
        << " up=";
    if (m.outage) {
      for (const bool b : m.up) out << (b ? '1' : '0');
    } else {
      out << '-';
    }
    out << '\n';
    out << format_event(Event{FacilityJoin{m.config}}) << '\n';
  }

  if (image.demand.classes.empty()) {
    out << "demand -\n";
  } else {
    out << format_event(Event{DemandUpdate{image.demand}}) << '\n';
  }

  out << "cache " << image.cache.size() << '\n';
  for (const auto& [mask, value] : image.cache) {
    out << "v " << mask << ' ' << format_double(value) << '\n';
  }

  out << "bounds " << image.bounds.size() << '\n';
  for (const auto& b : image.bounds) {
    out << "b " << b.mask << ' ' << format_double(b.value) << " -\n";
  }

  std::string body = std::move(out).str();
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", io::crc32(body));
  body += "crc32 ";
  body += crc;
  body += '\n';
  return body;
}

CheckpointImage decode_checkpoint(std::string_view text) {
  // Checksum first: the trailer is the last line, "crc32 <hex>\n",
  // covering every byte before it.
  const auto crc_pos = text.rfind("crc32 ");
  if (crc_pos == std::string_view::npos ||
      (crc_pos != 0 && text[crc_pos - 1] != '\n')) {
    throw ServeError("checkpoint: missing crc32 trailer");
  }
  const std::string_view body = text.substr(0, crc_pos);
  std::string hex(text.substr(crc_pos + 6));
  while (!hex.empty() && (hex.back() == '\n' || hex.back() == '\r')) {
    hex.pop_back();
  }
  std::uint32_t recorded = 0;
  const auto res =
      std::from_chars(hex.data(), hex.data() + hex.size(), recorded, 16);
  if (res.ec != std::errc() || res.ptr != hex.data() + hex.size()) {
    throw ServeError("checkpoint: malformed crc32 trailer");
  }
  if (recorded != io::crc32(body)) {
    throw ServeError("checkpoint: checksum mismatch");
  }

  LineReader lines(body);
  if (lines.next() != kMagic) {
    throw ServeError("checkpoint: bad magic (expected '" +
                     std::string(kMagic) + "')");
  }

  CheckpointImage image;
  {
    std::istringstream in(lines.next());
    std::string kw;
    in >> kw;
    std::string value;
    if (kw != "epoch" || !(in >> value)) {
      throw ServeError("checkpoint: expected 'epoch N'");
    }
    image.epoch = parse_u64(value);
  }
  {
    std::istringstream in(lines.next());
    std::string kw, value;
    if (!(in >> kw >> value) || kw != "log-offset") {
      throw ServeError("checkpoint: expected 'log-offset N'");
    }
    if (parse_u64(value) != image.epoch) {
      throw ServeError("checkpoint: log-offset disagrees with epoch");
    }
  }
  {
    std::istringstream in(lines.next());
    std::string kw, t1, t2, t3;
    if (!(in >> kw >> t1 >> t2 >> t3) || kw != "options") {
      throw ServeError("checkpoint: expected options line");
    }
    // The roster width is a constant; a file written for another width
    // has slot masks this service cannot read.
    if (parse_u64(expect_kv(t1, "max_facilities")) !=
        static_cast<std::uint64_t>(limits::kMaxFacilities.value)) {
      throw ServeError("checkpoint: max_facilities is not " +
                       std::to_string(limits::kMaxFacilities.value));
    }
    image.options.track_bounds =
        parse_u64(expect_kv(t2, "track_bounds")) != 0;
    // Files written while serve ran the revised nucleolus say
    // `revised`. A checkpoint holds no nucleolus state (every answer is
    // recomputed after restore), so either engine's name is accepted.
    const std::string solver = expect_kv(t3, "lp_solver");
    lp::SolverKind written = lp::SolverKind::kDense;
    if (!lp::solver_kind_from_string(solver, written)) {
      throw ServeError("checkpoint: unknown lp_solver '" + solver + "'");
    }
  }
  {
    std::istringstream in(lines.next());
    std::string kw, t1, t2, t3;
    if (!(in >> kw >> t1 >> t2 >> t3) || kw != "history") {
      throw ServeError("checkpoint: expected history line");
    }
    image.epochs_tripped = parse_u64(expect_kv(t1, "tripped"));
    image.epochs_repaired = parse_u64(expect_kv(t2, "repaired"));
    image.repairs = parse_u64(expect_kv(t3, "repairs"));
  }

  std::uint64_t member_count = 0;
  {
    std::istringstream in(lines.next());
    std::string kw, value;
    if (!(in >> kw >> value) || kw != "members") {
      throw ServeError("checkpoint: expected 'members N'");
    }
    member_count = parse_u64(value);
    if (member_count > 64) {
      throw ServeError("checkpoint: implausible member count");
    }
  }
  for (std::uint64_t i = 0; i < member_count; ++i) {
    CheckpointImage::MemberImage member;
    {
      std::istringstream in(lines.next());
      std::string t1, t2, t3, t4, t5;
      if (!(in >> t1 >> t2 >> t3 >> t4 >> t5)) {
        throw ServeError("checkpoint: malformed member line");
      }
      member.slot = static_cast<int>(parse_u64(expect_kv(t1, "slot")));
      member.outage = parse_u64(expect_kv(t2, "outage")) != 0;
      member.outage_seed = parse_u64(expect_kv(t3, "seed"));
      member.outage_scenario = parse_u64(expect_kv(t4, "scenario"));
      const std::string up = expect_kv(t5, "up");
      if (member.outage) {
        member.up.reserve(up.size());
        for (const char c : up) {
          if (c != '0' && c != '1') {
            throw ServeError("checkpoint: bad up mask");
          }
          member.up.push_back(c == '1');
        }
      } else if (up != "-") {
        throw ServeError("checkpoint: up mask on a member with no outage");
      }
    }
    const Event config_event = parse_event(lines.next());
    const auto* join = std::get_if<FacilityJoin>(&config_event);
    if (!join) throw ServeError("checkpoint: expected a join config line");
    member.config = join->config;
    image.roster.push_back(std::move(member));
  }

  {
    const std::string line = lines.next();
    if (line != "demand -") {
      const Event demand_event = parse_event(line);
      const auto* update = std::get_if<DemandUpdate>(&demand_event);
      if (!update) throw ServeError("checkpoint: expected a demand line");
      image.demand = update->demand;
    }
  }

  std::uint64_t cache_count = 0;
  {
    std::istringstream in(lines.next());
    std::string kw, value;
    if (!(in >> kw >> value) || kw != "cache") {
      throw ServeError("checkpoint: expected 'cache N'");
    }
    cache_count = parse_u64(value);
    if (cache_count > (std::uint64_t{1} << 20)) {
      throw ServeError("checkpoint: implausible cache size");
    }
  }
  image.cache.reserve(cache_count);
  for (std::uint64_t i = 0; i < cache_count; ++i) {
    std::istringstream in(lines.next());
    std::string kw, mask, value;
    if (!(in >> kw >> mask >> value) || kw != "v") {
      throw ServeError("checkpoint: malformed cache line");
    }
    image.cache.emplace_back(parse_u64(mask), parse_double(value));
  }

  std::uint64_t bound_count = 0;
  {
    std::istringstream in(lines.next());
    std::string kw, value;
    if (!(in >> kw >> value) || kw != "bounds") {
      throw ServeError("checkpoint: expected 'bounds N'");
    }
    bound_count = parse_u64(value);
    if (bound_count > (std::uint64_t{1} << 20)) {
      throw ServeError("checkpoint: implausible bound count");
    }
  }
  image.bounds.reserve(bound_count);
  for (std::uint64_t i = 0; i < bound_count; ++i) {
    std::istringstream in(lines.next());
    std::string kw, mask, value, basis;
    if (!(in >> kw >> mask >> value >> basis) || kw != "b") {
      throw ServeError("checkpoint: malformed bound line");
    }
    image.bounds.push_back({parse_u64(mask), parse_double(value)});
    if (basis != "-") {
      // A simplex basis of a file written while the bound was an LP:
      // checked like any record, then dropped, since the bound needs
      // none.
      const std::uint64_t num_structural = parse_u64(basis);
      std::string statuses;
      if (!(in >> statuses) || statuses.empty()) {
        throw ServeError("checkpoint: missing basis statuses");
      }
      for (const char c : statuses) {
        if (!is_basis_status(c)) {
          throw ServeError(std::string("checkpoint: bad basis status '") +
                           c + "'");
        }
      }
      if (num_structural > statuses.size()) {
        throw ServeError("checkpoint: basis num_structural out of range");
      }
    }
  }

  return image;
}

bool save_checkpoint(const std::string& path, const CheckpointImage& image) {
  return io::write_file_atomic(path, encode_checkpoint(image));
}

std::optional<CheckpointImage> load_checkpoint(const std::string& path,
                                               std::string* error) {
  const std::optional<std::string> text = io::read_file(path);
  if (!text) {
    if (error) *error = "cannot read '" + path + "'";
    return std::nullopt;
  }
  try {
    return decode_checkpoint(*text);
  } catch (const ServeError& e) {
    if (error) *error = e.what();
    return std::nullopt;
  }
}

}  // namespace fedshare::serve
