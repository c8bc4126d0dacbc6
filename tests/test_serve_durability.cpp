// Crash-safe persistence for the serve layer: the checkpoint codec
// (serve/checkpoint.hpp), the durable log with compaction
// (serve/log.hpp), torn-write-tolerant log parsing, and the
// MaintenanceThread's background repair. The contract under test
// everywhere: recovery — from any combination of torn tails, corrupt or
// missing checkpoints, and stray temp files — is either *bitwise
// identical* to the uncrashed run or a loud error, never a silently
// wrong answer.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/lp_relax.hpp"
#include "core/limits.hpp"
#include "io/atomic_file.hpp"
#include "runtime/budget.hpp"
#include "serve/checkpoint.hpp"
#include "serve/event.hpp"
#include "serve/log.hpp"
#include "serve/maintenance.hpp"
#include "serve/state.hpp"

namespace {

namespace fs = std::filesystem;

using fedshare::runtime::ComputeBudget;
using fedshare::serve::CheckpointImage;
using fedshare::serve::DurableLog;
using fedshare::serve::DurableLogOptions;
using fedshare::serve::EpochAnswer;
using fedshare::serve::Event;
using fedshare::serve::LogRecovery;
using fedshare::serve::MaintenanceOptions;
using fedshare::serve::MaintenanceThread;
using fedshare::serve::RecoveryReport;
using fedshare::serve::ServeError;
using fedshare::serve::ServeOptions;
using fedshare::serve::ServiceState;

// A unique scratch directory per test, removed on scope exit.
struct TempDir {
  TempDir() {
    static int counter = 0;
    path = (fs::temp_directory_path() /
            ("fedshare_durability_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++)))
               .string();
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

// Epochs of the checkpoint files in `dir`
// (checkpoint-<zero-padded epoch>.ckpt), newest first.
std::vector<std::uint64_t> checkpoint_epochs(const std::string& dir) {
  const std::string prefix = "checkpoint-";
  const std::string suffix = ".ckpt";
  std::vector<std::uint64_t> epochs;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      epochs.push_back(std::stoull(name.substr(prefix.size())));
    }
  }
  std::sort(epochs.rbegin(), epochs.rend());
  return epochs;
}

// A fixed script with every event kind, a realised outage, and a
// two-class demand (multi-row LPs => a real basis behind the bound).
const std::vector<std::string>& script_lines() {
  static const std::vector<std::string> lines{
      "demand count=3,min_locations=2;count=2,min_locations=1,units=2",
      "join name=A locations=3 units=1 availability=0.8",
      "join name=B locations=2 units=2 availability=1",
      "outage-start name=A seed=7 scenario=1",
      "join name=C locations=2 units=0.5 availability=0.6 units_at=0.5,2",
      "demand count=4,min_locations=3;count=1,min_locations=2,units=1.5",
      "outage-end name=A",
      "leave name=B",
      "join name=D locations=4 units=1 availability=0.9",
  };
  return lines;
}

std::vector<Event> script_events() {
  std::vector<Event> events;
  for (const std::string& line : script_lines()) {
    events.push_back(fedshare::serve::parse_event(line));
  }
  return events;
}

void expect_bitwise_equal(const EpochAnswer& a, const EpochAnswer& b,
                          const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.num_facilities, b.num_facilities);
  EXPECT_EQ(a.names, b.names);
  EXPECT_EQ(a.grand_value, b.grand_value);
  ASSERT_EQ(a.grand_bound.has_value(), b.grand_bound.has_value());
  if (a.grand_bound.has_value()) {
    EXPECT_EQ(*a.grand_bound, *b.grand_bound);  // bitwise, per contract
  }
  EXPECT_EQ(a.standalone, b.standalone);
  EXPECT_EQ(a.incentives, b.incentives);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t s = 0; s < a.outcomes.size(); ++s) {
    EXPECT_EQ(a.outcomes[s].scheme, b.outcomes[s].scheme);
    EXPECT_EQ(a.outcomes[s].in_core, b.outcomes[s].in_core);
    EXPECT_EQ(a.outcomes[s].shares, b.outcomes[s].shares);
    EXPECT_EQ(a.outcomes[s].payoffs, b.outcomes[s].payoffs);
  }
}

// The published bound against the reference: the dense LP of the
// relaxation over the epoch's effective grand pool (equal to rounding).
void expect_bound_is_the_lps(const ServiceState& state,
                             const std::string& context) {
  SCOPED_TRACE(context);
  const auto snap = state.snapshot();
  ASSERT_TRUE(snap->answer.grand_bound.has_value());
  const double lp = fedshare::alloc::lp_upper_bound(
      snap->space.pool_for(
          fedshare::game::Coalition::grand(snap->answer.num_facilities)),
      snap->demand.classes);
  EXPECT_NEAR(*snap->answer.grand_bound, lp,
              1e-12 * std::max(1.0, std::abs(lp)));
}

void expect_images_equal(const CheckpointImage& a, const CheckpointImage& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.options.track_bounds, b.options.track_bounds);
  ASSERT_EQ(a.roster.size(), b.roster.size());
  for (std::size_t i = 0; i < a.roster.size(); ++i) {
    SCOPED_TRACE("member " + std::to_string(i));
    EXPECT_EQ(a.roster[i].slot, b.roster[i].slot);
    EXPECT_EQ(a.roster[i].outage, b.roster[i].outage);
    EXPECT_EQ(a.roster[i].outage_seed, b.roster[i].outage_seed);
    EXPECT_EQ(a.roster[i].outage_scenario, b.roster[i].outage_scenario);
    EXPECT_EQ(a.roster[i].up, b.roster[i].up);
    // Configs round-trip through the event grammar, which is exact.
    EXPECT_EQ(fedshare::serve::format_event(
                  Event{fedshare::serve::FacilityJoin{a.roster[i].config}}),
              fedshare::serve::format_event(
                  Event{fedshare::serve::FacilityJoin{b.roster[i].config}}));
  }
  ASSERT_EQ(a.demand.classes.size(), b.demand.classes.size());
  for (std::size_t c = 0; c < a.demand.classes.size(); ++c) {
    EXPECT_EQ(a.demand.classes[c].count, b.demand.classes[c].count);
    EXPECT_EQ(a.demand.classes[c].min_locations,
              b.demand.classes[c].min_locations);
    EXPECT_EQ(a.demand.classes[c].units_per_location,
              b.demand.classes[c].units_per_location);
    EXPECT_EQ(a.demand.classes[c].exponent, b.demand.classes[c].exponent);
    EXPECT_EQ(a.demand.classes[c].holding_time,
              b.demand.classes[c].holding_time);
  }
  EXPECT_EQ(a.cache, b.cache);  // (mask, value) pairs, bitwise
  ASSERT_EQ(a.bounds.size(), b.bounds.size());
  for (std::size_t i = 0; i < a.bounds.size(); ++i) {
    SCOPED_TRACE("bound " + std::to_string(i));
    EXPECT_EQ(a.bounds[i].mask, b.bounds[i].mask);
    EXPECT_EQ(a.bounds[i].value, b.bounds[i].value);
  }
  EXPECT_EQ(a.epochs_tripped, b.epochs_tripped);
  EXPECT_EQ(a.epochs_repaired, b.epochs_repaired);
  EXPECT_EQ(a.repairs, b.repairs);
}

// Appends raw bytes (no newline added) — simulates a torn append.
void append_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::app | std::ios::binary);
  out << bytes;
}

void truncate_file(const std::string& path, std::uintmax_t new_size) {
  fs::resize_file(path, new_size);
}

// --- the checkpoint codec -------------------------------------------------

TEST(ServeDurabilityTest, Crc32MatchesTheIeeeReferenceVectors) {
  EXPECT_EQ(fedshare::io::crc32(""), 0u);
  EXPECT_EQ(fedshare::io::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(fedshare::io::crc32(std::string(1, '\0')), 0xD202EF8Du);
}

TEST(ServeDurabilityTest, AtomicWriteLeavesNoTempFileBehind) {
  TempDir dir;
  fs::create_directories(dir.path);
  const std::string path = dir.path + "/file.txt";
  ASSERT_TRUE(fedshare::io::write_file_atomic(path, "hello\n"));
  ASSERT_TRUE(fedshare::io::write_file_atomic(path, "world\n"));
  const auto read = fedshare::io::read_file(path);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, "world\n");
  int files = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1);  // no stray .tmp
}

TEST(ServeDurabilityTest, CheckpointCodecRoundTripsBitwise) {
  ServiceState state;
  for (const Event& event : script_events()) (void)state.apply(event);
  const CheckpointImage image = state.checkpoint_image();
  EXPECT_EQ(image.epoch, script_lines().size());
  EXPECT_FALSE(image.cache.empty());
  ASSERT_EQ(image.bounds.size(), 1u);
  ASSERT_TRUE(state.query().grand_bound.has_value());
  EXPECT_EQ(image.bounds.front().value, *state.query().grand_bound);
  expect_bound_is_the_lps(state, "live");

  const std::string text = fedshare::serve::encode_checkpoint(image);
  const CheckpointImage decoded = fedshare::serve::decode_checkpoint(text);
  expect_images_equal(image, decoded);
  // Canonical: decode ∘ encode is the identity on the text too.
  EXPECT_EQ(fedshare::serve::encode_checkpoint(decoded), text);
  ServiceState restored;
  restored.restore(decoded);
  expect_bitwise_equal(restored.query(), state.query(), "restored");
}

TEST(ServeDurabilityTest, DecodeRejectsEveryTamperedVariant) {
  ServiceState state;
  for (const Event& event : script_events()) (void)state.apply(event);
  const std::string text =
      fedshare::serve::encode_checkpoint(state.checkpoint_image());

  // Any single-byte flip breaks the checksum (or the magic).
  for (const std::size_t pos : {std::size_t{0}, text.size() / 3,
                                text.size() / 2, text.size() - 2}) {
    std::string tampered = text;
    tampered[pos] = tampered[pos] == 'x' ? 'y' : 'x';
    EXPECT_THROW((void)fedshare::serve::decode_checkpoint(tampered),
                 ServeError)
        << "flip at byte " << pos;
  }
  // Every prefix truncated at a line boundary loses the checksum line.
  for (std::size_t pos = text.find('\n'); pos != std::string::npos;
       pos = text.find('\n', pos + 1)) {
    if (pos + 1 == text.size()) break;  // the full file
    EXPECT_THROW(
        (void)fedshare::serve::decode_checkpoint(text.substr(0, pos + 1)),
        ServeError)
        << "truncated after byte " << pos;
  }
  EXPECT_THROW((void)fedshare::serve::decode_checkpoint(""), ServeError);
  EXPECT_THROW((void)fedshare::serve::decode_checkpoint("garbage\n"),
               ServeError);
}

TEST(ServeDurabilityTest, CheckpointImageOfADirtyStateThrows) {
  ServiceState state;
  const std::vector<Event> events = script_events();
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    (void)state.apply(events[i]);
  }
  const auto tripped =
      state.apply(events.back(), ComputeBudget().cap_nodes(0));
  ASSERT_FALSE(tripped.complete);
  ASSERT_TRUE(state.dirty());
  EXPECT_THROW((void)state.checkpoint_image(), ServeError);
  ASSERT_TRUE(state.repair().complete);
  EXPECT_NO_THROW((void)state.checkpoint_image());
}

TEST(ServeDurabilityTest, SaveThenLoadCheckpointIsExact) {
  TempDir dir;
  fs::create_directories(dir.path);
  ServiceState state;
  for (const Event& event : script_events()) (void)state.apply(event);
  const CheckpointImage image = state.checkpoint_image();
  const std::string path = dir.path + "/checkpoint-000000000009.ckpt";
  ASSERT_TRUE(fedshare::serve::save_checkpoint(path, image));

  std::string error;
  const auto loaded = fedshare::serve::load_checkpoint(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  expect_images_equal(image, *loaded);

  // Missing file, truncated file, flipped byte: all nullopt + reason.
  EXPECT_FALSE(
      fedshare::serve::load_checkpoint(dir.path + "/nope.ckpt", &error)
          .has_value());
  EXPECT_FALSE(error.empty());
  truncate_file(path, fs::file_size(path) / 2);
  EXPECT_FALSE(fedshare::serve::load_checkpoint(path, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ServeDurabilityTest, RestoreThenReplaySuffixIsBitwiseIdentical) {
  const std::vector<Event> events = script_events();
  // The uncrashed reference run, answers recorded per epoch.
  ServiceState reference;
  std::vector<EpochAnswer> recorded;
  recorded.push_back(reference.query());
  for (const Event& event : events) {
    (void)reference.apply(event);
    recorded.push_back(reference.query());
  }

  for (std::size_t k = 1; k <= events.size(); ++k) {
    // Checkpoint at epoch k (through the codec, as recovery would)...
    ServiceState replica;
    replica.replay_log(events, k);
    const CheckpointImage image = fedshare::serve::decode_checkpoint(
        fedshare::serve::encode_checkpoint(replica.checkpoint_image()));

    // ... restore a fresh state from it and replay the suffix: every
    // subsequent epoch must match the uncrashed run bit for bit.
    ServiceState restored;
    restored.restore(image);
    EXPECT_EQ(restored.epoch(), k);
    expect_bitwise_equal(restored.query(), recorded[k],
                         "restored at epoch " + std::to_string(k));
    for (std::size_t e = k; e < events.size(); ++e) {
      (void)restored.apply(events[e]);
      expect_bitwise_equal(
          restored.query(), recorded[e + 1],
          "checkpoint " + std::to_string(k) + ", epoch " +
              std::to_string(e + 1));
    }
    const auto stats = restored.stats();
    EXPECT_EQ(stats.epoch, events.size());
  }
}

// v1 checkpoints written while the serve memo held monotone-closed
// values carry closed values in their cache records. The PlanetLab-
// shaped roster below (scaled down tenfold) has a greedy dip away from
// G-Lab's slot, so such an
// image differs from a raw one on masks the G-Lab flap never touches.
// Restoring it must give the same answer, and the answers across the
// flap must match the uncrashed run bit for bit.
TEST(ServeDurabilityTest, ClosedValueCheckpointRestoresBitwise) {
  std::vector<Event> events;
  for (const char* line :
       {"demand count=30,min_locations=4;count=5,min_locations=10,units=4;"
        "count=10,min_locations=50,units=2",
        "join name=PLC locations=30 units=4 availability=1",
        "join name=PLE-core locations=15 units=4 availability=1",
        "join name=G-Lab locations=6 units=3 availability=0.9",
        "join name=EmanicsLab locations=3 units=2 availability=1",
        "join name=PLJ locations=8 units=3 availability=1",
        "outage-start name=G-Lab seed=3 scenario=1", "outage-end name=G-Lab"}) {
    events.push_back(fedshare::serve::parse_event(line));
  }
  const std::size_t k = 6;  // checkpoint once the roster is assembled

  ServiceState reference;
  std::vector<EpochAnswer> recorded{reference.query()};
  for (const Event& event : events) {
    (void)reference.apply(event);
    recorded.push_back(reference.query());
  }

  ServiceState replica;
  replica.replay_log(events, k);
  CheckpointImage image = replica.checkpoint_image();
  // Rewrite the memo as the closed values such a file holds: V(S) =
  // max(raw(S), V(S \ {s}) for slots s ascending), V(empty) = 0. Entries
  // are mask-ascending, so every subset is closed before its supersets.
  std::map<std::uint64_t, double> closed;
  int raised = 0;
  for (auto& [mask, value] : image.cache) {
    double best = value;
    for (int s = 0; s < 64; ++s) {
      if (!(mask >> s & 1)) continue;
      const std::uint64_t sub = mask & ~(std::uint64_t{1} << s);
      best = std::max(best, sub == 0 ? 0.0 : closed.at(sub));
    }
    if (best != value) ++raised;
    closed[mask] = best;
    value = best;
  }
  ASSERT_GT(raised, 0) << "the roster has no greedy dip to close";

  ServiceState restored;
  restored.restore(fedshare::serve::decode_checkpoint(
      fedshare::serve::encode_checkpoint(image)));
  expect_bitwise_equal(restored.query(), recorded[k], "restored");
  for (std::size_t e = k; e < events.size(); ++e) {
    (void)restored.apply(events[e]);
    expect_bitwise_equal(restored.query(), recorded[e + 1],
                         "epoch " + std::to_string(e + 1));
  }
}

TEST(ServeDurabilityTest, RestoreRejectsMismatchedOptionsAndUsedStates) {
  ServiceState state;
  for (const Event& event : script_events()) (void)state.apply(event);
  const CheckpointImage image = state.checkpoint_image();

  ServeOptions no_bounds;
  no_bounds.track_bounds = false;
  ServiceState wrong_options(no_bounds);
  EXPECT_THROW(wrong_options.restore(image), ServeError);

  ServiceState used;
  (void)used.apply(script_events().front());
  EXPECT_THROW(used.restore(image), ServeError);

  // A failed restore leaves the target fresh: it can still restore.
  ServiceState fresh;
  CheckpointImage broken = image;
  broken.cache.pop_back();  // incomplete lattice
  EXPECT_THROW(fresh.restore(broken), ServeError);
  EXPECT_NO_THROW(fresh.restore(image));
  expect_bitwise_equal(fresh.query(), state.query(), "after failed restore");
}

// `text` (an encoded checkpoint) with `from` replaced by `to` and the
// crc32 trailer recomputed, as a writer of that text would have left it.
std::string rewrite_with_fresh_crc(const std::string& text,
                                   const std::string& from,
                                   const std::string& to) {
  std::string body = text.substr(0, text.rfind("crc32 "));
  const std::size_t at = body.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) body.replace(at, from.size(), to);
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", fedshare::io::crc32(body));
  return body + "crc32 " + crc + "\n";
}

// Checkpoints written while serve ran its nucleolus on the revised
// engine say lp_solver=revised. They hold no nucleolus state, so they
// restore, and the answer equals the live service's at the same epoch;
// any other engine name is still a corrupt file.
TEST(ServeDurabilityTest, RevisedEngineCheckpointRestoresToTheLiveAnswer) {
  const std::vector<Event> events = script_events();
  for (std::size_t k = 1; k <= events.size(); ++k) {
    SCOPED_TRACE("epoch " + std::to_string(k));
    ServiceState live;
    live.replay_log(events, k);
    const std::string text =
        fedshare::serve::encode_checkpoint(live.checkpoint_image());
    const std::string revised =
        rewrite_with_fresh_crc(text, "lp_solver=dense", "lp_solver=revised");
    ServiceState restored;
    restored.restore(fedshare::serve::decode_checkpoint(revised));
    expect_bitwise_equal(restored.query(), live.query(), "restored");
    const std::string unknown =
        rewrite_with_fresh_crc(text, "lp_solver=dense", "lp_solver=simplex");
    EXPECT_THROW((void)fedshare::serve::decode_checkpoint(unknown),
                 ServeError);
  }
}

// The roster width is kMaxFacilities, and every checkpoint records it as
// max_facilities=12. A file that records another width is outside input
// whose slot masks mean something else: the decoder rejects it.
TEST(ServeDurabilityTest, DecoderRejectsAnotherRosterWidth) {
  ServiceState state;
  for (const Event& event : script_events()) (void)state.apply(event);
  const std::string text =
      fedshare::serve::encode_checkpoint(state.checkpoint_image());
  ASSERT_NE(text.find("options max_facilities=12 "), std::string::npos);
  EXPECT_NO_THROW((void)fedshare::serve::decode_checkpoint(text));
  const std::string narrow =
      rewrite_with_fresh_crc(text, "max_facilities=12", "max_facilities=11");
  EXPECT_THROW((void)fedshare::serve::decode_checkpoint(narrow), ServeError);
}

// The slot mask of an image's roster.
std::uint64_t roster_mask(const CheckpointImage& image) {
  std::uint64_t mask = 0;
  for (const auto& member : image.roster) mask |= std::uint64_t{1} << member.slot;
  return mask;
}

TEST(ServeDurabilityTest, CheckpointImageHoldsAtMostOneBoundRecord) {
  const std::vector<Event> events = script_events();
  for (std::size_t k = 1; k <= events.size(); ++k) {
    SCOPED_TRACE("epoch " + std::to_string(k));
    ServiceState state;
    state.replay_log(events, k);
    const CheckpointImage image = state.checkpoint_image();
    ASSERT_LE(image.bounds.size(), 1u);
    EXPECT_EQ(image.bounds.size() == 1, state.query().grand_bound.has_value());
    if (!image.bounds.empty()) {
      EXPECT_EQ(image.bounds.front().mask, roster_mask(image));
      EXPECT_EQ(image.bounds.front().value, *state.query().grand_bound);
    }
  }
}

// `text` with every bound record of an even mask ending in a simplex
// basis, as files written while the bound was a warm-started LP did,
// and a fresh checksum.
std::string with_basis_records(const std::string& text,
                               const std::string& statuses) {
  std::istringstream in(text.substr(0, text.rfind("crc32 ")));
  std::string body;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("b ", 0) == 0 && line.size() > 2 &&
        std::stoull(line.substr(2)) % 2 == 0) {
      line.replace(line.size() - 1, 1, "4 " + statuses);
    }
    body += line + "\n";
  }
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", fedshare::io::crc32(body));
  return body + "crc32 " + crc + "\n";
}

// Files written while the service kept a bound per slot mask carry one
// record per mask, and files written while the bound was an LP carry
// its simplex basis. restore() re-derives the bound from the roster and
// the demand: the padded image restores to the trimmed image's answer,
// and every later epoch matches too. The padding is deliberately wrong
// (values and bases), so reading any of it would show; a basis with a
// status that is none of L/U/B/F is still a corrupt file.
TEST(ServeDurabilityTest, LegacyBoundRecordsRestoreLikeTheTrimmedImage) {
  const std::vector<Event> events = script_events();
  for (std::size_t k = 2; k <= events.size(); ++k) {
    SCOPED_TRACE("checkpoint at epoch " + std::to_string(k));
    ServiceState replica;
    replica.replay_log(events, k);
    const CheckpointImage trimmed = replica.checkpoint_image();
    ASSERT_EQ(trimmed.bounds.size(), 1u);
    const auto& active = trimmed.bounds.front();

    CheckpointImage padded = trimmed;
    padded.bounds.clear();
    const std::uint64_t limit = std::uint64_t{1}
                                << fedshare::limits::kMaxFacilities.value;
    for (std::uint64_t mask = 1; mask < limit && mask < 64; ++mask) {
      padded.bounds.push_back(
          {mask, mask == active.mask ? active.value + 1.0
                                     : 1000.0 + static_cast<double>(mask)});
    }
    const std::string text = with_basis_records(
        fedshare::serve::encode_checkpoint(padded), "LUBFBL");
    ASSERT_NE(text.find(" 4 LUBFBL\n"), std::string::npos);
    const CheckpointImage decoded = fedshare::serve::decode_checkpoint(text);
    ASSERT_EQ(decoded.bounds.size(), padded.bounds.size());
    EXPECT_THROW((void)fedshare::serve::decode_checkpoint(with_basis_records(
                     fedshare::serve::encode_checkpoint(padded), "LUXFBL")),
                 ServeError);

    ServiceState from_trimmed;
    from_trimmed.restore(trimmed);
    ServiceState from_padded;
    from_padded.restore(decoded);
    expect_bitwise_equal(from_padded.query(), replica.query(), "restored");
    expect_bitwise_equal(from_padded.query(), from_trimmed.query(),
                         "restored");
    EXPECT_EQ(from_padded.checkpoint_image().bounds.size(), 1u);
    for (std::size_t e = k; e < events.size(); ++e) {
      const auto a = from_trimmed.apply(events[e]);
      const auto b = from_padded.apply(events[e]);
      EXPECT_EQ(a.values_recomputed, b.values_recomputed);
      expect_bitwise_equal(from_padded.query(), from_trimmed.query(),
                           "epoch " + std::to_string(e + 1));
    }
  }
}

// After a leave from the middle of the roster, a checkpoint and a
// restore, four outage flaps give the live and the restored state
// bitwise-equal answers. The bound is the relaxation LP's optimum on
// the effective pool after every event, and each flap lands back on the
// pre-outage bound bit for bit.
TEST(ServeDurabilityTest, RestoreAfterALeaveResolvesLikeTheUncrashedRun) {
  ServiceState live;
  for (const char* line :
       {"demand count=3,min_locations=2;count=2,min_locations=1,units=2",
        "join name=A locations=3 units=5 availability=0.8",
        "join name=B locations=2 units=2 availability=1",
        "join name=C locations=4 units=4 availability=0.9",
        "leave name=B"}) {
    (void)live.apply(fedshare::serve::parse_event(line));
  }
  ServiceState restored;
  restored.restore(fedshare::serve::decode_checkpoint(
      fedshare::serve::encode_checkpoint(live.checkpoint_image())));
  expect_bitwise_equal(restored.query(), live.query(), "restored");
  ASSERT_TRUE(live.query().grand_bound.has_value());
  const double nominal = *live.query().grand_bound;

  bool moved = false;
  for (int flap = 0; flap < 4; ++flap) {
    const std::string name = flap % 2 == 0 ? "A" : "C";
    for (const std::string& line :
         {"outage-start name=" + name + " seed=" + std::to_string(flap + 3) +
              " scenario=" + std::to_string(flap),
          "outage-end name=" + name}) {
      SCOPED_TRACE(line);
      const Event event = fedshare::serve::parse_event(line);
      (void)live.apply(event);
      (void)restored.apply(event);
      expect_bitwise_equal(restored.query(), live.query(), line);
      expect_bound_is_the_lps(live, "live");
      moved |= *live.query().grand_bound != nominal;
    }
    EXPECT_EQ(*live.query().grand_bound, nominal);  // bitwise
  }
  EXPECT_TRUE(moved);  // the outages change the pool
}

TEST(ServeDurabilityTest, RestoreRejectsAnOutOfRangeBoundMask) {
  ServiceState state;
  for (const Event& event : script_events()) (void)state.apply(event);
  const CheckpointImage image = state.checkpoint_image();
  const std::uint64_t past_lattice = std::uint64_t{1}
                                     << fedshare::limits::kMaxFacilities.value;

  CheckpointImage stray_bound = image;
  CheckpointImage::BoundImage stray;
  stray.mask = past_lattice;
  stray.value = 1.0;
  stray_bound.bounds.push_back(stray);
  CheckpointImage stray_cache = image;
  stray_cache.cache.emplace_back(past_lattice, 1.0);
  CheckpointImage repeated_cache = image;
  ASSERT_FALSE(repeated_cache.cache.empty());
  repeated_cache.cache.push_back(repeated_cache.cache.front());

  for (const CheckpointImage* broken :
       {&stray_bound, &stray_cache, &repeated_cache}) {
    // Directly and through the codec: the decoder reads the record,
    // restore() rejects it.
    const CheckpointImage decoded = fedshare::serve::decode_checkpoint(
        fedshare::serve::encode_checkpoint(*broken));
    for (const CheckpointImage* input : {broken, &decoded}) {
      ServiceState fresh;
      EXPECT_THROW(fresh.restore(*input), ServeError);
      // The failed restore left the target fresh.
      EXPECT_NO_THROW(fresh.restore(image));
      expect_bitwise_equal(fresh.query(), state.query(),
                           "after failed restore");
    }
  }
}

// --- the torn-tail log parser --------------------------------------------

// Satellite contract: for EVERY event kind, a final line truncated at
// ANY byte boundary (field boundaries included) and left without a
// terminating newline is dropped unparsed — a torn prefix of a valid
// line can itself parse as a different valid event, which replay must
// never see. With a newline the parser may accept a still-valid prefix
// (it cannot know), but it must never throw and never disturb the good
// prefix.
TEST(ServeDurabilityTest, TornFinalLineIsDroppedAtEveryByteBoundary) {
  const std::string prefix_text =
      "demand count=3,min_locations=2\n"
      "join name=A locations=3 units=1 availability=0.8\n";
  for (const std::string& line : script_lines()) {
    SCOPED_TRACE("event line: " + line);
    for (std::size_t cut = 1; cut <= line.size(); ++cut) {
      std::istringstream in(prefix_text + line.substr(0, cut));
      LogRecovery recovery;
      std::vector<Event> events;
      ASSERT_NO_THROW(events = fedshare::serve::parse_event_log_tolerant(
                          in, recovery))
          << "cut at byte " << cut;
      EXPECT_EQ(events.size(), 2u) << "cut at byte " << cut;
      EXPECT_TRUE(recovery.truncated) << "cut at byte " << cut;
      EXPECT_EQ(recovery.stopped_line, 3) << "cut at byte " << cut;
      EXPECT_NE(recovery.note.find("line 3"), std::string::npos);
    }
  }
}

TEST(ServeDurabilityTest, TruncatedLineWithNewlineNeverBreaksThePrefix) {
  const std::string prefix_text =
      "demand count=3,min_locations=2\n"
      "join name=A locations=3 units=1 availability=0.8\n";
  std::istringstream prefix_in(prefix_text);
  const std::vector<Event> prefix = fedshare::serve::parse_event_log(
      prefix_in);
  for (const std::string& line : script_lines()) {
    SCOPED_TRACE("event line: " + line);
    for (std::size_t cut = 1; cut < line.size(); ++cut) {
      std::istringstream in(prefix_text + line.substr(0, cut) + "\n");
      LogRecovery recovery;
      std::vector<Event> events;
      ASSERT_NO_THROW(events = fedshare::serve::parse_event_log_tolerant(
                          in, recovery))
          << "cut at byte " << cut;
      // Either the cut still parses (a valid shorter event) or the tail
      // is flagged truncated; the good prefix survives bitwise either
      // way.
      ASSERT_GE(events.size(), prefix.size()) << "cut at byte " << cut;
      ASSERT_LE(events.size(), prefix.size() + 1) << "cut at byte " << cut;
      EXPECT_EQ(events.size() == prefix.size(), recovery.truncated);
      for (std::size_t i = 0; i < prefix.size(); ++i) {
        EXPECT_EQ(fedshare::serve::format_event(events[i]),
                  fedshare::serve::format_event(prefix[i]));
      }
    }
  }
}

TEST(ServeDurabilityTest, MidFileCorruptionIsStillAHardError) {
  // Garbage followed by a parseable event is NOT a torn tail: replaying
  // past it would silently skip history.
  std::istringstream in(
      "demand count=3,min_locations=2\n"
      "jo!n garbage ###\n"
      "join name=A locations=3 units=1 availability=0.8\n");
  LogRecovery recovery;
  EXPECT_THROW(
      (void)fedshare::serve::parse_event_log_tolerant(in, recovery),
      ServeError);
}

// --- the durable log ------------------------------------------------------

TEST(ServeDurabilityTest, DurableLogRecoversBitwiseWithCheckpointSuffix) {
  TempDir dir;
  const std::vector<Event> events = script_events();

  ServiceState reference;
  std::vector<EpochAnswer> recorded;
  recorded.push_back(reference.query());
  {
    DurableLogOptions options;
    options.checkpoint_every = 3;
    options.retain_checkpoints = 2;
    DurableLog log(dir.path, options);
    ServiceState state;
    const RecoveryReport empty = log.recover(state);
    EXPECT_EQ(empty.total_events, 0u);
    EXPECT_FALSE(empty.used_fallback);
    for (const Event& event : events) {
      (void)state.apply(event);
      log.append(event, state);
      (void)reference.apply(event);
      recorded.push_back(reference.query());
    }
    EXPECT_EQ(log.events(), events.size());
    // Checkpoints at 3, 6, 9 — pruned to the newest two.
    const std::vector<std::uint64_t> expected{9, 6};
    EXPECT_EQ(checkpoint_epochs(dir.path), expected);
    EXPECT_FALSE(fs::exists(dir.path + "/checkpoint-000000000003.ckpt"));
  }

  DurableLog reopened(dir.path, {});
  ServiceState recovered;
  const RecoveryReport report = reopened.recover(recovered);
  EXPECT_FALSE(report.used_fallback);
  EXPECT_EQ(report.total_events, events.size());
  EXPECT_EQ(report.checkpoint_epoch, 9u);
  EXPECT_EQ(report.replayed_events, 0u);  // checkpoint at the head
  expect_bitwise_equal(recovered.query(), recorded.back(), "recovered");
}

TEST(ServeDurabilityTest, RecoveryDropsTornTailAndHealsTheSegment) {
  TempDir dir;
  const std::vector<Event> events = script_events();
  {
    DurableLog log(dir.path, {});
    ServiceState state;
    (void)log.recover(state);
    for (const Event& event : events) {
      (void)state.apply(event);
      log.append(event, state);
    }
  }
  const std::string segment = dir.path + "/events-000000000000.log";
  ASSERT_TRUE(fs::exists(segment));

  // A torn append: half a line, no newline.
  append_raw(segment, "join name=Q locat");
  {
    DurableLog log(dir.path, {});
    ServiceState state;
    const RecoveryReport report = log.recover(state);
    EXPECT_TRUE(report.used_fallback);
    ASSERT_EQ(report.notes.size(), 1u);
    EXPECT_NE(report.notes[0].find("torn final line"), std::string::npos);
    EXPECT_EQ(report.total_events, events.size());
    EXPECT_EQ(state.epoch(), events.size());

    // Recovery truncated the segment back to the good prefix: the torn
    // bytes are gone and the next recovery is clean.
    const auto healed = fedshare::io::read_file(segment);
    ASSERT_TRUE(healed.has_value());
    EXPECT_EQ(healed->back(), '\n');
    EXPECT_EQ(healed->find("name=Q"), std::string::npos);
  }
  {
    DurableLog log(dir.path, {});
    ServiceState state;
    const RecoveryReport report = log.recover(state);
    EXPECT_FALSE(report.used_fallback);
    EXPECT_EQ(report.total_events, events.size());
  }
}

TEST(ServeDurabilityTest, RecoveryCutsBackToTheLastDurableEvent) {
  TempDir dir;
  const std::vector<Event> events = script_events();
  ServiceState reference;
  std::vector<EpochAnswer> recorded;
  recorded.push_back(reference.query());
  {
    DurableLog log(dir.path, {});
    ServiceState state;
    (void)log.recover(state);
    for (const Event& event : events) {
      (void)state.apply(event);
      log.append(event, state);
      (void)reference.apply(event);
      recorded.push_back(reference.query());
    }
  }
  // Cut the final event's line mid-way (its newline goes with it): the
  // log now ends in a torn line and must recover to N-1 events.
  const std::string segment = dir.path + "/events-000000000000.log";
  truncate_file(segment, fs::file_size(segment) - 10);

  DurableLog log(dir.path, {});
  ServiceState state;
  const RecoveryReport report = log.recover(state);
  EXPECT_TRUE(report.used_fallback);
  EXPECT_EQ(report.total_events, events.size() - 1);
  expect_bitwise_equal(state.query(), recorded[events.size() - 1],
                       "after torn final event");

  // Appending past the cut works: the segment was healed to a clean
  // line boundary, so the re-applied event extends it normally.
  (void)state.apply(events.back());
  log.append(events.back(), state);
  EXPECT_EQ(log.events(), events.size());
  expect_bitwise_equal(state.query(), recorded.back(), "after re-append");
}

TEST(ServeDurabilityTest, CorruptNewestCheckpointFallsBackToOlder) {
  TempDir dir;
  const std::vector<Event> events = script_events();
  EpochAnswer final_answer;
  {
    DurableLogOptions options;
    options.checkpoint_every = 3;
    options.retain_checkpoints = 3;
    DurableLog log(dir.path, options);
    ServiceState state;
    (void)log.recover(state);
    for (const Event& event : events) {
      (void)state.apply(event);
      log.append(event, state);
    }
    final_answer = state.query();
  }
  const std::string newest = dir.path + "/checkpoint-000000000009.ckpt";
  const std::string older = dir.path + "/checkpoint-000000000006.ckpt";
  ASSERT_TRUE(fs::exists(newest));
  ASSERT_TRUE(fs::exists(older));
  truncate_file(newest, fs::file_size(newest) / 2);
  // A stray temp file from a crashed atomic write is ignored entirely.
  append_raw(dir.path + "/checkpoint-000000000012.ckpt.tmp", "partial");

  DurableLog log(dir.path, {});
  ServiceState state;
  const RecoveryReport report = log.recover(state);
  EXPECT_TRUE(report.used_fallback);
  EXPECT_EQ(report.checkpoint_epoch, 6u);
  EXPECT_EQ(report.replayed_events, 3u);
  ASSERT_FALSE(report.notes.empty());
  EXPECT_NE(report.notes[0].find("falling back"), std::string::npos);
  expect_bitwise_equal(state.query(), final_answer, "older checkpoint");
}

TEST(ServeDurabilityTest, EveryCheckpointCorruptMeansFullReplay) {
  TempDir dir;
  const std::vector<Event> events = script_events();
  EpochAnswer final_answer;
  {
    DurableLogOptions options;
    options.checkpoint_every = 4;
    DurableLog log(dir.path, options);
    ServiceState state;
    (void)log.recover(state);
    for (const Event& event : events) {
      (void)state.apply(event);
      log.append(event, state);
    }
    final_answer = state.query();
  }
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    if (entry.path().extension() == ".ckpt") {
      truncate_file(entry.path().string(), 10);
    }
  }
  DurableLog log(dir.path, {});
  ServiceState state;
  const RecoveryReport report = log.recover(state);
  EXPECT_TRUE(report.used_fallback);
  EXPECT_EQ(report.checkpoint_epoch, 0u);
  EXPECT_EQ(report.replayed_events, events.size());
  expect_bitwise_equal(state.query(), final_answer, "full replay");
}

TEST(ServeDurabilityTest, CheckpointNewerThanTheLogIsSkipped) {
  TempDir dir;
  const std::vector<Event> events = script_events();
  {
    DurableLogOptions options;
    options.checkpoint_every = events.size();  // checkpoint at the head
    DurableLog log(dir.path, options);
    ServiceState state;
    (void)log.recover(state);
    for (const Event& event : events) {
      (void)state.apply(event);
      log.append(event, state);
    }
  }
  // Simulate fsync_appends=false data loss: the log lost its last two
  // events but the (rename-durable) checkpoint survived. The checkpoint
  // now claims an epoch the log cannot vouch for — it must be skipped,
  // loudly, and the log replayed from scratch.
  ServiceState shorter;
  for (std::size_t i = 0; i + 2 < events.size(); ++i) {
    (void)shorter.apply(events[i]);
  }
  std::ostringstream clean;
  {
    std::vector<Event> prefix(events.begin(), events.end() - 2);
    fedshare::serve::write_event_log(clean, prefix);
  }
  ASSERT_TRUE(fedshare::io::write_file_atomic(
      dir.path + "/events-000000000000.log", clean.str()));

  DurableLog log(dir.path, {});
  ServiceState state;
  const RecoveryReport report = log.recover(state);
  EXPECT_TRUE(report.used_fallback);
  ASSERT_FALSE(report.notes.empty());
  EXPECT_NE(report.notes[0].find("newer than the durable log"),
            std::string::npos);
  EXPECT_EQ(report.checkpoint_epoch, 0u);
  EXPECT_EQ(report.total_events, events.size() - 2);
  expect_bitwise_equal(state.query(), shorter.query(), "skipped checkpoint");
}

TEST(ServeDurabilityTest, CompactionRewritesToCheckpointPlusSuffix) {
  TempDir dir;
  const std::vector<Event> events = script_events();
  EpochAnswer final_answer;
  {
    DurableLog log(dir.path, {});
    ServiceState state;
    (void)log.recover(state);
    for (const Event& event : events) {
      (void)state.apply(event);
      log.append(event, state);
    }
    final_answer = state.query();
  }

  DurableLogOptions options;
  const RecoveryReport report =
      fedshare::serve::compact_log_dir(dir.path, ServeOptions{}, options);
  EXPECT_FALSE(report.used_fallback);
  EXPECT_EQ(report.total_events, events.size());

  // Layout after compaction: one checkpoint at the head, one fresh
  // empty segment based there, old segment gone.
  EXPECT_FALSE(fs::exists(dir.path + "/events-000000000000.log"));
  const std::string head_segment = dir.path + "/events-000000000009.log";
  ASSERT_TRUE(fs::exists(head_segment));
  EXPECT_EQ(fs::file_size(head_segment), 0u);
  EXPECT_TRUE(fs::exists(dir.path + "/checkpoint-000000000009.ckpt"));

  // The compacted directory recovers bitwise and accepts new appends.
  DurableLog log(dir.path, {});
  ServiceState state;
  const RecoveryReport after = log.recover(state);
  EXPECT_FALSE(after.used_fallback);
  EXPECT_EQ(after.checkpoint_epoch, events.size());
  EXPECT_EQ(after.replayed_events, 0u);
  expect_bitwise_equal(state.query(), final_answer, "after compaction");

  const Event more = fedshare::serve::parse_event(
      "join name=E locations=2 units=1 availability=0.7");
  (void)state.apply(more);
  log.append(more, state);
  ServiceState again;
  DurableLog relog(dir.path, {});
  EXPECT_EQ(relog.recover(again).total_events, events.size() + 1);
  expect_bitwise_equal(again.query(), state.query(), "append after compact");

  // Without a usable checkpoint a compacted log cannot replay — that
  // must be a loud error, not an invented history.
  fs::remove(dir.path + "/checkpoint-000000000009.ckpt");
  DurableLog broken(dir.path, {});
  ServiceState scratch;
  EXPECT_THROW((void)broken.recover(scratch), ServeError);
}

TEST(ServeDurabilityTest, DueCheckpointIsDeferredWhileDirty) {
  TempDir dir;
  const std::vector<Event> events = script_events();
  DurableLogOptions options;
  options.checkpoint_every = 1;  // due after every event
  DurableLog log(dir.path, options);
  ServiceState state;
  (void)log.recover(state);
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    (void)state.apply(events[i]);
    log.append(events[i], state);
  }
  ASSERT_FALSE(checkpoint_epochs(dir.path).empty());

  // A budget-tripped apply leaves the state dirty: the due checkpoint
  // must be deferred, not taken (it would freeze a stale answer).
  const auto tripped =
      state.apply(events.back(), ComputeBudget().cap_nodes(0));
  ASSERT_FALSE(tripped.complete);
  log.append(events.back(), state);
  EXPECT_EQ(checkpoint_epochs(dir.path).front(), events.size() - 1);
  EXPECT_FALSE(log.checkpoint_now(state));  // still dirty

  // Once the epoch heals the deferred checkpoint lands.
  ASSERT_TRUE(state.repair().complete);
  EXPECT_TRUE(log.checkpoint_now(state));
  EXPECT_EQ(checkpoint_epochs(dir.path).front(), events.size());
}

// --- the maintenance thread ----------------------------------------------

MaintenanceOptions fast_maintenance() {
  MaintenanceOptions options;
  options.initial_backoff_ms = 0.1;
  options.max_backoff_ms = 2.0;
  options.jitter_ms = 0.05;
  options.poll_interval_ms = 0.1;
  return options;
}

TEST(ServeDurabilityTest, MaintenanceHealsATrippedEpochWithoutNewEvents) {
  const std::vector<Event> events = script_events();
  ServiceState reference;
  for (const Event& event : events) (void)reference.apply(event);

  ServiceState state;
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    (void)state.apply(events[i]);
  }
  const auto tripped =
      state.apply(events.back(), ComputeBudget().cap_nodes(0));
  ASSERT_FALSE(tripped.complete);
  ASSERT_TRUE(state.dirty());

  MaintenanceThread maintenance(state, fast_maintenance());
  maintenance.notify();
  ASSERT_TRUE(maintenance.wait_until_clean(30'000.0));
  // No further event arrived: the background thread healed the epoch on
  // its own, and the healed answer matches the uncrashed run bitwise.
  EXPECT_FALSE(state.dirty());
  expect_bitwise_equal(state.query(), reference.query(), "healed");
  const auto stats = maintenance.stats();
  EXPECT_GE(stats.attempts, 1u);
  EXPECT_GE(stats.heals, 1u);
  maintenance.stop();
  maintenance.stop();  // idempotent
  EXPECT_EQ(state.stats().epochs_tripped, 1u);
  EXPECT_EQ(state.stats().epochs_repaired, 1u);
}

TEST(ServeDurabilityTest, MaintenanceEscalatesItsBudgetLadder) {
  const std::vector<Event> events = script_events();
  ServiceState reference;
  for (const Event& event : events) (void)reference.apply(event);

  ServiceState state;
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    (void)state.apply(events[i]);
  }
  ASSERT_FALSE(
      state.apply(events.back(), ComputeBudget().cap_nodes(0)).complete);

  // A ladder starting at 1 node must exhaust at least once before the
  // uncapped rung (after `unlimited_after` failures) heals it.
  MaintenanceOptions options = fast_maintenance();
  options.base_node_cap = 1;
  options.escalation_factor = 2.0;
  options.unlimited_after = 2;
  MaintenanceThread maintenance(state, options);
  maintenance.notify();
  ASSERT_TRUE(maintenance.wait_until_clean(30'000.0));
  expect_bitwise_equal(state.query(), reference.query(), "after ladder");
  const auto stats = maintenance.stats();
  EXPECT_GE(stats.exhaustions, 1u);
  EXPECT_GE(stats.escalations, 1u);
  EXPECT_GE(stats.heals, 1u);
}

TEST(ServeDurabilityTest, MaintenanceNeverBlocksAppliersAndDrainsCleanly) {
  const std::vector<Event> events = script_events();
  ServiceState reference;
  for (const Event& event : events) (void)reference.apply(event);

  // Applies stream in while the maintenance thread keeps healing the
  // tripped epochs between them; apply() preempts any in-flight repair
  // (interrupt_repair), so this also exercises the yield path. The run
  // must terminate (no deadlock), drain on stop(), and land bitwise on
  // the uncrashed answer.
  ServiceState state;
  MaintenanceThread maintenance(state, fast_maintenance());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const bool hostile = i % 2 == 1;
    const auto applied = state.apply(
        events[i],
        hostile ? ComputeBudget().cap_nodes(1) : ComputeBudget());
    if (!applied.complete) maintenance.notify();
  }
  ASSERT_TRUE(maintenance.wait_until_clean(30'000.0));
  maintenance.stop();
  EXPECT_FALSE(state.dirty());
  expect_bitwise_equal(state.query(), reference.query(), "under churn");
}

}  // namespace
