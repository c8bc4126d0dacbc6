#include "serve/log.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <system_error>

#include "io/atomic_file.hpp"
#include "serve/checkpoint.hpp"

namespace fedshare::serve {

namespace fs = std::filesystem;

namespace {

constexpr const char* kSegmentPrefix = "events-";
constexpr const char* kSegmentSuffix = ".log";
constexpr const char* kCheckpointPrefix = "checkpoint-";
constexpr const char* kCheckpointSuffix = ".ckpt";

std::string padded(std::uint64_t n) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%012llu",
                static_cast<unsigned long long>(n));
  return buf;
}

// `events-000000000012.log` -> 12; nullopt for non-matching names.
std::optional<std::uint64_t> number_of(const std::string& name,
                                       const char* prefix,
                                       const char* suffix) {
  const std::string p(prefix), s(suffix);
  if (name.size() <= p.size() + s.size() || name.compare(0, p.size(), p) != 0 ||
      name.compare(name.size() - s.size(), s.size(), s) != 0) {
    return std::nullopt;
  }
  const std::string digits =
      name.substr(p.size(), name.size() - p.size() - s.size());
  std::uint64_t value = 0;
  const auto res =
      std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (res.ec != std::errc() || res.ptr != digits.data() + digits.size()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

std::string DurableLog::segment_path(std::uint64_t base) const {
  return dir_ + "/" + kSegmentPrefix + padded(base) + kSegmentSuffix;
}

std::string DurableLog::checkpoint_path(std::uint64_t epoch) const {
  return dir_ + "/" + kCheckpointPrefix + padded(epoch) + kCheckpointSuffix;
}

DurableLog::DurableLog(std::string dir, DurableLogOptions options)
    : dir_(std::move(dir)), options_(options) {
  options_.retain_checkpoints = std::max(options_.retain_checkpoints, 1);
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw ServeError("log: cannot create directory '" + dir_ +
                     "': " + ec.message());
  }
  scan();
  if (segment_bases_.empty()) {
    if (!io::write_file_atomic(segment_path(0), "")) {
      throw ServeError("log: cannot create first segment in '" + dir_ + "'");
    }
    segment_bases_.push_back(0);
  }
}

void DurableLog::scan() {
  segment_bases_.clear();
  checkpoint_epochs_.clear();
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (const auto base = number_of(name, kSegmentPrefix, kSegmentSuffix)) {
      segment_bases_.push_back(*base);
    } else if (const auto epoch =
                   number_of(name, kCheckpointPrefix, kCheckpointSuffix)) {
      checkpoint_epochs_.push_back(*epoch);
    }
    // Anything else (stray *.tmp from a crashed atomic write, operator
    // notes) is ignored by construction of the naming scheme.
  }
  if (ec) {
    throw ServeError("log: cannot scan directory '" + dir_ +
                     "': " + ec.message());
  }
  std::sort(segment_bases_.begin(), segment_bases_.end());
  std::sort(checkpoint_epochs_.begin(), checkpoint_epochs_.end());
}

RecoveryReport DurableLog::recover(ServiceState& state) {
  RecoveryReport report;

  // Parse every segment. Only the last one may have a torn tail (only
  // it was ever appended to); a parse error anywhere else is mid-log
  // corruption and recovery must not paper over it.
  const std::uint64_t first_base = segment_bases_.front();
  std::vector<Event> events;  // epochs first_base+1 ... first_base+size
  std::uint64_t expected_base = first_base;
  for (std::size_t s = 0; s < segment_bases_.size(); ++s) {
    const std::uint64_t base = segment_bases_[s];
    if (base != expected_base) {
      throw ServeError("log: segments are not contiguous at '" +
                       segment_path(base) + "' (expected base " +
                       std::to_string(expected_base) + ")");
    }
    const std::optional<std::string> text = io::read_file(segment_path(base));
    if (!text) {
      throw ServeError("log: cannot read segment '" + segment_path(base) +
                       "'");
    }
    std::istringstream in(*text);
    std::vector<Event> parsed;
    if (s + 1 == segment_bases_.size()) {
      LogRecovery log_recovery;
      parsed = parse_event_log_tolerant(in, log_recovery);
      if (log_recovery.truncated) {
        report.used_fallback = true;
        report.notes.push_back(segment_path(base) + ": " +
                               log_recovery.note);
        // Truncate the segment back to the good prefix so the next
        // append starts on a clean line instead of extending the torn
        // one. format/parse round-trip exactly, so the rewrite changes
        // no surviving event.
        std::ostringstream clean;
        write_event_log(clean, parsed);
        if (!io::write_file_atomic(segment_path(base),
                                   std::move(clean).str())) {
          throw ServeError("log: cannot truncate torn segment '" +
                           segment_path(base) + "'");
        }
      }
    } else {
      try {
        parsed = parse_event_log(in);
      } catch (const ServeError& e) {
        throw ServeError("log: segment '" + segment_path(base) +
                         "' is corrupt: " + e.what());
      }
    }
    events.insert(events.end(), parsed.begin(), parsed.end());
    expected_base = base + parsed.size();
  }
  const std::uint64_t total = first_base + events.size();
  report.total_events = total;
  events_ = total;
  checkpoint_due_ = false;

  // Newest usable checkpoint with epoch in [first_base, total]; anything
  // newer than the durable log (possible only with fsync_appends off)
  // or older than the first segment cannot anchor a faithful replay.
  bool restored = false;
  for (auto it = checkpoint_epochs_.rbegin();
       it != checkpoint_epochs_.rend() && !restored; ++it) {
    const std::uint64_t epoch = *it;
    if (epoch > total) {
      report.used_fallback = true;
      report.notes.push_back(checkpoint_path(epoch) +
                             ": newer than the durable log; skipped");
      continue;
    }
    if (epoch < first_base) break;  // ascending below this point
    std::string error;
    const std::optional<CheckpointImage> image =
        load_checkpoint(checkpoint_path(epoch), &error);
    if (!image) {
      report.used_fallback = true;
      report.notes.push_back(checkpoint_path(epoch) + ": " + error +
                             "; falling back");
      continue;
    }
    try {
      state.restore(*image);
    } catch (const ServeError& e) {
      // restore() validates before mutating, so the state is still
      // fresh and the next-older checkpoint can be tried.
      report.used_fallback = true;
      report.notes.push_back(checkpoint_path(epoch) + ": " + e.what() +
                             "; falling back");
      continue;
    }
    report.checkpoint_epoch = epoch;
    restored = true;
  }
  if (!restored && first_base != 0) {
    throw ServeError(
        "log: no usable checkpoint and the log starts at epoch " +
        std::to_string(first_base) +
        " — the compacted prefix cannot be replayed");
  }

  // Replay the suffix after the restored epoch (everything, from a
  // fresh state, when no checkpoint was usable).
  const std::uint64_t from = restored ? report.checkpoint_epoch : 0;
  for (std::uint64_t e = from; e < total; ++e) {
    (void)state.apply(events[static_cast<std::size_t>(e - first_base)]);
  }
  report.replayed_events = total - from;
  return report;
}

void DurableLog::append(const Event& event, ServiceState& state) {
  const std::string line = format_event(event) + "\n";
  if (!io::append_file(segment_path(segment_bases_.back()), line,
                       options_.fsync_appends)) {
    throw ServeError("log: append failed on '" +
                     segment_path(segment_bases_.back()) + "'");
  }
  ++events_;
  if (options_.checkpoint_every != 0 &&
      events_ % options_.checkpoint_every == 0) {
    checkpoint_due_ = true;
  }
  if (checkpoint_due_) (void)checkpoint_now(state);
}

bool DurableLog::checkpoint_now(ServiceState& state) {
  if (state.dirty()) return false;  // deferred until the epoch heals
  CheckpointImage image;
  try {
    image = state.checkpoint_image();
  } catch (const ServeError&) {
    return false;  // raced dirty; stays due
  }
  if (!save_checkpoint(checkpoint_path(image.epoch), image)) return false;
  if (!std::binary_search(checkpoint_epochs_.begin(),
                          checkpoint_epochs_.end(), image.epoch)) {
    checkpoint_epochs_.insert(
        std::upper_bound(checkpoint_epochs_.begin(),
                         checkpoint_epochs_.end(), image.epoch),
        image.epoch);
  }
  checkpoint_due_ = false;
  prune_checkpoints();
  return true;
}

void DurableLog::prune_checkpoints() {
  const auto retain = static_cast<std::size_t>(options_.retain_checkpoints);
  while (checkpoint_epochs_.size() > retain) {
    std::error_code ec;
    fs::remove(checkpoint_path(checkpoint_epochs_.front()), ec);
    // A failed remove only wastes disk; recovery ignores older
    // checkpoints once a newer one restores.
    checkpoint_epochs_.erase(checkpoint_epochs_.begin());
  }
}

RecoveryReport compact_log_dir(const std::string& dir,
                               const ServeOptions& serve_options,
                               const DurableLogOptions& options) {
  DurableLog log(dir, options);
  ServiceState scratch(serve_options);
  RecoveryReport report = log.recover(scratch);
  const std::uint64_t head = report.total_events;
  if (head == 0) return report;  // nothing to compact

  // Crash-safe order: checkpoint the head first (after this, the old
  // segments are redundant), then open the new segment (a contiguous
  // successor of the old ones, so a crash here still recovers), and
  // only then drop the replaced files.
  if (!log.checkpoint_now(scratch)) {
    throw ServeError("compact: cannot write checkpoint for '" + dir + "'");
  }
  const std::string new_segment =
      dir + "/" + kSegmentPrefix + padded(head) + kSegmentSuffix;
  std::error_code ec;
  if (!fs::exists(new_segment, ec)) {
    if (!io::write_file_atomic(new_segment, "")) {
      throw ServeError("compact: cannot start segment '" + new_segment +
                       "'");
    }
  }
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const auto base = number_of(name, kSegmentPrefix, kSegmentSuffix);
    if (base && *base < head) fs::remove(entry.path(), ec);
  }
  return report;
}

}  // namespace fedshare::serve
