// Durable checkpoint codec for the serve layer.
//
// A checkpoint is the text serialization of a serve::CheckpointImage —
// everything ServiceState::restore() needs to stand a service back up
// at epoch E without replaying events 1..E: roster (with realised
// outage masks), demand, the raw greedy V(S) lattice, and the grand
// coalition's LP-relaxation bound. restore() re-derives the bound from
// the roster and the demand, so the record only says which mask it was
// taken for.
//
// Format (one record per line, text, '\n'-terminated):
//
//   fedshare-checkpoint v1          header: magic + format version
//   epoch 12
//   log-offset 12                   events of the durable log consumed
//   options max_facilities=12 track_bounds=1 lp_solver=dense
//   history tripped=1 repaired=1 repairs=1
//   members 2
//   slot=0 outage=1 seed=7 scenario=3 up=1011
//   join name=PLC locations=4 units=4 availability=0.97
//   slot=1 outage=0 seed=0 scenario=0 up=-
//   join name=LAB locations=4 units=2 availability=1 units_at=2,1,1,2
//   demand count=10,min_locations=450,units=1,exponent=1,holding_time=1
//   cache 3
//   v 1 17.549999999999997
//   ...
//   bounds 1                        0 when the bound is unavailable
//   b 3 27.4 -                      mask value -
//   crc32 9a0c1f44                  trailing whole-file checksum
//
// Doubles are printed shortest-round-trip (std::to_chars), so decode ∘
// encode is the identity on every double bit pattern. Member configs
// and the demand profile reuse the event-log grammar (format_event /
// parse_event), which already has that property. The final line is the
// IEEE CRC-32 (io::crc32) of everything before it; a reader that finds
// a bad magic, a bad checksum, or any malformed record treats the file
// as corrupt and falls back (serve/log.hpp) — never a wrong answer.
//
// v1 files written while the service kept a bound per slot mask carry
// one `b` record per mask, ascending; the decoder still reads and
// validates them all. v1 files written while the bound was a warm-
// started LP end a `b` record with its simplex basis (num_structural and
// one L/U/B/F status per column) instead of `-`; the decoder checks the
// basis and drops it.
//
// v1 files written while serve ran its nucleolus on the revised engine
// say `lp_solver=revised`. A checkpoint holds no nucleolus state (every
// answer is recomputed after restore), so they restore like `dense`.
//
// The `cache` records hold raw greedy values. v1 files written while the
// serve memo held monotone-closed values carry closed values there
// instead; they restore to the same answers, because the closure that
// publishes every snapshot is idempotent, so the format stays v1.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "serve/state.hpp"

namespace fedshare::serve {

/// Serializes `image` in the format above (including the crc32
/// trailer). Never fails.
[[nodiscard]] std::string encode_checkpoint(const CheckpointImage& image);

/// Parses a checkpoint. Throws ServeError on a bad magic line, a
/// checksum mismatch, or any malformed record — callers treat every
/// failure mode as "this checkpoint is unusable, fall back".
[[nodiscard]] CheckpointImage decode_checkpoint(std::string_view text);

/// Encodes and writes `image` to `path` atomically (temp file + fsync +
/// rename + directory fsync). False on I/O failure; `path` is then
/// either absent or still the previous checkpoint.
[[nodiscard]] bool save_checkpoint(const std::string& path,
                                   const CheckpointImage& image);

/// Reads and decodes the checkpoint at `path`. nullopt (with a one-line
/// reason in *error when non-null) when the file is missing, unreadable,
/// corrupt, or fails its checksum — the caller's cue to fall back to an
/// older checkpoint or a full replay.
[[nodiscard]] std::optional<CheckpointImage> load_checkpoint(
    const std::string& path, std::string* error = nullptr);

}  // namespace fedshare::serve
