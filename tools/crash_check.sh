#!/usr/bin/env bash
# Crash-recovery gate: SIGKILL `fedshare_cli --serve` at every epoch of
# the demo script (via --crash-at-epoch, which raises SIGKILL after the
# epoch is durable — no flush, no destructors), rerun the same command,
# and require the resumed run's "Service answer" section to be
# byte-identical to the uncrashed run's. Process-local stats (cache
# hits, LP counts) legitimately differ between a full and a resumed
# run, so only the answer section is compared — that is the bitwise
# recovery contract.
#
# Also exercises the torn-tail path: garbage appended to the log (a
# half-written line, as a power cut mid-append would leave) must yield
# exit code 4 with a note on stderr and, still, the identical answer.
# Finally it resumes the committed tests/fixtures/serve_demo_log_revised
# directory, whose checkpoints say `lp_solver=revised`, and requires the
# golden answer.
#
# Usage: tools/crash_check.sh [build-dir]   (default: ./build)
set -uo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build}"
cli="$build/tools/fedshare_cli"
events="$root/configs/serve_demo.events"

if [[ ! -x "$cli" ]]; then
  echo "building fedshare_cli in $build ..."
  cmake -B "$build" -S "$root" >/dev/null
  cmake --build "$build" --target fedshare_cli -j >/dev/null
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
failures=0

# The final share/core/incentive answer — the part that must be
# byte-identical across crash/recovery.
answer_section() {
  awk '/^Service answer/{flag=1} /^Service stats/{flag=0} flag' "$1"
}

# Runs a command expected to die by SIGKILL; the wrapping subshell (kept
# alive by the trailing `exit`) absorbs bash's "Killed" job message.
crash_run() {
  ( "$@" > /dev/null 2>&1; exit $? ) 2> /dev/null
}

num_events=$(grep -cv -e '^[[:space:]]*#' -e '^[[:space:]]*$' "$events")

"$cli" --serve "$events" > "$workdir/reference.txt"
if [[ $? -ne 0 ]]; then
  echo "crash_check: reference run failed" >&2
  exit 1
fi
answer_section "$workdir/reference.txt" > "$workdir/reference.answer"
if [[ ! -s "$workdir/reference.answer" ]]; then
  echo "crash_check: could not extract the reference answer section" >&2
  exit 1
fi

for every in 1 3; do
  for ((epoch = 1; epoch < num_events; ++epoch)); do
    dir="$workdir/log_${every}_${epoch}"
    crash_run "$cli" --serve "$events" --log-dir "$dir" \
      --checkpoint-every "$every" --crash-at-epoch "$epoch"
    rc=$?
    if [[ $rc -ne 137 ]]; then
      echo "crash_check: expected SIGKILL (137) at epoch $epoch, got rc=$rc" >&2
      failures=$((failures + 1))
      continue
    fi
    "$cli" --serve "$events" --log-dir "$dir" \
      --checkpoint-every "$every" \
      > "$workdir/resumed.txt" 2> "$workdir/resumed.err"
    rc=$?
    if [[ $rc -ne 0 ]]; then
      echo "crash_check: resumed run (every=$every epoch=$epoch) exited $rc" >&2
      cat "$workdir/resumed.err" >&2
      failures=$((failures + 1))
      continue
    fi
    answer_section "$workdir/resumed.txt" > "$workdir/resumed.answer"
    if ! cmp -s "$workdir/reference.answer" "$workdir/resumed.answer"; then
      echo "crash_check: answer drift after crash at epoch $epoch (checkpoint-every $every):" >&2
      diff "$workdir/reference.answer" "$workdir/resumed.answer" >&2 || true
      failures=$((failures + 1))
    fi
  done
done

# Torn tail: a half-written append (no newline) must be dropped with a
# loud note and exit code 4 — and the answer must still be exact once
# the script suffix is re-applied.
dir="$workdir/log_torn"
crash_run "$cli" --serve "$events" --log-dir "$dir" \
  --checkpoint-every 3 --crash-at-epoch 5
printf 'join name=TORN locat' >> "$dir"/events-*.log
"$cli" --serve "$events" --log-dir "$dir" --checkpoint-every 3 \
  > "$workdir/torn.txt" 2> "$workdir/torn.err"
rc=$?
if [[ $rc -ne 4 ]]; then
  echo "crash_check: torn-tail recovery expected exit 4, got $rc" >&2
  failures=$((failures + 1))
fi
if ! grep -q "torn final line" "$workdir/torn.err"; then
  echo "crash_check: torn-tail note missing from stderr" >&2
  failures=$((failures + 1))
fi
answer_section "$workdir/torn.txt" > "$workdir/torn.answer"
if ! cmp -s "$workdir/reference.answer" "$workdir/torn.answer"; then
  echo "crash_check: answer drift after torn-tail recovery:" >&2
  diff "$workdir/reference.answer" "$workdir/torn.answer" >&2 || true
  failures=$((failures + 1))
fi

# Compaction keeps the answer: rewrite a crashed log to (checkpoint,
# fresh segment), then resume from the compacted directory.
dir="$workdir/log_compact"
crash_run "$cli" --serve "$events" --log-dir "$dir" \
  --checkpoint-every 2 --crash-at-epoch 6
"$cli" --compact "$dir" > /dev/null 2>&1
rc=$?
if [[ $rc -ne 0 ]]; then
  echo "crash_check: --compact exited $rc" >&2
  failures=$((failures + 1))
fi
"$cli" --serve "$events" --log-dir "$dir" \
  > "$workdir/compacted.txt" 2>&1
rc=$?
if [[ $rc -ne 0 ]]; then
  echo "crash_check: resume after --compact exited $rc" >&2
  failures=$((failures + 1))
fi
answer_section "$workdir/compacted.txt" > "$workdir/compacted.answer"
if ! cmp -s "$workdir/reference.answer" "$workdir/compacted.answer"; then
  echo "crash_check: answer drift after compaction:" >&2
  diff "$workdir/reference.answer" "$workdir/compacted.answer" >&2 || true
  failures=$((failures + 1))
fi

# A compacted log directory whose checkpoints were written while serve
# ran its nucleolus on the revised engine (`lp_solver=revised` on their
# options line) still restores: resuming the demo script from a copy of
# it replays nothing, and the answer must equal the golden's.
dir="$workdir/log_revised"
cp -R "$root/tests/fixtures/serve_demo_log_revised" "$dir"
"$cli" --serve "$events" --log-dir "$dir" \
  > "$workdir/revised.txt" 2> "$workdir/revised.err"
rc=$?
if [[ $rc -ne 0 ]]; then
  echo "crash_check: resume from the revised-engine checkpoint exited $rc" >&2
  cat "$workdir/revised.err" >&2
  failures=$((failures + 1))
fi
answer_section "$workdir/revised.txt" > "$workdir/revised.answer"
answer_section "$root/tests/golden/serve_demo.txt" > "$workdir/golden.answer"
if ! cmp -s "$workdir/golden.answer" "$workdir/revised.answer"; then
  echo "crash_check: answer drift after the revised-engine checkpoint:" >&2
  diff "$workdir/golden.answer" "$workdir/revised.answer" >&2 || true
  failures=$((failures + 1))
fi

if [[ $failures -eq 0 ]]; then
  echo "crash-check PASSED ($(( (num_events - 1) * 2 )) kill points, torn tail, compaction, revised-engine checkpoint)"
  exit 0
fi
echo "crash-check FAILED ($failures failures)" >&2
exit 1
