#!/usr/bin/env bash
# Regenerates the golden CLI snapshots in tests/golden/.
#
# The golden harness (tests/test_golden.cpp) fails tier-1 when the CLI's
# rendered output drifts from these files. When an intentional change
# alters the output, run this script, review the diff, and commit the
# new snapshots alongside the change.
#
# Usage: tools/update_golden.sh [build-dir]   (default: ./build)
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build}"
cli="$build/tools/fedshare_cli"

if [[ ! -x "$cli" ]]; then
  echo "building fedshare_cli in $build ..."
  cmake -B "$build" -S "$root" >/dev/null
  cmake --build "$build" --target fedshare_cli -j >/dev/null
fi

mkdir -p "$root/tests/golden"
"$cli" "$root/configs/sec41.ini" > "$root/tests/golden/sec41.txt"
"$cli" "$root/configs/planetlab.ini" > "$root/tests/golden/planetlab.txt"
"$cli" --structure optimal "$root/configs/planetlab.ini" \
  > "$root/tests/golden/planetlab_structure.txt"
"$cli" "$root/configs/typed8.ini" > "$root/tests/golden/typed8.txt"
"$cli" --symmetry exact "$root/configs/typed8.ini" \
  > "$root/tests/golden/typed8_symmetry.txt"
"$cli" "$root/configs/hetero12.ini" > "$root/tests/golden/hetero12.txt"
"$cli" --outage-scenarios 16 --outage-seed 7 "$root/configs/planetlab.ini" \
  > "$root/tests/golden/planetlab_outage.txt"
# The cache counters are the same at any thread count (one memo lookup
# per mask per tabulation); CI also diffs a --threads 4 run against this.
"$cli" --threads 1 --cache-stats --verify full "$root/configs/planetlab.ini" \
  > "$root/tests/golden/planetlab_cache_stats.txt"
"$cli" --serve "$root/configs/serve_demo.events" \
  > "$root/tests/golden/serve_demo.txt"

for f in sec41 planetlab planetlab_structure planetlab_outage \
    planetlab_cache_stats typed8 typed8_symmetry hetero12 serve_demo; do
  echo "updated tests/golden/$f.txt"
done
