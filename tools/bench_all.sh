#!/usr/bin/env bash
# Regenerates every committed bench summary (the BENCH_*.json files at
# the repo root): builds each summary-writing bench, then runs it in
# summary mode with FEDSHARE_BENCH_OUT pointing at the repo root. The
# google-benchmark timings are skipped (--benchmark_filter=SKIPALL);
# only the summaries are measured. Takes a few minutes; perf_nucleolus
# alone takes about two (it also runs the unfiltered reference loop).
#
# Usage: tools/bench_all.sh [build-dir] [bench ...]
#   build-dir  defaults to ./build (configured RelWithDebInfo if absent)
#   bench      a subset to regenerate, e.g. `perf_simplex perf_verify`;
#              all eight by default
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build}"
shift || true

# bench binary -> summary file it writes.
declare -A summary=(
  [perf_shapley]=BENCH_shapley.json
  [perf_simplex]=BENCH_simplex.json
  [perf_quotient]=BENCH_quotient.json
  [perf_parallel]=BENCH_parallel.json
  [perf_verify]=BENCH_verify.json
  [perf_nucleolus]=BENCH_nucleolus.json
  [perf_serve]=BENCH_serve.json
  [ablate_structure]=BENCH_structure.json
)
order=(perf_shapley perf_simplex perf_quotient perf_parallel perf_verify
       perf_nucleolus perf_serve ablate_structure)
if [[ $# -gt 0 ]]; then
  order=("$@")
fi
for bench in "${order[@]}"; do
  if [[ -z "${summary[$bench]+set}" ]]; then
    echo "bench_all: unknown bench '$bench' (known: ${!summary[*]})" >&2
    exit 2
  fi
done

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
fi
cmake --build "$build" -j "$(nproc 2>/dev/null || echo 4)" \
  --target "${order[@]}" >/dev/null

for bench in "${order[@]}"; do
  out="$root/${summary[$bench]}"
  echo "== $bench -> ${summary[$bench]}"
  if [[ "$bench" == ablate_* ]]; then
    # Figure benches have no google-benchmark section to skip.
    FEDSHARE_BENCH_OUT="$out" "$build/bench/$bench" >/dev/null
  else
    FEDSHARE_BENCH_OUT="$out" "$build/bench/$bench" \
      --benchmark_filter=SKIPALL >/dev/null
  fi
done
echo "== wrote ${#order[@]} summaries to $root"
