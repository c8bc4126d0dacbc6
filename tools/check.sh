#!/bin/sh
# Check that every library header and every library function has a user
# path (tools/check_reachable.sh: no src/ header that only its own .cpp
# and tests/ include, no src/ function that no program links in a
# -ffunction-sections / --gc-sections build, and no inline function of
# a src/ header that no user path names), that every size ceiling reads
# the size contract (tools/check_limits.sh: no comparison of a player,
# union or facility count with a literal of 10 or more in src/ outside
# src/core/limits.hpp), then run the full test
# suite twice — once in the plain RelWithDebInfo build and once under
# AddressSanitizer + UndefinedBehaviorSanitizer (both runs include the
# serve chaos harness: randomized churn vs batch-solve equality) — then
# the concurrency-sensitive tests a third time under
# ThreadSanitizer (the work-stealing pool, the flat value memo's
# atomic presence bitmap under concurrent invalidation, and the
# serve-layer apply/query races), then
# the bitwise SIMD-lattice tests on their own (the stage that must fail
# if vectorized results drift from the scalar reference by even one
# ulp), then the
# perf-smoke gates: fast runs that fail when the dense and revised
# simplex engines disagree, the warm start stops saving pivots, the
# quotient tabulation or a certified LP chain stops being
# bitwise-identical, the tabulated game stops being bitwise-identical
# across thread counts, the
# nucleolus stops skipping its provably redundant LPs or stops solving
# the heterogeneous n = 9 game on its working set (every LP certified,
# full-table excess scan clean), or
# the serve layer's closed-form bound leaves the relaxation's dense LP
# by more than 1e-12 (relative) in any churn epoch, its incremental
# V(S) tabulation stops beating a cold re-tabulation, an outage-end
# stops taking its V(S) slice from the V(S) memo and reusing the
# memoised pre-outage answer bit for bit, or a revisited outage-start
# recomputes any V(S), then the
# crash-recovery gate (tools/crash_check.sh: SIGKILL the serve CLI at
# every epoch and require the resumed answer to be byte-identical), the
# outage report golden at 4 threads (each scenario's consumption weights
# are computed on pool threads), the end-to-end benchmark's self-test
# (perfbench/run.py --self-test: every workload for a few ops, every
# declared metric printed, and corrupted outputs — a dropped nucleolus
# row, shares not summing to 1, a stale serve answer — all rejected),
# and finally a 10-second differential LP fuzz run
# (tools/fuzz_lp) that cross-checks the engines and their
# optimality/Farkas certificates on random instances.
#
# Usage: tools/check.sh [extra ctest args...]
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=$(nproc 2>/dev/null || echo 4)

echo "== reachability (every library header and function has a user path) =="
"$root/tools/check_reachable.sh"

echo "== size contract (every size ceiling reads src/core/limits.hpp) =="
"$root/tools/check_limits.sh"

echo "== plain build =="
cmake -S "$root" -B "$root/build" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$root/build" -j "$jobs"
ctest --test-dir "$root/build" -j "$jobs" --output-on-failure "$@"

echo "== sanitized build (ASan + UBSan) =="
cmake -S "$root" -B "$root/build-asan" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DFEDSHARE_SANITIZE=ON
cmake --build "$root/build-asan" -j "$jobs"
ctest --test-dir "$root/build-asan" -j "$jobs" --output-on-failure "$@"

echo "== exec + lattice/symmetry + serve + structure + scheme comparison tests under ThreadSanitizer =="
cmake -S "$root" -B "$root/build-tsan" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DFEDSHARE_SANITIZE=thread
cmake --build "$root/build-tsan" -j "$jobs" --target fedshare_tests
ctest --test-dir "$root/build-tsan" -j "$jobs" --output-on-failure \
  -R 'ExecTest|LatticeProperty|SymmetryProperty|NucleolusQuotient|NucleolusFilters|ServeStateTest|ServeAnswerMemoTest|ServeChaosTest|ServeDurabilityTest|StructureParallelTest|CompareSchemes|EvaluateOutages'

echo "== SIMD lattice smoke (bitwise vs scalar) =="
ctest --test-dir "$root/build" -j "$jobs" --output-on-failure \
  -R 'LatticeSimd'

echo "== perf smoke (dense vs revised simplex on the bound chain, warm pivot savings) =="
cmake --build "$root/build" -j "$jobs" --target perf_simplex
"$root/build/bench/perf_simplex" --smoke

echo "== tabulation smoke (tabulated game bitwise at 1 and 4 threads) =="
cmake --build "$root/build" -j "$jobs" --target perf_parallel
"$root/build/bench/perf_parallel" --smoke

echo "== quotient smoke (quotient tabulation bitwise vs full) =="
cmake --build "$root/build" -j "$jobs" --target perf_quotient
"$root/build/bench/perf_quotient" --smoke

echo "== nucleolus smoke (quotient vs dense, LP-ratio, certification, hetero n = 9 working-set and least-core, hetero n = 12 gates) =="
cmake --build "$root/build" -j "$jobs" --target perf_nucleolus
"$root/build/bench/perf_nucleolus" --smoke

echo "== verification smoke (certified vs plain warm bound chain) =="
cmake --build "$root/build" -j "$jobs" --target perf_verify
"$root/build/bench/perf_verify" --smoke

echo "== serve smoke (bound equals the LP, incremental V(S), outage-end slice and answer reuse, replay) =="
cmake --build "$root/build" -j "$jobs" --target perf_serve
"$root/build/bench/perf_serve" --smoke

echo "== crash recovery (SIGKILL at every epoch, bitwise resume) =="
cmake --build "$root/build" -j "$jobs" --target fedshare_cli
"$root/tools/crash_check.sh" "$root/build"

echo "== outage golden at 4 threads (scenario weights computed on pool threads) =="
"$root/build/tools/fedshare_cli" --threads 4 --outage-scenarios 16 \
  --outage-seed 7 "$root/configs/planetlab.ini" \
  | diff "$root/tests/golden/planetlab_outage.txt" -

echo "== end-to-end benchmark self-test (perfbench correctness checks) =="
(cd "$root" && python3 perfbench/run.py --self-test)

echo "== structure smoke (subset-lattice DP vs brute-force CSG, bitwise) =="
cmake --build "$root/build" -j "$jobs" --target ablate_structure
"$root/build/bench/ablate_structure" --smoke

echo "== differential LP fuzz (dense vs revised vs warm, certified) =="
cmake --build "$root/build" -j "$jobs" --target fuzz_lp
"$root/build/tools/fuzz_lp" --seconds 10

echo "== all checks passed =="
