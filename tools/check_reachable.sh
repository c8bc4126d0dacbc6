#!/bin/sh
# Fail when library code is reachable from no user path. Two stages:
#
# 1. Headers (no build needed): every src/**/*.hpp must be #included by
#    at least one file under src/, bench/, examples/, tools/ or
#    perfbench/ other than its own .cpp. A header that only its own .cpp
#    and tests/ include is code no CLI, serve, bench, example or tool
#    runs. This is the only stage that sees header-only code.
#
# 2. Functions: every global function a src/ library defines must be
#    linked into at least one program. The stage configures its own
#    build directory (build-reach/, flags on the command line only:
#    -O0 -ffunction-sections -fdata-sections, linked with
#    -Wl,--gc-sections, so a program keeps exactly the functions its
#    main reaches), builds every non-test program (fedshare_cli,
#    fuzz_lp, the benches, the examples) and perfbench's fedbench, and
#    compares `nm` of the src/ static libraries with the union of the
#    programs. A function that only tests/ call belongs in tests/.
#
# Usage: tools/check_reachable.sh
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$root"

# -- stage 1: headers --------------------------------------------------

# Declared exception. structure/typed_csg.hpp has no user path yet; the
# ROADMAP item "Orbit-native report: typed federations up to n = 64
# without a 2^n table" puts it on one.
allowed="structure/typed_csg.hpp"

status=0
for header in $(find src -name '*.hpp' | sort); do
  rel=${header#src/}
  own_cpp="src/${rel%.hpp}.cpp"
  users=$(grep -rlF "#include \"$rel\"" src bench examples tools perfbench \
            2>/dev/null | grep -vxF -e "$own_cpp" -e "$header" || true)
  [ -n "$users" ] && continue
  if [ "$rel" = "$allowed" ]; then
    echo "allowed: $rel (no user path yet; see ROADMAP)"
    continue
  fi
  echo "unreachable: $rel is included only by its own .cpp or tests/"
  status=1
done

if [ "$status" -ne 0 ]; then
  exit "$status"
fi
echo "check_reachable: every library header has a user path"

# -- stage 2: functions ------------------------------------------------

# Declared exceptions, one per line: the demangled name up to its
# parameter list, then the reason.
exceptions='fedshare::structure::optimal_structure_typed|no user path yet (ROADMAP: orbit-native report)
fedshare::game::simd::set_mode|test seam: forces the scalar or vector lattice kernels
fedshare::game::simd::mode|test seam: reads back the mode set_mode forced'

build="$root/build-reach"
jobs=$(nproc 2>/dev/null || echo 4)
flags="-O0 -ffunction-sections -fdata-sections"
configure() {
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS_DEBUG="$flags" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
}

# Every program the project ships: the executables that bench/,
# examples/ and tools/ declare.
macros='add_fig_bench\|add_perf_bench\|add_example\|add_executable'
programs=$(sed -n "s/^ *\($macros\)(\([A-Za-z0-9_]*\).*/\2/p" \
  bench/CMakeLists.txt examples/CMakeLists.txt tools/CMakeLists.txt | sort -u)

configure "$root" "$build"
# shellcheck disable=SC2086
cmake --build "$build" -j "$jobs" --target $programs >/dev/null
configure "$root/perfbench" "$build/perfbench"
cmake --build "$build/perfbench" -j "$jobs" --target fedbench >/dev/null

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Global text symbols (mangled) of the src/ libraries and of the programs.
find "$build" -path "$build/perfbench" -prune -o \
  -name 'libfedshare_*.a' -print | sort >"$work/libs"
if [ ! -s "$work/libs" ]; then
  echo "check_reachable: no src/ libraries built"
  exit 1
fi
xargs nm --defined-only <"$work/libs" 2>/dev/null \
  | awk '$2 == "T" { print $3 }' | sort -u >"$work/defined"
: >"$work/linked"
for prog in $programs; do
  bin=$(find "$build" -path "$build/perfbench" -prune -o \
          -type f -name "$prog" -perm -u+x -print | head -n 1)
  [ -n "$bin" ] || { echo "check_reachable: program $prog not built"; exit 1; }
  nm --defined-only "$bin" | awk '{ print $3 }' >>"$work/linked"
done
nm --defined-only "$build/perfbench/fedbench" | awk '{ print $3 }' \
  >>"$work/linked"
sort -u "$work/linked" -o "$work/linked"

comm -23 "$work/defined" "$work/linked" | c++filt | sort -u >"$work/unlinked"

count=0
while IFS= read -r sym; do
  name=${sym%%(*}
  reason=$(printf '%s\n' "$exceptions" | awk -F'|' -v n="$name" \
             '$1 == n { print $2; exit }')
  if [ -n "$reason" ]; then
    echo "allowed: $sym ($reason)"
    continue
  fi
  echo "unlinked: $sym is defined in src/ but no program links it"
  count=$((count + 1))
done <"$work/unlinked"

# An exception whose function is linked now, or gone, is stale.
for name in $(printf '%s\n' "$exceptions" | cut -d'|' -f1); do
  if ! grep -q "^$name(" "$work/unlinked"; then
    echo "stale exception: $name is linked by a program or no longer defined"
    count=$((count + 1))
  fi
done

if [ "$count" -ne 0 ]; then
  echo "check_reachable: $count src/ function(s) linked by no program;" \
       "delete them, move test-only code to tests/, or declare an exception"
  exit 1
fi
echo "check_reachable: every src/ function is linked by a program"
