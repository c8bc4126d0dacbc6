#!/bin/sh
# Fail when a size ceiling is written as a literal outside the size
# contract. Every ceiling on the size of an exponential step (2^n
# tables, 3^n pair scans, Bell(n) partitions, n! orders, excess rows,
# facilities) lives in src/core/limits.hpp, and every guard reads its
# entry. This lint flags any comparison, in src/ code outside that
# header, of a player, union or facility count with a numeric literal of
# 10 or more, e.g. `n > 24` or `facilities.size() <= 12`. Comments are
# skipped: a doc comment may state a number, though it should name the
# entry.
#
# Usage: tools/check_limits.sh
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$root"

# A count: n, m, num_players, num_facilities, num_unions, or a name
# ending in players, facilities, unions, members, sections or roster_,
# optionally called or asked for its size().
short='\b(n|m|num_players|num_facilities|num_unions)'
long='\b[A-Za-z_]*(players|facilities|unions|members|sections|roster_)'
count="($short|$long)(\\(\\))?(\\.size\\(\\))?"
cmp='(<=|>=|==|!=|<|>)'
literal='[1-9][0-9]+'
before="$count[[:space:]]*$cmp[[:space:]]*$literal\b"
after="\b$literal[[:space:]]*$cmp[[:space:]]*$count\b"
pattern="$before|$after"

hits=$(find src -name '*.hpp' -o -name '*.cpp' | sort \
  | grep -vxF src/core/limits.hpp \
  | xargs awk '
      { line = $0; sub(/\/\/.*/, "", line) }
      line ~ /[^[:space:]]/ { printf "%s:%d:%s\n", FILENAME, FNR, line }' \
  | grep -E "^[^:]*:[0-9]+:.*($pattern)" || true)

if [ -n "$hits" ]; then
  printf '%s\n' "$hits"
  echo "check_limits: size ceiling written as a literal; add or read an" \
       "entry of src/core/limits.hpp"
  exit 1
fi
echo "check_limits: every size ceiling reads src/core/limits.hpp"
