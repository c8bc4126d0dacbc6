#!/bin/sh
# Fail when library code is reachable from no user path. Three stages:
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
# 3. Inline functions (no build needed): an inline or template function
#    defined in a src/**/*.hpp emits no `T` symbol, so stage 2 cannot see
#    it. Every such function's name must occur, outside its definition,
#    in some file under src/, bench/, examples/, tools/ or
#    perfbench/src/ (comments and string literals do not count). The
#    match is by name: a test-only accessor that shares its name with a
#    used one passes.
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

# -- stage 3: inline functions in headers ------------------------------

# Declared exceptions, one per line: header:name, then the reason.
inline_exceptions='runtime/budget.hpp:on_token|test seam: attaches a cancellation token; programs cancel through fork()'

python3 - "$root" "$inline_exceptions" <<'PY'
import os
import re
import sys

root = sys.argv[1]
EXCEPTIONS = dict(line.split("|", 1) for line in sys.argv[2].splitlines())
USER_DIRS = ["src", "bench", "examples", "tools", "perfbench/src"]
NOT_NAMES = {"if", "for", "while", "switch", "catch", "return", "sizeof",
             "decltype", "alignof", "alignas", "static_assert", "requires",
             "noexcept", "throw", "new", "delete", "typeid"}


def strip(text):
    """Blanks comments, string and char literals and preprocessor lines,
    keeping every newline so offsets map to the same lines."""
    out = []
    i, n = 0, len(text)
    at_line_start = True
    while i < n:
        c = text[i]
        if at_line_start and c == "#":
            j = i
            while True:
                j = text.find("\n", j)
                if j < 0 or text[j - 1] != "\\":
                    break
                j += 1
            j = n if j < 0 else j
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
            continue
        if not c.isspace():
            at_line_start = False
        if c == "\n":
            at_line_start = True
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c == '"' and i > 0 and text[i - 1] == "R":
            delim = text[i + 1:text.find("(", i)]
            j = text.find(")" + delim + '"', i)
            j = n if j < 0 else j + len(delim) + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c == "'" and i > 0 and text[i - 1].isalnum() and \
                i + 1 < n and text[i + 1].isalnum():
            out.append(" ")  # digit separator, as in 10'000
            i += 1
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(" " * (min(j, n - 1) - i + 1))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def drop_template_prefix(head):
    m = re.match(r"\s*template\s*<", head)
    if not m:
        return head
    depth, i = 1, m.end()
    while i < len(head) and depth:
        depth += {"<": 1, ">": -1}.get(head[i], 0)
        i += 1
    return drop_template_prefix(head[i:])


def defined_name(head):
    """The name a function definition head defines, or None; and whether
    the brace opens a namespace or class scope."""
    head = re.sub(r"\[\[.*?\]\]", " ", head)
    head = re.sub(r"\b(public|private|protected)\s*:", " ", head)
    head = drop_template_prefix(head).strip()
    if re.match(r"(namespace|extern)\b", head):
        return None, "scope"
    if re.match(r"(typedef\s+)?(class|struct|union|enum)\b", head):
        return None, "scope"
    angle = 0
    for i, c in enumerate(head):
        if c == "<":
            angle += 1
        elif c == ">":
            angle -= 1
        elif c == "=" and angle == 0:
            return None, "body"  # an initializer
        elif c == "(" and angle == 0:
            m = re.search(r"([A-Za-z_~][A-Za-z0-9_:~]*)\s*$", head[:i])
            if not m or "operator" in m.group(1):
                return None, "body"
            name = m.group(1).split("::")[-1]
            if name in NOT_NAMES or name.startswith("~"):
                return None, "body"
            return name, "body"
    return None, "body"


def inline_definitions(code):
    """(name, line) of every function body at namespace or class scope.
    A brace inside a head's parentheses (a `= {}` default argument)
    opens no body."""
    stack, head_start, parens, found = [], 0, 0, []
    for i, c in enumerate(code):
        nested = bool(stack) and stack[-1] in ("body", "arg")
        if c == "{":
            if nested:
                stack.append("body")
            elif parens > 0:
                stack.append("arg")
            else:
                name, kind = defined_name(code[head_start:i])
                stack.append(kind)
                if name:
                    found.append((name, code.count("\n", 0, i) + 1))
                head_start, parens = i + 1, 0
        elif c == "}":
            closed = stack.pop() if stack else "scope"
            if closed != "arg" and (not stack or stack[-1] == "scope"):
                head_start, parens = i + 1, 0
        elif nested:
            continue
        elif c == "(":
            parens += 1
        elif c == ")":
            parens -= 1
        elif c == ";":
            head_start, parens = i + 1, 0
    return found


sources = []
for top in USER_DIRS:
    for dirpath, _, files in os.walk(os.path.join(root, top)):
        for f in files:
            if f.endswith((".hpp", ".cpp", ".h", ".cc")):
                sources.append(os.path.join(dirpath, f))
words = {}
definitions = []
for path in sorted(sources):
    with open(path, encoding="utf-8") as fh:
        code = strip(fh.read())
    for w in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", code):
        words[w] = words.get(w, 0) + 1
    rel = os.path.relpath(path, root)
    if rel.startswith("src" + os.sep) and rel.endswith(".hpp"):
        definitions += [(name, rel, line)
                        for name, line in inline_definitions(code)]

defined = {}
for name, _, _ in definitions:
    defined[name] = defined.get(name, 0) + 1
unused = []
for name, rel, line in sorted(definitions, key=lambda d: (d[1], d[2])):
    if words.get(name, 0) > defined[name]:
        continue
    key = rel[len("src" + os.sep):] + ":" + name
    if key in EXCEPTIONS:
        print(f"allowed: {key} ({EXCEPTIONS.pop(key)})")
        continue
    print(f"unused inline: {rel}:{line}: {name} is named by no src/, "
          "bench/, examples/, tools/ or perfbench/src/ file outside its "
          "definition")
    unused.append(name)
for key in EXCEPTIONS:
    print(f"stale exception: {key} is used by a program or no longer "
          "defined")
    unused.append(key)
if unused:
    print(f"check_reachable: {len(unused)} inline function(s) in src/ "
          "headers used by no program; delete them or move them to tests/")
    sys.exit(1)
print(f"check_reachable: every inline function in src/ headers "
      f"({len(definitions)} definitions) is named by a user path")
PY
