#!/usr/bin/env bash
# clang-tidy runner for the FlyMon tree.
#
#   scripts/lint.sh                 lint every .cpp under src/ and tools/
#   scripts/lint.sh src/verify      lint one subtree
#   scripts/lint.sh --changed REF   lint only files changed vs. git REF
#                                   (default origin/main; used by CI)
#   scripts/lint.sh --lock-order    only the two toolchain-free lints below
#   scripts/lint.sh --test-only     (either flag runs both; CI names each)
#
# Every mode starts with two lints that need no toolchain, so they gate
# even where clang-tidy is unavailable:
#   - the lock-order declaration lint: the static FLYMON_DECLARE_LOCK_ORDER
#     facts must be acyclic and must name capabilities that actually exist
#     in the tree (a typo'd name silently exempts its lock from the concur
#     analyzer);
#   - the test-only symbol lint (scripts/test_only_lint.py): no public
#     function or class declared in src/ may have tests/ as its only
#     callers, apart from a short allowlist of referees, ground truth and
#     test hooks.
#
# clang-tidy requires a compile database: configure with
#   cmake --preset default -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
# Exits 0 with a notice when clang-tidy is not installed (the container
# image for this repo does not ship it), so that part degrades to a
# no-op instead of failing builds that cannot run it.
set -euo pipefail

cd "$(dirname "$0")/.."

lock_order_lint() {
  python3 - <<'EOF'
import re, subprocess, sys

DECL = re.compile(
    r'FLYMON_DECLARE_LOCK_ORDER\(\s*"([^"]+)"\s*,\s*"([^"]+)"\s*\)')
files = subprocess.run(
    ["git", "ls-files", "src", "tools"],
    capture_output=True, text=True, check=True).stdout.split()
rules, corpus = [], {}
for path in files:
    if not path.endswith((".cpp", ".hpp")):
        continue
    text = open(path, encoding="utf-8", errors="replace").read()
    corpus[path] = text
    for m in DECL.finditer(text):
        rules.append((m.group(1), m.group(2), path))

errors = []
# Each declared capability name must occur as a string literal somewhere
# OUTSIDE declaration sites — the mutex construction / witness call that
# makes the name real.  A name that only exists inside declarations is a
# typo or a leftover from a removed lock.
for name in sorted({n for r in rules for n in r[:2]}):
    lit = '"%s"' % name
    if not any(lit in DECL.sub("", text) for text in corpus.values()):
        errors.append(
            f"lock-order: capability '{name}' is declared but never "
            f"names a mutex anywhere in src/ or tools/")

# The declared order must itself be acyclic: a cycle in the DECLARED facts
# means no acquisition order can satisfy them all.
adj = {}
for earlier, later, _ in rules:
    adj.setdefault(earlier, set()).add(later)
    adj.setdefault(later, set())
WHITE, GRAY, BLACK = 0, 1, 2
color = {n: WHITE for n in adj}
def dfs(n, path):
    color[n] = GRAY
    path.append(n)
    for m in sorted(adj[n]):
        if color[m] == GRAY:
            cyc = path[path.index(m):] + [m]
            errors.append("lock-order: declared facts form a cycle: "
                          + " -> ".join(cyc))
        elif color[m] == WHITE:
            dfs(m, path)
    path.pop()
    color[n] = BLACK
for n in sorted(adj):
    if color[n] == WHITE:
        dfs(n, [])

for e in errors:
    print(e, file=sys.stderr)
print(f"lock-order lint: {len(rules)} declared fact(s), "
      f"{len(adj)} capability node(s), {len(errors)} error(s)")
sys.exit(1 if errors else 0)
EOF
}

lock_order_lint
python3 scripts/test_only_lint.py
if [ "${1:-}" = "--lock-order" ] || [ "${1:-}" = "--test-only" ]; then
  exit 0
fi

TIDY="${CLANG_TIDY:-clang-tidy}"
if ! command -v "$TIDY" >/dev/null 2>&1; then
  echo "lint.sh: $TIDY not found; skipping lint (install clang-tidy to enable)"
  exit 0
fi

BUILD_DIR="${BUILD_DIR:-build}"
if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
  echo "lint.sh: $BUILD_DIR/compile_commands.json missing;" \
       "configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON" >&2
  exit 1
fi

declare -a files=()
if [ "${1:-}" = "--changed" ]; then
  ref="${2:-origin/main}"
  while IFS= read -r f; do
    case "$f" in
      src/*.cpp|tools/*.cpp|tests/*.cpp) [ -f "$f" ] && files+=("$f") ;;
      src/*.hpp|tools/*.hpp|tests/*.hpp)
        # Headers are not translation units: lint every .cpp that includes
        # the changed header (HeaderFilterRegex surfaces its diagnostics).
        [ -f "$f" ] || continue
        inc="${f#src/}"
        while IFS= read -r tu; do
          files+=("$tu")
        done < <(grep -rlF --include='*.cpp' "\"$inc\"" src tools tests || true)
        ;;
    esac
  done < <(git diff --name-only --diff-filter=d "$ref"...HEAD)
  if [ "${#files[@]}" -gt 0 ]; then
    mapfile -t files < <(printf '%s\n' "${files[@]}" | sort -u)
  fi
  if [ "${#files[@]}" -eq 0 ]; then
    echo "lint.sh: no changed C++ sources vs $ref"
    exit 0
  fi
else
  scope="${1:-}"
  if [ -n "$scope" ]; then
    mapfile -t files < <(find "$scope" -name '*.cpp' | sort)
  else
    mapfile -t files < <(find src tools -name '*.cpp' | sort)
  fi
fi

echo "lint.sh: clang-tidy over ${#files[@]} file(s)"
"$TIDY" -p "$BUILD_DIR" --quiet "${files[@]}"
