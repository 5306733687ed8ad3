#!/usr/bin/env bash
# Line coverage of src/ under the tier-1 tests, measured with gcov.
#
#   tools/coverage.sh [build-dir] [src-file ...]
#
# Builds the repository with --coverage (Debug, -O0) into build-dir
# (default build-cov), runs `ctest -L tier1`, and prints one line per
# source file under src/: lines executed, lines instrumented, percentage,
# lowest coverage first. A header's lines count as executed when any
# translation unit that includes it executed them.
#
# For every src-file named (a path relative to the repository root, e.g.
# src/op2/lazy.cpp or src/runtime/include/apl/chain.hpp) it also lists the
# functions defined there that no tier-1 test reached — the candidates to
# delete or to cover with a test — and the line ranges no test executed.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build-cov"
if [[ $# -gt 0 && "$1" != src/* ]]; then
  build="$1"
  shift
fi

cmake -S "$repo" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
      -DCMAKE_CXX_FLAGS="--coverage" -DCMAKE_EXE_LINKER_FLAGS="--coverage"
cmake --build "$build" -j "$(nproc)"
find "$build" -name '*.gcda' -delete
ctest --test-dir "$build" -L tier1 -j "$(nproc)" > "$build/coverage-ctest.log"

# One gcov JSON document per object file (library and test binaries alike:
# tests instantiate the header templates), restricted to sources under src/
# and aggregated per line (executed when any translation unit executed it)
# and per function (by file and first line).
json_dir="$build/coverage-json"
rm -rf "$json_dir"
mkdir -p "$json_dir"
find "$build" -name '*.gcda' | while read -r gcda; do
  out="$json_dir/$(echo "${gcda#"$build"/}" | tr '/' '_').json"
  (cd "$(dirname "$gcda")" && gcov --json-format --stdout "$gcda" \
     2> /dev/null) > "$out" || true
done

python3 - "$repo" "$json_dir" "$@" <<'EOF'
import json, os, sys

repo, json_dir, wanted = sys.argv[1], sys.argv[2], sys.argv[3:]
src = os.path.join(repo, "src") + os.sep
lines = {}  # path -> {line: executed?}
funcs = {}  # path -> {(start_line, name): executed?}

for name in os.listdir(json_dir):
    with open(os.path.join(json_dir, name)) as f:
        for doc in f:
            doc = doc.strip()
            if not doc:
                continue
            data = json.loads(doc)
            cwd = data.get("current_working_directory", "")
            for fe in data.get("files", []):
                path = os.path.normpath(os.path.join(cwd, fe["file"]))
                if not path.startswith(src):
                    continue
                rel = os.path.relpath(path, repo)
                ls = lines.setdefault(rel, {})
                for ln in fe.get("lines", []):
                    n = ln["line_number"]
                    ls[n] = ls.get(n, False) or ln["count"] > 0
                fs = funcs.setdefault(rel, {})
                for fn in fe.get("functions", []):
                    key = (fn["start_line"], fn.get("demangled_name", fn["name"]))
                    fs[key] = fs.get(key, False) or fn["execution_count"] > 0

rows = []
for rel, ls in lines.items():
    total = len(ls)
    hit = sum(1 for v in ls.values() if v)
    rows.append((hit / total if total else 1.0, hit, total, rel))
for pct, hit, total, rel in sorted(rows):
    print(f"{hit:6d} {total:6d} {100 * pct:6.1f}%  {rel}")
hit = sum(r[1] for r in rows)
total = sum(r[2] for r in rows)
print(f"{hit:6d} {total:6d} {100 * hit / max(total, 1):6.1f}%  src/ (total)")

for rel in wanted:
    if rel not in funcs:
        print(f"\n{rel}: no coverage data (not compiled into src/?)")
        continue
    # A function (keyed by its first line) counts as reached when any
    # instantiation of it ran.
    by_line = {}
    for (start, name), ran in funcs[rel].items():
        by_line.setdefault(start, [name, False])
        by_line[start][1] = by_line[start][1] or ran
    dead = [(s, n) for s, (n, ran) in sorted(by_line.items()) if not ran]
    print(f"\n{rel}: {len(dead)} function(s) no tier-1 test reaches")
    for s, n in dead:
        print(f"  {rel}:{s}  {n}")
    missed = sorted(n for n, ran in lines[rel].items() if not ran)
    ranges = []
    for n in missed:
        if ranges and n == ranges[-1][1] + 1:
            ranges[-1][1] = n
        else:
            ranges.append([n, n])
    print(f"{rel}: {len(missed)} line(s) no tier-1 test executes: " +
          (", ".join(str(a) if a == b else f"{a}-{b}" for a, b in ranges)
           or "none"))
EOF
