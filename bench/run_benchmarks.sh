#!/usr/bin/env bash
# Builds the micro benchmarks in Release and runs them with JSON output,
# writing the merged results to BENCH_<date>.json at the repo root.
#
# Usage: bench/run_benchmarks.sh [--json OUT [NAME...]] [benchmark_filter]
#
#   bench/run_benchmarks.sh                 # run everything
#   bench/run_benchmarks.sh 'BM_Reduce.*'   # only the reduce benches
#   bench/run_benchmarks.sh 'BM_EngineFaultRecovery.*'
#                                           # retry amplification under
#                                           # seeded fault plans (regimes:
#                                           # no plan / empty / light / heavy)
#   bench/run_benchmarks.sh --json OUT [NAME...]
#                                           # run the paper's tables and
#                                           # ablations (bench/paper_tables;
#                                           # NAMEs pick specs, e.g. table2,
#                                           # none runs all) and write one
#                                           # self-describing row per run to
#                                           # OUT (see paper_tables.cc).
#                                           # MWSJ_BENCH_SCALE applies
#                                           # (e.g. =1.0 for the paper's
#                                           # full-size world). The document
#                                           # also records the checkout's
#                                           # git_sha and whether it was
#                                           # dirty. Compare two such files
#                                           # with tools/bench_diff.py.
#
# The build directory (build-bench) is kept between runs for fast
# re-measurement. Compare two JSON files across commits to spot
# regressions; EXPERIMENTS.md records the interpretation of each bench.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-bench"

if [[ "${1:-}" == "--json" ]]; then
  [[ $# -ge 2 ]] || { echo "usage: $0 --json OUT [NAME...]" >&2; exit 2; }
  OUT="$2"
  [[ "$OUT" == /* ]] || OUT="$PWD/$OUT"
  shift 2
  TABLES=(paper_tables)
  cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD" -j"$(nproc)" --target "${TABLES[@]}"
  TMP="$(mktemp -d)"
  trap 'rm -rf "$TMP"' EXIT
  SECONDS=0
  rc=0
  MWSJ_BENCH_JSON="$TMP/rows.jsonl" "$BUILD/bench/paper_tables" "$@" \
    | tee "$TMP/stdout.txt" || rc=$?
  GIT_SHA="$(git -C "$ROOT" rev-parse HEAD 2>/dev/null || echo unknown)"
  DIRTY="$(git -C "$ROOT" status --porcelain 2>/dev/null | head -c1)"
  python3 - "$OUT" "$TMP/rows.jsonl" "$TMP/stdout.txt" "$SECONDS" \
    "$GIT_SHA" "$DIRTY" <<'EOF'
import json, os, re, sys
out, rows_path, stdout_path, seconds, git_sha, dirty = sys.argv[1:]
rows = [json.loads(line) for line in open(rows_path) if line.strip()]
claims, spec = [], None
for line in open(stdout_path):
    header = re.search(r"\[(\w+)\]$", line.rstrip())
    if header:
        spec = header.group(1)
    elif line.startswith(("  PASS", "  FAIL")):
        claims.append({"spec": spec, "result": line.split()[0],
                       "claim": line[6:].strip()})
doc = {
    "git_sha": git_sha,
    "dirty": dirty != "",
    "bench_scale": os.environ.get("MWSJ_BENCH_SCALE", ""),
    "shuffle_budget": os.environ.get("MWSJ_SHUFFLE_BUDGET", ""),
    "wall_seconds": int(seconds),
    "claims": claims,
    "rows": rows,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
EOF
  echo "wrote $OUT"
  exit "$rc"
fi

FILTER="${1:-.}"
BENCHES=(micro_engine micro_knn micro_localjoin micro_marking micro_geometry
         micro_transforms)

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD" -j"$(nproc)" --target "${BENCHES[@]}"

OUT="$ROOT/BENCH_$(date +%Y-%m-%d).json"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
for bench in "${BENCHES[@]}"; do
  echo "== $bench =="
  "$BUILD/bench/$bench" --benchmark_filter="$FILTER" \
    --benchmark_format=json > "$TMP/$bench.json"
done

python3 - "$OUT" "$TMP" <<'EOF'
import json, pathlib, sys
out, tmp = sys.argv[1], pathlib.Path(sys.argv[2])
merged = {}
for p in sorted(tmp.glob("*.json")):
    text = p.read_text()
    if not text.strip():
        # A filter matching none of this binary's benchmarks yields empty
        # output (and exit 0) from google-benchmark; skip it.
        continue
    merged[p.stem] = json.loads(text)
pathlib.Path(out).write_text(json.dumps(merged, indent=2) + "\n")
EOF
echo "wrote $OUT"
