#!/usr/bin/env python3
"""Lines up two paper_tables row files and compares them run by run.

Usage: tools/bench_diff.py A B

A and B are either the JSON-lines file paper_tables appends to
(MWSJ_BENCH_JSON) or the document bench/run_benchmarks.sh --json writes
({"rows": [...]}). Rows are matched by (spec, variant, parameter value);
for each pair the script prints B's wall, CPU and modeled seconds as a
ratio of A's and flags every count that changed. Above the table it prints
each file's git SHA (and a dirty mark) from a run_benchmarks.sh document;
a JSON-lines file carries none. A row present on one side
only is flagged too. When a file repeats a key, its last row is used.

Exit status: 0 when no count changed, 1 when any was flagged, 2 on a usage
or input error.
"""

import json
import sys

COUNTS = ("output_tuples", "communication_records", "communication_bytes",
          "rectangles_replicated", "replication_copies",
          "rectangles_after_replication")
TIMES = ("wall_seconds", "cpu_seconds", "modeled_seconds")


def load(path):
    with open(path) as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except ValueError:  # JSON lines (or empty).
        doc = [json.loads(line) for line in text.splitlines() if line.strip()]
    sha = "no git_sha"
    if isinstance(doc, dict):
        if "git_sha" in doc:
            sha = doc["git_sha"] + (" (dirty)" if doc.get("dirty") else "")
        doc = doc["rows"] if "rows" in doc else [doc]
    return index(doc, path), sha


def index(rows, path):
    keyed = {}
    for row in rows:
        try:
            keyed[(row["spec"], row["variant"], row["value"])] = row
        except KeyError as e:
            sys.exit(f"{path}: row without {e}: not a paper_tables row")
    return keyed


def ratio(a, b):
    return f"{b / a:.2f}" if a else "-"


def main(argv):
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        (a, sha_a), (b, sha_b) = load(argv[1]), load(argv[2])
    except (OSError, ValueError) as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2
    print(f"A: {argv[1]} @ {sha_a}")
    print(f"B: {argv[2]} @ {sha_b}")
    flagged = 0
    print(f"{'spec':<14} {'variant':<15} {'value':>9} "
          f"{'wall':>6} {'cpu':>6} {'model':>6}  counts")
    for key in sorted(set(a) | set(b), key=str):
        spec, variant, value = key
        label = f"{spec:<14} {variant:<15} {value:>9g}"
        if key not in a or key not in b:
            flagged += 1
            print(f"{label}  only in {'B' if key not in a else 'A'}")
            continue
        ra, rb = a[key], b[key]
        changed = [f"{c} {ra.get(c)} -> {rb.get(c)}" for c in COUNTS
                   if ra.get(c) != rb.get(c)]
        flagged += bool(changed)
        times = " ".join(f"{ratio(ra.get(t, 0), rb.get(t, 0)):>6}"
                         for t in TIMES)
        print(f"{label} {times}  "
              f"{'CHANGED: ' + '; '.join(changed) if changed else 'same'}")
    print(f"{len(set(a) & set(b))} rows matched, {flagged} flagged "
          f"(times are B / A)")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
