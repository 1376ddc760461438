#!/usr/bin/env python3
"""The mwsj benchmark: one command, three workloads, a traced run per layer.

Run from the root of the repository:

    python3 perfbench/run.py --workload crep_dense --seed 1 --seconds 15 --trace 0

It builds perfbench/mwsj_perfbench (Release, into .bench_build/perfbench),
runs one workload for --seconds, checks every job's output against an
independent computation, and prints as its last stdout line one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. Details of every run, and
the traced run's Chrome trace, go to .bench_out/<workload>-seed<N>-trace<T>/.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "mwsj_perfbench")

WORKLOADS = ("crep_dense", "allrep_spill", "service_mix")
DEFAULT_SEED = 1
# Each of these would silently change what a workload measures.
REFUSED_ENV = ("MWSJ_SHUFFLE_BUDGET", "MWSJ_SIMD", "MWSJ_BENCH_SCALE")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

SELF_TIME_LAYERS = ("core", "mapreduce", "localjoin", "grid")
# MR jobs that are the marking round / the join round of a query. A
# single-round All-Replicate job counts as its join round.
ROUND1_JOBS = ("crep_round1_mark",)
ROUND2_JOBS = ("crep_round2_join", "crepl_round2_join", "all_replicate")


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and run
# ---------------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("mwsj sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "mwsj_perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))


def run_driver(args, out_dir):
    raw_path = os.path.join(out_dir, "raw.json")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", raw_path, "--trace-dir", out_dir]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError("driver timed out") from e
    if done.returncode != 0:
        raise BenchError("driver exited with %d" % done.returncode)
    with open(raw_path) as f:
        return json.load(f)


def commit():
    """The checked-out commit, when the checkout is a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "unknown"


# ---------------------------------------------------------------------------
# Statistics over job records
# ---------------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty sample."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def ok_jobs(jobs):
    return [j for j in jobs if j["ok"]]


def mr_sum(job, field):
    return sum(m[field] for m in job["mr"])


def mr_max(job, field):
    return max((m[field] for m in job["mr"]), default=0)


def counter(job, name):
    return sum(m["counters"].get(name, 0) for m in job["mr"])


def per_kind_median(jobs, value):
    """Median of value(job) per query kind, as {kind: median}."""
    by_kind = {}
    for j in jobs:
        by_kind.setdefault(j["kind"], []).append(value(j))
    return {k: median(v) for k, v in by_kind.items()}


def reduce_skew(job):
    """max / mean reducer busy time of the job's heaviest reduce phase."""
    heaviest = max(job["mr"], key=lambda m: m["reduce_busy_s"], default=None)
    if heaviest is None or heaviest["reduce_busy_s"] <= 0:
        return 0.0
    mean = heaviest["reduce_busy_s"] / max(1, heaviest["reducers"])
    return heaviest["reduce_max_task_s"] / mean


def round_wall(jobs, names):
    """Median wall of the MR jobs called one of `names`, over the queries
    that ran one."""
    walls = [sum(m["wall_s"] for m in j["mr"] if m["name"] in names)
             for j in jobs if any(m["name"] in names for m in j["mr"])]
    return median(walls)


def end_to_end(raw):
    loop = raw["loops"][0]
    jobs = loop["jobs"]
    done = ok_jobs(jobs)
    if not done:
        raise BenchError("no job completed")
    latency = [j["latency_s"] for j in jobs]
    # Per query kind first, so a mix's median does not depend on how many
    # jobs of each kind happened to fit in the run.
    typical = per_kind_median(jobs, lambda j: j["latency_s"])
    shuffle = per_kind_median(done, lambda j: mr_sum(j, "intermediate_bytes"))
    return {
        "job_s": (statistics.fmean(typical.values()), "s"),
        "job_s_p90": (quantile(latency, 0.9), "s"),
        "jobs_per_s": (len(jobs) / loop["wall_s"], "1/s"),
        "cpu_s": (loop["cpu_s"] / len(jobs), "s"),
        "peak_rss_mib": (loop["peak_rss_kib"] / 1024.0, "MiB"),
        "shuffle_bytes": (statistics.fmean(shuffle.values()), "B"),
        "setup_s": (median(raw["setup_s"]), "s"),
    }


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def read_spans(events):
    """Closed spans of one Chrome trace, with duration and self time (us)."""
    stacks, spans = {}, []
    for e in events:
        stack = stacks.setdefault(e["tid"], [])
        if e["ph"] == "B":
            stack.append({"name": e["name"], "cat": e.get("cat", ""),
                          "ts": e["ts"], "children": 0.0})
        elif e["ph"] == "E" and stack:
            span = stack.pop()
            span["dur"] = e["ts"] - span["ts"]
            span["self"] = span["dur"] - span["children"]
            span["args"] = e.get("args", {})
            if stack:
                stack[-1]["children"] += span["dur"]
            spans.append(span)
    return spans


def layer_of(span):
    """Benchmark spans are named <layer>.<operation>; program spans map by
    category and name."""
    name, cat = span["name"], span["cat"]
    if cat == "bench":
        return name.split(".", 1)[0]
    if cat in ("job", "phase"):
        return "mapreduce"
    if cat == "task":
        return "localjoin" if name == "local_join" else "mapreduce"
    if name == "grid_build":
        return "grid"
    if name.startswith("knn"):
        return "queries"
    return "core"  # run, algorithm and stage spans


def self_time_by_layer(spans):
    out = {}
    for s in spans:
        layer = layer_of(s)
        out[layer] = out.get(layer, 0.0) + s["self"] * 1e-6
    return out


def merge_traces(raw, out_dir):
    """Writes the traced run's parts as one Chrome trace, one pid per part,
    and returns {part: spans}."""
    merged, spans = [], {}
    for pid, part in enumerate(raw["traces"], start=1):
        with open(part["path"]) as f:
            events = json.load(f)["traceEvents"]
        spans[part["name"]] = read_spans(events)
        merged.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": part["name"]}})
        for e in events:
            e["pid"] = pid
            e["ts"] = round(e["ts"] + part["offset_s"] * 1e6, 3)
            merged.append(e)
        os.remove(part["path"])
    with open(os.path.join(out_dir, "trace.json"), "w") as f:
        json.dump({"traceEvents": merged, "displayTimeUnit": "ms"}, f)
    return spans


def enumeration(spans):
    """(tuples enumerated, enumerated / owned) medians from the existing
    dedup span args, or None when the program no longer records them."""
    checks, waste = [], []
    for s in spans:
        args = s["args"]
        if "dedup_tuple_checks" in args and "dedup_owned" in args:
            checks.append(args["dedup_tuple_checks"])
            if args["dedup_owned"] > 0:
                waste.append(args["dedup_tuple_checks"] / args["dedup_owned"])
    if not checks:
        return None
    return median(checks), median(waste)


def per_layer(raw, spans):
    untraced, traced = raw["loops"]
    jobs = ok_jobs(traced["jobs"])
    if not jobs:
        raise BenchError("no traced job completed")
    meta, probes = raw["meta"], raw["probes"]
    inputs = 3 * meta["rects_per_relation"]
    m, absent = {}, {}

    def put(name, value, unit):
        m[name] = (value, unit)

    def med(fn, sample=jobs):
        return median([fn(j) for j in sample])

    put("datagen.generate_s", median(raw["generate_s"]), "s")
    put("grid.build_s", probes["grid_build_s"], "s")
    put("grid.transform_s", probes["grid_transform_s"], "s")
    replicated = [j for j in jobs
                  if any("rectangles_after_replication" in x["counters"]
                         for x in j["mr"])]
    put("grid.copies_per_rect",
        med(lambda j: counter(j, "rectangles_after_replication") / inputs,
            replicated), "ratio")
    put("grid.marked_frac",
        med(lambda j: counter(j, "rectangles_replicated") / inputs,
            replicated), "ratio")

    put("mapreduce.jobs", med(lambda j: len(j["mr"])), "count")
    put("mapreduce.map_s", med(lambda j: mr_sum(j, "map_s")), "s")
    put("mapreduce.shuffle_s", med(lambda j: mr_sum(j, "shuffle_s")), "s")
    put("mapreduce.reduce_s", med(lambda j: mr_sum(j, "reduce_s")), "s")
    put("mapreduce.unaccounted_s",
        med(lambda j: mr_sum(j, "wall_s") - mr_sum(j, "map_s")
            - mr_sum(j, "shuffle_s") - mr_sum(j, "reduce_s")), "s")
    put("mapreduce.map_busy_s", med(lambda j: mr_sum(j, "map_busy_s")), "s")
    put("mapreduce.reduce_busy_s",
        med(lambda j: mr_sum(j, "reduce_busy_s")), "s")
    put("mapreduce.reduce_max_task_s",
        med(lambda j: mr_max(j, "reduce_max_task_s")), "s")
    put("mapreduce.reduce_skew", med(reduce_skew), "ratio")
    parallel = per_kind_median(jobs, lambda j: mr_sum(j, "reduce_busy_s"))
    serial = per_kind_median(ok_jobs(raw["serial"]),
                             lambda j: mr_sum(j, "reduce_busy_s"))
    kinds = [k for k in parallel if serial.get(k, 0) > 0]
    put("mapreduce.reduce_busy_inflation",
        sum(parallel[k] for k in kinds) / sum(serial[k] for k in kinds)
        if kinds else 0.0, "ratio")
    put("mapreduce.intermediate_records",
        med(lambda j: mr_sum(j, "intermediate_records")), "count")
    put("mapreduce.spill_runs", med(lambda j: mr_sum(j, "spill_runs")),
        "count")
    stored = sum(mr_sum(j, "spill_stored_bytes") for j in jobs)
    put("mapreduce.spill_ratio",
        sum(mr_sum(j, "spill_raw_bytes") for j in jobs) / stored
        if stored else 0.0, "ratio")
    put("mapreduce.peak_inbox_bytes",
        med(lambda j: mr_max(j, "peak_inbox_bytes")), "B")
    put("mapreduce.merge_runs_max",
        med(lambda j: mr_max(j, "merge_runs_max")), "count")
    if meta["shuffle_budget"] <= 0:
        for name in ("spill_runs", "spill_ratio", "peak_inbox_bytes",
                     "merge_runs_max"):
            absent["mapreduce." + name] = "unbounded shuffle: nothing spills"

    put("localjoin.build_s", probes["localjoin_build_s"], "s")
    put("localjoin.execute_s", probes["localjoin_execute_s"], "s")
    put("localjoin.ns_per_tuple",
        (probes["localjoin_build_s"] + probes["localjoin_execute_s"]) * 1e9
        / max(1, probes["localjoin_tuples"]), "ns")

    put("core.algorithm_s", probes["algorithm_s"], "s")
    # service_mix's timed jobs reuse round 1; its cold one-in-flight pass
    # runs it.
    round_jobs = jobs + ok_jobs(raw["enum_pass"])
    put("core.round1_s", round_wall(round_jobs, ROUND1_JOBS), "s")
    put("core.round2_s", round_wall(round_jobs, ROUND2_JOBS), "s")
    if not any(x["name"] in ROUND1_JOBS for j in round_jobs for x in j["mr"]):
        absent["core.round1_s"] = "no marking round in this workload"
    put("core.postprocess_s",
        probes["algorithm_s"] - probes["algorithm_job_wall_s"], "s")
    enum_spans = spans["enum"] if "enum" in spans else spans["loop"]
    counts = enumeration(enum_spans)
    if counts is None:
        # Reported as missing rather than zero (see README.md).
        absent["core.tuples_enumerated"] = "dedup span args not recorded"
        absent["core.enum_waste"] = "dedup span args not recorded"
    else:
        put("core.tuples_enumerated", counts[0], "count")
        put("core.enum_waste", counts[1], "ratio")
    put("core.queue_wait_s",
        med(lambda j: j["latency_s"] - j["total_wall_s"]), "s")
    lookups = sum(j["catalog_hits"] + j["catalog_misses"] for j in jobs)
    put("core.catalog_hit_rate",
        sum(j["catalog_hits"] for j in jobs) / lookups if lookups else 0.0,
        "ratio")
    if not lookups:
        absent["core.catalog_hit_rate"] = "no catalog in this workload"

    knn = [j for j in jobs if j["kind"] == "knn_mr"] or ok_jobs(
        raw["knn_probe"])
    put("queries.knn_s", med(lambda j: j["total_wall_s"], knn), "s")
    points = sum(counter(j, "knn_points") for j in knn)
    put("queries.knn_candidates_per_point",
        sum(counter(j, "knn_candidates") for j in knn) / points
        if points else 0.0, "ratio")

    put("trace_overhead_s",
        median([j["latency_s"] for j in traced["jobs"]])
        - median([j["latency_s"] for j in untraced["jobs"]]), "s")
    self_s = self_time_by_layer(spans["loop"])
    for layer in SELF_TIME_LAYERS:
        put("self.%s_s" % layer, self_s.get(layer, 0.0) / len(jobs), "s")
    return m, absent, {k: v / len(jobs) for k, v in self_s.items()}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 1 or args.seconds < 1:
        parser.error("--seed and --seconds must be positive")
    refused = [v for v in REFUSED_ENV if v in os.environ]
    if refused:
        log("refusing to run: %s set; it would change the workload"
            % ", ".join(refused))
        return 2

    try:
        build()
        out_dir = os.path.join(OUT_ROOT, "%s-seed%d-trace%d"
                               % (args.workload, args.seed, args.trace))
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        raw = run_driver(args, out_dir)
        absent, self_s = {}, {}
        if args.trace:
            spans = merge_traces(raw, out_dir)
            metrics, absent, self_s = per_layer(raw, spans)
        else:
            metrics = end_to_end(raw)
    except (BenchError, OSError, KeyError, ValueError,
            subprocess.SubprocessError) as e:
        log("benchmark failed: %s" % e)
        return 1

    attempted, failed = raw["attempted"], raw["failed"]
    oracles_ok = all(o["ok"] for o in raw["oracles"])
    row = dict(raw["meta"], commit=commit(), attempted=attempted,
               failed=failed, error_rate=failed / max(1, attempted),
               oracles=raw["oracles"], absent=absent, self_time_s=self_s,
               metrics={k: v for k, (v, _) in metrics.items()})
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump(row, f, indent=1)
    for name, (value, unit) in metrics.items():
        log("%-36s %14.6g %s%s" % (name, value, unit,
                                   "  (absent: %s)" % absent[name]
                                   if name in absent else ""))
    for name, why in absent.items():
        if name not in metrics:
            log("%-36s %14s     (missing: %s)" % (name, "-", why))
    print(json.dumps({k: row[k] for k in
                      ("workload", "seed", "nproc", "pool_threads", "isa",
                       "build_type", "commit", "error_rate")}))
    print(json.dumps({
        "correct": oracles_ok and failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
