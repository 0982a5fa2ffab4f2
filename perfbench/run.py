#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--metric NAME ...]

Run from the root of the repository. The script builds perfbench/bench.exe
with dune, then starts one fresh process per repetition, each running the
workload's fixed virtual window, until --seconds of host time are spent
(at least three repetitions). Virtual results and allocation counts must
repeat exactly across repetitions; host times are reported as medians.

--trace 0 prints the end-to-end metrics; --trace 1 pairs untraced and
traced repetitions and prints the per-layer metrics, the span table and the
tracing overhead. Metric names, units and workloads come from
BENCHMARK.json. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Any failed output check
exits 1; bad arguments or a missing repository exit 2.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
MIN_REPS = 3
REP_TIMEOUT = 170

# Host-time metrics, reported as medians over repetitions. The end-to-end
# ones are scaled by each repetition's reference clock (refclock.ml).
# Everything else a repetition reports must repeat exactly for a seed.
HOST_E2E = ("setup_s", "sim_ops_per_s")
HOST_LAYERS = (
    "crypto.sha256_ns_per_byte",
    "codec.decode_us_per_msg",
    "codec.encode_us_per_msg",
    "relsql.exec_us_per_call",
    "relsql.solo_us_per_op",
    "gc.minor_ms_per_kop",
    "gc.major_ms_per_kop",
    "trace.lost_gc_events",
)
TABLE1_ROW = "table1:sta_mac_allbig_batch"


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def load_definitions():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json in the current directory: %s" % e)


def parse_args(defs):
    workloads = [w["name"] for w in defs["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--metric", action="append", default=[],
                   help="print only these metrics (repeatable)")
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    known = {m["name"] for m in defs["end_to_end"] + defs["per_layer"]}
    for m in args.metric:
        if m not in known:
            p.error("unknown metric %r" % m)
    return args


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("no %s here: run from the root of the repository" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                       env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("build failed", 1)


def rep(env, args):
    """One repetition in a fresh process; returns (report, host seconds)."""
    t0 = time.monotonic()
    r = subprocess.run([BENCH] + args, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=REP_TIMEOUT)
    dt = time.monotonic() - t0
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail("bench.exe %s exited %d" % (" ".join(args), r.returncode), 1)
    return json.loads(r.stdout.strip().splitlines()[-1]), dt


class Checks:
    def __init__(self):
        self.failed = []

    def add(self, name, ok, detail=""):
        if not ok:
            self.failed.append("%s: %s" % (name, detail))


def same(reports, key, checks, what):
    """Values under report[key] must repeat exactly across repetitions."""
    first = reports[0][key]
    for r in reports[1:]:
        diff = sorted(k for k in set(first) | set(r[key]) if first.get(k) != r[key].get(k))
        checks.add("repeat_" + what, not diff, "differs across repetitions: %s" % diff)
    return first


def run_reps(env, argv, seconds, checks):
    """Fresh-process repetitions until [seconds] are spent (>= MIN_REPS)."""
    reports, t0, last = [], time.monotonic(), 0.0
    while len(reports) < MIN_REPS or time.monotonic() - t0 + last <= seconds:
        r, last = rep(env, argv)
        reports.append(r)
    for r in reports:
        for c in r["checks"]:
            checks.add(c["name"], c["ok"], c["detail"])
    return reports


def table1_check(env, checks):
    """Seed 1 of null_closed must reproduce BENCH.json's Table-1 default row."""
    with open("BENCH.json") as f:
        pinned = json.load(f)
    row = next(w for w in pinned["workloads"] if w["name"] == TABLE1_ROW)
    got, _ = rep(env, ["--table1-check"])
    for key, want in (("vtps", row["virtual_tps"]), ("completed", row["completed"]),
                      ("trace_digest", pinned["trace_digest"])):
        checks.add("table1_" + key, got[key] == want, "got %s, BENCH.json has %s" % (got[key], want))
    print("table-1 default row: vtps %s, %s completed, trace digest %s..."
          % (got["vtps"], got["completed"], got["trace_digest"][:8]))


def print_account(reports):
    a = reports[0]["account"]
    v = reports[0]["virtual"]
    print("failed_frac = %d / %d = %.6g (shed %d, unanswered after drain %d); served_frac = %.6g"
          % (a["failed"], a["attempted"], a["failed_frac"], a["shed"], a["outstanding"],
             1.0 - a["failed_frac"]))
    n = int(v["p99_samples"])
    print("latency percentiles over %d answered requests (p99 has %d beyond it)"
          % (n, n - math.ceil(0.99 * n)))


def print_spans(report):
    print("%-24s %8s %12s %12s" % ("span", "count", "total_ms", "self_ms"))
    for s in report["spans"]:
        print("%-24s %8d %12.3f %12.3f" % (s["name"], s["count"], s["total_ms"], s["self_ms"]))


def main():
    # On SIGTERM unwind normally: the running repetition is killed and
    # waited for, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    defs = load_definitions()
    args = parse_args(defs)
    build()
    checks = Checks()
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd())
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=scratch)
    try:
        if args.trace == 0:
            reports = run_reps(env, base, args.seconds, checks)
            same(reports, "virtual", checks, "virtual")
            exact = {k: v for k, v in reports[0]["e2e"].items() if k not in HOST_E2E}
            for r in reports[1:]:
                checks.add("repeat_alloc_heap",
                           all(r["e2e"][k] == v for k, v in exact.items()),
                           "alloc/heap differ across repetitions")
            values = dict(exact)
            for k in HOST_E2E:
                values[k] = statistics.median(r["e2e"][k] for r in reports)
            wanted = defs["end_to_end"]
            if args.workload == "null_closed" and args.seed == 1:
                table1_check(env, checks)
            print("%d repetitions of %s, seed %d" % (len(reports), args.workload, args.seed))
            for k in HOST_E2E:
                print("%s per repetition: %s" % (k, " ".join("%.6g" % r["e2e"][k] for r in reports)))
            print("host slowdown per repetition: %s"
                  % " ".join("%.4g" % r["slowdown"] for r in reports))
        else:
            plain, traced = [], []
            t0, pair = time.monotonic(), 0.0
            while not plain or time.monotonic() - t0 + pair <= args.seconds:
                p0 = time.monotonic()
                plain.append(rep(env, base)[0])
                traced.append(rep(env, base + ["--trace"])[0])
                pair = time.monotonic() - p0
            for r in plain + traced:
                for c in r["checks"]:
                    checks.add(c["name"], c["ok"], c["detail"])
            # The traced run must reproduce the untraced virtual metrics.
            same(plain + traced, "virtual", checks, "virtual_traced_vs_untraced")
            # Counts come from the untraced runs, where the tracer's own
            # work cannot inflate them; host times are traced medians.
            values = same(plain, "layers", checks, "layer_counts")
            for k in HOST_LAYERS:
                values[k] = statistics.median(r["layers"][k] for r in traced)
            tapped = [k for k in traced[0]["layers"] if k not in values]
            for r in traced[1:]:
                diff = [k for k in tapped if r["layers"][k] != traced[0]["layers"][k]]
                checks.add("repeat_traced_counts", not diff, str(diff))
            for k in tapped:
                values[k] = traced[0]["layers"][k]
            cpu_plain = statistics.median(r["run_cpu_s"] for r in plain)
            cpu_traced = statistics.median(r["run_cpu_s"] for r in traced)
            values["trace.overhead_frac"] = cpu_traced / cpu_plain - 1.0 if cpu_plain else 0.0
            sha_s_per_op = values["crypto.sha256_bytes_per_op"] * values["crypto.sha256_ns_per_byte"] * 1e-9
            # Hashing rate and request rate from the same (traced) processes:
            # host speed differs between processes.
            ops_per_s = statistics.median(r["e2e"]["sim_ops_per_s"] for r in traced)
            values["crypto.est_share"] = sha_s_per_op * ops_per_s
            wanted = defs["per_layer"]
            reports = plain
            print("%d untraced + %d traced repetitions of %s, seed %d"
                  % (len(plain), len(traced), args.workload, args.seed))
            print_spans(traced[0])
            print("tracing overhead: %+.1f%% process CPU (%.3f s traced vs %.3f s untraced)"
                  % (100 * values["trace.overhead_frac"], cpu_traced, cpu_plain))
            if values["trace.lost_gc_events"]:
                print("warning: %d runtime events lost; GC times are lower bounds"
                      % values["trace.lost_gc_events"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print_account(reports)
    metrics = {}
    for m in wanted:
        if args.metric and m["name"] not in args.metric:
            continue
        if m["name"] not in values:
            checks.add("metric_present", False, m["name"])
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("%-34s %16.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    for f in checks.failed:
        print("CHECK FAILED " + f)
    # Shed requests are refused by admission control, by design, and are
    # counted in failed_frac and served_frac; "failed" counts requests the
    # system lost, still unanswered after the drain.
    attempted = sum(r["account"]["attempted"] for r in reports)
    failed = sum(r["account"]["outstanding"] for r in reports)
    print(json.dumps({"correct": not checks.failed, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if not checks.failed else 1)


if __name__ == "__main__":
    main()
