#!/usr/bin/env python3
"""The repository benchmark: build the harness, run one workload, check it.

One run (from the root of a source checkout):

    python3 perfbench/run.py --workload hot_wire --seed 7 --seconds 10 --trace 0

builds perfbench/ (CMake, RelWithDebInfo) into $CARGO_TARGET_DIR or
.bench_build/, runs the harness binary, prints a readable table of every
metric, writes the full result record to <build dir>/results/, and prints as
its last stdout line the result object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics. A correctness-gate violation exits 1.
--workload all runs the three workloads in turn, each with its own result
line, and exits 1 if any of them fails its gate.

Compare two result sets (directories of records, e.g. a parent and a change):

    python3 perfbench/run.py compare BASE_DIR CHANGE_DIR

prints improved / unchanged / regressed / unresolved per metric and workload
by the rule in perfbench/WORKLOADS.md ("Comparing two result sets"). Runs
pair by seed and, within a seed, by run order; fewer than ten pairs leave
every metric unresolved.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot_wire", "cold_sharded", "population_contended")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("no BENCHMARK.json at the checkout root")
    with open(path) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configure once, then build incrementally; all output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources (src/CMakeLists.txt) in this checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree copied along with a checkout still points at the
        # sources it was configured from; start it afresh.
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n" not in f.read():
                shutil.rmtree(out)
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    binary = os.path.join(out, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no perfbench binary")
    return binary


def git_sha():
    sha = os.environ.get("PERFBENCH_GIT_SHA")
    if sha:
        return sha
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def print_table(record):
    title = "{workload} seed={seed} trace={trace} seconds={seconds:g}".format(**record)
    print(title)
    print("=" * len(title))
    print("correct={} attempted={} failed={}  ({} build, {}, nproc {})".format(
        record["correct"], record["attempted"], record["failed"], record["build_type"],
        record["compiler"], record["nproc"]))
    for v in record["violations"]:
        print("VIOLATION: " + v)
    rows = record["end_to_end"] if record["trace"] == 0 else record["per_layer"]
    width = max(len(m["name"]) for m in rows) if rows else 0
    for m in rows:
        if not m["measured"]:
            print("  {:<{w}}  not measured ({})".format(m["name"], m["note"], w=width))
            continue
        print("  {:<{w}}  {:>14.6g} {:<6} n={:<8} q1={:<11.6g} q3={:<11.6g}{}".format(
            m["name"], m["value"], m["unit"], m["samples"], m["q1"], m["q3"],
            ("  " + m["note"]) if m["note"] else "", w=width))


def run(args):
    if args.workload == "all":
        status = 0
        for workload in WORKLOADS:
            args.workload = workload
            status = max(status, run(args))
        return status
    spec = load_spec()
    if args.workload not in WORKLOADS:
        fail("unknown workload '{}' (one of {}, all)".format(args.workload, ", ".join(WORKLOADS)))
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("{} did not finish within {} s".format(args.workload, RUN_TIMEOUT_S), 3)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("harness exited {} without a record".format(done.returncode), 3)
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("harness printed no record (exit {})".format(done.returncode), 3)

    record["git_sha"] = git_sha()
    record["finished_at"] = time.time()
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    name = "{}-seed{}-trace{}-{}.json".format(args.workload, args.seed, args.trace,
                                              time.strftime("%Y%m%dT%H%M%S"))
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1)
    print_table(record)

    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    measured = {m["name"]: m for m in
                (record["end_to_end"] if args.trace == 0 else record["per_layer"])}
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            fail("record lacks metric " + m["name"], 3)
        metrics[m["name"]] = {"value": measured[m["name"]]["value"], "unit": m["unit"]}
    correct = bool(record["correct"]) and done.returncode == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


# --- compare -------------------------------------------------------------------

def load_records(path):
    files = [path] if os.path.isfile(path) else sorted(glob.glob(os.path.join(path, "*.json")))
    records = []
    for p in files:
        with open(p) as f:
            records.append(json.load(f))
    return records


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


MIN_PAIRS = 10


def classify(base, change, pairs, better, bound):
    """The comparison rule of choosing-metrics section 8, per metric and
    workload. `base` and `change` hold every run's value, `pairs` the
    (base, change) values of runs paired by seed and run order.

    - unresolved: fewer than MIN_PAIRS pairs;
    - improved: the change wins >= 9/10 of the pairs (ties count for
      neither) and the medians differ by more than the base runs'
      interquartile spread;
    - regressed: the change's median is worse than the base median by more
      than the bound (per-layer metrics, which have no bound: the mirror of
      the improvement rule), unless the base spread is itself wider than the
      bound and not every change run is worse than every base run, which is
      unresolved;
    - unresolved: the base spread is wider than the bound and not every
      change run beats every base run;
    - unchanged otherwise."""
    if len(pairs) < MIN_PAIRS:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    b_med, c_med = statistics.median(base), statistics.median(change)
    b_q1, b_q3 = quartiles(base)
    spread = b_q3 - b_q1
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    if wins >= 0.9 * len(pairs) and sign * (c_med - b_med) > spread:
        return "improved"
    if bound is None:
        if losses >= 0.9 * len(pairs) and sign * (b_med - c_med) > spread:
            return "regressed"
        return "unchanged"
    scale = abs(b_med) if b_med else 1.0
    rel_spread = spread / scale
    worse = sign * (b_med - c_med) / scale
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    all_worse = all(sign * (b - c) > 0 for c in change for b in base)
    if worse > bound:
        return "regressed" if rel_spread <= bound or all_worse else "unresolved"
    if rel_spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def metric_values(runs, name):
    """Values of one metric per seed, each seed's in the order its runs were
    made. End-to-end figures come from --trace 0 runs, layer figures from
    --trace 1 runs (whose end-to-end part covers a third of the time)."""
    out = {}
    for r in sorted(runs, key=lambda r: r.get("finished_at", 0.0)):
        for m in r["end_to_end"] if r["trace"] == 0 else r["per_layer"]:
            if m["name"] == name and m["measured"]:
                out.setdefault(r["seed"], []).append(m["value"])
    return out


def compare(args):
    spec = load_spec()
    base, change = load_records(args.base), load_records(args.change)
    if not base or not change:
        fail("both result sets need at least one record")
    metrics = [(m, m["bound"]) for m in spec["end_to_end"]] + \
              [(m, None) for m in spec["per_layer"]]
    print("{:<22} {:<30} {:>14} {:>14} {:>9}  {}".format(
        "workload", "metric", "base median", "change median", "wins", "verdict"))
    regressed = False
    for workload in WORKLOADS:
        b_runs = [r for r in base if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        if not b_runs or not c_runs:
            continue
        for m, bound in metrics:
            b_seeds, c_seeds = metric_values(b_runs, m["name"]), metric_values(c_runs, m["name"])
            b_vals = [v for s in sorted(b_seeds) for v in b_seeds[s]]
            c_vals = [v for s in sorted(c_seeds) for v in c_seeds[s]]
            if not b_vals or not c_vals:
                continue
            # Within a seed, the i-th base run pairs with the i-th change run.
            pairs = [p for s in sorted(set(b_seeds) & set(c_seeds))
                     for p in zip(b_seeds[s], c_seeds[s])]
            better = m.get("better", "lower")
            sign = 1.0 if better == "higher" else -1.0
            wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
            verdict = classify(b_vals, c_vals, pairs, better, bound)
            if len(pairs) < MIN_PAIRS:
                verdict += " ({} pairs < {})".format(len(pairs), MIN_PAIRS)
            regressed = regressed or (verdict == "regressed" and bound is not None)
            print("{:<22} {:<30} {:>14.6g} {:>14.6g} {:>4}/{:<4}  {}".format(
                workload, m["name"], statistics.median(b_vals), statistics.median(c_vals), wins,
                len(pairs), verdict))
    return 1 if regressed else 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base", help="directory (or file) of parent result records")
        parser.add_argument("change", help="directory (or file) of change result records")
        return compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
