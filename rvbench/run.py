#!/usr/bin/env python3
"""rvbench: the repository's benchmark (see rvbench/README.md).

One run of one workload, the form every measurement takes:

    python3 rvbench/run.py --workload batch-scan --seed 3 --seconds 20 --trace 0

builds the harness and the product binaries into .bench_build (once; later
runs only check they are up to date), runs the workload, prints every
metric by name with its unit, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 gives the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Without --workload every workload runs. Other modes:

    run.py --quick                      every workload at reduced size, once
    run.py --set --runs 10 --seed 1 --out rvbench/results/seed-a.json
                                        --runs seeds per workload (trace 0)
                                        plus one traced run, saved as a set
    run.py --compare A.json B.json      compare two sets metric by metric

Exit codes: 0 = every output matched its known answer; 1 = a mismatch or a
regression (--compare); 2 = the harness could not be built or run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["batch-witness", "batch-scan", "batch-props", "serve-paced"]
# A child run may take --seconds plus its set-up; beyond this it is hung.
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("rvbench: error: %s" % msg, file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))


def build(build_dir):
    """Configures once, then brings rvbench, rvpredict and rvpredictd up to
    date. Returns the harness path and the product binaries' directory."""
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("%s is missing: run from an rvpredict checkout" % needed)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "rvbench-build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "--target", "rvbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed: %s (log: %s)" % (" ".join(cmd), log_path))
    return (os.path.join(build_dir, "rvbench"),
            os.path.join(build_dir, "rvp", "tools"))


def run_one(harness, bin_dir, work_dir, workload, seed, seconds, trace,
            quick=False):
    cmd = [harness, "--workload=%s" % workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--trace=%d" % trace,
           "--bin-dir=%s" % bin_dir, "--work-dir=%s" % work_dir]
    if quick:
        cmd.append("--quick=true")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        die("harness exited %d on %s:\n%s" %
            (proc.returncode, workload, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def check_metrics(run, wanted):
    """The run must report exactly the metrics BENCHMARK.json names."""
    got = set(run["metrics"])
    names = {m["name"] for m in wanted}
    if got != names:
        die("%s: metrics missing %s, not in BENCHMARK.json %s" %
            (run["workload"], sorted(names - got), sorted(got - names)))


def print_run(run):
    print("%s (seed %d, trace %d): %d attempted, %d failed" %
          (run["workload"], run["seed"], run["trace"], run["attempted"],
           run["failed"]))
    for name, m in run["metrics"].items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    for failure in run["failures"]:
        print("  FAILED: %s" % failure)


def result_line(runs):
    """The result line: exactly these four keys."""
    metrics = {}
    for run in runs:
        metrics.update(run["metrics"])
    return {"correct": all(r["failed"] == 0 for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics}


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a, path_b, bench):
    """choosing-metrics §8 on two saved sets: per (metric, workload) median
    and quartiles of each side, the fraction of index-paired runs B wins,
    and the bound check. A pair whose spread (quartile distance over the
    median) is wider than its bound is unresolved, not unchanged, unless
    every run of B beats every run of A."""
    with open(path_a) as f:
        set_a = json.load(f)
    with open(path_b) as f:
        set_b = json.load(f)
    regressions = 0
    print("%-14s %-15s %12s %12s %7s %7s %6s  %s" %
          ("workload", "metric", "median A", "median B", "IQR A", "IQR B",
           "B wins", "verdict"))
    for workload in WORKLOADS:
        runs_a = set_a["runs"].get(workload, [])
        runs_b = set_b["runs"].get(workload, [])
        if not runs_a or not runs_b:
            continue
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            a = [r["metrics"][name]["value"] for r in runs_a]
            b = [r["metrics"][name]["value"] for r in runs_b]
            qa, qb = quartiles(a), quartiles(b)
            spread_a = (qa[2] - qa[0]) / qa[1] if qa[1] else 0
            spread_b = (qb[2] - qb[0]) / qb[1] if qb[1] else 0
            better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
            wins = sum(better(y, x) for x, y in zip(a, b))
            pairs = min(len(a), len(b))
            worse = (qb[1] - qa[1]) / qa[1] if lower else \
                (qa[1] - qb[1]) / qa[1]
            all_better = all(better(y, x) for x in a for y in b)
            if worse > bound:
                verdict = "REGRESSION (%+.1f%% > %.0f%%)" % (worse * 100,
                                                             bound * 100)
                regressions += 1
            elif max(spread_a, spread_b) > bound and not all_better and \
                    name != "setup_s":
                verdict = "unresolved (spread > %.0f%%)" % (bound * 100)
            else:
                verdict = "within bound (%+.1f%%)" % (worse * 100)
            print("%-14s %-15s %12.5g %12.5g %6.1f%% %6.1f%% %3d/%-2d  %s" %
                  (workload, name, qa[1], qb[1], spread_a * 100,
                   spread_b * 100, wins, pairs, verdict))
    return 1 if regressions else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--set", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--build-dir", default=os.path.join(ROOT, ".bench_build"))
    args = ap.parse_args()

    bench = load_benchmark()
    if args.compare:
        sys.exit(compare(args.compare[0], args.compare[1], bench))

    seconds = args.seconds if args.seconds is not None \
        else bench["run_seconds"]
    harness, bin_dir = build(os.path.abspath(args.build_dir))
    work_dir = os.path.join(os.path.abspath(args.build_dir), "work")
    workloads = [args.workload] if args.workload else WORKLOADS

    if args.quick:
        start = time.time()
        runs = [run_one(harness, bin_dir, work_dir, w, args.seed, 0, t,
                        quick=True)
                for w in workloads for t in (0, 1)]
        for run in runs:
            print_run(run)
        line = result_line(runs)
        print("quick run: %.1f s" % (time.time() - start))
        print(json.dumps({k: line[k] for k in ("correct", "attempted",
                                                "failed")}))
        sys.exit(0 if line["correct"] else 1)

    if args.set:
        result = {"git_sha": git_sha(), "nproc": os.cpu_count(),
                  "seconds": seconds, "first_seed": args.seed,
                  "runs": {}, "traced": {}}
        for w in workloads:
            result["runs"][w] = []
            for i in range(args.runs):
                run = run_one(harness, bin_dir, work_dir, w, args.seed + i,
                              seconds, 0)
                check_metrics(run, bench["end_to_end"])
                print_run(run)
                result["runs"][w].append(run)
            run = run_one(harness, bin_dir, work_dir, w, args.seed, seconds, 1)
            check_metrics(run, bench["per_layer"])
            print_run(run)
            result["traced"][w] = run
        if args.out:
            with open(args.out, "w") as f:
                json.dump(result, f, indent=1)
                f.write("\n")
        runs = [r for rs in result["runs"].values() for r in rs] + \
            list(result["traced"].values())
        line = result_line(runs)
        print(json.dumps({k: line[k] for k in ("correct", "attempted",
                                                "failed")}))
        sys.exit(0 if line["correct"] else 1)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    runs = []
    for w in workloads:
        run = run_one(harness, bin_dir, work_dir, w, args.seed, seconds,
                      args.trace)
        check_metrics(run, wanted)
        print_run(run)
        runs.append(run)
    line = result_line(runs)
    print(json.dumps(line))
    sys.exit(0 if line["correct"] else 1)


if __name__ == "__main__":
    main()
