#!/usr/bin/env python3
"""End-to-end benchmark of smptree: builds the Release benchmark binary from
the library sources and runs one workload.

One run (from the root of a checkout):

    python3 perfbench/run.py --workload train-exact --seed 1 --seconds 10 --trace 0

prints the run's context and notes, then as its last line one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer metrics (a layer the workload bypasses reads 0), and the traced run
also writes a Chrome trace under .bench_build/.

Steadiness self-check (two interleaved sets of runs per workload):

    python3 perfbench/run.py --steadiness [--runs 5] [--workloads a,b] [--seconds 10]

See perfbench/README.md.
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
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Configures (once) and builds the Release binary; a no-op when fresh."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at %s/src" % ROOT)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step %s failed" % (cmd[:2],))


def run_once(spec, workload, seed, seconds, trace, echo=True):
    """Runs the binary once; returns the result dict with units attached,
    and the lines the binary printed before it."""
    work = os.path.join(ROOT, ".bench_build", "work-" + workload)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work]
    if trace:
        cmd += ["--trace-out", os.path.join(
            ROOT, ".bench_build", "trace-%s-%d.json" % (workload, seed))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        if echo:
            sys.stdout.write(done.stdout)
        fail("benchmark binary exited with %d" % done.returncode)
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("last line of the binary's output is not JSON")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    extra = sorted(set(raw["metrics"]) - set(units))
    if extra:
        fail("metrics not in BENCHMARK.json: %s" % ", ".join(extra))
    missing = sorted(set(units) - set(raw["metrics"]))
    if missing:
        fail("metrics missing: %s" % ", ".join(missing))
    metrics = {name: {"value": raw["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}, lines[:-1]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(spec, args):
    """Runs every workload in two interleaved sets of runs (distinct seeds)
    and prints, per end-to-end metric, each set's and the pooled quartiles
    with the spread (IQR / median), and how far the second set's median is
    from the first's, either way. A spread within a third of the bound is
    steady, one above the bound fails, and so do two medians further apart
    than the bound."""
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    verdicts = []
    for workload in workloads:
        sets = [[], []]
        for i in range(args.runs):
            for k in (0, 1):
                seed = 1000 * (k + 1) + i
                start = time.monotonic()
                r, notes = run_once(spec, workload, seed, seconds, 0,
                                    echo=False)
                sets[k].append(r)
                print("%s set %d seed %d (%.0f s): correct=%s attempted=%d "
                      "failed=%d %s"
                      % (workload, k, seed, time.monotonic() - start,
                         r["correct"], r["attempted"], r["failed"],
                         " ".join("%s=%.5g" % (n, m["value"])
                                  for n, m in r["metrics"].items())),
                      flush=True)
                for line in notes:
                    if "CHECK FAILED" in line or "open loop" in line:
                        print("  " + line)
        print("== %s (%d + %d runs, %s s each)"
              % (workload, args.runs, args.runs, seconds))
        print("%-14s %-5s %12s %12s %12s %8s %8s"
              % ("metric", "set", "q1", "median", "q3", "spread", "bound"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for k, runs in ((0, sets[0]), (1, sets[1]),
                            ("all", sets[0] + sets[1])):
                q1, med, q3 = quartiles([r["metrics"][name]["value"]
                                         for r in runs])
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                verdict = ""
                if k == "all":
                    verdict = ("steady" if spread <= bound / 3 else
                               "within bound" if spread <= bound else
                               "SPREAD > BOUND")
                    verdicts.append(verdict)
                print("%-14s %-5s %12.6g %12.6g %12.6g %8.4f %8.3f %s"
                      % (name, k, q1, med, q3, spread, bound, verdict))
            worse = (medians[1] - medians[0]) / medians[0]
            if m["better"] == "higher":
                worse = -worse
            verdicts.append("agree" if abs(worse) <= bound else "DISAGREE")
            print("%-14s %-5s second median worse by %+.4f: %s"
                  % (name, "", worse, verdicts[-1]))
        shares = [sum(r["failed"] for r in s) / max(1, sum(r["attempted"]
                                                           for r in s))
                  for s in sets]
        correct = all(r["correct"] for s in sets for r in s)
        verdicts.append("agree" if correct and shares[0] == shares[1]
                        else "DISAGREE")
        print("failed share: %s / %s; all correct: %s"
              % (shares[0], shares[1], correct), flush=True)
    if any(v in ("SPREAD > BOUND", "DISAGREE") for v in verdicts):
        print("NOT STEADY")
        return 1
    print("STEADY" if "within bound" not in verdicts else
          "WITHIN BOUNDS (some spreads above a third of the bound)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads")
    args = parser.parse_args()

    spec = load_spec()
    build()
    if args.steadiness:
        return steadiness(spec, args)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("--workload must be one of %s" % ", ".join(names))
    result, _ = run_once(spec, args.workload, args.seed,
                         args.seconds or spec["run_seconds"], args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
