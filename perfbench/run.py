#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0

Builds perfbench/bench.exe from the checkout's sources with dune, runs
it, adds the process's peak resident memory to the end-to-end metrics,
checks the metric names against BENCHMARK.json and attaches the units
declared there, and prints the result as the last line of standard
output.
`--append FILE` also appends the result, tagged with workload, seed and
trace mode, to a JSON-lines file that perfbench/compare.py reads.
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    # Without the repository's dune project and libraries there is
    # nothing to measure.
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("missing %s: run from a full checkout of the repository" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet",
             "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed with exit code %d" % done.returncode)


def run(args):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            out_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        # wait4 rather than wait: it returns this child's own rusage
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        fail("bench.exe exited with %d" % proc.returncode)
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("bench.exe printed no result")
    result = json.loads(lines[-1])
    # ru_maxrss is in KiB on Linux
    return result, usage.ru_maxrss / 1024.0


def attach_units(spec, values, trace):
    """The result's metrics: every metric BENCHMARK.json declares for the
    mode, with its unit. A per-layer metric the workload does not report
    belongs to a layer it bypasses and reads 0."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    unknown = sorted(set(values) - set(units))
    missing = [] if trace else sorted(set(units) - set(values))
    if unknown or missing:
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s"
             % (missing, unknown))
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in units.items()}


def main():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--append", metavar="FILE",
                    help="also append the tagged result to this JSON-lines file")
    args = ap.parse_args()
    build()
    result, peak_rss_mb = run(args)
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = peak_rss_mb
    result["metrics"] = attach_units(spec, result["metrics"], args.trace)
    if args.append:
        tagged = dict(workload=args.workload, seed=args.seed, trace=args.trace,
                      **result)
        with open(args.append, "a") as f:
            f.write(json.dumps(tagged) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
