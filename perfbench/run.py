#!/usr/bin/env python3
"""Runs the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the xok libraries from src/) into
.bench_build, runs the metric self-tests, then runs one workload with the
xokbench binary. An untraced run is split over PROCESSES xokbench processes
run one after another, each for an equal share of the seconds: the
simulated metrics must be identical in all of them, and the host-time
metrics are the median over them. The last line of standard output is the
result as one JSON object; build and self-test output goes to standard
error. Per-process host-time spans are written to .bench_out/. Exits
nonzero, printing no result, if the build, a self-test or any correctness
check fails.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150
# How fast a shared VM runs the simulator moves between levels up to 2x
# apart, at times for a whole process: a median over processes is steadier
# than any one process's figure (README.md, Measured spread).
PROCESSES = 3
HOST_MEDIAN = ("host_s", "setup_s")  # Median over the processes.
HOST_MAX = ("peak_rss_mb",)          # Largest over the processes.

_child = None


def _kill_child(*_):
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
    sys.exit(1)


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    global _child
    _child = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                              text=True, start_new_session=True)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
        sys.exit("perfbench: %s timed out after %d s" % (cmd[0], timeout))
    code = _child.returncode
    _child = None
    return code, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no xok sources (src/) in %s" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        code, _ = run(["cmake", "-S", "perfbench", "-B", BUILD,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                      BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    code, _ = run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                   "xokbench", "xokbench_test"], BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        sys.exit("perfbench: build failed")
    code, _ = run([os.path.join(BUILD, "xokbench_test"), "--gtest_brief=1"],
                  RUN_TIMEOUT_S, sys.stderr)
    if code != 0:
        sys.exit("perfbench: metric self-tests failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_xokbench(args, index, seconds):
    """Runs one xokbench process; returns its output lines and result."""
    spans = os.path.join(OUT, "spans-%s-seed%d-trace%d-p%d.json" %
                         (args.workload, args.seed, args.trace, index))
    code, out = run([os.path.join(BUILD, "xokbench"), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(seconds),
                     "--trace", str(args.trace), "--spans", spans],
                    RUN_TIMEOUT_S, subprocess.PIPE)
    if code != 0:
        sys.stderr.write(out)
        sys.exit("perfbench: %s failed (exit %d)" % (args.workload, code))
    lines = out.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def combine(results):
    """One result from the processes' results; exits if they disagree."""
    first = results[0]
    metrics = {}
    for name, m in first["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name in HOST_MEDIAN:
            value = statistics.median(values)
        elif name in HOST_MAX:
            value = max(values)
        elif any(v != values[0] for v in values):
            sys.exit("perfbench: simulated metric %s differs between processes "
                     "of one seed: %s" % (name, values))
        else:
            value = values[0]
        metrics[name] = {"value": value, "unit": m["unit"]}
    if any(r["attempted"] != first["attempted"] or not r["correct"] or r["failed"]
           for r in results):
        sys.exit("perfbench: processes disagree on attempted, correct or failed")
    return {"correct": True, "attempted": first["attempted"], "failed": 0,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _kill_child)

    build()
    os.makedirs(OUT, exist_ok=True)
    # The per-layer metrics have no bound: a traced run is one process.
    processes = 1 if args.trace else PROCESSES
    report = []
    results = []
    for i in range(processes):
        lines, result = run_xokbench(args, i, args.seconds / processes)
        report.append("process %d of %d:" % (i + 1, processes))
        report.extend(lines)
        results.append(result)
    result = combine(results)

    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(args.trace)
    if got != want:
        sys.stderr.write("\n".join(report) + "\n")
        sys.exit("perfbench: metrics differ from BENCHMARK.json: %s" %
                 sorted(set(got.items()) ^ set(want.items())))
    sys.stdout.write("\n".join(report) + "\n" + json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
