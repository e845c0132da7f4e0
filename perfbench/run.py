#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the checker CLI and the benchmark program with dune, runs the
workload in its own process group, and prints the program's result as
the last line of standard output: one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones (see
BENCHMARK.json). Exits non-zero, printing no result, when the checkout
cannot be built or the run fails. Sockets, stores and trace files go
to .perfbench/ in the checkout.

The run is pinned to one CPU. On a shared 2-vCPU host, the serve daemon's
threads and its client otherwise wake each other across CPUs, and the
cost of those wake-ups follows the host's load: unpinned, serve's
throughput ranged from 240 to 930 jobs/s between runs; pinned, from
410 to 500.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("registry", "history", "serve")
PROGRAM = "perfbench/perfbench.exe"
DAEMON = "bin/cdsspec_run.exe"
BUILD_TIMEOUT = 880
RUN_TIMEOUT = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for path in ("dune-project", "lib", "bin/dune", "perfbench/dune"):
        if not os.path.exists(path):
            die(f"{path} not found: run from the root of a source checkout")
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    try:
        done = subprocess.run(
            [dune, "build", "--root", ".", "--cache=disabled", "--display=quiet",
             "./" + PROGRAM, "./" + DAEMON],
            stdin=subprocess.DEVNULL, stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if done.returncode != 0:
        die("build failed")


def stop_group(pgid):
    """Kill whatever is left of the run's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cmd = [os.path.join("_build", "default", PROGRAM), args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--daemon", os.path.join("_build", "default", DAEMON)]
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        die("run timed out")
    finally:
        stop_group(proc.pid)
    if proc.returncode != 0:
        die(f"benchmark program exited with code {proc.returncode}")

    lines = out.strip().splitlines()
    if not lines:
        die("benchmark program printed no result")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("benchmark program printed a malformed result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("malformed result line")
    if set(result["metrics"]) != expected_metrics(args.trace):
        die("result metrics differ from BENCHMARK.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
