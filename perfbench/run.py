#!/usr/bin/env python3
"""Build and run the simulator benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--fault SPEC]

Builds perfbench/main.exe with dune, runs it, and passes its output
through. The last line printed is the result object; it is checked
against BENCHMARK.json first: a run whose metric names or units differ
from the ones declared for its mode exits non-zero without a result.
With --trace 1 the recorded spans are written under perfbench-out/.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found")


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project here: run from the root of a checkout")
    cmd = dune_command() + ["build", "--root", ".", "./perfbench/main.exe"]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        fail("last line is not a JSON object")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys differ from correct/attempted/failed/metrics")
    want = declared(trace)
    got = res["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (missing, extra))
    for name, m in got.items():
        if m.get("unit") != want[name]:
            fail("%s: unit %r, BENCHMARK.json says %r" % (name, m.get("unit"), want[name]))
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail("%s: value %r is not a finite number" % (name, v))
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        fail("attempted must be a positive whole number")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--fault", default="")
    args = ap.parse_args()

    build()
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.fault:
        cmd += ["--fault", args.fault]
    if args.trace:
        out_dir = os.path.join(ROOT, "perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            out_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    # its own session, so stopping it stops the repetition it has forked
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail("benchmark exited with code %d" % proc.returncode)
    check_result(lines[-1], args.trace)
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
