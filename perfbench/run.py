#!/usr/bin/env python3
"""Run one MLDS benchmark workload.

usage: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the load generator and the server
process with dune, then runs the generator, which prints the metrics; its
last line of output is one JSON object. Exits non-zero, without a result
line, when the build or the run fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, "_build", "default", "perfbench")
STATE = os.path.join(ROOT, ".perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind through the finally below: it kills the generator's
    # process group and removes the work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    # no shared dune cache: the build reads and writes only this checkout
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "./perfbench/mldsb.exe", "./perfbench/mldsb_server.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    os.makedirs(STATE, exist_ok=True)
    work = os.path.join(STATE, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    # the generator and the server it starts share a new process group,
    # so a timeout or a crash never leaves a server behind
    gen = subprocess.Popen(
        [os.path.join(BUILD, "mldsb.exe"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--server-exe", os.path.join(BUILD, "mldsb_server.exe"),
         "--work-dir", work],
        cwd=ROOT, start_new_session=True)
    try:
        return gen.wait(timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        try:
            os.killpg(gen.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        gen.wait()
        shutil.rmtree(work, ignore_errors=True)

if __name__ == "__main__":
    sys.exit(main())
