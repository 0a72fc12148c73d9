#!/usr/bin/env python3
"""Builds kgbench from source and runs one workload.

    python3 kgbench/run.py --workload <name> --seed N --seconds S --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark (and the kgacc library it links) into $CARGO_TARGET_DIR/kgbench,
or .bench_build/kgbench when that variable is unset; later runs only check
that the build is current. Build output goes to stderr, so the last line of
stdout is always the benchmark's JSON result. Records and span files land in
.bench_out/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("kgbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "kgacc", "kgacc.h")):
        fail("kgacc sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    binary = os.path.join(build_dir, "kgbench")
    if not os.path.isfile(binary):
        fail("build produced no kgbench binary")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["replicate", "daemon-reopen"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="perturb one expected report (self-test)")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.abspath(os.path.join(target, "kgbench")))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", os.path.abspath(".bench_out")]
    if args.corrupt_expected:
        command.append("--corrupt-expected")
    sys.stdout.flush()
    proc = subprocess.Popen(command)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
