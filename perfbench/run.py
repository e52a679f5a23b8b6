#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the perfbench binary (and the rlbf library it links) from the
sources next to this directory, then runs one workload:

    python3 perfbench/run.py --workload sim-easy --seed 1 --seconds 20 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the current directory, and scratch files to
a subdirectory of it. The binary's last stdout line is the JSON result;
the exit code is the binary's (0 only when every output check passed).
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-easy", "sim-conservative", "rlbf-eval", "ppo-train")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=timeout)


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
                   + generator, BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "3"],
               BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no rlbf sources next to " + HERE, file=sys.stderr)
        return 2
    target_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(os.path.join(target_root, "perfbench"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    out_dir = os.path.join(target_root, "perfbench-run", "%s-%d" % (args.workload, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        if args.trace == 0:
            shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
