#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test      # the benchmark's own unit tests

Builds perfbench (and the dramdig library from ../src) in Release into
.bench_build/perfbench at the checkout root, then runs one workload. The
benchmark's output passes through unchanged; its last line is the result
JSON. Build output goes to stderr. Exits non-zero, without a result, when
the library sources are missing or the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Run cmd to completion; on timeout kill it and wait until it ends."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: {cmd[0]} timed out after {timeout}s",
                  file=sys.stderr)
            return 124


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "api",
                                       "mapping_service.h")):
        print("perfbench: no dramdig sources in this checkout",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if run(configure, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    return run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
               BUILD_TIMEOUT_S, stdout=sys.stderr) == 0


def revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable(not-a-git-checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=30, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.test:
        if not build("perfbench_tests"):
            return 2
        return run([os.path.join(BUILD, "perfbench_tests")], RUN_TIMEOUT_S)
    if not args.workload:
        parser.error("--workload is required")
    if not build("perfbench"):
        return 2
    tag = f"{args.workload}-{args.seed}"
    return run([os.path.join(BUILD, "perfbench"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", args.trace,
                "--spans", os.path.join(BUILD, f"spans-{tag}.json"),
                "--scratch", os.path.join(BUILD, f"store-{tag}.json"),
                "--revision", revision()], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
