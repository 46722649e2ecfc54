#!/usr/bin/env python3
"""Build and run the repository benchmark (sweepbench).

Usage, from the repository root:

    python3 sweepbench/run.py --workload ladder|adaptive|fates --seed N \
        --seconds S --trace 0|1 [--threads N] [--smoke]

The first run configures and builds the simulator libraries and the
sweepbench binary under .bench_build/ (later runs only re-check the build).
Build output goes to stderr; the binary's stdout is passed through, so the
last stdout line is the result JSON. Exit status: the binary's (0 correct,
1 an output check failed), 2 on a usage error, 1 when the sources or the
build are missing or broken.
"""

import os
import re
import subprocess
import sys

WORKLOADS = ("ladder", "adaptive", "fates")
VALUE_FLAGS = ("--workload", "--seed", "--seconds", "--trace", "--threads")
REQUIRED = ("--workload", "--seed", "--seconds", "--trace")


def usage(message):
    print(f"run.py: {message}", file=sys.stderr)
    print("usage: run.py --workload ladder|adaptive|fates --seed N "
          "--seconds S --trace 0|1 [--threads N] [--smoke]", file=sys.stderr)
    sys.exit(2)


def parse(argv):
    """Validates the flags; returns them as the binary's argument list."""
    given = {}
    smoke = False
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag == "--smoke":
            smoke = True
            i += 1
            continue
        if flag not in VALUE_FLAGS:
            usage(f"unknown argument {flag!r}")
        if i + 1 >= len(argv):
            usage(f"{flag} needs a value")
        if flag in given:
            usage(f"duplicate {flag}")
        given[flag] = argv[i + 1]
        i += 2
    for flag in REQUIRED:
        if flag not in given:
            usage(f"missing {flag}")
    if given["--workload"] not in WORKLOADS:
        usage(f"unknown workload {given['--workload']!r}")
    if not re.fullmatch(r"[0-9]+", given["--seed"]):
        usage(f"malformed seed {given['--seed']!r}")
    if given["--trace"] not in ("0", "1"):
        usage("--trace wants 0 or 1")
    try:
        seconds = float(given["--seconds"])
    except ValueError:
        usage(f"malformed --seconds {given['--seconds']!r}")
    if not 0 < seconds <= 3600:
        usage("--seconds wants a number in (0, 3600]")
    args = [part for item in given.items() for part in item]
    return args + (["--smoke"] if smoke else [])


def build(root):
    """Configures (once) and builds the binary; returns its path."""
    source = os.path.join(root, "sweepbench")
    build_dir = os.path.join(root, ".bench_build", "sweepbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "sweepbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build failed: " + " ".join(step), file=sys.stderr)
            sys.exit(1)
    return os.path.join(build_dir, "sweepbench")


def main():
    args = parse(sys.argv[1:])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"run.py: {needed} is missing under {root}: the benchmark "
                  "builds the simulator from the repository's sources",
                  file=sys.stderr)
            sys.exit(1)
    binary = build(root)
    sys.stdout.flush()
    sys.exit(subprocess.run([binary] + args).returncode)


if __name__ == "__main__":
    main()
