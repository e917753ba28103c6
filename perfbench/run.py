#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Without `--workload` it runs every workload of BENCHMARK.json in turn, each
ending with its own result line, and fails if any of them fails.

The `repro` binary comes from the program's own workspace and the harness
from `perfbench/Cargo.toml`; both build into `$CARGO_TARGET_DIR` (default
`.bench_build`). Scratch files of a run go under `.bench_work/`, and traced
runs leave their span log in `.bench_work/traces/`. The last line of
standard output is the run's JSON result; build output goes to standard
error. Any build or harness failure exits non-zero.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "mp-bench", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for step in steps:
        if subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build(target_dir)
    args = sys.argv[1:]
    if "--workload" in args:
        at = args.index("--workload")
        workloads, args = args[at + 1:at + 2], args[:at] + args[at + 2:]
        if not workloads:
            sys.exit("perfbench: --workload needs a name")
    else:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    harness = os.path.join(target_dir, "release", "perfbench")
    repro = os.path.join(target_dir, "release", "repro")
    failed = False
    for workload in workloads:
        work = os.path.join(ROOT, ".bench_work", "%s-%d" % (workload, os.getpid()))
        command = [harness, "--workload", workload, *args, "--repro", repro, "--work", work]
        failed |= subprocess.run(command, cwd=ROOT).returncode != 0
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
