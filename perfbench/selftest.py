#!/usr/bin/env python3
"""Harness self-test: run the benchmark's unit tests, then every workload at
tiny input sizes in both modes, and check the result contract.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

For every workload named in BENCHMARK.json, and for the ungated
`serve-sweep`, it asserts that the untraced run prints every end-to-end
metric with its unit, that the traced run prints every per-layer metric with
its unit, that both runs pass their correctness checks and print the
request-stream digest and `repeat_share`, and that bad arguments fail without
printing a result. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = ["correct", "attempted", "failed", "metrics"]
# Workloads the harness runs that BENCHMARK.json does not gate (see README).
UNGATED = ["serve-sweep"]


def fail(message):
    sys.exit("selftest: FAILED: " + message)


def run(args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


def check_result(workload, trace, expected, proc):
    if proc.returncode != 0:
        fail("%s --trace %s exited %d:\n%s%s" % (workload, trace, proc.returncode, proc.stdout, proc.stderr))
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    if list(result) != RESULT_KEYS:
        fail("%s: result keys %s" % (workload, list(result)))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s: not correct: %s" % (workload, lines[-1]))
    metrics = result["metrics"]
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        fail("%s --trace %s: metrics %s, expected %s" % (workload, trace, sorted(metrics), sorted(names)))
    for metric in expected:
        got = metrics[metric["name"]]
        if sorted(got) != ["unit", "value"] or got["unit"] != metric["unit"]:
            fail("%s: metric %s printed as %s" % (workload, metric["name"], got))
        if not isinstance(got["value"], (int, float)):
            fail("%s: metric %s has no numeric value" % (workload, metric["name"]))
    text = proc.stdout
    for needle in ("request stream digest", "repeat_share:"):
        if needle not in text:
            fail("%s: output lacks %r" % (workload, needle))
    if trace == "1" and "trace:" not in text:
        fail("%s: traced run wrote no span log" % workload)
    return metrics


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    unit = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--quiet", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env,
    )
    if unit.returncode != 0:
        fail("unit tests")

    for workload in [w["name"] for w in bench["workloads"]] + UNGATED:
        base = ["--workload", workload, "--seed", "7", "--seconds", "1", "--tiny"]
        untraced = check_result(workload, "0", bench["end_to_end"], run(base + ["--trace", "0"]))
        zero = [name for name, m in untraced.items() if m["value"] == 0]
        if zero:
            fail("%s: end-to-end metrics read 0: %s" % (workload, zero))
        check_result(workload, "1", bench["per_layer"], run(base + ["--trace", "1"]))
        print("selftest: %s ok" % workload)

    bad = run(["--workload", "no-such-workload", "--seed", "1", "--seconds", "1", "--trace", "0"])
    if bad.returncode == 0 or bad.stdout.strip().endswith("}"):
        fail("an unknown workload must fail without a result")
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
