#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark itself.

    python3 e2ebench/smoke_test.py

Runs every workload at a tiny size in both trace modes and asserts that
each metric BENCHMARK.json names is printed with its unit; then feeds
each correctness check a deliberately corrupted reference and asserts
that the run reports correct=false and exits non-zero.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload, trace, corrupt=""):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "2",
               "--trace", str(trace), "--tiny"]
    if corrupt:
        command += ["--corrupt", corrupt]
    result = subprocess.run(command, capture_output=True, text=True,
                            cwd=ROOT, timeout=600)
    lines = result.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("%s printed nothing:\n%s" % (workload,
                                                           result.stderr))
    return result.returncode, json.loads(lines[-1]), result.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    failures = []

    def expect(condition, message):
        print(("ok    " if condition else "FAIL  ") + message)
        if not condition:
            failures.append(message)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, report = run(workload, trace)
            expect(code == 0 and result["correct"] and result["failed"] == 0,
                   "%s --trace %d passes its checks" % (workload, trace))
            for metric in spec[key]:
                printed = result["metrics"].get(metric["name"])
                expect(printed is not None
                       and printed["unit"] == metric["unit"]
                       and isinstance(printed["value"], (int, float))
                       and metric["name"] in report,
                       "%s --trace %d prints %s in %s" % (
                           workload, trace, metric["name"], metric["unit"]))

    for workload, corrupt in (("explain_cold", "result"),
                              ("explain_warm", "fresh"),
                              ("stream_mixed", "result"),
                              ("stream_mixed", "match"),
                              ("stream_mixed", "refresh")):
        code, result, _ = run(workload, 0, corrupt)
        expect(code != 0 and not result["correct"],
               "%s fails when its %s check sees a corrupted reference" % (
                   workload, corrupt))

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
