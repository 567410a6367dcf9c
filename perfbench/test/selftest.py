#!/usr/bin/env python3
"""Self-test of the repository benchmark.

1. BENCHMARK.json lists exactly the metrics, with the units, that
   perfbench/run.py reports.
2. The output check can fail. perfbench/run.py runs one repetition of a
   simulator workload and of rt-saturate, first as is and then with its
   reference counted over the input minus one joining tuple
   (--drop-one-tuple). The plain runs must pass; the others must report
   failed_share = 1 (every repetition failed), "correct": false, and
   exit non-zero.

Usage, from the root of the repository (builds perfbench first, as the
benchmark does):

    python3 perfbench/test/selftest.py
"""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN_PY = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("sim-relocate", "rt-saturate")


def metric_tables_match():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    run_py = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_py)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    failures = []
    for key, table in (("end_to_end", run_py.END_TO_END),
                       ("per_layer", run_py.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in declared[key]}
        if listed != table:
            failures.append("BENCHMARK.json %s differs from run.py: %s" %
                            (key, sorted(set(listed.items()) ^
                                         set(table.items()))))
    return failures


def run(workload, drop_one_tuple):
    args = [sys.executable, RUN_PY, "--workload", workload, "--seconds", "1"]
    if drop_one_tuple:
        args.append("--drop-one-tuple")
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def output_check_can_fail():
    failures = []
    for workload in WORKLOADS:
        code, result = run(workload, drop_one_tuple=False)
        if code != 0 or not result["correct"] or result["failed"] != 0:
            failures.append("%s: plain run did not pass (exit %d, %s)" %
                            (workload, code, result))
        code, result = run(workload, drop_one_tuple=True)
        share = result["failed"] / result["attempted"]
        if code == 0 or result["correct"] or share != 1:
            failures.append("%s: check passed a wrong reference (exit %d, "
                            "failed_share %g)" % (workload, code, share))
        print("%s: plain run passes; wrong reference gives failed_share %g, "
              "exit %d" % (workload, share, code))
    return failures


def main():
    failures = metric_tables_match() + output_check_can_fail()
    for failure in failures:
        print("FAIL " + failure)
    print("PASS" if not failures else "FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
