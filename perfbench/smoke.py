"""Smoke run of the benchmark at tiny sizes; exits 0 when it holds together.

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` with ``--smoke`` (tiny n, few
repetitions), untraced and traced, and checks that the last line has exactly
the result keys, that every output check passed, and that every metric of
the matching set in ``BENCHMARK.json`` appears with its unit.  It also checks
that the benchmark refuses to run, without a result line, from a directory
holding only ``BENCHMARK.json`` and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def check_result(done, expected):
    if done.returncode != 0:
        return [f"exit status {done.returncode}: {done.stderr.strip()[-300:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            problems.append(f"metric {name} missing")
        elif got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {name} = {got}, expected unit {unit}")
    extra = sorted(set(metrics) - set(expected))
    if extra:
        problems.append(f"unexpected metrics {extra}")
    return problems


def bare_copy_refuses():
    """The benchmark alone, without the program's sources, must not report."""
    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        done = run(bare, "test-n300-studt", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return ["benchmark ran without the program's sources"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sets = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_result(run(ROOT, workload, trace), sets[trace])
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
            for problem in problems:
                print(f"     {problem}")
    problems = bare_copy_refuses()
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok  '} bare directory refuses to run")
    for problem in problems:
        print(f"     {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
