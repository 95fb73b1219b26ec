#!/usr/bin/env python3
"""Benchmark self-test: a tiny-size pass of every workload.

    python3 perfbench/selftest.py

Runs each workload at --size tiny, untraced and traced, at the reference seed
(so the recorded digests are checked too). Asserts that the result line has
exactly the keys correct/attempted/failed/metrics, that every result check
passed, that every metric BENCHMARK.json names for the mode is printed (as a
`metric` line and in the JSON) with its unit and nothing else is, and that
no end-to-end metric reads 0. Also checks that the benchmark refuses to run
with a GPUREL_* override set. Exits 0 when everything holds.
"""
import json
import os
import subprocess
import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run  # noqa: E402

SEED = 1


def check_run(spec, binary, workload, trace):
    code, out = run.run_workload(binary, workload, SEED, 1, trace,
                                 size="tiny", capture=True)
    if code != 0:
        return [f"exit code {code}"]
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"checks: correct={result['correct']} "
                        f"attempted={result['attempted']} failed={result['failed']}")
    expected = spec["per_layer" if trace else "end_to_end"]
    printed = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] == "metric" and len(parts) == 4:
            printed[parts[1]] = parts[3]
    for m in expected:
        got = result["metrics"].get(m["name"])
        if got is None or set(got) != {"value", "unit"}:
            problems.append(f"{m['name']}: missing or malformed in the result")
            continue
        if got["unit"] != m["unit"] or printed.get(m["name"]) != m["unit"]:
            problems.append(f"{m['name']}: unit {got['unit']!r}/"
                            f"{printed.get(m['name'])!r}, want {m['unit']!r}")
        if not isinstance(got["value"], (int, float)):
            problems.append(f"{m['name']}: value is not a number")
        elif not trace and got["value"] == 0:
            problems.append(f"{m['name']}: end-to-end metric reads 0")
    extra = set(result["metrics"]) - {m["name"] for m in expected}
    if extra:
        problems.append(f"unlisted metrics {sorted(extra)}")
    return problems


def check_refuses_env(binary):
    env = dict(run.clean_env(), GPUREL_CACHE=str(run.BUILD / "stale-cache"))
    proc = subprocess.run(
        [str(binary), "--workload", "study-cold", "--seed", "1", "--seconds",
         "1", "--size", "tiny", "--work-dir", str(run.BUILD / "refuse-test")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=run.RUN_TIMEOUT_S)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["ran with GPUREL_CACHE set"]
    return []


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    binary = run.build()
    failed = False
    for workload in run.WORKLOADS:
        for trace in (False, True):
            problems = check_run(spec, binary, workload, trace)
            tag = f"{workload} --trace {int(trace)}"
            print(f"selftest: {tag}: {'ok' if not problems else 'FAILED'}")
            for p in problems:
                print(f"  {p}")
            failed |= bool(problems)
    problems = check_refuses_env(binary)
    print(f"selftest: refuses GPUREL_* overrides: {'ok' if not problems else 'FAILED'}")
    failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
