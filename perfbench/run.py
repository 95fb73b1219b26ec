#!/usr/bin/env python3
"""Build the gpurel benchmark from source and run one workload.

    python3 perfbench/run.py --workload study-cold --seed 7 --seconds 20 --trace 0

Run from the repository root. The library and the benchmark are built in
Release mode under .bench_build/perfbench (the first run configures and
builds; later runs only rebuild what changed). The benchmark binary prints
every metric by name with its unit and, as its last line, one JSON result
object; this script passes that output through and exits with its code.

Extra flags: --size tiny (the self-test size), --ledger FILE (append the
result, tagged with workload, seed and trace mode, to a JSON Lines ledger that
perfbench_compare reads).
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("study-cold", "study-warm", "beam-sweep", "campaign-fork")
RUN_TIMEOUT_S = 170


def clean_env():
    """The child environment without GPUREL_* overrides (cache, trace,
    telemetry, metrics, workers), so every run sees exactly its configs."""
    return {k: v for k, v in os.environ.items() if not k.startswith("GPUREL_")}


def build(target="perfbench"):
    """Configure once, then build `target`; returns the binary path. Build
    output goes to stderr so stdout stays the benchmark's own."""
    env = clean_env()
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)
    return BUILD / target


def run_workload(binary, workload, seed, seconds, trace, size="full",
                 record=None, capture=False,
                 references=HERE / "references.json"):
    """Run one workload; returns (exit code, stdout text or None)."""
    work = BUILD / f"work-{os.getpid()}-{workload}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--size", size, "--work-dir", str(work)]
    if references:
        cmd += ["--references", str(references)]
    if record:
        cmd += ["--record", str(record)]
    proc = subprocess.run(cmd, env=clean_env(), timeout=RUN_TIMEOUT_S,
                          stdout=subprocess.PIPE if capture else None,
                          text=True)
    return proc.returncode, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--ledger")
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    code, out = run_workload(binary, args.workload, args.seed, args.seconds,
                             bool(args.trace), args.size,
                             capture=bool(args.ledger))
    if out is not None:
        sys.stdout.write(out)
        sys.stdout.flush()
    if code == 0 and args.ledger:
        result = json.loads(out.strip().splitlines()[-1])
        with open(args.ledger, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "size": args.size,
                                "result": result}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
