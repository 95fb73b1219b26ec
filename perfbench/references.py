#!/usr/bin/env python3
"""Re-record perfbench/references.json for the current engine version.

    python3 perfbench/references.py

Run after a kEngineVersion bump (and only then). Runs every workload at both
sizes, untraced and traced, at the reference seed, and stores each op's
counts and digests (plus the traced runs' probe statistics) under the engine
version the binary reports. Entries of other engine versions are kept.
"""
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run  # noqa: E402

SEED = 1
SIZES = ("full", "tiny")


def main():
    binary = run.build()
    path = run.HERE / "references.json"
    refs = json.loads(path.read_text())
    record = run.BUILD / "record.json"
    engine, entry = None, {}
    for workload in run.WORKLOADS:
        for size in SIZES:
            counts, digests = {}, {}
            for trace in (False, True):
                code, _ = run.run_workload(binary, workload, SEED, 1, trace,
                                           size=size, record=record,
                                           references=None, capture=True)
                if code != 0:
                    print(f"references: {workload} {size} failed", file=sys.stderr)
                    return 1
                rec = json.loads(record.read_text())
                engine = rec["engine"]
                counts.update(rec["counts"])
                digests.update(rec["digests"])
            entry.setdefault(workload, {})[size] = {
                "counts": counts, "digests": {str(SEED): digests}}
            print(f"references: recorded {workload} {size}")
    refs[engine] = entry
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"references: wrote {engine} to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
