"""Regenerate reference.json: artifact summaries at the default seed.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run from the root of a checkout whose outputs are known to be right.  A
change that alters the estimator's numbers on purpose regenerates the
file as a change to the benchmark of its own.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import checks
import worker

RTOL = 1e-6
STUDY_CALLS = 16    # more simulate calls than a 20 s run makes at the seed commit


def main() -> int:
    out = {"seed": worker.DEFAULT_SEED, "rtol": RTOL, "workloads": {}}
    for w in worker.WORKLOADS.values():
        work = tempfile.mkdtemp(prefix=f"ref-{w.name}-", dir=os.getcwd())
        try:
            worker.setup(w, work, worker.DEFAULT_SEED)
            count = w.datasets if w.kind == "estimate" else STUDY_CALLS
            records = worker.timed_pass(w, work, worker.DEFAULT_SEED, "R",
                                        calls=count)
            summarise = (checks.estimate_summary if w.kind == "estimate"
                         else checks.study_summary)
            entries = {}
            for rec in records:
                if rec["code"] != 0:
                    raise SystemExit(f"{w.name} call {rec['k']} exited {rec['code']}")
                entries[str(rec["k"])] = summarise(rec["out"])
            out["workloads"][w.name] = entries
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{w.name}: {len(entries)} entries", file=sys.stderr)
    with open(worker.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
