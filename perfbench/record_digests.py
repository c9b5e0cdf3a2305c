#!/usr/bin/env python3
"""Record the SHA-256 of every output file of one pass per workload and seed.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json. ``run.py`` compares each run's digests with
the entry for its workload and seed and reports ``outputs_identical``
(null for a seed not recorded here). Re-record only when a change alters
outputs on purpose, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads

SEEDS = (*range(11), run.DEFAULT_SEED, run.HELD_OUT_SEED)


def main() -> int:
    workloads.use_checkout_source()
    work = run.WORK_DIR / "record-digests"
    digests = {}
    for workload in workloads.WORKLOADS:
        ctx = workloads.setup(workload)
        digests[workload] = {}
        for seed in SEEDS:
            shutil.rmtree(work, ignore_errors=True)
            if workload == "study":
                ctx.study_direct.clear()
                problems = workloads.prepare_study(ctx, seed, work / "direct")
            else:
                problems = []
            result = workloads.run_pass(ctx, seed, work / "pass")
            problems += result.problems
            if problems:
                print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
                return 1
            digests[workload][str(seed)] = result.digests
            print(f"{workload} seed {seed}: {len(result.digests)} files", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    payload = {"git_commit": run.git_commit(), "seeds": list(SEEDS), "digests": digests}
    (workloads.HERE / "digests.json").write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
