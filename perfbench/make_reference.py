#!/usr/bin/env python3
"""Write reference.json: every workload's outputs on the default seed.

    python3 perfbench/make_reference.py

Runs each input of each workload's pool once, refuses to write if any job
fails its checks, and stores what ``Workload.summary`` returns. Regenerate
only when a change is meant to alter the numbers, and say so in the change.
"""

import json
import sys

import numpy as np

import run


def main() -> int:
    if run.prepare() is None:
        return 2
    import workloads

    out = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    job_dir = run.RUNS / "reference" / "job"
    inputs_dir = run.RUNS / "reference" / "inputs"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(toy=False)
        pool = workload.inputs(np.random.default_rng(workloads.DEFAULT_SEED), inputs_dir)
        summaries = []
        for index, inp in enumerate(pool):
            _, result, error = run.run_job(workload, inp, job_dir)
            problems = run.job_problems(workload, inp, result, error, index, None)
            if problems:
                print(f"{name}: " + "\n".join(problems), file=sys.stderr)
                return 1
            summaries.append(workload.summary(result))
        out["workloads"][name] = summaries
        print(f"{name}: {len(summaries)} inputs")
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
