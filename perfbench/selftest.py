#!/usr/bin/env python3
"""Self-test of the output checkers.

Run from the root of a cyclelift checkout:

    python3 perfbench/selftest.py

Runs one small job of each kind (a verify sweep, a cycle decomposition, a
lift) through ``cyclelift.cli.main`` in this process, checks that the real
output passes its checker, and that the checker rejects each deliberately
altered copy: one wrong multiplicity, one wrong lift coefficient, one short
``checked``.  Exits 0 when all hold.  The benchmark repeats the same
alterations on the first passing job of each kind in every run.
"""

from __future__ import annotations

import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import write_series  # noqa: E402
from worker import run_job  # noqa: E402


def sample_jobs() -> list:
    rng = random.Random(0)
    verify = workloads.verify_job(
        ["r-formula", "--p", "5", "--delta", "-2", "--count", "2", "--radius", "3"],
        {"sweep": "r-formula", "p": 5, "count": 2, "radius": 3})
    cycle = workloads.random_cycle_job(rng, 5, 3, 0)
    lift = next(j for j in workloads.series_identity(rng) if "series" in j)
    path, _, coeffs = lift["series"]
    lift["series"] = (path, 2000, {n: c for n, c in coeffs.items() if n <= 2000})
    return [verify, cycle, lift]


def main() -> int:
    import cyclelift.cli as cli

    failures = []
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as work:
        os.chdir(work)
        for job in sample_jobs():
            if "series" in job:
                write_series(*job["series"])
            result = run_job(cli, job["argv"], None)
            if "--out" in job["argv"]:
                with open(job["argv"][job["argv"].index("--out") + 1], encoding="utf-8") as fh:
                    result["file"] = fh.read()
            problems = checks.check_job(job, result)
            if problems:
                failures.append(f"{' '.join(job['argv'])}: real output rejected: {problems}")
                continue
            altered = list(checks.altered_outputs(job, result))
            for desc, bad in altered:
                verdict = checks.check_job(job, bad)
                print(f"{desc:24s} rejected: {'; '.join(verdict) if verdict else 'NO'}")
                if not verdict:
                    failures.append(f"{desc} accepted")
            if not altered:
                failures.append(f"no alteration made for {job['kind']}")
        os.chdir(os.path.dirname(work))
    for line in failures:
        print("FAIL", line)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
