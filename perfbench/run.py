#!/usr/bin/env python3
"""cyclelift benchmark harness.

Run from the root of a cyclelift checkout:

    python3 perfbench/run.py --workload cycle-charts --seed 1 --seconds 20 --trace 0

One worker interpreter runs the workload's jobs through ``cyclelift.cli.main``
in a closed loop with a single client: each job starts after the previous
one returned and its output was checked.  A run repeats whole rounds (see
workloads.py) until ``--seconds`` have passed, then prints a summary and, as
its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
the per-layer ones with ``--trace 1``.  In a traced run every round runs
twice on the same inputs, once traced and once not, in alternating order;
the ratio of the two times is ``trace.overhead``.

Results and traces are written under ``.perfbench_out/`` in the checkout.
The exit code is 0 when every job passed its checks, except the known-fault
jobs, and 1 otherwise; 2 when there is no program to run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
OUT_DIR = ".perfbench_out"


class Worker:
    """A worker interpreter (worker.py) and its JSON-lines pipe."""

    def __init__(self, src: str, work: str, env: dict, probe: bool = False):
        argv = [sys.executable, os.path.join(HERE, "worker.py"), src, work]
        if probe:
            argv.append("--probe")
        start = perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env
        )
        if self.proc.stdout.readline() != "ready\n":
            self.close()
            raise RuntimeError("worker failed to import cyclelift.cli")
        self.setup_s = perf_counter() - start

    def call(self, msg: dict) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited unexpectedly")
        return json.loads(line)

    def close(self) -> None:
        try:
            if self.proc.stdin and not self.proc.stdin.closed:
                self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def measure_setup(src: str, work: str, env: dict) -> float:
    """Median time from starting an interpreter until cyclelift.cli is
    imported, over several fresh interpreters (after one uncounted start
    that fills the bytecode cache)."""
    times = []
    for i in range(SETUP_PROBES + 1):
        probe = Worker(src, work, env, probe=True)
        probe.close()
        if i:
            times.append(probe.setup_s)
    return statistics.median(times)


def write_series(path: str, max_exponent: int, coeffs: dict) -> None:
    entries = ", ".join(f'{{"n": {n}, "c": "{c}"}}' for n, c in sorted(coeffs.items()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"max_exponent": {max_exponent}, "coeffs": [{entries}]}}')


class Run:
    """The jobs of one run, their check outcomes and self-test findings."""

    def __init__(self, work: str):
        self.work = work
        self.records = []  # one per job run
        self.unexpected = []  # (argv, problems) of non-fault jobs that failed
        self.faults = {}  # fault name -> [times failed, last problem]
        self.selftested = set()
        self.selftest_problems = []

    def run_job(self, worker: Worker, job: dict, traced: bool, rnd: int) -> float:
        argv = job["argv"]
        if "series" in job:
            path, max_exponent, coeffs = job["series"]
            write_series(os.path.join(self.work, path), max_exponent, coeffs)
        out_file = None
        if "--out" in argv:
            out_file = os.path.join(self.work, argv[argv.index("--out") + 1])
            if os.path.exists(out_file):
                os.remove(out_file)
        result = worker.call({"op": "job", "argv": argv})
        if out_file and os.path.exists(out_file):
            with open(out_file, encoding="utf-8") as fh:
                result["file"] = fh.read()
        else:
            result["file"] = None
        problems = checks.check_job(job, result)
        rec = {
            "round": rnd,
            "traced": traced,
            "kind": job["kind"],
            "argv": argv,
            "secs": result["secs"],
            "failed": bool(problems),
            "bytes": result["bytes"],
            "trace": result["trace"],
        }
        if not problems and job["kind"] == "verify":
            rec["checked"] = json.loads(result["out"])["checked"]
        if not problems and job["kind"] == "cycle":
            rec["vertical"] = len(json.loads(result["out"])["vertical"])
        self.records.append(rec)
        if problems:
            if job["fault"] is None:
                self.unexpected.append((argv, problems))
            else:
                entry = self.faults.setdefault(job["fault"], [0, ""])
                entry[0] += 1
                entry[1] = problems[0]
        else:
            kind = "lift" if "series" in job else job["kind"]
            if kind not in self.selftested and job["fault"] is None:
                self.selftested.add(kind)
                self.selftest_problems += checks.self_test(job, result)
        return result["secs"]

    def run_round(self, worker: Worker, jobs: list, traced: bool, rnd: int) -> float:
        worker.call({"op": "trace", "on": traced})
        return sum(self.run_job(worker, job, traced, rnd) for job in jobs)


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latencies(records: list, kind: str | None = None) -> list:
    """Job times in seconds; a failed job ranks above every success."""
    return [math.inf if r["failed"] else r["secs"]
            for r in records if kind is None or r["kind"] == kind]


def end_to_end(run: Run, round_secs: list, setup_s: float, peak_rss_mb: float):
    recs = run.records
    verify = [r for r in recs if "checked" in r]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(round_secs),
        "checks_per_s": sum(r["checked"] for r in verify) / sum(r["secs"] for r in verify),
        "job_p50_ms": 1000 * statistics.median(latencies(recs)),
        "peak_rss_mb": peak_rss_mb,
    }
    # Per-workload figures with no counterpart on the other workloads; they
    # are printed and saved but not gated.
    extra = {}
    cycles = latencies(recs, "cycle")
    if cycles:
        extra["cycle_p50_ms"] = 1000 * statistics.median(cycles)
        if len(cycles) >= 100:
            extra["cycle_p90_ms"] = 1000 * percentile(cycles, 0.9)
        ok = [r for r in recs if "vertical" in r]
        extra["cycle_vertices_per_s"] = (
            sum(r["vertical"] for r in ok) / sum(r["secs"] for r in ok))
        extra["cycle_jobs"] = len(cycles)
    lifts = latencies(recs, "lift")
    if lifts:
        extra["lift_p50_ms"] = 1000 * statistics.median(lifts)
        extra["lift_jobs"] = len(lifts)
    return metrics, extra


def per_layer(run: Run, traced_secs: float, plain_secs: float, rounds: int):
    spans: dict = {}
    counts: dict = {}
    for r in run.records:
        if r["trace"] is None:
            continue
        for name, (calls, incl, self_s) in r["trace"]["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        for name, value in r["trace"]["counts"].items():
            counts[name] = counts.get(name, 0) + value
        counts["cli.emit.bytes"] = counts.get("cli.emit.bytes", 0) + r["bytes"]
    metrics = tracing.layer_metrics(spans, counts, rounds)
    metrics["trace.overhead"] = traced_secs / plain_secs
    return metrics, tracing.module_calls(spans, counts, rounds)


def load_benchmark(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cyclelift", "cli.py")):
        print(f"no cyclelift sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = load_benchmark(root)
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(root, OUT_DIR)
    work = os.path.join(out_dir, f"work-{tag}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    worker = None
    try:
        with open(os.path.join(work, workloads.FAULT_LIFT_PATH), "w", encoding="utf-8") as fh:
            json.dump({"max_exponent": 4, "coeffs": [{"n": 0, "c": "1/0"}]}, fh)
        setup_s = measure_setup(src, work, env)
        worker = Worker(src, work, env)
        run = Run(work)
        round_secs, traced_secs, plain_secs = [], 0.0, 0.0
        start = perf_counter()
        rnd = 0
        while rnd == 0 or perf_counter() - start < args.seconds:
            jobs = workloads.jobs_for_round(args.seed, args.workload, rnd)
            if args.trace:
                order = (False, True) if rnd % 2 == 0 else (True, False)
                for traced in order:
                    secs = run.run_round(worker, jobs, traced, rnd)
                    if traced:
                        traced_secs += secs
                    else:
                        plain_secs += secs
            else:
                round_secs.append(run.run_round(worker, jobs, False, rnd))
            rnd += 1
        elapsed = perf_counter() - start
        peak_rss_mb = worker.call({"op": "exit"})["peak_rss_mb"]
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, modules = per_layer(run, traced_secs, plain_secs, rnd)
        extra = {"module_calls_per_round": modules}
    else:
        metrics, extra = end_to_end(run, round_secs, setup_s, peak_rss_mb)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"harness does not compute {missing}")

    attempted = len(run.records)
    failed = sum(r["failed"] for r in run.records)
    correct = not run.unexpected and not run.selftest_problems
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{rnd} rounds, {attempted} jobs, {failed} failed, {elapsed:.1f} s")
    for name, (times, problem) in sorted(run.faults.items()):
        print(f"  known fault {name}: failed {times} times: {problem}")
    for job_argv, problems in run.unexpected[:20]:
        print(f"  FAILED {' '.join(job_argv)}: {'; '.join(problems)}")
    for desc in run.selftest_problems:
        print(f"  SELF-TEST: a checker accepted an altered output ({desc})")
    for name in units:
        print(f"  {name:48s} {metrics[name]:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"  {name:48s} {value}   (not gated)")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, extra=extra, all_metrics=metrics, round_secs=round_secs,
                       rounds=rnd, jobs=[[r["round"], r["traced"], " ".join(r["argv"]),
                                          r["secs"], r["failed"]] for r in run.records]),
                  fh, indent=1)
    if args.trace:
        jobs = [{k: r[k] for k in ("round", "traced", "argv", "secs", "trace")}
                for r in run.records if r["traced"]]
        with open(os.path.join(out_dir, f"trace-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump(jobs, fh)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
