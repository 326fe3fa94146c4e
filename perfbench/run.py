"""qsinglet benchmark: end-to-end and per-layer metrics of ``qsinglet run``.

    python3 perfbench/run.py --workload dpe-sweep --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; qsinglet is imported from its ``src/``.
Each operation is one in-process call of ``qsinglet.cli.main(["run", ...])``
on a generated config, driven closed-loop by one client. Each workload runs
in fresh worker processes, so peak memory and set-up time are its own:

- ``--trace 0``: one measuring process between two batches of eight set-up
  probes (import plus one warm-up operation), so the probes span the run's
  whole window; prints ``setup_s`` (median of the seventeen set-ups),
  ``runs_per_s`` and ``peak_rss_mb``, and ``run_ms_p50`` and ``run_ms_p90``
  on the summary lines only: they are not gated (see README.md).
- ``--trace 1``: one process that runs the workload untraced and then the same
  operations traced; prints the per-layer metrics of ``spans.py`` and writes
  the spans to ``perfbench/out/``.

Every operation is checked against ``oracle.py``; the last stdout line is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
BLAS runs on one thread in the workers: one client on a shared two-core
machine gives steadier figures than a thread pool contending with it.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from spans import per_layer_names

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dpe-sweep", "protocol-mix", "shots-heavy")
SETUP_PROBES = 16
# the whole run, set-up probes included, must end within three minutes
DEADLINE_S = 170.0
UNITS = {"runs_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def src_lines() -> int:
    """Lines of Python under src/, the size ROADMAP tracks beside the numbers."""
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


class Worker:
    """Starts worker processes and waits for each, within the run's deadline."""

    def __init__(self, workload: str, seed: int, seconds: float, work: str):
        self.args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, **WORKER_ENV)

    def __call__(self, mode: str, *extra: str) -> dict:
        command = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
                   "--work", os.path.join(self.work, mode), *self.args, *extra]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RuntimeError("no time left for another worker process")
        proc = subprocess.run(command, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in fresh processes and return its result object."""
    work = os.path.join(HERE, "work", f"{workload}-{os.getpid()}")
    worker = Worker(workload, seed, seconds, work)
    try:
        if trace:
            spans = os.path.join(HERE, "out", f"spans-{workload}-seed{seed}.tsv")
            runs = [worker("trace", "--spans", spans)]
        else:
            before = [worker("setup") for _ in range(SETUP_PROBES // 2)]
            measured = worker("measure")
            after = [worker("setup") for _ in range(SETUP_PROBES - len(before))]
            runs = before + after + [measured]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    main = runs[-1]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if trace:
        metrics = {name: {"value": main["per_layer"][name], "unit": unit}
                   for name, unit, _ in per_layer_names()}
    else:
        values = {
            "runs_per_s": main["runs_per_s"],
            "peak_rss_mb": main["peak_rss_mb"],
            "setup_s": statistics.median(r["setup_s"] for r in runs),
        }
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "context": {
            "operations": main["operations"],
            "setup_samples": len(runs),
            "run_ms_p50": main.get("run_ms_p50"),
            "run_ms_p90": main.get("run_ms_p90"),
            "absent": main.get("absent", []),
            "problems": [p for r in runs for p in r["problems"]][:5],
            "env": dict(main["env"], src_lines=src_lines()),
        },
    }


def summary(workload: str, result: dict) -> list:
    """Human-readable lines: every metric with its unit and sample count."""
    ctx = result["context"]
    ops = ctx["operations"]
    samples = {"setup_s": ctx["setup_samples"], "peak_rss_mb": 1}
    lines = [f"# {workload}: correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']} failed_frac={result['failed'] / result['attempted']:.4g}"]
    for name, metric in result["metrics"].items():
        lines.append(f"#   {name} = {metric['value']:.6g} {metric['unit']} (n={samples.get(name, ops)})")
    if ctx["run_ms_p50"] is not None:
        lines.append(f"#   run_ms_p50 = {ctx['run_ms_p50']:.6g} ms (n={ops}; not gated)")
    if ctx["run_ms_p90"] is not None:
        note = "" if ops >= 100 else "; fewer than 100 operations"
        lines.append(f"#   run_ms_p90 = {ctx['run_ms_p90']:.6g} ms (n={ops}{note}; not gated)")
    if ctx["absent"]:
        lines.append(f"#   absent from the program: {', '.join(ctx['absent'])}")
    for problem in ctx["problems"]:
        lines.append(f"#   FAILED {json.dumps(problem)}")
    lines.append(f"#   env {json.dumps(ctx['env'], sort_keys=True)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qsinglet benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qsinglet", "cli.py")):
        print(f"error: no qsinglet sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            print("\n".join(summary(workload, results[workload])), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results.values():
        del result["context"]
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
