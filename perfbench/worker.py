"""One benchmark process: import qsinglet from the checkout, warm up, then run
one workload closed-loop through the CLI's own entry point.

    python3 perfbench/worker.py --mode {setup,measure,trace} --workload W \
        --seed S --seconds T --work DIR [--spans PATH]

``setup`` stops after the warm-up operation; ``measure`` runs whole cycles of
the workload untraced until ``T`` seconds have passed; ``trace`` runs cycles
untraced for ``T/2`` seconds plus one small operation of every protocol, and
then the same operations again with spans on.
Every operation's report is checked against the oracle outside the timed
region. The last stdout line is one JSON object with the results.
"""

import argparse
import ctypes
import glob
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

# set-up time starts here: the import of qsinglet, not the harness's own
STARTED = time.perf_counter()

import qsinglet.cli  # noqa: E402

IMPORT_S = time.perf_counter() - STARTED

import numpy as np  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
from spans import Tracer  # noqa: E402


class Runner:
    """Runs operations one at a time and checks each report."""

    def __init__(self, work: str, digests: dict):
        self.config_path = os.path.join(work, "config.json")
        self.out_path = os.path.join(work, "report.json")
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, config: dict, digest: str | None = None):
        """Time one ``qsinglet run`` and check its report, and its digest when
        one is given; returns (seconds, report bytes)."""
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        start = time.perf_counter()
        try:
            status = qsinglet.cli.main(["run", "--config", self.config_path, "--out", self.out_path])
        except (Exception, SystemExit) as exc:  # a traceback is a failed operation
            status = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        self.attempted += 1
        try:
            with open(self.out_path, "rb") as fh:
                raw = fh.read()
            report = json.loads(raw)
        except (OSError, ValueError) as exc:
            raw, report = b"", None
            self._fail(config, [f"no readable report ({exc}); status {status}"])
        if report is not None:
            problems = oracle.check_report(config, status, report)
            if digest is not None and oracle.digest(report) != digest:
                problems.append("histogram, estimate or gate_uses differ from the recorded digest")
            if problems:
                self._fail(config, problems)
        return seconds, len(raw)

    def run_golden(self, workload: str, index: int) -> float:
        entry = self.digests[workload][index]
        return self.run(entry["config"], entry["digest"])[0]

    def _fail(self, config, problems):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append({"config": config, "problems": problems})


def environment() -> dict:
    """Interpreter, numpy and BLAS versions, CPU count and BLAS thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_cycles(runner, stream, seconds):
    """Whole cycles until ``seconds`` of wall time have passed (at least one).
    Returns per-operation seconds and the number of cycles run."""
    times, count = [], 0
    start = time.perf_counter()
    for cycle in stream:
        times += [runner.run(config)[0] for config in cycle]
        count += 1
        if time.perf_counter() - start >= seconds:
            break
    return times, count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spans", help="where the trace mode writes its spans")
    args = parser.parse_args(argv)

    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        digests = json.load(fh)
    os.makedirs(args.work, exist_ok=True)
    runner = Runner(args.work, digests)
    # set-up: importing qsinglet plus the first (warm-up) operation
    result = {"setup_s": IMPORT_S + runner.run_golden(args.workload, 0)}

    if args.mode != "setup":
        stream = gen.cycles(args.workload, args.seed)
        if args.mode == "measure":
            times, _ = run_cycles(runner, stream, args.seconds)
            result.update({
                "operations": len(times),
                "runs_per_s": len(times) / sum(times),
                "run_ms_p50": 1e3 * statistics.median(times),
                "run_ms_p90": 1e3 * statistics.quantiles(times, n=10)[-1] if len(times) > 1 else None,
            })
        else:
            plain, count = run_cycles(runner, stream, args.seconds / 2)
            plain += [runner.run(config)[0] for config in gen.COVERAGE]
            # the same operations again: the stream restarts from the seed
            again = itertools.islice(gen.cycles(args.workload, args.seed), count)
            tracer = Tracer()
            tracer.install()
            try:
                traced = []
                size = 0
                for index, config in enumerate(itertools.chain(*again, gen.COVERAGE)):
                    tracer.operation = index
                    dt, nbytes = runner.run(config)
                    traced.append(dt)
                    size += nbytes
            finally:
                tracer.uninstall()
            result["operations"] = len(traced)
            result["per_layer"] = tracer.per_layer(len(traced), sum(traced), sum(plain), size)
            result["absent"] = tracer.absent
            if args.spans:
                tracer.write(args.spans)
        for index in range(1, len(digests[args.workload])):
            runner.run_golden(args.workload, index)

    result.update({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
