"""Print one sha256 per protocol over the reports ``qsinglet run`` writes for a fixed set of configs.

    PYTHONPATH=src python tests/report_digest.py

Runs ``cli.main(["run", ...])`` in process on each config with ``cli._meta``
pinned to a constant, and hashes every config with its exit status, its
stderr text and its report's bytes. Each line reads::

    <protocol> <sha256> <configs> configs (exit 0: <count>, exit 1: <count>)

with one line per config ``protocol``, in name order, and a last ``all``
line over every config in run order. Lines compare one by one:

- across checkouts: a change that must not move a report byte prints the
  same lines before and after it; run this file once with ``PYTHONPATH`` on
  each checkout's ``src/`` and ``diff`` the two outputs;
- across environments: CI runs it by default, under
  ``OPENBLAS_CORETYPE=Prescott`` and with numpy's SIMD dispatch disabled, and
  fails when the pm1, square-trick, quartet or qudit-minus-one line differs.
  Those four read their reports off scalar closed forms. The double-pe,
  known-phases and tomography lines, and so ``all``, may still move with the
  BLAS kernel or the SIMD path (ROADMAP item 2), so CI prints them ungated.

The configs are:

- ``gen.GOLDEN`` of every workload;
- dpe-sweep seeds 1, 2, 3 and 8, two cycles each;
- protocol-mix seeds 1 to 4, ten cycles each;
- double-pe at n = 1..10, on and off the n-bit grid and with two phases one
  grid step apart, at 0, 1 and 1000 shots;
- each of ``gen.INVALID_KINDS`` three times.

The configs come from ``perfbench/gen.py``, which this only imports. pytest
does not collect this file.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

from qsinglet import cli  # noqa: E402


def configs() -> list:
    """The configs, in a fixed order."""
    picked = [c for golden in gen.GOLDEN.values() for c in golden]
    streams = (("dpe-sweep", (1, 2, 3, 8), 2), ("protocol-mix", (1, 2, 3, 4), 10))
    for workload, seeds, count in streams:
        for seed in seeds:
            for cycle in itertools.islice(gen.cycles(workload, seed), count):
                picked += cycle
    for n in range(1, 11):
        for shots in (0, 1, 1000):
            for spectrum in ("on", "off"):
                rng = np.random.default_rng([n, ("on", "off").index(spectrum), shots])
                picked.append(gen.double_pe_config(rng, n, spectrum, shots))
            # two phases one grid step apart, 0.45 of a step off the grid
            size = 2 ** n
            phases = [gen.TWO_PI * (k + 0.45) / size for k in (size // 3, size // 3 + 1)]
            picked.append({"protocol": "double-pe", "gate": {"dim": 2, "phases": phases, "seed": n},
                           "shots": shots, "seed": n, "params": {"n": n}})
    for kind in gen.INVALID_KINDS:
        for seed in range(3):
            picked.append(gen.invalid_config(np.random.default_rng(seed), kind, 100))
    return picked


def main() -> int:
    cli._meta = lambda: {"tool": "qsinglet", "version": "pinned", "timestamp": "pinned"}
    digests = collections.defaultdict(hashlib.sha256)
    statuses = collections.defaultdict(collections.Counter)
    with tempfile.TemporaryDirectory() as tmp:
        config_path, report_path = Path(tmp, "config.json"), Path(tmp, "report.json")
        for config in configs():
            config_path.write_text(json.dumps(config, sort_keys=True))
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                status = cli.main(["run", "--config", str(config_path), "--out", str(report_path)])
            record = (config_path.read_bytes() + b"\0%d\0" % status + stderr.getvalue().encode()
                      + b"\0" + report_path.read_bytes() + b"\0")
            for group in (config["protocol"], "all"):
                digests[group].update(record)
                statuses[group][status] += 1
    width = max(map(len, digests))
    for group in sorted(digests, key=lambda g: (g == "all", g)):
        tally = ", ".join(f"exit {s}: {c}" for s, c in sorted(statuses[group].items()))
        count = sum(statuses[group].values())
        print(f"{group:<{width}}  {digests[group].hexdigest()}  {count} configs ({tally})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
