"""Seeded config generator for the benchmark workloads.

The benchmark hands the program nothing but what this module emits: run
configs in the same JSON shape a user writes for ``qsinglet run``. A workload
is an endless stream of cycles. Every cycle holds the same fixed mix of
config kinds (protocol, size, spectrum class, shot count) in a fixed order; the
seed only picks the gates, the sampling seeds and the invalid-config kind.
Metrics taken over whole cycles therefore compare across seeds. The order is
fixed because it matters: on dpe-sweep, n = 8 runs are slower until an n = 10
run has grown the allocator's reuse threshold past their array sizes.

    python3 perfbench/gen.py --workload dpe-sweep --seed 3 --cycles 1 --out DIR

writes one numbered config file per operation into DIR.
"""

from __future__ import annotations

import argparse
import json
import math
import os

import numpy as np

TWO_PI = 2.0 * math.pi
SEED_LIMIT = 2 ** 31
# smallest gap between two off-grid eigenphases; keeps the spectra far from
# the degenerate range where the 2x2 eigensolver loses digits
MIN_PHASE_GAP = 0.3

WORKLOADS = ("dpe-sweep", "protocol-mix", "shots-heavy")

# dpe-sweep: (n, spectrum, shots, count). Half on the n-bit grid, half off
# it, most at shots = 0; the two n = 10 runs carry most of the cycle's time.
# The twelve on-grid n = 8 runs are the median operation whatever the seed:
# every n = 6 run is faster and every other run slower, so run_ms_p50 is a
# median-rank statistic over a block of dense-kernel runs of one size.
DPE_SWEEP = (
    (10, "on", 0, 1), (10, "off", 0, 1),
    (8, "on", 0, 10), (8, "on", 1000, 2), (8, "off", 0, 2), (8, "off", 1000, 1),
    (6, "on", 0, 1), (6, "on", 1000, 1), (6, "off", 0, 9), (6, "off", 1000, 2),
)

# protocol-mix: (protocol, size, shots); one slot per cycle is invalid
PROTOCOL_MIX = (
    ("pm1", None, 0), ("pm1", None, 1), ("pm1", None, 1000),
    ("square-trick", None, 0), ("square-trick", None, 100), ("square-trick", None, 1000),
    ("known-phases", None, 0), ("known-phases", None, 100), ("known-phases", None, 1000),
    ("quartet", None, 0), ("quartet", None, 1), ("quartet", None, 100),
    ("qudit-minus-one", 2, 100), ("qudit-minus-one", 3, 0),
    ("qudit-minus-one", 4, 1000), ("qudit-minus-one", 5, 1),
    ("tomography", None, 1), ("tomography", None, 100), ("tomography", None, 1000),
    ("invalid", None, 100),
)

INVALID_KINDS = (
    "pm1-spectrum", "quartet-spectrum", "known-phases-mismatch", "qudit-spectrum",
    "qudit-too-large", "unknown-param", "negative-shots",
)

MEGA_SHOTS = 1_000_000

# shots-heavy: every sampled protocol at 10^6 shots; tomography is the control
SHOTS_HEAVY = (
    ("pm1", None), ("square-trick", None), ("known-phases", None), ("quartet", None),
    ("qudit-minus-one", 2), ("qudit-minus-one", 3), ("qudit-minus-one", 4),
    ("qudit-minus-one", 5), ("double-pe", 3), ("tomography", None),
)


def _config(protocol, dim, phases, rng, shots, params=None) -> dict:
    return {
        "protocol": protocol,
        "gate": {
            "dim": dim,
            "phases": [float(p) for p in phases],
            "seed": int(rng.integers(SEED_LIMIT)),
        },
        "shots": shots,
        "seed": int(rng.integers(SEED_LIMIT)),
        "params": params or {},
    }


def _two_phases(rng, gap=MIN_PHASE_GAP):
    while True:
        a, b = rng.uniform(0.0, TWO_PI, size=2)
        if abs((a - b + math.pi) % TWO_PI - math.pi) >= gap:
            return float(a), float(b)


def _shuffled(rng, pair):
    return list(pair) if rng.integers(2) else list(pair)[::-1]


def double_pe_config(rng, n, spectrum, shots) -> dict:
    """Double-pe on a 2x2 gate whose phases sit on the n-bit grid or off it.

    Off-grid phases sit 0.4 to 0.5 of a grid step from the nearest grid point:
    how many joint entries clear the 1e-12 floor, and so the cost of ranking
    them, grows with that offset and would otherwise vary with the seed.
    """
    size = 2 ** n
    k1, k2 = (int(k) for k in rng.choice(size, size=2, replace=False))
    if spectrum == "on":
        offsets = (0.0, 0.0)
    else:
        offsets = rng.uniform(0.4, 0.5, size=2) * rng.choice((-1.0, 1.0), size=2)
    phases = [TWO_PI * (k + float(off)) / size for k, off in zip((k1, k2), offsets)]
    return _config("double-pe", 2, phases, rng, shots, {"n": n})


def protocol_config(rng, protocol, size, shots) -> dict:
    """A valid config of one of the single-shot protocols or tomography."""
    if protocol == "pm1":
        return _config(protocol, 2, _shuffled(rng, (0.0, math.pi)), rng, shots)
    if protocol == "square-trick":
        return _config(protocol, 2, _shuffled(rng, (0.0, math.pi / 2)), rng, shots)
    if protocol == "quartet":
        k1, k2 = rng.choice(4, size=2, replace=False)
        return _config(protocol, 2, [math.pi / 2 * int(k1), math.pi / 2 * int(k2)], rng, shots)
    if protocol == "known-phases":
        t1, t2 = _two_phases(rng)
        return _config(protocol, 2, _shuffled(rng, (t1, t2)), rng, shots,
                       {"theta1": t1, "theta2": t2})
    if protocol == "qudit-minus-one":
        phases = [0.0] * (size - 1) + [math.pi]
        rng.shuffle(phases)
        return _config(protocol, size, phases, rng, shots, {"d": size})
    if protocol == "double-pe":
        return double_pe_config(rng, size, "off", shots)
    if protocol == "tomography":
        return _config(protocol, 2, _shuffled(rng, (0.0, math.pi)), rng, shots)
    raise ValueError(f"unknown protocol {protocol!r}")


def invalid_config(rng, kind, shots) -> dict:
    """A config that breaks one spectrum or config check of the program."""
    if kind == "pm1-spectrum":
        return _config("pm1", 2, [0.0, math.pi / 2], rng, shots)
    if kind == "quartet-spectrum":
        return _config("quartet", 2, list(_two_phases(rng)), rng, shots)
    if kind == "known-phases-mismatch":
        t1, t2 = _two_phases(rng, gap=1.0)
        return _config("known-phases", 2, [t1, t2 + 0.5], rng, shots,
                       {"theta1": t1, "theta2": t2})
    if kind == "qudit-spectrum":
        return _config("qudit-minus-one", 3, [0.0, math.pi, math.pi], rng, shots, {"d": 3})
    if kind == "qudit-too-large":
        return _config("qudit-minus-one", 6, [0.0] * 5 + [math.pi], rng, shots, {"d": 6})
    if kind == "unknown-param":
        return _config("pm1", 2, [0.0, math.pi], rng, shots, {"n": 3})
    if kind == "negative-shots":
        return _config("pm1", 2, [0.0, math.pi], rng, -1)
    raise ValueError(f"unknown invalid kind {kind!r}")


def _cycle(workload, rng) -> list:
    if workload == "dpe-sweep":
        ops = [double_pe_config(rng, n, spectrum, shots)
               for n, spectrum, shots, count in DPE_SWEEP for _ in range(count)]
    elif workload == "protocol-mix":
        ops = []
        for protocol, size, shots in PROTOCOL_MIX:
            if protocol == "invalid":
                kind = INVALID_KINDS[int(rng.integers(len(INVALID_KINDS)))]
                ops.append(invalid_config(rng, kind, shots))
            else:
                ops.append(protocol_config(rng, protocol, size, shots))
    elif workload == "shots-heavy":
        ops = [protocol_config(rng, p, size, MEGA_SHOTS) for p, size in SHOTS_HEAVY]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return ops


def cycles(workload: str, seed: int):
    """Endless stream of config cycles; the same (workload, seed) gives the same stream."""
    rng = np.random.default_rng([WORKLOADS.index(workload), int(seed)])
    while True:
        yield _cycle(workload, rng)


# Fixed reference configs per workload. Their reports' histogram, estimate and
# gate_uses digests are recorded in digests.json; the first one is also the
# warm-up operation that set-up time includes. On dpe-sweep that is an n = 3
# run: an n = 6 one swings by half with the load on a shared machine, and set-up
# time would swing with it.
GOLDEN = {
    "dpe-sweep": [
        {"protocol": "double-pe", "gate": {"dim": 2, "phases": [0.7, 2.9], "seed": 10},
         "shots": 1000, "seed": 4, "params": {"n": 3}},
        {"protocol": "double-pe", "gate": {"dim": 2, "phases": [0.7, 2.9], "seed": 11},
         "shots": 1000, "seed": 5, "params": {"n": 6}},
        {"protocol": "double-pe",
         "gate": {"dim": 2, "phases": [TWO_PI * 3 / 64, TWO_PI * 40 / 64], "seed": 12},
         "shots": 1000, "seed": 6, "params": {"n": 6}},
    ],
    "protocol-mix": [
        {"protocol": "pm1", "gate": {"dim": 2, "phases": [0.0, math.pi], "seed": 7},
         "shots": 100, "seed": 42, "params": {}},
        {"protocol": "square-trick", "gate": {"dim": 2, "phases": [math.pi / 2, 0.0], "seed": 8},
         "shots": 100, "seed": 43, "params": {}},
        {"protocol": "known-phases", "gate": {"dim": 2, "phases": [0.4, 2.2], "seed": 9},
         "shots": 100, "seed": 44, "params": {"theta1": 0.4, "theta2": 2.2}},
        {"protocol": "quartet", "gate": {"dim": 2, "phases": [math.pi, 1.5 * math.pi], "seed": 10},
         "shots": 100, "seed": 45, "params": {}},
        {"protocol": "qudit-minus-one",
         "gate": {"dim": 4, "phases": [0.0, math.pi, 0.0, 0.0], "seed": 11},
         "shots": 100, "seed": 46, "params": {"d": 4}},
        {"protocol": "tomography", "gate": {"dim": 2, "phases": [0.0, math.pi], "seed": 12},
         "shots": 100, "seed": 47, "params": {}},
    ],
    "shots-heavy": [
        {"protocol": "pm1", "gate": {"dim": 2, "phases": [math.pi, 0.0], "seed": 13},
         "shots": MEGA_SHOTS, "seed": 48, "params": {}},
        {"protocol": "qudit-minus-one",
         "gate": {"dim": 3, "phases": [0.0, 0.0, math.pi], "seed": 14},
         "shots": MEGA_SHOTS, "seed": 49, "params": {"d": 3}},
        {"protocol": "tomography", "gate": {"dim": 2, "phases": [0.0, math.pi], "seed": 15},
         "shots": MEGA_SHOTS, "seed": 50, "params": {}},
    ],
}


# One small operation of every protocol. The traced pass ends with these, so
# every traced function is reached, and timed, on every workload.
COVERAGE = GOLDEN["protocol-mix"] + GOLDEN["dpe-sweep"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycles", type=int, default=1)
    parser.add_argument("--out", required=True, help="directory for the config files")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    stream = cycles(args.workload, args.seed)
    count = 0
    for _ in range(args.cycles):
        for config in next(stream):
            with open(os.path.join(args.out, f"op{count:05d}.json"), "w", encoding="utf-8") as fh:
                json.dump(config, fh, sort_keys=True)
            count += 1
    print(f"wrote {count} configs to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
