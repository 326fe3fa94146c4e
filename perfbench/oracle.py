"""Closed-form expectations for ``qsinglet run`` reports, built with numpy alone.

Nothing here imports qsinglet. For every config the generator emits, the
oracle decides whether the program must refuse it, and otherwise predicts the
report from the paper's closed forms:

- pm1 and square-trick: 1/2 on each of "+x" and "-x";
- quartet: 1/2 on the two eta labels named by the eigenvalues;
- known-phases: (1 - |<v1|v2>|)/2 per conclusive label, |<v1|v2>| on "fail";
- qudit-minus-one: 1/D on each pattern with at most one "-x";
- double-pe: 1/2 (|g1(za) g2(zb)|^2 + |g2(za) g1(zb)|^2), with g_k the
  phase-estimation profile of eigenphase k;
- tomography: the binomial draws of the estimator, on the gate rebuilt from
  its seed.

Sampled histograms are redrawn from the oracle's distribution with the
config's seed through the same numpy ``Generator.choice`` stream the program
uses at the commit the benchmark was defined on, so a change that alters a
histogram for a fixed seed fails here.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi
EXACT_ATOL = 1e-12
FIDELITY_FLOOR = 1.0 - 1e-10
DISTRIBUTION_FLOOR = 1e-12
DISTRIBUTION_CAP = 4096
EXACT_BRANCH_CAP = 64
SPECTRUM_ATOL = 1e-8
TOMOGRAPHY_GRID = 16
MAX_REGISTER_QUBITS = 10
MAX_QUDIT_DIM = 5

PARAMS = {
    "tomography": (set(), {"phase_grid_size"}),
    "pm1": (set(), set()),
    "known-phases": ({"theta1", "theta2"}, set()),
    "square-trick": (set(), set()),
    "quartet": (set(), set()),
    "double-pe": ({"n"}, set()),
    "qudit-minus-one": ({"d"}, set()),
}
ETA_LABELS = ("eta(1)", "eta(i)", "eta(-1)", "eta(-i)")


def wrap(phi):
    out = np.mod(phi, TWO_PI)
    return np.where(out >= TWO_PI, 0.0, out)


def phase_distance(a: float, b: float) -> float:
    return abs((a - b + math.pi) % TWO_PI - math.pi)


def gate_matrix(source: dict) -> np.ndarray:
    """The gate a ``{"dim", "phases", "seed"}`` source describes: V diag(e^{i phi}) V^dagger
    with V the QR-Haar unitary of that seed."""
    dim = source["dim"]
    rng = np.random.default_rng(source["seed"])
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    v = q * (diag / np.abs(diag))
    return (v * np.exp(1j * wrap(np.array(source["phases"], dtype=float)))) @ np.conjugate(v).T


def _is_multiple(phi: float, step: float) -> bool:
    k = round(phi / step)
    return phase_distance(phi, k * step) <= SPECTRUM_ATOL


def refusal(config: dict) -> str | None:
    """Why the program must answer ``config`` with an errors report, or None."""
    protocol, params, shots = config["protocol"], config["params"], config["shots"]
    if protocol not in PARAMS:
        return "unknown protocol"
    if not isinstance(shots, int) or shots < 0:
        return "negative shots"
    required, optional = PARAMS[protocol]
    if not required <= set(params) <= required | optional:
        return "wrong params"
    if "n" in params and not 1 <= params["n"] <= MAX_REGISTER_QUBITS:
        return "n out of range"
    if "d" in params and not 2 <= params["d"] <= MAX_QUDIT_DIM:
        return "d out of range"
    if protocol == "tomography" and shots < 1:
        return "tomography without shots"
    phases = [float(p) for p in wrap(np.array(config["gate"]["phases"], dtype=float))]
    if protocol == "qudit-minus-one":
        d = params["d"]
        if config["gate"]["dim"] != d:
            return "gate dimension differs from d"
        if sum(phase_distance(p, math.pi) <= SPECTRUM_ATOL for p in phases) != 1 or not all(
            phase_distance(p, 0.0) <= SPECTRUM_ATOL or phase_distance(p, math.pi) <= SPECTRUM_ATOL
            for p in phases
        ):
            return "spectrum is not {+1^(D-1), -1}"
        return None
    targets = {
        "pm1": (0.0, math.pi),
        "square-trick": (0.0, math.pi / 2),
        "known-phases": (params.get("theta1"), params.get("theta2")),
    }
    if protocol in targets:
        a, b = (float(wrap(t)) for t in targets[protocol])
        straight = phase_distance(phases[0], a) <= SPECTRUM_ATOL and phase_distance(phases[1], b) <= SPECTRUM_ATOL
        swapped = phase_distance(phases[0], b) <= SPECTRUM_ATOL and phase_distance(phases[1], a) <= SPECTRUM_ATOL
        if not (straight or swapped):
            return "spectrum does not match"
    if protocol == "quartet":
        if not all(_is_multiple(p, math.pi / 2) for p in phases) or _quarter(phases[0]) == _quarter(phases[1]):
            return "eigenvalues are not distinct fourth roots of unity"
    if protocol == "double-pe" and phase_distance(*phases) <= SPECTRUM_ATOL:
        return "eigenphases coincide"
    return None


def _quarter(phi: float) -> int:
    return int(round(phi / (math.pi / 2))) % 4


def pattern_labels(qubits: int) -> list:
    return [
        ",".join("-x" if (p >> (qubits - 1 - i)) & 1 else "+x" for i in range(qubits))
        for p in range(2 ** qubits)
    ]


def phase_profile(phi: float, n: int) -> np.ndarray:
    """g(z) = 2^-n sum_y e^{2 pi i y (x - z/2^n)}, x = phi/2pi: the register
    amplitude on reading z after the inverse Fourier transform."""
    size = 2 ** n
    x = float(wrap(phi)) / TWO_PI
    return np.fft.fft(np.exp(2j * np.pi * np.arange(size) * x)) / size


def double_pe_joint(phases, n: int) -> np.ndarray:
    g1 = phase_profile(phases[0], n)
    g2 = phase_profile(phases[1], n)
    a = np.abs(np.outer(g1, g2)) ** 2
    b = np.abs(np.outer(g2, g1)) ** 2
    return 0.5 * (a + b)


def labelled_distribution(config: dict):
    """(labels, probabilities) in the order the program samples them; double-pe
    has no label list, its outcomes are the flattened (za, zb) readings."""
    protocol = config["protocol"]
    phases = [float(p) for p in wrap(np.array(config["gate"]["phases"], dtype=float))]
    if protocol in ("pm1", "square-trick"):
        return ["+x", "-x"], np.array([0.5, 0.5])
    if protocol == "known-phases":
        t1, t2 = (float(wrap(config["params"][k])) for k in ("theta1", "theta2"))
        overlap = abs(1.0 + np.exp(1j * (t2 - t1))) / 2.0
        return ["v1", "v2", "fail"], np.array([(1 - overlap) / 2, (1 - overlap) / 2, overlap])
    if protocol == "quartet":
        probs = np.zeros(4)
        for p in phases:
            probs[_quarter(p)] = 0.5
        return list(ETA_LABELS), probs
    if protocol == "qudit-minus-one":
        d = config["params"]["d"]
        labels = pattern_labels(d - 1)
        probs = np.array([1.0 / d if label.count("-x") <= 1 else 0.0 for label in labels])
        return labels, probs
    if protocol == "double-pe":
        # readings are keyed "za,zb" and drawn from the flattened joint
        return None, double_pe_joint(phases, config["params"]["n"]).reshape(-1)
    raise ValueError(f"{protocol} has no outcome distribution")


def gate_uses(config: dict) -> int:
    protocol, params = config["protocol"], config["params"]
    return {
        "pm1": lambda: 1,
        "square-trick": lambda: 2,
        "known-phases": lambda: 1,
        "quartet": lambda: 3,
        "qudit-minus-one": lambda: params["d"] - 1,
        "double-pe": lambda: 2 * (2 ** params["n"] - 1),
        "tomography": lambda: config["shots"] * (1 + params.get("phase_grid_size", TOMOGRAPHY_GRID)),
    }[protocol]()


def sample_counts(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Counts per outcome of ``shots`` draws from ``probs`` with ``default_rng(seed)``."""
    weights = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    draws = np.random.default_rng(seed).choice(len(weights), size=shots, p=weights / weights.sum())
    return np.bincount(draws, minlength=len(weights))


def tomography_estimate(config: dict) -> dict:
    """The estimator's output, redrawn from the closed-form setting probabilities."""
    u = gate_matrix(config["gate"])
    shots = config["shots"]
    grid = config["params"].get("phase_grid_size", TOMOGRAPHY_GRID)
    rng = np.random.default_rng(config["seed"])
    zeros = rng.binomial(shots, abs(u[0, 0]) ** 2)
    thetas = TWO_PI * np.arange(grid) / grid
    fringe = [
        rng.binomial(shots, abs(u[0, 0] + np.exp(1j * t) * u[0, 1]) ** 2 / 2.0) / shots
        for t in thetas
    ]
    design = np.column_stack([np.ones_like(thetas), np.cos(thetas), np.sin(thetas)])
    _, alpha, beta = np.linalg.lstsq(design, np.array(fringe), rcond=None)[0]
    return {
        "p00": zeros / shots,
        "p10": (shots - zeros) / shots,
        "relative_phase": float(wrap(math.atan2(-beta, alpha))),
        "shots_per_setting": shots,
        "phase_grid_size": grid,
    }


def _on_grid(config: dict) -> bool:
    size = 2 ** config["params"]["n"]
    return all(_is_multiple(float(p), TWO_PI / size) for p in wrap(np.array(config["gate"]["phases"])))


def _check_fidelities(fids: dict, promised, problems: list) -> None:
    for label in promised:
        values = fids.get(label)
        if not values or min(values) < FIDELITY_FLOOR:
            problems.append(f"branch {label} fidelity {values} below 1 - 1e-10")


def _check_double_pe(config, report, joint, problems) -> None:
    size = joint.shape[0]
    exact = report.get("exact_distribution", {})

    def index(key):
        za, zb = key.split(",")
        return int(za), int(zb)

    kept = np.zeros(joint.shape, dtype=bool)
    for key, p in exact.items():
        za, zb = index(key)
        kept[za, zb] = True
        if abs(p - joint[za, zb]) > EXACT_ATOL:
            problems.append(f"P({key}) = {p!r}, closed form {joint[za, zb]!r}")
    omitted = joint[~kept]
    threshold = min(exact.values()) if len(exact) >= DISTRIBUTION_CAP else DISTRIBUTION_FLOOR
    if omitted.size and omitted.max() > threshold + EXACT_ATOL:
        problems.append(f"omitted entry {omitted.max()!r} exceeds the smallest kept {threshold!r}")

    fids = report.get("fidelities", {})
    if config["shots"] > 0:
        if set(fids) != set(report.get("histogram", {})):
            problems.append("fidelity branches differ from the observed readings")
    else:
        lo = int(np.count_nonzero(joint > DISTRIBUTION_FLOOR + EXACT_ATOL))
        hi = int(np.count_nonzero(joint > DISTRIBUTION_FLOOR - EXACT_ATOL))
        if not min(EXACT_BRANCH_CAP, lo) <= len(fids) <= min(EXACT_BRANCH_CAP, hi):
            problems.append(f"{len(fids)} analysed branches, expected the top {min(EXACT_BRANCH_CAP, lo)}")
        elif fids:
            kth = np.partition(joint.reshape(-1), size * size - len(fids))[size * size - len(fids)]
            if min(joint[index(key)] for key in fids) < kth - EXACT_ATOL:
                problems.append("an analysed branch is not among the most likely readings")
    if _on_grid(config):
        _check_fidelities(fids, fids, problems)
    elif any(not -EXACT_ATOL <= f <= 1.0 + 1e-10 for v in fids.values() for f in v):
        problems.append("fidelity outside [0, 1]")


def check_report(config: dict, status: int, report: dict) -> list:
    """Problems with one operation's exit status and report; empty when correct."""
    problems = []
    if refusal(config) is not None:
        if status != 1:
            problems.append(f"exit status {status} for a config the program must refuse")
        if set(report) != {"meta", "errors"} or not report["errors"] or not all(
            isinstance(e, str) for e in report["errors"]
        ):
            problems.append("refused config did not produce an errors report")
        return problems
    if status != 0 or "errors" in report:
        return [f"exit status {status}, errors {report.get('errors')}"]
    if report.get("config") != config:
        problems.append("report does not echo the config")
    if report.get("gate_uses") != gate_uses(config):
        problems.append(f"gate_uses {report.get('gate_uses')} != {gate_uses(config)}")
    protocol, shots = config["protocol"], config["shots"]
    if protocol == "tomography":
        expected = tomography_estimate(config)
        got = report.get("estimate", {})
        if set(got) != set(expected) or any(
            abs(got[k] - expected[k]) > EXACT_ATOL for k in expected
        ):
            problems.append(f"estimate {got} != {expected}")
        return problems

    labels, probs = labelled_distribution(config)
    if protocol == "double-pe":
        joint = probs.reshape(2 ** config["params"]["n"], -1)
        _check_double_pe(config, report, joint, problems)
    else:
        exact = report.get("exact_distribution", {})
        if set(exact) != set(labels) or any(
            abs(exact[label] - p) > EXACT_ATOL for label, p in zip(labels, probs)
        ):
            problems.append(f"exact distribution {exact} != {dict(zip(labels, probs.tolist()))}")
        fids = report.get("fidelities", {})
        promised = [label for label, p in zip(labels, probs) if p > DISTRIBUTION_FLOOR and label != "fail"]
        _check_fidelities(fids, promised, problems)
        expected_keys = set(promised) | ({"fail"} if protocol == "known-phases" else set())
        if set(fids) != expected_keys or (protocol == "known-phases" and fids.get("fail") is not None):
            problems.append(f"fidelity branches {sorted(fids)} != {sorted(expected_keys)}")

    if shots > 0:
        counts = sample_counts(probs, shots, config["seed"])
        if protocol == "double-pe":
            size = 2 ** config["params"]["n"]
            expected_hist = {f"{i // size},{i % size}": int(counts[i]) for i in np.flatnonzero(counts)}
        else:
            expected_hist = {label: int(c) for label, c in zip(labels, counts)}
        if report.get("histogram") != expected_hist:
            problems.append("histogram differs from the seeded draws")
    elif "histogram" in report:
        problems.append("histogram present at shots = 0")
    return problems


def digest(report: dict) -> str:
    """sha256 of the sampled and counted fields of a report: histogram,
    tomography estimate and gate_uses."""
    fields = {k: report.get(k) for k in ("histogram", "estimate", "gate_uses")}
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()
