"""Double phase estimation on the two halves of a singlet.

Two n-qubit counting registers each control a power ladder of the same gate,
one aimed at each half of a two-qubit singlet. After an inverse Fourier
transform the registers read out one eigenphase each (always opposite ones,
never the same one twice), and the singlet halves collapse onto the matching
eigenstates. Readout peaks obey the usual phase-estimation amplitude profile,
so even off-grid phases are caught with probability bounded away from zero.
Reports are read off that profile in closed form; the simulated network
(:func:`double_pe_output_state`) is kept as the reference the tests check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import TWO_PI, phase_distance, wrap_phase
from .protocols import SPECTRUM_ATOL, SpectrumError, distinct_eigensystem
from .register import State, apply_controlled, apply_unitary, sample_counts, top_k
from .singlet import singlet_network

MAX_REGISTER_QUBITS = 10
PEAK_BOUND = 2.0 / math.pi
# readings kept in a report's exact distribution, and of those the branches
# analysed when no shots are drawn
DISTRIBUTION_CAP = 4096
EXACT_BRANCH_CAP = 64


@dataclass(frozen=True)
class GridDecomposition:
    """An eigenphase split into its nearest n-bit grid point and offset.

    ``x`` is the phase over 2*pi in [0, 1); ``xbar`` the nearest integer grid
    index modulo 2^n (exact half-ties round down); ``delta = x - xbar/2^n``
    before wrapping, so ``abs(delta) <= 2^-(n+1)``.
    """

    n: int
    x: float
    xbar: int
    delta: float


def nearest_grid(phi: float, n: int) -> GridDecomposition:
    """Decompose an angle into nearest grid point and offset at resolution n."""
    n = int(n)
    if not 1 <= n <= MAX_REGISTER_QUBITS:
        raise ValueError(f"register size must be in 1..{MAX_REGISTER_QUBITS}, got {n}")
    x = wrap_phase(float(phi)) / TWO_PI
    size = 2 ** n
    # size is a power of two, so scaling by it is exact and ties stay exact
    t = x * size
    xbar_raw = math.ceil(t - 0.5)
    delta = x - xbar_raw / size
    return GridDecomposition(n, x, xbar_raw % size, delta)


def g_amplitude(z, grid: GridDecomposition):
    """Register amplitude on reading ``z`` when the phase sits at ``grid``.

    Closed form of the geometric sum picked up by the inverse Fourier
    transform. On the grid it is exactly 1 at z = xbar and 0 elsewhere; off
    the grid its magnitude at z = xbar stays above 2/pi. ``z`` is an integer
    reading in [0, 2^n) or an integer array of them; a scalar gives a
    ``complex``, an array one amplitude per reading.
    """
    size = 2 ** grid.n
    readings = np.asarray(z)
    if readings.dtype.kind not in "iu":
        raise ValueError(f"readings must be integers, got {z!r}")
    if readings.size and not (readings.min() >= 0 and readings.max() < size):
        raise ValueError(f"readings must lie in 0..{size - 1} for {grid.n} qubits, got {z!r}")
    # signed, so xbar - z cannot wrap for unsigned readings
    readings = readings.astype(np.int64, copy=False)
    numerator = 1.0 - np.exp(2j * np.pi * grid.delta * size)
    denominator = 1.0 - np.exp(2j * np.pi * ((grid.xbar - readings) / size + grid.delta))
    # a zero denominator is only reachable at z = xbar with delta numerically
    # 0, where the limit is 1
    zero = denominator == 0.0
    amplitude = np.where(zero, 1.0 + 0.0j, numerator / np.where(zero, 1.0, denominator) / size)
    return complex(amplitude) if amplitude.ndim == 0 else amplitude


def inverse_qft_matrix(n: int) -> np.ndarray:
    """Dense inverse Fourier transform on n qubits: |y> -> sum_z e^{-2 pi i yz/2^n}|z>/2^{n/2}."""
    size = 2 ** int(n)
    z, y = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    return np.exp(-2j * np.pi * y * z / size) / math.sqrt(size)


def inverse_qft(state: State, qubits) -> State:
    """Apply the inverse Fourier transform to the listed qubits in place order."""
    return apply_unitary(state, qubits, inverse_qft_matrix(len(list(qubits))))


@dataclass(frozen=True)
class PeBranch:
    """One joint readout (z_a, z_b) with residual-target bookkeeping.

    ``match_a``/``match_b`` index the eigenphase whose grid point is nearest
    each reading; the fidelities are taken against those eigenvectors from the
    reduced state of each singlet half.
    """

    z_a: int
    z_b: int
    probability: float
    fidelity_a: float
    fidelity_b: float
    match_a: int
    match_b: int


@dataclass(frozen=True)
class PeReport:
    """Exact joint readout distribution plus sampled shots.

    ``ranked`` holds the flat indices ``z_a * 2^n + z_b`` of the at most
    ``DISTRIBUTION_CAP`` most likely readings above the probability floor,
    largest first and ties in index order.
    """

    n: int
    eigenphases: tuple
    grids: tuple
    exact_joint: np.ndarray
    ranked: np.ndarray
    branches: tuple
    joint_histogram: dict
    shots_used: int
    seed: int
    gate_uses: int


def double_pe_output_state(u: np.ndarray, n: int) -> State:
    """Pre-measurement state: ladders applied, both registers Fourier-inverted.

    Qubits 0..n-1 count for singlet half A (qubit 0 is the most significant
    digit of the reading) and qubits n..2n-1 for half B; counting qubit k of
    each register applies the gate to the power 2^(n-1-k), A before B.
    """
    n = int(n)
    if not 1 <= n <= MAX_REGISTER_QUBITS:
        raise ValueError(f"register size must be in 1..{MAX_REGISTER_QUBITS}, got {n}")
    ladder = [(half * n + k, half, 2 ** (n - 1 - k)) for k in range(n) for half in (0, 1)]
    state, gates = singlet_network(u, ladder)
    for gate in gates:
        state = apply_controlled(state, gate)
    state = inverse_qft(state, range(n))
    return inverse_qft(state, range(n, 2 * n))


def _wrapped_reading_distance(z: int, xbar: int, size: int) -> int:
    d = abs(z - xbar) % size
    return min(d, size - d)


def run_double_pe(u: np.ndarray, n: int, shots: int = 0, seed: int = 0) -> PeReport:
    """Run double phase estimation on a 2x2 gate with distinct eigenphases.

    Nothing is simulated. The singlet is (|e1 e2> - |e2 e1>)/sqrt(2) on the
    eigenbasis, so S = |g_1(z_a) g_2(z_b)|^2 / 2 (see :func:`g_amplitude`) is
    the weight of "half A holds e1, half B holds e2" on reading (z_a, z_b), the
    joint readout is S + S^T and half A holds e1 with fidelity S / (S + S^T).

    ``shots = 0`` analyzes the exact joint distribution only (the first
    ``EXACT_BRANCH_CAP`` readings of ``ranked``); positive ``shots`` samples
    readings from it and analyzes every distinct observed branch. Each branch
    records the residual fidelity of both singlet halves against the
    eigenvector matching its reading.
    """
    n = int(n)
    shots = int(shots)
    if shots < 0:
        raise ValueError("shots must be nonnegative")
    system = distinct_eigensystem(u)
    if phase_distance(float(system.phases[0]), float(system.phases[1])) <= SPECTRUM_ATOL:
        raise SpectrumError("eigenphases must be distinct")

    grids = tuple(nearest_grid(float(p), n) for p in system.phases)
    size = 2 ** n
    g1, g2 = (g_amplitude(np.arange(size), grid) for grid in grids)
    straight = np.abs(np.outer(g1, g2)) ** 2 / 2.0
    joint = straight + straight.T

    def wire(fids: tuple, z: int) -> tuple:
        """(fidelity with the matched eigenvector, match) of one half."""
        match = min(range(2), key=lambda k: (_wrapped_reading_distance(z, grids[k].xbar, size), k))
        return fids[match], match

    def analyze(z_a: int, z_b: int) -> PeBranch:
        p = float(joint[z_a, z_b])
        f = float(straight[z_a, z_b]) / p
        fid_a, match_a = wire((f, 1.0 - f), z_a)
        fid_b, match_b = wire((1.0 - f, f), z_b)
        return PeBranch(
            z_a=z_a,
            z_b=z_b,
            probability=p,
            fidelity_a=fid_a,
            fidelity_b=fid_b,
            match_a=match_a,
            match_b=match_b,
        )

    # the order and the floor are the same at every cap, so the analysed
    # branches are a prefix of the one ranking
    ranked = top_k(joint, DISTRIBUTION_CAP)
    histogram = {}
    if shots > 0:
        counts, _ = sample_counts(joint, shots, seed)
        picked = top_k(counts, None)
        histogram = {divmod(int(i), size): int(counts[i]) for i in picked}
    else:
        picked = ranked[:EXACT_BRANCH_CAP]

    branches = tuple(analyze(*divmod(int(i), size)) for i in picked)
    return PeReport(
        n=n,
        eigenphases=tuple(float(p) for p in system.phases),
        grids=grids,
        exact_joint=joint,
        ranked=ranked,
        branches=branches,
        joint_histogram=histogram,
        shots_used=shots,
        seed=int(seed),
        gate_uses=2 * (size - 1),
    )
