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
from functools import cached_property

import numpy as np

from .linalg import TWO_PI, eigendecompose_2x2_unitary, phase_distance, require_int, wrap_phase
from .protocols import SPECTRUM_ATOL, SpectrumError
from .register import PROB_FLOOR, State, apply_unitary, sample_counts, top_set
from .singlet import network_output_state

MAX_REGISTER_QUBITS = 10
PEAK_BOUND = 2.0 / math.pi
# readings kept in a report's exact distribution, and of those the branches
# analysed when no shots are drawn
DISTRIBUTION_CAP = 4096
EXACT_BRANCH_CAP = 64
# relative slack on the ranking's candidate bound: far above the few ulps by
# which |g1|^2 |g2|^2 and |g1 g2|^2 can differ
RANK_SLACK = 1e-9


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
    n = require_int(n, "register size", minimum=1, maximum=MAX_REGISTER_QUBITS)
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
    # a denominator below the smallest normal double is only reachable at z =
    # xbar with delta 0 or subnormal, where the limit is 1 (dividing overflows)
    zero = np.abs(denominator) < np.finfo(float).tiny
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
    """Kept joint readouts and their probabilities plus sampled shots.

    ``profiles`` holds the register amplitudes g_1 and g_2 of the two
    eigenphases over all 2^n readings. ``kept`` holds the flat indices
    ``z_a * 2^n + z_b``, ascending, of the at most ``DISTRIBUTION_CAP`` most
    likely readings above the probability floor (ties across the cut to the
    lower index), and ``kept_probabilities`` their joint probabilities.
    ``analysed`` holds the :class:`PeBranch` fields as seven arrays, one entry
    per analysed reading in flat order; with shots, ``observed`` holds the
    observed flat readings, ascending, and their counts (empty arrays without
    shots). ``branches`` and ``exact_joint``, the dense 2^n x 2^n joint, are
    built on first read.
    """

    n: int
    eigenphases: tuple
    grids: tuple
    profiles: tuple
    kept: np.ndarray
    kept_probabilities: np.ndarray
    analysed: tuple
    observed: tuple
    gate_uses: int

    @cached_property
    def branches(self) -> tuple:
        """One :class:`PeBranch` per analysed reading, in ``analysed`` order."""
        return tuple(PeBranch(*row) for row in zip(*(c.tolist() for c in self.analysed)))

    @cached_property
    def exact_joint(self) -> np.ndarray:
        """Dense 2^n x 2^n joint readout distribution, indexed [z_a, z_b]."""
        return _dense_joint(*self.profiles)


def double_pe_output_state(u: np.ndarray, n: int) -> State:
    """Pre-measurement state: ladders applied, both registers Fourier-inverted.

    Qubits 0..n-1 count for singlet half A (qubit 0 is the most significant
    digit of the reading) and qubits n..2n-1 for half B; counting qubit k of
    each register applies the gate to the power 2^(n-1-k), A before B.
    """
    n = require_int(n, "register size", minimum=1, maximum=MAX_REGISTER_QUBITS)
    ladder = [(half * n + k, half, 2 ** (n - 1 - k)) for k in range(n) for half in (0, 1)]
    state = inverse_qft(network_output_state(u, ladder), range(n))
    return inverse_qft(state, range(n, 2 * n))


def _weight(g1_za: np.ndarray, g2_zb: np.ndarray) -> np.ndarray:
    """S = |g_1(z_a) g_2(z_b)|^2 / 2 from the two amplitudes, broadcast. Every
    joint entry is taken through this one expression, so the dense joint, the
    ranking and the analysed branches agree bit for bit."""
    return np.abs(g1_za * g2_zb) ** 2 / 2.0


def _dense_joint(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Joint S + S^T with S = |g_1(z_a) g_2(z_b)|^2 / 2 over all 4^n readings."""
    straight = _weight(g1[:, None], g2)
    return straight + straight.T


def _prefix_pairs(widths: np.ndarray):
    """Positions (a, b) with b < widths[a], row by row."""
    a = np.repeat(np.arange(widths.shape[0]), widths)
    b = np.arange(a.shape[0]) - np.repeat(np.cumsum(widths) - widths, widths)
    return a, b


def _candidates(g1: np.ndarray, g2: np.ndarray, cap: int) -> np.ndarray:
    """Flat readings, ascending and closed under transposition, that hold the
    joint's top ``cap`` readings.

    J = S + S^T >= S entrywise, so J's cap-th largest value is at least S's,
    S_(cap), and every reading in J's top ``cap`` has max(S_ab, S_ba) >=
    max(S_(cap), PROB_FLOOR) / 2. With x = |g_1|^2 and y = |g_2|^2 sorted
    descending, product x_a y_b = 2 S_ab has (a+1)(b+1) products at least as
    large, so the cap largest lie on the staircase (a+1)(b+1) <= cap. Only
    the readings above the bound and their transposes are returned, so memory
    stays O(2^n + candidates).
    """
    x, y = np.abs(g1) ** 2, np.abs(g2) ** 2
    order_x, order_y = np.argsort(-x), np.argsort(-y)
    xs, ys = x[order_x], y[order_y]
    # only products above 2 PROB_FLOOR can lift the bound off the floor, so
    # the staircase spans just the rows and columns that reach one
    rows = np.count_nonzero(xs * ys[0] > 2.0 * PROB_FLOOR)
    columns = np.count_nonzero(ys * xs[0] > 2.0 * PROB_FLOOR)
    a, b = _prefix_pairs(np.minimum(cap // np.arange(1, rows + 1), columns))
    products = xs[a] * ys[b]
    kth = products.shape[0] - cap
    largest = float(np.partition(products, kth)[kth]) if kth >= 0 else 0.0
    # x_a y_b = 2 S_ab, so the bound max(S_(cap), floor) / 2 on S_ab reads
    # max(S_(cap), floor) on x_a y_b
    bound = max(largest / 2.0, PROB_FLOOR) * (1.0 - RANK_SLACK)
    # row a pairs with the columns where ys >= bound / xs[a]; dividing only by
    # the rows that reach the bound keeps exact zeros (grid phases such as 0
    # and pi) from raising a division warning
    rows = np.count_nonzero(xs * ys[0] >= bound)
    a, b = _prefix_pairs(np.searchsorted(-ys, -bound / xs[:rows], side="right"))
    z_a, z_b = order_x[a], order_y[b]
    # the peak pair always clears the bound, so there is at least one candidate;
    # np.unique would hash these integers, several times slower than this sort
    size = g1.shape[0]
    candidates = np.sort(np.concatenate((z_a * size + z_b, z_b * size + z_a)))
    return candidates[np.concatenate(([True], candidates[1:] != candidates[:-1]))]


def _rank_joint(g1: np.ndarray, g2: np.ndarray, cap: int):
    """Flat indices, ascending, and probabilities of the top ``cap`` readings
    of the joint J = S + S^T: bit for bit ``top_set(J, cap)`` and J's entries
    there. While 4^n <= cap (n <= 6 at the report's cap) the staircase could
    prune no reading, so J is built and selected from; above, only
    :func:`_candidates` are evaluated.
    """
    size = g1.shape[0]
    if size * size <= cap:
        joint = _dense_joint(g1, g2).reshape(-1)
        kept = top_set(joint, cap)
        return kept, joint[kept]
    candidates = _candidates(g1, g2, cap)
    z_a, z_b = np.divmod(candidates, size)
    # S once per candidate. The transposed keys are the candidates again, so
    # the order that sorts them puts each candidate's transpose at its
    # position (faster than searchsorted)
    straight = _weight(g1[z_a], g2[z_b])
    values = straight + straight[np.argsort(z_b * size + z_a)]
    kept = top_set(values, cap)
    return candidates[kept], values[kept]


def _analyze(grids: tuple, g1: np.ndarray, g2: np.ndarray, readings: np.ndarray) -> tuple:
    """The :class:`PeBranch` fields of each flat reading as seven arrays,
    computed in one array pass.

    Half A holds e1 with fidelity S / (S + S^T), half B with the rest; each
    half is matched to the eigenphase whose grid point is nearest its reading
    (ties to the first). Each probability is summed as the dense joint's, so
    it matches :attr:`PeReport.exact_joint` bit for bit.
    """
    size = g1.shape[0]
    z_a, z_b = readings // size, readings % size
    straight = _weight(g1[z_a], g2[z_b])
    p = straight + _weight(g1[z_b], g2[z_a])
    share = straight / p

    def match(z):
        d0, d1 = (np.abs(z - grid.xbar) % size for grid in grids)
        return (np.minimum(d1, size - d1) < np.minimum(d0, size - d0)).astype(np.int64)

    match_a, match_b = match(z_a), match(z_b)
    fid_a = np.where(match_a == 0, share, 1.0 - share)
    fid_b = np.where(match_b == 0, 1.0 - share, share)
    return z_a, z_b, p, fid_a, fid_b, match_a, match_b


def run_double_pe(u: np.ndarray, n: int, shots: int = 0, seed: int = 0) -> PeReport:
    """Run double phase estimation on a 2x2 gate with distinct eigenphases.

    Nothing is simulated. The singlet is (|e1 e2> - |e2 e1>)/sqrt(2) on the
    eigenbasis, so S = |g_1(z_a) g_2(z_b)|^2 / 2 (see :func:`g_amplitude`) is
    the weight of "half A holds e1, half B holds e2" on reading (z_a, z_b), the
    joint readout is S + S^T and half A holds e1 with fidelity S / (S + S^T).

    The top ``DISTRIBUTION_CAP`` readings come from the dense 4^n joint while
    it has at most ``DISTRIBUTION_CAP`` entries, else from the profiles'
    staircase in O(2^n) memory plus the candidates. ``shots = 0`` analyzes
    the ``EXACT_BRANCH_CAP`` most likely of ``kept``; positive ``shots``
    samples readings from the dense joint (``exact_joint``, O(4^n) memory at
    every n) and analyzes every distinct observed branch. Each branch records
    the residual fidelity of both singlet halves against the eigenvector
    matching its reading.
    """
    n = require_int(n, "register size")
    shots = require_int(shots, "shots", minimum=0)
    phases = eigendecompose_2x2_unitary(u)
    if phase_distance(float(phases[0]), float(phases[1])) <= SPECTRUM_ATOL:
        raise SpectrumError("eigenphases must be distinct")

    grids = tuple(nearest_grid(float(p), n) for p in phases)
    size = 2 ** n
    g1, g2 = (g_amplitude(np.arange(size), grid) for grid in grids)
    kept, probabilities = _rank_joint(g1, g2, DISTRIBUTION_CAP)
    if shots > 0:
        counts, _ = sample_counts(_dense_joint(g1, g2), shots, seed)
        picked = np.flatnonzero(counts)
        observed = picked, counts[picked]
    else:
        # the floor and the tie rule are the same at every cap, so the
        # analysed readings are the most likely of the kept ones
        picked = kept[top_set(probabilities, EXACT_BRANCH_CAP)]
        none = np.zeros(0, dtype=np.int64)
        observed = none, none
    return PeReport(
        n=n,
        eigenphases=tuple(float(p) for p in phases),
        grids=grids,
        profiles=(g1, g2),
        kept=kept,
        kept_probabilities=probabilities,
        analysed=_analyze(grids, g1, g2, picked),
        observed=observed,
        gate_uses=2 * (size - 1),
    )
