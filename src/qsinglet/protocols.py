"""Single-shot protocols that turn an unknown gate's action on a singlet into
eigenstates on the output wires.

Every protocol here shares one trick: feed half of a two-qubit singlet through
a controlled power of the gate, then read the control side in a basis that
tags which eigenstate landed on which wire. The exact branch analysis (Born
probabilities, per-wire fidelities, eigenphase assignments) is computed from
the gate's eigenphases alone, as closed-form phase-estimation profiles over
the two arrangements of its eigenvectors on the singlet parties. The dense
``*_output_state`` networks are the tests' reference for those forms;
sampling only draws shots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrimination import FAIL_LABEL, equatorial_state
from .linalg import (
    SpectrumError,
    eigendecompose_2x2_unitary,
    phase_distance,
    require_int,
    require_unitary,
    wrap_phase,
)
from .register import PROB_FLOOR, State, sample_counts, x_pattern_labels
from .singlet import network_output_state, singlet_network

SPECTRUM_ATOL = 1e-8


@dataclass(frozen=True)
class BranchReport:
    """Exact analysis of one measurement branch."""

    probability: float
    fidelities: tuple | None = None
    eigenphases: tuple | None = None


@dataclass(frozen=True)
class ProtocolReport:
    """Exact branch analysis plus sampled shots for one protocol run.

    ``branches`` maps outcome labels to their exact analysis;
    ``exact_distribution`` includes zero-probability labels too.
    ``outcome_label`` is the first sampled shot, None when ``shots_used`` is
    0; its analysis is ``branches[outcome_label]``.
    """

    wires: tuple
    branches: dict
    exact_distribution: dict
    histogram: dict
    outcome_label: str | None
    shots_used: int
    gate_uses: int


def labelled_report(wires, labels, probs, branches, seed, shots, wiring):
    """ProtocolReport over labelled outcomes, with ``shots`` seeded draws, of
    a network that uses the gate as often as ``wiring``'s powers add up to."""
    shots = require_int(shots, "shots", minimum=0)
    histogram = {}
    outcome = None
    if shots > 0:
        counts, first = sample_counts(probs, shots, seed)
        histogram = {label: int(count) for label, count in zip(labels, counts)}
        outcome = labels[first]
    return ProtocolReport(
        wires=tuple(wires),
        branches=branches,
        exact_distribution={label: float(p) for label, p in zip(labels, probs)},
        histogram=histogram,
        outcome_label=outcome,
        shots_used=shots,
        gate_uses=sum(power for _, _, power in wiring),
    )


def x_profile(theta: float) -> list:
    """Probabilities of +x and -x for a control qubit left in
    (|0> + exp(i theta)|1>)/sqrt(2): (1 + cos theta)/2 and (1 - cos theta)/2.

    Written with cos rather than cos^2 or sin^2 of half the angle because
    ``math.cos(math.pi)`` is exactly -1.0, so controls at 0 or pi read exactly.
    """
    c = math.cos(theta)
    return [(1.0 + c) / 2.0, (1.0 - c) / 2.0]


def _eigen_branches(phases, profile, labels, assignment) -> tuple:
    """Probabilities, and a :class:`BranchReport` per label above PROB_FLOOR,
    of a readout of the singlet network of a 2x2 gate with eigenphases
    ``phases``.

    The singlet holds the two eigenvectors in two arrangements: party 0 holds
    e_0 and party 1 e_1, or the reverse. ``profile(phase)`` lists every
    outcome's weight |<r_m|chi>|^2 when party 0 holds the eigenvector of
    ``phase``. Outcome m has probability the mean of its two weights; it
    should leave the eigenvectors ``assignment[m]`` on parties 0 and 1, and
    both parties' fidelity is the share of the arrangement that does.
    """
    weights = list(zip(*(profile(float(phase)) for phase in phases)))
    probs = [(w0 + w1) / 2.0 for w0, w1 in weights]
    branches = {}
    for m, p in enumerate(probs):
        if p > PROB_FLOOR:
            w = weights[m]
            share = w[assignment[m][0]] / (w[0] + w[1])
            eigenphases = tuple(float(phases[k]) for k in assignment[m])
            branches[labels[m]] = BranchReport(p, (share, share), eigenphases)
    return probs, branches


def _phase_texts(phases) -> str:
    # nine decimals, one below SPECTRUM_ATOL, keep solver noise out of error texts
    return "[" + ", ".join(f"{float(p):.9f}" for p in phases) + "]"


def _match_phases(phases, targets) -> list:
    """Bijection from required phases to eigenvector indices, or SpectrumError."""
    remaining = list(range(len(phases)))
    matched = []
    for target in targets:
        hits = [k for k in remaining if phase_distance(float(phases[k]), target) <= SPECTRUM_ATOL]
        if len(hits) != 1:
            raise SpectrumError(
                f"gate eigenphases {_phase_texts(phases)} do not match "
                f"{_phase_texts(targets)} within {SPECTRUM_ATOL:g}"
            )
        matched.append(hits[0])
        remaining.remove(hits[0])
    return matched


def control_wiring(powers) -> tuple:
    """Wiring of the two-wire protocols: one control qubit applying each of
    ``powers`` in turn to the first singlet party."""
    return tuple((0, 0, power) for power in powers)


def control_singlet_network(u: np.ndarray, powers) -> tuple:
    """Network of the two-wire protocols, see :func:`control_wiring`."""
    return singlet_network(u, control_wiring(powers))


def pm1_output_state(u: np.ndarray) -> State:
    """Pre-measurement three-qubit state of the +-1 protocol."""
    return network_output_state(u, control_wiring([1]))


def _x_readout(u, powers, targets, seed, shots) -> ProtocolReport:
    """Shared body of the two-wire protocols read out in the +-x basis.

    The controlled ``powers`` of ``u`` must map its eigenphases ``targets`` to
    {1, -1}; +x then leaves the first target's eigenstate on wire 1 and the
    second's on wire 2, and -x swaps them.
    """
    phases = eigendecompose_2x2_unitary(u)
    first, second = _match_phases(phases, targets)
    power = sum(powers)
    labels = x_pattern_labels(1)
    assignment = {0: (first, second), 1: (second, first)}
    probs, branches = _eigen_branches(
        phases, lambda phase: x_profile(power * phase), labels, assignment
    )
    return labelled_report((1, 2), labels, probs, branches, seed, shots, control_wiring(powers))


def protocol_pm1(u: np.ndarray, seed: int = 0, shots: int = 1) -> ProtocolReport:
    """Locate the +1 and -1 eigenstates of ``u`` with one controlled use.

    The control reads +x or -x with probability 1/2 each; +x puts the
    +1 eigenstate on wire 1 and the -1 eigenstate on wire 2, -x swaps them.
    Either way both output wires carry exact eigenstates.
    """
    return _x_readout(u, [1], [0.0, math.pi], seed, shots)


def protocol_square_trick(u: np.ndarray, seed: int = 0, shots: int = 1) -> ProtocolReport:
    """Eigenstates of a gate with eigenvalues {1, i}, via two controlled uses.

    Applying the control twice squares the gate's phases to {1, -1}, which the
    +-1 protocol then separates with certainty.
    """
    return _x_readout(u, [1, 1], [0.0, math.pi / 2.0], seed, shots)


def protocol_known_phases(
    u: np.ndarray, theta1: float, theta2: float, seed: int = 0, shots: int = 1
) -> ProtocolReport:
    """Eigenstates of a gate with known eigenphases, paid for with a fail branch.

    The control wire ends in one of two non-orthogonal pointer states, one per
    phase ordering. Unambiguous discrimination either identifies the ordering
    exactly (conclusive, never wrong) or reports failure; conclusive outcomes
    leave exact eigenstates on the output wires.
    """
    theta1 = wrap_phase(float(theta1))
    theta2 = wrap_phase(float(theta2))
    if phase_distance(theta1, theta2) <= SPECTRUM_ATOL:
        raise ValueError("theta1 and theta2 must differ")
    phases = eigendecompose_2x2_unitary(u)
    idx1, idx2 = _match_phases(phases, [theta1, theta2])
    wiring = control_wiring([1])

    # optimal unambiguous discrimination of the pointer states v_j =
    # equatorial_state(theta_j): element "v1" is |r><r|, r = perp(v2)/sqrt(1 +
    # |<v1|v2>|), "v2" likewise; "fail" the rest. With the control in
    # equatorial_state(phase), |<r|chi>|^2 = sin^2((phase - theta2)/2) / (1 +
    # |cos((theta1 - theta2)/2)|), and likewise for "v2" with theta1.
    norm = 1.0 + abs(math.cos((theta1 - theta2) / 2.0))

    def profile(phase):
        s2 = math.sin((phase - theta2) / 2.0)
        s1 = math.sin((phase - theta1) / 2.0)
        return [s2 * s2 / norm, s1 * s1 / norm]

    assignment = {0: (idx1, idx2), 1: (idx2, idx1)}
    probs, branches = _eigen_branches(phases, profile, ["v1", "v2"], assignment)
    probs.append(max(1.0 - probs[0] - probs[1], 0.0))
    branches[FAIL_LABEL] = BranchReport(probs[2])
    labels = ["v1", "v2", FAIL_LABEL]
    return labelled_report((1, 2), labels, probs, branches, seed, shots, wiring)


ETA_LABELS = ("eta(1)", "eta(i)", "eta(-1)", "eta(-i)")


def _eta_amps(z: complex) -> np.ndarray:
    """Two-qubit pointer state (|00> + z|01> + z^2|10> + z^3|11>)/2, |z| = 1."""
    return np.array([1.0, z, z ** 2, z ** 3], dtype=complex) / 2.0


def eta_basis():
    """Orthonormal basis {eta(i^k)} of two qubits, labels eta(1), eta(i), ..."""
    vectors = [_eta_amps(1j ** k) for k in range(4)]
    labels = list(ETA_LABELS)
    return np.stack(vectors), labels


# two control qubits on the first singlet party (wire 2): control 1 applies
# the gate, control 0 its square
QUARTET_WIRING = ((1, 0, 1), (0, 0, 2))


def _eta_profile(phase: float) -> list:
    """Weights of reading eta(i^k), k = 0..3, when the quartet's gate acts on
    the eigenvector of ``phase``: the controls hold (1, z, z^2, z^3)/2 with z =
    exp(i phase), so with x = phase - k pi/2 the weight is the two-qubit
    Fourier profile (1 + cos x)/2 (1 + cos 2x)/2."""
    weights = []
    for k in range(4):
        x = phase - k * (math.pi / 2.0)
        weights.append((1.0 + math.cos(x)) / 2.0 * ((1.0 + math.cos(2.0 * x)) / 2.0))
    return weights


def quartet_output_state(u: np.ndarray) -> State:
    """Pre-measurement four-qubit state of the quartet protocol."""
    return network_output_state(u, QUARTET_WIRING)


def protocol_quartet(u: np.ndarray, seed: int = 0, shots: int = 1) -> ProtocolReport:
    """Eigenstates of a gate whose eigenvalues are fourth roots of unity.

    Three controlled uses imprint z^1 and z^2 phase ladders on two control
    qubits; reading them in the eta basis names one eigenvalue exactly. Wire 2
    carries the named eigenvalue's eigenstate, wire 3 the other one. Each
    eigenphase must lie within ``SPECTRUM_ATOL`` of its own multiple of pi/2.
    """
    phases = eigendecompose_2x2_unitary(u)
    quarter = math.pi / 2.0
    ks = [round(float(phase) / quarter) % 4 for phase in phases]
    if ks[0] == ks[1]:
        raise SpectrumError("gate eigenvalues must be distinct fourth roots of unity")
    _match_phases(phases, [k * quarter for k in ks])

    labels = list(ETA_LABELS)
    eigen_for_k = {ks[0]: (0, 1), ks[1]: (1, 0)}
    probs, branches = _eigen_branches(phases, _eta_profile, labels, eigen_for_k)
    return labelled_report((2, 3), labels, probs, branches, seed, shots, QUARTET_WIRING)


@dataclass(frozen=True)
class TomographyEstimate:
    """Shot-based estimate of a gate's first column and relative phase."""

    p00: float
    p10: float
    relative_phase: float
    shots_per_setting: int
    phase_grid_size: int
    gate_uses: int


def tomography_baseline(
    u: np.ndarray, shots_per_setting: int, seed: int = 0, phase_grid_size: int = 16
) -> TomographyEstimate:
    """Estimate |<0|u|0>|^2, |<1|u|0>|^2 and the relative phase of the first
    row from counted shots, as a resource baseline for the protocols above.

    Setting one sends |1>|0> through a controlled use and counts the target;
    setting two scans equatorial inputs over ``phase_grid_size`` angles and
    fits the cosine fringe of the target's |0> probability by linear least
    squares. Every shot costs one gate use, which is the point of the
    comparison. It needs shots_per_setting >= 1 and phase_grid_size >= 3.
    """
    u = require_unitary(u, what="gate")
    if u.shape != (2, 2):
        raise ValueError("the baseline is defined for 2x2 gates")
    shots_per_setting = require_int(shots_per_setting, "shots_per_setting", minimum=1)
    phase_grid_size = require_int(phase_grid_size, "phase_grid_size", minimum=3)
    # a controlled use on |1>|target> leaves |0> on the target with
    # probability |<0|u|target>|^2; the targets are |0>, then the grid's
    # equatorial states
    thetas = 2.0 * np.pi * np.arange(phase_grid_size) / phase_grid_size
    probs = [abs(u[0, 0]) ** 2]
    probs += [abs(u[0] @ equatorial_state(theta)) ** 2 for theta in thetas]
    # one draw per setting, in setting order, as separate calls would make
    counts = np.random.default_rng(seed).binomial(shots_per_setting, probs)
    zeros = counts[0]
    p00 = zeros / shots_per_setting
    p10 = (shots_per_setting - zeros) / shots_per_setting
    fringe = counts[1:] / shots_per_setting

    design = np.column_stack([np.ones_like(thetas), np.cos(thetas), np.sin(thetas)])
    _, alpha, beta = np.linalg.lstsq(design, fringe, rcond=None)[0]
    relative_phase = wrap_phase(math.atan2(-beta, alpha))
    return TomographyEstimate(
        p00=float(p00),
        p10=float(p10),
        relative_phase=float(relative_phase),
        shots_per_setting=shots_per_setting,
        phase_grid_size=phase_grid_size,
        gate_uses=shots_per_setting * (1 + phase_grid_size),
    )
