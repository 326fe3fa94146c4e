"""Locating the lone -1 eigenstate of a D-dimensional involution.

For a gate with spectrum {+1 (D-1 times), -1}, wiring D-1 control qubits to
the first D-1 parties of the D-party singlet turns the question "which party
carries the -1 eigenstate" into a pattern of control readings: at most one
control flips to -x, and the flipped position (or none) names the wire. All D
patterns are equally likely and the located wire holds the eigenstate exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import require_unitary
from .protocols import ProtocolReport, SpectrumError, labelled_report, x_profile
from .register import PROB_FLOOR, State, fix_phase, x_pattern_labels
from .singlet import network_output_state

MAX_QUDIT_DIM = 5
INVOLUTION_ATOL = 1e-9
TRACE_ATOL = 1e-8


def householder_reflection(w) -> np.ndarray:
    """Reflection I - 2|w><w| for a normalized vector w.

    The canonical fixture for this protocol: exactly one -1 eigenvalue (at w)
    and +1 on the orthogonal complement.
    """
    w = np.asarray(w, dtype=complex).reshape(-1)
    norm = np.linalg.norm(w)
    if norm == 0.0:
        raise ValueError("reflection vector must be nonzero")
    w = w / norm
    return np.eye(w.shape[0]) - 2.0 * np.outer(w, np.conjugate(w))


def _check_minus_one_spectrum(u: np.ndarray) -> None:
    """SpectrumError unless the unitary u squares to the identity within 1e-9
    and has trace D - 2 within 1e-8 (one -1 among D-1 ones)."""
    d = u.shape[0]
    if np.max(np.abs(u @ u - np.eye(d))) > INVOLUTION_ATOL:
        raise SpectrumError("gate must square to the identity within 1e-9")
    if abs(np.trace(u) - (d - 2)) > TRACE_ATOL:
        raise SpectrumError(f"gate trace must be {d - 2} (exactly one -1 eigenvalue)")


def spectrum_check_minus_one(u: np.ndarray) -> np.ndarray:
    """Check the spectrum {+1^(D-1), -1} and return the -1 eigenvector: the
    normalized image of the projector (I - u)/2 on its best probe column, with
    the leading amplitude rotated real positive."""
    u = require_unitary(u, what="gate")
    d = u.shape[0]
    _check_minus_one_spectrum(u)
    projector = (np.eye(d) - u) / 2.0
    column = int(np.argmax(np.linalg.norm(projector, axis=0)))
    vec = projector[:, column]
    return fix_phase(vec / np.linalg.norm(vec))


def minus_one_wiring(d: int) -> tuple:
    """Control k of the D-1 control qubits applies the gate to singlet party k
    (subsystem D-1+k); the last party has no control."""
    return tuple((k, k, 1) for k in range(d - 1))


def minus_one_output_state(u: np.ndarray) -> State:
    """Pre-measurement state of the -1 location protocol."""
    return network_output_state(u, minus_one_wiring(u.shape[0]))


@dataclass(frozen=True)
class QuditBranch:
    """One control pattern with its exact probability and located eigenstate.

    ``located_wire`` indexes the singlet parties, i.e. the report's ``wires``.
    """

    probability: float
    located_wire: int
    fidelity: float

    @property
    def fidelities(self) -> tuple:
        return (self.fidelity,)


def run_qudit_minus_one(u: np.ndarray, seed: int = 0, shots: int = 1) -> ProtocolReport:
    """Locate the -1 eigenstate of a D-dimensional involution, D in 2..5.

    Uses the gate D-1 times. Every allowed pattern occurs with probability
    1/D, and the located wire's fidelity with the -1 eigenvector is read off
    the eigenbasis analysis: the control patterns' closed-form +-x profile
    for each party the -1 eigenvector can sit on.
    """
    u = require_unitary(u, what="gate")
    d = u.shape[0]
    if not 2 <= d <= MAX_QUDIT_DIM:
        raise ValueError(f"gate dimension must be in 2..{MAX_QUDIT_DIM}, got {d}")
    _check_minus_one_spectrum(u)
    wiring = minus_one_wiring(d)
    labels = x_pattern_labels(d - 1)
    # the singlet has the same form on every orthonormal completion of the -1
    # vector, so only the party p it sits on matters: (D-1)! of the D!
    # arrangements each, all alike, so each p has weight 1/D. Control k then
    # carries phase pi when k == p and 0 otherwise (no control when p = D-1).
    profiles = [x_profile([math.pi if k == p else 0.0 for k in range(d - 1)]) for p in range(d)]
    # bit k of pattern m (most significant first) is set when control k read
    # -x; the one set bit names party k, and none names the last party
    located = [d - 1 - m.bit_length() for m in range(len(labels))]
    probs = []
    branches = {}
    for m, weights in enumerate(zip(*profiles)):
        total = sum(weights)
        probs.append(total / d)
        if probs[m] > PROB_FLOOR:
            branches[labels[m]] = QuditBranch(probs[m], located[m], weights[located[m]] / total)
    wires = tuple(range(d - 1, 2 * d - 1))
    return labelled_report(wires, labels, probs, branches, seed, shots, wiring)
