"""Locating the lone -1 eigenstate of a D-dimensional involution.

For a gate with spectrum {+1 (D-1 times), -1}, wiring D-1 control qubits to
the first D-1 parties of the D-party singlet turns the question "which party
carries the -1 eigenstate" into a pattern of control readings: at most one
control flips to -x, and the flipped position (or none) names the wire. All D
patterns are equally likely and the located wire holds the eigenstate exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import require_int, require_unitary
from .protocols import ProtocolReport, SpectrumError, labelled_report
from .register import State, fix_phase, x_pattern_labels
from .singlet import network_output_state

MAX_QUDIT_DIM = 5
INVOLUTION_ATOL = 1e-9


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
    and has exactly one -1 eigenvalue. It counts the -1 eigenvalues as
    (D - Re tr u)/2, rounded: an involution's eigenvalues lie near +-1."""
    d = u.shape[0]
    if np.max(np.abs(u @ u - np.eye(d))) > INVOLUTION_ATOL:
        raise SpectrumError("gate must square to the identity within 1e-9")
    if round((d - np.trace(u).real) / 2) != 1:
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
    """One control pattern's located eigenstate: ``located_wire`` indexes the
    singlet parties. Its probability is the report's ``exact_distribution``."""

    located_wire: int
    fidelity: float

    @property
    def fidelities(self) -> tuple:
        return (self.fidelity,)


def run_qudit_minus_one(u: np.ndarray, seed: int = 0, shots: int = 1) -> ProtocolReport:
    """Locate the -1 eigenstate of a D-dimensional involution, D from 2 to
    MAX_QUDIT_DIM.

    Uses the gate D-1 times. The singlet has the same form on every
    orthonormal completion of the -1 eigenvector, so each of the D parties
    holds it with weight 1/D. Control k carries phase pi when party k holds
    it and phase 0 otherwise, so the controls read a definite +-x pattern:
    bit k of pattern m (most significant first) is set when control k read
    -x, the one set bit names party k, and no set bit names the last party.
    Each of those D patterns has probability exactly 1/D and leaves the
    eigenvector on its party with fidelity 1; every other pattern has
    probability 0.
    """
    u = require_unitary(u, what="gate")
    d = require_int(u.shape[0], "gate dimension", minimum=2, maximum=MAX_QUDIT_DIM)
    _check_minus_one_spectrum(u)
    labels = x_pattern_labels(d - 1)
    share = 1.0 / d
    probs = []
    branches = {}
    for m, label in enumerate(labels):
        if m & (m - 1):
            probs.append(0.0)
        else:
            probs.append(share)
            branches[label] = QuditBranch(d - 1 - m.bit_length(), 1.0)
    return labelled_report(labels, probs, branches, seed, shots, minus_one_wiring(d))
