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

from .linalg import require_unitary
from .protocols import ProtocolReport, SpectrumError, labelled_report, readout
from .register import (
    State,
    apply_controlled,
    extract_subsystem,
    fidelity,
    fix_phase,
    x_pattern_basis,
)
from .singlet import singlet_network

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


def spectrum_check_minus_one(u: np.ndarray) -> np.ndarray:
    """Verify the spectrum {+1^(D-1), -1} and return the -1 eigenvector.

    Raises :class:`SpectrumError` unless u squares to the identity within 1e-9
    and has trace D - 2 within 1e-8 (one -1 among D-1 ones). The eigenvector
    is the normalized image of the projector (I - u)/2 on its best probe
    column, with the leading amplitude rotated real positive.
    """
    u = require_unitary(u, what="gate")
    d = u.shape[0]
    if np.max(np.abs(u @ u - np.eye(d))) > INVOLUTION_ATOL:
        raise SpectrumError("gate must square to the identity within 1e-9")
    if abs(np.trace(u) - (d - 2)) > TRACE_ATOL:
        raise SpectrumError(f"gate trace must be {d - 2} (exactly one -1 eigenvalue)")
    projector = (np.eye(d) - u) / 2.0
    column = int(np.argmax(np.linalg.norm(projector, axis=0)))
    vec = projector[:, column]
    return fix_phase(vec / np.linalg.norm(vec))


def minus_one_output_state(u: np.ndarray) -> State:
    """Pre-measurement state of the -1 location protocol.

    Control k of the D-1 control qubits applies the gate to singlet party k
    (subsystem D-1+k); the last party has no control.
    """
    state, gates = singlet_network(u, [(k, k, 1) for k in range(u.shape[0] - 1)])
    for gate in gates:
        state = apply_controlled(state, gate)
    return state


def _located_wire(pattern_index: int, d: int) -> int | None:
    """Singlet party named by a control pattern, or None if forbidden.

    Bit k of the pattern (most significant first) is 1 when control k read -x.
    One flip locates that party; no flips locate the last; more are forbidden.
    """
    bits = [(pattern_index >> (d - 2 - k)) & 1 for k in range(d - 1)]
    flips = sum(bits)
    if flips == 0:
        return d - 1
    if flips == 1:
        return bits.index(1)
    return None


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
    1/D; the located wire is extracted from the collapsed state and compared
    with the -1 eigenvector.
    """
    u = require_unitary(u, what="gate")
    d = u.shape[0]
    if not 2 <= d <= MAX_QUDIT_DIM:
        raise ValueError(f"gate dimension must be in 2..{MAX_QUDIT_DIM}, got {d}")
    target = spectrum_check_minus_one(u)

    basis, labels = x_pattern_basis(d - 1)

    def locate(index: int, p: float, residual: State) -> QuditBranch:
        wire = _located_wire(index, d)
        if wire is None:
            raise SpectrumError(
                f"forbidden pattern {labels[index]} has probability {p!r}; "
                "the gate does not satisfy the protocol's spectrum assumption"
            )
        wire_state = extract_subsystem(residual, d - 1 + wire)
        return QuditBranch(float(p), wire, fidelity(wire_state, target))

    probs, branches = readout(minus_one_output_state(u), range(d - 1), basis, labels, locate)
    wires = tuple(range(d - 1, 2 * d - 1))
    # one controlled use per control qubit
    return labelled_report("qudit-minus-one", wires, labels, probs, branches, seed, shots, d - 1)
