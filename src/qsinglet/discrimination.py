"""Unambiguous discrimination of two known pure states.

Implements the optimal equal-prior POVM: two rank-1 conclusive elements
proportional to the projectors onto the orthogonal complements of the wrong
state, plus an inconclusive remainder. A conclusive click is never wrong;
the price is a nonzero failure probability equal to the state overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import UNITARY_ATOL, dagger, qubit_perp
from .register import as_amplitudes

FAIL_LABEL = "fail"


def equatorial_state(theta: float) -> np.ndarray:
    """Qubit state (|0> + e^{i theta}|1>)/sqrt(2)."""
    return np.array([1.0, np.exp(1j * float(theta))], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class Povm:
    """Positive operator-valued measure: labeled elements summing to identity."""

    elements: tuple
    labels: tuple

    def __post_init__(self):
        elements = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        labels = tuple(str(l) for l in self.labels)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "labels", labels)
        if len(elements) != len(labels) or not elements:
            raise ValueError("need one label per element")
        dim = elements[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for e in elements:
            if e.shape != (dim, dim):
                raise ValueError("POVM elements must share one square shape")
            if np.max(np.abs(e - dagger(e))) > UNITARY_ATOL:
                raise ValueError("POVM elements must be Hermitian")
            if np.min(np.linalg.eigvalsh(e)) < -UNITARY_ATOL:
                raise ValueError("POVM elements must be positive semidefinite")
            total += e
        if np.max(np.abs(total - np.eye(dim))) > UNITARY_ATOL:
            raise ValueError("POVM elements must sum to the identity")


def build_idp_povm(v1, v2) -> Povm:
    """Optimal unambiguous-discrimination POVM for two qubit states.

    Element "v1" annihilates v2 and vice versa, each scaled by
    1/(1 + |<v1|v2>|) so the remainder stays positive. The inputs must be
    normalized and linearly independent.
    """
    a = as_amplitudes(v1)
    b = as_amplitudes(v2)
    if a.shape != (2,) or b.shape != (2,):
        raise ValueError("unambiguous discrimination is built for single qubits here")
    for v in (a, b):
        if abs(np.linalg.norm(v) - 1.0) > UNITARY_ATOL:
            raise ValueError("states must be normalized")
    overlap = abs(np.vdot(a, b))
    if overlap > 1.0 - 1e-12:
        raise ValueError("states must be linearly independent to discriminate")
    scale = 1.0 / (1.0 + overlap)
    perp_b = qubit_perp(b)
    perp_a = qubit_perp(a)
    e1 = scale * np.outer(perp_b, np.conjugate(perp_b))
    e2 = scale * np.outer(perp_a, np.conjugate(perp_a))
    fail = np.eye(2) - e1 - e2
    return Povm((e1, e2, fail), ("v1", "v2", FAIL_LABEL))


def idp_success_probability(theta1: float, theta2: float) -> float:
    """Conclusive probability for equatorial states at phases theta1, theta2.

    Equals 1 - |<v1|v2>| = 1 - sqrt((1 + cos(theta1 - theta2)) / 2).
    """
    inner = max(0.0, (1.0 + np.cos(float(theta1) - float(theta2))) / 2.0)
    return float(1.0 - np.sqrt(inner))
