"""Dense-simulator helpers that only the tests use.

The run path reads every protocol off a closed form; these build the
measurement bases, overlaps and closed-form success rates that the tests
check those forms against on the dense ``*_output_state`` networks.
"""

import functools

import numpy as np

from qsinglet.protocols import ETA_LABELS
from qsinglet.register import as_amplitudes, plus_x, x_pattern_labels


def fidelity(a, b) -> float:
    """Squared overlap |<a|b>|^2 of two pure states of equal size."""
    va, vb = as_amplitudes(a), as_amplitudes(b)
    if va.shape != vb.shape:
        raise ValueError(f"size mismatch: {va.shape} vs {vb.shape}")
    return float(abs(np.vdot(va, vb)) ** 2)


def minus_x() -> np.ndarray:
    """Qubit |-x> = (|0> - |1>)/sqrt(2)."""
    return np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


def x_pattern_basis(qubits: int):
    """Product +-x basis on ``qubits`` qubits, labels like "+x,-x,...".

    Pattern index runs in binary with +x as 0 and -x as 1, first qubit most
    significant, matching the register index convention: row p is the
    ``np.kron`` chain of p's single-qubit vectors.
    """
    single = (plus_x(), minus_x())
    rows = []
    for pattern in range(2 ** qubits):
        bits = [(pattern >> (qubits - 1 - i)) & 1 for i in range(qubits)]
        rows.append(functools.reduce(np.kron, (single[bit] for bit in bits), np.ones(1, complex)))
    return np.stack(rows), x_pattern_labels(qubits)


def _eta_amps(z: complex) -> np.ndarray:
    """Two-qubit pointer state (|00> + z|01> + z^2|10> + z^3|11>)/2, |z| = 1."""
    return np.array([1.0, z, z ** 2, z ** 3], dtype=complex) / 2.0


def eta_basis():
    """Orthonormal basis {eta(i^k)} of two qubits, labels eta(1), eta(i), ..."""
    vectors = [_eta_amps(1j ** k) for k in range(4)]
    return np.stack(vectors), list(ETA_LABELS)


def idp_success_probability(theta1: float, theta2: float) -> float:
    """Conclusive probability for equatorial states at phases theta1, theta2.

    Equals 1 - |<v1|v2>| = 1 - sqrt((1 + cos(theta1 - theta2)) / 2).
    """
    inner = max(0.0, (1.0 + np.cos(float(theta1) - float(theta2))) / 2.0)
    return float(1.0 - np.sqrt(inner))
