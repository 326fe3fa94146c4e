"""Semiclassical circuit model of double phase estimation, numpy only.

Each counting register is read one qubit at a time, least significant digit
first, and the digits already read rotate the next qubit before it is
measured (Griffiths and Niu, PRL 76, 3228, 1996). Reading z then applies to
its singlet half the Kraus operator

    M(z) = prod_j (I + (-1)^{b_j} e^{-i w_j(z)} U^{2^(n-1-j)}) / 2,

with b_j = (z >> j) & 1 and w_j(z) = 2 pi (z mod 2^j) / 2^(j+1). The powers
of U come from repeated squaring of the gate matrix, so no eigenphase is
read: the tests check ``phase_estimation``'s closed form against this model
at register sizes the dense network cannot reach.
"""

import numpy as np

# the singlet (|01> - |10>)/sqrt(2) as a matrix [half A, half B]
SINGLET = np.array([[0.0, 1.0], [-1.0, 0.0]]) / np.sqrt(2.0)


def kraus_operators(u, n: int) -> np.ndarray:
    """M(z) for every n-bit reading z, indexed [z, row, column]."""
    size = 2 ** n
    z = np.arange(size)
    powers = [np.asarray(u, dtype=complex)]
    for _ in range(n - 1):
        powers.append(powers[-1] @ powers[-1])
    ops = np.broadcast_to(np.eye(2, dtype=complex), (size, 2, 2))
    for j in range(n):
        sign = 1.0 - 2.0 * ((z >> j) & 1)
        coefficient = sign * np.exp(-2j * np.pi * (z % 2 ** j) / 2 ** (j + 1))
        ops = ops @ ((np.eye(2) + coefficient[:, None, None] * powers[n - 1 - j]) / 2.0)
    return ops


def halves(u, n: int, readings) -> np.ndarray:
    """T = M(z_a) SINGLET M(z_b)^T per flat reading z_a 2^n + z_b: the
    unnormalised state of the two singlet halves, indexed [reading, a, b]."""
    ops = kraus_operators(u, n)
    z_a, z_b = np.divmod(np.asarray(readings, dtype=np.int64), 2 ** n)
    return ops[z_a] @ SINGLET @ np.swapaxes(ops[z_b], 1, 2)


def probabilities(t: np.ndarray) -> np.ndarray:
    """P = ||T||_F^2 per reading."""
    return np.sum(np.abs(t) ** 2, axis=(1, 2))


def fidelities(t: np.ndarray, vectors_a: np.ndarray, vectors_b: np.ndarray) -> tuple:
    """Each half's fidelity per reading, against row r of ``vectors_a`` and
    ``vectors_b``: <v|T T^dagger|v> / P for half A, <v|T^T conj(T)|v> / P for
    half B."""
    p = probabilities(t)
    on_a = np.einsum("ra,rab->rb", vectors_a.conj(), t)
    on_b = np.einsum("rb,rab->ra", vectors_b.conj(), t)
    return np.sum(np.abs(on_a) ** 2, axis=1) / p, np.sum(np.abs(on_b) ** 2, axis=1) / p
