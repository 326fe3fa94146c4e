"""Singlet states of D subsystems of dimension D, and the protocols' network.

The D-party singlet carries amplitude sign(p)/sqrt(D!) on every permutation
basis state |p(0) p(1) ... p(D-1)> and zero elsewhere. Applying the same
unitary V to every subsystem leaves it invariant up to the factor det(V), so
it has that form on the gate's eigenbasis too, and the protocols read their
outcomes off it in closed form. The dense network built here,
:func:`network_output_state`, is the tests' reference for those forms; no
run builds it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .linalg import require_int
from .register import (
    ControlledGate, State, apply_controlled, digits_to_index, plus_x, product_state,
)


def permutation_parity(perm) -> int:
    """Sign (+1 or -1) of a permutation of 0..n-1, by counting selection swaps."""
    perm = [int(x) for x in perm]
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    swaps = 0
    for i in range(n):
        if perm[i] != i:
            j = perm.index(i, i + 1)
            perm[i], perm[j] = perm[j], perm[i]
            swaps += 1
    return -1 if swaps % 2 else 1


def make_singlet(d: int) -> State:
    """The D-party singlet on a register of D subsystems of dimension D."""
    d = require_int(d, "d", minimum=2)
    dims = (d,) * d
    amps = np.zeros(d ** d, dtype=complex)
    scale = 1.0 / math.sqrt(math.factorial(d))
    for perm in itertools.permutations(range(d)):
        amps[digits_to_index(dims, perm)] = permutation_parity(perm) * scale
    return State(dims, amps)


def singlet_network(u: np.ndarray, wiring) -> tuple:
    """Input |+x>^c (x) singlet(D) and, in wiring order, one controlled
    ``u**power`` from qubit ``control`` to party ``party`` per wiring entry.

    D is the dimension of ``u`` and c one more than the largest control
    index, so singlet party k is subsystem c + k.
    """
    wiring = tuple(wiring)
    controls = 1 + max(control for control, _, _ in wiring)
    plus = State((2,), plus_x())
    state = product_state([plus] * controls + [make_singlet(np.shape(u)[0])])
    gates = [ControlledGate(c, controls + party, u, power) for c, party, power in wiring]
    return state, gates


def network_output_state(u: np.ndarray, wiring) -> State:
    """The dense pre-measurement state of :func:`singlet_network`."""
    state, gates = singlet_network(u, wiring)
    for gate in gates:
        state = apply_controlled(state, gate)
    return state

