"""Tests for the totally antisymmetric singlet construction."""

import itertools
import math

import numpy as np
import pytest

from qsinglet.linalg import haar_random_unitary
from qsinglet.register import apply_unitary, digits_to_index, fidelity, plus_x
from qsinglet.singlet import make_singlet, permutation_parity, singlet_network

# Levi-Civita signs for every permutation of three items
EPSILON_3 = {
    (0, 1, 2): 1,
    (0, 2, 1): -1,
    (1, 0, 2): -1,
    (1, 2, 0): 1,
    (2, 0, 1): 1,
    (2, 1, 0): -1,
}


def inversion_parity(perm):
    """Independent parity oracle: count of out-of-order pairs."""
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_permutation_parity_matches_inversion_count(n):
    for perm in itertools.permutations(range(n)):
        assert permutation_parity(perm) == inversion_parity(perm)


def test_permutation_parity_sampled_large():
    rng = np.random.default_rng(6)
    for _ in range(50):
        perm = rng.permutation(7)
        assert permutation_parity(perm) == inversion_parity(perm)


def test_permutation_parity_rejects_non_permutations():
    with pytest.raises(ValueError):
        permutation_parity([0, 0, 1])
    with pytest.raises(ValueError):
        permutation_parity([1, 2, 3])


def test_singlet_two_parties_frozen():
    s = make_singlet(2)
    r = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(s.amps, [0.0, r, -r, 0.0], atol=1e-15)


def test_singlet_three_parties_frozen():
    s = make_singlet(3)
    r = 1.0 / math.sqrt(6.0)
    dims = (3, 3, 3)
    nonzero = {i: a for i, a in enumerate(s.amps) if abs(a) > 0.0}
    assert len(nonzero) == 6
    for perm, sign in EPSILON_3.items():
        assert abs(s.amps[digits_to_index(dims, perm)] - sign * r) < 1e-15
    # repeated digits never appear
    assert abs(s.amps[digits_to_index(dims, (0, 0, 1))]) == 0.0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_singlet_normalized_and_antisymmetric(d):
    s = make_singlet(d)
    assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-12
    # swapping any adjacent pair of parties negates the state
    tensor = s.amps.reshape(s.dims)
    for k in range(d - 1):
        axes = list(range(d))
        axes[k], axes[k + 1] = axes[k + 1], axes[k]
        np.testing.assert_allclose(np.transpose(tensor, axes), -tensor, atol=1e-15)


def test_singlet_rejects_tiny():
    with pytest.raises(ValueError):
        make_singlet(1)


def apply_everywhere(state, v):
    """V applied to every party of the register."""
    for k in range(len(state.dims)):
        state = apply_unitary(state, [k], v)
    return state


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_collective_rotation_scales_by_determinant(d, seed):
    v = haar_random_unitary(d, seed=10 * d + seed)
    reference = make_singlet(d)
    moved = apply_everywhere(reference, v)
    phase = complex(np.vdot(reference.amps, moved.amps))
    assert np.linalg.norm(moved.amps - phase * reference.amps) < 1e-9
    assert abs(phase - np.linalg.det(v)) < 1e-9
    assert abs(abs(phase) - 1.0) < 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_singlet_in_eigenbasis_matches_partywise_application(d):
    """Expanding the singlet over the columns of V (signed products of basis
    vectors, an independent construction) equals V on every party."""
    v = haar_random_unitary(d, seed=77 + d)
    expanded = np.zeros(d ** d, dtype=complex)
    for perm in itertools.permutations(range(d)):
        term = np.array([1.0], dtype=complex)
        for k in perm:
            term = np.kron(term, v[:, k])
        expanded += inversion_parity(perm) * term / math.sqrt(math.factorial(d))
    got = apply_everywhere(make_singlet(d), v)
    np.testing.assert_allclose(got.amps, expanded, atol=1e-12)
    assert fidelity(got, make_singlet(d)) > 1.0 - 1e-9


def test_singlet_network_layout():
    """Controls in |+x> come first, then the singlet of u's dimension; party k
    is subsystem c + k, and gates keep wiring order."""
    u = haar_random_unitary(3, 5)
    state, gates = singlet_network(u, [(1, 2, 1), (0, 0, 3)])
    assert state.dims == (2, 2, 3, 3, 3)
    expected = np.kron(np.kron(plus_x(), plus_x()), make_singlet(3).amps)
    np.testing.assert_array_equal(state.amps, expected)
    assert [(g.control, g.target, g.power) for g in gates] == [(1, 4, 1), (0, 2, 3)]
    assert all(g.unitary is u for g in gates)
