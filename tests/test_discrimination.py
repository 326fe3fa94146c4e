"""Tests for unambiguous discrimination of two qubit states."""

import numpy as np
import pytest

from qsinglet.discrimination import Povm, build_idp_povm
from qsinglet.protocols import FAIL_LABEL, equatorial_state
from qsinglet.register import sample_counts
from dense_reference import idp_success_probability

SQRT_HALF = 1.0 / np.sqrt(2.0)


def born(povm, v):
    """Born probability <v|E|v> of each POVM element."""
    return [float(np.real(np.vdot(v, e @ v))) for e in povm.elements]


def test_equatorial_state_frozen():
    v = equatorial_state(np.pi / 2.0)
    np.testing.assert_allclose(v, [SQRT_HALF, 1j * SQRT_HALF], atol=1e-15)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-15


def test_povm_validation():
    half = 0.5 * np.eye(2)
    Povm((half, half), ("a", "b"))  # fine
    with pytest.raises(ValueError):
        Povm((half,), ("a", "b"))
    with pytest.raises(ValueError):
        Povm((np.eye(2), np.eye(2)), ("a", "b"))  # sums to 2I
    with pytest.raises(ValueError):
        Povm((np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)), ("a", "b"))
    negative = np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])
    with pytest.raises(ValueError):
        Povm(negative, ("a", "b"))


@pytest.mark.parametrize("delta", [np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi])
def test_idp_povm_structure(delta):
    v1 = equatorial_state(0.0)
    v2 = equatorial_state(delta)
    povm = build_idp_povm(v1, v2)
    assert povm.labels == ("v1", "v2", FAIL_LABEL)
    total = sum(povm.elements)
    np.testing.assert_allclose(total, np.eye(2), atol=1e-12)
    # conclusive elements never fire on the wrong state
    assert abs(np.vdot(v2, povm.elements[0] @ v2)) < 1e-12
    assert abs(np.vdot(v1, povm.elements[1] @ v1)) < 1e-12


def test_idp_success_probability_frozen():
    # overlap cos(pi/4) at delta = pi/2 leaves 1 - 1/sqrt(2) conclusive
    assert abs(idp_success_probability(0.0, np.pi / 2) - (1.0 - SQRT_HALF)) < 1e-12
    assert abs(idp_success_probability(0.0, np.pi) - 1.0) < 1e-12
    assert idp_success_probability(0.3, 0.3) == 0.0


@pytest.mark.parametrize("delta", np.linspace(0.2, np.pi, 7))
def test_success_probability_matches_povm(delta):
    """The closed form must agree with the POVM's own Born probabilities."""
    v1 = equatorial_state(0.0)
    v2 = equatorial_state(delta)
    povm = build_idp_povm(v1, v2)
    p1 = born(povm, v1)
    p2 = born(povm, v2)
    expected = idp_success_probability(0.0, delta)
    assert abs(p1[0] - expected) < 1e-12
    assert abs(p2[1] - expected) < 1e-12
    assert abs(p1[1]) < 1e-12  # never misidentified
    assert abs(p2[0]) < 1e-12
    assert abs(sum(p1) - 1.0) < 1e-12


def test_build_idp_povm_rejects_parallel_and_unnormalized():
    v = equatorial_state(0.4)
    with pytest.raises(ValueError):
        build_idp_povm(v, v)
    with pytest.raises(ValueError):
        build_idp_povm(2.0 * v, equatorial_state(1.0))
    with pytest.raises(ValueError):
        build_idp_povm(np.ones(3) / np.sqrt(3.0), v)


def test_discriminate_never_wrong():
    v1 = equatorial_state(0.0)
    v2 = equatorial_state(2.0)
    povm = build_idp_povm(v1, v2)
    for state, wrong in ((v1, "v2"), (v2, "v1")):
        counts = sample_counts(born(povm, state), 200, 8)
        assert counts[povm.labels.index(wrong)] == 0


def test_discriminate_conclusive_rate():
    v1 = equatorial_state(0.0)
    v2 = equatorial_state(np.pi / 2)
    povm = build_idp_povm(v1, v2)
    n = 5000
    counts = sample_counts(born(povm, v1), n, 15)
    wins = int(counts[povm.labels.index("v1")])
    p = idp_success_probability(0.0, np.pi / 2)
    sigma = np.sqrt(p * (1.0 - p) / n)
    assert abs(wins / n - p) < 5.0 * sigma
