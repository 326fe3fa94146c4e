"""Tests for the mixed-radix register simulator.

Gate application is checked against explicitly embedded full-space matrices
built with ravel_multi_index, an independent path from the reshape/moveaxis
kernel under test.
"""

import math

import numpy as np
import pytest

from qsinglet.linalg import haar_random_unitary
from qsinglet.register import (
    ControlledGate,
    EntangledSubsystemError,
    State,
    apply_controlled,
    apply_unitary,
    collapse,
    controlled_matrix,
    digits_to_index,
    extract_subsystem,
    fix_phase,
    outcome_distribution,
    plus_x,
    product_state,
    sample_counts,
)
from dense_reference import fidelity, minus_x, x_pattern_basis


def basis_state(dims, digits) -> State:
    """Computational basis state |digits> on a register of shape ``dims``."""
    amps = np.zeros(math.prod(dims), dtype=complex)
    amps[digits_to_index(dims, digits)] = 1.0
    return State(tuple(dims), amps)


def embed(op, dims, targets):
    """Full-space matrix acting as ``op`` on ``targets``, identity elsewhere."""
    size = int(np.prod(dims))
    tdims = [dims[t] for t in targets]
    full = np.zeros((size, size), dtype=complex)
    for col in range(size):
        digits = list(np.unravel_index(col, dims))
        tcol = int(np.ravel_multi_index([digits[t] for t in targets], tdims))
        for trow in range(op.shape[0]):
            row_digits = list(digits)
            for t, td in zip(targets, np.unravel_index(trow, tdims)):
                row_digits[t] = int(td)
            row = int(np.ravel_multi_index(row_digits, dims))
            full[row, col] += op[trow, tcol]
    return full


def random_state(dims, seed):
    rng = np.random.default_rng(seed)
    size = int(np.prod(dims))
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return State(tuple(dims), amps / np.linalg.norm(amps))


@pytest.mark.parametrize(
    "dims,digits",
    [
        ((2, 2), (1, 0)),
        ((2, 3, 2), (1, 2, 0)),
        ((3, 3, 3), (2, 0, 1)),
        ((2, 2, 2, 2), (0, 1, 1, 0)),
    ],
)
def test_digit_index_roundtrip(dims, digits):
    index = digits_to_index(dims, digits)
    assert index == int(np.ravel_multi_index(digits, dims))
    assert tuple(int(x) for x in np.unravel_index(index, dims)) == tuple(digits)


def test_digits_to_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        digits_to_index((2, 2), (0, 2))
    with pytest.raises(ValueError):
        digits_to_index((2, 2), (0,))


def test_state_validation():
    with pytest.raises(ValueError):
        State((2,), np.array([1.0, 1.0]))  # unnormalized
    with pytest.raises(ValueError):
        State((1, 2), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        State((2,), np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        State((2, 2), np.array([1.0, 0.0]))  # wrong length


# State and extract_subsystem document register.NORM_ATOL as 1e-10; the
# boundary tests use the documented value, so moving the constant fails them
DOCUMENTED_NORM_ATOL = 1e-10


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("factor, accepted", [(0.5, True), (0.75, True), (1.5, False), (2.0, False)])
def test_state_norm_tolerance_boundary(sign, factor, accepted):
    """A norm within NORM_ATOL of 1 is a state, one past it is not. Rounding
    decides a bound moved to exactly 0.5x or 2x at the 0.5x and 2x cases, so
    the 0.75x and 1.5x cases are the ones that refute it."""
    amps = np.array([1.0 + sign * factor * DOCUMENTED_NORM_ATOL, 0.0])
    if accepted:
        State((2,), amps)
    else:
        with pytest.raises(ValueError, match="state norm"):
            State((2,), amps)


def test_basis_and_product_state():
    s = basis_state((2, 3), (1, 2))
    assert s.amps[5] == 1.0
    assert np.sum(np.abs(s.amps)) == 1.0
    pair = product_state([basis_state((2,), (1,)), basis_state((3,), (0,))])
    assert pair.dims == (2, 3)
    assert pair.amps[3] == 1.0


def test_product_state_matches_kron():
    a = random_state((2,), 1)
    b = random_state((3,), 2)
    joint = product_state([a, b])
    np.testing.assert_allclose(joint.amps, np.kron(a.amps, b.amps))


@pytest.mark.parametrize(
    "dims,targets",
    [
        ((2, 3, 2), [1]),
        ((2, 3, 2), [0]),
        ((2, 3, 2), [2]),
        ((2, 2, 2), [0, 2]),
        ((2, 3, 2), [2, 0]),
        ((3, 2, 3), [2, 1]),
    ],
)
def test_apply_unitary_matches_embedded_matrix(dims, targets):
    state = random_state(dims, 7)
    block = int(np.prod([dims[t] for t in targets]))
    u = haar_random_unitary(block, seed=13)
    moved = apply_unitary(state, targets, u)
    oracle = embed(u, dims, targets) @ state.amps
    np.testing.assert_allclose(moved.amps, oracle, atol=1e-12)


def test_apply_unitary_shape_checks():
    state = random_state((2, 3), 0)
    with pytest.raises(ValueError):
        apply_unitary(state, [0], haar_random_unitary(3, 0))
    with pytest.raises(ValueError):
        apply_unitary(state, [0, 0], haar_random_unitary(4, 0))
    with pytest.raises(ValueError):
        apply_unitary(state, [2], haar_random_unitary(2, 0))
    with pytest.raises(ValueError):
        apply_unitary(state, [0], 1.1 * haar_random_unitary(2, 0))


@pytest.mark.parametrize("power", [1, 2, 3])
def test_controlled_matrix_blocks(power):
    u = haar_random_unitary(3, seed=4)
    full = controlled_matrix(u, power)
    np.testing.assert_allclose(full[:3, :3], np.eye(3))
    np.testing.assert_allclose(full[3:, 3:], np.linalg.matrix_power(u, power))
    assert np.max(np.abs(full[:3, 3:])) == 0.0
    assert np.max(np.abs(full[3:, :3])) == 0.0


@pytest.mark.parametrize(
    "dims,control,target",
    [
        ((2, 2), 0, 1),
        ((2, 2), 1, 0),
        ((2, 3, 2), 0, 1),
        ((2, 3, 2), 2, 1),
        ((2, 2, 3, 3), 1, 3),
    ],
)
def test_apply_controlled_matches_embedded_matrix(dims, control, target):
    state = random_state(dims, 21)
    u = haar_random_unitary(dims[target], seed=8)
    gate = ControlledGate(control, target, u, power=2)
    moved = apply_controlled(state, gate)
    oracle = embed(controlled_matrix(u, 2), dims, [control, target]) @ state.amps
    np.testing.assert_allclose(moved.amps, oracle, atol=1e-12)


def test_apply_controlled_validation():
    state = random_state((3, 2), 5)
    with pytest.raises(ValueError):
        apply_controlled(state, ControlledGate(0, 1, haar_random_unitary(2, 0)))
    with pytest.raises(ValueError):
        apply_controlled(state, ControlledGate(1, 1, haar_random_unitary(2, 0)))
    with pytest.raises(ValueError):
        ControlledGate(0, 1, haar_random_unitary(2, 0), power=0)


def test_outcome_distribution_matches_projection():
    state = random_state((2, 3), 3)
    basis, labels = np.eye(2), ["0", "1"]
    dist = dict(outcome_distribution(state, [0], basis, labels))
    tensor = state.tensor()
    for k in range(2):
        expected = float(np.sum(np.abs(tensor[k]) ** 2))
        assert abs(dist[str(k)] - expected) < 1e-12
    assert abs(sum(dist.values()) - 1.0) < 1e-12


def test_outcome_distribution_in_rotated_basis():
    state = State((2,), plus_x())
    basis, labels = x_pattern_basis(1)
    dist = dict(outcome_distribution(state, [0], basis, labels))
    assert abs(dist["+x"] - 1.0) < 1e-12
    assert dist["-x"] < 1e-12


def test_basis_matrix_validation():
    state = random_state((2, 2), 9)
    skew = np.array([[1.0, 0.0], [1.0, 1.0]]) / np.sqrt(2.0)
    with pytest.raises(ValueError):
        outcome_distribution(state, [0], skew)
    with pytest.raises(ValueError):
        outcome_distribution(state, [0], np.eye(3))


def test_collapse_probability_and_residual():
    state = random_state((2, 2, 3), 12)
    basis, _ = x_pattern_basis(1)
    p, residual = collapse(state, [1], basis, 0)
    dist = outcome_distribution(state, [1], basis)
    assert abs(p - dist[0][1]) < 1e-12
    assert abs(np.linalg.norm(residual.amps) - 1.0) < 1e-12
    # measuring the collapsed state again is deterministic
    p2, _ = collapse(residual, [1], basis, 0)
    assert abs(p2 - 1.0) < 1e-12


def test_collapse_rejects_zero_probability_branch():
    state = basis_state((2, 2), (0, 0))
    basis = np.eye(2)
    with pytest.raises(ValueError):
        collapse(state, [0], basis, 1)
    with pytest.raises(ValueError):
        collapse(state, [0], basis, 2)


def test_sample_counts_and_collapse_are_seeded_and_consistent():
    state = random_state((2, 2), 30)
    basis, labels = x_pattern_basis(1)
    probs = [p for _, p in outcome_distribution(state, [0], basis, labels)]
    counts_a = sample_counts(probs, 1, 0)
    counts_b = sample_counts(probs, 1, 0)
    assert counts_a.tolist() == counts_b.tolist() and int(counts_a.sum()) == 1
    (outcome,) = np.flatnonzero(counts_a)
    p_a, residual_a = collapse(state, [0], basis, outcome)
    p_b, residual_b = collapse(state, [0], basis, outcome)
    assert 0.0 < p_a <= 1.0 and p_a == p_b
    assert abs(p_a - probs[outcome]) <= 1e-12
    np.testing.assert_allclose(residual_a.amps, residual_b.amps)


def test_sample_counts_frequencies_track_born_rule():
    state = random_state((2,), 17)
    basis, labels = np.eye(2), ["0", "1"]
    exact = dict(outcome_distribution(state, [0], basis, labels))
    n = 4000
    counts = sample_counts([exact[label] for label in labels], n, 99)
    hits = int(counts[labels.index("0")])
    sigma = math.sqrt(exact["0"] * (1.0 - exact["0"]) / n)
    assert abs(hits / n - exact["0"]) < 5.0 * sigma


def test_extract_subsystem_from_product():
    part = random_state((3,), 41)
    other = random_state((2,), 42)
    joint = product_state([other, part])
    got = extract_subsystem(joint, 1)
    assert fidelity(got, part) > 1.0 - 1e-12
    # the phase convention pins the first sizable amplitude to be real positive
    lead = next(a for a in got.amps if abs(a) > 1e-9)
    assert abs(lead.imag) < 1e-12 and lead.real > 0.0


def test_extract_subsystem_rejects_entangled_cut():
    bell = State((2, 2), np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
    with pytest.raises(EntangledSubsystemError):
        extract_subsystem(bell, 0)


@pytest.mark.parametrize("factor, accepted", [(0.5, True), (0.75, True), (1.5, False), (2.0, False)])
def test_extract_subsystem_schmidt_tolerance_boundary(factor, accepted):
    """cos t |00> + sin t |11> is a product within NORM_ATOL of its largest
    Schmidt coefficient cos t, and entangled past it."""
    c = 1.0 - factor * DOCUMENTED_NORM_ATOL
    state = State((2, 2), np.array([c, 0.0, 0.0, math.sqrt(1.0 - c * c)]))
    if accepted:
        assert fidelity(extract_subsystem(state, 0), State((2,), np.array([1.0, 0.0]))) > 1.0 - 1e-9
    else:
        with pytest.raises(EntangledSubsystemError):
            extract_subsystem(state, 0)


def test_x_basis_vectors():
    basis, labels = x_pattern_basis(1)
    assert labels == ["+x", "-x"]
    np.testing.assert_allclose(basis[0], plus_x())
    np.testing.assert_allclose(basis[1], minus_x())
    np.testing.assert_allclose(basis @ np.conjugate(basis).T, np.eye(2), atol=1e-15)


def test_x_pattern_basis_is_kron_of_singles():
    basis, labels = x_pattern_basis(2)
    assert labels == ["+x,+x", "+x,-x", "-x,+x", "-x,-x"]
    np.testing.assert_allclose(basis[2], np.kron(minus_x(), plus_x()))
    gram = basis @ np.conjugate(basis).T
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-15)


def test_fidelity_bounds_and_mismatch():
    a = random_state((2,), 1)
    assert abs(fidelity(a, a) - 1.0) < 1e-12
    b = basis_state((2,), (0,))
    c = basis_state((2,), (1,))
    assert fidelity(b, c) == 0.0
    with pytest.raises(ValueError):
        fidelity(a, random_state((3,), 2))


def test_fix_phase_rotates_by_the_first_amplitude_above_its_tolerance():
    # entry 0 is small (1e-6) but far above PHASE_FIX_ATOL, so it sets the phase
    vec = np.array([1e-6 * np.exp(0.7j), math.sqrt(1.0 - 1e-12) * np.exp(2.1j)])
    fixed = fix_phase(vec)
    assert fixed[0].real > 0.0
    assert abs(fixed[0].imag) <= 1e-20
