"""Tests for the qudit -1 eigenstate location protocol."""

import numpy as np
import pytest

from qsinglet.linalg import generate_gate, haar_random_unitary
from qsinglet.protocols import SpectrumError
from qsinglet.qudit import (
    INVOLUTION_ATOL,
    MAX_QUDIT_DIM,
    householder_reflection,
    minus_one_output_state,
    run_qudit_minus_one,
    spectrum_check_minus_one,
)
from dense_reference import fidelity


def random_direction(d, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return w / np.linalg.norm(w)


def rotated_diag_fixture(d, seed):
    """V diag(1, ..., 1, -1) V^dagger with a Haar random V."""
    v = haar_random_unitary(d, seed)
    return v @ np.diag([1.0] * (d - 1) + [-1.0]) @ np.conjugate(v).T, v[:, -1]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_householder_reflection_properties(d):
    w = random_direction(d, d)
    r = householder_reflection(w)
    np.testing.assert_allclose(r @ r, np.eye(d), atol=1e-12)
    np.testing.assert_allclose(r @ w, -w, atol=1e-12)
    assert abs(np.trace(r) - (d - 2)) < 1e-12


def test_householder_rejects_zero_vector():
    with pytest.raises(ValueError):
        householder_reflection(np.zeros(3))


def test_spectrum_check_frozen_diagonal():
    vec = spectrum_check_minus_one(np.diag([1.0, 1.0, -1.0]))
    np.testing.assert_allclose(vec, [0.0, 0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spectrum_check_recovers_reflection_axis(d, seed):
    w = random_direction(d, 10 * d + seed)
    vec = spectrum_check_minus_one(householder_reflection(w))
    assert fidelity(vec, w) > 1.0 - 1e-10
    # phase convention: leading sizable amplitude real positive
    lead = next(a for a in vec if abs(a) > 1e-9)
    assert abs(lead.imag) < 1e-10 and lead.real > 0.0


def test_spectrum_check_rejections():
    with pytest.raises(SpectrumError):
        spectrum_check_minus_one(np.eye(3))  # trace is off
    with pytest.raises(SpectrumError):
        spectrum_check_minus_one(np.diag([1.0, -1.0, -1.0]))  # two -1s
    with pytest.raises(SpectrumError):
        spectrum_check_minus_one(np.diag([1.0, 1.0, 1j]))  # not an involution
    with pytest.raises(ValueError):
        spectrum_check_minus_one(np.ones((3, 3)))


def test_exact_pattern_distribution_frozen_d3():
    dist = run_qudit_minus_one(np.diag([1.0, 1.0, -1.0]), shots=0).exact_distribution
    assert set(dist) == {"+x,+x", "+x,-x", "-x,+x", "-x,-x"}
    third = 1.0 / 3.0
    assert abs(dist["+x,+x"] - third) <= 1e-12
    assert abs(dist["+x,-x"] - third) <= 1e-12
    assert abs(dist["-x,+x"] - third) <= 1e-12
    assert dist["-x,-x"] <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_patterns_uniform_over_allowed(d):
    u = householder_reflection(random_direction(d, 5 + d))
    dist = run_qudit_minus_one(u, shots=0).exact_distribution
    assert len(dist) == 2 ** (d - 1)
    allowed = [label for label, p in dist.items() if p > 1e-12]
    assert len(allowed) == d
    for label in allowed:
        assert abs(dist[label] - 1.0 / d) <= 1e-12
        assert label.count("-x") <= 1


@pytest.mark.parametrize("d", [2, 3, 4])
def test_located_wire_holds_the_eigenvector(d):
    u, target = rotated_diag_fixture(d, 7 * d)
    report = run_qudit_minus_one(u, shots=0)
    assert report.gate_uses == d - 1
    assert len(report.branches) == d
    seen_wires = set()
    for label, branch in report.branches.items():
        assert abs(report.exact_distribution[label] - 1.0 / d) <= 1e-12
        assert branch.fidelity >= 1.0 - 1e-10
        seen_wires.add(branch.located_wire)
    assert seen_wires == set(range(d))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_allowed_patterns_are_exactly_one_in_d(d):
    """Each allowed pattern reads exactly 1/D, the located wire has fidelity
    exactly 1.0, and the distribution sums to exactly 1.0."""
    gates = [householder_reflection(random_direction(d, seed)) for seed in range(5)]
    gates += [generate_gate(d, [np.pi if k == flip else 0.0 for k in range(d)], 11)
              for flip in range(d)]
    for u in gates:
        report = run_qudit_minus_one(u, shots=0)
        dist = report.exact_distribution
        assert sorted(p for p in dist.values() if p) == [1.0 / d] * d
        assert sum(dist.values()) == 1.0
        assert [branch.fidelity for branch in report.branches.values()] == [1.0] * d


@pytest.mark.parametrize("d, k", [(d, k) for d in range(2, MAX_QUDIT_DIM + 1) for k in range(d + 1)])
def test_counts_its_minus_one_eigenvalues_near_the_involution_bound(d, k):
    """Gates with eigenphase pi on k parties and 0 on the rest, each phase
    moved by 0.45 INVOLUTION_ATOL either way, so that U^2 - I reaches up to
    0.9 INVOLUTION_ATOL: the locator runs exactly when k = 1, and refuses
    every other count of -1 eigenvalues by its trace."""
    rng = np.random.default_rng([d, k])
    refusal = f"gate trace must be {d - 2} (exactly one -1 eigenvalue)"
    for seed in range(50):
        offsets = 0.45 * INVOLUTION_ATOL * rng.choice([-1.0, 1.0], size=d)
        u = generate_gate(d, [np.pi] * k + [0.0] * (d - k) + offsets, seed)
        if k == 1:
            run_qudit_minus_one(u, shots=0)
        else:
            with pytest.raises(SpectrumError) as refused:
                run_qudit_minus_one(u, shots=0)
            assert str(refused.value) == refusal


def test_d2_reduces_to_the_qubit_protocol():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    report = run_qudit_minus_one(x, shots=0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert set(report.exact_distribution) == {"+x", "-x"}
    assert report.branches["-x"].located_wire == 0
    assert report.branches["+x"].located_wire == 1
    for label, branch in report.branches.items():
        assert abs(report.exact_distribution[label] - 0.5) <= 1e-12
        assert branch.fidelity >= 1.0 - 1e-12
    vec = spectrum_check_minus_one(x)
    assert fidelity(vec, minus) > 1.0 - 1e-12


def test_sampling_histogram_and_headline():
    u = householder_reflection(random_direction(3, 21))
    a = run_qudit_minus_one(u, seed=4, shots=500)
    b = run_qudit_minus_one(u, seed=4, shots=500)
    assert a.histogram == b.histogram
    assert sum(a.histogram.values()) == 500
    observed = [label for label, count in a.histogram.items() if count]
    assert observed
    for label in observed:
        assert a.branches[label].fidelities == (a.branches[label].fidelity,)
        assert abs(a.exact_distribution[label] - 1.0 / 3.0) <= 1e-12


def test_zero_shots_skips_sampling():
    u = householder_reflection(random_direction(3, 22))
    report = run_qudit_minus_one(u, shots=0)
    assert report.histogram == {}


def test_output_state_layout():
    u = householder_reflection(random_direction(3, 23))
    out = minus_one_output_state(u)
    assert out.dims == (2, 2, 3, 3, 3)
    assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12


def test_run_rejects_bad_gates():
    with pytest.raises(SpectrumError):
        run_qudit_minus_one(np.eye(3))
    with pytest.raises(SpectrumError):
        run_qudit_minus_one(np.diag([1.0, -1.0, -1.0]))
    with pytest.raises(ValueError):
        run_qudit_minus_one(np.eye(MAX_QUDIT_DIM + 1) * 1.0)
    with pytest.raises(ValueError):
        run_qudit_minus_one(householder_reflection(random_direction(3, 0)), shots=-1)
