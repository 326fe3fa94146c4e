"""Tests for the singlet-based eigenstate location protocols."""

import math

import numpy as np
import pytest

from qsinglet.linalg import generate_gate, haar_random_unitary, phase_distance, wrap_phase
from qsinglet.protocols import (
    SpectrumError,
    _eigen_branches,
    equatorial_state,
    pm1_output_state,
    protocol_known_phases,
    protocol_pm1,
    protocol_quartet,
    protocol_square_trick,
    quartet_output_state,
    tomography_baseline,
)
from qsinglet.qudit import householder_reflection, run_qudit_minus_one
from qsinglet.register import PROB_FLOOR, collapse, extract_subsystem
from dense_reference import eta_basis, fidelity, idp_success_probability, x_pattern_basis

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


def eig_oracle(u):
    """Reference eigenpairs from the general-purpose solver."""
    vals, vecs = np.linalg.eig(u)
    return [(wrap_phase(float(np.angle(vals[k]))), vecs[:, k]) for k in range(len(vals))]


class TestPm1:
    @pytest.mark.parametrize("seed", range(10))
    def test_exact_split_and_fidelities(self, seed):
        u = generate_gate(2, [0.0, math.pi], seed)
        report = protocol_pm1(u, shots=0)
        assert report.gate_uses == 1
        assert abs(report.exact_distribution["+x"] - 0.5) <= 1e-12
        assert abs(report.exact_distribution["-x"] - 0.5) <= 1e-12
        for branch in report.branches.values():
            assert all(f >= 1.0 - 1e-10 for f in branch.fidelities)

    def test_branch_phase_assignment(self):
        u = generate_gate(2, [0.0, math.pi], 3)
        report = protocol_pm1(u, shots=0)
        plus_branch = report.branches["+x"]
        minus_branch = report.branches["-x"]
        # +x leaves the +1 eigenstate on wire 1; -x swaps the pair
        assert phase_distance(plus_branch.eigenphases[0], 0.0) < 1e-10
        assert phase_distance(plus_branch.eigenphases[1], math.pi) < 1e-10
        assert phase_distance(minus_branch.eigenphases[0], math.pi) < 1e-10
        assert phase_distance(minus_branch.eigenphases[1], 0.0) < 1e-10

    def test_x_gate_wires_carry_hadamard_states(self):
        """For u = X the located eigenstates are analytically |+> and |->."""
        out = pm1_output_state(X)
        basis, _ = x_pattern_basis(1)
        for index, (first, second) in ((0, (PLUS, MINUS)), (1, (MINUS, PLUS))):
            p, residual = collapse(out, [0], basis, index)
            assert abs(p - 0.5) <= 1e-12
            assert fidelity(extract_subsystem(residual, 1), first) > 1.0 - 1e-12
            assert fidelity(extract_subsystem(residual, 2), second) > 1.0 - 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_wire_states_match_general_eigensolver(self, seed):
        u = generate_gate(2, [0.0, math.pi], 100 + seed)
        reference = {round(p / math.pi): v for p, v in eig_oracle(u)}
        out = pm1_output_state(u)
        basis, _ = x_pattern_basis(1)
        p, residual = collapse(out, [0], basis, 0)
        assert fidelity(extract_subsystem(residual, 1), reference[0]) > 1.0 - 1e-10
        assert fidelity(extract_subsystem(residual, 2), reference[1]) > 1.0 - 1e-10

    def test_rejects_wrong_spectrum(self):
        with pytest.raises(SpectrumError):
            protocol_pm1(generate_gate(2, [0.0, math.pi / 2], 0))
        with pytest.raises(SpectrumError):
            protocol_pm1(np.eye(2))

    def test_sampling_is_seeded(self):
        u = generate_gate(2, [0.0, math.pi], 1)
        a = protocol_pm1(u, seed=5, shots=200)
        b = protocol_pm1(u, seed=5, shots=200)
        assert a.histogram == b.histogram
        assert sum(a.histogram.values()) == 200
        assert all(label in a.branches for label, count in a.histogram.items() if count)

    def test_zero_shots_reports_exact_only(self):
        report = protocol_pm1(generate_gate(2, [0.0, math.pi], 2), shots=0)
        assert report.histogram == {}


class TestSquareTrick:
    @pytest.mark.parametrize("seed", range(10))
    def test_exact_split_and_fidelities(self, seed):
        u = generate_gate(2, [0.0, math.pi / 2], seed)
        report = protocol_square_trick(u, shots=0)
        assert report.gate_uses == 2
        assert abs(report.exact_distribution["+x"] - 0.5) <= 1e-12
        assert abs(report.exact_distribution["-x"] - 0.5) <= 1e-12
        for branch in report.branches.values():
            assert all(f >= 1.0 - 1e-10 for f in branch.fidelities)

    def test_phase_gate_diagonal(self):
        report = protocol_square_trick(np.diag([1.0, 1j]), shots=0)
        branch = report.branches["+x"]
        assert phase_distance(branch.eigenphases[0], 0.0) < 1e-10
        assert phase_distance(branch.eigenphases[1], math.pi / 2) < 1e-10
        assert all(f >= 1.0 - 1e-12 for f in branch.fidelities)

    def test_rejects_pm1_spectrum(self):
        with pytest.raises(SpectrumError):
            protocol_square_trick(generate_gate(2, [0.0, math.pi], 4))


class TestKnownPhases:
    @pytest.mark.parametrize("delta", [np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi])
    def test_outcome_probabilities_match_discrimination_bound(self, delta):
        u = generate_gate(2, [0.0, delta], 8)
        report = protocol_known_phases(u, 0.0, delta, shots=0)
        success = idp_success_probability(0.0, delta)
        assert abs(report.exact_distribution["v1"] - success / 2.0) <= 1e-12
        assert abs(report.exact_distribution["v2"] - success / 2.0) <= 1e-12
        assert abs(report.exact_distribution["fail"] - (1.0 - success)) <= 1e-12
        assert report.gate_uses == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_conclusive_branches_locate_exactly(self, seed):
        theta1, theta2 = 0.9, 2.4
        u = generate_gate(2, [theta1, theta2], seed)
        report = protocol_known_phases(u, theta1, theta2, shots=0)
        v1 = report.branches["v1"]
        v2 = report.branches["v2"]
        assert all(f >= 1.0 - 1e-10 for f in v1.fidelities)
        assert all(f >= 1.0 - 1e-10 for f in v2.fidelities)
        # the label names which phase landed on wire 1
        assert phase_distance(v1.eigenphases[0], theta1) < 1e-8
        assert phase_distance(v2.eigenphases[0], theta2) < 1e-8

    def test_fail_branch_has_no_located_state(self):
        u = generate_gate(2, [0.0, np.pi / 3], 1)
        report = protocol_known_phases(u, 0.0, np.pi / 3, shots=0)
        assert report.branches["fail"].fidelities is None
        assert report.exact_distribution["fail"] > 0.5

    def test_rejects_equal_and_mismatched_phases(self):
        u = generate_gate(2, [0.0, 1.0], 2)
        with pytest.raises(ValueError):
            protocol_known_phases(u, 0.7, 0.7)
        with pytest.raises(SpectrumError):
            protocol_known_phases(u, 0.0, 2.0)

    def test_orthogonal_case_never_fails(self):
        u = generate_gate(2, [0.0, np.pi], 3)
        report = protocol_known_phases(u, 0.0, np.pi, shots=0)
        assert report.exact_distribution["fail"] <= 1e-12


class TestQuartet:
    def test_eta_state_frozen(self):
        basis, labels = eta_basis()
        assert labels[1] == "eta(i)"
        np.testing.assert_allclose(basis[1], np.array([1.0, 1j, -1.0, -1j]) / 2.0, atol=1e-15)

    def test_eta_basis_orthonormal(self):
        basis, labels = eta_basis()
        assert labels == ["eta(1)", "eta(i)", "eta(-1)", "eta(-i)"]
        np.testing.assert_allclose(basis @ np.conjugate(basis).T, np.eye(4), atol=1e-12)

    PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    @pytest.mark.parametrize("k1,k2", PAIRS)
    def test_every_fourth_root_pair(self, k1, k2):
        quarter = math.pi / 2.0
        u = generate_gate(2, [k1 * quarter, k2 * quarter], seed=4 * k1 + k2)
        report = protocol_quartet(u, shots=0)
        assert report.gate_uses == 3
        labels = ("eta(1)", "eta(i)", "eta(-1)", "eta(-i)")
        expected = {labels[k1], labels[k2]}
        for label, p in report.exact_distribution.items():
            if label in expected:
                assert abs(p - 0.5) <= 1e-12
            else:
                assert p <= 1e-12
        for label in expected:
            branch = report.branches[label]
            assert all(f >= 1.0 - 1e-10 for f in branch.fidelities)

    def test_named_eigenvalue_lands_on_first_wire(self):
        # eigenvalues {1, i}: reading eta(i) must put the i eigenstate on wire 2
        u = np.diag([1.0, 1j])
        report = protocol_quartet(u, shots=0)
        branch = report.branches["eta(i)"]
        assert phase_distance(branch.eigenphases[0], math.pi / 2) < 1e-10
        assert phase_distance(report.branches["eta(1)"].eigenphases[0], 0.0) < 1e-10

    def test_output_state_norm(self):
        u = generate_gate(2, [0.0, 3 * math.pi / 2], 5)
        out = quartet_output_state(u)
        assert out.dims == (2, 2, 2, 2)
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12

    def test_rejects_bad_spectra(self):
        with pytest.raises(SpectrumError):
            protocol_quartet(generate_gate(2, [0.0, 1.0], 0))
        with pytest.raises(SpectrumError):
            protocol_quartet(np.eye(2))
        # equal fourth roots are degenerate for this readout
        with pytest.raises(SpectrumError):
            protocol_quartet(1j * np.eye(2))


@pytest.mark.parametrize(
    "run, phases",
    [(protocol_pm1, [0.0, math.pi]), (protocol_square_trick, [0.0, math.pi / 2])],
    ids=["pm1", "square-trick"],
)
def test_x_readouts_are_exactly_half_on_canonical_gates(run, phases):
    """The closed form (1 +- cos)/2 reads controls at 0 and pi exactly: each
    outcome has probability 0.5 and both wires hold exact eigenstates."""
    for seed in range(20):
        for order in (phases, phases[::-1]):
            report = run(generate_gate(2, order, seed), shots=0)
            assert report.exact_distribution == {"+x": 0.5, "-x": 0.5}
            assert sum(report.exact_distribution.values()) == 1.0
            assert [b.fidelities for b in report.branches.values()] == [(1.0, 1.0)] * 2


@pytest.mark.parametrize("k1,k2", TestQuartet.PAIRS)
def test_quartet_is_exact_on_canonical_gates(k1, k2):
    labels = ["eta(1)", "eta(i)", "eta(-1)", "eta(-i)"]
    expected = {label: 0.5 if k in (k1, k2) else 0.0 for k, label in enumerate(labels)}
    for seed in range(10):
        for order in ((k1, k2), (k2, k1)):
            u = generate_gate(2, [k * math.pi / 2.0 for k in order], seed)
            report = protocol_quartet(u, shots=0)
            assert report.exact_distribution == expected
            assert sum(report.exact_distribution.values()) == 1.0
            assert [b.fidelities for b in report.branches.values()] == [(1.0, 1.0)] * 2


@pytest.mark.parametrize(
    "run",
    [
        lambda: protocol_pm1(generate_gate(2, [0.0, math.pi], 0), shots=-5),
        lambda: protocol_square_trick(generate_gate(2, [0.0, math.pi / 2], 0), shots=-5),
        lambda: protocol_quartet(generate_gate(2, [0.0, math.pi / 2], 0), shots=-5),
        lambda: protocol_known_phases(generate_gate(2, [0.2, 1.7], 0), 0.2, 1.7, shots=-5),
    ],
    ids=["pm1", "square-trick", "quartet", "known-phases"],
)
def test_negative_shots_are_refused(run):
    with pytest.raises(ValueError, match="shots must be at least 0"):
        run()


def test_outcome_at_the_floor_gets_no_branch():
    # both phases weigh outcome "a" at exactly PROB_FLOOR, so its mean is the floor
    probs, branches = _eigen_branches(
        (0.0, 1.0), lambda phase: [PROB_FLOOR, 1.0 - PROB_FLOOR], ["a", "b"], [0, 1]
    )
    assert probs[0] == PROB_FLOOR
    assert set(branches) == {"b"}


class TestTomography:
    def test_hadamard_like_gate(self):
        theta = 0.0
        u = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
        est = tomography_baseline(u, 20000, seed=0)
        assert abs(est.p00 - 0.5) < 0.02
        assert abs(est.p10 - 0.5) < 0.02
        assert abs(est.p00 + est.p10 - 1.0) < 1e-12
        assert phase_distance(est.relative_phase, theta) < 0.05

    def test_complex_phase_gate(self):
        u = np.array([[1.0, 1j], [1j, 1.0]], dtype=complex) / np.sqrt(2.0)
        est = tomography_baseline(u, 20000, seed=1)
        assert phase_distance(est.relative_phase, np.pi / 2) < 0.05

    def test_column_probabilities(self):
        u = X
        est = tomography_baseline(u, 5000, seed=2)
        assert est.p00 < 0.02
        assert est.p10 > 0.98

    def test_gate_use_accounting(self):
        u = generate_gate(2, [0.0, math.pi], 0)
        est = tomography_baseline(u, 250, seed=3, phase_grid_size=8)
        assert est.shots_per_setting == 250
        assert est.phase_grid_size == 8
        assert est.gate_uses == 250 * 9

    def test_validation(self):
        u = generate_gate(2, [0.0, math.pi], 0)
        with pytest.raises(ValueError):
            tomography_baseline(u, 0)
        with pytest.raises(ValueError):
            tomography_baseline(u, 100, phase_grid_size=2)
        with pytest.raises(ValueError):
            tomography_baseline(haar_random_unitary(3, 0), 100)

    @pytest.mark.parametrize("value", [3.5, 4.0, True, "4"])
    def test_refuses_non_integer_counts(self, value):
        """A fractional grid would draw ceil(value) settings but report fewer."""
        u = generate_gate(2, [0.0, math.pi], 0)
        with pytest.raises(ValueError, match="phase_grid_size must be an integer"):
            tomography_baseline(u, 100, phase_grid_size=value)
        with pytest.raises(ValueError, match="shots_per_setting must be an integer"):
            tomography_baseline(u, value)

    @pytest.mark.parametrize("grid", [3, 16, 64])
    def test_counts_follow_one_draw_per_setting(self, grid):
        """The counts of every setting come from one binomial call, the same
        stream as one call per setting in setting order."""
        u = generate_gate(2, [0.3, 2.0], grid)
        for seed in range(5):
            est = tomography_baseline(u, 1000, seed=seed, phase_grid_size=grid)
            rng = np.random.default_rng(seed)
            zeros = rng.binomial(1000, abs(u[0, 0]) ** 2)
            thetas = 2.0 * np.pi * np.arange(grid) / grid
            hits = [rng.binomial(1000, abs(u[0] @ equatorial_state(t)) ** 2) for t in thetas]
            design = np.column_stack([np.ones_like(thetas), np.cos(thetas), np.sin(thetas)])
            _, alpha, beta = np.linalg.lstsq(design, np.array(hits) / 1000, rcond=None)[0]
            assert (est.p00, est.p10) == (zeros / 1000, (1000 - zeros) / 1000)
            assert est.relative_phase == wrap_phase(math.atan2(-beta, alpha))

    def test_accepts_numpy_integers(self):
        u = generate_gate(2, [0.0, math.pi], 0)
        est = tomography_baseline(u, np.int64(100), seed=3, phase_grid_size=np.int16(4))
        assert est == tomography_baseline(u, 100, seed=3, phase_grid_size=4)
        assert type(est.gate_uses) is int and est.gate_uses == 500


class TestShotCounts:
    """Every labelled runner takes an integer shot count, never a truncated one."""

    RUNNERS = {
        "pm1": lambda shots: protocol_pm1(generate_gate(2, [0.0, math.pi], 0), 1, shots),
        "known-phases": lambda shots: protocol_known_phases(
            generate_gate(2, [0.4, 2.2], 0), 0.4, 2.2, 1, shots
        ),
        "qudit-minus-one": lambda shots: run_qudit_minus_one(
            householder_reflection([1.0, 1.0j, 0.5]), 1, shots
        ),
    }

    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    @pytest.mark.parametrize("shots", [7.9, 10.0, False, None])
    def test_refuses_non_integer_shots(self, runner, shots):
        with pytest.raises(ValueError, match="shots must be an integer"):
            self.RUNNERS[runner](shots)

    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    def test_accepts_numpy_integer_shots(self, runner):
        report = self.RUNNERS[runner](np.int32(37))
        assert report == self.RUNNERS[runner](37)
        assert sum(report.histogram.values()) == 37
