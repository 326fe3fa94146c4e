"""Tests for double phase estimation on a singlet."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsinglet import phase_estimation
from qsinglet.cli import resolve_gate
from qsinglet.linalg import generate_gate
from qsinglet.phase_estimation import (
    DISTRIBUTION_CAP,
    PeBranch,
    _analyze,
    _candidates,
    _dense_joint,
    _rank_joint,
    EXACT_BRANCH_CAP,
    MAX_REGISTER_QUBITS,
    PEAK_BOUND,
    GridDecomposition,
    double_pe_output_state,
    g_amplitude,
    inverse_qft,
    inverse_qft_matrix,
    nearest_grid,
    run_double_pe,
)
from qsinglet.protocols import SpectrumError
from qsinglet.register import PROB_FLOOR, State, sample_counts
import semiclassical
from test_properties import circuit_cases, numpy_eigenvectors
from test_sampling import ranking_oracle

TWO_PI = 2.0 * math.pi


def register_amplitudes(x, n):
    """Readout amplitudes of one counting register, by direct Fourier sum."""
    size = 2 ** n
    j = np.arange(size)
    return np.array(
        [np.mean(np.exp(2j * np.pi * j * (x - z / size))) for z in range(size)]
    )


class TestNearestGrid:
    @pytest.mark.parametrize(
        "n,x,xbar,delta",
        [
            (3, 0.3, 2, 0.05),
            (3, 0.25, 2, 0.0),
            (2, 0.375, 1, 0.125),  # exact half-tie rounds down
            (3, 0.99, 0, -0.01),  # wraps past the top of the grid
            (1, 0.5, 1, 0.0),
        ],
    )
    def test_frozen_decompositions(self, n, x, xbar, delta):
        grid = nearest_grid(TWO_PI * x, n)
        assert grid.n == n
        assert grid.xbar == xbar
        assert abs(grid.delta - delta) < 1e-12

    @pytest.mark.parametrize("n", [1, 3, 5, 8])
    def test_offset_bound_and_reconstruction(self, n):
        rng = np.random.default_rng(n)
        for phi in rng.uniform(0.0, TWO_PI, size=200):
            grid = nearest_grid(phi, n)
            assert abs(grid.delta) <= 2.0 ** -(n + 1) + 1e-15
            assert 0 <= grid.xbar < 2 ** n
            # x is reconstructed exactly, including the wrapped top edge
            raw = grid.x - grid.delta
            assert raw * 2 ** n == round(raw * 2 ** n)
            assert round(raw * 2 ** n) % 2 ** n == grid.xbar

    def test_rejects_bad_register_size(self):
        with pytest.raises(ValueError):
            nearest_grid(1.0, 0)
        with pytest.raises(ValueError):
            nearest_grid(1.0, MAX_REGISTER_QUBITS + 1)


def loop_amplitude(z, grid):
    """Reference: the closed form evaluated on one Python-int reading."""
    size = 2 ** grid.n
    numerator = 1.0 - np.exp(2j * np.pi * grid.delta * size)
    denominator = 1.0 - np.exp(2j * np.pi * ((grid.xbar - z) / size + grid.delta))
    if denominator == 0.0:
        return 1.0 + 0.0j
    return complex(numerator / denominator / size)


class TestGAmplitude:
    def test_on_grid_is_a_delta(self):
        grid = nearest_grid(TWO_PI * 3.0 / 8.0, 3)
        assert grid.delta == 0.0
        for z in range(8):
            expected = 1.0 if z == grid.xbar else 0.0
            assert abs(g_amplitude(z, grid) - expected) < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_direct_fourier_sum(self, n):
        rng = np.random.default_rng(30 + n)
        for phi in rng.uniform(0.0, TWO_PI, size=50):
            grid = nearest_grid(phi, n)
            oracle = register_amplitudes(grid.x, n)
            for z in range(2 ** n):
                assert abs(g_amplitude(z, grid) - oracle[z]) < 1e-10

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_peak_stays_above_bound(self, n):
        rng = np.random.default_rng(50 + n)
        half = 2.0 ** -(n + 1)
        for delta in rng.uniform(-half, half, size=300):
            grid = GridDecomposition(n, (3 + delta * 2 ** n) / 2 ** n, 3 % 2 ** n, delta)
            assert abs(g_amplitude(3 % 2 ** n, grid)) > PEAK_BOUND

    @pytest.mark.parametrize("delta", [5e-324, -1e-310, 3.541315033e-314, 3e-309])
    def test_subnormal_offset_gives_the_limit_at_the_peak(self, delta):
        """At a subnormal offset the peak's denominator is subnormal, and
        dividing by it would overflow; the peak is the limit 1 and every
        other reading keeps the closed form."""
        n = 5
        grid = GridDecomposition(n, (3 + delta * 2 ** n) / 2 ** n, 3, delta)
        profile = g_amplitude(np.arange(2 ** n), grid)
        assert profile[3] == 1.0 and g_amplitude(3, grid) == 1.0
        others = np.array([loop_amplitude(z, grid) for z in range(2 ** n) if z != 3])
        assert np.array_equal(np.delete(profile, 3).view(float), others.view(float))
        assert np.max(np.abs(profile - register_amplitudes(grid.x, n))) < 1e-12

    @pytest.mark.parametrize("delta", [np.finfo(float).tiny, -1e-300, 1e-20])
    def test_tiny_normal_offset_keeps_its_closed_form(self, delta):
        n = 5
        grid = GridDecomposition(n, (3 + delta * 2 ** n) / 2 ** n, 3, delta)
        loop = np.array([loop_amplitude(z, grid) for z in range(2 ** n)])
        assert np.array_equal(g_amplitude(np.arange(2 ** n), grid).view(float), loop.view(float))

    def test_rejects_out_of_range_reading(self):
        grid = nearest_grid(0.1, 2)
        with pytest.raises(ValueError):
            g_amplitude(4, grid)
        with pytest.raises(ValueError):
            g_amplitude(-1, grid)
        for readings in ([0, 1, 4], [-1, 0], [[0, 3], [2, 5]]):
            with pytest.raises(ValueError):
                g_amplitude(np.array(readings), grid)

    def test_rejects_non_integer_reading(self):
        grid = nearest_grid(0.1, 3)
        for z in (3.7, 3.0, True, np.float64(2.0), np.array([0.0, 1.5]), np.array([True])):
            with pytest.raises(ValueError):
                g_amplitude(z, grid)

    @pytest.mark.parametrize("n", range(1, MAX_REGISTER_QUBITS + 1))
    def test_array_matches_scalar_calls_bitwise(self, n):
        size = 2 ** n
        rng = np.random.default_rng(70 + n)
        on_grid = TWO_PI * rng.integers(0, size, size=3) / size
        off_grid = rng.uniform(0.0, TWO_PI, size=3)
        for phi in np.concatenate([on_grid, off_grid]):
            grid = nearest_grid(phi, n)
            profile = g_amplitude(np.arange(size), grid)
            scalars = np.array([g_amplitude(z, grid) for z in range(size)])
            loop = np.array([loop_amplitude(z, grid) for z in range(size)])
            assert profile.dtype == complex and profile.shape == (size,)
            assert np.array_equal(profile.view(float), scalars.view(float))
            assert np.array_equal(profile.view(float), loop.view(float))
            unsigned = g_amplitude(np.arange(size, dtype=np.uint16), grid)
            assert np.array_equal(unsigned.view(float), profile.view(float))
        assert type(g_amplitude(np.int64(1), grid)) is complex


class TestInverseQft:
    def test_one_qubit_is_hadamard(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        np.testing.assert_allclose(inverse_qft_matrix(1), h, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_conjugated_dft(self, n):
        size = 2 ** n
        dft = np.array(
            [[np.exp(2j * np.pi * y * z / size) for y in range(size)] for z in range(size)]
        ) / math.sqrt(size)
        np.testing.assert_allclose(inverse_qft_matrix(n), np.conjugate(dft), atol=1e-12)
        m = inverse_qft_matrix(n)
        np.testing.assert_allclose(m @ np.conjugate(m).T, np.eye(size), atol=1e-12)

    def test_action_on_basis_state(self):
        n, y = 2, 3
        out = inverse_qft(State((2,) * n, np.eye(2 ** n)[y]), range(n))
        expected = np.exp(-2j * np.pi * y * np.arange(4) / 4.0) / 2.0
        np.testing.assert_allclose(out.amps, expected, atol=1e-12)


class TestRunDoublePe:
    def test_on_grid_support_and_fidelities(self):
        n = 3
        xbar1, xbar2 = 1, 5
        u = generate_gate(2, [TWO_PI * xbar1 / 8, TWO_PI * xbar2 / 8], 2)
        report = run_double_pe(u, n)
        joint = report.exact_joint
        assert abs(joint[xbar1, xbar2] - 0.5) <= 1e-10
        assert abs(joint[xbar2, xbar1] - 0.5) <= 1e-10
        mask = np.ones_like(joint, dtype=bool)
        mask[xbar1, xbar2] = mask[xbar2, xbar1] = False
        assert np.max(joint[mask]) <= 1e-12
        assert report.gate_uses == 2 * (2 ** n - 1)
        for branch in report.branches:
            assert abs(branch.fidelity_a - 1.0) <= 1e-12
            assert abs(branch.fidelity_b - 1.0) <= 1e-12
        # the two branches read opposite eigenphases, never the same one twice
        readings = {(b.z_a, b.z_b): (b.match_a, b.match_b) for b in report.branches}
        assert readings[(xbar1, xbar2)] == (0, 1)
        assert readings[(xbar2, xbar1)] == (1, 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_joint_distribution_matches_closed_form(self, seed):
        """Exact joint readout against the independent Fourier-sum formula."""
        n = 3
        rng = np.random.default_rng(seed)
        phases = np.sort(rng.uniform(0.1, TWO_PI - 0.1, size=2))
        u = generate_gate(2, phases, 60 + seed)
        report = run_double_pe(u, n)
        a1 = register_amplitudes(report.eigenphases[0] / TWO_PI, n)
        a2 = register_amplitudes(report.eigenphases[1] / TWO_PI, n)
        oracle = 0.5 * (
            np.abs(np.outer(a1, a2)) ** 2 + np.abs(np.outer(a2, a1)) ** 2
        )
        np.testing.assert_allclose(report.exact_joint, oracle, atol=1e-12)
        assert abs(np.sum(report.exact_joint) - 1.0) < 1e-10

    def test_branch_fidelity_matches_amplitude_ratio(self):
        n = 2
        u = generate_gate(2, [0.7, 3.9], 11)
        report = run_double_pe(u, n)
        a = [register_amplitudes(p / TWO_PI, n) for p in report.eigenphases]
        for branch in report.branches[:4]:
            w1 = abs(a[0][branch.z_a] * a[1][branch.z_b]) ** 2
            w2 = abs(a[1][branch.z_a] * a[0][branch.z_b]) ** 2
            expected = (w1 if branch.match_a == 0 else w2) / (w1 + w2)
            assert abs(branch.fidelity_a - expected) < 1e-10

    def test_grids_follow_eigenphases(self):
        u = generate_gate(2, [1.0, 4.0], 7)
        report = run_double_pe(u, 4)
        for phase, grid in zip(report.eigenphases, report.grids):
            reference = nearest_grid(phase, 4)
            assert grid.xbar == reference.xbar
            assert abs(grid.delta - reference.delta) < 1e-12

    def test_exact_branch_cap(self):
        u = generate_gate(2, [1.0, 4.0], 8)
        report = run_double_pe(u, 4)
        assert 0 < len(report.branches) <= EXACT_BRANCH_CAP
        readings = [b.z_a * 16 + b.z_b for b in report.branches]
        assert readings == sorted(readings)
        # no kept reading left out is more likely than an analysed one
        lowest = min(b.probability for b in report.branches)
        kept = dict(zip(report.kept.tolist(), report.kept_probabilities.tolist()))
        assert all(p <= lowest for z, p in kept.items() if z not in readings)

    @pytest.mark.parametrize("n", range(1, MAX_REGISTER_QUBITS + 1))
    @pytest.mark.parametrize("offset", [0.0, 0.45])
    def test_ranks_once_and_analyses_a_prefix(self, n, offset):
        """The kept readings are the first DISTRIBUTION_CAP of the dense
        joint's ranking and the analysed ones its first EXACT_BRANCH_CAP,
        both in flat order."""
        size = 2 ** n
        # readings 1 and 0, both shifted off the grid by `offset` of a step
        phases = [TWO_PI * (1 + offset) / size, TWO_PI * ((size - offset) % size) / size]
        u = generate_gate(2, phases, n)
        report = run_double_pe(u, n)
        ranking = ranking_oracle(report.exact_joint, DISTRIBUTION_CAP)
        assert report.kept.tolist() == sorted(ranking)
        readings = [b.z_a * size + b.z_b for b in report.branches]
        assert readings == sorted(ranking[:EXACT_BRANCH_CAP])

    def test_sampling_determinism_and_counts(self):
        u = generate_gate(2, [0.5, 2.5], 3)
        a = run_double_pe(u, 2, shots=300, seed=9)
        b = run_double_pe(u, 2, shots=300, seed=9)
        assert [c.tolist() for c in a.observed] == [c.tolist() for c in b.observed]
        assert a.observed[1].sum() == 300
        observed = {divmod(z, 4) for z in a.observed[0].tolist()}
        assert {(br.z_a, br.z_b) for br in a.branches} == observed

    def test_output_state_layout(self):
        out = double_pe_output_state(generate_gate(2, [0.5, 2.5], 1), 2)
        assert out.dims == (2, 2, 2, 2, 2, 2)

    def test_rejects_degenerate_and_bad_sizes(self):
        with pytest.raises(SpectrumError):
            run_double_pe(np.eye(2), 3)
        with pytest.raises(SpectrumError):
            run_double_pe(generate_gate(2, [1.0, 1.0 + 1e-9], 0), 3)
        u = generate_gate(2, [0.5, 2.5], 0)
        with pytest.raises(ValueError):
            run_double_pe(u, 0)
        with pytest.raises(ValueError):
            run_double_pe(u, MAX_REGISTER_QUBITS + 1)
        with pytest.raises(ValueError):
            run_double_pe(u, 2, shots=-1)

    @pytest.mark.parametrize("value", [2.5, 3.0, True])
    def test_refuses_non_integer_sizes_and_shots(self, value):
        """A fractional n or shot count used to be truncated silently."""
        u = generate_gate(2, [0.5, 2.5], 0)
        with pytest.raises(ValueError, match="register size must be an integer"):
            run_double_pe(u, value)
        with pytest.raises(ValueError, match="register size must be an integer"):
            nearest_grid(0.5, value)
        with pytest.raises(ValueError, match="shots must be an integer"):
            run_double_pe(u, 3, shots=value)

    def test_accepts_numpy_integers(self):
        u = generate_gate(2, [0.5, 2.5], 0)
        report = run_double_pe(u, np.int64(3), shots=np.uint16(50), seed=2)
        again = run_double_pe(u, 3, shots=50, seed=2)
        assert report.n == 3 and type(report.n) is int
        assert report.observed[1].sum() == 50
        assert [c.tolist() for c in report.observed] == [c.tolist() for c in again.observed]
        assert nearest_grid(0.5, np.int8(4)) == nearest_grid(0.5, 4)


def dense_top(joint, cap=DISTRIBUTION_CAP):
    """Flat indices, ascending, of the ``cap`` most likely readings of a
    dense joint by the plain-Python ranking, and their entries."""
    flat = joint.reshape(-1)
    kept = np.array(sorted(ranking_oracle(flat, cap)), dtype=np.int64)
    return kept, flat[kept]


def assert_keeps_the_dense_top(report):
    kept, values = dense_top(report.exact_joint)
    assert report.kept.tolist() == kept.tolist()
    assert report.kept_probabilities.tobytes() == values.tobytes()


def grid_phases(n, spectrum, seed):
    """Two distinct phases on the n-bit grid, or up to half a step off it."""
    rng = np.random.default_rng([n, seed])
    size = 2 ** n
    readings = rng.choice(size, size=2, replace=False)
    offsets = rng.uniform(-0.5, 0.5, size=2) if spectrum == "off" else np.zeros(2)
    return [TWO_PI * (k + off) / size for k, off in zip(readings, offsets)]


# (gate, n): exact grid phases whose profiles hold exact zeros, dpe-sweep's
# seed 3 op 91 (phases one n = 10 grid step apart), and a gate whose joint
# ties across the cutoff of DISTRIBUTION_CAP
SPECIAL_RANKINGS = {
    "zero-pi": (np.diag([1.0, -1.0]).astype(complex), 6),
    "zero-half-pi": (np.diag([1.0, 1.0j]), 9),
    "adjacent-grid-points": (
        resolve_gate({"dim": 2, "phases": [0.5364083968167054, 0.5373964945013426],
                      "seed": 895567054}),
        10,
    ),
    "tie-at-cutoff": (
        resolve_gate({"dim": 2, "phases": [5.753913082936317, 0.5007266100522114],
                      "seed": 440806662}),
        8,
    ),
}


class TestProfileRanking:
    """The readings selected from the two profiles against the dense joint's."""

    @pytest.mark.parametrize("n", range(1, MAX_REGISTER_QUBITS + 1))
    @pytest.mark.parametrize("spectrum", ["on", "off"])
    @pytest.mark.parametrize("seed", range(2))
    def test_matches_dense_top_set(self, n, spectrum, seed):
        report = run_double_pe(generate_gate(2, grid_phases(n, spectrum, seed), seed), n)
        assert_keeps_the_dense_top(report)

    @pytest.mark.parametrize("case", sorted(SPECIAL_RANKINGS))
    def test_matches_dense_top_set_on_edge_cases(self, case):
        u, n = SPECIAL_RANKINGS[case]
        report = run_double_pe(u, n)
        assert_keeps_the_dense_top(report)
        g1, g2 = report.profiles
        if case.startswith("zero"):
            assert np.count_nonzero(g1 == 0) and np.count_nonzero(g2 == 0)
        if case == "tie-at-cutoff":
            flat = report.exact_joint.reshape(-1)
            beyond = ranking_oracle(flat, DISTRIBUTION_CAP + 1)
            assert flat[beyond[-2]] == flat[beyond[-1]]

    @pytest.mark.parametrize("kind", ["uniform", "steep", "three-level", "exponential"])
    def test_matches_dense_top_set_on_synthetic_profiles(self, kind):
        """Arbitrary profiles and caps, which stress the candidate bound harder
        than phase-estimation profiles do: halving it is what keeps these exact."""
        rng = np.random.default_rng(["uniform", "steep", "three-level", "exponential"].index(kind))
        for _ in range(150):
            size = 2 ** int(rng.integers(1, 7))
            cap = int(rng.integers(1, 2 * size * size))
            if kind == "uniform":
                magnitude = rng.random((2, size))
            elif kind == "steep":
                magnitude = rng.random((2, size)) ** 6
            elif kind == "three-level":
                magnitude = rng.choice([0.0, 0.5, 1.0], size=(2, size))
            else:
                magnitude = np.exp(-30.0 * rng.random((2, size)))
            magnitude[:, 0] += 0.1
            if kind != "three-level":
                assert np.all(magnitude > 0.0)
            g1, g2 = magnitude * np.exp(2j * np.pi * rng.random((2, size)))
            selected, values = _rank_joint(g1, g2, cap)
            kept, entries = dense_top(_dense_joint(g1, g2), cap)
            assert selected.tolist() == kept.tolist()
            assert values.tobytes() == entries.tobytes()

    @pytest.mark.parametrize("shots", [0, 1000])
    @pytest.mark.parametrize(
        "n, phases",
        [
            # reading 3 lies two steps from both grid points 1 and 5
            (3, [TWO_PI * 1.4 / 8, TWO_PI * 5.4 / 8]),
            (6, grid_phases(6, "on", 0)),
            (8, grid_phases(8, "off", 0)),
            (10, grid_phases(10, "off", 0)),
        ],
    )
    def test_branches_match_dense_entries(self, n, phases, shots):
        report = run_double_pe(generate_gate(2, phases, 5), n, shots=shots, seed=3)
        joint = report.exact_joint
        straight = np.abs(np.outer(*report.profiles)) ** 2 / 2.0
        size = 2 ** n

        def match(z):
            def distance(k):
                d = abs(z - report.grids[k].xbar) % size
                return min(d, size - d)

            return min(range(2), key=lambda k: (distance(k), k))

        if shots:
            assert {b.z_a * size + b.z_b for b in report.branches} == set(report.observed[0].tolist())
        else:
            assert [b.z_a * size + b.z_b for b in report.branches] == (
                dense_top(joint, EXACT_BRANCH_CAP)[0].tolist()
            )
        assert report.branches
        for b in report.branches:
            p = float(joint[b.z_a, b.z_b])
            share = float(straight[b.z_a, b.z_b]) / p
            assert (b.match_a, b.match_b) == (match(b.z_a), match(b.z_b))
            assert b.probability == p
            assert b.fidelity_a == (share if b.match_a == 0 else 1.0 - share)
            assert b.fidelity_b == (1.0 - share if b.match_b == 0 else share)

    @pytest.mark.parametrize("spectrum", ["on", "off", "zero-pi"])
    def test_exact_run_never_builds_the_dense_joint(self, spectrum):
        """One float array of 4^10 entries takes 8.4 MB; an exact run stays under 4 MB."""
        if spectrum == "zero-pi":
            u = SPECIAL_RANKINGS["zero-pi"][0]
        else:
            u = generate_gate(2, grid_phases(MAX_REGISTER_QUBITS, spectrum, 0), 0)
        run_double_pe(u, MAX_REGISTER_QUBITS)
        tracemalloc.start()
        try:
            report = run_double_pe(u, MAX_REGISTER_QUBITS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        if spectrum == "zero-pi":
            # the phases 0 and pi are exact on every kernel, so each profile
            # is an exact delta; whether a Haar gate's grid phase lands on the
            # grid exactly (and its profile holds zeros) depends on the kernel
            assert all(np.count_nonzero(g) == 1 for g in report.profiles)
        size = 2 ** MAX_REGISTER_QUBITS
        assert isinstance(report.exact_joint, np.ndarray)
        assert report.exact_joint.shape == (size, size)


def profile_pair(n, phases):
    """The two register profiles of eigenphases ``phases`` at n qubits."""
    return tuple(g_amplitude(np.arange(2 ** n), nearest_grid(phi, n)) for phi in phases)


@st.composite
def profile_cases(draw):
    """n = 5, 6 or 7, two distinct phases on the grid or off it, and a cap
    one below, at or one above 4^n."""
    n = draw(st.sampled_from([5, 6, 7]))
    if draw(st.booleans()):
        readings = st.integers(0, 2 ** n - 1)
        k1, k2 = draw(st.lists(readings, min_size=2, max_size=2, unique=True))
        phases = [TWO_PI * k1 / 2 ** n, TWO_PI * k2 / 2 ** n]
    else:
        theta = draw(st.floats(0.0, TWO_PI, exclude_max=True))
        gap = draw(st.floats(0.05, TWO_PI - 0.05))
        phases = [theta, (theta + gap) % TWO_PI]
    return n, phases, 4 ** n + draw(st.sampled_from([-1, 0, 1]))


class TestRankingRegimes:
    """Dense ranking while 4^n <= cap, the staircase above it."""

    @settings(max_examples=60, deadline=None)
    @given(case=profile_cases())
    # a subnormal grid offset, which makes the peak's denominator subnormal
    @example(case=(5, [2.2250738585e-313, 1.0], 4 ** 5))
    def test_both_regimes_equal_dense_top_set(self, case):
        n, phases, cap = case
        g1, g2 = profile_pair(n, phases)
        selected, values = _rank_joint(g1, g2, cap)
        kept, entries = dense_top(_dense_joint(g1, g2), cap)
        assert selected.tolist() == kept.tolist()
        assert values.tobytes() == entries.tobytes()

    def test_register_size_picks_the_regime(self, monkeypatch):
        widths = []
        real = phase_estimation._prefix_pairs

        def spy(w):
            widths.append(w)
            return real(w)

        monkeypatch.setattr(phase_estimation, "_prefix_pairs", spy)
        u = generate_gate(2, [0.7, 2.9], 3)
        run_double_pe(u, 6)
        assert widths == []
        run_double_pe(u, 7)
        assert len(widths) == 2
        # the switch sits exactly at 4^n = cap, whatever the cap
        for n in (3, 5, 7):
            g1, g2 = profile_pair(n, [0.7, 2.9])
            widths.clear()
            _rank_joint(g1, g2, 4 ** n)
            assert widths == []
            _rank_joint(g1, g2, 4 ** n - 1)
            assert len(widths) == 2


class TestRankSlack:
    """``RANK_SLACK`` on each side: wide enough for rounding, and no wider."""

    def test_keeps_a_reading_its_products_round_below_the_floor(self):
        """Fewer than the cap readings clear the floor here, so the bound is
        PROB_FLOOR itself. Reading (0, 0) has J = |g_1 g_2|^2 one ulp above
        it while |g_1|^2 |g_2|^2 rounds below it, so with no slack the
        staircase would not evaluate a reading the dense joint keeps."""
        u = np.diag([complex(0.9999999999957493, 2.9157285942466027e-06),
                     complex(0.9700311937077197, 0.24298041738785503)])
        report = run_double_pe(u, 7)
        assert_keeps_the_dense_top(report)
        assert len(report.kept) < DISTRIBUTION_CAP and 0 in report.kept.tolist()

    @pytest.mark.parametrize("n", [7, 8, 10])
    def test_evaluates_no_reading_far_below_the_bound(self, n):
        """Every reading the staircase evaluates reaches within 1e-6 of its
        bound max(P_(cap) / 2, PROB_FLOOR), P = |g_1|^2 (x) |g_2|^2."""
        g1, g2 = profile_pair(n, [0.7, 2.9])
        z_a, z_b = np.divmod(_candidates(g1, g2, DISTRIBUTION_CAP), 2 ** n)
        x, y = np.abs(g1) ** 2, np.abs(g2) ** 2
        products = np.outer(x, y).reshape(-1)
        kth = products.shape[0] - DISTRIBUTION_CAP
        bound = max(float(np.partition(products, kth)[kth]) / 2.0, PROB_FLOOR)
        reach = np.maximum(x[z_a] * y[z_b], x[z_b] * y[z_a])
        assert reach.min() >= bound * (1.0 - 1e-6)


class TestLazyBranches:
    """``branches`` is built on first read."""

    @pytest.mark.parametrize("shots", [0, 1, 1000])
    @pytest.mark.parametrize("n", [3, 6, 8])
    def test_equal_the_eager_values_and_are_built_once(self, n, shots):
        seed = 7
        report = run_double_pe(generate_gate(2, [0.7, 2.9], 5), n, shots=shots, seed=seed)
        assert "branches" not in vars(report)
        if shots:
            counts = sample_counts(report.exact_joint, shots, seed)
            picked = np.flatnonzero(counts)
            observed = picked.tolist(), counts[picked].tolist()
        else:
            picked = dense_top(report.exact_joint, EXACT_BRANCH_CAP)[0]
            observed = [], []
        columns = _analyze(report.grids, *report.profiles, picked)
        branches = tuple(PeBranch(*row) for row in zip(*(c.tolist() for c in columns)))
        assert report.branches == branches
        assert tuple(c.tolist() for c in report.observed) == observed
        assert all(c.dtype == np.int64 for c in report.observed)
        assert all(type(b.probability) is float and type(b.z_a) is int for b in report.branches)
        assert report.branches is report.branches


class TestSemiclassicalCircuit:
    """The closed form against the qubit-by-qubit circuit model at every n."""

    @settings(max_examples=60, deadline=None)
    @given(case=circuit_cases(), shots=st.sampled_from([0, 1000]))
    @example(case=(8, [0.7, 2.9], 3), shots=0)
    @example(case=(10, [0.7, 2.9], 3), shots=1000)
    def test_joint_and_fidelities_match_the_circuit(self, case, shots):
        n, phases, seed = case
        u = generate_gate(2, phases, seed)
        report = run_double_pe(u, n, shots=shots, seed=seed)
        size = 2 ** n
        if n <= 8:
            readings, expected = np.arange(size * size), report.exact_joint.reshape(-1)
        else:
            readings, expected = report.kept, report.kept_probabilities
        # the closed form reads each eigenphase as a float, and the register
        # multiplies its absolute error by 2^n: against a 40-digit evaluation
        # of the circuit it was off by up to 7.2 * 2^n * 1e-16 on random gates,
        # the circuit model by at most 0.2 * 2^n * 1e-16
        joint = semiclassical.probabilities(semiclassical.halves(u, n, readings))
        assert np.max(np.abs(joint - expected)) <= size * 2e-15 + 1e-15
        # a fidelity is a ratio of weights, so it is compared as the weight
        # P * fidelity: the circuit's absolute error does not shrink with P
        z_a, z_b, p, fidelity_a, fidelity_b, match_a, match_b = report.analysed
        vectors = numpy_eigenvectors(u, report.eigenphases).T
        halves = semiclassical.halves(u, n, z_a * size + z_b)
        circuit_a, circuit_b = semiclassical.fidelities(halves, vectors[match_a], vectors[match_b])
        assert np.max(np.abs(circuit_a - fidelity_a) * p) <= size * 1e-16 + 1e-15
        assert np.max(np.abs(circuit_b - fidelity_b) * p) <= size * 1e-16 + 1e-15
