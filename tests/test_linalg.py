"""Tests for the dense linear algebra helpers."""

import json
import math
import struct

import numpy as np
import pytest

from qsinglet.linalg import (
    EigenSystem,
    SpectrumError,
    dagger,
    eigendecompose_2x2_unitary,
    generate_gate,
    haar_random_unitary,
    is_unitary,
    load_unitary,
    phase_distance,
    save_unitary,
    unitary_from_eigensystem,
    unitary_from_json,
    unitary_to_json,
    wrap_phase,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_haar_random_unitary_is_unitary(dim):
    u = haar_random_unitary(dim, seed=11)
    assert is_unitary(u)


def test_haar_random_unitary_deterministic():
    a = haar_random_unitary(3, seed=5)
    b = haar_random_unitary(3, seed=5)
    c = haar_random_unitary(3, seed=6)
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)


def test_haar_trace_second_moment():
    """E|tr U|^2 = 1 for the Haar measure in any dimension."""
    for dim in (2, 3):
        vals = [abs(np.trace(haar_random_unitary(dim, seed=s))) ** 2 for s in range(1500)]
        assert abs(np.mean(vals) - 1.0) < 0.15


def test_is_unitary_rejects_scaled_and_nonsquare():
    assert not is_unitary(2.0 * np.eye(2))
    assert not is_unitary(np.full((2, 2), np.nan))
    with pytest.raises(ValueError):
        is_unitary(np.ones((2, 3)))


@pytest.mark.parametrize(
    "phi,expected",
    [
        (0.0, 0.0),
        (-0.0, 0.0),
        (-5e-324, 0.0),
        (-np.pi, np.pi),
        (2.0 * np.pi, 0.0),
        (-2.0 * np.pi, 0.0),
        (6.0 * np.pi, 0.0),
        (4.0 * np.pi + 0.5, 0.5),
        (-1e-18, 0.0),
        # fmod is exact, so these are the residues of +-1e300 by the float 2 pi
        (1e300, math.fmod(1e300, 2.0 * np.pi)),
        (-1e300, 2.0 * np.pi - math.fmod(1e300, 2.0 * np.pi)),
    ],
)
def test_wrap_phase(phi, expected):
    """A Python float or numpy scalar comes back as a Python float, bitwise
    the value the array rule gives."""
    array_rule = struct.pack("<d", wrap_phase(np.array([phi]))[0])
    for scalar in (phi, np.float64(phi)):
        out = wrap_phase(scalar)
        assert type(out) is float
        assert struct.pack("<d", out) == array_rule
        assert 0.0 <= out < 2.0 * np.pi
        assert abs(out - expected) < 1e-12


def test_wrap_phase_array():
    out = wrap_phase(np.array([-np.pi / 2, 3.0 * np.pi]))
    np.testing.assert_allclose(out, [1.5 * np.pi, np.pi], atol=1e-12)


@pytest.mark.parametrize(
    "a,b,expected",
    [
        (0.0, 2.0 * np.pi - 0.1, 0.1),
        (np.pi, -np.pi, 0.0),
        (0.25, 0.25, 0.0),
        (0.0, np.pi, np.pi),
    ],
)
def test_phase_distance(a, b, expected):
    assert abs(phase_distance(a, b) - expected) < 1e-12


def test_eigensystem_rejects_skewed_vectors():
    skew = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        EigenSystem(skew, np.array([0.0, 1.0]))


def test_eigensystem_rejects_out_of_range_phases():
    with pytest.raises(ValueError):
        EigenSystem(np.eye(2), np.array([0.0, 2.0 * np.pi]))
    with pytest.raises(ValueError):
        EigenSystem(np.eye(2), np.array([-0.1, 1.0]))


def test_unitary_from_eigensystem_builds_x():
    # eigenbasis {|+>, |->} with phases {0, pi} is exactly the X gate
    basis = np.column_stack([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    u = unitary_from_eigensystem(EigenSystem(basis, np.array([0.0, np.pi])))
    np.testing.assert_allclose(u, X, atol=1e-15)


def composed_gate(dim, phases, seed):
    """The reference synthesis: a Haar basis drawn with one standard_normal
    call per Gaussian part, checked and assembled through an EigenSystem."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    basis = q * (d / np.abs(d))
    assert haar_random_unitary(dim, seed).tobytes() == basis.tobytes()
    return unitary_from_eigensystem(EigenSystem(basis, wrap_phase(np.array(phases))))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_generate_gate_is_bitwise_the_eigensystem_composition(dim):
    draws = np.random.default_rng(dim)
    for seed in range(500):
        # unwrapped float phases, and the integer phases a config may hold
        phases = draws.uniform(-8.0, 8.0, dim).tolist() if seed % 5 else list(range(dim))
        assert generate_gate(dim, phases, seed).tobytes() == composed_gate(dim, phases, seed).tobytes()


def assert_eigenphases(u, phases):
    """Each phase is a root of the characteristic polynomial: det(u - e^{i phase} I) = 0."""
    assert phases.shape == (2,)
    for phase in phases:
        assert 0.0 <= phase < 2.0 * np.pi
        assert abs(np.linalg.det(u - np.exp(1j * phase) * np.eye(2))) < 1e-10


@pytest.mark.parametrize("seed", range(20))
def test_eigendecompose_2x2_matches_numpy(seed):
    """Closed-form 2x2 eigenphases against the general solver."""
    u = haar_random_unitary(2, seed)
    phases = eigendecompose_2x2_unitary(u)
    reference = np.sort(wrap_phase(np.angle(np.linalg.eigvals(u))))
    mine = np.sort(phases)
    for p, q in zip(mine, reference):
        assert phase_distance(float(p), float(q)) < 1e-10
    assert_eigenphases(u, phases)


@pytest.mark.parametrize("seed", range(10))
def test_eigendecompose_2x2_eigenvalue_equations(seed):
    u = haar_random_unitary(2, seed + 100)
    assert_eigenphases(u, eigendecompose_2x2_unitary(u))


def test_eigendecompose_2x2_degenerate_global_phase():
    """A global phase times the identity has no distinguished eigenbasis."""
    with pytest.raises(SpectrumError, match="gate spectrum is degenerate"):
        eigendecompose_2x2_unitary(np.exp(0.7j) * np.eye(2))


@pytest.mark.parametrize("gap", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-9, 1e-11])
def test_eigendecompose_2x2_phases_hold_near_degeneracy(gap):
    """The discriminant (a - d)^2 + 4bc does not cancel as the eigenvalues meet,
    so the phase error stays at rounding level rather than growing as 1/gap;
    gaps above the 1e-12 degeneracy test still return two phases."""
    rng = np.random.default_rng(int(-math.log10(gap)))
    worst = 0.0
    for seed in range(200):
        low = float(rng.uniform(0.0, 2.0 * math.pi))
        phases = [low, float(wrap_phase(low + gap))]
        got = [float(p) for p in eigendecompose_2x2_unitary(generate_gate(2, phases, seed))]
        worst = max(worst, min(
            max(phase_distance(got[0], phases[0]), phase_distance(got[1], phases[1])),
            max(phase_distance(got[0], phases[1]), phase_distance(got[1], phases[0])),
        ))
    assert worst <= 4e-15


def test_eigendecompose_2x2_near_diagonal():
    # a reflection with a tiny off-diagonal part still has eigenvalues exactly +-1
    eps = 1e-7
    c, s = math.cos(eps), math.sin(eps)
    u = np.array([[c, -s], [s, c]]) @ np.diag([1.0, -1.0])
    phases = eigendecompose_2x2_unitary(u)
    np.testing.assert_allclose(np.sort(phases), [0.0, np.pi], atol=1e-12)
    assert_eigenphases(u, phases)


def test_unitary_json_roundtrip():
    u = haar_random_unitary(3, seed=2)
    obj = unitary_to_json(u)
    assert obj["dim"] == 3
    assert len(obj["entries"]) == 9
    assert all(len(pair) == 2 for pair in obj["entries"])
    np.testing.assert_allclose(unitary_from_json(obj), u, atol=1e-15)


def test_unitary_from_json_rejects_bad_shapes():
    with pytest.raises(ValueError):
        unitary_from_json({"dim": 2, "entries": [[1.0, 0.0]]})
    with pytest.raises(ValueError):
        unitary_from_json({"entries": []})
    # entries must be a list of dim*dim [re, im] lists
    for entries in ([1, 2, 3, 4], 5, "abcd", [[1.0, 0.0, 0.0]] * 4, [[1.0]] * 4,
                    {"0": [1.0, 0.0]}, [(1.0, 0.0)] * 4):
        with pytest.raises(ValueError, match=r"needs 'entries' as dim\*dim = 4 \[re, im\] pairs"):
            unitary_from_json({"dim": 2, "entries": entries})
    # right shape, wrong content
    bad = {"dim": 2, "entries": [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]}
    with pytest.raises(ValueError):
        unitary_from_json(bad)
    # dim must be an integer and every entry part a number, not coerced to one
    identity = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    for dim, entries in [(2.5, identity), ("2", identity), (True, [[1.0, 0.0]]),
                         (2, [[True, False], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])]:
        with pytest.raises(ValueError, match="must be an integer|must be a number"):
            unitary_from_json({"dim": dim, "entries": entries})


def test_save_load_unitary(tmp_path):
    path = tmp_path / "gate.json"
    u = haar_random_unitary(2, seed=9)
    save_unitary(path, u)
    text = path.read_text()
    assert text.endswith("\n")
    assert set(json.loads(text)) == {"dim", "entries"}
    np.testing.assert_allclose(load_unitary(path), u, atol=1e-15)


def test_dagger_involution():
    u = haar_random_unitary(4, seed=1)
    np.testing.assert_allclose(dagger(dagger(u)), u)
    np.testing.assert_allclose(dagger(u) @ u, np.eye(4), atol=1e-10)
