"""Dense complex linear algebra helpers shared by the simulator and protocols.

Matrices are plain ``np.ndarray`` objects with dtype complex128. Composite
indices follow one convention everywhere: in a tensor product the first factor
is the most significant digit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

UNITARY_ATOL = 1e-10
TWO_PI = 2.0 * np.pi
MAX_SEED = 2 ** 64


def require_int(value, what: str, minimum=None, maximum=None) -> int:
    """``value`` as an int if it is a non-bool (numpy) integer within bounds, else ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{what} must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{what} must be at most {maximum}, got {value}")
    return value


def require_number(value, what: str) -> float:
    """Return ``value`` as a float if it is a finite (non-bool) number, else raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return number


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conjugate(m).T


def qubit_perp(v: np.ndarray) -> np.ndarray:
    """The qubit state orthogonal to ``v``, unique up to phase: (-v1*, v0*)."""
    return np.array([-np.conjugate(v[1]), np.conjugate(v[0])])


def is_unitary(m: np.ndarray) -> bool:
    """Check whether the square matrix ``m`` is unitary within ``UNITARY_ATOL``.

    The tolerance bounds the largest absolute deviation of ``m^dagger m`` from
    the identity. A non-square input raises ``ValueError``.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        return False
    defect = dagger(m) @ m - np.eye(m.shape[0])
    return bool(np.max(np.abs(defect)) <= UNITARY_ATOL)


def require_unitary(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Return ``m`` as complex ndarray, raising ValueError unless unitary."""
    m = np.asarray(m, dtype=complex)
    if not is_unitary(m):
        raise ValueError(f"{what} is not unitary within {UNITARY_ATOL:g}")
    return m


def wrap_phase(phi):
    """Reduce an angle (scalar or array) to the interval [0, 2*pi)."""
    if isinstance(phi, float):
        # Python's float % follows np.mod's rule: the sign-corrected fmod, and
        # +0.0 for a zero remainder
        out = float(phi) % TWO_PI
        # the remainder can round a tiny negative input up to exactly 2*pi
        return 0.0 if out >= TWO_PI else out
    out = np.mod(phi, TWO_PI)
    # np.mod can round a tiny negative input up to exactly 2*pi
    out = np.where(out >= TWO_PI, 0.0, out)
    return float(out) if np.isscalar(phi) else out


def phase_distance(a: float, b: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    return float(abs((a - b + np.pi) % TWO_PI - np.pi))


class SpectrumError(ValueError):
    """The gate's eigenvalues do not satisfy a protocol's precondition."""


@dataclass
class EigenSystem:
    """Orthonormal eigenvectors (columns of ``vectors``) with phases in [0, 2*pi)."""

    vectors: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=complex)
        self.phases = np.atleast_1d(np.asarray(self.phases, dtype=float))
        dim = self.vectors.shape[0]
        if self.vectors.shape != (dim, dim) or self.phases.shape != (dim,):
            raise ValueError("need a dim x dim vector matrix and dim phases")
        if not is_unitary(self.vectors):
            raise ValueError("eigenvectors are not orthonormal within 1e-10")
        if np.any(self.phases < 0.0) or np.any(self.phases >= TWO_PI):
            raise ValueError("eigenphases must lie in [0, 2*pi)")


def unitary_from_eigensystem(system: EigenSystem) -> np.ndarray:
    """Assemble ``V diag(e^{i phases}) V^dagger`` from an eigensystem."""
    v = system.vectors
    return (v * np.exp(1j * system.phases)) @ dagger(v)


def haar_random_unitary(dim: int, seed: int) -> np.ndarray:
    """Draw a Haar-distributed unitary, bit-identical for a fixed (dim, seed).

    Uses the QR construction: a complex Gaussian matrix is orthonormalized and
    the R diagonal's phases are absorbed so the distribution is exactly Haar
    rather than QR-convention biased.
    """
    dim = require_int(dim, "dim", minimum=1)
    # one draw for both parts: the real part's numbers come first, as two
    # separate calls would draw them
    re, im = np.random.default_rng(seed).standard_normal((2, dim, dim))
    z = re + 1j * im
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def generate_gate(dim: int, phases, seed: int) -> np.ndarray:
    """Build a gate with the given eigenphases on a seeded random eigenbasis.

    The same (dim, phases, seed) always produce the same matrix, so
    ``save_unitary(path, generate_gate(...))`` writes byte-identical files.
    """
    dim = require_int(dim, "dim", minimum=2)
    seed = require_int(seed, "seed", minimum=0, maximum=MAX_SEED - 1)
    phases = [require_number(p, "gate phase") for p in phases]
    if len(phases) != dim:
        raise ValueError(f"need exactly {dim} phases, got {len(phases)}")
    basis = haar_random_unitary(dim, seed)
    # unitary_from_eigensystem's product; QR already made the basis unitary,
    # so it is not wrapped in an EigenSystem to be checked again
    return (basis * np.exp(1j * wrap_phase(np.array(phases)))) @ dagger(basis)


DEGENERACY_ATOL = 1e-12


def eigendecompose_2x2_unitary(u: np.ndarray) -> np.ndarray:
    """The two eigenphases of a 2x2 unitary, each in [0, 2*pi).

    Solves the characteristic polynomial in closed form; no eigenvector is
    built. When the two eigenvalues coincide within 1e-12 the matrix is a
    global phase times the identity, has no distinguished eigenbasis, and
    SpectrumError is raised.
    """
    u = require_unitary(u)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    a, b = u[0, 0], u[0, 1]
    c, d = u[1, 0], u[1, 1]
    trace = a + d
    # equals sqrt(trace^2 - 4 det) but does not cancel when the eigenvalues
    # nearly coincide
    root = np.sqrt((a - d) * (a - d) + 4.0 * b * c + 0j)
    lam1 = (trace + root) / 2.0
    lam2 = (trace - root) / 2.0
    if abs(lam1 - lam2) <= DEGENERACY_ATOL:
        raise SpectrumError("gate spectrum is degenerate")
    return wrap_phase(np.angle(np.array([lam1, lam2])))


def unitary_to_json(u: np.ndarray) -> dict:
    """Serialize a unitary to the ``{"dim": n, "entries": [[re, im], ...]}`` form."""
    u = require_unitary(u)
    entries = [[float(z.real), float(z.imag)] for z in u.reshape(-1)]
    return {"dim": int(u.shape[0]), "entries": entries}


def unitary_from_json(obj: dict) -> np.ndarray:
    """Rebuild a unitary from its JSON form, validating shape and unitarity."""
    try:
        dim, entries = obj["dim"], obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError("matrix JSON needs 'dim' and 'entries' keys") from exc
    dim = require_int(dim, "matrix JSON dim", minimum=1)
    if len(entries) != dim * dim:
        raise ValueError(f"matrix JSON needs exactly dim*dim = {dim * dim} entries")
    flat = np.array([complex(require_number(re, "matrix JSON entry"),
                             require_number(im, "matrix JSON entry")) for re, im in entries])
    return require_unitary(flat.reshape(dim, dim), what="matrix JSON content")


def save_unitary(path, u: np.ndarray) -> None:
    """Write a unitary to ``path`` as matrix JSON (row-major entries)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(unitary_to_json(u), fh, sort_keys=True)
        fh.write("\n")


def load_unitary(path) -> np.ndarray:
    """Read matrix JSON from ``path``; non-unitary content is rejected."""
    with open(path, "r", encoding="utf-8") as fh:
        return unitary_from_json(json.load(fh))
