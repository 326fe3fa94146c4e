"""State-vector simulator for registers of mixed qubit/qudit subsystems.

A register is an ordered list of subsystem dimensions. Amplitudes are stored
as one dense complex vector indexed in mixed radix with the first listed
subsystem as the most significant digit, matching ``np.kron``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import require_int, require_unitary

NORM_ATOL = 1e-10
PHASE_FIX_ATOL = 1e-9
# outcomes at or below this Born probability are treated as never occurring
PROB_FLOOR = 1e-12
# uniforms drawn per batch when sampling shots
SAMPLE_CHUNK = 1 << 16


class EntangledSubsystemError(ValueError):
    """Raised when a subsystem is extracted across a non-product cut."""


@dataclass(frozen=True)
class State:
    """Normalized pure state of a register.

    Parameters
    ----------
    dims : tuple of int
        Subsystem dimensions in register order, each at least 2.
    amps : np.ndarray
        Complex amplitude vector of length ``prod(dims)`` with unit norm
        within 1e-10.
    """

    dims: tuple
    amps: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)
        if len(dims) == 0 or any(d < 2 for d in dims):
            raise ValueError(f"subsystem dimensions must all be >= 2, got {dims}")
        if amps.shape[0] != math.prod(dims):
            raise ValueError(f"expected {math.prod(dims)} amplitudes, got {amps.shape[0]}")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {norm!r} is not 1 within {NORM_ATOL:g}")

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem."""
        return self.amps.reshape(self.dims)


def digits_to_index(dims, digits) -> int:
    """Mixed-radix index of ``digits``, first subsystem most significant."""
    if len(digits) != len(dims):
        raise ValueError("one digit per subsystem required")
    index = 0
    for d, digit in zip(dims, digits):
        if not 0 <= digit < d:
            raise ValueError(f"digit {digit} out of range for dimension {d}")
        index = index * d + digit
    return index


def product_state(factors) -> State:
    """Tensor product of component states, in register order."""
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    dims = tuple(d for f in factors for d in f.dims)
    amps = factors[0].amps
    for f in factors[1:]:
        amps = np.kron(amps, f.amps)
    return State(dims, amps)


def as_amplitudes(x) -> np.ndarray:
    """Amplitude vector of a State or array-like."""
    if isinstance(x, State):
        return x.amps
    return np.asarray(x, dtype=complex).reshape(-1)


def fidelity(a, b) -> float:
    """Squared overlap |<a|b>|^2 of two pure states of equal size."""
    va, vb = as_amplitudes(a), as_amplitudes(b)
    if va.shape != vb.shape:
        raise ValueError(f"size mismatch: {va.shape} vs {vb.shape}")
    return float(abs(np.vdot(va, vb)) ** 2)


def _check_targets(dims, targets):
    targets = [int(t) for t in targets]
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target subsystems in {targets}")
    for t in targets:
        if not 0 <= t < len(dims):
            raise ValueError(f"subsystem {t} out of range for {len(dims)} subsystems")
    return targets


def apply_unitary(state: State, targets, u: np.ndarray) -> State:
    """Apply a unitary to the listed subsystems of ``state``.

    ``u`` acts on the composite index of the targets in listed order (first
    listed target most significant), so it must be square with dimension equal
    to the product of the target dimensions.
    """
    targets = _check_targets(state.dims, targets)
    if not targets:
        raise ValueError("need at least one target subsystem")
    block = math.prod(state.dims[t] for t in targets)
    u = require_unitary(u, what="gate")
    if u.shape != (block, block):
        raise ValueError(f"gate shape {u.shape} does not match target dimension {block}")
    n = len(state.dims)
    dest = list(range(n - len(targets), n))
    psi = np.moveaxis(state.tensor(), targets, dest)
    moved_shape = psi.shape
    psi = psi.reshape(-1, block) @ u.T
    psi = np.moveaxis(psi.reshape(moved_shape), dest, targets)
    return State(state.dims, psi.reshape(-1))


@dataclass(frozen=True)
class ControlledGate:
    """A qubit-controlled power of a unitary.

    ``control`` must index a dimension-2 subsystem; ``unitary`` raised to
    ``power`` is applied to ``target`` on the control's |1> branch. ``power``
    counts as that many uses of the base gate.
    """

    control: int
    target: int
    unitary: np.ndarray
    power: int = 1

    def __post_init__(self):
        object.__setattr__(self, "power", require_int(self.power, "power", minimum=1))


def controlled_matrix(unitary: np.ndarray, power: int = 1) -> np.ndarray:
    """Block matrix I (+) U^power on a (control, target) pair, control first."""
    u = require_unitary(unitary, what="controlled unitary")
    d = u.shape[0]
    up = np.linalg.matrix_power(u, power)
    full = np.zeros((2 * d, 2 * d), dtype=complex)
    full[:d, :d] = np.eye(d)
    full[d:, d:] = up
    return full


def apply_controlled(state: State, gate: ControlledGate) -> State:
    """Apply a :class:`ControlledGate` to ``state``."""
    if gate.control == gate.target:
        raise ValueError("control and target must differ")
    _check_targets(state.dims, [gate.control, gate.target])
    if state.dims[gate.control] != 2:
        raise ValueError(f"control subsystem must have dimension 2, got {state.dims[gate.control]}")
    d = state.dims[gate.target]
    u = np.asarray(gate.unitary, dtype=complex)
    if u.shape != (d, d):
        raise ValueError(f"gate shape {u.shape} does not match target dimension {d}")
    return apply_unitary(state, [gate.control, gate.target], controlled_matrix(u, gate.power))


def _measurement_coefficients(state: State, subsystems, basis):
    """Rows of the basis against the state: coefficient matrix of shape (K, rest)."""
    subsystems = _check_targets(state.dims, subsystems)
    block = math.prod(state.dims[s] for s in subsystems)
    b = require_unitary(basis, what="measurement basis")
    if b.shape != (block, block):
        raise ValueError(
            f"measurement basis must be {block} orthonormal vectors of length {block}, "
            f"got shape {b.shape}"
        )
    k = len(subsystems)
    psi = np.moveaxis(state.tensor(), subsystems, range(k))
    moved_shape = psi.shape
    coeff = np.conjugate(b) @ psi.reshape(b.shape[0], -1)
    return b, coeff, moved_shape, subsystems


def outcome_distribution(state: State, subsystems, basis, labels=None):
    """Exact Born probabilities of measuring ``subsystems`` in ``basis``.

    Returns a list of (label, probability) pairs in basis order. Labels
    default to the stringified basis index.
    """
    _, coeff, _, _ = _measurement_coefficients(state, subsystems, basis)
    probs = [float(p) for p in np.sum(np.abs(coeff) ** 2, axis=1)]
    labels = [str(l) for l in (range(len(probs)) if labels is None else labels)]
    if len(labels) != len(probs):
        raise ValueError(f"expected {len(probs)} labels, got {len(labels)}")
    return list(zip(labels, probs))


def collapse(state: State, subsystems, basis, outcome: int):
    """Probability of one basis outcome and the post-collapse state.

    The residual keeps the full register layout: the measured block is left in
    the observed basis vector, tensored with the renormalized remainder. The
    outcome must have nonzero probability.
    """
    b, coeff, moved_shape, subsystems = _measurement_coefficients(state, subsystems, basis)
    outcome = int(outcome)
    if not 0 <= outcome < b.shape[0]:
        raise ValueError(f"outcome {outcome} out of range for {b.shape[0]} basis vectors")
    p = float(np.sum(np.abs(coeff[outcome]) ** 2))
    if p <= 0.0:
        raise ValueError(f"outcome {outcome} has probability 0; nothing to collapse onto")
    residual_rest = coeff[outcome] / np.sqrt(p)
    psi = np.outer(b[outcome], residual_rest).reshape(moved_shape)
    psi = np.moveaxis(psi, range(len(subsystems)), subsystems)
    return p, State(state.dims, psi.reshape(-1))


def sample_counts(probs, shots: int, seed: int):
    """Draw ``shots`` seeded outcomes from a distribution; return (counts, first).

    ``counts[i]`` is how often flat outcome ``i`` was drawn and ``first`` the
    first draw (None when ``shots`` is 0). Each draw looks one uniform from
    ``default_rng(seed).random`` up in the distribution's CDF, built once, as
    ``Generator.choice(p=...)`` does on every call; draws come in chunks of
    ``SAMPLE_CHUNK``, so the result equals a single ``choice(size=shots)``
    call while memory stays bounded by the chunk.
    """
    p = np.clip(np.asarray(probs, dtype=float).reshape(-1), 0.0, None)
    p /= p.sum()
    # the CDF overwrites p, which is not needed again
    cdf = p.cumsum(out=p)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    counts = np.zeros(p.shape[0], dtype=np.int64)
    first = None
    for start in range(0, shots, SAMPLE_CHUNK):
        draws = cdf.searchsorted(rng.random(min(SAMPLE_CHUNK, shots - start)), side="right")
        if first is None:
            first = int(draws[0])
        counts += np.bincount(draws, minlength=p.shape[0])
    return counts, first


def top_set(probs, cap) -> np.ndarray:
    """Flat indices, ascending, of the at most ``cap`` largest entries above
    PROB_FLOOR; ties across the cut go to the lower index. ``cap`` is a
    positive int. A linear-time selection finds the cap-th largest value, so
    nothing is sorted."""
    flat = np.asarray(probs).reshape(-1)
    keep = flat > PROB_FLOOR
    if cap < np.count_nonzero(keep):
        # the cap-th largest entry lies above the floor, and so does every
        # entry above it; its ties fill the places left, lowest index first
        kth = flat.shape[0] - cap
        cut = np.partition(flat, kth)[kth]
        keep = flat > cut
        keep[np.flatnonzero(flat == cut)[: cap - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def extract_subsystem(state: State, subsystem: int) -> State:
    """Pure state of one subsystem when it is unentangled with the rest.

    The cut is checked by singular value decomposition: the largest Schmidt
    coefficient must be 1 within 1e-10, otherwise
    :class:`EntangledSubsystemError` is raised. The returned vector's first
    amplitude above 1e-9 in magnitude is rotated to the positive real axis so
    repeated extractions agree on a phase.
    """
    (subsystem,) = _check_targets(state.dims, [subsystem])
    d = state.dims[subsystem]
    mat = np.moveaxis(state.tensor(), subsystem, 0).reshape(d, -1)
    left, svals, _ = np.linalg.svd(mat, full_matrices=False)
    if svals[0] < 1.0 - NORM_ATOL:
        raise EntangledSubsystemError(
            f"subsystem {subsystem} is entangled with the rest "
            f"(largest Schmidt coefficient {svals[0]!r})"
        )
    return State((d,), fix_phase(left[:, 0]))


def fix_phase(vec: np.ndarray) -> np.ndarray:
    """``vec`` with its first amplitude above 1e-9 in magnitude rotated to the
    positive real axis, so repeated computations agree on a global phase."""
    for a in vec:
        if abs(a) > PHASE_FIX_ATOL:
            return vec * (np.conjugate(a) / abs(a))
    return vec


def plus_x() -> np.ndarray:
    """Qubit |+x> = (|0> + |1>)/sqrt(2)."""
    return np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def minus_x() -> np.ndarray:
    """Qubit |-x> = (|0> - |1>)/sqrt(2)."""
    return np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


X_LABELS = ("+x", "-x")


def x_pattern_basis(qubits: int):
    """Product +-x basis on ``qubits`` qubits, labels like "+x,-x,...".

    Pattern index runs in binary with +x as 0 and -x as 1, first qubit most
    significant, matching the register index convention.
    """
    single = np.stack([plus_x(), minus_x()])
    # row p, column i of each step is the previous step's entry times a
    # single-qubit entry, in that order: the multiplications a chain of
    # np.kron calls makes, so the rows match it bit for bit
    basis = np.ones((1, 1), dtype=complex)
    for _ in range(qubits):
        rows, cols = basis.shape
        basis = (basis[:, None, :, None] * single[None, :, None, :]).reshape(2 * rows, 2 * cols)
    return basis, x_pattern_labels(qubits)


def x_pattern_labels(qubits: int) -> list:
    """Labels of the product +-x patterns on ``qubits`` qubits, in pattern
    order: +x as 0, first qubit most significant."""
    return [",".join(pattern) for pattern in itertools.product(X_LABELS, repeat=qubits)]
