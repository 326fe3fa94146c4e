"""Property tests of the shared readout: every basis-readout protocol over Haar
eigenbases and the spectra it allows.

For each drawn gate the exact distribution sums to 1, every branch that
promises eigenstates delivers them, and sampling shots changes nothing but
the histogram.
"""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qsinglet.linalg import generate_gate, haar_random_unitary
from qsinglet.protocols import (
    protocol_known_phases,
    protocol_pm1,
    protocol_quartet,
    protocol_square_trick,
)
from qsinglet.qudit import householder_reflection, run_qudit_minus_one

SHOTS = 257
PROPERTY = settings(max_examples=20, deadline=None)

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
orders = st.booleans()


def two_phase_gate(phases, swap, seed):
    phases = list(phases)[::-1] if swap else list(phases)
    return generate_gate(2, phases, seed)


def check_readout(run):
    """``run(shots)`` returns a ProtocolReport; check the exact and sampled
    runs and return the exact one."""
    exact, sampled = run(0), run(SHOTS)
    assert abs(sum(exact.exact_distribution.values()) - 1.0) <= 1e-12
    for branch in exact.branches.values():
        if branch.fidelities is not None:
            assert min(branch.fidelities) >= 1.0 - 1e-10
    assert sampled.exact_distribution == exact.exact_distribution
    assert sampled.branches == exact.branches
    assert exact.histogram == {}
    assert sum(sampled.histogram.values()) == SHOTS
    assert set(sampled.histogram) == set(sampled.exact_distribution)
    return exact


@PROPERTY
@given(seed=seeds, swap=orders, shot_seed=seeds)
def test_pm1(seed, swap, shot_seed):
    u = two_phase_gate((0.0, math.pi), swap, seed)
    check_readout(lambda shots: protocol_pm1(u, shot_seed, shots))


@PROPERTY
@given(seed=seeds, swap=orders, shot_seed=seeds)
def test_square_trick(seed, swap, shot_seed):
    u = two_phase_gate((0.0, math.pi / 2.0), swap, seed)
    check_readout(lambda shots: protocol_square_trick(u, shot_seed, shots))


@PROPERTY
@given(
    pair=st.sampled_from(list(itertools.combinations(range(4), 2))),
    seed=seeds, swap=orders, shot_seed=seeds,
)
def test_quartet_every_fourth_root_pair(pair, seed, swap, shot_seed):
    u = two_phase_gate([k * math.pi / 2.0 for k in pair], swap, seed)
    check_readout(lambda shots: protocol_quartet(u, shot_seed, shots))


@PROPERTY
@given(
    theta1=st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
    gap=st.floats(min_value=0.3, max_value=2.0 * math.pi - 0.3),
    seed=seeds, swap=orders, shot_seed=seeds,
)
def test_known_phases_separated_pairs(theta1, gap, seed, swap, shot_seed):
    theta2 = math.fmod(theta1 + gap, 2.0 * math.pi)
    u = two_phase_gate((theta1, theta2), swap, seed)
    check_readout(lambda shots: protocol_known_phases(u, theta1, theta2, shot_seed, shots))


@PROPERTY
@given(d=st.integers(min_value=2, max_value=5), seed=seeds, shot_seed=seeds)
def test_qudit_minus_one_householder(d, seed, shot_seed):
    u = householder_reflection(haar_random_unitary(d, seed)[:, 0])
    exact = check_readout(lambda shots: run_qudit_minus_one(u, shot_seed, shots))
    # every allowed pattern, one per singlet party, occurs
    assert len(exact.branches) == d
