"""Tests for the shared shot sampler and the ``top_set`` selection helper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsinglet import register
from qsinglet.linalg import generate_gate
from qsinglet.phase_estimation import run_double_pe
from qsinglet.protocols import protocol_known_phases
from qsinglet.register import PROB_FLOOR, sample_counts, top_set


def single_call(probs, shots, seed):
    """Oracle: one unchunked Generator.choice call, counted in Python."""
    weights = np.clip(np.asarray(probs, dtype=float).reshape(-1), 0.0, None)
    draws = np.random.default_rng(seed).choice(
        weights.shape[0], size=shots, p=weights / weights.sum()
    )
    counts = [0] * weights.shape[0]
    for d in draws:
        counts[int(d)] += 1
    return counts


class RecordingRng:
    """Generator stand-in that records the size of every random call."""

    def __init__(self, rng):
        self.rng = rng
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return self.rng.random(size)


def test_chunked_sampler_matches_single_call(monkeypatch):
    monkeypatch.setattr(register, "SAMPLE_CHUNK", 7)
    probs = [0.1, 0.0, 0.25, 0.65, 0.0]
    for shots in (1, 7, 22, 100):
        counts = sample_counts(probs, shots, 12)
        assert counts.tolist() == single_call(probs, shots, 12)
    assert sample_counts(probs, 0, 12).tolist() == [0] * 5


def test_sampler_draws_at_most_one_chunk_per_call(monkeypatch):
    monkeypatch.setattr(register, "SAMPLE_CHUNK", 1000)
    recorders = []
    real_default_rng = np.random.default_rng

    def recording_rng(seed):
        recorders.append(RecordingRng(real_default_rng(seed)))
        return recorders[-1]

    monkeypatch.setattr(register.np.random, "default_rng", recording_rng)
    counts = sample_counts([0.5, 0.5], 10_500, 3)
    (rec,) = recorders
    assert rec.sizes == [1000] * 10 + [500]
    assert int(counts.sum()) == 10_500


def test_labelled_protocol_histogram_is_chunk_independent(monkeypatch):
    u = generate_gate(2, [0.4, 2.2], 5)
    whole = protocol_known_phases(u, 0.4, 2.2, seed=44, shots=50)
    monkeypatch.setattr(register, "SAMPLE_CHUNK", 16)
    chunked = protocol_known_phases(u, 0.4, 2.2, seed=44, shots=50)
    labels = list(chunked.exact_distribution)
    counts = single_call(list(chunked.exact_distribution.values()), 50, 44)
    assert chunked.histogram == dict(zip(labels, counts)) == whole.histogram


def test_double_pe_histogram_is_chunk_independent(monkeypatch):
    u = generate_gate(2, [0.7, 2.9], 6)
    whole = run_double_pe(u, 3, shots=100, seed=5)
    monkeypatch.setattr(register, "SAMPLE_CHUNK", 30)
    chunked = run_double_pe(u, 3, shots=100, seed=5)
    counts = single_call(chunked.exact_joint, 100, 5)
    expected = {divmod(i, 8): c for i, c in enumerate(counts) if c}
    observed = {divmod(z, 8): count for z, count in zip(*(a.tolist() for a in chunked.observed))}
    assert [c.tolist() for c in chunked.observed] == [c.tolist() for c in whole.observed]
    assert observed == expected
    assert [(b.z_a, b.z_b) for b in chunked.branches] == list(expected)


def ranking_oracle(joint, cap):
    """Plain-Python ranking: the flat indices of the entries above the floor,
    largest first and ties in index order, cut after ``cap``."""
    flat = np.asarray(joint).reshape(-1).tolist()
    above = [i for i, p in enumerate(flat) if p > PROB_FLOOR]
    return sorted(above, key=lambda i: (-flat[i], i))[:cap]


@pytest.mark.parametrize("cap", [64, 4096, 96 * 96])
def test_top_set_matches_sorted_oracle(cap):
    """``top_set`` keeps the oracle's top ``cap`` entries, in index order."""
    rng = np.random.default_rng(9)
    # few distinct values so ties are everywhere, plus entries at, just above
    # and below the floor
    values = np.array([0.0, PROB_FLOOR, 2 * PROB_FLOOR, 0.5 * PROB_FLOOR, 1e-6, 3e-5, 3e-5 + 1e-17])
    joint = rng.choice(values, size=(96, 96))
    got = top_set(joint, cap).tolist()
    assert got == sorted(ranking_oracle(joint, cap))
    assert len(got) == min(cap, int(np.count_nonzero(joint > PROB_FLOOR)))
    assert all(joint.reshape(-1)[i] > PROB_FLOOR for i in got)


def test_top_set_on_counts_orders_by_count_then_index():
    """Counts are selected by count, ties by index, and kept in index order."""
    counts = np.array([0, 3, 1, 3, 0, 5, 1])
    assert top_set(counts, counts.size).tolist() == [1, 2, 3, 5, 6]
    assert top_set(counts, 2).tolist() == [1, 5]
    assert top_set(counts, 4).tolist() == [1, 2, 3, 5]


@pytest.mark.parametrize("cap", [5, 6, 7, 100])
def test_top_set_with_a_cap_at_or_above_the_count_keeps_every_entry_above_the_floor(cap):
    probs = np.array([0.5, PROB_FLOOR, 0.0, 0.2, 1e-3, np.nextafter(PROB_FLOOR, 1.0), 0.2])
    assert top_set(probs, cap).tolist() == sorted(ranking_oracle(probs, cap)) == [0, 3, 4, 5, 6]


@pytest.mark.parametrize("cap", [1, 16, 64])
def test_top_set_keeps_nothing_when_every_entry_is_at_or_below_the_floor(cap):
    probs = np.array([0.0, PROB_FLOOR, np.nextafter(PROB_FLOOR, 0.0), 1e-300])
    assert top_set(probs, cap).tolist() == ranking_oracle(probs, cap) == []
    assert top_set(np.zeros((4, 4)), cap).tolist() == []


# zero, the floor and its two neighbouring doubles
FLOOR_ADJACENT = [0.0, np.nextafter(PROB_FLOOR, 0.0), PROB_FLOOR, np.nextafter(PROB_FLOOR, 1.0)]


@settings(max_examples=40, deadline=None)
@given(
    size_bits=st.integers(0, 16),
    symmetric=st.booleans(),
    cap=st.sampled_from([1, 64, 4096, 2 ** 16]),
    pool=st.lists(st.floats(1e-13, 1.0), min_size=1, max_size=4),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_top_set_matches_oracle_with_ties_across_the_cap(size_bits, symmetric, cap, pool, seed):
    """Few distinct values, so ties straddle the cap, on flat and symmetric inputs."""
    rng = np.random.default_rng(seed)
    values = np.array(FLOOR_ADJACENT + pool)
    if symmetric:
        side = 2 ** (size_bits // 2)
        upper = np.triu(rng.choice(values, size=(side, side)))
        probs = upper + np.triu(upper, 1).T
    else:
        probs = rng.choice(values, size=2 ** size_bits)
    assert top_set(probs, cap).tolist() == sorted(ranking_oracle(probs, cap))
