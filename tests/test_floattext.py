"""``float_texts`` writes exactly ``float.__repr__`` of every value.

The fast path is checked against ``repr`` over a seeded sweep of the value
kinds it is likeliest to get wrong, over hypothesis arrays, and through
``ReadingTable.json_text``; every value outside the fast domain goes through
the ``repr`` fallback. ``tests/sweep_float_texts.py`` runs the same sweep
at 25 times the size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from sweep_float_texts import mismatches, sample

from qsinglet import floattext
from qsinglet.cli import ReadingTable, report_json
from qsinglet.floattext import float_texts
from qsinglet.linalg import generate_gate
from qsinglet.phase_estimation import run_double_pe


@pytest.fixture
def fallback_values(monkeypatch):
    """The values handed to the ``repr`` fallback, in call order."""
    seen = []
    exact = floattext._repr_texts

    def counted(values):
        seen.extend(values.tolist())
        return exact(values)

    monkeypatch.setattr(floattext, "_repr_texts", counted)
    return seen


def test_sweep_matches_repr():
    values = sample(np.random.default_rng(29), 200_000)
    assert len(values) >= 200_000
    wrong = mismatches(values)
    assert not wrong, f"{len(wrong)} texts differ, the first: {wrong[:5]}"


def test_powers_of_two_and_their_neighbours():
    # a power of two's rounding interval is half as wide below it as above
    centres = np.array([2.0 ** -k for k in range(1, 97)])
    values = np.concatenate((np.nextafter(centres, 0.0), centres, np.nextafter(centres, 1.0)))
    wrong = mismatches(values)
    assert not wrong, f"{len(wrong)} texts differ, the first: {wrong[:5]}"


def test_values_outside_the_fast_domain_go_to_repr(fallback_values):
    values = np.array(
        [0.0, -0.0, 1.0, 1.5, 2.0, 10.0, 123456.789, 1e16, 1e300, 1.7976931348623157e308,
         -0.25, -1e-5, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-30, 9.99e-30,
         float("inf"), float("-inf"), float("nan")]
        + [2.0 ** k for k in range(-1074, 1024, 7)]
        + [2.0 ** -k for k in range(1, 97)]
    )
    texts = float_texts(values)
    assert texts.tolist() == [float.__repr__(v).encode() for v in values.tolist()]
    assert len(fallback_values) == len(values)


def test_mixed_array_keeps_each_value_in_place(fallback_values):
    values = np.array([0.5, 0.1, 1.0, 3e-7, 0.0, 0.123456789, 2.0 ** -20, 0.3])
    assert float_texts(values).tolist() == [repr(v).encode() for v in values.tolist()]
    assert fallback_values == [0.5, 1.0, 0.0, 2.0 ** -20]


def test_empty_array():
    assert float_texts(np.array([])).tolist() == []


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(0, 40), elements=st.floats(0, 1)))
def test_any_unit_interval_array_matches_repr(values):
    assert float_texts(values).tolist() == [float.__repr__(v).encode() for v in values.tolist()]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 6),
    probabilities=arrays(
        np.float64, st.integers(1, 64), elements=st.floats(0, 1, exclude_min=True)
    ),
    indent=st.sampled_from(["", "  ", "    "]),
)
def test_reading_table_text_is_its_dict_report(n, probabilities, indent):
    readings = np.arange(len(probabilities), dtype=np.int64) * 7 % 4 ** n
    readings, first = np.unique(readings, return_index=True)
    probabilities = probabilities[first]
    table = ReadingTable.keyed(n, readings, probabilities, float_texts(probabilities))
    assert table.json_text(indent) == report_json(table.as_dict(), indent)


@pytest.mark.parametrize("n", [6, 8, 10])
def test_off_grid_double_pe_tables_need_no_fallback(n, fallback_values):
    report = run_double_pe(generate_gate(2, [0.7, 2.9], 13), n)
    probabilities = report.kept_probabilities
    table = ReadingTable.keyed(n, report.kept, probabilities, float_texts(probabilities))
    assert len(np.unique(table.values)) > 1000
    assert table.json_text("  ") == report_json(table.as_dict(), "  ")
    assert fallback_values == []
