"""Compare ``float_texts`` with ``float.__repr__`` on five million values.

    PYTHONPATH=src python tests/sweep_float_texts.py

Draws 5,000,000 values with :func:`sample` (seed 2010), formats them in
chunks of 100,000, and exits with status 1, printing the first mismatches,
if any text differs from ``float.__repr__``. The fast path is exact only if
every elementwise float64 operation rounds as IEEE 754 says, whichever SIMD
kernel numpy dispatches, so CI runs this once as it is and once with
``NPY_DISABLE_CPU_FEATURES``. ``tests/test_floattext.py`` draws the same
kinds of values at tier-1's size. pytest does not collect this file.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from qsinglet.floattext import SMALLEST, float_texts
from qsinglet.register import PROB_FLOOR

SEED = 2010
SIZE = 5_000_000
CHUNK = 100_000


def neighbours(centres, ulps: int) -> np.ndarray:
    """Each positive normal centre and the floats up to ``ulps`` steps either side."""
    bits = np.asarray(centres, dtype=np.float64).view(np.int64)
    steps = np.arange(-ulps, ulps + 1)
    return (bits[:, None] + steps).ravel().view(np.float64)


def short_decimals(rng, size: int) -> np.ndarray:
    """Values whose repr has 1 to 16 significant digits, down to 1e-29."""
    counts = rng.integers(1, 17, size)
    mantissas = rng.integers(10 ** (counts - 1), 10 ** counts)
    exponents = rng.integers(math.floor(math.log10(SMALLEST)) + 1, 0, size)
    return np.array([
        float(f"{m}e{e - c + 1}")
        for m, e, c in zip(mantissas.tolist(), exponents.tolist(), counts.tolist())
    ])


def sample(rng, size: int) -> np.ndarray:
    """``size`` values, in equal shares: uniform in [0, 1), log-uniform over
    the fast domain, 1- to 16-digit decimals, within 0.1% of the 1e-4
    notation switch, and near ``PROB_FLOOR``; then every 10^-k and 2^-k in
    the domain with its three neighbours either side, and the floats within
    300 steps of 1e-4 and of ``PROB_FLOOR``."""
    share = size // 5
    fixed = np.concatenate((
        neighbours([10.0 ** -k for k in range(1, 30)] + [2.0 ** -k for k in range(1, 97)], 3),
        neighbours([1e-4, PROB_FLOOR], 300),
    ))
    drawn = np.concatenate((
        rng.random(size - 4 * share - len(fixed)),
        10.0 ** rng.uniform(math.log10(SMALLEST), 0.0, share),
        short_decimals(rng, share),
        1e-4 * rng.uniform(0.999, 1.001, share),
        PROB_FLOOR * rng.uniform(0.5, 2.0, share),
    ))
    return np.concatenate((drawn, fixed))


def mismatches(values: np.ndarray) -> list:
    """(value, float_texts text, repr text) for each value the two write differently."""
    texts = float_texts(values)
    return [
        (v, t, r) for v, t in zip(values.tolist(), texts.tolist())
        if t != (r := float.__repr__(v).encode())
    ]


def main() -> int:
    values = sample(np.random.default_rng(SEED), SIZE)
    wrong = []
    for start in range(0, len(values), CHUNK):
        wrong += mismatches(values[start:start + CHUNK])
    print(f"{len(values)} values, {len(wrong)} texts differ from float.__repr__")
    for value, text, expected in wrong[:10]:
        print(f"  {value!r}: {text!r} != {expected!r}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
