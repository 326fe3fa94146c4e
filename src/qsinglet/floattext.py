"""``float.__repr__`` for a whole array, without one Python call per value.

:func:`float_texts` gives each float64's ``repr`` as bytes. Values in the
fast domain are formatted together in numpy; every other value goes through
:func:`_repr_texts`, one ``float.__repr__`` each.

The fast path is Grisu's plan (Loitsch, PLDI 2010) on top of the exact
answer ``repr`` gives (Gay's shortest round-trip digits): form X = v·10^s in
[10^16, 10^17) as a double-double, with Dekker's exact product, take the
correctly rounded 15-, 16- and 17-digit candidates, and keep the shortest
that lies inside v's rounding interval, v ± half an ulp. That is the string
``repr`` writes: the shortest that reads back as v, and of those the one
nearest v. X is known to far better than :data:`_GUARD`, so a decision that
clears the guard band is exact; one that does not goes to ``repr``.
"""

from __future__ import annotations

import numpy as np

# The fast domain is SMALLEST <= v < 1 with a significand that is not a
# power of two: at a power of two the rounding interval is narrower below
# than above, which the symmetric test here does not model.
SMALLEST = 1e-29
# A rounding or interval decision within this of its boundary, in units of
# X's last digit, goes to repr; X's own error is below 1e-13 of that unit.
# It only picks which path formats a value, never a byte of the text.
_GUARD = 2.0 ** -30
# 2^27 + 1: Dekker's split of a 53-bit significand into two 26-bit halves
_SPLITTER = 134217729.0
# scales s = 16..47 cover 1e-29 <= v < 1 and a log10 off by one either way
_FIRST_SCALE = 16
_LAST_SCALE = 47
# grid steps of X for its 15-, 16- and 17-digit roundings
_STEPS = np.array([[100.0], [10.0], [1.0]])


def _word(text: bytes) -> int:
    """The bytes as a little-endian integer: the first byte lowest."""
    return int.from_bytes(text, "little")


# Texts are built as three 64-bit words of bytes, first byte lowest. Per
# layout: 0..3 are "0." and that many zeros, 4 is scientific "d.ddd", 5 is
# scientific with one digit; each has its fixed bytes, the bit offset of the
# first digit and the bit offset of the other sixteen digits.
_HEADS = np.array([_word(b"0." + b"0" * z) for z in range(4)] + [_word(b"\0."), 0], dtype=np.uint64)
_LEAD_AT = np.array([16, 24, 32, 40, 0, 0], dtype=np.uint64)
_DIGITS_AT = np.array([24, 32, 40, 48, 16, 16], dtype=np.uint64)
# ASCII "0" on the k lowest bytes, turning k digit values into digits
_ZEROS = np.array([_word(b"0" * k) for k in range(9)], dtype=np.uint64)
# "e-XX" at index -E for E <= -5, and nothing for the "0.ddd" texts
_TAILS = np.array([_word(b"e-%02d" % e) if e >= 5 else 0 for e in range(31)], dtype=np.uint64)


def _split(a):
    """a = high + low, each half exactly representable in 26 bits."""
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


def _ten_powers() -> np.ndarray:
    """Rows hi, hi's two halves and lo of 10^s = hi + lo (to about 106
    bits), one column per scale s."""
    powers = [10 ** s for s in range(_FIRST_SCALE, _LAST_SCALE + 1)]
    hi = np.array(powers, dtype=np.float64)
    lo = np.array([float(p - int(h)) for p, h in zip(powers, hi.tolist())])
    return np.stack((hi, *_split(hi), lo))


_POWERS = _ten_powers()


def _repr_texts(values: np.ndarray) -> np.ndarray:
    """``float.__repr__`` of each value, as bytes: the exact path."""
    return np.array([float.__repr__(v).encode() for v in values.tolist()], dtype="S")


def _scaled(v: np.ndarray, s: np.ndarray) -> tuple:
    """X = v·10^s as floor(X) in int64 and the fraction above it.

    v·hi is exact as product + error (Dekker's TwoProduct, with no FMA);
    v·lo adds under 2^-104 X of rounding. For X >= 2^53 the product is an
    integer, so the sum is split exactly.
    """
    hi, hi_high, hi_low, lo = np.take(_POWERS, s - _FIRST_SCALE, axis=1)
    product = v * hi
    v_high, v_low = _split(v)
    error = ((v_high * hi_high - product) + v_high * hi_low + v_low * hi_high) + v_low * hi_low
    tail = error + v * lo
    whole = np.floor(tail)
    return product.astype(np.int64) + whole.astype(np.int64), tail - whole


def _shortest(v: np.ndarray) -> tuple:
    """The digits of each value's ``repr`` as a 17-digit integer D (zeros
    padded), its decimal exponent E (the repr reads D·10^(E - 16)), and
    whether every decision cleared the guard band."""
    s = _FIRST_SCALE - np.floor(np.log10(v)).astype(np.int64)
    whole, fraction = _scaled(v, s)
    # log10 may round across a power of ten; move X into [10^16, 10^17)
    shift = (whole >= 10 ** 17).astype(np.int64) - (whole < 10 ** 16)
    if shift.any():
        s -= shift
        whole, fraction = _scaled(v, s)
    half_ulp = 0.5 * np.spacing(v) * _POWERS[0, s - _FIRST_SCALE]
    # floor(X) less its grid point below, per step; X = point + dropped + fraction
    dropped = np.zeros((3, len(v)))
    dropped[0] = whole % 100
    dropped[1] = dropped[0] - 10 * np.floor(dropped[0] / 10)
    # each rounded candidate's offset from floor(X), and its distance from X
    offset = _STEPS * (dropped + fraction >= _STEPS / 2) - dropped
    distance = np.abs(offset - fraction)
    inside = distance < half_ulp
    clear = (np.abs(distance - half_ulp) > _GUARD) & (np.abs(distance - _STEPS / 2) > _GUARD)
    # the shortest candidate inside wins; each decision up to it must be clear
    first, second = inside[0], inside[1]
    decided = clear[0] & (first | (clear[1] & (second | (clear[2] & inside[2]))))
    decided &= (whole >= 10 ** 16) & (whole < 10 ** 17)
    offset = np.where(first, offset[0], np.where(second, offset[1], offset[2]))
    digits = whole + offset.astype(np.int64)
    # rounding up to 10^17 gains a digit
    carry = digits == 10 ** 17
    return np.where(carry, 10 ** 16, digits), _FIRST_SCALE - s + carry, decided


def _digit_bytes(x: np.ndarray) -> np.ndarray:
    """Each x < 10^8 as one word of eight digit values (0..9), first digit
    lowest: split into 4-digit halves, then 2-digit and 1-digit lanes. The
    multiply-shifts are exact quotients in range, (n·10486) >> 20 = n // 100
    for n < 10^4 and (n·103) >> 10 = n // 10 for n < 100."""
    high = x // 10000
    x = high | (x - high * 10000) << 32
    high = (x * 10486) >> 20 & 0x0000007F0000007F
    x = high | (x - high * 100) << 16
    high = (x * 103) >> 10 & 0x000F000F000F000F
    return high | (x - high * 10) << 8


def _assemble(digits: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """The texts ``repr`` writes for D·10^(E - 16), -30 < E < 0, as bytes:
    "0.ddd" for E >= -4, else "d.ddde-XX" ("de-XX" for one digit)."""
    n = len(digits)
    digits = digits.astype(np.uint64)
    high = digits // 10 ** 8
    lead = high // 10 ** 8
    halves = np.empty(2 * n, dtype=np.uint64)
    halves[:n] = high - lead * 10 ** 8
    halves[n:] = digits - high * 10 ** 8
    words = _digit_bytes(halves)
    # a word's significant digits: its bit length in bytes, rounded up; its
    # top byte is at most 9, so rounding to float64 keeps the bit length
    size = (np.frexp(words.astype(np.float64))[1] + 7) // 8
    size_first = np.where(size[n:] > 0, 8, size[:n])
    count = 1 + size_first + size[n:]
    first = words[:n] + _ZEROS[size_first]
    second = words[n:] + _ZEROS[size[n:]]
    layout = np.where(exponent < -4, 4 + (count == 1), -1 - exponent)
    at = _DIGITS_AT[layout]
    words = (
        _HEADS[layout] | (lead + 48) << _LEAD_AT[layout] | first << at,
        first >> (64 - at) | second << at,
        second >> (64 - at),
    )
    # "e-XX" after the last digit, at byte count + 1 (1 with no point): its
    # low part in word place // 8, any spill (tail >> (64 - bits)) in the next
    place = np.where(count > 1, count + 1, 1).astype(np.uint64)
    bits = (place & 7) << 3
    tail = _TAILS[-exponent]
    low, spill = tail << bits, (tail >> 1) >> (63 - bits)
    word = place >> 3
    text = np.empty((n, 3), dtype="<u8")
    text[:, 0] = words[0] | low * (word == 0)
    text[:, 1] = words[1] | spill * (word == 0) | low * (word == 1)
    text[:, 2] = words[2] | spill * (word == 1) | low * (word == 2)
    return text.view("S24").ravel()


def float_texts(values: np.ndarray) -> np.ndarray:
    """Element i is exactly ``float.__repr__(values[i]).encode()``.

    ``values`` is a 1-D float64 array. Values with SMALLEST <= v < 1 and a
    significand that is not a power of two are formatted in bulk; all other
    values, and those whose digits the guard band leaves undecided, go
    through :func:`_repr_texts`, one ``repr`` each.
    """
    fast = (values >= SMALLEST) & (values < 1.0) & (np.frexp(values)[0] != 0.5)
    if not fast.any():
        return _repr_texts(values)
    digits, exponent, decided = _shortest(values[fast])
    texts = _assemble(digits[decided], exponent[decided])
    if decided.all() and fast.all():
        return texts
    slow = ~fast
    slow[np.flatnonzero(fast)[~decided]] = True
    others = _repr_texts(values[slow])
    out = np.empty(len(values), dtype=np.promote_types(texts.dtype, others.dtype))
    out[slow] = others
    out[~slow] = texts
    return out
