"""Float64 arrays as text, byte for byte CPython's, without a CPython call per float.

Two styles: ``"%.17g"`` writes ``'%.17g' % x`` (a CSV field of ``kerrstokes
run``) and ``"repr"`` writes ``float.__repr__(x)`` (what json writes for a
finite float).  :func:`rows` lays out aligned columns, each field followed
by a separator; the spectrum writers call it chunk by chunk.

Digits.  With E = floor(log10 |x|) from ``np.log10``, corrected once,
y = |x| 10^(16-E) lies in [1e16, 1e17).  It is formed as a double-double
p + t: p = fl(|x| P_hi) and t its exact error (Dekker's product, as numpy
has no fused multiply-add) plus |x| P_lo, where P_hi + P_lo is 10^(16-E)
split from exact Python ints.  p is an integer (every double above 2^53
is) and |t| < 16, so floor(y) is exact in int64 and the fraction of y errs
by less than 2^-40.  ``"%.17g"``'s digits are y rounded to an integer.
``repr``'s digits are the shortest integer within half a gap of y (the gap
to the neighbouring double, in units of y) that ends in the most zeros,
the one nearest y when several do (:func:`_shorten`).

CPython is the fallback.  An element the estimate cannot decide with a
margin of :data:`MARGIN` units of y is formatted by CPython itself: a
rounding fraction within the margin of one half, a gap edge within the
margin of a candidate, and |x| outside [1e-280, 1e280] (subnormals, and
the ranges where the scaled products could overflow or lose bits).  So the
bytes are CPython's by construction; :func:`fallback_count` counts such
elements.

Layout.  Each field is written into a fixed-width row of slots (see
:func:`_layout`) with one slice write per decimal-point position present
in the chunk; one boolean compress drops the unused slots.
"""

from __future__ import annotations

import functools

import numpy as np

# Units of y (the last of 17 digits) by which the estimate must clear a
# rounding tie or a gap edge.
MARGIN = 1e-7
_LO, _HI = 1e-280, 1e280
_KMIN, _KMAX = 16 - 281, 16 + 281
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
_WIDTH = 28  # sign, "0.000", 17 digits, "e-308"
_PAD, _ZERO, _DOT, _MINUS = 0, ord("0"), ord("."), ord("-")
_MANTISSA_BITS = np.uint64((1 << 52) - 1)
# style -> (CPython's formatter, largest decimal-point position written in
# fixed notation, whether an integral fixed value ends in ".0")
_STYLES = {"%.17g": ("%.17g".__mod__, 17, False), "repr": (float.__repr__, 16, True)}


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _powers():
    """10^k for k in [_KMIN, _KMAX] as (hi, hi's Dekker halves, lo): hi is
    10^k rounded to a double and lo the rounded remainder, both from ints."""
    hi, lo = [], []
    for k in range(_KMIN, _KMAX + 1):
        if k >= 0:
            head = float(10**k)
            tail = float(10**k - int(head))
        else:
            den = 10**-k
            head = 1 / den  # int / int is correctly rounded
            num, scale = head.as_integer_ratio()
            tail = (scale - num * den) / (scale * den)
        hi.append(head)
        lo.append(tail)
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


@functools.cache
def _quads():
    """The ASCII digits of 0..9999, four bytes per uint32."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + _ZERO
    return digits.astype(np.uint8).view(np.uint32)[:, 0]


@functools.cache
def _exponents():
    """Row ``power + 400``: "e+XX" or "e-XXX" of ``power``, padded to 5 bytes."""
    return np.frombuffer(b"".join(f"e{p:+03d}".encode().ljust(5, b"\0") for p in range(-400, 400)),
                         dtype="V5")


def _scaled(a, exponent):
    """|x| 10^(16 - exponent) as p + t, p the rounded product."""
    index = 16 - _KMIN - exponent
    hi, hi_head, hi_tail, lo = (table[index] for table in _powers())
    p = a * hi
    a_head, a_tail = _split(a)
    t = ((a_head * hi_head - p) + a_head * hi_tail + a_tail * hi_head) + a_tail * hi_tail
    t += a * lo
    return p, t


def _decimal(x, style):
    """Digits of each element of ``x`` in ``style``: (negative, digits,
    decimal-point position, slow, significant).  ``digits`` is an int64 of
    17 digits (repr's shortest digits followed by zeros), or 0 for a zero;
    the value is 0.digits x 10^position.  ``significant`` counts repr's
    digits (0 for a zero) and is None for "%.17g".  ``slow`` marks the
    elements left to CPython, whose other entries are meaningless."""
    a = np.abs(x)
    negative = np.signbit(x)
    zero = a == 0.0
    slow = ~((a >= _LO) & (a <= _HI)) & ~zero
    fast = ~(slow | zero)
    a[~fast] = 1.0
    exponent = np.floor(np.log10(a)).astype(np.int64)
    p, t = _scaled(a, exponent)
    below = (p < 1e16) | ((p == 1e16) & (t < 0.0))
    above = (p > 1e17) | ((p == 1e17) & (t >= 0.0))
    wrong = np.flatnonzero(below | above)
    if wrong.size:
        exponent[wrong] += above[wrong].astype(np.int64) - below[wrong]
        p[wrong], t[wrong] = _scaled(a[wrong], exponent[wrong])
        still = ((p[wrong] < 1e16) | (p[wrong] > 1e17)) & fast[wrong]
        slow[wrong[still]] = True
    floor_t = np.floor(t)
    whole = p.astype(np.int64) + floor_t.astype(np.int64)
    frac = t - floor_t
    digits = whole + (frac > 0.5)
    tie = np.abs(frac - 0.5) < MARGIN
    significant = None
    if style == "repr":
        significant = _shorten(a, exponent, whole, frac, digits, tie)
        significant[zero] = 0
    slow |= tie & fast
    carry = digits == 10**17
    digits[carry] = 10**16
    exponent += carry
    digits[zero] = 0
    exponent[zero] = 0
    return negative, digits, exponent + 1, slow, significant


def _shorten(a, exponent, whole, frac, digits, unsure):
    """Turn the 17 rounded ``digits`` into repr's shortest digits followed by
    zeros and mark ``unsure`` where the choice is not clear by
    :data:`MARGIN`; return the number of digits.

    The candidates are the integers in [low + 1, high]: high is the largest
    below y plus the upper half gap, low the largest not above y minus the
    lower half gap (half the upper one for a power of two).  The shortest
    drop the most k digits: the largest k with high mod 10^k < high - low.
    For k >= 2 one candidate fits, high with its last k digits zeroed; for
    k = 1 the one of up to three multiples of 10 nearest y; for k = 0 the
    17 rounded digits.  Every array has the size of ``a``."""
    half_gap_up = 0.5 * np.spacing(a) * _powers()[0][16 - _KMIN - exponent]
    power_of_two = (a.view(np.uint64) & _MANTISSA_BITS) == 0
    above = frac + half_gap_up
    below = frac - np.where(power_of_two, 0.5 * half_gap_up, half_gap_up)
    high = whole + (np.ceil(above).astype(np.int64) - 1)
    count = high - whole - np.floor(below).astype(np.int64)
    rest = high // 100
    hundreds = high - rest * 100
    tens = hundreds % 10
    # an end within the margin of an integer decides only when that integer
    # is a multiple of 10: otherwise it moves high and count together
    edge = np.zeros(a.shape, dtype=bool)
    for end in (above, below):
        integer = np.rint(end)
        edge |= (np.abs(end - integer) < MARGIN) & ((whole + integer.astype(np.int64)) % 10 == 0)
    dropped = (tens < count).astype(np.int64)
    more = hundreds < count
    dropped += more
    while more.any():
        head = rest // 10
        more &= rest == head * 10
        dropped += more
        rest = head
    offset = (tens - (high - whole)) + frac  # y - (high - tens)
    lower = (tens + 10 < count) & (offset < -5)
    lowest = (tens + 20 < count) & (offset < -15)
    near_tie = ((tens + 10 < count) & (np.abs(offset + 5) < MARGIN)) | (
        (tens + 20 < count) & (np.abs(offset + 15) < MARGIN)
    )
    nearest = high - tens - 10 * (lower.astype(np.int64) + lowest)
    # for k >= 2 the digits of high between the last two and k are zeros
    digits[:] = np.where(dropped >= 2, high - hundreds, np.where(dropped == 1, nearest, digits))
    unsure[:] = edge | np.where(dropped == 0, unsure, (dropped == 1) & near_tie)
    return np.maximum(17 - dropped, 1)


def _ascii(digits):
    """The 17 ASCII digits of each int64 in [0, 10^17), as an (n, 17) uint8 view."""
    quads = _quads()
    text = np.empty((digits.size, 5), dtype=np.uint32)
    rest = digits
    for column in range(4, 0, -1):
        head = rest // 10000
        text[:, column] = quads[rest - head * 10000]
        rest = head
    text[:, 0] = quads[rest]
    return text.view(np.uint8)[:, 3:]


def _bytes(a, start, stop):
    """Bytes ``start:stop`` of each row of the 2-D uint8 ``a``, one void item per row."""
    return a[:, start:stop].view(f"V{stop - start}")[:, 0]


def _groups(keys):
    """(key, rows) for each value present in ``keys`` (small ints >= 0);
    ``rows`` is a slice when every row has the key."""
    counts = np.bincount(keys)
    for key in np.flatnonzero(counts):
        yield key, slice(None) if counts[key] == keys.size else np.flatnonzero(keys == key)


def _layout(cells, column, x, style):
    """Write the fields of ``x`` into the first _WIDTH bytes of ``cells[:, column]``.

    Slot 0 holds the sign and slots 6-22 the 17 digits.  A fixed-notation
    field with the point after its k > 0 integer digits moves them one slot
    left and writes the point in slot 5 + k; one with the point k <= 0 places
    ahead of the digits writes "0." and -k zeros before slot 6; a field in
    exponent notation is laid out as k = 1, followed by its exponent.
    Fraction digits that end the number in zeros, and a point with no digit
    after it, become padding."""
    formatter, last_fixed, dot_zero = _STYLES[style]
    negative, digits, point, slow, significant = _decimal(x, style)
    ascii = _ascii(digits)
    text = cells[:, column]
    text[:, 0] = negative * np.uint8(_MINUS)
    _bytes(text, 6, 23)[:] = _bytes(ascii, 0, 17)
    if significant is None:  # "%.17g": 17 digits unless the last is a zero
        ends = np.flatnonzero(ascii[:, 16] == _ZERO)
        nonzero = ascii[ends] != _ZERO
        significant = np.full(digits.size, 17)
        significant[ends] = np.where(nonzero.any(axis=1), 17 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    fixed = (point >= -3) & (point <= last_fixed)
    body = np.where(fixed, point, 1)
    for at, rows in _groups(body + 3):
        at -= 3
        if at > 0:
            _bytes(text, 5, 5 + at)[rows] = _bytes(ascii, 0, at)[rows]
            text[rows, 5 + at] = _DOT if at < 17 else _PAD
        else:
            _bytes(text, 4 + at, 6)[rows] = np.frombuffer(b"0.000"[: 2 - at], dtype=f"V{2 - at}")
    exp = np.flatnonzero(~fixed)
    _bytes(text, 23, 28)[exp] = _exponents()[point[exp] + 399]
    whole = np.maximum(body, 0)
    keep = np.maximum(significant, whole + (fixed & dot_zero))
    blank = 17 - keep + ((keep == whole) & (whole < 17))
    rows = np.flatnonzero(blank)
    if rows.size:
        count = blank[rows]
        first = rows * cells.strides[0] + column * cells.strides[1] + 23 - count
        within = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        cells.reshape(-1)[np.repeat(first, count) + within] = _PAD
    for row in np.flatnonzero(slow):
        field = formatter(float(x[row])).encode("ascii")
        text[row, :_WIDTH] = _PAD
        text[row, : len(field)] = np.frombuffer(field, dtype=np.uint8)


def rows(columns, style, separators):
    """The text of the aligned float64 ``columns`` in ``style``, row by row,
    each field followed by its separator (bytes), as a uint8 array."""
    width = _WIDTH + max(map(len, separators))
    cells = np.zeros((columns[0].size, len(columns), width), dtype=np.uint8)
    for column, (values, separator) in enumerate(zip(columns, separators)):
        cells[:, column, _WIDTH : _WIDTH + len(separator)] = np.frombuffer(separator, dtype=np.uint8)
        _layout(cells, column, values, style)
    return cells[cells != _PAD]


def fallback_count(values, style):
    """How many elements of ``values`` CPython formats in ``style``."""
    return int(np.count_nonzero(_decimal(values, style)[3]))
