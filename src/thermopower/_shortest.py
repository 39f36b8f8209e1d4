"""CSV rows of doubles as arrays, both ways: the text of
``",".join(map(repr, row))`` for every row of a table whose values all
print in fixed notation (rows_text), and float() of every field of CSV
bytes of plain decimals (rows_values).

repr writes a double in fixed notation when it is ±0 or finite with
1e-4 <= |x| < 1e16.  For those, rows_text finds each value's shortest
correctly rounded digits with Schubfach (R. Giulietti, "The Schubfach way
to render doubles", 2020) on uint64 arrays, lays every value out as ASCII
in fixed-width fields of one matrix and keeps the bytes that repr writes.
Every power of ten the range needs is exact in 64 bits, so each product
is exact, and integer arithmetic gives the same bytes on every machine.
Python's repr has no "at least two digits" rule, so Java's s >= 100
guard and its scaling of tiny significands are left out.

rows_values reads fields of the form -?[0-9]+(\\.[0-9]+)?, which covers
every fixed-notation repr, and declines any other bytes.  It turns each
field's digits into an integer m < 10**19 with SWAR on 8-byte words;
m / 10**p is one IEEE division when m < 2**53 (W. D. Clinger, "How to
read floating point numbers accurately", PLDI 1990), else the top of a
192-bit product with a 128-bit 5**-p, rounded to odd and converted
(D. Lemire, "Number parsing at a gigabyte per second", 2021, after
M. Eisel).  Both give float()'s bits with integer and IEEE operations
alone.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_SIG = _U64((1 << 52) - 1)

# k = floor(log10(2**q)), or floor(log10(3/4 * 2**q)) when the lower
# neighbour is closer, for every q of the range (the tests check it)
_LOG10_2, _LOG10_4_3, _SHIFT = 1262611, 524031, 22
# the binary exponents q of c * 2**q, 2**52 <= c < 2**53, for 1e-4..1e16
_Q_LO, _Q_HI = -66, 1
_K_LO = (_Q_LO * _LOG10_2 - _LOG10_4_3) >> _SHIFT
_K_HI = (_Q_HI * _LOG10_2) >> _SHIFT


def _pow10_table():
    """For each k in _K_LO.._K_HI, 10**-k as g * 2**r, 2**63 <= g < 2**64,
    g as two 32-bit limbs, and r + 64.  Every k here is <= 0 and 10**-k is
    5**-k * 2**-k with 5**-k < 2**64, so g holds it exactly: Schubfach's
    g1, with a g0 of 0."""
    limbs, shift = [], []
    for k in range(_K_LO, _K_HI + 1):
        p = 10**-k
        r = p.bit_length() - 64
        g = p >> r if r >= 0 else p << -r
        limbs.append([g >> 32, g & 0xFFFFFFFF])
        shift.append(r + 64)
    return np.array(limbs, _U64).T.copy(), np.array(shift, np.int64)


_G, _R = _pow10_table()
_POW10 = np.array([10**i for i in range(20)], _U64)
# the four ASCII digits of 0..9999, one uint32 each, from uint16
# temporaries: int64 ones would raise the peak memory of every command
# that imports this module by about half a megabyte
_DIGITS4 = np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
_DIGITS4 = (_DIGITS4 % 10 + ord("0")).astype(np.uint8).view(np.uint32).ravel()
# rows_text lays each value out as 12 uint32 words: the sign, 4 words of
# 4 integer digits, the point, 5 words of 4 fraction digits and the
# separator, each of those three the last byte of its word; _KEEP says
# which of the 48 bytes repr writes, by sign, integer digits (1..16) and
# fraction digits (1..20)
_SIGN, _WIDTH, _PLACES = np.ix_([0, 1], np.arange(1, 17), np.arange(1, 21))
_KEEP = np.zeros((2, 16, 20, 48), bool)
_KEEP[..., 3] = _SIGN
_KEEP[..., 4:20] = np.arange(16) >= 16 - _WIDTH[..., None]
_KEEP[..., 23] = _KEEP[..., 47] = True
_KEEP[..., 24:44] = np.arange(20) >= 20 - _PLACES[..., None]
_KEEP = _KEEP.reshape(-1, 48)
_MINUS, _POINT, _COMMA, _NEWLINE = np.frombuffer(b"   -   .   ,   \n", np.uint32)


def _product(g, cp):
    """The 128-bit product of g, two 32-bit limbs, and cp, as its high and
    low 64 bits, from four 32 x 32-bit products."""
    gh, gl = g
    ch, cl = cp >> _U64(32), cp & _M32
    ll, lh, hl = gl * cl, gl * ch, gh * cl
    mid = (ll >> _U64(32)) + (lh & _M32) + (hl & _M32)
    high = gh * ch + (lh >> _U64(32)) + (hl >> _U64(32)) + (mid >> _U64(32))
    return high, (mid << _U64(32)) | (ll & _M32)


def _round_to_odd(g, cp):
    """floor(g * cp / 2**64), its lowest bit set if the rest is not 0."""
    high, low = _product(g, cp)
    return high | (low != 0)


def _shortest(a):
    """Each positive-or-zero double of a, all < 1e16 and none subnormal,
    as (d, e), d * 10**e its shortest correctly rounded decimal with no
    trailing zero below the decimal point."""
    integral = (a < 2.0**53) & (a == np.floor(a))
    bits = np.where(integral, 1.5, a).view(_U64)  # any double of the range
    frac = bits & _SIG
    c = frac | _U64(1 << 52)
    q = (bits >> _U64(52)).astype(np.int64) - 1075
    closer = frac == 0
    k = (q * _LOG10_2 - closer * _LOG10_4_3) >> _SHIFT
    g = _G[:, k - _K_LO]
    h = (q + _R[k - _K_LO]).astype(_U64)
    # 4 * v * 10**-k and the ends of v's rounding interval, rounded to odd
    cb = c << _U64(2)
    vb = _round_to_odd(g, cb << h)
    vbl = _round_to_odd(g, (cb - _U64(2) + closer) << h)
    vbr = _round_to_odd(g, (cb + _U64(2)) << h)
    odd = c & _U64(1)
    lower, upper = vbl + odd, vbr - odd
    s = vb >> _U64(2)
    # one digit fewer: s // 10 or the next, if exactly one is in the interval
    sp = s // _U64(10)
    up, wp = lower <= sp * _U64(40), sp * _U64(40) + _U64(40) <= upper
    # else s or s + 1, whichever alone is in it, or the nearer, ties to even
    u, w = lower <= s << _U64(2), (s << _U64(2)) + _U64(4) <= upper
    mid = (s << _U64(2)) + _U64(2)
    nearest = s + ((vb > mid) | ((vb == mid) & (s & _U64(1) == 1)))
    d = np.where(up != wp, sp + wp, np.where(u != w, s + w, nearest))
    e = k + (up != wp)
    d = np.where(integral, a.astype(_U64), d)
    e = np.where(integral, 0, e)
    for n in (16, 8, 4, 2, 1):  # trailing zeros, only those below the point
        high = d // _POW10[n]
        strip = (e <= -n) & (high * _POW10[n] == d)
        d = np.where(strip, high, d)
        e = e + n * strip
    return d, e


def rows_text(table) -> str | None:
    """The CSV rows of a (rows, columns) float array, each value its repr,
    or None if any value is not ±0 or finite with 1e-4 <= |x| < 1e16."""
    values = table.ravel()
    a = np.abs(values)
    if not ((a >= 1e-4) & (a < 1e16) | (a == 0)).all():
        return None
    d, e = _shortest(a)
    # d * 10**e = whole + part / 10**places
    point = _POW10[np.clip(-e, 0, 19)]  # d < 10**17
    whole = d // point
    part = d - whole * point
    whole = np.where(e > 0, d * _U64(10), whole)  # e is at most 1
    text = np.empty((len(values), 12), np.uint32)
    text[:, 0], text[:, 5] = _MINUS, _POINT
    ends = text.reshape(*table.shape, 12)[..., 11]
    ends[:], ends[:, -1] = _COMMA, _NEWLINE
    for number, words in ((whole, range(4, 0, -1)), (part, range(10, 5, -1))):
        for word in words:  # the lowest four digits first
            high = number // _U64(10000)
            text[:, word] = _DIGITS4.take(number - high * _U64(10000))
            number = high
    width = np.searchsorted(_POW10[1:17], whole, side="right")  # digits - 1
    places = np.maximum(-e, 1)
    keep = _KEEP.take((np.signbit(values) * 16 + width) * 20 + places - 1, axis=0)
    return text.view(np.uint8)[keep].tobytes().decode("ascii")


# --- reading: CSV bytes to doubles, each value float() of its field ---

# a field is -?[0-9]+(\.[0-9]+)? of at most _DIGITS digits, at most 19 of
# them below its leading zeros, and at most _MAX_PLACES below the point, so
# 10**places is an exact double
_DIGITS, _MAX_PLACES = 24, 22
_POW10F = np.array([10.0**p for p in range(_MAX_PLACES + 1)])


def _pow5_table():
    """For each p in 0.._MAX_PLACES, 2**(127 + s) / 5**p rounded up to an
    integer t, 2**127 <= t < 2**128, with 2**(s - 1) < 5**p <= 2**s: the
    four 32-bit limbs of t, the highest first, and 2**(1 - s - p), which
    scales m * t / 2**128 back to m / 10**p."""
    limbs, scale = [], []
    for p in range(_MAX_PLACES + 1):
        s = (5**p - 1).bit_length()
        t = -(-(1 << 127 + s) // 5**p)
        limbs.append([t >> 32 * i & 0xFFFFFFFF for i in (3, 2, 1, 0)])
        scale.append(2.0 ** (1 - s - p))
    return np.array(limbs, _U64).T.copy(), np.array(scale)


_T5, _SCALE = _pow5_table()
# the digit values of a little-endian word of 8 ASCII digits, less its
# first (lowest) k bytes, for each k in 0..8
_NIBBLES = np.array([0x0F0F0F0F0F0F0F0F >> 8 * k << 8 * k for k in range(9)], _U64)
# how far back from a field's end each word of its last _DIGITS digits
# starts, the highest first
_WORDS = np.array([[24], [16], [8]])


def _quotients(m, places):
    """m / 10**places correctly rounded, 2**53 <= m < 2**64 and places <=
    _MAX_PLACES, from the 192-bit product of m, shifted to 2**55 <= m <
    2**64, and the place's t (Eisel and Lemire): for places <= 27,
    5**places < 2**64, so its top 64 bits are floor(m * 2**(s - 1) /
    5**places) and its middle 64 bits are 0 just when that is exact.
    Rounded to odd at 55 bits or more, it converts to the nearest double,
    ties to even, as m / 10**places does; the scales by powers of two are
    exact."""
    low2 = m < _U64(1 << 62)
    m = m << (low2.astype(_U64) << _U64(1))
    t3, t2, t1, t0 = (limb[places] for limb in _T5)
    high, low = _product((t3, t2), m)
    carry, _ = _product((t1, t0), m)
    mid = low + carry
    odd = (high + (mid < low)) | (mid != 0)
    return odd.astype(float) * _SCALE[places] * np.where(low2, 0.25, 1.0)


def _fields(b, width: int):
    """Each field's sign, number of digits and number of them below the
    point, of CSV bytes b whose every line ends in "\\n" and holds width
    fields of the form -?[0-9]+(\\.[0-9]+)?, none of more than _DIGITS
    digits or _MAX_PLACES below its point, else None."""
    if not len(b) or b[-1] != ord("\n"):
        return None
    marks = np.flatnonzero(b - np.uint8(ord("0")) >= 10)  # all but the digits
    kind = b[marks]
    gap = np.diff(marks, prepend=-1) - 1  # the digits before each mark
    sep, point = (kind == ord(",")) | (kind == ord("\n")), kind == ord(".")
    minus = kind == ord("-")
    opens = np.concatenate(([True], sep[:-1]))  # a mark that opens its field
    after = np.concatenate(([False], point[:-1]))  # a mark after a point
    # digits before each separator and point; a sign opens its field, a
    # point follows its field's sign or opening digits
    if ((gap == 0) & ~minus).any() or (minus & ((gap != 0) | ~opens)).any() or (
            ~(sep | point | minus) | point & after).any():
        return None
    ends = np.flatnonzero(sep)  # each field's last mark
    lines = kind[ends] == ord("\n")
    if lines.sum() * width != len(ends) or not lines[width - 1 :: width].all():
        return None
    places = gap[ends] * after[ends]
    count = gap[ends] + places.astype(bool) * gap[ends - 1]
    if places.max() > _MAX_PLACES or count.max() > _DIGITS:
        return None
    return minus[np.concatenate(([0], ends[:-1] + 1))], count, places


def _mantissas(data: bytes, count):
    """The integer of the digits of each field of data that _fields
    found, count[i] of them in field i, or None if one has more than 19
    below its leading zeros.  A field's last _DIGITS digits are three
    little-endian words of 8 ASCII digits, turned into integers by SWAR."""
    digits = _DIGITS * b"0" + data.translate(None, b",.-\n")
    # the 8 bytes from each offset, unaligned
    words = np.ndarray((len(digits) - 7,), "<u8", digits, 0, (1,))
    last = np.cumsum(count) + _DIGITS  # each field's digits end here in digits
    v = words[last - _WORDS] & _NIBBLES[np.clip(_WORDS - count, 0, 8)]
    v = (v * _U64(10 << 8 | 1)) >> _U64(8) & _U64(0x00FF00FF00FF00FF)
    v = (v * _U64(100 << 16 | 1)) >> _U64(16) & _U64(0x0000FFFF0000FFFF)
    high, middle, low = (v * _U64(10000 << 32 | 1)) >> _U64(32)
    if (high >= 1000).any():
        return None
    return (high * _U64(10**8) + middle) * _U64(10**8) + low


def rows_values(data: bytes, width: int):
    """The (rows, width) doubles of CSV bytes whose every line ends in
    "\\n" and holds width fields of the form -?[0-9]+(\\.[0-9]+)?, each
    float() of its field, or None for any other bytes or a field of more
    than _DIGITS digits, 19 below its leading zeros or _MAX_PLACES below its
    point.  Each field's digits are turned into an integer m < 10**19;
    m / 10**places is one IEEE division when m < 2**53 (Clinger), else
    _quotients.  Each step frees its temporaries as it returns."""
    fields = _fields(np.frombuffer(data, np.uint8), width)
    if fields is None:
        return None
    neg, count, places = fields
    m = _mantissas(data, count)
    if m is None:
        return None
    values = m.astype(float) / _POW10F[places]  # exact m and 10**places below 2**53
    big = np.flatnonzero(m >= _U64(1 << 53))
    values[big] = _quotients(m[big], places[big])
    np.negative(values, out=values, where=neg)
    return values.reshape(-1, width)
