"""CSV rows of doubles as arrays, both ways: the text of
``",".join(map(repr, row))`` for every row of a table whose values all
print in fixed notation (rows_text, and reprs for a column of any
doubles), and float() of every field of CSV bytes of plain decimals
(rows_values).

repr writes a double in fixed notation when it is ±0 or finite with
1e-4 <= |x| < 1e16.  For those, rows_text finds each value's shortest
correctly rounded digits with Schubfach (R. Giulietti, "The Schubfach way
to render doubles", 2020) on uint64 arrays, from one 128-bit product a
value: the ends of the rounding interval are that product plus or minus
a shifted power of ten, with carries, as in Dragonbox (J. Jeon, 2020).
Every power of ten the range needs is exact in 64 bits, so each product
is exact, and integer arithmetic gives the same bytes on every machine.
Python's repr has no "at least two digits" rule, so Java's s >= 100
guard and its scaling of tiny significands are left out.  Each value's
digits are rendered once, as 20 zero-padded ASCII digits; tables of
masks, taken by where the point goes and where the digits start and
end, keep the bytes that repr writes.

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

# k = floor(log10(2**q)), or floor(log10(3/4 * 2**q)) when the lower
# neighbour is closer, for every q of the range (the tests check it)
_LOG10_2, _LOG10_4_3, _SHIFT = 1262611, 524031, 22
# the biased exponents of the doubles 1e-4 <= v < 1e16
_E_LO, _E_HI = 1009, 1076


def _scales():
    """For each biased exponent of the range and each closer, 0 or 1, in
    column 2 * (exponent - _E_LO) + closer: with v = c * 2**q, 2**52 <= c <
    2**53, k as above and 10**-k = g * 2**r, 2**63 <= g < 2**64 (every k
    here is <= 0 and 5**-k < 2**64, so g holds it exactly: Schubfach's g1,
    with a g0 of 0), g as two 32-bit limbs; s = q + r + 66, for which
    4 * v * 10**-k = g * (c << s) / 2**64; g << (s - 1) and g << (s - 1 -
    closer), the steps from there to the ends of v's rounding interval,
    each as its high and low 64 bits; and 20 + k, where the point goes in
    the 20 digits of d."""
    columns = []
    for exponent in range(_E_LO, _E_HI + 1):
        q = exponent - 1075
        for closer in (0, 1):
            k = (q * _LOG10_2 - closer * _LOG10_4_3) >> _SHIFT
            p = 10**-k
            g, s = (p << 64) >> p.bit_length(), q + p.bit_length() + 2
            up, down = g << s - 1, g << s - 1 - closer
            columns.append([g >> 32, g % 2**32, s, up >> 64, up % 2**64, down >> 64,
                            down % 2**64, 20 + k])
    return np.array(columns, _U64).T.copy()


_SCALES = _scales()
# rows_text lays each value out as a row of 7 words of 4 bytes of _CHARS:
# a word of the sign, the 20 digits D of d, zero-padded, in 5 words, and a
# word of the separator.  Byte p of the row holds
#     p = 0: "-" or " ",  3: "0",  4 + i: D[i],  24: "0",  27: "," or "\n".
# With the point after D[:at], repr writes the sign, the integer digits
# D[lo:at] (lo = 20 - digits), or else the "0" before at, the point, the
# fraction digits D[at:end] (end = 20 - trailing zeros), or else the "0"
# at at, and the separator.  _KEEP_INT keeps the sign, the integer digits
# and the separator of the row; _KEEP_FRACTION keeps the fraction digits
# of the row shifted one byte on, which opens byte 4 + at for the point.
# Every other byte is 0 or a space, which translate drops.
_V = np.arange(10000, dtype=np.uint16)
_CHARS = (_V // np.array([[1000], [100], [10], [1]], np.uint16) % 10 + 48).T
_CHARS = np.append(_CHARS.astype(np.uint8, order="C").view(np.uint32),
                   np.frombuffer(b"   0-  00  ,0  \n", np.uint32))
# by group j of D, D[4j:4j + 4], and its value: where its nonzero digits
# end in D, or 0 if it is 0
_END = np.uint8(4) - (_V % 10 == 0) - (_V % 100 == 0) - (_V % 1000 == 0)
_END = (_END + np.arange(0, 20, 4, dtype=np.uint8)[:, None]) * (_V > 0)
_SIGN, _SEP = 10000, 10002  # the words of " " and ",", before "-" and "\n"
_P, _AT = np.arange(28), np.arange(21)[:, None]
# by (d has 17 digits, not 16; at)
_KEEP_INT = ((_P % 27 == 0) | (_P < 4 + _AT) & (
    _P >= 4 + np.minimum(4 - np.arange(2)[:, None, None], _AT - 1))).reshape(-1, 28)
# by (at, end)
_KEEP_FRACTION = ((_P > 4 + _AT[:, None]) & (
    _P < 5 + np.maximum(_AT.T, _AT + 1)[..., None])).reshape(-1, 28)
_POINTS = np.eye(21, 28, 4, np.uint8) * ord(".")  # by at
del _V, _P, _AT


def _product(g, cp):
    """The 128-bit product of g, two 32-bit limbs, and cp, as its high and
    low 64 bits, from four 32 x 32-bit products."""
    gh, gl = g
    ch, cl = cp >> _U64(32), cp & _M32
    ll, lh, hl = gl * cl, gl * ch, gh * cl
    mid = (ll >> _U64(32)) + (lh & _M32) + (hl & _M32)
    high = gh * ch + (lh >> _U64(32)) + (hl >> _U64(32)) + (mid >> _U64(32))
    return high, (mid << _U64(32)) | (ll & _M32)


def _shortest(a):
    """(d, at) for each double of a, all 1e-4 <= a < 1e16: d * 10**k is its
    shortest correctly rounded decimal, d of 16 or 17 digits with its
    trailing zeros, and at = 20 + k.  Every integer here is a uint64."""
    bits = a.view(_U64)
    frac = bits & (1 << 52) - 1
    c = frac | 1 << 52
    i = (bits >> 52 << 1) + (frac == 0) - 2 * _E_LO
    gh, gl, s, up_high, up_low, down_high, down_low, at = (row.take(i) for row in _SCALES)
    high, low = _product((gh, gl), c << s)
    # 4 * v * 10**-k and the ends of v's rounding interval, rounded to odd
    vb = high | (low != 0)
    up, down = low + up_low, low - down_low
    vbr = (high + up_high + (up < low)) | (up != 0)
    vbl = (high - down_high - (down > low)) | (down != 0)
    odd = c & 1
    lower, upper = vbl + odd, vbr - odd
    s = vb >> 2
    # one digit fewer: s // 10 or the next, if exactly one is in the interval
    sp = s // 10
    tens = sp * 40
    upin, wpin = lower <= tens, tens + 40 <= upper
    # else s or s + 1, whichever alone is in it, or the nearer, ties to even
    fours = s << 2
    uin, win = lower <= fours, fours + 4 <= upper
    nearer = vb + (s & 1) > fours + 2
    return np.where(upin != wpin, (sp + wpin) * 10, s + np.where(uin != win, win, nearer)), at


def rows_text(table) -> str | None:
    """The CSV rows of a (rows, columns) float array, each value its repr,
    or None if any value is not ±0 or finite with 1e-4 <= |x| < 1e16."""
    values = table.ravel()
    a = np.abs(values)
    zero = a == 0
    if not (zero | (a >= 1e-4) & (a < 1e16)).all():
        return None
    a[zero] = 1.0  # any double of the range
    d, at = _shortest(a)
    d[zero] = 0
    words = np.empty((len(values), 7), np.uint16)  # rows of _CHARS indices
    words[:, 0] = np.signbit(values) + _SIGN
    words[:, 6] = _SEP
    words[table.shape[1] - 1 :: table.shape[1], 6] = _SEP + 1
    end = np.zeros(len(values), np.uint8)
    for group in 5, 4, 3, 2, 1:  # the lowest four digits first
        rest = d // 10000
        words[:, group] = digits = d - rest * 10000
        np.maximum(end, _END[group - 1].take(digits), out=end)
        d = rest
    row = _CHARS.take(words).view(np.uint8).ravel()
    # digits is now d // 10**16, 0 unless d has 17 digits
    text = _KEEP_INT.take(at + (digits > 0) * _U64(21), axis=0).view(np.uint8).ravel()
    text *= row
    fraction = _KEEP_FRACTION.take(21 * at + end, axis=0).view(np.uint8).ravel()
    fraction[1:] *= row[:-1]
    text += fraction
    text += _POINTS.take(at, axis=0).ravel()
    return text.tobytes().translate(None, b" \0").decode("ascii")


def reprs(values, other) -> list[str]:
    """repr of each double of a 1-D float array, but other(x) of each x
    that repr does not write in fixed notation, as rows_text does not."""
    a = np.abs(values)
    fixed = (a >= 1e-4) & (a < 1e16) | (a == 0)
    texts = np.empty(len(values), object)
    texts[fixed] = rows_text(values[fixed, None]).split("\n")[:-1]
    texts[~fixed] = list(map(other, values[~fixed].tolist()))
    return texts.tolist()


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
# how far back from a field's end each word of its last _DIGITS digits
# starts, the highest first
_WORDS = np.array([[24], [16], [8]])
# by a field's count of digits, the mask of each word's digit values: a
# little-endian word of 8 ASCII digits less its first (lowest) bytes, those
# that lie before the field
_NIBBLES = np.array([[0x0F0F0F0F0F0F0F0F >> 8 * k << 8 * k for k in row]
                     for row in np.clip(_WORDS - np.arange(_DIGITS + 1), 0, 8).tolist()], _U64)


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
    t3, t2, t1, t0 = _T5.take(places, axis=1)
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
    gap = np.empty_like(marks)  # the digits before each mark
    gap[0] = marks[0]
    np.subtract(marks[1:], marks[:-1] + 1, out=gap[1:])
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
    v = words[last - _WORDS] & _NIBBLES.take(count, axis=1)
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
    if big.size:
        values[big] = _quotients(m[big], places[big])
    np.negative(values, out=values, where=neg)
    return values.reshape(-1, width)
