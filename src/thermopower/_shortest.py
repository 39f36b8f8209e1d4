"""CSV rows of doubles as arrays: the text of ``",".join(map(repr, row))``
for every row of a table whose values all print in fixed notation.

repr writes a double in fixed notation when it is ±0 or finite with
1e-4 <= |x| < 1e16.  For those, rows_text finds each value's shortest
correctly rounded digits with Schubfach (R. Giulietti, "The Schubfach way
to render doubles", 2020) on uint64 arrays, lays every value out as ASCII
in fixed-width fields of one matrix and keeps the bytes that repr writes.
Every power of ten the range needs is exact in 64 bits, so each product
is exact, and integer arithmetic gives the same bytes on every machine.
Python's repr has no "at least two digits" rule, so Java's s >= 100
guard and its scaling of tiny significands are left out.
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
# the four ASCII digits of 0..9999, one uint32 each
_DIGITS4 = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()
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


def _round_to_odd(g, cp):
    """floor(g * cp / 2**64), its lowest bit set if the rest is not 0: the
    128-bit product of g, two 32-bit limbs, and cp, split in two."""
    gh, gl = g
    ch, cl = cp >> _U64(32), cp & _M32
    ll, lh, hl = gl * cl, gl * ch, gh * cl
    mid = (ll >> _U64(32)) + (lh & _M32) + (hl & _M32)
    high = gh * ch + (lh >> _U64(32)) + (hl >> _U64(32)) + (mid >> _U64(32))
    low = (mid << _U64(32)) | (ll & _M32)
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
