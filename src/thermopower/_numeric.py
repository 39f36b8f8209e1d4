"""The package's numeric primitives, defined here alone: each, exp_curve, _dots, _lstsq, erf."""

import math
import sys

import numpy as np

from .errors import InvalidParams


def each(fn, x):
    """fn(x) for a float x, or fn of every element of an array x.

    The elements go through fn as Python floats, so an array result has
    the bits the scalar calls would give: numpy's exp, say, may differ
    from the C library's math.exp in the last place.
    """
    if isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return fn(x)


def exp_curve(temp, a1, a2):
    """exp((temp - a1)/a2), the temperature term of every exponential
    curve in the package, at a float or at each element of an array.

    Raises InvalidParams when a2 is 0 or the result leaves the double
    range, as where (temp - a1)/a2 overflows to +inf; at -inf it is 0.
    """
    if np.any(a2 == 0):
        raise InvalidParams("a2 must be nonzero")
    with np.errstate(over="ignore"):
        x = (temp - a1) / a2
    if not np.any(x == math.inf):  # math.exp(inf) is inf, not an OverflowError
        try:
            return each(math.exp, x)
        except OverflowError:
            pass
    raise InvalidParams(
        f"exp((T - a1)/a2) leaves the double range: (T - a1)/a2 reaches {float(np.max(x))!r}"
    )


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for every row i.  A stacked matmul of a row by a column
    is the dot product that a 1-D a[i] @ b[i] takes, bit for bit."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


@np.errstate(divide="ignore", invalid="ignore")
def _lstsq(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares x of a @ x ~ b for every (n, p) design a[..., :, :] and
    target b[..., :], and a mask of the rank-deficient designs, whose x
    means nothing.  Modified Gram-Schmidt with b carried along as the
    residual (Björck, BIT 7, 1967), on columns scaled by powers of two,
    which is exact and keeps their dot products in range.  Rank-deficient:
    some column's remainder has a squared norm at most (eps*max(n, p))**2
    times the column's own, lstsq's default rcond taken column by column.
    """
    n, p = a.shape[-2:]
    e = np.frexp(np.abs(a).max(axis=-2, initial=0.0))[1]
    # contiguous columns: a dot product over a strided row may sum in another order
    w = [np.ldexp(a[..., j], -e[..., j, None]) for j in range(p)]
    u, (z, ww, aa) = np.zeros((*e.shape, p)), np.zeros((3, *e.shape))
    for j in range(p):
        aa[..., j] = _dots(w[j], w[j])
        for i in range(j):
            u[..., i, j] = _dots(w[i], w[j]) / ww[..., i]
            w[j] = w[j] - u[..., i, j, None] * w[i]
        ww[..., j] = _dots(w[j], w[j])
        z[..., j] = _dots(w[j], b) / ww[..., j]
        b = b - z[..., j, None] * w[j]
    for j in range(p - 2, -1, -1):  # back-substitution turns z into x
        for k in range(j + 1, p):
            z[..., j] -= u[..., j, k] * z[..., k]
    return np.ldexp(z, -e), ~(ww > (sys.float_info.epsilon * max(n, p)) ** 2 * aa).all(axis=-1)


# Rational minimax fits for the Gauss error function (classic libm-style
# double precision coefficients), within ~1 ulp of math.erf.  They are the
# package's own, but the tail's exp (|x| >= 1.25) is the C library's libm.
_ERX = 8.45062911510467529297e-01
_EFX = 1.28379167095512586316e-01

_PP = (
    1.28379167095512558561e-01,
    -3.25042107247001499370e-01,
    -2.84817495755985104766e-02,
    -5.77027029648944159157e-03,
    -2.37630166566501626084e-05,
)
_QQ = (
    1.0,
    3.97917223959155352819e-01,
    6.50222499887672944485e-02,
    5.08130628187576562776e-03,
    1.32494738004321644526e-04,
    -3.96022827877536812320e-06,
)
_PA = (
    -2.36211856075265944077e-03,
    4.14856118683748331666e-01,
    -3.72207876035701323847e-01,
    3.18346619901161753674e-01,
    -1.10894694282396677476e-01,
    3.54783043256182359371e-02,
    -2.16637559486879084300e-03,
)
_QA = (
    1.0,
    1.06420880400844228286e-01,
    5.40397917702171048937e-01,
    7.18286544141962662868e-02,
    1.26171219808761642112e-01,
    1.36370839120290507362e-02,
    1.19844998467991074170e-02,
)
_RA = (
    -9.86494403484714822705e-03,
    -6.93858572707181764372e-01,
    -1.05586262253232909814e01,
    -6.23753324503260060396e01,
    -1.62396669462573470355e02,
    -1.84605092906711035994e02,
    -8.12874355063065934246e01,
    -9.81432934416914548592e00,
)
_SA = (
    1.0,
    1.96512716674392571292e01,
    1.37657754143519042600e02,
    4.34565877475229228821e02,
    6.45387271733267880336e02,
    4.29008140027567833386e02,
    1.08635005541779435134e02,
    6.57024977031928170135e00,
    -6.04244152148580987438e-02,
)
_RB = (
    -9.86494292470009928597e-03,
    -7.99283237680523006574e-01,
    -1.77579549177547519889e01,
    -1.60636384855821916062e02,
    -6.37566443368389627722e02,
    -1.02509513161107724954e03,
    -4.83519191608651397019e02,
)
_SB = (
    1.0,
    3.03380607434824582924e01,
    3.25792512996573918826e02,
    1.53672958608443695994e03,
    3.19985821950859553908e03,
    2.55305040643316442583e03,
    4.74528541206955367215e02,
    -2.24409524465858183362e01,
)

_ONE_BELOW_1 = math.nextafter(1.0, 0.0)


def _poly(coeffs: tuple[float, ...], x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def erf(x):
    """Gauss error function, odd and confined to the open interval (-1, 1).

    x is a float, or an array evaluated element by element with the same
    branches and the same Horner order, so both give the same bits.
    """
    if not isinstance(x, np.ndarray):
        return float(erf(np.array([x], float))[0])
    ax = np.abs(x)
    mag = np.ones_like(ax)  # 1 from 6 up
    low = ax < 0.84375
    z = ax[low] * ax[low]
    mag[low] = ax[low] + ax[low] * (_poly(_PP, z) / _poly(_QQ, z))
    mid = ~low & (ax < 1.25)
    s = ax[mid] - 1.0
    mag[mid] = _ERX + _poly(_PA, s) / _poly(_QA, s)
    for tail, (num, den) in (
        (~low & ~mid & (ax < 1.0 / 0.35), (_RA, _SA)),
        ((ax >= 1.0 / 0.35) & (ax < 6.0), (_RB, _SB)),
    ):
        z = ax[tail] * ax[tail]
        s = 1.0 / z
        big_r = _poly(num, s) / _poly(den, s)
        mag[tail] = 1.0 - each(math.exp, -z - 0.5625 + big_r) / ax[tail]
    # keep the range open: true values this close to 1 are not
    # representable below it in double precision anyway
    mag[mag >= 1.0] = _ONE_BELOW_1
    out = np.where(x < 0, -mag, mag)
    tiny = ax < 2.0**-28
    out[tiny] = x[tiny] + _EFX * x[tiny]
    nan = np.isnan(x)
    out[nan] = x[nan]
    return out
