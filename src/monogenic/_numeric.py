"""Three numerical routines in numpy and ``math``, bit for bit as in scipy 1.17.1.

The package needs a scrambled Sobol sequence and the inverse normal CDF (for
the sphere directions of ``sampling``) and a log-sum-exp (for the sup-norm
envelopes of ``growth``).  Each routine below follows scipy's algorithm
operation for operation, so it returns the same bits as the scipy call it
stands for (``qmc.Sobol`` with ``scramble=True`` and an integer seed,
``special.ndtri``, ``special.logsumexp``); the tests compare them with scipy
where scipy is installed.

Credits:

- Sobol direction numbers: S. Joe and F. Y. Kuo, "Constructing Sobol
  sequences with better two-dimensional projections", SIAM J. Sci. Comput.
  30 (2008), 2635-2654 (the ``new-joe-kuo-6.21201`` set, first dimensions);
  the linear matrix scramble and digital shift follow scipy's ``_sobol.pyx``.
- ``ndtri``: the Cephes Math Library, ``ndtri.c``, by Stephen L. Moshier.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# ---------------------------------------------------------------------------
# Scrambled Sobol points
# ---------------------------------------------------------------------------

_SOBOL_BITS = 30
_SOBOL_MAX_DIM = 10
# Primitive polynomials (leading and trailing 1 included) and initial
# direction numbers m_1..m_s of dimensions 2..10 (Joe & Kuo 2008); the
# first dimension is the van der Corput sequence, all of whose direction
# numbers are 1.
_SOBOL_POLY = (3, 7, 11, 13, 19, 25, 37, 41, 47)
_SOBOL_VINIT = (
    (1,),
    (1, 3),
    (1, 3, 1),
    (1, 1, 1),
    (1, 1, 3, 3),
    (1, 3, 5, 13),
    (1, 1, 5, 5, 17),
    (1, 1, 5, 5, 5),
    (1, 1, 7, 11, 19),
)


def _direction_numbers(dim: int) -> np.ndarray:
    """(dim, 30) unscrambled direction numbers, column j scaled by 2^(29-j)
    (Bratley & Fox's recurrence on the initial numbers)."""
    v = np.ones((dim, _SOBOL_BITS), dtype=np.int64)
    for d in range(1, dim):
        poly = _SOBOL_POLY[d - 1]
        s = poly.bit_length() - 1
        row = list(_SOBOL_VINIT[d - 1])
        for j in range(s, _SOBOL_BITS):
            new = row[j - s]
            for k in range(s):
                if poly >> (s - 1 - k) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row.append(new)
        v[d] = row
    return v << np.arange(_SOBOL_BITS - 1, -1, -1)


@functools.lru_cache(maxsize=128)
def _scrambled_sobol(dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The digital shift (dim,) and LMS-scrambled direction numbers (dim, 30)
    that ``qmc.Sobol(dim, scramble=True, seed=seed)`` draws; read-only."""
    rng = np.random.default_rng(seed)
    # drawn as uint32, as scipy does: a narrower dtype draws another stream
    shift = rng.integers(2, size=(dim, _SOBOL_BITS), dtype=np.uint32) @ (
        1 << np.arange(_SOBOL_BITS, dtype=np.int64)
    )
    ltm = np.tril(rng.integers(2, size=(dim, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    diag = np.arange(_SOBOL_BITS)
    ltm[:, diag, diag] = 1
    # Bit k (most significant first) of scrambled number j is the GF(2) dot
    # product of row k of the lower-triangular matrix with the bits of the
    # unscrambled number.
    msb_first = np.arange(_SOBOL_BITS - 1, -1, -1)
    bits = (_direction_numbers(dim)[:, :, None] >> msb_first) & 1
    scrambled = (bits @ ltm.transpose(0, 2, 1).astype(np.int64)) & 1
    sv = (scrambled << msb_first).sum(axis=2)
    shift.flags.writeable = False
    sv.flags.writeable = False
    return shift, sv


def sobol_base2(dim: int, m: int, seed: int) -> np.ndarray:
    """The first 2^m points, shape (2^m, dim), of the scrambled Sobol sequence
    of ``qmc.Sobol(dim, scramble=True, seed=seed).random_base2(m)``."""
    if not 1 <= dim <= _SOBOL_MAX_DIM:
        raise ValueError(
            f"scrambled Sobol points need 1 <= dim <= {_SOBOL_MAX_DIM}, got dim={dim}"
        )
    shift, sv = _scrambled_sobol(dim, seed)
    # point i+1 is point i XOR the direction number at the lowest zero bit of i
    i = np.arange((1 << m) - 1)
    lowest_zero = np.log2(~i & (i + 1)).astype(np.intp)
    steps = np.concatenate([shift[None, :], sv[:, lowest_zero].T])
    return np.bitwise_xor.accumulate(steps, axis=0) * 2.0**-_SOBOL_BITS


# ---------------------------------------------------------------------------
# Inverse of the standard normal CDF (Cephes ndtri)
# ---------------------------------------------------------------------------

_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)

# 0 <= |y - 1/2| <= 3/8
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# z = sqrt(-2 ln y) in [2, 8]
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# z in [8, 64]
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polevl(x, coef, leading_one=False):
    """Horner's rule, as Cephes' polevl (or p1evl, whose leading coefficient
    1 is implied)."""
    ans = x + coef[0] if leading_one else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(y) -> np.ndarray:
    """Inverse of the standard normal CDF, elementwise; -inf at 0, inf at 1,
    nan outside [0, 1]."""
    y0 = np.asarray(y, dtype=float)
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    out = np.full(y0.shape, np.nan)
    central = y > _EXP_M2
    tail = ~central & (y0 > 0.0) & (y0 < 1.0)

    yc = y[central] - 0.5
    y2 = yc * yc
    x = yc + yc * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0, True))
    out[central] = x * _S2PI

    # numpy's vectorised log may differ from libm's in the last ulp; Cephes
    # calls libm, so both logs of the tail go through math.log
    x = np.sqrt(-2.0 * np.array(list(map(math.log, y[tail].tolist()))))
    x0 = x - np.array(list(map(math.log, x.tolist()))) / x
    z = 1.0 / x
    near = z * _polevl(z, _P1) / _polevl(z, _Q1, True)
    far = z * _polevl(z, _P2) / _polevl(z, _Q2, True)
    x = x0 - np.where(x < 8.0, near, far)
    out[tail] = np.where(upper[tail], x, -x)

    out[y0 == 0.0] = -np.inf
    out[y0 == 1.0] = np.inf
    return out


# ---------------------------------------------------------------------------
# log-sum-exp
# ---------------------------------------------------------------------------


def logsumexp(a, axis: int = -1):
    """ln of the sum of e^a along an axis (the last by default): a scalar for
    1-D input, an array of one value per row otherwise; -inf for an empty
    or all -inf sum."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.shape[axis] == 0:
        return np.full(np.delete(a.shape, axis), -np.inf)[()]
    a_max = a.max(axis=axis, keepdims=True)
    tied = a == a_max
    m = tied.sum(axis=axis, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # every tied maximum is taken out of the sum and counted in m
        s = np.exp(np.where(tied, -np.inf, a) - a_max).sum(axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if bad.any():
            out = np.where(bad, np.log(np.exp(a).sum(axis=axis, keepdims=True)), out)
    return np.squeeze(out, axis=axis)[()]
