"""Self-contained special functions and the discrete Fourier transform.

The special functions are implemented in-repo (series and continued
fractions) so the numerical core carries no dependency beyond numpy.
``bessel_i0``, ``bessel_k0`` and ``erf`` act element by element on arrays,
returning a float for scalar input; ``lower_incomplete_gamma`` and
``hyp2f1_series`` take and return Python floats.  ``fourier`` is
numpy's FFT in the convention below, along any axis of an array.

Conventions
-----------
``fourier`` uses the positive-exponent, unnormalized sum

    out[l] = sum_p v[p] * exp(+2*pi*i*p*l/n),   l = 0..n-1,

so that the transform of a circulant's first row *is* its eigenvalue list.
The unitary factor 1/sqrt(n) belongs to eigenvectors and is applied by the
callers that need it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "bessel_k0",
    "bessel_i0",
    "erf",
    "lower_incomplete_gamma",
    "hyp2f1_series",
    "fourier",
]

EULER_GAMMA = 0.5772156649015328606065120900824024

_MAX_TERMS = 10_000


def _converge(step, *state):
    """Iterate ``done, *state = step(k, *state)`` for k = 1, 2, ... and return
    the first state array as each element held it at its first ``done`` term,
    in input order.  Finished elements ride along unread until they are half
    the set, which is then compacted, so each term costs about the live set.
    """
    out = np.empty_like(state[0])
    idx = np.arange(out.size)  # input position of each row of the state
    live = np.ones(out.size, dtype=bool)
    for k in range(1, _MAX_TERMS):
        if not live.size:
            break
        done, *state = step(k, *state)
        done &= live
        if done.any():
            out[idx[done]] = state[0][done]
            live &= ~done
            if 2 * np.count_nonzero(live) <= live.size:
                idx, state, live = idx[live], [s[live] for s in state], live[live]
    out[idx[live]] = state[0][live]
    return out


def _as_result(out: np.ndarray):
    """A float for 0-d results, else the array."""
    return float(out) if out.ndim == 0 else out


def _i0_step(k, acc, term, q):
    term = term * (q / (k * k))
    acc = acc + term
    # NaN stops at once: its sum stays NaN
    return ~(term > 1e-17 * acc), acc, term, q


def bessel_i0(x):
    """Modified Bessel function of the first kind, order 0; a float for
    scalar input, else an array.

    Evaluated by its ascending power series, each element stopping at its
    first term below 1e-17 of its sum; all terms are positive, so there is no
    cancellation and the series is accurate over the supported range
    x in [0, ~700] (it overflows with the function itself beyond that).
    """
    x = np.asarray(x, dtype=float)
    if (x < 0.0).any():
        raise ValueError(f"bessel_i0 requires x >= 0, got {x[x < 0.0].flat[0]}")
    q = (0.25 * x * x).ravel()
    ones = np.ones_like(q)
    return _as_result(_converge(_i0_step, ones, ones.copy(), q).reshape(x.shape))


def _k0_series(x: np.ndarray) -> np.ndarray:
    """K0 = -(ln(x/2) + gamma_E) I0(x) + sum_k H_k (x^2/4)^k / (k!)^2, x <= 2."""
    harmonic = 0.0

    def step(k, acc, term, q):
        nonlocal harmonic
        harmonic += 1.0 / k
        term = term * (q / (k * k))
        inc = term * harmonic
        acc = acc + inc
        return inc <= 1e-17 * (np.abs(acc) + 1.0), acc, term, q

    q = 0.25 * x * x
    acc = _converge(step, np.zeros_like(x), np.ones_like(x), q)
    return -(np.log(0.5 * x) + EULER_GAMMA) * bessel_i0(x) + acc


def _k0_steed(x: np.ndarray) -> np.ndarray:
    """K0 for x > 2 from Steed's continued fraction for exp(x) K0(x)."""
    a = -0.25
    c = 0.25

    def step(k, s, b, d, delh, q1, q2, q):
        nonlocal a, c
        i = k + 1
        a -= 2 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q = q + c * qnew
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        dels = q * delh
        s = s + dels
        # NaN stops at once: its sum stays NaN
        return ~(np.abs(dels / s) >= 1e-16), s, b, d, delh, q2, qnew, q

    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    q = np.full_like(x, c)
    s = _converge(step, 1.0 + q * d, b, d, d, np.zeros_like(x), np.ones_like(x), q)
    return np.sqrt(math.pi / (2.0 * x)) * np.exp(-x) / s


def bessel_k0(x):
    """Modified Bessel function of the second kind, order 0; a float for
    scalar input, else an array.

    Ascending log series for x <= 2, Steed/Lentz continued fraction for the
    exponentially scaled function above, each element stopping at its own
    term; 0 above 705, where exp(-x) underflows.  K0 diverges
    logarithmically at 0, so non-positive arguments are rejected.
    """
    x = np.asarray(x, dtype=float)
    if (x <= 0.0).any():
        raise ValueError(f"bessel_k0 requires x > 0, got {x[x <= 0.0].flat[0]}")
    flat = x.ravel()
    out = np.zeros_like(flat)  # underflow of exp(-x) above 705; K0 < 1e-306
    series = flat <= 2.0
    out[series] = _k0_series(flat[series])
    cf = ~series & ~(flat > 705.0)  # NaN goes here and stays NaN
    out[cf] = _k0_steed(flat[cf])
    return _as_result(out.reshape(x.shape))


def _erfc_lentz_step(k, f, c, d, x):
    # erfc(x) = exp(-x^2)/sqrt(pi) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))));
    # for x > 2 every partial denominator is positive, so none vanishes
    a = 0.5 * k
    d = 1.0 / (x + a * d)
    c = x + a / c
    delta = c * d
    return np.abs(delta - 1.0) < 1e-16, f * delta, c, d, x


def erf(x):
    """Error function, odd in x; a float for scalar input, else an array.

    Maclaurin series for |x| <= 2 (cancellation amplifies roundoff by at most
    exp(4)), run on the whole array until every element's last term is below
    1e-17 of its sum; Lentz continued fraction for the complement above, each
    element stopping at its first step within 1e-16 of 1.  erf(+-inf) is +-1
    and erf(NaN) is NaN.
    """
    arr = np.asarray(x, dtype=float)
    ax = np.abs(arr).ravel()
    series = ax <= 2.0
    # the tail (and NaN) goes through the series as 0, which stops at once
    acc = np.where(series, ax, 0.0)
    neg_sq = -acc * acc
    term = acc.copy()
    inc = np.empty_like(acc)
    for k in range(1, _MAX_TERMS):
        np.divide(neg_sq, k, out=inc)
        term *= inc
        np.divide(term, 2 * k + 1, out=inc)
        acc += inc
        # a term below 1e-17 of the sum is under half an ulp of it, and for
        # |x| <= 2 it comes only once the terms shrink, so the elements that
        # met this stop earlier run on without changing a bit
        np.abs(inc, out=inc)
        if (inc <= 1e-17 * np.abs(acc)).all():
            break
    acc *= 2.0 / math.sqrt(math.pi)
    tail = ~series
    acc[tail] = np.minimum(ax[tail], 1.0)  # erf(inf) = 1; NaN stays NaN
    tail &= np.isfinite(ax)
    xt = ax[tail]
    f = _converge(_erfc_lentz_step, xt, xt, np.zeros_like(xt), xt)
    acc[tail] = 1.0 - np.exp(-xt * xt) / math.sqrt(math.pi) / f
    return _as_result(np.where(arr < 0.0, -acc.reshape(arr.shape), acc.reshape(arr.shape)))


def lower_incomplete_gamma(a: float, z: float) -> float:
    """Lower incomplete gamma function gamma(a, z) = int_0^z t^(a-1) e^-t dt.

    Computed from the ascending series

        gamma(a, z) = z^a e^-z sum_k z^k / (a (a+1) ... (a+k)),

    truncated once a term falls below 1e-16 of the partial sum.  All terms
    are positive, so the truncation bound is also an error bound.
    """
    a = float(a)
    z = float(z)
    if a <= 0.0:
        raise ValueError(f"lower_incomplete_gamma requires a > 0, got a={a}")
    if z < 0.0:
        raise ValueError(f"lower_incomplete_gamma requires z >= 0, got z={z}")
    if z == 0.0:
        return 0.0
    term = 1.0 / a
    acc = term
    for k in range(1, _MAX_TERMS):
        term *= z / (a + k)
        acc += term
        if term < 1e-16 * acc:
            break
    return z**a * math.exp(-z) * acc


def hyp2f1_series(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric series 2F1(a, b; c; z) for |z| < 1.

    Plain term recurrence, truncated at relative term < 1e-15.  Arguments on
    or outside the unit circle are rejected rather than continued
    analytically.
    """
    if abs(z) >= 1.0:
        raise ValueError(f"hyp2f1_series requires |z| < 1, got z={z}")
    if c <= 0.0 and c == int(c):
        raise ValueError(f"hyp2f1_series: c must not be a nonpositive integer, got c={c}")
    term = 1.0
    acc = 1.0
    for k in range(_MAX_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        acc += term
        if abs(term) < 1e-15 * abs(acc):
            break
    return acc


# ---------------------------------------------------------------------------
# Discrete Fourier transform
# ---------------------------------------------------------------------------

def fourier(x, axis: int = -1) -> np.ndarray:
    """Unnormalized positive-exponent transform along one axis.

    out[..., l, ...] = sum_p x[..., p, ...] exp(+2*pi*i*p*l/n), with n the
    length of ``axis``; that is n times numpy's inverse FFT.
    """
    x = np.asarray(x)
    n = x.shape[axis]
    if n == 0:
        raise ValueError("Fourier transform of an empty axis is undefined")
    return n * np.fft.ifft(x, axis=axis)
