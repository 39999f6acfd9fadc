"""Self-contained special functions and the discrete Fourier transform.

The special functions are implemented in-repo (series and continued
fractions) so the numerical core carries no dependency beyond numpy.  Scalar
routines return Python floats; ``erf`` also takes arrays.  ``fourier`` is
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


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind, order 0.

    Evaluated by its ascending power series; all terms are positive, so there
    is no cancellation and the series is accurate over the supported range
    x in [0, ~700] (it overflows with the function itself beyond that).
    """
    x = float(x)
    if x < 0.0:
        raise ValueError(f"bessel_i0 requires x >= 0, got {x}")
    q = 0.25 * x * x
    term = 1.0
    acc = 1.0
    for k in range(1, _MAX_TERMS):
        term *= q / (k * k)
        acc += term
        if term <= 1e-17 * acc:
            break
    return acc


def bessel_k0(x: float) -> float:
    """Modified Bessel function of the second kind, order 0.

    Ascending log series for x <= 2, Steed/Lentz continued fraction for the
    exponentially scaled function above.  K0 diverges logarithmically at 0,
    so non-positive arguments are rejected.
    """
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"bessel_k0 requires x > 0, got {x}")
    if x <= 2.0:
        # K0 = -(ln(x/2) + gamma_E) I0(x) + sum_k H_k (x^2/4)^k / (k!)^2
        q = 0.25 * x * x
        term = 1.0
        harmonic = 0.0
        acc = 0.0
        for k in range(1, _MAX_TERMS):
            term *= q / (k * k)
            harmonic += 1.0 / k
            inc = term * harmonic
            acc += inc
            if inc <= 1e-17 * (abs(acc) + 1.0):
                break
        return -(math.log(0.5 * x) + EULER_GAMMA) * bessel_i0(x) + acc
    if x > 705.0:
        return 0.0  # underflow of exp(-x); function value < 1e-306
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1 = 0.0
    q2 = 1.0
    a1 = 0.25
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, _MAX_TERMS):
        a -= 2 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1 = q2
        q2 = qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels / s) < 1e-16:
            break
    return math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s


def erf(x):
    """Error function, odd in x; a float for scalar input, else an array.

    Maclaurin series for |x| <= 2 (cancellation amplifies roundoff by at most
    exp(4)), run on the whole array until every element's last term is below
    1e-17 of its sum; Lentz continued fraction for the complement above,
    element by element.  erf(+-inf) is +-1 and erf(NaN) is NaN.
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
    tail = np.flatnonzero(~series)
    acc[tail] = [_erf_cf(v) for v in ax[tail].tolist()]
    out = np.where(arr < 0.0, -acc.reshape(arr.shape), acc.reshape(arr.shape))
    return float(out) if out.ndim == 0 else out


def _erf_cf(x: float) -> float:
    """erf(x) for x > 2 from the Lentz continued fraction of erfc; 1 at
    infinity and NaN for NaN, where the fraction would not converge."""
    if not math.isfinite(x):  # +inf (x is a modulus) or NaN
        return 1.0 if x > 0.0 else x
    # erfc(x) = exp(-x^2)/sqrt(pi) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    f = x
    c = x
    d = 0.0
    tiny = 1e-300
    for n in range(1, _MAX_TERMS):
        a = 0.5 * n
        d = x + a * d
        if d == 0.0:
            d = tiny
        c = x + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    erfc = math.exp(-x * x) / math.sqrt(math.pi) / f
    return 1.0 - erfc


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
