"""Self-contained special functions and the discrete Fourier transform.

Everything here is implemented in-repo (series, continued fractions, and a
mixed-radix fast transform) so the numerical core carries no dependency
beyond numpy arrays.  Scalar routines return Python floats; ``erf`` also
takes arrays, and ``dft`` works on complex vectors.

Conventions
-----------
``dft`` uses the positive-exponent, unnormalized sum

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
    "gamma_fn",
    "lower_incomplete_gamma",
    "hyp2f1_series",
    "dft",
]

EULER_GAMMA = 0.5772156649015328606065120900824024

# Lanczos approximation, g = 7, 9 coefficients (relative error ~1e-14 on the
# positive real axis).
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

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
    exp(4)), run elementwise on the whole array with a per-element stop;
    Lentz continued fraction for the complement above, element by element.
    """
    arr = np.asarray(x, dtype=float)
    ax = np.abs(arr).ravel()
    vals = np.zeros(ax.size)
    series = np.flatnonzero((ax > 0.0) & (ax <= 2.0))
    xs = ax[series]
    term = xs.copy()
    acc = xs.copy()
    for k in range(1, _MAX_TERMS):
        if not series.size:
            break
        term *= -xs * xs / k
        inc = term / (2 * k + 1)
        acc += inc
        done = np.abs(inc) <= 1e-17 * np.abs(acc)
        vals[series[done]] = acc[done]
        keep = ~done
        series, xs, term, acc = series[keep], xs[keep], term[keep], acc[keep]
    vals[series] = acc
    vals *= 2.0 / math.sqrt(math.pi)
    tail = np.flatnonzero(~(ax <= 2.0))  # NaN goes here, as in the scalar loop
    vals[tail] = [_erf_cf(v) for v in ax[tail].tolist()]
    out = np.where(arr < 0.0, -vals.reshape(arr.shape), vals.reshape(arr.shape))
    return float(out) if out.ndim == 0 else out


def _erf_cf(x: float) -> float:
    """erf(x) for x > 2 from the Lentz continued fraction of erfc."""
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


def gamma_fn(x: float) -> float:
    """Gamma function on the positive real axis (Lanczos approximation)."""
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    if x < 0.5:
        return math.pi / (math.sin(math.pi * x) * gamma_fn(1.0 - x))
    x -= 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (x + i)
    t = x + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (x + 0.5) * math.exp(-t) * acc


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

_DIRECT_LIMIT = 64


def _dft_matrix(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.exp((2j * np.pi / n) * np.outer(k, k))


def _dft_direct(v: np.ndarray) -> np.ndarray:
    return _dft_matrix(v.size) @ v


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def _dft_fast(v: np.ndarray) -> np.ndarray:
    # Cooley-Tukey over the smallest prime factor; prime lengths fall back to
    # the direct sum.
    n = v.size
    if n <= _DIRECT_LIMIT:
        return _dft_direct(v)
    p = _smallest_prime_factor(n)
    if p == n:
        return _dft_direct(v)
    m = n // p
    sub = [_dft_fast(v[r::p]) for r in range(p)]
    l = np.arange(n)
    lm = l % m
    out = np.zeros(n, dtype=complex)
    for r in range(p):
        out += np.exp((2j * np.pi / n) * (l * r)) * sub[r][lm]
    return out


def dft(v) -> np.ndarray:
    """Unnormalized positive-exponent transform of a length-n vector.

    out[l] = sum_p v[p] exp(+2*pi*i*p*l/n).  Direct O(n^2) sum for n <= 64,
    mixed-radix fast transform above; the two paths agree to 1e-10 and are
    tested against each other.
    """
    arr = np.ascontiguousarray(v, dtype=complex)
    if arr.ndim != 1:
        raise ValueError(f"dft expects a 1-d vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("dft of an empty vector is undefined")
    if arr.size <= _DIRECT_LIMIT:
        return _dft_direct(arr)
    return _dft_fast(arr)
