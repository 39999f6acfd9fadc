"""The five 2x2 pseudo-Hermitian random-matrix families.

Each family is a structured 2x2 form H(params) with real parameters, an
invertible Hermitian metric eta satisfying eta H eta^-1 = H^dagger, and
(where known) a metric zeta for the diagonalizer.  Matrices are plain 2x2
complex ndarrays.

Families and their Gaussian parameter widths
--------------------------------------------
Parameters are drawn i.i.d. zero-mean Gaussian from the matrix weight
exp(-tr(H^dagger H) / (2 sigma^2)) evaluated on the family's parametrization.
Each family is stated once, as its parameter names and matrix entries in
``_FORMS``, and ``param_sigmas`` derives the widths from that form.  Written
out per family, tr(H^dagger H) gives the variances it derives:

    F1_ANTIDIAG_IMAG  [[a, -i b], [i c, a]]          2a^2+b^2+c^2
                      -> a: sigma^2/2; b, c: sigma^2
    F2_DIAG_PARITY    [[a+c, i b], [i b, a-c]]       2(a^2+b^2+c^2)
                      -> a, b, c: sigma^2/2
    F3_EPSILON_SCALED [[a, -i e c], [i c/e, b]]      a^2+b^2+(e^2+e^-2)c^2
                      -> a, b: sigma^2; c: sigma^2/(e^2+e^-2)
    F4_COMPLEX_DIAG   [[a+i b, c], [d, a-i b]]       2a^2+2b^2+c^2+d^2
                      -> a, b: sigma^2/2; c, d: sigma^2
    F5_INDEFINITE     [[a+b, d+i c], [-d+i c, a-b]]  2(a^2+b^2+c^2+d^2)
                      -> a, b, c, d: sigma^2/2

F1's spacing law is P(S) = S/(pi sigma^2) K0(S^2 / 4 sigma^2), with
eigenvalues a +- sqrt(bc) (real for bc > 0, a conjugate pair otherwise).
The tests check f2 against the same law, f3 against the norm of two
Gaussians, and f4 and f5 against sqrt(2 |p^2 - q^2 - r^2|), p, q, r iid
N(0, sigma^2).  The CLI reports a goodness of fit for f1 only.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .circulant import _spacings
from .specfun import EULER_GAMMA, _as_result, bessel_k0
from .stats import GridCdf

__all__ = [
    "FamilyTag",
    "Family2x2",
    "MetricPair",
    "sample_params",
    "family_matrix",
    "eigenvalues2",
    "metric_of",
    "diagonalizer",
    "pseudo_hermiticity_residual",
    "spacing_pdf_f1",
    "spacing_cdf_f1",
    "spacing_samples_f1",
]


class FamilyTag(enum.Enum):
    F1_ANTIDIAG_IMAG = "f1"
    F2_DIAG_PARITY = "f2"
    F3_EPSILON_SCALED = "f3"
    F4_COMPLEX_DIAG = "f4"
    F5_INDEFINITE = "f5"


@dataclass(frozen=True)
class Family2x2:
    """A family tag plus its fixed structural parameters (epsilon for F3)."""

    tag: FamilyTag
    epsilon: float = 1.0

    def __post_init__(self):
        if not isinstance(self.tag, FamilyTag):
            raise ValueError(f"tag must be a FamilyTag, got {self.tag!r}")
        e = self.epsilon
        # F3's c width divides by e^2 + (1/e)^2, so e^2 must neither underflow
        # nor overflow
        if not (e > 0 and sys.float_info.min <= e * e < math.inf):
            raise ValueError(
                f"epsilon must be > 0 and its square a finite normal float, got {e!r}"
            )


@dataclass(frozen=True)
class MetricPair:
    """Metric for H and, when known, the metric for its diagonalizer."""

    eta: np.ndarray
    zeta: np.ndarray | None


# Each family once: its parameter names and its entries (m00, m01, m10, m11)
# as a function of epsilon and those parameters.  Every form is linear in its
# parameters, and no two parameters share a term of tr(H^dagger H).
_FORMS = {
    FamilyTag.F1_ANTIDIAG_IMAG: ("abc", lambda e, a, b, c: (a, -1j * b, 1j * c, a)),
    FamilyTag.F2_DIAG_PARITY: ("abc", lambda e, a, b, c: (a + c, 1j * b, 1j * b, a - c)),
    # 1j / e * c, not 1j * c / e: numpy rounds complex division by a float
    # differently for scalars and arrays, and a stack must equal its
    # per-matrix calls
    FamilyTag.F3_EPSILON_SCALED: ("abc", lambda e, a, b, c: (a, -1j * e * c, 1j / e * c, b)),
    FamilyTag.F4_COMPLEX_DIAG: ("abcd", lambda e, a, b, c, d: (a + 1j * b, c, d, a - 1j * b)),
    FamilyTag.F5_INDEFINITE: ("abcd", lambda e, a, b, c, d: (a + b, d + 1j * c, -d + 1j * c, a - b)),
}


def param_sigmas(family: Family2x2, sigma: float) -> dict[str, float]:
    """Per-parameter Gaussian widths from the family's matrix weight.

    With H linear in its parameters and no term of tr(H^dagger H) shared by
    two of them, the weight is a product of exp(-p^2 ||H_p||_F^2 / 2 sigma^2),
    where H_p is the form at p = 1 and every other parameter 0: parameter p
    has width sigma / ||H_p||_F.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    names, form = _FORMS[family.tag]
    widths = {}
    for p in names:
        entries = form(family.epsilon, *(float(q == p) for q in names))
        # |z| * |z|, not |z| ** 2: pow can round differently from a product
        widths[p] = sigma / math.sqrt(sum(abs(z) * abs(z) for z in entries))
    return widths


def sample_params(
    family: Family2x2, sigma: float, count: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Draw ``count`` independent parameter records for a family."""
    if count < 1:
        raise ValueError("count must be >= 1")
    widths = param_sigmas(family, sigma)
    return {name: rng.normal(0.0, w, size=count) for name, w in widths.items()}


def family_matrix(family: Family2x2, **params) -> np.ndarray:
    """Build the structured 2x2 matrix of a family from its real parameters.

    Array parameters of one shape give a stack of shape (..., 2, 2).  The
    names given must be the family's own, else ValueError.
    """
    names, form = _FORMS[family.tag]
    if params.keys() != set(names):
        extra = ", ".join(sorted(params.keys() - set(names))) or "none"
        missing = ", ".join(sorted(set(names) - params.keys())) or "none"
        raise ValueError(
            f"{family.tag.value} takes parameters {', '.join(names)}: "
            f"extra {extra}, missing {missing}"
        )
    entries = form(family.epsilon, *(np.asarray(params[p], dtype=float) for p in names))
    flat = np.stack(np.broadcast_arrays(*entries), axis=-1).astype(complex)
    return flat.reshape(flat.shape[:-1] + (2, 2))


def _times_pow2(z: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Complex z times powers of two p (one per leading index of z), part by
    part on the real and imaginary parts: exact within the normal range, and
    unlike a complex product it keeps the sign of every zero."""
    parts = np.ascontiguousarray(z[..., None]).view(float)
    return (parts * p.reshape(p.shape + (1,) * (parts.ndim - p.ndim))).view(complex)[..., 0]


# Nonzero parts of a stack all within [2^-200, 2^200] keep every intermediate
# of the closed form (products, their cancelling sums, the square root)
# normal or zero, scaled or not; the exact power-of-two scaling of
# ``eigenvalues2`` then changes no bit, and such a stack skips it.
_UNSCALED_RANGE = (2.0**-200, 2.0**200)


def _magnitudes(parts: np.ndarray):
    """|part| of each of the last axis's parts in turn, so that one part's
    array at a time is held."""
    return (np.abs(parts[..., j]) for j in range(parts.shape[-1]))


def eigenvalues2(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a 2x2 matrix, or of a (..., 2, 2) stack, via the
    trace/determinant closed form.

    Returns (E+, E-), each of the stack's shape, with E+ carrying the
    principal branch of the square root; a vanishing discriminant yields a
    repeated eigenvalue.  Unless all its nonzero entry parts lie within
    ``_UNSCALED_RANGE``, each matrix is solved scaled by the power of two
    just above its largest entry (one with a non-finite entry unscaled), so
    the discriminant's products neither underflow nor overflow; the scaling
    is exact, so where they would not have anyway the result is unchanged.
    """
    m = np.ascontiguousarray(m, dtype=complex)
    if m.shape[-2:] != (2, 2):
        raise ValueError("eigenvalues2 expects a 2x2 matrix or a stack of them")
    parts = m.view(float).reshape(m.shape[:-2] + (8,))  # re, im of m00, m01, m10, m11
    lo, hi = _UNSCALED_RANGE
    if all(
        np.max(a, initial=0.0) <= hi and np.min(a, where=a != 0, initial=hi) >= lo
        for a in _magnitudes(parts)
    ):
        up = None
    else:
        big = functools.reduce(np.maximum, _magnitudes(parts))
        # 2^-e and 2^e must both be floats: e in [-1022, 1023]
        e = np.where(np.isfinite(big), np.clip(np.frexp(big)[1], -1022, 1023), 0)
        m = _times_pow2(m, np.ldexp(1.0, -e))
        up = np.ldexp(1.0, e)
    # the same operations as 0.5 * (tr +- sqrt(tr^2 - 4 det)), done in place
    # where they can be, so at most three arrays of the stack's shape are held
    tr = m[..., 0, 0] + m[..., 1, 1]
    det = m[..., 0, 0] * m[..., 1, 1]
    det -= m[..., 0, 1] * m[..., 1, 0]
    del m  # a scaled copy, if any; the rest needs only tr and det
    det *= 4.0
    disc = tr * tr
    disc -= det
    del det
    disc = np.sqrt(disc)
    minus = tr - disc
    plus = tr
    plus += disc
    del disc
    plus *= 0.5
    minus *= 0.5
    if up is not None:
        plus, minus = _times_pow2(plus, up), _times_pow2(minus, up)
    return plus[()], minus[()]


def metric_of(family: Family2x2) -> MetricPair:
    """The family's metric eta and, where known, the diagonalizer metric zeta."""
    tag = family.tag
    if tag is FamilyTag.F1_ANTIDIAG_IMAG:
        return MetricPair(
            eta=np.array([[0, 1j], [-1j, 0]], dtype=complex),
            zeta=np.array([[0, 1], [1, 0]], dtype=complex),
        )
    if tag is FamilyTag.F2_DIAG_PARITY:
        return MetricPair(eta=np.diag([1.0 + 0j, -1.0]), zeta=None)
    if tag is FamilyTag.F3_EPSILON_SCALED:
        e = family.epsilon
        eta = np.diag([1.0 / e + 0j, e])
        return MetricPair(eta=eta, zeta=eta.copy())
    if tag is FamilyTag.F4_COMPLEX_DIAG:
        return MetricPair(eta=np.array([[0, 1], [1, 0]], dtype=complex), zeta=None)
    # F5_INDEFINITE
    eta = np.diag([1.0 + 0j, -1.0])
    return MetricPair(eta=eta, zeta=eta.copy())


def diagonalizer(family: Family2x2, *, r: float | None = None, theta: float | None = None) -> np.ndarray:
    """The family's reference diagonalizer.

    F1 takes r = sqrt(c/b) (defined for bc > 0); F2, F3 and F5 take an angle
    theta; F4 takes both r and theta.  F4's form is carried as reference
    data only: its parameters are not tied to the sampled matrix here, so it
    is not a computational device.
    """
    tag = family.tag
    if tag is FamilyTag.F1_ANTIDIAG_IMAG:
        if r is None or r < 0:
            raise ValueError("F1 diagonalizer needs r = sqrt(c/b) >= 0")
        return np.array([[1.0, 1j / r], [1j * r, 1.0]], dtype=complex) / math.sqrt(2.0)
    if tag is FamilyTag.F2_DIAG_PARITY:
        if theta is None or not -math.pi / 4 < theta < math.pi / 4:
            raise ValueError("F2 diagonalizer needs |theta| < pi/4")
        ct, st = math.cos(theta), math.sin(theta)
        return np.array([[ct, 1j * st], [-1j * st, ct]], dtype=complex) / math.sqrt(
            math.cos(2 * theta)
        )
    if tag is FamilyTag.F3_EPSILON_SCALED:
        if theta is None:
            raise ValueError("F3 diagonalizer needs theta")
        e = family.epsilon
        ct, st = math.cos(theta), math.sin(theta)
        return np.array([[ct, 1j * e * st], [-1j * st / e, ct]], dtype=complex)
    if tag is FamilyTag.F4_COMPLEX_DIAG:
        if r is None or theta is None:
            raise ValueError("F4 diagonalizer needs r and theta")
        w = r * cmath.exp(1j * theta) / math.sin(theta)
        return np.array([[w, -w], [1.0, 1.0]], dtype=complex)
    # F5_INDEFINITE
    if theta is None:
        raise ValueError("F5 diagonalizer needs theta")
    ct, st = math.cos(theta), math.sin(theta)
    return np.array(
        [[1j * ct, cmath.exp(1j * theta) * st], [cmath.exp(-1j * theta) * st, -1j * ct]],
        dtype=complex,
    )


def pseudo_hermiticity_residual(m: np.ndarray, eta: np.ndarray) -> float:
    """Max-entry |eta m eta^-1 - m^dagger|; zero iff m is eta-pseudo-Hermitian."""
    m = np.asarray(m, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    det = eta[0, 0] * eta[1, 1] - eta[0, 1] * eta[1, 0]
    if abs(det) < 1e-300:
        raise ValueError("metric eta must be invertible")
    eta_inv = np.array([[eta[1, 1], -eta[0, 1]], [-eta[1, 0], eta[0, 0]]], dtype=complex) / det
    return float(np.max(np.abs(eta @ m @ eta_inv - m.conj().T)))


# ---------------------------------------------------------------------------
# F1 spacing law
# ---------------------------------------------------------------------------


def spacing_pdf_f1(s, sigma: float):
    """Level-spacing density of F1: P(S) = S/(pi sigma^2) K0(S^2 / 4 sigma^2);
    a float for scalar ``s``, else an array.

    P(0) = 0 by continuity (S K0(S^2) -> 0 despite the log divergence of K0).
    As S -> 0 the density behaves like (2/pi) S ln(1/S): level repulsion with
    a non-algebraic logarithmic factor.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    s = _spacings(s)
    out = np.zeros_like(s)
    pos = s != 0.0
    sp = s[pos]
    x = sp * sp / (4.0 * sigma * sigma)
    # below the smallest normal float x has lost digits or is 0; there K0 is
    # -ln(x/2) - gamma_E to far below an ulp, with ln(x/2) formed from s
    small = x < sys.float_info.min
    k0 = np.empty_like(x)
    k0[~small] = bessel_k0(x[~small])
    k0[small] = -2.0 * np.log(sp[small] / (2.0 * math.sqrt(2.0) * sigma)) - EULER_GAMMA
    out[pos] = sp / (math.pi * sigma * sigma) * k0
    return _as_result(out)


@functools.cache
def _f1_grid() -> GridCdf:
    return GridCdf(lambda u: spacing_pdf_f1(u, 1.0), hi=25.0, intervals=4096)


def spacing_cdf_f1(s, sigma: float = 1.0):
    """CDF of the F1 spacing law, built once by quadrature at sigma=1 and
    rescaled through S -> S/sigma (the law is a pure scale family)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return _f1_grid()(np.asarray(s, dtype=float) / sigma)


def spacing_samples_f1(count: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Spacings |E+ - E-| = 2 sqrt(bc) of the real-sector draws (bc > 0, the
    sector the K0 law describes) among ``count`` independent F1 draws."""
    if count < 1:
        raise ValueError("count must be >= 1")
    fam = Family2x2(FamilyTag.F1_ANTIDIAG_IMAG)
    draws = sample_params(fam, sigma, count, rng)
    bc = draws["b"] * draws["c"]
    return 2.0 * np.sqrt(bc[bc > 0])
