"""Random real circulant (cyclic) matrices and their spacing statistics.

A circulant is stored as its first row ``a[0..n-1]``; row r of the full
matrix is the cyclic right-shift of the first row by r positions.  Circulants
are pseudo-orthogonal with respect to the index-reversal permutation
("generalized parity"), their eigenvalues are the unnormalized Fourier
transform of the first row, and for a real first row the spectrum is closed
under complex conjugation with the pairing l <-> n-l (0-based; position 0,
and position n/2 for even n, are self-paired and real).

Spacings between eigenvalues are Euclidean distances in the complex plane and
come in three classes:

* ``cc``      -- the two members of a conjugate pair,
* ``rc``      -- a real eigenvalue against a complex one,
* ``generic`` -- two complex eigenvalues that are not mutual conjugates.

Under the Gaussian ensemble weight exp(-A tr(M^T M)) the normalized (unit
mean) laws are exact for every matrix size: a half-Gaussian for ``cc``, a
Bessel-I0 modulated law for ``rc`` and the Rayleigh distribution for
``generic``.  Every cc pair contributes one spacing.  The spectrum is
conjugate-symmetric bit for bit, so the rc and generic spacings of pairs
{i, j} and {n-i, n-j} are equal floats, and each such pair of twins is
stored once, as one value that stands for two pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import _as_result, bessel_i0, hyp2f1_series

__all__ = [
    "Circulant",
    "Spectrum",
    "generalized_parity",
    "pseudo_orthogonality_residual",
    "eigenvalues",
    "batch_spectra",
    "sample_rows",
    "classify_spacings_batch",
    "pdf_cc",
    "pdf_rc",
    "pdf_generic",
    "RC_SHAPE_CONST",
]

# 2F1(3/4, 5/4; 1; 1/4): shape constant of the real-complex spacing law.
RC_SHAPE_CONST = hyp2f1_series(0.75, 1.25, 1.0, 0.25)


@dataclass(frozen=True)
class Circulant:
    """Real cyclic matrix, stored as its first row."""

    first_row: np.ndarray

    def __post_init__(self):
        row = np.ascontiguousarray(self.first_row, dtype=float)
        if row.ndim != 1 or row.size < 2:
            raise ValueError("Circulant needs a 1-d first row of length >= 2")
        if not np.all(np.isfinite(row)):
            raise ValueError("Circulant entries must be finite")
        object.__setattr__(self, "first_row", row)

    @property
    def n(self) -> int:
        return self.first_row.size

    def dense(self) -> np.ndarray:
        """Full n x n matrix; row r is the right-shift of the first row by r."""
        n = self.n
        i, j = np.indices((n, n))
        return self.first_row[(j - i) % n]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with their conjugation pairing.

    ``partner[i] == i`` marks a real eigenvalue; otherwise ``partner[i]`` is
    the index of the complex-conjugate partner of ``eigs[i]``.
    """

    eigs: np.ndarray
    partner: np.ndarray

    def __post_init__(self):
        eigs = np.ascontiguousarray(self.eigs, dtype=complex)
        partner = np.ascontiguousarray(self.partner, dtype=int)
        if eigs.shape != partner.shape or eigs.ndim != 1:
            raise ValueError("eigs and partner must be 1-d arrays of equal length")
        if not np.array_equal(partner[partner], np.arange(eigs.size)):
            raise ValueError("partner must be an involution")
        object.__setattr__(self, "eigs", eigs)
        object.__setattr__(self, "partner", partner)


def _circulant_partner(n: int) -> np.ndarray:
    return (-np.arange(n)) % n


def generalized_parity(n: int) -> np.ndarray:
    """Index-reversal permutation matrix: 1 at (0,0) and at (j, n-j), j >= 1.

    Squares to the identity, which is what lets it act as a parity.
    """
    if n < 2:
        raise ValueError("generalized parity needs n >= 2")
    eta = np.zeros((n, n))
    eta[0, 0] = 1.0
    j = np.arange(1, n)
    eta[j, n - j] = 1.0
    return eta


def pseudo_orthogonality_residual(c: Circulant) -> float:
    """Max-entry |eta M eta^-1 - M^T|; zero for every circulant.

    eta is its own inverse, so the similarity is a plain two-sided product.
    """
    m = c.dense()
    eta = generalized_parity(c.n)
    return float(np.max(np.abs(eta @ m @ eta - m.T)))


def eigenvalues(c: Circulant) -> Spectrum:
    """Spectrum of a circulant: the unnormalized Fourier transform of its row.

    eigs[0] is the row sum (always real); for even n, eigs[n/2] is the
    alternating sum (also real); eigs[l] and eigs[n-l] are conjugates, bit
    for bit.  The same path as ``batch_spectra``, so the two agree bit for
    bit.
    """
    return Spectrum(eigs=batch_spectra(c.first_row[None])[0], partner=_circulant_partner(c.n))


def batch_spectra(rows: np.ndarray) -> np.ndarray:
    """Eigenvalues of many circulants at once: (count, n) -> (count, n),
    ``fourier(rows)`` of real rows, from the real-input transform.

    With R = rfft(row), e[l] = conj(R[l]) for l <= n/2 and e[n-l] = R[l], so
    e[n-l] == conj(e[l]) exactly, and e[0] (and e[n/2] at even n) have
    imaginary part 0: every rc and generic spacing has an exact twin (see
    ``classify_spacings_batch``).
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("batch_spectra expects a (count, n) array")
    n = rows.shape[1]
    half = np.fft.rfft(rows)
    h = half.shape[1]  # n // 2 + 1
    eigs = np.empty(rows.shape, dtype=complex)
    np.conjugate(half, out=eigs[:, :h])
    eigs[:, h:] = half[:, n - h : 0 : -1]
    return eigs


def entry_sigma(n: int, weight: float) -> float:
    """Per-entry standard deviation under the ensemble weight exp(-A tr M^T M).

    The exponent is -A * n * sum_p a_p^2, i.e. each entry is a zero-mean
    Gaussian with variance 1/(2 n A).
    """
    if weight <= 0:
        raise ValueError("ensemble weight A must be positive")
    return 1.0 / math.sqrt(2.0 * n * weight)


def sample_rows(n: int, weight: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """First rows of ``count`` independent draws, as a (count, n) array."""
    if n < 2:
        raise ValueError("need n >= 2")
    if count < 1:
        raise ValueError("need count >= 1")
    return rng.normal(0.0, entry_sigma(n, weight), size=(count, n))


# Entries per step of every row-stepped pass of the spacing pipeline (block
# transform-and-solve, class split with its pairing, KS and order check): a
# few hundred KiB of scratch whatever the spectrum length or batch size.
_STEP = 2**15


def _step_rows(width: int) -> int:
    """Rows per step of a pass that holds ``width`` entries per row."""
    return max(1, _STEP // max(width, 1))


def _pair_numbers(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs ``i < j`` of n eigenvalues in (i, j) row-major order, and
    ``col[i, j] == col[j, i]``, the number of the pair {i, j}."""
    iu, ju = np.triu_indices(n, k=1)
    col = np.zeros((n, n), dtype=np.intp)
    col[iu, ju] = col[ju, iu] = np.arange(iu.size)
    return iu, ju, col


def _moduli(rows, i, j, out, scratch) -> None:
    """``|e_i - e_j|`` of each row into ``out``, through a complex ``scratch``
    of at least its size: e_i gathered into it (mode="clip" lets ``take``
    write there directly; every index is valid), then e_j subtracted."""
    d = scratch[: out.size].reshape(out.shape)
    rows.take(i, 1, out=d, mode="clip")
    d -= rows.take(j, 1)
    np.abs(d, out=out)


def classify_spacings_batch(spectra: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (cc, rc, generic) spacings, pooled over a (count, n) batch
    of circulant spectra, conjugate-symmetric bit for bit under l <-> n-l
    as ``batch_spectra`` gives them.

    The pairing p[l] = n - l mod n fixes each class's pair list.  A pair
    {i, j} and its twin {p[i], p[j]} have the same spacing: a cc pair is its
    own twin, and of each rc and generic pair and its twin only the first in
    row-major order is kept, so each rc and generic value stands for two
    pairs.  Values come by row, then in (i, j) row-major order, as from the
    oracle ``classify_spacings`` in ``tests/oracles.py`` at the pairs kept.

    ValueError if a row is not exactly conjugate-symmetric (for example a
    spectrum from ``specfun.fourier``, which is only to rounding), since
    then a twin's spacing is not the kept pair's; each step of rows is
    checked before its moduli are taken.
    """
    spectra = np.ascontiguousarray(spectra, dtype=complex)
    if spectra.ndim != 2:
        raise ValueError("classify_spacings_batch expects a (count, n) array")
    count, n = spectra.shape
    iu, ju, col = _pair_numbers(n)
    idx = np.arange(n)
    p = _circulant_partner(n)
    real = p == idx
    lead = np.flatnonzero(idx < p)
    classes = (
        col[lead, p[lead]],
        col[np.ix_(idx[real], idx[~real])].ravel(),
        np.flatnonzero(~real[iu] & ~real[ju] & (p[iu] != ju)),
    )
    # keep pair q only if it comes no later than its twin
    kept = [q[q <= col[p[iu[q]], p[ju[q]]]] for q in classes]
    out = [np.empty((count, q.size)) for q in kept]
    step = _step_rows(iu.size)
    scratch = np.empty(min(step, count) * iu.size, dtype=complex)
    for start in range(0, count, step):
        rows = spectra[start : start + step]
        if not np.array_equal(rows.take(p, 1), rows.conj()):
            raise ValueError(
                "spectra must be conjugate-symmetric bit for bit, e[n-l] == conj(e[l]), "
                "as batch_spectra gives them"
            )
        for q, values in zip(kept, out):
            _moduli(rows, iu[q], ju[q], values[start : start + len(rows)], scratch)
    return tuple(values.ravel() for values in out)


# ---------------------------------------------------------------------------
# Exact spacing laws (unit-mean normalized)
# ---------------------------------------------------------------------------


def _spacings(z) -> np.ndarray:
    """``z`` as a float array; ValueError if any value is negative."""
    z = np.asarray(z, dtype=float)
    if (z < 0).any():
        raise ValueError("spacing must be nonnegative")
    return z


def pdf_cc(z):
    """Half-Gaussian law for conjugate-pair spacings: (2/pi) exp(-z^2/pi)."""
    z = _spacings(z)
    return _as_result((2.0 / math.pi) * np.exp(-z * z / math.pi))


def _i0_scaled(x: np.ndarray) -> np.ndarray:
    """exp(-x) I0(x); asymptotic expansion past the overflow range of I0."""
    out = np.empty_like(x)
    low = x <= 600.0
    out[low] = np.exp(-x[low]) * bessel_i0(x[low])
    high = x[~low]
    inv8 = 1.0 / (8.0 * high)
    series = 1.0 + inv8 + 4.5 * inv8 * inv8 + 37.5 * inv8 * inv8 * inv8
    out[~low] = series / np.sqrt(2.0 * math.pi * high)
    return out


def pdf_rc(z):
    """Bessel-I0 law for real-complex spacings.

    p(z) = (3 sqrt(3) pi / 16) c^2 z exp(-(3 pi/16) c^2 z^2)
           * I0((3 pi/32) c^2 z^2),   c = 2F1(3/4, 5/4; 1; 1/4).

    The exp/I0 product is evaluated in scaled form so large z underflows
    gracefully instead of overflowing I0.
    """
    z = _spacings(z)
    c2 = RC_SHAPE_CONST * RC_SHAPE_CONST
    amp = (3.0 * math.sqrt(3.0) * math.pi / 16.0) * c2
    p = (3.0 * math.pi / 16.0) * c2
    q = (3.0 * math.pi / 32.0) * c2
    u = z * z
    # exp(-p u) I0(q u) = exp((q - p) u) * [exp(-q u) I0(q u)], both factors <= 1
    return _as_result(amp * z * np.exp((q - p) * u) * _i0_scaled(q * u))


def pdf_generic(s):
    """Rayleigh law (unit mean) for non-conjugate complex pair spacings."""
    s = _spacings(s)
    return _as_result((math.pi * s / 2.0) * np.exp(-math.pi * s * s / 4.0))
