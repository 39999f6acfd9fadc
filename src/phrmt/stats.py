"""Empirical-distribution utilities: histograms, unit-mean rescaling,
Kolmogorov-Smirnov distances, and the reference CDFs of the three spacing
laws.

The half-Gaussian and Rayleigh laws have closed-form CDFs; the Bessel-I0 law
does not, so its CDF is tabulated once per process by Gauss-Legendre
quadrature on a 2048-interval grid (``GridCdf``, one array evaluation of the
density) and evaluated by monotone (linear) interpolation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import circulant
from .circulant import _step_rows
from .specfun import erf

__all__ = [
    "Histogram",
    "GofReport",
    "histogram",
    "normalize_unit_mean",
    "ks_statistic",
    "ks_two_sample",
    "cdf_cc",
    "cdf_rc",
    "cdf_generic",
    "GridCdf",
]


@dataclass(frozen=True)
class Histogram:
    """Counts over half-open bins [e_i, e_{i+1}); out-of-range values are
    dropped from the bins but kept in ``n_out`` so totals stay auditable.
    Built by ``histogram``, which checks the edges."""

    edges: np.ndarray
    counts: np.ndarray
    total: int
    n_out: int

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def densities(self) -> np.ndarray:
        """Per-bin density; integrates to the in-range fraction of the data."""
        if self.total == 0:
            return np.zeros_like(self.widths)
        return self.counts / (self.total * self.widths)


@dataclass(frozen=True)
class GofReport:
    """Result of a one-sample KS comparison against a reference CDF."""

    ks_distance: float
    n: int
    pass_threshold: float
    passed: bool
    label: str = ""
    reference_only: bool = False


def _check_ascending(x: np.ndarray) -> None:
    """Raise ValueError unless ``x`` is ascending in ``np.sort``'s order (NaN
    last).  Each slice is checked together with the value before it, so a
    descent across a slice boundary is found too."""
    step = _step_rows(1)
    for start in range(0, x.size, step):
        s = x[max(start - 1, 0) : start + step]
        ok = s[:-1] <= s[1:]
        # a pair fails ``<=`` by descending or by holding NaN; only a NaN
        # after its neighbour is in order
        if not (ok.all() or np.isnan(s[1:][~ok]).all()):
            raise ValueError("sample must be sorted ascending")


def histogram(sample, edges) -> Histogram:
    """Bin a sample into half-open bins; a value equal to the first edge lands
    in the first bin, a value equal to the last edge is out of range.

    The sample must be sorted ascending (NaN last, as ``np.sort`` leaves it),
    else ValueError: each bin's count is the distance between the insertion
    points of its two edges, so NaN, above every edge, is out of range.
    ValueError unless the edges are finite and strictly increasing.
    """
    sample = np.ascontiguousarray(sample, dtype=float)
    edges = np.ascontiguousarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("need at least 2 edges")
    # not "any diff <= 0", which NaN passes
    if not (np.all(np.isfinite(edges)) and np.all(np.diff(edges) > 0)):
        raise ValueError("edges must be finite and strictly increasing")
    _check_ascending(sample)
    counts = np.diff(np.searchsorted(sample, edges, side="left"))
    return Histogram(
        edges=edges, counts=counts, total=sample.size, n_out=int(sample.size - counts.sum())
    )


def normalize_unit_mean(values: np.ndarray) -> np.ndarray:
    """Rescale a float array of spacings so its mean is exactly 1.

    Takes ownership: the values are divided in place, and the array given
    is returned.
    """
    if values.size == 0:
        raise ValueError("cannot normalize an empty sample")
    mean = float(values.mean())
    if not math.isfinite(mean):
        raise ValueError("cannot normalize a sample whose mean is not finite")
    if mean <= 0.0:
        raise ValueError("cannot normalize a sample with nonpositive mean")
    np.divide(values, mean, out=values)
    return values


def ks_statistic(sample, cdf, pass_threshold: float = 1.0, label: str = "") -> GofReport:
    """Sup-norm distance between the empirical CDF of a sorted sample and a
    reference CDF.  The sample must already be sorted ascending.

    ``cdf`` must act element by element: it is evaluated one slice at a
    time, and the max of the slices' sups is the whole sample's sup, bit for
    bit.  ``n`` is the number of values given.
    """
    x = np.ascontiguousarray(sample, dtype=float)
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    _check_ascending(x)
    sups = []
    step = _step_rows(1)
    buf = np.empty(min(n, step))
    for start in range(0, n, step):
        stop = min(start + step, n)
        f = np.asarray(cdf(x[start:stop]), dtype=float)
        grid = np.arange(start, stop + 1, dtype=float) / n  # i / n, then (i + 1) / n
        gap = buf[: stop - start]
        sups.append(np.max(np.subtract(f, grid[:-1], out=gap)))
        sups.append(np.max(np.subtract(grid[1:], f, out=gap)))
    # np.max, not max(): a NaN sup must stay NaN
    d = float(np.max(sups))
    return GofReport(
        ks_distance=d,
        n=n,
        pass_threshold=pass_threshold,
        passed=bool(d < pass_threshold),
        label=label,
    )


def ks_two_sample(x1, x2) -> float:
    """Sup-norm distance between two empirical CDFs."""
    x1 = np.sort(np.ascontiguousarray(x1, dtype=float))
    x2 = np.sort(np.ascontiguousarray(x2, dtype=float))
    if x1.size == 0 or x2.size == 0:
        raise ValueError("empty sample")
    grid = np.concatenate([x1, x2])
    grid.sort(kind="mergesort")
    f1 = np.searchsorted(x1, grid, side="right") / x1.size
    f2 = np.searchsorted(x2, grid, side="right") / x2.size
    return float(np.max(np.abs(f1 - f2)))


# ---------------------------------------------------------------------------
# Quadrature and cached CDFs
# ---------------------------------------------------------------------------

# 8-point Gauss-Legendre rule on [-1, 1], tabulated (it is symmetric) so
# that no process imports numpy.polynomial to build it.
_GL_X = np.array([0.1834346424956498, 0.525532409916329, 0.7966664774136267, 0.9602898564975363])
_GL_W = np.array([0.362683783378362, 0.31370664587788727, 0.22238103445337448, 0.10122853629037626])
_GL_X, _GL_W = np.concatenate([-_GL_X[::-1], _GL_X]), np.concatenate([_GL_W[::-1], _GL_W])
# The first interval is integrated over geometric pieces [h 2^-j-1, h 2^-j]
# down to h 2^-_GRADED: a density like s ln(1/s) (the f1 law) is not
# polynomial near 0, but on each such piece it is as smooth as elsewhere.
_GRADED = 20
_GRID_SLICE = 2**11  # nodes per density call: the Bessel temporaries stay small


class GridCdf:
    """CDF of a density on [0, hi], tabulated on ``intervals`` equal
    intervals and evaluated by monotone linear interpolation; clamps to
    [0, F(hi)] outside the grid.

    Each interval is integrated by an 8-point Gauss-Legendre rule (the
    first one piecewise, see ``_GRADED``); ``pdf`` must act element by
    element, and is called on arrays of nodes, ``_GRID_SLICE`` at a time.
    """

    def __init__(self, pdf, hi: float, intervals: int = 2048):
        grid = np.linspace(0.0, hi, intervals + 1)
        first = grid[1] * 0.5 ** np.arange(_GRADED, -1, -1)
        lo = np.concatenate([[0.0], first[:-1], grid[1:-1]])
        up = np.concatenate([first, grid[2:]])
        half = 0.5 * (up - lo)
        nodes = ((0.5 * (up + lo))[:, None] + half[:, None] * _GL_X).ravel()
        dens = np.concatenate(
            [np.asarray(pdf(nodes[i : i + _GRID_SLICE]), dtype=float)
             for i in range(0, nodes.size, _GRID_SLICE)]
        )
        pieces = half * (dens.reshape(half.size, _GL_X.size) @ _GL_W)
        # the first _GRADED + 1 pieces make up the first interval
        vals = np.concatenate([[0.0], np.cumsum(pieces)[_GRADED:]])
        self.grid = grid
        self.values = np.maximum.accumulate(vals)  # quadrature noise must not break monotonicity

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.grid, self.values)


def cdf_cc(z):
    """CDF of the half-Gaussian conjugate-pair law: erf(z / sqrt(pi))."""
    return erf(np.asarray(z, dtype=float) / math.sqrt(math.pi))


@functools.cache
def _rc_grid() -> GridCdf:
    return GridCdf(circulant.pdf_rc, hi=12.0)


def cdf_rc(z):
    """CDF of the Bessel-I0 real-complex law (quadrature grid built once)."""
    return _rc_grid()(z)


def cdf_generic(s):
    """CDF of the unit-mean Rayleigh law: 1 - exp(-pi s^2 / 4)."""
    arr = np.asarray(s, dtype=float)
    return -np.expm1(-math.pi * arr * arr / 4.0)
