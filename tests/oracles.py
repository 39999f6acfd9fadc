"""Independent oracles for the test suite.

Every closed-form value asserted by the tests is computed here by a route
(adaptive quadrature, exact rational series, per-term sums, dense linear
algebra) that shares no code with the library under test.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

import numpy as np
from scipy import integrate


def quad_k0(x: float) -> float:
    """K0(x) as the integral of exp(-x cosh t) over t >= 0."""
    # the integrand is ~exp(-x) e^{-x t^2/2} near 0 and dies past cosh t ~ 700/x
    hi = math.acosh(710.0 / x) if x < 700 else 1.0
    val, _ = integrate.quad(
        lambda t: math.exp(-x * math.cosh(t)), 0.0, hi, limit=400, epsabs=0.0, epsrel=1e-13
    )
    return val


def series_i0(x: float, terms: int = 120) -> float:
    """I0(x) by its power series in exact rational arithmetic."""
    q = Fraction(x) ** 2 / 4
    term = Fraction(1)
    acc = Fraction(1)
    for k in range(1, terms):
        term *= q / (k * k)
        acc += term
        if term < Fraction(1, 10**40) * acc:
            break
    return float(acc)


def series_erf(x: float) -> float:
    """erf(x) by its Maclaurin series (float; adequate for |x| <= 3)."""
    term = x
    acc = 0.0
    k = 0
    while True:
        acc += term / (2 * k + 1)
        k += 1
        term *= -x * x / k
        if abs(term) < 1e-20:
            break
    return 2.0 / math.sqrt(math.pi) * acc


def scalar_loop_erf(x: float) -> float:
    """erf(x) for |x| <= 2 by the library's Maclaurin recurrence and stop
    rule, one float at a time: the reference for its array form."""
    if x == 0.0:
        return 0.0
    if x < 0.0:
        return -scalar_loop_erf(-x)
    term = x
    acc = x
    k = 1
    while True:
        term *= -x * x / k
        inc = term / (2 * k + 1)
        acc += inc
        if abs(inc) <= 1e-17 * abs(acc):
            return (2.0 / math.sqrt(math.pi)) * acc
        k += 1


def scalar_loop_i0(x: float) -> float:
    """I0(x) by the library's power series and stop rule, one float at a
    time: the reference for its array form."""
    q = 0.25 * x * x
    term = 1.0
    acc = 1.0
    for k in range(1, 10_000):
        term *= q / (k * k)
        acc += term
        if term <= 1e-17 * acc:
            break
    return acc


def scalar_loop_k0(x: float) -> float:
    """K0(x) by the library's log series (x <= 2) and Steed continued
    fraction (2 < x <= 705), one float at a time: the reference for its
    array form."""
    if x <= 2.0:
        q = 0.25 * x * x
        term = 1.0
        harmonic = 0.0
        acc = 0.0
        for k in range(1, 10_000):
            term *= q / (k * k)
            harmonic += 1.0 / k
            inc = term * harmonic
            acc += inc
            if inc <= 1e-17 * (abs(acc) + 1.0):
                break
        return -(math.log(0.5 * x) + 0.5772156649015329) * scalar_loop_i0(x) + acc
    if x > 705.0:
        return 0.0
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    delh = d
    q1 = 0.0
    q2 = 1.0
    q = c = 0.25
    a = -0.25
    s = 1.0 + q * delh
    for i in range(2, 10_000):
        a -= 2 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1 = q2
        q2 = qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        dels = q * delh
        s += dels
        if abs(dels / s) < 1e-16:
            break
    return math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s


def erf_cf(x: float) -> float:
    """erf(x) for x > 2 from the Lentz continued fraction of erfc, one float
    at a time: the reference for the library's array tail."""
    # erfc(x) = exp(-x^2)/sqrt(pi) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    f = x
    c = x
    d = 0.0
    for n in range(1, 10_000):
        a = 0.5 * n
        d = 1.0 / (x + a * d)
        c = x + a / c
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return 1.0 - math.exp(-x * x) / math.sqrt(math.pi) / f


def adaptive_simpson(f, a: float, b: float) -> float:
    """Adaptive Simpson quadrature of a scalar function on [a, b], to an
    absolute error target of 1e-11 within 30 levels of bisection: the
    reference for the library's Gauss-Legendre CDF grids."""

    def _simpson(lo, flo, hi, fhi, mid, fmid):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def _recurse(lo, flo, hi, fhi, mid, fmid, whole, eps, depth):
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flm = f(lmid)
        frm = f(rmid)
        left = _simpson(lo, flo, mid, fmid, lmid, flm)
        right = _simpson(mid, fmid, hi, fhi, rmid, frm)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return _recurse(lo, flo, mid, fmid, lmid, flm, left, 0.5 * eps, depth - 1) + _recurse(
            mid, fmid, hi, fhi, rmid, frm, right, 0.5 * eps, depth - 1
        )

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(a, fa, b, fb, m, fm)
    return _recurse(a, fa, b, fb, m, fm, whole, 1e-11, 30)


@functools.cache
def _rc_shape_const() -> float:
    return rational_2f1(Fraction(3, 4), Fraction(5, 4), Fraction(1), Fraction(1, 4))


def rc_density(z: float) -> float:
    """The Bessel-I0 real-complex law, unscaled, from the scalar I0 loop and
    the exact-rational shape constant (accurate for z up to about 20)."""
    c2 = _rc_shape_const() ** 2
    u = z * z
    amp = 3.0 * math.sqrt(3.0) * math.pi / 16.0 * c2
    return amp * z * math.exp(-3.0 * math.pi / 16.0 * c2 * u) * scalar_loop_i0(
        3.0 * math.pi / 32.0 * c2 * u
    )


def f1_density(s: float) -> float:
    """The f1 spacing law at sigma = 1, S/pi K0(S^2/4), from the scalar K0
    loop."""
    return 0.0 if s == 0.0 else s / math.pi * scalar_loop_k0(0.25 * s * s)


def simpson_cdf_grid(pdf, hi: float, intervals: int) -> np.ndarray:
    """CDF values on ``intervals`` equal intervals of [0, hi], one adaptive
    Simpson integral per interval: the reference for ``stats.GridCdf``."""
    grid = np.linspace(0.0, hi, intervals + 1)
    vals = np.zeros_like(grid)
    for i in range(1, grid.size):
        vals[i] = vals[i - 1] + adaptive_simpson(pdf, grid[i - 1], grid[i])
    return np.maximum.accumulate(vals)


def binned_histogram(sample, edges) -> tuple[np.ndarray, int]:
    """Counts over half-open bins [e_i, e_{i+1}) and the out-of-range count,
    by locating each value among the edges, in any order: the reference for
    the library's edge search over a sorted sample."""
    sample = np.asarray(sample, dtype=float)
    edges = np.asarray(edges, dtype=float)
    nbins = edges.size - 1
    idx = np.searchsorted(edges, sample, side="right") - 1
    in_range = (idx >= 0) & (idx < nbins)
    return np.bincount(idx[in_range], minlength=nbins), int(sample.size - in_range.sum())


def whole_array_ks(x, cdf) -> float:
    """KS distance of a sorted sample, with the CDF evaluated on the whole
    array at once: the reference for the library's sup over slices."""
    x = np.asarray(x, dtype=float)
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(x.size)
    return max(float(np.max(f - i / x.size)), float(np.max((i + 1) / x.size - f)))


def whole_stack_block_spectra(blocks, eigenvalues2) -> np.ndarray:
    """Spectra of a (count, N, 2, 2) stack whose mode N-l holds the
    conjugates of mode l, with the transform and the 2x2 solve of modes
    0..N/2 each applied to the whole stack at once, and mode N-l written as
    the conjugates of mode l: the reference for the library's stepped
    ``batch_block_spectra``.  Mode l <= N/2 is conj(U_l) + i conj(V_l), from
    numpy's real-input transforms U and V of the entries' real and imaginary
    parts.  It takes the library's own solver, since the steps must not
    change a bit of it."""
    count, n = blocks.shape[:2]
    u = np.fft.rfft(blocks.real, axis=1)
    v = np.fft.rfft(blocks.imag, axis=1)
    modes = np.empty_like(u)
    modes.real = u.real + v.imag
    modes.imag = v.real - u.imag
    eigs = np.empty((count, n, 2), dtype=complex)
    half = n // 2 + 1
    eigs[:, :half, 0], eigs[:, :half, 1] = eigenvalues2(modes)
    for l in range(1, n - half + 1):
        eigs[:, n - l] = np.conj(eigs[:, l])
    return eigs.reshape(count, -1)


def block_twins(eigs) -> np.ndarray:
    """The twin of each eigenvalue of one block spectrum laid out mode by
    mode (E+ of mode l at 2l, E- at 2l + 1), one index at a time.  Mode N-l
    holds the conjugates of mode l, place for place.  In a mode that is its
    own twin (l = 0, and l = N/2 at even N) an eigenvalue with imaginary
    part 0 is its own twin, and any other is the conjugate of the other
    eigenvalue of its mode.  Tolerances play no part."""
    n_modes = len(eigs) // 2
    twin = np.empty(len(eigs), dtype=int)
    for i in range(len(eigs)):
        l, s = divmod(i, 2)
        other = (n_modes - l) % n_modes
        if other != l:
            twin[i] = 2 * other + s
        elif eigs[i].imag == 0:
            twin[i] = i
        else:
            twin[i] = 2 * l + 1 - s
    return twin


def quad_lower_gamma(a: float, z: float) -> float:
    """gamma(a, z) by adaptive quadrature of t^(a-1) e^-t."""
    if z == 0.0:
        return 0.0
    val, _ = integrate.quad(
        lambda t: t ** (a - 1.0) * math.exp(-t), 0.0, z, limit=400, epsabs=1e-300, epsrel=1e-13
    )
    return val


def quad_upper_gamma(a: float, z: float) -> float:
    """Gamma(a) - gamma(a, z) by quadrature on (z, z + 250).

    The truncated tail is below e^-250 of the integrand scale, far under the
    quadrature tolerance, and the finite range keeps the integrator stable.
    """
    val, _ = integrate.quad(
        lambda t: t ** (a - 1.0) * math.exp(-t), z, z + 250.0, limit=400, epsabs=1e-300, epsrel=1e-13
    )
    return val


def rational_2f1(a: Fraction, b: Fraction, c: Fraction, z: Fraction, terms: int = 50) -> float:
    """2F1 partial sum in exact rational arithmetic."""
    acc = Fraction(0)
    term = Fraction(1)
    for k in range(terms):
        acc += term
        term = term * (a + k) * (b + k) / ((c + k) * (k + 1)) * z
    return float(acc)


def dft_per_term(v) -> np.ndarray:
    """Unnormalized positive-exponent transform, one cmath term at a time."""
    n = len(v)
    out = np.empty(n, dtype=complex)
    for l in range(n):
        acc = 0.0 + 0.0j
        for p in range(n):
            acc += v[p] * cmath.exp(2j * cmath.pi * p * l / n)
        out[l] = acc
    return out


def transition_matrix(hop_row) -> np.ndarray:
    """Dense ring-walk transition matrix, entry by entry: row i is the hop
    row shifted right by i sites, M[i, j] = hop_row[(j - i) mod N]."""
    n = len(hop_row)
    m = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            m[i, j] = hop_row[(j - i) % n]
    return m


def excess_occupation(lams, p0, j: int, t: int) -> complex:
    """Occupation excess p_j(t) - 1/N from the non-stationary modes.

    ``lams`` lists the N-1 eigenvalues lambda_2..lambda_N of a ring
    transition matrix in Fourier-mode order (the stationary lambda_1 = 1
    excluded); p0 is the start distribution.  At t = 0 this reproduces
    p0[j] - 1/N identically for any spectrum, by completeness of the Fourier
    modes.  This is the full mode sum that the Monte Carlo decay estimator
    collapses.
    """
    lams = np.ascontiguousarray(lams, dtype=complex)
    p0 = np.ascontiguousarray(p0, dtype=float)
    n = p0.size
    if lams.size != n - 1:
        raise ValueError("need exactly N-1 non-stationary eigenvalues")
    l = np.arange(1, n)
    acc = 0.0 + 0.0j
    for site, weight in enumerate(p0):
        if weight == 0.0:
            continue
        omega = np.exp((2j * np.pi / n) * (j - site))
        acc += weight * np.sum(lams**t * omega**l)
    return acc / n


def complex_power_decay_estimate(r, theta, t: int) -> tuple[float, float]:
    """Monte Carlo decay estimate (mean, standard error) from given draws of
    eigenvalue moduli ``r`` and phases ``theta`` (one row per realization),
    by raising each complex eigenvalue r e^{i theta} to the t-th power and
    keeping the real part of the mode sums."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    realizations, modes = r.shape
    n = modes + 1
    site_factor = -1.0 / (n * (n - 1))
    s_uniform = ((r * np.exp(1j * theta)) ** t).sum(axis=1) * site_factor
    s_axis = (r**t).sum(axis=1) * site_factor
    est = n * (2.0 * s_uniform - s_axis).real
    return float(est.mean()), float(est.std(ddof=1) / math.sqrt(realizations))


def whole_array_decay_moduli(count: int, rng: np.random.Generator) -> np.ndarray:
    """Moduli under the density proportional to r^2 exp(-pi r^2/4) on [0, 1],
    by rejection rounds that each draw their m candidates and then their m
    uniforms as whole arrays: the reference for the library's sliced draws."""
    out = np.empty(count)
    have = 0
    fmax = math.exp(-math.pi / 4.0)
    while have < count:
        m = int((count - have) * 2.5) + 16
        r = rng.random(m)
        u = rng.random(m)
        keep = r[u * fmax <= r * r * np.exp(-math.pi * r * r / 4.0)]
        take = min(keep.size, count - have)
        out[have : have + take] = keep[:take]
        have += take
    return out


def whole_array_decay_estimate(
    n: int, t: int, realizations: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo decay estimate (mean, standard error) with every draw and
    every power, cosine and row sum taken over the whole (realizations, N-1)
    array at once: the reference for the library's per-slice estimator."""
    r = whole_array_decay_moduli(realizations * (n - 1), rng).reshape(realizations, n - 1)
    theta = rng.uniform(-math.pi, math.pi, size=(realizations, n - 1))
    site_factor = -1.0 / (n * (n - 1))
    rt = r**t
    s_uniform = (rt * np.cos(t * theta)).sum(axis=1) * site_factor
    s_axis = rt.sum(axis=1) * site_factor
    est = n * (2.0 * s_uniform - s_axis)
    mean = float(est.mean())
    stderr = float(est.std(ddof=1) / math.sqrt(realizations)) if realizations > 1 else math.inf
    return mean, stderr


def char_poly_eigs_2x2(m) -> tuple[complex, complex]:
    """Roots of the characteristic polynomial via numpy's polynomial solver."""
    m = np.asarray(m, dtype=complex)
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    roots = np.roots([1.0, -tr, det])
    return complex(roots[0]), complex(roots[1])


def multiset_distance(e1, e2) -> float:
    """Greedy nearest-neighbour matching distance between two eigenvalue
    multisets.  Lexicographic sorting is unstable when conjugate pairs share
    a real part up to roundoff, so matching is the robust comparison."""
    e1 = np.asarray(e1, dtype=complex)
    rest = list(np.asarray(e2, dtype=complex))
    if e1.size != len(rest):
        raise ValueError("multisets must have equal size")
    worst = 0.0
    for x in e1:
        dists = [abs(x - y) for y in rest]
        i = int(np.argmin(dists))
        worst = max(worst, dists[i])
        rest.pop(i)
    return worst


def spacing_pairs(spec) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Index pairs ``(a, b)`` of one spectrum's cc, rc and generic classes,
    in the order ``classify_spacings`` gives their spacings ``|e_a - e_b|``.

    Every unordered pair appears at most once: conjugate pairs in ``cc``,
    (real, complex) pairs in ``rc``, non-conjugate complex pairs in
    ``generic``.  Real-real pairs belong to no class and are dropped.
    """
    partner = spec.partner
    idx = np.arange(partner.size)
    real_idx = np.flatnonzero(partner == idx)
    lead = np.flatnonzero(idx < partner)  # one representative per pair
    comp_idx = np.flatnonzero(partner != idx)  # every complex eigenvalue
    rc_a, rc_b = np.meshgrid(real_idx, comp_idx, indexing="ij")
    iu, ju = np.triu_indices(comp_idx.size, k=1)
    not_conj = partner[comp_idx[iu]] != comp_idx[ju]
    return (
        (lead, partner[lead]),
        (rc_a.ravel(), rc_b.ravel()),
        (comp_idx[iu[not_conj]], comp_idx[ju[not_conj]]),
    )


def classify_spacings(spec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split all qualifying eigenvalue pairs of one spectrum (its ``eigs``
    and ``partner`` pairing) into cc, rc and generic spacings, at the index
    pairs of ``spacing_pairs``.  Built from index lists, not masks: the
    reference of ``circulant.classify_spacings_batch`` and
    ``blockcirc.classify_block_batch``.
    """
    return tuple(np.abs(spec.eigs[a] - spec.eigs[b]) for a, b in spacing_pairs(spec))


def first_of_twins(twin: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the index pairs ``{a, b}`` that come no later, in (i, j)
    row-major order over ``i < j``, than their twin ``{twin[a], twin[b]}``
    (the scalar pairing, or ``block_twins``); a pair that is its own twin
    is kept."""
    n = twin.size

    def rank(x, y):
        return np.minimum(x, y) * n + np.maximum(x, y)

    return rank(a, b) <= rank(twin[a], twin[b])


# Relative tolerance of conjugate pairing; the library's ``blockcirc._RTOL``.
PAIRING_RTOL = 1e-9


def pair_conjugates(eigs: np.ndarray) -> np.ndarray:
    """Detect the conjugation pairing of a spectrum numerically.

    An eigenvalue with |Im| below PAIRING_RTOL * max|eigenvalue| is marked
    real (self-paired); the rest are greedily matched to their nearest
    conjugate within the same tolerance, starting from the smallest imaginary
    parts.  A complex eigenvalue without a partner raises.  The reference
    for the block pairing by mode index (``blockcirc.eigenvalues_block``
    and ``classify_block_batch``), which must give the same partners, or on
    a row with tied nearest conjugates the same class multisets.
    """
    eigs = np.ascontiguousarray(eigs, dtype=complex)
    n = eigs.size
    scale = float(np.max(np.abs(eigs))) if n else 0.0
    tol = PAIRING_RTOL * scale
    partner = -np.ones(n, dtype=int)
    order = np.argsort(np.abs(eigs.imag), kind="stable")
    for i in order:
        if partner[i] >= 0:
            continue
        if abs(eigs[i].imag) <= tol:
            partner[i] = i
            continue
        free = np.flatnonzero(partner < 0)
        free = free[free != i]
        if free.size == 0:
            raise ValueError("spectrum is not closed under conjugation")
        dist = np.abs(eigs[free] - np.conj(eigs[i]))
        j = free[np.argmin(dist)]
        if dist.min() > tol:
            raise ValueError(
                f"no conjugate partner within tolerance for eigenvalue {eigs[i]}"
            )
        partner[i] = j
        partner[j] = i
    return partner


# ---------------------------------------------------------------------------
# Coupled-chain block circulant (A, B, B, ..., B^dagger)
# ---------------------------------------------------------------------------
#
# A = [[a1, i a2], [-i a2, a1]], B = [[-1/2, i b1], [i b2, -1/2]].  For l != 0
# the block transform is Ahat_l = (A - B) + (B^dagger - B) w^-l with
# w = exp(2 pi i / N), whose eigenvalues are a1 + 1/2 +- sqrt(D_l) with
#   D_l = u v - beta^2 (w^-l + w^-2l),  u = a2 - b1, v = a2 + b2, beta = b1 + b2.
# Ahat_0 = A + (N-2) B + B^dagger has eigenvalues a1 - (N-1)/2 +- sqrt(D_0) with
#   D_0 = (a2 + (N-2) b1 - b2)(a2 + b1 - (N-2) b2).
# D_l is real exactly at l = 0, N/2 (w^-l + w^-2l = 0) and N/3, 2N/3 (= -1);
# everywhere else it is non-real whenever beta != 0.  The derivation is in
# docs/decisions.md.


def coupled_chain_dense(n: int, a1: float, a2: float, b1: float, b2: float) -> np.ndarray:
    """The 2N x 2N matrix whose block-row r is (A, B, ..., B, B^dagger)
    shifted right by r blocks, entry by entry."""
    a = np.array([[a1, 1j * a2], [-1j * a2, a1]])
    b = np.array([[-0.5, 1j * b1], [1j * b2, -0.5]])
    row = [a] + [b] * (n - 2) + [b.conj().T]
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = row[(j - i) % n]
    return out


def coupled_chain_discriminants(n: int, a2, b1, b2) -> np.ndarray:
    """D_l for l = 0..N-1, shape (count, N); exactly real where D_l is real."""
    a2, b1, b2 = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (a2, b1, b2))
    u, v, beta = a2 - b1, a2 + b2, b1 + b2
    l = np.arange(n)
    z = np.exp(-2j * np.pi * l / n)
    s = z + z * z
    s[2 * l == n] = 0.0
    s[(3 * l == n) | (3 * l == 2 * n)] = -1.0
    d = (u * v)[:, None] - (beta**2)[:, None] * s
    d[:, 0] = (a2 + (n - 2) * b1 - b2) * (a2 + b1 - (n - 2) * b2)
    return d


def coupled_chain_eigs(n: int, a1, a2, b1, b2) -> np.ndarray:
    """All 2N eigenvalues per realization from the closed form, shape (count, 2N)."""
    a1 = np.atleast_1d(np.asarray(a1, dtype=float))[:, None]
    root = np.sqrt(coupled_chain_discriminants(n, a2, b1, b2))
    centre = a1 + np.full(root.shape, 0.5)
    centre[:, 0] = a1[:, 0] - 0.5 * (n - 1)
    return np.concatenate([centre + root, centre - root], axis=1)


def coupled_chain_cc_from_params(n: int, a2, b1, b2) -> np.ndarray:
    """Pooled conjugate-pair spacings |lam - conj(lam)| of the chain.

    Block N-l holds the conjugates of block l's eigenvalues, so a block pair
    l != N-l gives two conjugate pairs and a self-paired block (l = 0 or N/2)
    with D_l < 0 gives one; either way every block contributes one spacing
    2 |Im sqrt(D_l)|.  Blocks with real D_l >= 0 hold real eigenvalues and
    contribute nothing: their imaginary parts are exactly zero here.
    """
    gaps = 2.0 * np.abs(np.sqrt(coupled_chain_discriminants(n, a2, b1, b2)).imag)
    return gaps[gaps > 0.0]


def coupled_chain_cc_spacings(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """cc spacings of `count` chain realizations with standard-normal
    a1, a2, b1, b2 (a1 only shifts the spectrum and drops out)."""
    _, a2, b1, b2 = rng.normal(0.0, 1.0, size=(4, count))
    return coupled_chain_cc_from_params(n, a2, b1, b2)
