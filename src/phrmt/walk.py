"""Biased random walks on periodic lattices, driven by circulant transition
matrices, plus the ensemble-averaged relaxation law for disordered rings.

The transition matrix of a nearest-neighbour walk with jump probability w and
right bias p is the circulant with first row (1-w, pw, 0, ..., 0, qw),
q = 1 - p; any doubly stochastic hop row is accepted as well.  Because every
circulant shares the Fourier eigenbasis, time evolution is exact in spectral
form: expand the start distribution in the unitary Fourier basis, scale mode
l by lambda_l^t, and transform back.

For an ensemble of random ring transition matrices, the site-occupation
excess above the uniform state decays, after scaling by the site count, as

    D(t) = C (2/sqrt(pi))^(1+t) gamma((3+t)/2, pi/4),
    C = 1 / (erf(sqrt(pi)/2) - exp(-pi/4)),

which is the t-th moment of the eigenvalue modulus under the radial density
proportional to r^2 exp(-pi r^2 / 4) on [0, 1] (the unit-mean Rayleigh law of
generic complex spacings times the polar measure factor r, restricted to the
stochastic-matrix disk).  A two-term large-t expansion and a Monte Carlo
estimator over synthetic spectra are provided as cross-checks; the stationary
eigenvalue lambda_1 = 1 is excluded from the average by subtracting the
theta = 0 (real-axis) angular mode from the otherwise uniform phase density.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import InitVar, dataclass

import numpy as np

from .specfun import erf, fourier, lower_incomplete_gamma

__all__ = [
    "WalkConfig",
    "WalkState",
    "evolve_spectral",
    "entropy",
    "spectral_gap_mixing_time",
    "rmt_decay_closed_form",
    "rmt_decay_asymptotic",
    "sample_decay_moduli",
    "rmt_decay_monte_carlo",
]

_PROB_TOL = 1e-12
# Round-off allowed below zero in a spectrally evolved occupation, per ring
# site plus per time step; the worst seen is about 13 eps in all on rings of
# 22 to 2048 sites and 0.8 eps per step on pure rotations to 10^6 steps.
_SPECTRAL_ROUNDOFF = 16 * np.finfo(float).eps

# Normalization of the decay law: 1 / (erf(sqrt(pi)/2) - exp(-pi/4)).
DECAY_NORM = 1.0 / (erf(math.sqrt(math.pi) / 2.0) - math.exp(-math.pi / 4.0))
# The last t at which the closed form's intermediates are normal floats:
# from t = 5856 on, (pi/4)^a e^(-pi/4) in the incomplete gamma is subnormal,
# and from t = 5867 on, C (2/sqrt(pi))^(1+t) overflows.
DECAY_T_MAX = 5855


@dataclass(frozen=True)
class WalkConfig:
    """Ring walk configuration: a hop row, stored read-only.

    The hop row lists the probability of staying (entry 0) and of hopping
    +k sites (entry k, cyclically); it must be nonnegative and sum to 1.
    ``ring`` builds the nearest-neighbour row from (n_sites, w, p).
    """

    row: np.ndarray

    def __post_init__(self):
        row = np.array(self.row, dtype=float)
        if row.ndim != 1 or row.size < 2:
            raise ValueError("need a hop row of at least 2 sites")
        # NaN fails no comparison, so it must be caught before them
        if not np.isfinite(row).all():
            raise ValueError("hop probabilities must be finite")
        if row.min() < 0:
            raise ValueError("hop probabilities must be nonnegative")
        if abs(row.sum() - 1.0) > _PROB_TOL:
            raise ValueError(f"hop row must sum to 1, got {row.sum()!r}")
        row.flags.writeable = False
        object.__setattr__(self, "row", row)

    @property
    def n_sites(self) -> int:
        return self.row.size

    @classmethod
    def ring(cls, n_sites: int, w: float, p: float) -> "WalkConfig":
        """Nearest-neighbour ring: stay 1-w, hop right pw, hop left (1-p)w."""
        if n_sites < 2:
            raise ValueError("need a hop row of at least 2 sites")
        if not 0.0 <= w <= 1.0:
            raise ValueError("jump probability w must lie in [0, 1]")
        if not 0.0 <= p <= 1.0:
            raise ValueError("bias p must lie in [0, 1]")
        row = np.zeros(n_sites)
        row[0] = 1.0 - w
        # += so the degenerate n == 2 ring folds pw and qw onto one neighbour
        row[1 % n_sites] += p * w
        row[-1] += (1.0 - p) * w
        return cls(row)


@dataclass(frozen=True)
class WalkState:
    """Site-occupation probabilities at an integer time.

    Entries down to ``-roundoff`` count as round-off and are clipped to 0;
    ``roundoff`` is a check on construction, not a stored field.
    """

    t: int
    probs: np.ndarray
    roundoff: InitVar[float] = 1e-14

    def __post_init__(self, roundoff: float):
        if self.t < 0:
            raise ValueError("time must be nonnegative")
        probs = np.ascontiguousarray(self.probs, dtype=float)
        if probs.min() < -roundoff:
            raise ValueError("occupation probabilities must be nonnegative")
        # the sum is checked on the stored (clipped) array, so every state
        # passes its own constructor again
        probs = np.clip(probs, 0.0, None)
        if abs(probs.sum() - 1.0) > _PROB_TOL:
            raise ValueError(f"occupation probabilities must sum to 1, got {probs.sum()!r}")
        object.__setattr__(self, "probs", probs)

    @classmethod
    def delta(cls, n_sites: int, site: int = 0) -> "WalkState":
        # a negative index would wrap around to another site
        if not 0 <= site < n_sites:
            raise ValueError(f"site must be in 0..{n_sites - 1}, got {site}")
        probs = np.zeros(n_sites)
        probs[site] = 1.0
        return cls(t=0, probs=probs)


def evolve_spectral(
    cfg: WalkConfig, p0: WalkState, steps: Iterable[int]
) -> Iterator[WalkState]:
    """States after each of ``steps`` steps, in order, computed in the
    Fourier eigenbasis.

    Exact for circulant transition matrices (they are all diagonal in the
    same unitary basis, normal or not); matches repeated matrix
    multiplication to near roundoff.  The arguments are checked and the
    modes and start coefficients built at the call; each state is computed
    as the returned iterator reaches it, so a caller that keeps one state
    at a time holds one length-N state, whatever the number of steps.

    Evolved occupations may lie below zero by round-off that may grow with
    the ring size (each transform sums N terms) and, for unit-modulus modes,
    grows with the time (the phase of lambda^t), so they are checked against
    a tolerance in proportion to N + t rather than the fixed one for states
    a caller builds.
    """
    steps = [int(s) for s in steps]
    if min(steps, default=0) < 0:
        raise ValueError("time must be nonnegative")
    if p0.probs.size != cfg.n_sites:
        raise ValueError("state size does not match the configuration")
    n = cfg.n_sites
    lam = fourier(cfg.row)  # transition-matrix eigenvalues, in mode order
    # start coefficients in the Fourier basis exp(2 pi i k j / N), up to the
    # 1/N that the transform back applies
    coeff = np.conj(fourier(p0.probs))

    def state(s: int) -> WalkState:
        if s == 0:
            return p0  # identity power, exactly
        probs = fourier(lam**s * coeff).real / n
        return WalkState(t=p0.t + s, probs=probs, roundoff=_SPECTRAL_ROUNDOFF * (n + s))

    return map(state, steps)


def entropy(state: WalkState) -> float:
    """Occupation entropy -sum p_i ln p_i in units of k_B (0 ln 0 = 0)."""
    p = state.probs[state.probs > 0.0]
    return float(-np.sum(p * np.log(p)))


def spectral_gap_mixing_time(cfg: WalkConfig, target: float = 1e-8) -> int:
    """Steps after which every non-stationary mode has decayed below target.

    Uses the second-largest eigenvalue modulus; raises for periodic or
    decoupled rings (no spectral gap), where the walk never mixes, and
    unless ``target`` is > 0.
    """
    if not target > 0.0:  # also NaN
        raise ValueError(f"target must be > 0, got {target!r}")
    lam = fourier(cfg.row)
    moduli = np.sort(np.abs(lam))
    second = moduli[-2]
    if second >= 1.0 - 1e-15:
        raise ValueError("no spectral gap: the configuration does not mix")
    if target >= 1.0:
        return 0
    return int(math.ceil(math.log(target) / math.log(second)))


# ---------------------------------------------------------------------------
# Ensemble-averaged decay of the occupation excess
# ---------------------------------------------------------------------------


def rmt_decay_closed_form(t: int) -> float:
    """Site-count-scaled mean occupation excess at integer time t.

    D(t) = C (2/sqrt(pi))^(1+t) gamma((3+t)/2, pi/4); strictly positive and
    decreasing for t >= 1.  The value is independent of the ring size; divide
    by the site count for a per-site curve.  Defined for t up to
    ``DECAY_T_MAX``, beyond which its intermediates leave the float range.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t > DECAY_T_MAX:
        raise ValueError(f"time must be at most {DECAY_T_MAX}, got {t}")
    a = 0.5 * (3.0 + t)
    return DECAY_NORM * (2.0 / math.sqrt(math.pi)) ** (1 + t) * lower_incomplete_gamma(a, math.pi / 4.0)


def rmt_decay_asymptotic(t: int) -> float:
    """Two-term large-t expansion of the scaled decay law.

    (pi/4) exp(-pi/4) C [2/(t+3) + pi/((t+3)(t+5))]; within 1% of the closed
    form from t of a few tens onward, with the leading constant/(t+3) decay.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    pref = 0.25 * math.pi * math.exp(-math.pi / 4.0) * DECAY_NORM
    return pref * (2.0 / (t + 3.0) + math.pi / ((t + 3.0) * (t + 5.0)))


# Values per slice in the decay Monte Carlo: 2**13 floats are 64 KiB, below
# glibc's 128 KiB mmap threshold, so each per-slice temporary is served from
# the heap and reused on the next slice instead of being mapped, faulted in
# and unmapped again.
_SLICE = 2**13


def sample_decay_moduli(count: int, rng: np.random.Generator) -> np.ndarray:
    """Eigenvalue moduli under the decay law's radial density.

    Density proportional to r^2 exp(-pi r^2/4) on [0, 1]: the Rayleigh
    modulus law times the polar measure factor r, truncated to the stochastic
    disk.  Sampled by rejection from the uniform envelope (the density is
    increasing on [0, 1], so the envelope constant is its value at 1).

    A rejection round of m candidates takes the values of two whole m-draws:
    r from ``rng``, u from a copy of its bit generator advanced by m, both
    ``_SLICE`` at a time until the result is full; then ``rng`` skips to
    where the two draws end.  So ``advance(k)`` must skip k doubles, as
    PCG64's (from ``default_rng`` or ``seeding.spawn_generators``) does.
    """
    out = np.empty(count)
    have = 0
    fmax = math.exp(-math.pi / 4.0)
    rbuf, ubuf = np.empty(_SLICE), np.empty(_SLICE)
    while have < count:
        m = int((count - have) * 2.5) + 16
        ahead = type(rng.bit_generator)(0)  # seeded: a seedless one reads OS entropy
        ahead.state = rng.bit_generator.state
        urng = np.random.Generator(ahead.advance(m))
        drawn = 0
        while have < count and drawn < m:
            r = rng.random(out=rbuf[: min(_SLICE, m - drawn)])
            u = urng.random(out=ubuf[: r.size])
            keep = r[u * fmax <= r * r * np.exp(-math.pi * r * r / 4.0)]
            take = min(keep.size, count - have)
            out[have : have + take] = keep[:take]
            have += take
            drawn += r.size
        rng.bit_generator.advance(2 * m - drawn)
    return out


def rmt_decay_monte_carlo(
    n: int, t: int, realizations: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo estimate (mean, standard error) of the scaled decay law
    at step t.

    Each realization draws N-1 synthetic eigenvalues: moduli from
    ``sample_decay_moduli`` and phases uniform on (-pi, pi], with the
    stationary mode excluded by subtracting the real-axis (theta = 0)
    angular component from the uniform one (signed weights +2 and -1, which
    keep total angular mass 1).  The excess-occupation mode sum for a delta
    start is evaluated at every site except the start and averaged; its
    expectation equals ``rmt_decay_closed_form(t)`` for t >= 1.  At t = 0
    every mode term is 1, so each realization gives the delta start's own
    excess scaled by N, -1: the estimate is exactly -1 with standard error 0
    for more than one realization, where the closed form reads 1.

    The estimate is real, so it is computed in real arithmetic: with
    lambda = r e^{i theta}, Re[lambda^t] = r^t cos(t theta), and both angular
    terms share r^t.  The real part of the complex mode sum is the sum of
    these real parts, so this equals the real part of sum lambda^t to
    round-off, without forming any complex power.

    The phases, powers and row sums run over slices of ``_SLICE`` values.
    """
    if n < 3:
        raise ValueError("need at least 3 sites")
    if realizations < 1:
        raise ValueError("need at least one realization")
    if t < 0:
        raise ValueError("time must be nonnegative")
    modes = n - 1
    moduli = sample_decay_moduli(realizations * modes, rng)
    est = np.empty(realizations)
    rows = max(1, _SLICE // modes)
    # Site average over j != 0 of the mode sum: sum_{j != 0} omega_j^l = -1
    # for every l >= 1, so the average collapses to a plain mode sum.
    site_factor = -1.0 / (n * (n - 1))
    # the phases follow all the moduli in the stream; row slices of the
    # whole (realizations, N-1) draw give the same values
    for lo in range(0, realizations, rows):
        hi = min(lo + rows, realizations)
        r = moduli[lo * modes : hi * modes].reshape(hi - lo, modes)
        theta = rng.uniform(-math.pi, math.pi, size=r.shape)
        rt = r**t
        s_uniform = (rt * np.cos(t * theta)).sum(axis=1) * site_factor
        s_axis = rt.sum(axis=1) * site_factor
        est[lo:hi] = n * (2.0 * s_uniform - s_axis)
    mean = float(est.mean())
    stderr = float(est.std(ddof=1) / math.sqrt(realizations)) if realizations > 1 else math.inf
    return mean, stderr
