"""Acceptance suite: the eleven gate criteria, each at its stated tolerance.

Every test prints one pass/fail line (collected again in the terminal
summary) and uses a fixed seed, so thresholds are deterministic.
"""

import math
import time
from fractions import Fraction

import numpy as np
from scipy import integrate

import oracles
from conftest import record_criterion
from phrmt import blockcirc, circulant, cli, pseudo2x2, specfun, stats, walk
from phrmt.circulant import Circulant
from phrmt.walk import WalkConfig, WalkState

SEED = 20260810


def test_criterion_1_f1_spacing_law():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    draws = pseudo2x2.spacing_samples_f1(100_000, 1.0, rng)
    rep = stats.ks_statistic(np.sort(draws), pseudo2x2.spacing_cdf_f1, 0.01)
    elapsed = time.monotonic() - t0
    ok = rep.passed and elapsed < 10.0
    record_criterion(
        1, "2x2 f1 spacing law", ok, f"ks={rep.ks_distance:.5f} n={rep.n} {elapsed:.1f}s"
    )
    assert rep.ks_distance < 0.01
    assert elapsed < 10.0


def test_criterion_2_small_spacing_repulsion():
    pts = [1e-2, 1e-3, 1e-4]
    vals = [pseudo2x2.spacing_pdf_f1(s, 1.0) / (s * math.log(1.0 / s)) for s in pts]
    ratios = [b / a for a, b in zip(vals, vals[1:])]
    ok = all(abs(r - 1.0) < 0.15 for r in ratios)
    record_criterion(
        2, "non-algebraic level repulsion", ok, "ratios " + ", ".join(f"{r:.3f}" for r in ratios)
    )
    for r in ratios:
        assert abs(r - 1.0) < 0.15


def test_criterion_3_cc_law_n3():
    rng = np.random.default_rng(SEED)
    spectra = circulant.batch_spectra(circulant.sample_rows(3, 1.0, 100_000, rng))
    cc, _, _ = circulant.classify_spacings_batch(spectra)
    z = stats.normalize_unit_mean(cc)
    rep = stats.ks_statistic(np.sort(z), stats.cdf_cc, 0.01)
    record_criterion(3, "conjugate-pair law at N=3", rep.passed, f"ks={rep.ks_distance:.5f}")
    assert rep.ks_distance < 0.01


def test_criterion_4_rc_law_n3_and_n100():
    rng = np.random.default_rng(SEED)
    spectra3 = circulant.batch_spectra(circulant.sample_rows(3, 1.0, 10_000, rng))
    _, rc3, _ = circulant.classify_spacings_batch(spectra3)
    z3 = stats.normalize_unit_mean(rc3)
    rep3 = stats.ks_statistic(np.sort(z3), stats.cdf_rc, 0.015)

    spectra100 = circulant.batch_spectra(circulant.sample_rows(100, 1.0, 1_000, rng))
    _, rc100, _ = circulant.classify_spacings_batch(spectra100)
    z100 = stats.normalize_unit_mean(rc100)
    rep100 = stats.ks_statistic(np.sort(z100), stats.cdf_rc, 0.015)

    cross = stats.ks_two_sample(z3, z100)
    ok = rep3.passed and rep100.passed and cross < 0.05
    record_criterion(
        4,
        "real-complex law, size independence",
        ok,
        f"ks3={rep3.ks_distance:.5f} ks100={rep100.ks_distance:.5f} cross={cross:.5f}",
    )
    assert rep3.ks_distance < 0.015
    assert rep100.ks_distance < 0.015
    assert cross < 0.05


def test_criterion_5_generic_law_n100():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    rows = circulant.sample_rows(100, 1.0, 1_000, rng)
    # per-matrix route, exercising the fast transform at N=100
    spectra = np.stack([circulant.eigenvalues(Circulant(r)).eigs for r in rows])
    _, _, gen = circulant.classify_spacings_batch(spectra)
    z = stats.normalize_unit_mean(gen)
    rep = stats.ks_statistic(np.sort(z), stats.cdf_generic, 0.015)
    elapsed = time.monotonic() - t0
    ok = rep.passed and elapsed < 60.0
    record_criterion(
        5, "generic-pair Rayleigh law at N=100", ok, f"ks={rep.ks_distance:.5f} {elapsed:.1f}s"
    )
    assert rep.ks_distance < 0.015
    assert elapsed < 60.0


def test_criterion_6_gaussian_block_laws():
    rng = np.random.default_rng(SEED)
    spectra = blockcirc.batch_block_spectra(blockcirc.sample_gaussian_blocks(25, 10_000, rng))
    cc, rc, gen = blockcirc.classify_block_batch(spectra)
    reps = {}
    laws = (stats.cdf_cc, stats.cdf_rc, stats.cdf_generic)
    for klass, sample, cdf in zip(("cc", "rc", "generic"), (cc, rc, gen), laws):
        z = stats.normalize_unit_mean(sample)
        reps[klass] = stats.ks_statistic(np.sort(z), cdf, 0.02)
    ok = all(r.passed for r in reps.values())
    record_criterion(
        6,
        "block-circulant classes reproduce scalar laws",
        ok,
        " ".join(f"{k}={r.ks_distance:.5f}" for k, r in reps.items()),
    )
    for klass, rep in reps.items():
        assert rep.ks_distance < 0.02, klass


def test_criterion_7_structural_identities():
    rng = np.random.default_rng(SEED)

    worst_scalar = 0.0
    for i in range(1000):
        n = 3 + (i % 10)
        c = Circulant(rng.normal(size=n))
        worst_scalar = max(worst_scalar, circulant.pseudo_orthogonality_residual(c))

    worst_block = 0.0
    for i in range(1000):
        n = 2 + (i % 5)
        b = blockcirc.BlockCirculant(blockcirc.sample_gaussian_blocks(n, 1, rng)[0])
        worst_block = max(worst_block, blockcirc.pseudo_orthogonality_residual_block(b))

    worst_diag = 0.0
    for n in (3, 8, 100):
        c = Circulant(rng.normal(size=n))
        k = np.arange(n)
        u = np.exp((2j * np.pi / n) * np.outer(k, k)) / math.sqrt(n)
        d = u.conj().T @ c.dense() @ u
        worst_diag = max(worst_diag, float(np.max(np.abs(d - np.diag(np.diag(d))))))

    worst_multiset = 0.0
    for n in (2, 3, 4, 6):
        for _ in range(25):
            b = blockcirc.BlockCirculant(blockcirc.sample_gaussian_blocks(n, 1, rng)[0])
            mine = blockcirc.eigenvalues_block(b).eigs
            ref = np.linalg.eigvals(b.dense())
            worst_multiset = max(worst_multiset, oracles.multiset_distance(mine, ref))

    ok = worst_scalar <= 1e-13 and worst_block <= 1e-13 and worst_diag <= 1e-10 and worst_multiset <= 1e-9
    record_criterion(
        7,
        "structural identities",
        ok,
        f"parity={worst_scalar:.1e} block={worst_block:.1e} diag={worst_diag:.1e} eig={worst_multiset:.1e}",
    )
    assert worst_scalar <= 1e-13
    assert worst_block <= 1e-13
    assert worst_diag <= 1e-10
    assert worst_multiset <= 1e-9


def test_criterion_8_entropy_saturation():
    cfg = WalkConfig.ring(22, 0.8, 0.3)
    start = WalkState.delta(22, 0)
    t_star = walk.spectral_gap_mixing_time(cfg, target=1e-5)
    log_n = math.log(22.0)
    worst_gap = 0.0
    worst_sum = 0.0
    for state in walk.evolve_spectral(cfg, start, range(0, t_star + 301)):
        worst_sum = max(worst_sum, abs(float(state.probs.sum()) - 1.0))
        if state.t >= t_star:
            worst_gap = max(worst_gap, abs(walk.entropy(state) - log_n))
    ok = worst_gap < 1e-6 and worst_sum <= 1e-12
    record_criterion(
        8,
        "entropy saturation on the 22-site ring",
        ok,
        f"|s-ln22|<={worst_gap:.1e} from t={t_star}, sum dev {worst_sum:.1e}",
    )
    assert worst_gap < 1e-6
    assert worst_sum <= 1e-12


def test_criterion_9_decay_laws():
    worst_rel = 0.0
    for t in range(0, 201):
        mine = walk.rmt_decay_closed_form(t)
        ref, _ = integrate.quad(
            lambda u, a=(3.0 + t) / 2.0: u ** (a - 1.0) * math.exp(-u),
            0.0,
            math.pi / 4.0,
            epsabs=1e-300,
            epsrel=1e-13,
            limit=200,
        )
        ref *= walk.DECAY_NORM * (2.0 / math.sqrt(math.pi)) ** (1 + t)
        worst_rel = max(worst_rel, abs(mine - ref) / ref)

    worst_asym = max(
        abs(walk.rmt_decay_asymptotic(t) - walk.rmt_decay_closed_form(t))
        / walk.rmt_decay_closed_form(t)
        for t in list(range(50, 201)) + [500, 1000, 2000]
    )

    pdiff = [
        abs(walk.rmt_decay_closed_form(t) - walk.rmt_decay_asymptotic(t))
        / walk.rmt_decay_closed_form(t)
        for t in range(0, 201)
    ]
    monotone = all(a > b for a, b in zip(pdiff, pdiff[1:]))

    ok = worst_rel <= 1e-10 and worst_asym < 0.01 and monotone
    record_criterion(
        9,
        "relaxation decay laws",
        ok,
        f"series-vs-quad={worst_rel:.1e} asym<{worst_asym:.4f} monotone={monotone}",
    )
    assert worst_rel <= 1e-10
    assert worst_asym < 0.01
    assert monotone


def test_criterion_10_special_function_oracles():
    worst = {}

    rel = 0.0
    for x in np.logspace(-8, math.log10(50.0), 100):
        ref = oracles.quad_k0(float(x))
        rel = max(rel, abs(specfun.bessel_k0(float(x)) - ref) / abs(ref))
    worst["k0"] = rel

    rel = 0.0
    for x in np.concatenate([[0.0], np.logspace(-8, math.log10(50.0), 100)]):
        ref = oracles.series_i0(float(x))
        rel = max(rel, abs(specfun.bessel_i0(float(x)) - ref) / abs(ref))
    worst["i0"] = rel

    rel = 0.0
    for x in np.linspace(1e-8, 3.0, 100):
        ref = oracles.series_erf(float(x))
        rel = max(rel, abs(specfun.erf(float(x)) - ref) / abs(ref))
    worst["erf"] = rel

    rel = 0.0
    for a in (0.5, 1.5, 2.5, 7.0):
        for z in np.linspace(0.1, 10.0, 25):
            ref = oracles.quad_lower_gamma(a, float(z))
            rel = max(rel, abs(specfun.lower_incomplete_gamma(a, float(z)) - ref) / ref)
    worst["ligamma"] = rel

    ref = oracles.rational_2f1(Fraction(3, 4), Fraction(5, 4), Fraction(1), Fraction(1, 4))
    worst["2f1"] = abs(specfun.hyp2f1_series(0.75, 1.25, 1.0, 0.25) - ref) / ref

    gamma1 = max(
        abs(specfun.lower_incomplete_gamma(1.0, float(z)) - (-math.expm1(-float(z))))
        for z in np.linspace(0.0, 12.0, 49)
    )
    worst["gamma(1,z)"] = gamma1

    ok = (
        worst["k0"] <= 1e-12
        and worst["i0"] <= 1e-12
        and worst["erf"] <= 1e-12
        and worst["ligamma"] <= 1e-12
        and worst["2f1"] <= 1e-13
        and gamma1 <= 1e-13
    )
    record_criterion(
        10,
        "special-function oracle suite",
        ok,
        " ".join(f"{k}={v:.1e}" for k, v in worst.items()),
    )
    assert worst["k0"] <= 1e-12
    assert worst["i0"] <= 1e-12
    assert worst["erf"] <= 1e-12
    assert worst["ligamma"] <= 1e-12
    assert worst["2f1"] <= 1e-13
    assert gamma1 <= 1e-13


def test_criterion_11_determinism(tmp_path):
    csvs = {
        "spacing-cyclic": ("spacing_cc.csv", "spacing_rc.csv", "spacing_generic.csv"),
        "spacing2x2": ("spacing2x2_f1.csv",),
        "rmt-decay": ("decay.csv",),
    }
    commands = {
        "spacing-cyclic": ["spacing-cyclic", "--n", "6", "--count", "2000", "--seed", str(SEED)],
        "spacing2x2": ["spacing2x2", "--family", "f1", "--count", "20000", "--seed", str(SEED)],
        "rmt-decay": ["rmt-decay", "--t-max", "50", "--realizations", "500", "--seed", str(SEED)],
    }
    ok = True
    for name, argv in commands.items():
        d1, d2 = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        assert cli.main(argv + ["--out", str(d1)]) == cli.EXIT_OK
        assert cli.main(argv + ["--out", str(d2)]) == cli.EXIT_OK
        for fname in csvs[name]:
            ok = ok and (d1 / fname).read_bytes() == (d2 / fname).read_bytes()
    record_criterion(11, "seeded runs are byte-identical", ok)
    assert ok
