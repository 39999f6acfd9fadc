import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import oracles
from phrmt import circulant, stats
from phrmt.circulant import Circulant
from phrmt.specfun import fourier


class TestCirculantType:
    def test_dense_layout(self):
        c = Circulant(np.array([1.0, 2.0, 3.0]))
        expect = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [2.0, 3.0, 1.0]])
        assert np.array_equal(c.dense(), expect)

    def test_validation(self):
        with pytest.raises(ValueError):
            Circulant(np.array([1.0]))
        with pytest.raises(ValueError):
            Circulant(np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            Circulant(np.ones((2, 2)))


class TestGeneralizedParity:
    def test_n2_degenerates_to_identity(self):
        assert np.array_equal(circulant.generalized_parity(2), np.eye(2))

    def test_n3_pattern(self):
        expect = np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 1.0, 0]])
        assert np.array_equal(circulant.generalized_parity(3), expect)

    def test_involution_and_symmetry(self):
        for n in range(2, 9):
            eta = circulant.generalized_parity(n)
            assert np.array_equal(eta @ eta, np.eye(n))
            assert np.array_equal(eta, eta.T)

    def test_residual_random_circulants(self):
        rng = np.random.default_rng(31)
        for n in (5, 100):
            c = Circulant(rng.normal(size=n))
            tol = 1e-14 if n == 5 else 1e-13
            assert circulant.pseudo_orthogonality_residual(c) <= tol

    def test_residual_identity_matrix(self):
        row = np.zeros(6)
        row[0] = 1.0
        assert circulant.pseudo_orthogonality_residual(Circulant(row)) == 0.0


class TestEigenvalues:
    def test_identity_circulant(self):
        row = np.zeros(5)
        row[0] = 1.0
        spec = circulant.eigenvalues(Circulant(row))
        assert np.allclose(spec.eigs, np.ones(5), atol=1e-14)

    def test_frozen_1_2_3(self):
        spec = circulant.eigenvalues(Circulant(np.array([1.0, 2.0, 3.0])))
        assert spec.eigs[0] == pytest.approx(6.0)
        assert spec.eigs[1] == pytest.approx(-1.5 - 1j * math.sqrt(3) / 2)
        assert spec.eigs[2] == pytest.approx(np.conj(spec.eigs[1]))

    def test_stochastic_row_has_unit_eigenvalue(self):
        row = np.zeros(8)
        row[0], row[1], row[7] = 1.0 - 0.8, 0.3 * 0.8, 0.7 * 0.8
        spec = circulant.eigenvalues(Circulant(row))
        assert spec.eigs[0] == pytest.approx(1.0)

    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(33)
        for n in range(2, 9):
            c = Circulant(rng.normal(size=n))
            mine = circulant.eigenvalues(c).eigs
            ref = np.linalg.eigvals(c.dense())
            assert oracles.multiset_distance(mine, ref) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_conjugate_symmetry_property(self, n, seed):
        row = np.random.default_rng(seed).normal(size=n)
        spec = circulant.eigenvalues(Circulant(row))
        scale = max(1.0, float(np.max(np.abs(spec.eigs))))
        for l in range(n):
            assert abs(spec.eigs[l] - np.conj(spec.eigs[(n - l) % n])) < 1e-12 * scale
        # partners encode exactly that pairing
        assert np.array_equal(spec.partner, (-np.arange(n)) % n)

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 12, 100])
    def test_batch_twins_are_exact(self, n):
        # e[n-l] is conj(e[l]) bit for bit, and the self-paired e[0] (and
        # e[n/2] at even n) are real
        spectra = circulant.batch_spectra(np.random.default_rng(n).normal(size=(200, n)))
        partner = (-np.arange(n)) % n
        comp = np.flatnonzero(partner != np.arange(n))
        assert spectra[:, partner[comp]].tobytes() == np.conj(spectra[:, comp]).tobytes()
        assert np.all(spectra[:, partner == np.arange(n)].imag == 0)

    def test_batch_matches_per_row(self):
        # one transform path, so the two routes agree bit for bit
        rng = np.random.default_rng(34)
        rows = rng.normal(size=(10, 7))
        batch = circulant.batch_spectra(rows)
        for i in range(10):
            single = circulant.eigenvalues(Circulant(rows[i])).eigs
            assert batch[i].tobytes() == single.tobytes()

    def test_real_eigenvalue_count_odd_even(self):
        rng = np.random.default_rng(35)
        for n, expect in ((5, 1), (6, 2)):
            spectra = circulant.batch_spectra(rng.normal(size=(10_000, n)))
            scale = np.abs(spectra).max()
            n_real = (np.abs(spectra.imag) < 1e-9 * scale).sum(axis=1)
            assert np.all(n_real == expect)


class TestTraceNorm:
    def test_parseval(self):
        # sum_l |E_l|^2 = tr(M^T M) of the dense matrix
        rng = np.random.default_rng(36)
        c = Circulant(rng.normal(size=16))
        spec = circulant.eigenvalues(c)
        m = c.dense()
        assert float(np.sum(np.abs(spec.eigs) ** 2)) == pytest.approx(
            float(np.trace(m.T @ m)), rel=1e-10
        )


class TestEnsemble:
    def test_entry_variance(self):
        rng = np.random.default_rng(37)
        rows = circulant.sample_rows(3, 1.0, 1_000_000, rng)
        assert rows.var() == pytest.approx(1.0 / 6.0, rel=0.01)

    def test_equal_seeds_equal_streams(self):
        a = circulant.sample_rows(4, 2.0, 5, np.random.default_rng(99))
        b = circulant.sample_rows(4, 2.0, 5, np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_large_weight_concentrates(self):
        rng = np.random.default_rng(38)
        rows = circulant.sample_rows(4, 1e8, 1000, rng)
        assert np.max(np.abs(rows)) < 1e-2

    def test_bad_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            circulant.sample_rows(1, 1.0, 5, rng)
        with pytest.raises(ValueError):
            circulant.sample_rows(3, -1.0, 5, rng)
        with pytest.raises(ValueError):
            circulant.sample_rows(3, 1.0, 0, rng)


class TestClassifySpacings:
    def test_n3_closed_forms(self):
        a = np.array([0.4, 1.9, -0.6])
        spec = circulant.eigenvalues(Circulant(a))
        cc, rc, gen = oracles.classify_spacings(spec)
        assert cc.size == 1
        assert cc[0] == pytest.approx(math.sqrt(3.0) * abs(a[2] - a[1]), rel=1e-12)
        expect_rc = abs(1.5 * (a[1] + a[2]) + 0.5j * math.sqrt(3.0) * (a[1] - a[2]))
        assert rc.size == 2  # one real eigenvalue against each conjugate partner
        assert np.allclose(rc, expect_rc, rtol=1e-12)
        assert gen.size == 0

    def test_pair_counts(self):
        rng = np.random.default_rng(39)
        for n, n_cc, n_rc, n_gen in ((5, 2, 4, 4), (6, 2, 8, 4)):
            spec = circulant.eigenvalues(Circulant(rng.normal(size=n)))
            cc, rc, gen = oracles.classify_spacings(spec)
            # complex count: n minus self-paired; pairs among complex minus
            # the conjugate ones
            assert cc.size == n_cc
            assert rc.size == n_rc
            assert gen.size == n_gen

    def test_cc_independent_of_rc_sign_structure(self):
        # at n=3 the cc spacing depends on a3 - a2 and the rc real part on
        # a2 + a3; these are independent Gaussians
        rng = np.random.default_rng(40)
        rows = circulant.sample_rows(3, 1.0, 100_000, rng)
        spectra = circulant.batch_spectra(rows)
        cc, _, _ = circulant.classify_spacings_batch(spectra)
        sign_part = rows[:, 1] + rows[:, 2]
        rho = np.corrcoef(cc, sign_part)[0, 1]
        assert abs(rho) < 0.01

    def test_batch_concatenates_realizations(self, monkeypatch):
        # the batch path equals the per-spectrum path at the pairs it keeps
        # (every cc pair, the first of each rc or generic pair and its twin),
        # bit for bit, row after row; steps are shrunk so a few thousand rows
        # span two full steps and a partial one (two rows a step at n = 100)
        monkeypatch.setattr(circulant, "_STEP", 10_000)
        rng = np.random.default_rng(41)
        for n in (3, 4, 5, 8, 100):
            count = 2 * circulant._step_rows(n * (n - 1) // 2) + 1
            rows = rng.normal(size=(count, n))
            batch = circulant.classify_spacings_batch(circulant.batch_spectra(rows))
            specs = [circulant.eigenvalues(Circulant(r)) for r in rows]
            for k, values in enumerate(batch):
                want = np.concatenate([
                    oracles.classify_spacings(spec)[k][
                        oracles.first_of_twins(spec.partner, *oracles.spacing_pairs(spec)[k])
                    ]
                    for spec in specs
                ])
                assert values.tobytes() == want.tobytes(), (n, k)

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 12, 100])
    def test_twins_doubled_equal_the_oracle(self, n):
        # every rc and generic value stands for exactly two pairs: repeated
        # twice, each class is the oracle's multiset on the same spectra,
        # bit for bit; cc pairs are their own twins and appear once
        spectra = circulant.batch_spectra(np.random.default_rng(43).normal(size=(50, n)))
        partner = (-np.arange(n)) % n
        singles = [oracles.classify_spacings(circulant.Spectrum(e, partner)) for e in spectra]
        for k, values in enumerate(circulant.classify_spacings_batch(spectra)):
            want = np.sort(np.concatenate([single[k] for single in singles]))
            got = np.sort(np.repeat(values, 1 if k == 0 else 2))
            assert got.tobytes() == want.tobytes(), (n, k)

    def test_spectra_without_exact_twins_are_refused(self):
        # the complex-to-complex transform is conjugate-symmetric only to
        # rounding at n = 12, so its twins' spacings need not be equal
        rows = np.random.default_rng(44).normal(size=(50, 12))
        spectra = fourier(rows)
        assert not np.array_equal(spectra, circulant.batch_spectra(rows))
        with pytest.raises(ValueError, match="conjugate-symmetric"):
            circulant.classify_spacings_batch(spectra)
        # one real eigenvalue with a nonzero imaginary part is refused too,
        # also in the last of several steps (6 rows a step at n = 100)
        for count, n in ((50, 12), (20, 100)):
            spectra = circulant.batch_spectra(np.random.default_rng(44).normal(size=(count, n)))
            spectra[-1, 0] += 1e-300j
            with pytest.raises(ValueError, match="conjugate-symmetric"):
                circulant.classify_spacings_batch(spectra)
        assert circulant._step_rows(100 * 99 // 2) == 6

    def test_batch_scratch_is_bounded(self):
        # the classes are split in steps of about 2**15 pairs, so beyond its
        # 19.1 MiB of output (one value per pair of twins) the call holds
        # under 2 MiB (3.3 MiB with 2**18-entry steps)
        rng = np.random.default_rng(42)
        spectra = circulant.batch_spectra(circulant.sample_rows(100, 1.0, 1000, rng))
        tracemalloc.start()
        try:
            classes = circulant.classify_spacings_batch(spectra)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = sum(values.nbytes for values in classes)
        assert peak < output + 2 * 2**20


class TestSpacingLaws:
    def test_cc_at_zero_and_ratio(self):
        assert circulant.pdf_cc(0.0) == pytest.approx(2.0 / math.pi)
        assert circulant.pdf_cc(2.0) / circulant.pdf_cc(0.0) == pytest.approx(
            math.exp(-4.0 / math.pi), rel=1e-12
        )

    def test_cc_normalized_unit_mean(self):
        norm, _ = integrate.quad(circulant.pdf_cc, 0, 40, limit=200)
        mean, _ = integrate.quad(lambda z: z * circulant.pdf_cc(z), 0, 40, limit=200)
        assert norm == pytest.approx(1.0, abs=1e-10)
        assert mean == pytest.approx(1.0, abs=1e-10)

    def test_rc_at_zero(self):
        assert circulant.pdf_rc(0.0) == 0.0

    def test_rc_normalized_unit_mean(self):
        norm, _ = integrate.quad(circulant.pdf_rc, 0, 30, limit=300)
        mean, _ = integrate.quad(lambda z: z * circulant.pdf_rc(z), 0, 30, limit=300)
        assert norm == pytest.approx(1.0, abs=1e-8)
        assert mean == pytest.approx(1.0, abs=1e-6)

    def test_rc_large_argument_underflows_cleanly(self):
        assert circulant.pdf_rc(50.0) == 0.0

    def test_generic_rayleigh(self):
        assert circulant.pdf_generic(0.0) == 0.0
        mean, _ = integrate.quad(lambda s: s * circulant.pdf_generic(s), 0, 40, limit=200)
        assert mean == pytest.approx(1.0, abs=1e-10)
        # mode at sqrt(2/pi)
        mode = math.sqrt(2.0 / math.pi)
        h = 1e-6
        up = circulant.pdf_generic(mode + h)
        down = circulant.pdf_generic(mode - h)
        assert circulant.pdf_generic(mode) >= max(up, down)

    def test_negative_argument_rejected(self):
        for pdf in (circulant.pdf_cc, circulant.pdf_rc, circulant.pdf_generic):
            with pytest.raises(ValueError):
                pdf(-0.1)
            with pytest.raises(ValueError):
                pdf(np.array([[0.5, 1.0], [-0.1, 2.0]]))

    @pytest.mark.parametrize(
        "pdf", [circulant.pdf_cc, circulant.pdf_rc, circulant.pdf_generic],
        ids=["cc", "rc", "generic"],
    )
    def test_array_input(self, pdf):
        z = np.array([[0.0, 0.3, 1.0, 2.5], [7.0, 34.0, 35.0, 50.0]])  # rc scaled I0 switches near 34.4
        got = pdf(z)
        assert got.shape == z.shape
        assert got.ravel().tolist() == [pdf(float(v)) for v in z.ravel()]
        assert isinstance(pdf(1.0), float)

    def test_rc_matches_scalar_oracle(self):
        z = np.linspace(0.0, 12.0, 241)
        want = np.array([oracles.rc_density(float(v)) for v in z])
        np.testing.assert_allclose(circulant.pdf_rc(z), want, rtol=1e-13, atol=1e-300)


class TestDiagonalization:
    def test_fourier_matrix_diagonalizes(self):
        rng = np.random.default_rng(44)
        for n in (3, 8):
            c = Circulant(rng.normal(size=n))
            k = np.arange(n)
            u = np.exp((2j * np.pi / n) * np.outer(k, k)) / math.sqrt(n)
            d = u.conj().T @ c.dense() @ u
            off = d - np.diag(np.diag(d))
            assert np.max(np.abs(off)) < 1e-10
            assert oracles.multiset_distance(np.diag(d), circulant.eigenvalues(c).eigs) < 1e-10


class TestLawAgreementQuick:
    """Reduced-size law checks; the full-size runs live in the acceptance suite."""

    def test_cc_law_n3(self):
        rng = np.random.default_rng(46)
        spectra = circulant.batch_spectra(circulant.sample_rows(3, 1.0, 10_000, rng))
        cc, _, _ = circulant.classify_spacings_batch(spectra)
        z = stats.normalize_unit_mean(cc)
        rep = stats.ks_statistic(np.sort(z), stats.cdf_cc, 0.02)
        assert rep.passed, rep.ks_distance

    def test_rc_law_n4(self):
        rng = np.random.default_rng(47)
        spectra = circulant.batch_spectra(circulant.sample_rows(4, 1.0, 10_000, rng))
        _, rc, _ = circulant.classify_spacings_batch(spectra)
        z = stats.normalize_unit_mean(rc)
        rep = stats.ks_statistic(np.sort(z), stats.cdf_rc, 0.02)
        assert rep.passed, rep.ks_distance

    def test_generic_law_n12(self):
        rng = np.random.default_rng(48)
        spectra = circulant.batch_spectra(circulant.sample_rows(12, 1.0, 5_000, rng))
        _, _, gen = circulant.classify_spacings_batch(spectra)
        z = stats.normalize_unit_mean(gen)
        rep = stats.ks_statistic(np.sort(z), stats.cdf_generic, 0.02)
        assert rep.passed, rep.ks_distance
