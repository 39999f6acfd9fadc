import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

import oracles
from phrmt import blockcirc
from phrmt import pseudo2x2 as p2
from phrmt import stats
from phrmt.pseudo2x2 import Family2x2, FamilyTag

ALL_FAMILIES = [
    Family2x2(FamilyTag.F1_ANTIDIAG_IMAG),
    Family2x2(FamilyTag.F2_DIAG_PARITY),
    Family2x2(FamilyTag.F3_EPSILON_SCALED, epsilon=2.0),
    Family2x2(FamilyTag.F4_COMPLEX_DIAG),
    Family2x2(FamilyTag.F5_INDEFINITE),
]

# mean spacing of the f1 law at sigma=1, by quadrature of s^2/pi K0(s^2/4)
F1_MEAN_SPACING = 1.3519564801345698
# (1/pi) K0(1/4) with K0 from the quadrature oracle
F1_PDF_AT_1 = 0.4906768385413922


class TestMetrics:
    def test_f1_metric_pair(self):
        mp = p2.metric_of(Family2x2(FamilyTag.F1_ANTIDIAG_IMAG))
        assert np.array_equal(mp.eta, np.array([[0, 1j], [-1j, 0]]))
        assert np.array_equal(mp.zeta, np.array([[0, 1], [1, 0]]))

    def test_f2_f4_zeta_unknown(self):
        assert p2.metric_of(Family2x2(FamilyTag.F2_DIAG_PARITY)).zeta is None
        assert p2.metric_of(Family2x2(FamilyTag.F4_COMPLEX_DIAG)).zeta is None

    def test_f2_f5_metrics(self):
        assert np.array_equal(
            p2.metric_of(Family2x2(FamilyTag.F2_DIAG_PARITY)).eta, np.diag([1.0 + 0j, -1.0])
        )
        mp = p2.metric_of(Family2x2(FamilyTag.F5_INDEFINITE))
        assert np.array_equal(mp.eta, np.diag([1.0 + 0j, -1.0]))
        assert np.array_equal(mp.zeta, mp.eta)

    def test_f3_epsilon_metric(self):
        mp = p2.metric_of(Family2x2(FamilyTag.F3_EPSILON_SCALED, epsilon=2.0))
        assert np.allclose(mp.eta, np.diag([0.5, 2.0]))
        assert np.allclose(mp.zeta, np.diag([0.5, 2.0]))

    def test_metrics_hermitian_invertible(self):
        for fam in ALL_FAMILIES:
            eta = p2.metric_of(fam).eta
            assert np.allclose(eta, eta.conj().T)
            assert abs(np.linalg.det(eta)) > 1e-12


class TestPseudoHermiticity:
    def test_every_family_sample_is_pseudo_hermitian(self):
        rng = np.random.default_rng(100)
        for fam in ALL_FAMILIES:
            eta = p2.metric_of(fam).eta
            for _ in range(100):
                m = p2.family_matrix(fam, **p2.sample_params(fam, 1.3, 1, rng))[0]
                assert p2.pseudo_hermiticity_residual(m, eta) <= 1e-14

    def test_hermitian_with_identity_metric(self):
        m = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, -0.5]])
        assert p2.pseudo_hermiticity_residual(m, np.eye(2)) == 0.0

    def test_nilpotent_negative_control(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert p2.pseudo_hermiticity_residual(m, np.eye(2)) == pytest.approx(1.0)

    def test_singular_metric_rejected(self):
        with pytest.raises(ValueError):
            p2.pseudo_hermiticity_residual(np.eye(2), np.ones((2, 2)))


class TestEigenvalues2:
    def test_identity(self):
        assert p2.eigenvalues2(np.eye(2)) == (1.0 + 0j, 1.0 + 0j)

    def test_f1_closed_form_and_char_poly_oracle(self):
        fam = Family2x2(FamilyTag.F1_ANTIDIAG_IMAG)
        m = p2.family_matrix(fam, a=1.0, b=1.0, c=4.0)
        ep, em = p2.eigenvalues2(m)
        assert ep == pytest.approx(3.0)
        assert em == pytest.approx(-1.0)
        r1, r2 = oracles.char_poly_eigs_2x2(m)
        assert oracles.multiset_distance([ep, em], [r1, r2]) < 1e-12

    def test_trace_det_identities(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            ep, em = p2.eigenvalues2(m)
            tr = m[0, 0] + m[1, 1]
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            assert abs(ep + em - tr) <= 1e-12 * max(1.0, abs(tr))
            assert abs(ep * em - det) <= 1e-12 * max(1.0, abs(det))

    def test_f1_reality_split_on_bc_sign(self):
        fam = Family2x2(FamilyTag.F1_ANTIDIAG_IMAG)
        ep, em = p2.eigenvalues2(p2.family_matrix(fam, a=0.3, b=1.0, c=2.0))
        assert ep.imag == 0 and em.imag == 0
        ep, em = p2.eigenvalues2(p2.family_matrix(fam, a=0.3, b=1.0, c=-2.0))
        assert ep.imag != 0 and ep == em.conjugate()

    def test_f3_eigenvalues_independent_of_epsilon(self):
        # off-diagonal rescaling keeps trace and determinant, so the spectrum
        # matches the epsilon = 1 (Hermitian) case
        hermitian = p2.eigenvalues2(
            p2.family_matrix(Family2x2(FamilyTag.F3_EPSILON_SCALED), a=0.4, b=-0.9, c=1.1)
        )
        for eps in (0.5, 2.0, 7.0):
            fam = Family2x2(FamilyTag.F3_EPSILON_SCALED, epsilon=eps)
            scaled = p2.eigenvalues2(p2.family_matrix(fam, a=0.4, b=-0.9, c=1.1))
            assert oracles.multiset_distance(hermitian, scaled) < 1e-12


class TestBatched:
    """Stacks of parameters give stacks of matrices and eigenvalues equal,
    byte for byte, to the per-matrix calls."""

    @pytest.mark.parametrize("tag", list(FamilyTag), ids=lambda tag: tag.value)
    def test_stack_equals_per_matrix_calls(self, tag):
        fam = Family2x2(tag, epsilon=0.37)  # epsilon enters f3 only
        draws = p2.sample_params(fam, 1.3, 500, np.random.default_rng(9))
        stack = p2.family_matrix(fam, **draws)
        ep, em = p2.eigenvalues2(stack)
        assert stack.shape == (500, 2, 2) and ep.shape == em.shape == (500,)
        for i in range(500):
            m = p2.family_matrix(fam, **{k: v[i] for k, v in draws.items()})
            assert m.tobytes() == stack[i].tobytes()
            single = np.array(p2.eigenvalues2(m))
            assert single.tobytes() == np.array([ep[i], em[i]]).tobytes()

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            p2.eigenvalues2(np.zeros((4, 3, 2)))

    @pytest.mark.parametrize("tag", list(FamilyTag), ids=lambda tag: tag.value)
    @pytest.mark.parametrize("power", [-560, -900, 600])
    def test_scaling_by_a_power_of_two_is_exact(self, tag, power):
        # the discriminant's products would underflow (2^-560, 2^-900) or
        # overflow (2^600); each matrix is solved at the scale of its largest
        # entry, so the eigenvalues scale exactly
        fam = Family2x2(tag, epsilon=0.37)
        stack = p2.family_matrix(fam, **p2.sample_params(fam, 1.3, 200, np.random.default_rng(4)))
        scaled = p2.eigenvalues2(np.ldexp(stack.real, power) + 1j * np.ldexp(stack.imag, power))
        for got, want in zip(scaled, p2.eigenvalues2(stack)):
            assert got.real.tobytes() == np.ldexp(want.real, power).tobytes()
            assert got.imag.tobytes() == np.ldexp(want.imag, power).tobytes()


    def test_stack_within_range_is_not_copied_to_scale(self):
        # the Fourier stack of 5000 x 25 Gaussian blocks is inside the
        # unscaled range, so no scaled copy of it is held beside the input
        blocks = blockcirc.sample_gaussian_blocks(25, 5000, np.random.default_rng(0))
        stack = 25 * np.fft.ifft(blocks, axis=1)
        tracemalloc.start()
        try:
            p2.eigenvalues2(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stack.nbytes  # 0.75 unscaled and in place, 1.94 with the copy

    def test_unscaled_range_changes_no_bit(self):
        # nonzero parts spread over the whole unscaled range, with exact and
        # near cancellations; one matrix outside the range sends the same
        # matrices through the scaled path, and every bit must agree
        rng = np.random.default_rng(11)
        parts = np.ldexp(
            rng.uniform(1.0, 2.0, (4000, 8)) * rng.choice([-1.0, 1.0], (4000, 8)),
            rng.integers(-200, 200, (4000, 8)),
        )
        parts[rng.random((4000, 8)) < 0.2] = 0.0
        parts[:1000, 6:] = parts[:1000, :2]  # equal diagonal entries
        parts[1000:2000, 6] = -parts[1000:2000, 0] * (1.0 + 2.0**-52)  # cancelling trace
        parts[2000:3000, 2:4] = parts[2000:3000, 4:6]  # symmetric
        stack = parts.view(complex).reshape(4000, 2, 2)
        outlier = np.array([[[1.0, 2.0**-700], [3.0, 4.0]]], dtype=complex)
        scaled = p2.eigenvalues2(np.concatenate([stack, outlier]))
        for got, want in zip(p2.eigenvalues2(stack), scaled):
            assert got.tobytes() == want[:-1].tobytes()


class TestSampling:
    def test_f1_zero_params_is_zero_matrix(self):
        m = p2.family_matrix(Family2x2(FamilyTag.F1_ANTIDIAG_IMAG), a=0.0, b=0.0, c=0.0)
        assert np.array_equal(m, np.zeros((2, 2)))

    def test_f1_structure(self):
        rng = np.random.default_rng(42)
        fam = Family2x2(FamilyTag.F1_ANTIDIAG_IMAG)
        m = p2.family_matrix(fam, **p2.sample_params(fam, 1.0, 1, rng))[0]
        assert m[0, 0] == m[1, 1]
        assert m[0, 0].imag == 0
        assert m[0, 1].real == 0 and m[1, 0].real == 0

    def test_f1_mean_of_a(self):
        rng = np.random.default_rng(7)
        sigma = 1.0
        n = 1_000_000
        draws = p2.sample_params(Family2x2(FamilyTag.F1_ANTIDIAG_IMAG), sigma, n, rng)
        assert abs(draws["a"].mean()) < 3.0 * sigma / math.sqrt(2 * n)

    def test_parameter_variances_match_matrix_weight(self):
        # sampled variances against the widths derived from tr(H^dag H)
        rng = np.random.default_rng(8)
        sigma = 1.7
        n = 200_000
        for fam in ALL_FAMILIES:
            widths = p2.param_sigmas(fam, sigma)
            draws = p2.sample_params(fam, sigma, n, rng)
            for name, w in widths.items():
                assert draws[name].std() == pytest.approx(w, rel=0.02), (fam.tag, name)

    def test_weight_exponent_is_isotropic(self):
        # tr(H^dag H) restated in the sampled parameters must be the sum of
        # param^2 / width^2: draws of equal weight-exponent are equally likely
        rng = np.random.default_rng(9)
        sigma = 0.9
        for fam in ALL_FAMILIES:
            widths = p2.param_sigmas(fam, sigma)
            draws = p2.sample_params(fam, sigma, 50, rng)
            for i in range(50):
                m = p2.family_matrix(fam, **{k: draws[k][i] for k in draws})
                trhh = float(np.sum(np.abs(m) ** 2))
                quad = sum(
                    (draws[k][i] / widths[k]) ** 2 for k in widths
                )
                assert trhh / (sigma * sigma) == pytest.approx(quad, rel=1e-10)

    @pytest.mark.parametrize("epsilon", [1.0, 2.0, 0.5, 0.3])
    @pytest.mark.parametrize("tag", list(FamilyTag), ids=lambda tag: tag.value)
    def test_derived_widths_match_the_written_out_weight(self, tag, epsilon):
        # the widths param_sigmas derives from each form, against tr(H^dag H)
        # written out by hand; at epsilon = 0.3 the derived f3 c width forms
        # e^2 + (1/e)^2, not e^2 + 1/e^2, and may differ by one ulp
        fam = Family2x2(tag, epsilon=epsilon)
        for sigma in (1.0, 1.7, 0.9, 1e-100, 3e150):
            half = sigma / math.sqrt(2.0)
            scaled = sigma / math.sqrt(epsilon * epsilon + 1.0 / (epsilon * epsilon))
            want = {
                FamilyTag.F1_ANTIDIAG_IMAG: {"a": half, "b": sigma, "c": sigma},
                FamilyTag.F2_DIAG_PARITY: {"a": half, "b": half, "c": half},
                FamilyTag.F3_EPSILON_SCALED: {"a": sigma, "b": sigma, "c": scaled},
                FamilyTag.F4_COMPLEX_DIAG: {"a": half, "b": half, "c": sigma, "d": sigma},
                FamilyTag.F5_INDEFINITE: {"a": half, "b": half, "c": half, "d": half},
            }[tag]
            got = p2.param_sigmas(fam, sigma)
            assert list(got) == list(want)  # the names in draw order
            for name, w in want.items():
                if epsilon == 0.3 and tag is FamilyTag.F3_EPSILON_SCALED and name == "c":
                    assert abs(got[name] - w) <= math.ulp(w), (sigma, got[name], w)
                else:
                    assert got[name] == w, (sigma, name, got[name], w)

    @pytest.mark.parametrize("tag", ["f1", None])
    def test_tag_must_be_a_family_tag(self, tag):
        with pytest.raises(ValueError, match="FamilyTag"):
            Family2x2(tag)

    def test_bad_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            p2.sample_params(ALL_FAMILIES[0], 0.0, 5, rng)
        with pytest.raises(ValueError):
            p2.sample_params(ALL_FAMILIES[0], 1.0, 0, rng)
        with pytest.raises(ValueError):
            Family2x2(FamilyTag.F3_EPSILON_SCALED, epsilon=-1.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -1.0, 1e-200, 1e200])
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        with pytest.raises(ValueError):
            Family2x2(FamilyTag.F3_EPSILON_SCALED, epsilon=epsilon)

    @pytest.mark.parametrize(
        "params, named",
        [
            ({"a": 1.0, "b": 1.0, "c": 1.0, "d": 5.0}, "extra d, missing none"),
            ({"a": 1.0, "b": 1.0}, "extra none, missing c"),
        ],
        ids=["extra", "missing"],
    )
    def test_family_matrix_rejects_other_and_missing_names(self, params, named):
        # another family's record must not build a matrix that drops a name
        with pytest.raises(ValueError) as err:
            p2.family_matrix(Family2x2(FamilyTag.F1_ANTIDIAG_IMAG), **params)
        msg = str(err.value)
        assert "\n" not in msg and msg.startswith("f1 takes parameters a, b, c") and named in msg


def _family_spacings(fam, sigma, count, seed):
    """|E+ - E-| of ``count`` draws through the sampler, the form and the
    closed-form eigensolve."""
    draws = p2.sample_params(fam, sigma, count, np.random.default_rng(seed))
    e1, e2 = p2.eigenvalues2(p2.family_matrix(fam, **draws))
    return np.abs(e1 - e2)


class TestFamilyLaws:
    """The widths checked end to end: the spacings of the sampled forms
    against each family's law, at the 95 % KS critical value.  Scaling one
    width that enters the spacing (f2's b or c, any of f3's, the last of f4's
    or f5's) by 1.05 fails each of these."""

    N = 400_000

    def test_f2_spacing_is_the_f1_law(self):
        # eigenvalues a +- sqrt(c^2 - b^2); c - b and c + b are independent
        # N(0, sigma^2), so |E+ - E-| = 2 sqrt(|(c - b)(c + b)|) follows f1's
        # K0 law at the same sigma, on both sectors
        sigma = 1.3
        fam = Family2x2(FamilyTag.F2_DIAG_PARITY)
        spacings = np.sort(_family_spacings(fam, sigma, self.N, 31))
        critical = 1.358 / math.sqrt(self.N)
        rep = stats.ks_statistic(spacings, lambda s: p2.spacing_cdf_f1(s, sigma), critical)
        assert rep.passed, rep.ks_distance

    @pytest.mark.parametrize("epsilon", [1.0, 0.3])
    def test_f3_spacing_is_the_norm_of_two_gaussians(self, epsilon):
        # always real, with spacing sqrt((a - b)^2 + 4 c^2): a - b is
        # N(0, 2 sigma^2) and 2 c is N(0, 4 sigma^2 / (e^2 + e^-2))
        sigma = 1.0
        fam = Family2x2(FamilyTag.F3_EPSILON_SCALED, epsilon=epsilon)
        spacings = _family_spacings(fam, sigma, self.N, 34)
        rng = np.random.default_rng(35)
        x = rng.normal(0.0, math.sqrt(2.0) * sigma, self.N)
        y = rng.normal(0.0, 2.0 * sigma / math.sqrt(epsilon**2 + epsilon**-2), self.N)
        critical = 1.358 * math.sqrt(2.0 / self.N)
        assert stats.ks_two_sample(spacings, np.hypot(x, y)) < critical


    @pytest.mark.parametrize(
        "tag, sigma, seed",
        [(FamilyTag.F4_COMPLEX_DIAG, 1.0, 36), (FamilyTag.F5_INDEFINITE, 1.3, 38)],
        ids=["f4", "f5"],
    )
    def test_f4_f5_spacing_is_a_gaussian_quadratic_form(self, tag, sigma, seed):
        # f4: a +- sqrt(c d - b^2), where c d = ((c + d)^2 - (c - d)^2) / 4
        # with (c +- d) / sqrt(2) iid N(0, sigma^2) and b^2 = (sqrt(2) b)^2 / 2;
        # f5: a +- sqrt(b^2 - c^2 - d^2) with b, c, d iid N(0, sigma^2 / 2).
        # Either way |E+ - E-| = sqrt(2 |p^2 - q^2 - r^2|), p, q, r iid
        # N(0, sigma^2)
        spacings = _family_spacings(Family2x2(tag), sigma, self.N, seed)
        p, q, r = np.random.default_rng(seed + 1).normal(0.0, sigma, (3, self.N))
        critical = 1.358 * math.sqrt(2.0 / self.N)
        assert stats.ks_two_sample(spacings, np.sqrt(2.0 * np.abs(p * p - q * q - r * r))) < critical


class TestDiagonalizers:
    def test_f1_diagonalizer_diagonalizes(self):
        fam = Family2x2(FamilyTag.F1_ANTIDIAG_IMAG)
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, c = rng.normal(size=3)
            if b * c <= 1e-3:
                continue
            m = p2.family_matrix(fam, a=a, b=b, c=c)
            d = p2.diagonalizer(fam, r=math.sqrt(c / b))
            transformed = np.linalg.inv(d) @ m @ d
            off = max(abs(transformed[0, 1]), abs(transformed[1, 0]))
            assert off <= 1e-10 * max(1.0, np.max(np.abs(transformed)))

    def test_conjugation_preserves_spectrum_all_families(self):
        # any invertible reference form must keep trace, determinant and the
        # closed-form eigenvalues
        rng = np.random.default_rng(12)
        kwargs = {
            FamilyTag.F1_ANTIDIAG_IMAG: {"r": 1.7},
            FamilyTag.F2_DIAG_PARITY: {"theta": 0.3},
            FamilyTag.F3_EPSILON_SCALED: {"theta": 0.4},
            FamilyTag.F4_COMPLEX_DIAG: {"r": 0.8, "theta": 0.6},
            FamilyTag.F5_INDEFINITE: {"theta": 0.5},
        }
        for fam in ALL_FAMILIES:
            d = p2.diagonalizer(fam, **kwargs[fam.tag])
            assert abs(np.linalg.det(d)) > 1e-9
            m = p2.family_matrix(fam, **p2.sample_params(fam, 1.0, 1, rng))[0]
            conj = np.linalg.inv(d) @ m @ d
            before = p2.eigenvalues2(m)
            after = p2.eigenvalues2(conj)
            assert oracles.multiset_distance(before, after) < 1e-10

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            p2.diagonalizer(Family2x2(FamilyTag.F1_ANTIDIAG_IMAG))
        with pytest.raises(ValueError):
            p2.diagonalizer(Family2x2(FamilyTag.F2_DIAG_PARITY), theta=1.0)


class TestF1SpacingLaw:
    def test_pdf_at_zero(self):
        assert p2.spacing_pdf_f1(0.0, 1.0) == 0.0
        assert p2.spacing_pdf_f1(0.0, 0.3) == 0.0

    def test_pdf_array_input(self):
        s = np.array([[0.0, 1e-6, 0.5, 2.0], [2.9, 10.0, 53.0, 60.0]])  # K0 switches at s = 2 sqrt(2)
        got = p2.spacing_pdf_f1(s, 1.0)
        assert got.shape == s.shape
        assert got.ravel().tolist() == [p2.spacing_pdf_f1(float(v), 1.0) for v in s.ravel()]
        want = np.array([oracles.f1_density(float(v)) for v in s.ravel()])
        np.testing.assert_allclose(got.ravel(), want, rtol=1e-14, atol=0.0)
        assert isinstance(p2.spacing_pdf_f1(1.0, 1.0), float)
        with pytest.raises(ValueError, match="nonnegative"):
            p2.spacing_pdf_f1(np.array([0.5, -1e-3, 2.0]), 1.0)

    def test_pdf_normalization(self):
        val, _ = integrate.quad(lambda s: p2.spacing_pdf_f1(s, 1.0), 0.0, 60.0, limit=300)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_pdf_below_normal_k0_argument(self):
        # s^2/4 underflows to 0 here; (s/pi) K0(s^2/4) by 30-digit mpmath
        want = 2.4967627696686507869617781026e-168
        assert p2.spacing_pdf_f1(1e-170, 1.0) == pytest.approx(want, rel=1e-12)

    def test_pdf_value_composed_with_k0_oracle(self):
        assert p2.spacing_pdf_f1(1.0, 1.0) == pytest.approx(F1_PDF_AT_1, rel=1e-12)
        assert oracles.quad_k0(0.25) / math.pi == pytest.approx(F1_PDF_AT_1, rel=1e-12)

    def test_samples_match_two_eigenvalue_routes(self):
        # |E+ - E-| = 2 sqrt(|bc|) against the closed-form eigenvalue solver
        fam = Family2x2(FamilyTag.F1_ANTIDIAG_IMAG)
        rng = np.random.default_rng(21)
        for _ in range(100):
            a, b, c = rng.normal(size=3)
            ep, em = p2.eigenvalues2(p2.family_matrix(fam, a=a, b=b, c=c))
            assert abs(ep - em) == pytest.approx(2.0 * math.sqrt(abs(b * c)), rel=1e-10)

    def test_equal_offdiagonal_params_give_2b(self):
        fam = Family2x2(FamilyTag.F1_ANTIDIAG_IMAG)
        for b in (0.3, 1.4):
            ep, em = p2.eigenvalues2(p2.family_matrix(fam, a=0.9, b=b, c=b))
            assert abs(ep - em) == pytest.approx(2.0 * b, rel=1e-12)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            p2.spacing_samples_f1(0, 1.0, np.random.default_rng(0))

    def test_empirical_mean_matches_quadrature(self):
        rng = np.random.default_rng(22)
        draws = p2.spacing_samples_f1(1_000_000, 1.0, rng)
        assert draws.mean() == pytest.approx(F1_MEAN_SPACING, rel=0.01)

    def test_mean_oracle_still_agrees(self):
        val, _ = integrate.quad(
            lambda s: s * p2.spacing_pdf_f1(s, 1.0), 0.0, 60.0, limit=300
        )
        assert val == pytest.approx(F1_MEAN_SPACING, rel=1e-8)

    def test_sectors_are_complementary(self):
        # the result is 2 sqrt(bc) of exactly the real-sector draws, in draw
        # order; the conjugate sector (bc <= 0) is dropped
        draws = p2.spacing_samples_f1(10_000, 2.0, np.random.default_rng(23))
        params = p2.sample_params(
            Family2x2(FamilyTag.F1_ANTIDIAG_IMAG), 2.0, 10_000, np.random.default_rng(23)
        )
        bc = params["b"] * params["c"]
        real = bc > 0
        assert 0 < real.sum() < 10_000
        assert draws.tobytes() == (2.0 * np.sqrt(bc[real])).tobytes()

    def test_ks_against_law_quick(self):
        rng = np.random.default_rng(24)
        draws = p2.spacing_samples_f1(20_000, 1.0, rng)
        rep = stats.ks_statistic(np.sort(draws), p2.spacing_cdf_f1, 0.02)
        assert rep.passed, rep.ks_distance

    def test_small_spacing_log_repulsion(self):
        # P(S) ~ (2/pi) S ln(1/S) (1 + (ln 8 - gamma_E)/(2 ln(1/S))): the
        # ratio to S ln(1/S) decreases monotonically toward 2/pi, and pulling
        # out the first-order log correction pins the constant tightly
        from phrmt.specfun import EULER_GAMMA

        spacings = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
        ratios = [
            p2.spacing_pdf_f1(s, 1.0) / (s * math.log(1.0 / s)) for s in spacings
        ]
        assert all(r > rn > 2.0 / math.pi for r, rn in zip(ratios, ratios[1:]))
        for s, r in zip(spacings, ratios):
            corrected = r / (1.0 + (math.log(8.0) - EULER_GAMMA) / (2.0 * math.log(1.0 / s)))
            assert corrected == pytest.approx(2.0 / math.pi, rel=2e-3)
