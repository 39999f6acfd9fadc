import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from phrmt import specfun

# Frozen oracle values.  Each constant was produced by the matching routine
# in tests/oracles.py; the *_oracle_still_agrees tests guard the freeze.
K0_AT_1 = 0.42102443824070834  # quad_k0(1.0)
I0_AT_1 = 1.2660658777520084  # series_i0(1.0)
ERF_SQRTPI_HALF = 0.7899085945560628  # series_erf(sqrt(pi)/2)
GAMMA_32_PI4 = 0.29597361997538313  # quad_lower_gamma(1.5, pi/4)
HYP_CONST = 1.311123534366887  # rational_2f1(3/4, 5/4, 1, 1/4)


class TestBesselK0:
    def test_frozen_value(self):
        assert specfun.bessel_k0(1.0) == pytest.approx(K0_AT_1, rel=1e-12)

    def test_oracle_still_agrees(self):
        assert oracles.quad_k0(1.0) == pytest.approx(K0_AT_1, rel=1e-12)

    def test_small_argument_log_limit(self):
        # K0(x) + ln(x/2) + gamma_E -> 0 like x^2 ln x
        for x in (1e-4, 1e-6, 1e-8):
            drift = specfun.bessel_k0(x) + math.log(x / 2.0) + specfun.EULER_GAMMA
            assert abs(drift) < 10.0 * x * x * abs(math.log(x))

    def test_exponential_tail(self):
        assert specfun.bessel_k0(50.0) < 1e-20

    def test_against_quadrature_grid(self):
        for x in np.logspace(-8, math.log10(50.0), 100):
            mine = specfun.bessel_k0(float(x))
            ref = oracles.quad_k0(float(x))
            assert mine == pytest.approx(ref, rel=1e-12), f"x={x}"

    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.bessel_k0(0.0)
        with pytest.raises(ValueError):
            specfun.bessel_k0(-1.0)


class TestBesselI0:
    def test_at_zero(self):
        assert specfun.bessel_i0(0.0) == 1.0

    def test_frozen_value(self):
        assert specfun.bessel_i0(1.0) == pytest.approx(I0_AT_1, rel=1e-13)

    def test_oracle_still_agrees(self):
        assert oracles.series_i0(1.0) == pytest.approx(I0_AT_1, rel=1e-14)

    def test_against_series_grid(self):
        for x in np.concatenate([[0.0], np.logspace(-8, math.log10(50.0), 100)]):
            assert specfun.bessel_i0(float(x)) == pytest.approx(
                oracles.series_i0(float(x)), rel=1e-12
            )

    @given(st.floats(min_value=0.0, max_value=50.0))
    def test_at_least_one(self, x):
        assert specfun.bessel_i0(x) >= 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.bessel_i0(-0.5)


class TestErf:
    def test_at_zero(self):
        assert specfun.erf(0.0) == 0.0

    @given(st.floats(min_value=-6.0, max_value=6.0))
    def test_odd(self, x):
        assert specfun.erf(-x) == -specfun.erf(x)

    def test_frozen_value(self):
        assert specfun.erf(math.sqrt(math.pi) / 2.0) == pytest.approx(
            ERF_SQRTPI_HALF, rel=1e-13
        )

    def test_oracle_still_agrees(self):
        assert oracles.series_erf(math.sqrt(math.pi) / 2.0) == pytest.approx(
            ERF_SQRTPI_HALF, rel=1e-14
        )

    def test_against_series_grid(self):
        # the float series oracle is trustworthy up to moderate |x|
        for x in np.linspace(1e-8, 3.0, 80):
            assert specfun.erf(float(x)) == pytest.approx(
                oracles.series_erf(float(x)), rel=1e-12
            )

    def test_tail_and_cf_branch(self):
        # continued-fraction branch: cross-check against the stdlib
        for x in (2.1, 3.0, 4.5, 6.0):
            assert specfun.erf(x) == pytest.approx(math.erf(x), rel=1e-13)
        assert specfun.erf(10.0) == pytest.approx(1.0, abs=1e-15)

    def test_infinity_and_nan(self):
        assert specfun.erf(math.inf) == 1.0
        assert specfun.erf(-math.inf) == -1.0
        assert math.isnan(specfun.erf(math.nan))
        got = specfun.erf(np.array([math.inf, -math.inf, math.nan, 0.5, 3.0]))
        assert got[:2].tolist() == [1.0, -1.0] and math.isnan(got[2])
        assert got[3:].tobytes() == specfun.erf(np.array([0.5, 3.0])).tobytes()

    def test_non_finite_input_returns_at_once(self):
        # the continued fraction never converges on them: 10,000 iterations,
        # about 3.5 ms, per value if it were run
        x = np.tile([math.inf, -math.inf, math.nan], 500)
        t0 = time.perf_counter()
        specfun.erf(x)
        assert time.perf_counter() - t0 < 0.5


class TestErfArray:
    """The array form must equal scalar calls and the scalar series loop."""

    X = np.array(
        [0.0, -0.0, 1e-300, -1e-300, 1e-8, 0.3, -0.3, 1.0, math.sqrt(math.pi) / 2.0,
         np.nextafter(2.0, 0.0), 2.0, -2.0, np.nextafter(2.0, 3.0), 2.5, -3.0, 6.0, -10.0]
    )

    def test_matches_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([self.X, rng.normal(0.0, 1.5, 2000)])
        got = specfun.erf(x)
        want = np.array([specfun.erf(float(v)) for v in x])
        assert got.tobytes() == want.tobytes()
        assert not np.any(np.signbit(got[:2]))  # erf(-0.0) is +0.0, as before

    def test_series_branch_matches_scalar_loop(self):
        # inside |x| <= 2 each element stops at its own term, as the loop does
        x = np.concatenate([self.X[np.abs(self.X) <= 2.0], np.linspace(-2.0, 2.0, 401)])
        want = np.array([oracles.scalar_loop_erf(float(v)) for v in x])
        assert specfun.erf(x).tobytes() == want.tobytes()

    def test_shape_and_scalar_type(self):
        assert isinstance(specfun.erf(0.5), float)
        assert isinstance(specfun.erf(np.float64(3.0)), float)
        assert specfun.erf(np.zeros((2, 0))).shape == (2, 0)
        grid = specfun.erf(self.X.reshape(1, -1))
        assert grid.shape == (1, self.X.size)
        assert grid.ravel().tobytes() == specfun.erf(self.X).tobytes()


class TestErfTail:
    """The continued-fraction tail runs on the whole array, each element
    stopping at its own term."""

    def test_matches_scalar_fraction_within_one_ulp(self):
        # np.exp and math.exp may round exp(-x^2) apart by one ulp, which
        # moves erf by at most one ulp; 2.372895307660252 is such a point
        rng = np.random.default_rng(11)
        x = np.concatenate(
            [[np.nextafter(2.0, 3.0), 2.372895307660252, 6.0, 40.0], rng.uniform(2.0, 40.0, 20_000)]
        )
        want = np.array([oracles.erf_cf(float(v)) for v in x])
        got = specfun.erf(x)
        assert np.all(np.abs(got - want) <= np.spacing(want))
        assert np.all(specfun.erf(-x) == -got)


class TestBesselArrays:
    """Array I0 and K0 against their scalar loops, element for element, and
    against scipy."""

    # both sides of the K0 series/fraction switch at 2, the switch of the
    # scaled I0 in the rc law at 600 and the K0 underflow at 705
    EDGES = np.concatenate(
        [[np.nextafter(b, 0.0), b, np.nextafter(b, np.inf)] for b in (2.0, 600.0, 705.0)]
    )
    X = np.concatenate([EDGES, [1e-300, 1e-8, 0.3, 1.0, 7.5, 50.0, 300.0], np.logspace(-6, 2.8, 300)])

    def test_i0_matches_scalar_loop_bit_for_bit(self):
        x = np.concatenate([[0.0], self.X])
        want = np.array([oracles.scalar_loop_i0(float(v)) for v in x])
        assert specfun.bessel_i0(x).tobytes() == want.tobytes()

    def test_k0_matches_scalar_loop(self):
        # only np.log and np.exp against math.log and math.exp differ, by an
        # ulp, which the cancellation in the x <= 2 series amplifies
        want = np.array([oracles.scalar_loop_k0(float(v)) for v in self.X])
        got = specfun.bessel_k0(self.X)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        assert got[self.X > 705.0].tolist() == [0.0]

    def test_against_scipy(self):
        special = pytest.importorskip("scipy.special")
        x = self.X[self.X <= 700.0]  # K0 is subnormal from about 704
        np.testing.assert_allclose(specfun.bessel_i0(x), special.i0(x), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(specfun.bessel_k0(x), special.k0(x), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("fn", [specfun.bessel_i0, specfun.bessel_k0], ids=["i0", "k0"])
    def test_shape_and_scalar_type(self, fn):
        assert isinstance(fn(1.5), float)
        assert isinstance(fn(np.float64(3.0)), float)
        assert fn(np.ones((2, 0))).shape == (2, 0)
        grid = fn(self.X[:12].reshape(3, 4))
        assert grid.shape == (3, 4)
        assert grid.ravel().tolist() == [fn(float(v)) for v in self.X[:12]]

    @pytest.mark.parametrize(
        "fn, bad", [(specfun.bessel_i0, -0.5), (specfun.bessel_k0, 0.0), (specfun.bessel_k0, -1.0)]
    )
    def test_one_bad_element_raises(self, fn, bad):
        with pytest.raises(ValueError, match=f"got {bad}"):
            fn(np.array([[1.0, 2.0], [bad, 3.0]]))

    def test_non_finite_input_returns_at_once(self):
        x = np.tile([math.inf, math.nan], 500)
        t0 = time.perf_counter()
        i0 = specfun.bessel_i0(x)
        k0 = specfun.bessel_k0(x)
        assert time.perf_counter() - t0 < 0.5
        assert i0[0] == math.inf and k0[0] == 0.0
        assert np.isnan(i0[1]) and np.isnan(k0[1])


class TestLowerIncompleteGamma:
    def test_a_one_closed_form(self):
        for z in np.linspace(0.0, 10.0, 41):
            assert specfun.lower_incomplete_gamma(1.0, float(z)) == pytest.approx(
                -math.expm1(-float(z)), abs=1e-13
            )

    def test_empty_integral(self):
        assert specfun.lower_incomplete_gamma(2.5, 0.0) == 0.0

    def test_frozen_value(self):
        assert specfun.lower_incomplete_gamma(1.5, math.pi / 4.0) == pytest.approx(
            GAMMA_32_PI4, rel=1e-12
        )

    def test_oracle_still_agrees(self):
        assert oracles.quad_lower_gamma(1.5, math.pi / 4.0) == pytest.approx(
            GAMMA_32_PI4, rel=1e-12
        )

    def test_sum_rule_with_quadrature_remainder(self):
        # gamma(a, z) + upper remainder = Gamma(a)
        for a in (0.5, 1.0, 1.5, 2.5):
            total = math.gamma(a)
            for z in np.linspace(0.0, 10.0, 11):
                lower = specfun.lower_incomplete_gamma(a, float(z))
                upper = oracles.quad_upper_gamma(a, float(z))
                assert lower + upper == pytest.approx(total, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.lower_incomplete_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            specfun.lower_incomplete_gamma(-1.0, 1.0)
        with pytest.raises(ValueError):
            specfun.lower_incomplete_gamma(1.0, -0.1)


class TestHyp2f1:
    def test_at_zero(self):
        assert specfun.hyp2f1_series(0.3, 1.7, 0.9, 0.0) == 1.0

    def test_log_closed_form(self):
        # 2F1(1, 1; 2; z) = -ln(1-z)/z
        z = 0.5
        assert specfun.hyp2f1_series(1.0, 1.0, 2.0, z) == pytest.approx(
            -math.log(1.0 - z) / z, rel=1e-14
        )

    def test_frozen_constant(self):
        assert specfun.hyp2f1_series(0.75, 1.25, 1.0, 0.25) == pytest.approx(
            HYP_CONST, rel=1e-14
        )

    def test_oracle_still_agrees(self):
        val = oracles.rational_2f1(
            Fraction(3, 4), Fraction(5, 4), Fraction(1), Fraction(1, 4), terms=50
        )
        assert val == pytest.approx(HYP_CONST, rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.hyp2f1_series(0.5, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            specfun.hyp2f1_series(0.5, 0.5, -2.0, 0.3)


class TestDft:
    """``fourier``: the unnormalized positive-exponent transform."""

    def test_delta_to_constant(self):
        v = np.zeros(8)
        v[0] = 1.0
        assert np.allclose(specfun.fourier(v), np.ones(8), atol=1e-14)

    def test_constant_to_delta(self):
        n = 7
        out = specfun.fourier(np.full(n, 3.5))
        assert out[0] == pytest.approx(n * 3.5)
        assert np.max(np.abs(out[1:])) < 1e-12

    def test_1_2_3_per_term_oracle(self):
        out = specfun.fourier([1.0, 2.0, 3.0])
        ref = oracles.dft_per_term([1.0, 2.0, 3.0])
        assert np.max(np.abs(out - ref)) < 1e-13
        assert out[0] == pytest.approx(6.0)
        assert out[1] == pytest.approx(-1.5 - 1j * math.sqrt(3) / 2)

    @pytest.mark.parametrize("n", [1, 3, 7, 22, 64, 97, 100, 128])
    def test_per_term_oracle(self, n):
        rng = np.random.default_rng(n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        ref = oracles.dft_per_term(v)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(specfun.fourier(v) - ref)) < 1e-12 * scale

    @pytest.mark.parametrize("n", [1, 3, 7, 22, 64, 97, 100, 128])
    def test_batched_along_an_axis(self, n):
        # rows along the last axis, and a stack of 2x2 blocks along its
        # block axis, moved last and back
        rng = np.random.default_rng(1000 + n)
        rows = rng.normal(size=(3, n))
        blocks = rng.normal(size=(2, n, 2, 2)) + 1j * rng.normal(size=(2, n, 2, 2))
        got_rows = specfun.fourier(rows)
        got_blocks = np.moveaxis(specfun.fourier(np.moveaxis(blocks, 1, -1)), -1, 1)
        for r in range(3):
            ref = oracles.dft_per_term(rows[r])
            assert np.max(np.abs(got_rows[r] - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))
        for c in range(2):
            for i in range(2):
                for j in range(2):
                    ref = oracles.dft_per_term(blocks[c, :, i, j])
                    err = np.max(np.abs(got_blocks[c, :, i, j] - ref))
                    assert err < 1e-12 * max(1.0, np.max(np.abs(ref)))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=24
        )
    )
    def test_real_input_conjugate_symmetry(self, vals):
        out = specfun.fourier(np.array(vals))
        n = len(vals)
        scale = max(1.0, float(np.max(np.abs(out))))
        for l in range(1, n):
            assert abs(out[l] - np.conj(out[(n - l) % n])) < 1e-12 * scale

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=24
        )
    )
    def test_parseval(self, vals):
        v = np.array(vals)
        out = specfun.fourier(v)
        lhs = float(np.sum(np.abs(out) ** 2))
        rhs = v.size * float(np.sum(v * v))
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-9)

    def test_against_numpy_fft(self):
        # the positive-exponent sum is the forward FFT read at -l mod n
        rng = np.random.default_rng(7)
        for n in (3, 22, 64, 100, 129):
            v = rng.normal(size=n)
            assert np.allclose(specfun.fourier(v), np.fft.fft(v)[-np.arange(n) % n], atol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            specfun.fourier(np.array([]))
        with pytest.raises(ValueError):
            specfun.fourier(np.zeros((2, 2, 2, 0)))
