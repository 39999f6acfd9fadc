import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from phrmt import circulant, stats
from phrmt.circulant import SpacingSample


class TestHistogram:
    def test_empty_sample(self):
        h = stats.histogram([], [0.0, 1.0, 2.0])
        assert h.counts.tolist() == [0, 0]
        assert h.total == 0

    def test_single_bin_holds_all(self):
        h = stats.histogram([0.5, 0.6, 0.7], [0.0, 1.0, 2.0])
        assert h.counts.tolist() == [3, 0]

    def test_boundary_conventions(self):
        edges = [0.0, 1.0, 2.0]
        assert stats.histogram([0.0], edges).counts.tolist() == [1, 0]  # first edge in bin 1
        assert stats.histogram([1.0], edges).counts.tolist() == [0, 1]  # half-open bins
        h = stats.histogram([2.0], edges)  # last edge is out of range
        assert h.counts.tolist() == [0, 0]
        assert h.n_out == 1

    def test_out_of_range_counted(self):
        h = stats.histogram([-1.0, 0.5, 9.0], [0.0, 1.0])
        assert h.counts.tolist() == [1]
        assert h.n_out == 2
        assert h.counts.sum() + h.n_out == h.total

    def test_density_integrates_to_in_range_fraction(self):
        rng = np.random.default_rng(1)
        sample = rng.normal(size=1000)
        h = stats.histogram(sample, np.linspace(-1.0, 1.0, 21))
        in_range = np.sum((sample >= -1.0) & (sample < 1.0)) / sample.size
        assert float(np.sum(h.densities() * h.widths)) == pytest.approx(in_range, abs=1e-12)

    def test_bad_edges(self):
        with pytest.raises(ValueError):
            stats.histogram([1.0], [0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            stats.histogram([1.0], [0.0])


class TestNormalizeUnitMean:
    def test_constant_sample(self):
        out = stats.normalize_unit_mean(SpacingSample("cc", np.array([2.0, 2.0, 2.0])))
        assert out.values.tolist() == [1.0, 1.0, 1.0]
        assert out.klass == "cc"

    def test_mean_exactly_one(self):
        rng = np.random.default_rng(3)
        out = stats.normalize_unit_mean(SpacingSample("rc", rng.random(1000) + 0.1))
        assert float(out.values.mean()) == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        s = SpacingSample("generic", rng.random(100) + 0.5)
        once = stats.normalize_unit_mean(s)
        twice = stats.normalize_unit_mean(once)
        assert np.allclose(once.values, twice.values, rtol=0, atol=1e-15)

    def test_errors(self):
        with pytest.raises(ValueError):
            stats.normalize_unit_mean(SpacingSample("cc", np.array([])))
        with pytest.raises(ValueError):
            stats.normalize_unit_mean(SpacingSample("cc", np.array([0.0, 0.0])))


class TestKsStatistic:
    def test_single_point_at_median(self):
        rep = stats.ks_statistic(np.array([0.0]), lambda x: np.full_like(x, 0.5))
        assert rep.ks_distance == pytest.approx(0.5)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            stats.ks_statistic(np.array([2.0, 1.0]), lambda x: x)

    def test_sample_from_the_cdf(self):
        rng = np.random.default_rng(11)
        n = 100_000
        x = np.sort(rng.random(n))
        rep = stats.ks_statistic(x, lambda v: v)
        assert rep.ks_distance < 1.63 / math.sqrt(n)

    def test_shifted_distribution_detected(self):
        rng = np.random.default_rng(12)
        x = np.sort(rng.random(10_000) + 0.2)
        rep = stats.ks_statistic(x, lambda v: np.clip(v, 0.0, 1.0))
        assert rep.ks_distance > 0.15

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=0.99),
            min_size=1,
            max_size=50,
        )
    )
    def test_invariant_under_monotone_transform(self, vals):
        x = np.sort(np.asarray(vals))
        base = stats.ks_statistic(x, lambda v: np.clip(v, 0, 1)).ks_distance
        # strictly monotone map applied to sample and pulled back in the cdf
        y = np.log1p(x)
        mapped = stats.ks_statistic(y, lambda v: np.clip(np.expm1(v), 0, 1)).ks_distance
        assert mapped == pytest.approx(base, abs=1e-12)

    def test_two_sample(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=20_000)
        b = rng.normal(size=20_000)
        assert stats.ks_two_sample(a, b) < 0.02
        assert stats.ks_two_sample(a, b + 1.0) > 0.3


class TestQuadratureAndCdfs:
    def test_adaptive_simpson_known_integrals(self):
        assert stats.adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-10)
        assert stats.adaptive_simpson(lambda t: math.exp(-t), 0.0, 50.0) == pytest.approx(
            1.0, rel=1e-10
        )

    def test_rc_cdf_matches_independent_quadrature(self):
        # grid nodes carry quadrature accuracy; between nodes the linear
        # interpolation contributes ~h^2 |pdf'| / 8 ~ 5e-6
        h = 12.0 / 2048.0
        for k in (40, 120, 340, 640):
            z = k * h
            ref, _ = integrate.quad(circulant.pdf_rc, 0.0, z, limit=200)
            assert float(stats.cdf_rc(z)) == pytest.approx(ref, abs=1e-9)
        for z in (0.25, 0.7, 1.0, 1.8, 3.0):
            ref, _ = integrate.quad(circulant.pdf_rc, 0.0, z, limit=200)
            assert float(stats.cdf_rc(z)) == pytest.approx(ref, abs=1e-5)

    def test_rc_cdf_limits_and_monotone(self):
        grid = np.linspace(0.0, 12.0, 500)
        vals = stats.cdf_rc(grid)
        assert vals[0] == 0.0
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(vals) >= 0)

    def test_cc_cdf_against_density(self):
        # numerical derivative of the CDF reproduces the density
        for z in (0.1, 0.5, 1.0, 2.0):
            h = 1e-6
            deriv = (stats.cdf_cc(z + h) - stats.cdf_cc(z - h)) / (2 * h)
            assert deriv == pytest.approx(circulant.pdf_cc(z), rel=1e-7)
        assert stats.cdf_cc(0.0) == 0.0

    def test_generic_cdf_closed_form(self):
        s = np.array([0.0, 0.5, 1.0, 4.0])
        expect = 1.0 - np.exp(-math.pi * s * s / 4.0)
        assert np.allclose(stats.cdf_generic(s), expect, atol=1e-15)

    def test_gof_report_roundtrip(self):
        rep = stats.ks_statistic(np.array([0.5]), lambda x: np.clip(x, 0, 1), 0.9, "demo")
        d = rep.to_dict()
        assert d["label"] == "demo" and d["passed"] and d["n"] == 1
