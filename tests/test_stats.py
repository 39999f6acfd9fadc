import dataclasses
import json
import math
import tracemalloc
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import oracles
from phrmt import circulant, pseudo2x2, stats
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
        sample = np.sort(rng.normal(size=1000))
        h = stats.histogram(sample, np.linspace(-1.0, 1.0, 21))
        in_range = np.sum((sample >= -1.0) & (sample < 1.0)) / sample.size
        assert float(np.sum(h.densities() * h.widths)) == pytest.approx(in_range, abs=1e-12)

    @pytest.mark.parametrize(
        "sample", [[0.5, 0.2], [0.1, math.nan, 0.2]], ids=["descent", "nan-not-last"]
    )
    def test_unsorted_rejected(self, sample):
        with pytest.raises(ValueError, match="sorted"):
            stats.histogram(sample, [0.0, 1.0])

    def test_nan_last_is_out_of_range(self):
        h = stats.histogram([0.5, math.nan, math.nan], [0.0, 1.0])
        assert h.counts.tolist() == [1]
        assert h.n_out == 2

    def test_bad_edges(self):
        with pytest.raises(ValueError):
            stats.histogram([1.0], [0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            stats.histogram([1.0], [0.0])

    @pytest.mark.parametrize(
        "edges",
        [[0.0, math.nan, 1.0], [math.nan, 1.0], [-math.inf, 0.5, math.inf], [0.0, 1.0, math.inf]],
        ids=["nan-inside", "nan-first", "both-infinite", "last-infinite"],
    )
    def test_non_finite_edges_rejected(self, edges):
        # a NaN edge fails no "diff <= 0" test, and an infinite bin has
        # density 0 for every value in it
        with pytest.raises(ValueError, match="finite"):
            stats.histogram([0.2, 0.5, 0.7], edges)


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
        # normalisation is in place, so copy the first result before the second
        first = stats.normalize_unit_mean(s).values.copy()
        twice = stats.normalize_unit_mean(s)
        assert np.allclose(first, twice.values, rtol=0, atol=1e-15)

    def test_in_place(self):
        s = SpacingSample("rc", np.array([1.0, 3.0]))
        expect = s.values / 2.0
        out = stats.normalize_unit_mean(s)
        assert out is s
        assert out.values.tobytes() == expect.tobytes()

    def test_errors(self):
        with pytest.raises(ValueError):
            stats.normalize_unit_mean(SpacingSample("cc", np.array([])))
        with pytest.raises(ValueError, match="nonpositive"):
            stats.normalize_unit_mean(SpacingSample("cc", np.array([0.0, 0.0])))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_mean_not_finite(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            stats.normalize_unit_mean(SpacingSample("cc", np.array([1.0, bad])))


class TestKsStatistic:
    def test_single_point_at_median(self):
        rep = stats.ks_statistic(np.array([0.0]), lambda x: np.full_like(x, 0.5))
        assert rep.ks_distance == pytest.approx(0.5)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            stats.ks_statistic(np.array([2.0, 1.0]), lambda x: x)

    @pytest.mark.parametrize("slice_", [2, 7])
    def test_descent_across_slice_boundary_rejected(self, monkeypatch, slice_):
        monkeypatch.setattr(circulant, "_STEP", slice_)
        x = np.arange(3.0 * slice_)
        # swap the last value of the first slice with the first of the next:
        # each slice is still ascending on its own
        x[slice_ - 1], x[slice_] = x[slice_], x[slice_ - 1]
        assert np.all(np.diff(x[:slice_]) > 0) and np.all(np.diff(x[slice_:]) > 0)
        with pytest.raises(ValueError, match="sorted"):
            stats.ks_statistic(x, lambda v: np.clip(v, 0.0, 1.0))

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


_EDGES = np.linspace(0.0, 5.0, 51)


def _edge_case_sample(nan: bool) -> np.ndarray:
    """A sorted sample with values on every edge, below the first edge, at
    and above the last one (+inf too), duplicates, and optionally one NaN."""
    rng = np.random.default_rng(21)
    parts = [
        rng.rayleigh(0.8, size=400),
        _EDGES,
        _EDGES[10:20],
        np.repeat(1.3, 5),
        [-0.5, -0.0, 5.0, 6.5, math.inf],
    ]
    if nan:
        parts.append([math.nan])
    return np.sort(np.concatenate(parts))


_CDFS = {
    "cc": stats.cdf_cc,
    "rc": stats.cdf_rc,
    "generic": stats.cdf_generic,
    "f1": pseudo2x2.spacing_cdf_f1,
}


class TestSortedPassMatchesOracles:
    """Edge search and sliced KS give the bits of whole-array binning and KS."""

    @pytest.mark.parametrize("slice_", [1, 2, 7, 10**6])
    @pytest.mark.parametrize("nan", [False, True], ids=["no-nan", "nan"])
    def test_histogram(self, monkeypatch, slice_, nan):
        monkeypatch.setattr(circulant, "_STEP", slice_)
        x = _edge_case_sample(nan)
        counts, n_out = oracles.binned_histogram(x, _EDGES)
        h = stats.histogram(x, _EDGES)
        assert h.counts.tolist() == counts.tolist()
        assert h.n_out == n_out
        assert h.total == x.size

    @pytest.mark.parametrize("slice_", [1, 2, 7, 10**6])
    @pytest.mark.parametrize("law", sorted(_CDFS))
    @pytest.mark.parametrize("nan", [False, True], ids=["no-nan", "nan"])
    def test_ks(self, monkeypatch, slice_, law, nan):
        monkeypatch.setattr(circulant, "_STEP", slice_)
        x = _edge_case_sample(nan)
        expect = oracles.whole_array_ks(x, _CDFS[law])
        got = stats.ks_statistic(x, _CDFS[law]).ks_distance
        assert got.hex() == expect.hex()

    @pytest.mark.parametrize("slice_", [1, 7, 10**6])
    @pytest.mark.parametrize("law", sorted(_CDFS))
    @pytest.mark.parametrize("nan", [False, True], ids=["no-nan", "nan"])
    def test_multiplicity_is_the_repeated_sample(self, monkeypatch, slice_, law, nan):
        # each value counted twice gives the KS distance, counts and
        # densities of the sample with every value repeated, bit for bit,
        # and its n, total and n_out
        monkeypatch.setattr(circulant, "_STEP", slice_)
        x = _edge_case_sample(nan)
        twice = np.repeat(x, 2)
        got = stats.ks_statistic(x, _CDFS[law], multiplicity=2)
        want = stats.ks_statistic(twice, _CDFS[law])
        assert (got.ks_distance.hex(), got.n) == (want.ks_distance.hex(), want.n)
        h, h2 = stats.histogram(x, _EDGES, 2), stats.histogram(twice, _EDGES)
        assert (h.counts.tolist(), h.total, h.n_out) == (h2.counts.tolist(), h2.total, h2.n_out)
        assert h.densities().tobytes() == h2.densities().tobytes()

    @pytest.mark.parametrize("multiplicity", [0, -1, 2.5])
    def test_multiplicity_must_be_a_positive_integer(self, multiplicity):
        # each value stands for a whole number of pairs, at least one
        x = np.array([0.5, 1.0, 2.0])
        with pytest.raises(ValueError, match="multiplicity"):
            stats.histogram(x, _EDGES, multiplicity)
        with pytest.raises(ValueError, match="multiplicity"):
            stats.ks_statistic(x, stats.cdf_cc, multiplicity=multiplicity)
        with pytest.raises(ValueError, match="multiplicity"):
            SpacingSample("rc", x, multiplicity)

    def test_sorted_pass_scratch_is_bounded(self):
        # normalise, sort, histogram and KS of one class hold the sample once
        # and a few slices of scratch (2**15 values, 256 KiB each); with
        # 2 MiB slices they held 8 MiB over the sample
        rng = np.random.default_rng(22)
        tracemalloc.start()
        try:
            sample = SpacingSample("generic", rng.rayleigh(size=2_000_000))
            values = stats.normalize_unit_mean(sample).values
            values.sort()
            stats.histogram(values, _EDGES)
            stats.ks_statistic(values, stats.cdf_generic)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes + 2 * 2**20


class TestQuadratureAndCdfs:
    @pytest.mark.parametrize("law", ["rc", "f1"])
    def test_grid_matches_simpson_oracle(self, law):
        # one Gauss-Legendre pass against one adaptive Simpson integral per
        # interval of the scalar density oracle; f1's density behaves like
        # s ln(1/s) at 0, which an ungraded first interval misses by 1e-9
        if law == "rc":
            got, ref = stats._rc_grid(), oracles.simpson_cdf_grid(oracles.rc_density, 12.0, 2048)
        else:
            got = pseudo2x2._f1_grid()
            ref = oracles.simpson_cdf_grid(oracles.f1_density, 25.0, 4096)
        assert got.grid.size == ref.size
        assert np.max(np.abs(got.values - ref)) <= 1e-12

    def test_grid_calls_the_density_on_slices(self):
        sizes = []

        def pdf(x):
            sizes.append(x.size)
            return circulant.pdf_rc(x)

        grid = stats.GridCdf(pdf, hi=12.0)
        nodes = (2048 + stats._GRADED) * 8
        assert sizes == [stats._GRID_SLICE] * (nodes // stats._GRID_SLICE) + [nodes % stats._GRID_SLICE]
        assert grid.values.tobytes() == stats._rc_grid().values.tobytes()

    def test_adaptive_simpson_known_integrals(self):
        assert oracles.adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-10)
        assert oracles.adaptive_simpson(lambda t: math.exp(-t), 0.0, 50.0) == pytest.approx(
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
        # the CLI writes a report's fields as its JSON, so they must be the
        # shipped schema's keys and read back to the same report
        rep = stats.ks_statistic(np.array([0.5]), lambda x: np.clip(x, 0, 1), 0.9, "demo")
        d = json.loads(json.dumps(dataclasses.asdict(rep)))
        assert d["label"] == "demo" and d["passed"] and d["n"] == 1
        schema = json.loads(
            resources.files("phrmt").joinpath("schemas/gof_report.schema.json").read_text()
        )
        jsonschema.validate(d, schema)
        assert stats.GofReport(**d) == rep
