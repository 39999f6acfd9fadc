import argparse
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

import oracles
from phrmt import cli, walk
from phrmt.walk import WalkConfig, WalkState

# Fig-4-style ring: 22 sites, stay 0.2, right 0.24, left 0.56
RING22 = WalkConfig.ring(22, 0.8, 0.3)

# frozen closed-form values (independent quadrature in test_closed_form_*):
DECAY_T2 = 0.544654387013526
DECAY_T50 = 0.041649781322557124


def _quad_decay(t: int) -> float:
    # C (pi/2) int_0^1 r^(t+2) exp(-pi r^2/4) dr, evaluated by quadrature
    val, _ = integrate.quad(
        lambda r: r ** (t + 2) * math.exp(-math.pi * r * r / 4.0),
        0.0,
        1.0,
        epsabs=1e-300,
        epsrel=1e-12,
        limit=300,
    )
    return walk.DECAY_NORM * 0.5 * math.pi * val


def _first_round_accepted(count: int, seed: int) -> int:
    # candidates that the first rejection round of a draw of count moduli accepts
    g = np.random.default_rng(seed)
    m = int(count * 2.5) + 16
    r, u = g.random(m), g.random(m)
    return np.count_nonzero(u * math.exp(-math.pi / 4.0) <= r * r * np.exp(-math.pi * r * r / 4.0))


class TestWalkConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WalkConfig.ring(1, 0.5, 0.5)
        with pytest.raises(ValueError):
            WalkConfig.ring(4, 1.5, 0.5)
        with pytest.raises(ValueError):
            WalkConfig.ring(4, 0.5, -0.1)
        with pytest.raises(ValueError):
            WalkConfig(np.array([0.5, 0.2, 0.2]))
        with pytest.raises(ValueError):
            WalkConfig(np.array([1.2, -0.1, -0.1]))

    @pytest.mark.parametrize("n_sites", [-3, 0, 1])
    def test_ring_needs_two_sites(self, n_sites):
        # checked before the row is built, so no IndexError or numpy error
        with pytest.raises(ValueError, match="at least 2 sites"):
            WalkConfig.ring(n_sites, 0.5, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_rejected(self, bad):
        # NaN passes both the sign check and the sum check
        with pytest.raises(ValueError, match="finite"):
            WalkConfig(np.array([0.5, bad, 0.5]))

    def test_hop_row_biased(self):
        row = RING22.row
        assert row[0] == pytest.approx(0.2)
        assert row[1] == pytest.approx(0.24)
        assert row[21] == pytest.approx(0.56)
        assert np.all(row[2:21] == 0.0)
        with pytest.raises(ValueError):  # the stored row is read-only
            row[0] = 1.0

    def test_hop_row_two_sites_folds(self):
        row = WalkConfig.ring(2, 0.6, 0.7).row
        assert row[0] == pytest.approx(0.4)
        assert row[1] == pytest.approx(0.6)


def _transition(cfg: WalkConfig) -> np.ndarray:
    return oracles.transition_matrix(cfg.row)


class TestTransitionMatrix:
    def test_no_jump_is_identity(self):
        m = _transition(WalkConfig.ring(5, 0.0, 0.5))
        assert np.array_equal(m, np.eye(5))

    def test_pure_rotation_row(self):
        m = _transition(WalkConfig.ring(3, 1.0, 1.0))
        assert m[0].tolist() == [0.0, 1.0, 0.0]

    def test_doubly_stochastic(self):
        m = _transition(RING22)
        assert np.allclose(m.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)

    def test_eigenvalue_moduli(self):
        eigs = np.linalg.eigvals(_transition(RING22))
        moduli = np.abs(eigs)
        assert np.all(moduli <= 1.0 + 1e-12)
        assert np.min(np.abs(eigs - 1.0)) < 1e-12
        assert np.sort(moduli)[-2] < 1.0 - 1e-12  # aperiodic: only one unit mode


class TestEvolution:
    def test_uniform_is_stationary(self):
        state = WalkState(0, np.full(22, 1.0 / 22.0))
        for t in (1, 10, 500):
            (out,) = walk.evolve_spectral(RING22, state, [t])
            assert np.allclose(out.probs, 1.0 / 22.0, atol=1e-13)

    def test_time_zero_is_identity(self):
        state = WalkState.delta(22, 3)
        (out,) = walk.evolve_spectral(RING22, state, [0])
        assert np.allclose(out.probs, state.probs, atol=1e-13)

    def test_rotation_shifts_delta(self):
        cfg = WalkConfig.ring(5, 1.0, 1.0)
        state = WalkState.delta(5, 0)
        for k in (1, 2, 7):
            (out,) = walk.evolve_spectral(cfg, state, [k])
            expect = np.zeros(5)
            expect[(0 - k) % 5] = 1.0
            assert np.allclose(out.probs, expect, atol=1e-12)

    def test_matches_matrix_powers(self):
        for cfg in (
            RING22,
            WalkConfig.ring(9, 0.35, 0.8),
            WalkConfig.ring(64, 0.6, 0.45),
        ):
            m = _transition(cfg)
            p = WalkState.delta(cfg.n_sites, 1).probs
            for t in range(101):
                (spectral,) = walk.evolve_spectral(cfg, WalkState.delta(cfg.n_sites, 1), [t])
                assert np.max(np.abs(spectral.probs - p)) < 1e-10
                p = m @ p

    def test_probability_conserved(self):
        state = WalkState.delta(22, 0)
        for t in range(0, 800, 25):
            (out,) = walk.evolve_spectral(RING22, state, [t])
            assert abs(out.probs.sum() - 1.0) <= 1e-12

    def test_time_sequence_matches_single_steps(self):
        state = WalkState.delta(22, 5)
        ts = np.arange(0, 120, 7)
        states = list(walk.evolve_spectral(RING22, state, ts))
        assert states[0] is state
        for t, out in zip(ts, states):
            (single,) = walk.evolve_spectral(RING22, state, [int(t)])
            assert out.t == single.t == t
            assert np.array_equal(out.probs, single.probs)
        assert list(walk.evolve_spectral(RING22, state, [])) == []
        with pytest.raises(ValueError):
            walk.evolve_spectral(RING22, state, [3, -1])

    @pytest.mark.parametrize("n_sites", [128, 256, 512])
    def test_large_rings_within_scaled_roundoff(self, n_sites):
        # spectral round-off below zero grows with the ring size; a fixed
        # -1e-14 floor rejected these evolutions from 128 sites on.  Clipping
        # that round-off to 0 adds at most about 1e-14 per site to the sum.
        cfg = WalkConfig.ring(n_sites, 0.8, 0.3)
        for out in walk.evolve_spectral(cfg, WalkState.delta(n_sites, 0), range(60)):
            assert out.probs.min() >= 0.0
            assert abs(out.probs.sum() - 1.0) <= n_sites * 1e-14

    @pytest.mark.parametrize("n_sites", [128, 256, 512])
    def test_evolved_states_rebuild(self, n_sites):
        # a stored state passes its own constructor's checks again
        cfg = WalkConfig.ring(n_sites, 0.8, 0.3)
        for out in walk.evolve_spectral(cfg, WalkState.delta(n_sites, 0), range(200)):
            assert np.array_equal(WalkState(out.t, out.probs).probs, out.probs)

    def test_sum_checked_after_clipping(self):
        # round-off below zero within the floor, but clipping it to 0 leaves
        # a sum of 1 + 4.5e-12
        probs = np.full(1000, -9e-15)
        probs[500:] = (1.0 + 500 * 9e-15) / 500
        assert abs(probs.sum() - 1.0) < 1e-12
        with pytest.raises(ValueError, match="sum to 1"):
            WalkState(0, probs)

    def test_evolution_memory_is_linear_in_sites(self):
        # the transforms work on length-N vectors; dense N x N Fourier
        # matrices would take 2 x 64 MiB at 2048 sites
        cfg = WalkConfig.ring(2048, 0.8, 0.3)
        p0 = WalkState.delta(2048, 0)
        tracemalloc.start()
        try:
            for _ in walk.evolve_spectral(cfg, p0, range(1, 11)):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_evolution_memory_does_not_grow_with_steps(self):
        # each state is made as the iterator reaches it; 2000 states of
        # 2048 sites kept at once would take 32 MiB
        cfg = WalkConfig.ring(2048, 0.8, 0.3)
        p0 = WalkState.delta(2048, 0)
        tracemalloc.start()
        try:
            for _ in walk.evolve_spectral(cfg, p0, range(1, 2001)):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_long_rotation_within_scaled_roundoff(self):
        # unit-modulus modes carry phase round-off that grows with t
        cfg = WalkConfig.ring(5, 1.0, 1.0)
        out = walk.evolve_spectral(cfg, WalkState.delta(5, 0), range(995, 1001))
        assert [int(np.argmax(s.probs)) for s in out] == [(-t) % 5 for t in range(995, 1001)]

    def test_long_walk_mass_drift_within_scaled_roundoff(self):
        # the ring's row sums to 1 - eps/2, so its evolved mass drifts by
        # eps/2 a step: past the fixed 1e-12 from t = 9009, far inside
        # 16 eps (N + t)
        assert 1.0 - RING22.row.sum() == np.finfo(float).eps / 2
        states = walk.evolve_spectral(RING22, WalkState.delta(22, 0), [9009, 10_000])
        for state in states:
            assert 1e-12 < 1.0 - state.probs.sum() < 2e-12

    def test_row_that_drifts_past_roundoff_is_refused(self):
        # a row within 1e-12 of summing to 1 is a valid configuration, but its
        # mass, (1 + 9e-13)^t, leaves the round-off bound at t = 2
        cfg = WalkConfig([0.5, 0.5000000000009])
        states = walk.evolve_spectral(cfg, WalkState.delta(2, 0), range(3))
        assert [s.t for s in itertools.islice(states, 2)] == [0, 1]
        with pytest.raises(ValueError, match="sum to 1"):
            next(states)

    def test_negative_input_still_rejected(self):
        with pytest.raises(ValueError):
            WalkState(0, np.array([-1e-13, 1.0 + 1e-13]))
        with pytest.raises(ValueError):
            WalkState(0, np.array([-0.1, 1.1]))


class TestWalkState:
    @pytest.mark.parametrize("site", [-1, -5, 5, 7])
    def test_delta_site_outside_ring_rejected(self, site):
        # a negative site would wrap around to another one
        with pytest.raises(ValueError, match="site"):
            WalkState.delta(5, site)

    @pytest.mark.parametrize("site", [0, 4])
    def test_delta_at_each_end(self, site):
        assert WalkState.delta(5, site).probs.tolist() == [float(i == site) for i in range(5)]


class TestEntropy:
    def test_delta_zero(self):
        assert walk.entropy(WalkState.delta(10, 4)) == 0.0

    def test_uniform_log_n(self):
        uniform = WalkState(0, np.full(22, 1.0 / 22.0))
        assert walk.entropy(uniform) == pytest.approx(math.log(22.0), rel=1e-13)

    def test_two_point(self):
        assert walk.entropy(WalkState(0, np.array([0.5, 0.5]))) == pytest.approx(math.log(2.0))

    def test_saturates_at_log_n(self):
        tmix = walk.spectral_gap_mixing_time(RING22, target=1e-7)
        (state,) = walk.evolve_spectral(RING22, WalkState.delta(22, 0), [tmix])
        assert abs(walk.entropy(state) - math.log(22.0)) < 1e-8

    @pytest.mark.parametrize("target", [0.0, -1e-8, math.nan])
    def test_target_must_be_positive(self, target):
        with pytest.raises(ValueError, match="target"):
            walk.spectral_gap_mixing_time(RING22, target)

    def test_no_gap_rejected(self):
        with pytest.raises(ValueError):
            walk.spectral_gap_mixing_time(WalkConfig.ring(5, 0.0, 0.5))
        with pytest.raises(ValueError):
            # pure rotation never mixes
            walk.spectral_gap_mixing_time(WalkConfig.ring(5, 1.0, 1.0))


class TestDecayClosedForm:
    def test_frozen_values_and_quadrature_route(self):
        assert walk.rmt_decay_closed_form(2) == pytest.approx(DECAY_T2, rel=1e-12)
        assert walk.rmt_decay_closed_form(50) == pytest.approx(DECAY_T50, rel=1e-12)
        assert _quad_decay(2) == pytest.approx(DECAY_T2, rel=1e-10)
        assert _quad_decay(50) == pytest.approx(DECAY_T50, rel=1e-10)

    def test_monotone_decreasing(self):
        vals = [walk.rmt_decay_closed_form(t) for t in range(1, 201)]
        assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))

    def test_asymptotic_within_one_percent_from_t50(self):
        for t in list(range(50, 301, 10)) + [500, 1000, 2000]:
            cf = walk.rmt_decay_closed_form(t)
            asym = walk.rmt_decay_asymptotic(t)
            assert abs(asym - cf) / cf < 0.01, t

    def test_asymptotic_ratio_approaches_one_monotonically(self):
        ratios = [
            walk.rmt_decay_asymptotic(t) / walk.rmt_decay_closed_form(t)
            for t in (10, 50, 100, 200)
        ]
        assert all(abs(1 - b) < abs(1 - a) for a, b in zip(ratios, ratios[1:]))

    def test_leading_decay_rate(self):
        # constant / (t+3): doubling t+3 halves the value at large t
        v1 = walk.rmt_decay_closed_form(997)  # t+3 = 1000
        v2 = walk.rmt_decay_closed_form(1997)  # t+3 = 2000
        assert v1 / v2 == pytest.approx(2.0, rel=5e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            walk.rmt_decay_closed_form(-1)
        with pytest.raises(ValueError):
            walk.rmt_decay_asymptotic(-1)

    def test_last_time_in_float_range(self):
        t = walk.DECAY_T_MAX
        cf = walk.rmt_decay_closed_form(t)
        assert math.isfinite(cf)
        assert cf == pytest.approx(walk.rmt_decay_asymptotic(t), rel=1e-6)

        # the incomplete gamma's prefactor (pi/4)^a e^(-pi/4), a = (3+t)/2
        def prefactor(t):
            return (math.pi / 4.0) ** (0.5 * (3.0 + t)) * math.exp(-math.pi / 4.0)

        assert prefactor(t) >= sys.float_info.min > prefactor(t + 1)

    @pytest.mark.parametrize("t", [5856, 5870, 5876, 10**6])
    def test_times_past_float_range_refused(self, t):
        with pytest.raises(ValueError):
            walk.rmt_decay_closed_form(t)


class TestExcessOccupation:
    def test_time_zero_identity(self):
        # with any exact transition spectrum the mode sum collapses to
        # p0[j] - 1/N at t = 0
        cfg = WalkConfig.ring(8, 0.8, 0.3)
        lams = oracles.dft_per_term(cfg.row)[1:]
        rng = np.random.default_rng(70)
        p0 = rng.random(8)
        p0 /= p0.sum()
        for j in (0, 3, 7):
            val = oracles.excess_occupation(lams, p0, j, 0)
            assert val.real == pytest.approx(p0[j] - 1.0 / 8.0, abs=1e-12)
            assert abs(val.imag) < 1e-12

    def test_evolution_route_agrees(self):
        # the mode sum reproduces the spectral propagator at every time
        cfg = WalkConfig.ring(6, 0.55, 0.2)
        lams = oracles.dft_per_term(cfg.row)[1:]
        p0 = WalkState.delta(6, 2)
        for t in (1, 5, 20):
            (evolved,) = walk.evolve_spectral(cfg, p0, [t])
            for j in range(6):
                val = oracles.excess_occupation(lams, p0.probs, j, t)
                assert val.real == pytest.approx(evolved.probs[j] - 1.0 / 6.0, abs=1e-12)

    def test_length_check(self):
        with pytest.raises(ValueError):
            oracles.excess_occupation(np.ones(3), np.ones(3) / 3.0, 0, 1)


class TestDecayMonteCarlo:
    def test_radial_sampler_range_and_moments(self):
        rng = np.random.default_rng(71)
        r = walk.sample_decay_moduli(400_000, rng)
        assert r.min() >= 0.0 and r.max() <= 1.0
        for t in (1, 2, 4):
            se = r.std() / math.sqrt(r.size)
            assert np.mean(r**t) == pytest.approx(
                walk.rmt_decay_closed_form(t), abs=5 * se + 1e-4
            )

    def test_three_sigma_agreement_with_closed_form(self):
        rng = np.random.default_rng(72)
        for t in (2, 5, 10):
            mean, se = walk.rmt_decay_monte_carlo(32, t, 100_000, rng)
            cf = walk.rmt_decay_closed_form(t)
            assert abs(mean - cf) <= 3.0 * se, (t, mean, cf, se)

    def test_variance_shrinks_with_realizations(self):
        rng = np.random.default_rng(73)
        _, se_small = walk.rmt_decay_monte_carlo(16, 4, 2_000, rng)
        _, se_big = walk.rmt_decay_monte_carlo(16, 4, 50_000, rng)
        ratio = se_small / se_big
        assert 3.0 < ratio < 8.5  # ~sqrt(25) = 5 up to sampling noise

    @pytest.mark.parametrize("n, realizations", [(3, 2), (5, 1000), (32, 3)])
    def test_time_zero_is_the_delta_start_excess(self, n, realizations):
        # every mode term is 1 at t = 0: each realization gives exactly -1,
        # so the first Monte Carlo row of decay.csv is (-1, 0), not the
        # closed form's 1
        rng = np.random.default_rng(74)
        assert walk.rmt_decay_monte_carlo(n, 0, realizations, rng) == (-1.0, 0.0)
        assert walk.rmt_decay_closed_form(0) == pytest.approx(1.0)

    @pytest.mark.parametrize("t", [0, 1, 2, 3, 50, 99, 100, 101, 200])
    def test_matches_complex_power_oracle(self, t):
        # numpy's complex power switches from repeated squaring to
        # exp(t log z) at t = 100
        n, realizations = 32, 500
        rng = np.random.default_rng(74)
        r = walk.sample_decay_moduli(realizations * (n - 1), rng).reshape(realizations, n - 1)
        theta = rng.uniform(-math.pi, math.pi, size=(realizations, n - 1))
        want = oracles.complex_power_decay_estimate(r, theta, t)
        got = walk.rmt_decay_monte_carlo(n, t, realizations, np.random.default_rng(74))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    # R = 1000 at N = _SLICE + 2 is left out: the oracle's whole draws alone
    # would take 0.3 GB
    @pytest.mark.parametrize(
        "n, realizations",
        [(3, 1), (3, 7), (3, 1000), (32, 1), (32, 7), (32, 1000),
         (walk._SLICE + 2, 1), (walk._SLICE + 2, 7)],
    )
    def test_sliced_steps_match_whole_array_oracle(self, n, realizations):
        for t in (0, 1, 2, 3, 100, 200):
            seed = [n, realizations, t]
            got = walk.rmt_decay_monte_carlo(n, t, realizations, np.random.default_rng(seed))
            want = oracles.whole_array_decay_estimate(
                n, t, realizations, np.random.default_rng(seed)
            )
            assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_second_rejection_round_matches_oracle(self):
        # at seed 343, 45 moduli need a second round: the first round's 128
        # candidates accept fewer than 45
        n, realizations, seed = 10, 5, 343
        count = realizations * (n - 1)
        assert _first_round_accepted(count, seed) < count
        for t in (1, 7):
            got = walk.rmt_decay_monte_carlo(n, t, realizations, np.random.default_rng(seed))
            want = oracles.whole_array_decay_estimate(
                n, t, realizations, np.random.default_rng(seed)
            )
            assert [x.hex() for x in got] == [x.hex() for x in want]
        for size in (count, 20_000):  # 20,000 moduli draw over seven u slices
            got = walk.sample_decay_moduli(size, np.random.default_rng(seed))
            want = oracles.whole_array_decay_moduli(size, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "size, seed, one_round", [(1, 75, True), (2, 75, True), (20_000, 75, True), (45, 343, False)]
    )
    def test_stream_position_after_draw_matches_whole_arrays(self, size, seed, one_round):
        # the fill stops drawing once its moduli are full, then skips the
        # stream to where two whole draws per rejection round leave it
        assert (_first_round_accepted(size, seed) >= size) == one_round
        g = np.random.default_rng(seed)
        walk.sample_decay_moduli(size, g)
        want = np.random.default_rng(seed)
        oracles.whole_array_decay_moduli(size, want)
        assert g.random(3).tobytes() == want.random(3).tobytes()

    @pytest.mark.parametrize("steps", [50, 1], ids=["50-steps", "1-step"])
    def test_scratch_is_allocated_once_per_call(self, steps, monkeypatch):
        # the moduli, R (N-1) floats, plus 64 KiB slices and R-sized sums; on
        # one worker, rmt-decay's steps run one after another, each call
        # freeing its scratch before the next
        n, realizations = 32, 2000
        bound = 1.0 * realizations * (n - 1) * 8 + 2**20
        monkeypatch.setattr(cli, "_cpu_threads", lambda: 1)
        args = argparse.Namespace(t_max=steps - 1, n=n, realizations=realizations, seed=0)
        tracemalloc.start()
        try:
            if steps == 1:
                walk.rmt_decay_monte_carlo(n, 0, realizations, np.random.default_rng(0))
            else:
                cli.cmd_rmt_decay(args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)

    def test_domain(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            walk.rmt_decay_monte_carlo(2, 1, 10, rng)
        with pytest.raises(ValueError):
            walk.rmt_decay_monte_carlo(8, -1, 10, rng)
        with pytest.raises(ValueError):
            walk.rmt_decay_monte_carlo(8, 1, 0, rng)
