"""Protocol simulation checks: selection logic, per-trial invariants,
estimator calibration against the closed forms, and reproducibility."""

import multiprocessing.process
import os
import sys

import numpy as np
import pytest

from opprelay import montecarlo
from opprelay.analytic import RateSpec, outage_dfaf_sc
from opprelay.channel import NetworkSpec, PowerSpec, network_link_snrs, scale_power
from opprelay.experiments import Scenario, run_scenario
from opprelay.montecarlo import (
    BLOCK_SIZE,
    Combiner,
    Scheme,
    _combined_snr_block,
    _draw_block,
    estimate_outage_coupled,
    wilson_interval,
)

RS = RateSpec(rate=1.0)
PW = PowerSpec.equal()
NET1 = NetworkSpec.rayleigh(1)
NET3 = NetworkSpec.from_shapes(0.5, [1, 1, 2], [1, 1, 1])


def scalar_combined_snr(gamma0, gamma1, gamma2, rs, scheme, combiner=Combiner.SC):
    """Reference per-trial selection and combining for one set of draws,
    written independently of the block kernel."""
    decoded = [g >= rs.delta for g in gamma1]
    metric = []
    for g1, g2, xi in zip(gamma1, gamma2, decoded):
        af = g1 * g2 / (g1 + g2 + 1.0)
        if scheme is Scheme.DFAF:
            metric.append(g2 if xi else af)
        elif scheme is Scheme.DF:
            metric.append(g2 if xi else 0.0)
        else:
            metric.append(af)
    relay_snr = max(metric, default=0.0)
    if combiner is Combiner.SC:
        return max(gamma0, relay_snr)
    return gamma0 + relay_snr


def kernel(gamma0, gamma1, gamma2, scheme, combiner=Combiner.SC):
    """Block kernel on hand-written draws: gamma1/gamma2 rows are relays."""
    g0 = np.array(gamma0, dtype=float)
    g1 = np.array(gamma1, dtype=float).reshape(len(gamma1), len(g0))
    g2 = np.array(gamma2, dtype=float).reshape(len(gamma2), len(g0))
    return _combined_snr_block(g0, g1, g2, RS, scheme, combiner)


class TestWilson:
    def test_estimate_inside_interval(self):
        for fails, trials in [(0, 100), (1, 1000), (50, 100), (999, 1000)]:
            lo, hi = wilson_interval(fails, trials, 0.99)
            assert 0.0 <= lo <= fails / trials <= hi <= 1.0

    def test_extremes(self):
        lo, hi = wilson_interval(0, 10**6)
        assert lo == 0.0 and hi < 1e-4
        lo, hi = wilson_interval(10**6, 10**6)
        assert hi == 1.0 and lo > 0.9999

    def test_narrower_at_lower_confidence(self):
        lo99, hi99 = wilson_interval(10, 1000, 0.99)
        lo95, hi95 = wilson_interval(10, 1000, 0.95)
        assert hi95 - lo95 < hi99 - lo99

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(1, 10, confidence=1.0)


class TestBlockKernel:
    def test_all_zero_gains_is_outage(self):
        combined = kernel([0.0], [[0.0], [0.0]], [[0.0], [0.0]], Scheme.DFAF)
        assert combined[0] == 0.0
        assert combined[0] < RS.gamma_th

    def test_deterministic_decode_path(self):
        combined = kernel([0.0], [[10 * RS.delta]], [[5 * RS.gamma_th]], Scheme.DFAF)
        assert combined[0] == 5 * RS.gamma_th

    def test_all_decoded_reduces_to_df(self):
        rng = np.random.default_rng(17)
        g1 = RS.delta + rng.uniform(0, 20, (3, 200))
        g2 = rng.uniform(0, 20, (3, 200))
        g0 = rng.uniform(0, 5, 200)
        for combiner in Combiner:
            adaptive = _combined_snr_block(g0, g1, g2, RS, Scheme.DFAF, combiner)
            df = _combined_snr_block(g0, g1, g2, RS, Scheme.DF, combiner)
            assert np.array_equal(adaptive, df)

    def test_no_decode_falls_back_to_direct(self):
        g1 = [[RS.delta * 0.5], [RS.delta * 0.1]]
        g2 = [[100.0], [200.0]]
        assert kernel([7.0], g1, g2, Scheme.DF, Combiner.SC)[0] == 7.0
        assert kernel([7.0], g1, g2, Scheme.DF, Combiner.MRC)[0] == 7.0

    def test_no_relays_degenerates_to_direct(self):
        assert kernel([2.0], [], [], Scheme.DFAF, Combiner.SC)[0] == 2.0
        assert kernel([2.0], [], [], Scheme.AF, Combiner.MRC)[0] == 2.0


@pytest.fixture(scope="module")
def block():
    direct, relays = network_link_snrs(NET3, scale_power(PW, 10.0))
    return _draw_block(direct, relays, seed=77, tag=(), block=0, n=2000)


class TestBlockInvariants:
    def test_selection_maximizes_equivalent_snr(self, block):
        g0, g1, g2 = block
        equivalent = np.where(g1 >= RS.delta, g2, g1 * g2 / (g1 + g2 + 1.0))
        relay = _combined_snr_block(np.zeros_like(g0), g1, g2, RS, Scheme.DFAF, Combiner.MRC)
        assert np.all(relay[None, :] >= equivalent)
        assert np.all(np.any(relay[None, :] == equivalent, axis=0))

    def test_equivalent_snr_definition(self, block):
        # one relay at a time, no direct link: MRC returns the path metric
        g0, g1, g2 = block
        zero = np.zeros_like(g0)
        for i in range(g1.shape[0]):
            eq = _combined_snr_block(
                zero, g1[i : i + 1], g2[i : i + 1], RS, Scheme.DFAF, Combiner.MRC
            )
            decoded = g1[i] >= RS.delta
            af = g1[i] * g2[i] / (g1[i] + g2[i] + 1.0)
            assert np.array_equal(eq, np.where(decoded, g2[i], af))

    def test_af_path_sandwich(self, block):
        # af < min(g1, g2) always.  The half-min lower bound is asymptotic;
        # per trial it holds exactly when max >= min + 1 (algebra:
        # g1 g2 / (g1 + g2 + 1) >= min/2  <=>  max >= min + 1), so that is
        # the condition gated on here; positivity holds otherwise.
        g0, g1, g2 = block
        zero = np.zeros_like(g0)
        for i in range(g1.shape[0]):
            af = _combined_snr_block(
                zero, g1[i : i + 1], g2[i : i + 1], RS, Scheme.AF, Combiner.MRC
            )
            smaller, larger = np.minimum(g1[i], g2[i]), np.maximum(g1[i], g2[i])
            assert np.all(af < smaller)
            gated = larger >= smaller + 1.0
            assert np.all(af[gated] >= 0.5 * smaller[gated])
            assert np.all(af > 0.0)

    def test_failure_count_is_kernel_outages(self, block):
        # the estimator's first block is this block's draws
        g0, g1, g2 = block
        combined = _combined_snr_block(g0, g1, g2, RS, Scheme.DFAF, Combiner.SC)
        est = estimate_outage_coupled(
            NET3, scale_power(PW, 10.0), RS, (Scheme.DFAF,), 2000, seed=77
        ).estimates[Scheme.DFAF]
        assert est.failures == np.count_nonzero(combined < RS.gamma_th)


class TestSchemeDominancePerTrial:
    @pytest.mark.parametrize("combiner", [Combiner.SC, Combiner.MRC])
    def test_adaptive_dominates_on_shared_draws(self, combiner):
        rng = np.random.default_rng(78)
        g0 = rng.gamma(0.5, 20.0, 1000)
        g1 = rng.gamma(1.0, 10.0, (3, 1000))
        g2 = rng.gamma(1.0, 10.0, (3, 1000))
        adaptive = _combined_snr_block(g0, g1, g2, RS, Scheme.DFAF, combiner)
        df = _combined_snr_block(g0, g1, g2, RS, Scheme.DF, combiner)
        af = _combined_snr_block(g0, g1, g2, RS, Scheme.AF, combiner)
        assert np.all(adaptive >= df)
        assert np.all(adaptive >= af)


class TestBlockEngineAgainstScalarLogic:
    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("combiner", list(Combiner))
    def test_vectorized_matches_per_trial(self, scheme, combiner):
        direct, relays = network_link_snrs(NET3, scale_power(PW, 10.0))
        g0, g1, g2 = _draw_block(direct, relays, seed=5, tag=(), block=0, n=400)
        combined = _combined_snr_block(g0, g1, g2, RS, scheme, combiner)
        for t in range(400):
            expected = scalar_combined_snr(
                float(g0[t]),
                tuple(float(x) for x in g1[:, t]),
                tuple(float(x) for x in g2[:, t]),
                RS,
                scheme,
                combiner,
            )
            assert combined[t] == expected


class TestEstimators:
    def test_matches_closed_form_rayleigh(self):
        est = estimate_outage_coupled(
            NET1, scale_power(PW, 10.0), RS, (Scheme.DFAF,), 10**6, seed=42
        ).estimates[Scheme.DFAF]
        exact = outage_dfaf_sc(NET1, PW, RS, 10.0)
        assert est.ci_low <= exact <= est.ci_high
        assert est.failures == round(est.probability * est.trials)

    def test_df_and_adaptive_agree_in_distribution(self):
        # independent runs, overlapping 99% intervals
        a = estimate_outage_coupled(
            NET1, scale_power(PW, 10.0), RS, (Scheme.DFAF,), 10**6, seed=1, stream_tag=(0,)
        ).estimates[Scheme.DFAF]
        b = estimate_outage_coupled(
            NET1, scale_power(PW, 10.0), RS, (Scheme.DF,), 10**6, seed=1, stream_tag=(1,)
        ).estimates[Scheme.DF]
        assert a.ci_low <= b.ci_high and b.ci_low <= a.ci_high

    def test_mrc_ordering_with_coupled_trials(self):
        coupled = estimate_outage_coupled(
            NET3,
            scale_power(PW, 10.0),
            RS,
            (Scheme.DFAF, Scheme.DF, Scheme.AF),
            10**6,
            seed=11,
            combiner=Combiner.MRC,
        )
        assert coupled.dominance_violations[Scheme.DF] == 0
        assert coupled.dominance_violations[Scheme.AF] == 0
        adaptive = coupled.estimates[Scheme.DFAF]
        assert adaptive.ci_high < coupled.estimates[Scheme.DF].ci_low
        assert adaptive.ci_high < coupled.estimates[Scheme.AF].ci_low

    def test_reproducible_same_seed(self):
        kwargs = dict(trials=100_000, seed=5)
        a = estimate_outage_coupled(NET1, scale_power(PW, 10.0), RS, (Scheme.DFAF,), **kwargs)
        b = estimate_outage_coupled(NET1, scale_power(PW, 10.0), RS, (Scheme.DFAF,), **kwargs)
        assert a == b

    def test_worker_count_does_not_change_counts(self):
        a = estimate_outage_coupled(
            NET1, scale_power(PW, 10.0), RS, (Scheme.DFAF,), 200_000, seed=5, workers=1
        )
        b = estimate_outage_coupled(
            NET1, scale_power(PW, 10.0), RS, (Scheme.DFAF,), 200_000, seed=5, workers=3
        )
        assert a.estimates[Scheme.DFAF].failures == b.estimates[Scheme.DFAF].failures

    def test_workers_are_threads_of_this_process(self, monkeypatch):
        # more workers than cores, switching threads often, give the serial
        # counts and violations and start no child process
        def refuse(*args, **kwargs):
            raise AssertionError("an estimate started a child process")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        args = (NET3, scale_power(PW, 10.0), RS, tuple(Scheme), 5 * BLOCK_SIZE)
        serial = estimate_outage_coupled(*args, seed=5, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = estimate_outage_coupled(*args, seed=5, workers=5)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_stream_tags_give_distinct_runs(self):
        a = estimate_outage_coupled(
            NET1, scale_power(PW, 10.0), RS, (Scheme.DFAF,), 10**5, seed=5, stream_tag=(0,)
        )
        b = estimate_outage_coupled(
            NET1, scale_power(PW, 10.0), RS, (Scheme.DFAF,), 10**5, seed=5, stream_tag=(1,)
        )
        assert a.estimates[Scheme.DFAF].failures != b.estimates[Scheme.DFAF].failures

    def test_minimum_trials_enforced(self):
        with pytest.raises(ValueError):
            estimate_outage_coupled(NET1, PW, RS, (Scheme.DFAF,), 999, seed=1)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5])
    def test_confidence_checked_before_any_draw(self, monkeypatch, confidence):
        def refuse(*args, **kwargs):
            raise AssertionError("drew trials for an invalid confidence")

        monkeypatch.setattr(montecarlo, "_draw_block", refuse)
        with pytest.raises(ValueError, match="confidence"):
            estimate_outage_coupled(
                NET1, PW, RS, (Scheme.DFAF,), 10**4, seed=1, confidence=confidence
            )
        with pytest.raises(ValueError, match="confidence"):
            estimate_outage_coupled(
                NET1, PW, RS, tuple(Scheme), 10**4, seed=1, confidence=confidence
            )

    def test_coupled_needs_schemes(self):
        with pytest.raises(ValueError):
            estimate_outage_coupled(NET1, PW, RS, (), 10**4, seed=1)


def curve_scenario(net, grid, trials, seed, outputs=("montecarlo",)):
    # one scheme, coupled: grid point idx draws from the streams tagged (idx,)
    return Scenario(
        name="curve",
        network=net,
        rate=RS,
        power=PW,
        schemes=(Scheme.DFAF,),
        combiner=Combiner.SC,
        outputs=frozenset(outputs),
        snr_grid_db=tuple(grid),
        trials=trials,
        seed=seed,
        coupled=True,
        mc_max_snr_db=None,
    )


class TestCurve:
    def test_grid_validation(self):
        with pytest.raises(ValueError, match="no SNR grid"):
            run_scenario(curve_scenario(NET1, [], 10**4, seed=1))
        with pytest.raises(ValueError, match="strictly increasing"):
            run_scenario(curve_scenario(NET1, [5.0, 5.0], 10**4, seed=1))

    def test_nonincreasing_within_ci(self):
        rows = run_scenario(curve_scenario(NET1, [0.0, 5.0, 10.0, 15.0], 10**5, seed=3))
        for a, b in zip(rows, rows[1:]):
            assert b.mc_ci_low <= a.mc_ci_high  # allows CI noise only

    def test_relay_count_ordering_at_15db(self):
        estimates = {}
        for k in (1, 2, 3):
            net = NetworkSpec.rayleigh(k)
            estimates[k] = estimate_outage_coupled(
                net, scale_power(PW, 10.0 ** 1.5), RS, (Scheme.DFAF,),
                10**6, seed=13, stream_tag=(k,),
            ).estimates[Scheme.DFAF]
        assert estimates[2].ci_high < estimates[1].ci_low
        assert estimates[3].ci_high < estimates[2].ci_low

    def test_matches_analytic_pointwise(self):
        grid = [0.0, 5.0, 10.0, 15.0]
        rows = run_scenario(
            curve_scenario(NET3, grid, 10**6, seed=2026, outputs=("analytic", "montecarlo"))
        )
        for r in rows:
            assert r.outage_analytic == outage_dfaf_sc(NET3, PW, RS, 10.0 ** (r.snr_db / 10.0))
            assert r.mc_ci_low <= r.outage_analytic <= r.mc_ci_high

    def test_warns_on_few_failures(self):
        with pytest.warns(UserWarning, match="unreliable"):
            run_scenario(curve_scenario(NET1, [25.0], 2000, seed=4))
