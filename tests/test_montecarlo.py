"""Protocol simulation checks: selection logic, per-trial invariants,
estimator calibration against the closed forms, and reproducibility."""

import multiprocessing.process
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from opprelay import montecarlo
from opprelay.analytic import RateSpec, outage_sc
from opprelay.channel import PowerSpec, make_stream, network_link_snrs, sample_snr
from opprelay.experiments import Curve, run_scenario
from opprelay.montecarlo import (
    BLOCK_SIZE,
    CHUNK_SIZE,
    Combiner,
    Scheme,
    _combined_snrs,
    _Workspace,
    estimate_outage_coupled,
    wilson_interval,
)

from nets import from_shapes, rayleigh

RS = RateSpec(rate=1.0)
PW = PowerSpec()
NET1 = rayleigh(1)
NET3 = from_shapes(0.5, [1, 1, 2], [1, 1, 1])


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
    """Block kernel of one scheme on given draws: gamma1/gamma2 rows are
    relays, fed to the kernel one relay at a time."""
    g0 = np.array(gamma0, dtype=float)
    g1 = np.array(gamma1, dtype=float).reshape(len(gamma1), len(g0))
    g2 = np.array(gamma2, dtype=float).reshape(len(gamma2), len(g0))
    ws = _Workspace.allocate(len(g0), (scheme,))
    return _combined_snrs(g0, zip(g1, g2), RS, combiner, ws)[scheme]


def first_block(seed, n, block=0):
    """The draws of an untagged estimate's first block (or the given one)
    on NET3 at 10 dB, from its stream ids: 0 direct, 2i+1 and 2i+2 the
    hops of relay i."""
    direct, relays = network_link_snrs(NET3, PW, snr=10.0)

    def draw(link, link_id):
        return sample_snr(link, make_stream(seed, block, link_id), size=n)

    g0 = draw(direct, 0)
    g1 = np.array([draw(first, 2 * i + 1) for i, (first, _) in enumerate(relays)])
    g2 = np.array([draw(second, 2 * i + 2) for i, (_, second) in enumerate(relays)])
    return g0, g1, g2


class TestWilson:
    def test_estimate_inside_interval(self):
        for fails, trials in [(0, 100), (1, 1000), (50, 100), (999, 1000)]:
            lo, hi = wilson_interval(fails, trials, 0.99)
            assert 0.0 <= lo <= fails / trials <= hi <= 1.0

    @pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99, 0.999])
    @pytest.mark.parametrize(
        "trials", [1000, 3000, 10**4, 2 * 10**4, 3 * 10**4, 10**5, 3 * 10**5, 10**6, 3 * 10**6]
    )
    def test_contains_estimate_exactly(self, trials, confidence):
        # unclamped, rounding left 0 of 1e6 at 95% with a lower end of
        # 4.2e-22 and 1000 of 1000 at 99% with an upper end of 1 - 2**-52
        for fails in (0, 1, trials // 2, trials - 1, trials):
            lo, hi = wilson_interval(fails, trials, confidence)
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
            adaptive = kernel(g0, g1, g2, Scheme.DFAF, combiner)
            df = kernel(g0, g1, g2, Scheme.DF, combiner)
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
    return first_block(seed=77, n=2000)


class TestBlockInvariants:
    def test_selection_maximizes_equivalent_snr(self, block):
        g0, g1, g2 = block
        equivalent = np.where(g1 >= RS.delta, g2, g1 * g2 / (g1 + g2 + 1.0))
        relay = kernel(np.zeros_like(g0), g1, g2, Scheme.DFAF, Combiner.MRC)
        assert np.all(relay[None, :] >= equivalent)
        assert np.all(np.any(relay[None, :] == equivalent, axis=0))

    def test_equivalent_snr_definition(self, block):
        # one relay at a time, no direct link: MRC returns the path metric
        g0, g1, g2 = block
        zero = np.zeros_like(g0)
        for i in range(g1.shape[0]):
            eq = kernel(zero, g1[i : i + 1], g2[i : i + 1], Scheme.DFAF, Combiner.MRC)
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
            af = kernel(zero, g1[i : i + 1], g2[i : i + 1], Scheme.AF, Combiner.MRC)
            smaller, larger = np.minimum(g1[i], g2[i]), np.maximum(g1[i], g2[i])
            assert np.all(af < smaller)
            gated = larger >= smaller + 1.0
            assert np.all(af[gated] >= 0.5 * smaller[gated])
            assert np.all(af > 0.0)

    def test_failure_count_is_kernel_outages(self, block):
        # the estimator's first block is this block's draws
        g0, g1, g2 = block
        combined = kernel(g0, g1, g2, Scheme.DFAF, Combiner.SC)
        est = estimate_outage_coupled(
            NET3, PW, RS, (Scheme.DFAF,), 2000, seed=77, snr=10.0
        ).estimates[Scheme.DFAF]
        assert est.failures == np.count_nonzero(combined < RS.gamma_th)


class TestSchemeDominancePerTrial:
    @pytest.mark.parametrize("combiner", [Combiner.SC, Combiner.MRC])
    def test_adaptive_dominates_on_shared_draws(self, combiner):
        rng = np.random.default_rng(78)
        g0 = rng.gamma(0.5, 20.0, 1000)
        g1 = rng.gamma(1.0, 10.0, (3, 1000))
        g2 = rng.gamma(1.0, 10.0, (3, 1000))
        adaptive = kernel(g0, g1, g2, Scheme.DFAF, combiner)
        df = kernel(g0, g1, g2, Scheme.DF, combiner)
        af = kernel(g0, g1, g2, Scheme.AF, combiner)
        assert np.all(adaptive >= df)
        assert np.all(adaptive >= af)


class TestBlockEngineAgainstScalarLogic:
    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("combiner", list(Combiner))
    def test_vectorized_matches_per_trial(self, scheme, combiner):
        g0, g1, g2 = first_block(seed=5, n=400)
        combined = kernel(g0, g1, g2, scheme, combiner)
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


class TestBlockBuffersReused:
    # three blocks, the last one a full strip plus a short one: a running
    # best or mask not reset between strips, a stream reopened per strip,
    # or a stale tail read in the short strip, moves a count away from the
    # sum of freshly drawn blocks
    TRIALS = 2 * BLOCK_SIZE + CHUNK_SIZE + 1000

    @pytest.mark.parametrize("combiner", list(Combiner))
    def test_counts_are_sums_over_fresh_blocks(self, combiner):
        failures = dict.fromkeys(Scheme, 0)
        violations = dict.fromkeys((Scheme.DF, Scheme.AF), 0)
        for block in range(3):
            n = min(BLOCK_SIZE, self.TRIALS - block * BLOCK_SIZE)
            g0, g1, g2 = first_block(seed=31, n=n, block=block)
            for trial in zip(g0.tolist(), g1.T.tolist(), g2.T.tolist()):
                combined = {s: scalar_combined_snr(*trial, RS, s, combiner) for s in Scheme}
                for s in Scheme:
                    failures[s] += combined[s] < RS.gamma_th
                for s in violations:
                    violations[s] += combined[Scheme.DFAF] < combined[s]
        for workers in (1, 2, 3):
            coupled = estimate_outage_coupled(
                NET3, PW, RS, tuple(Scheme), self.TRIALS,
                seed=31, combiner=combiner, workers=workers, snr=10.0,
            )
            assert {s: e.failures for s, e in coupled.estimates.items()} == failures
            assert coupled.dominance_violations == violations


class TestEstimators:
    @pytest.mark.parametrize("power", [{"source_power": 1e300}, {"relay_power": 1e300}])
    def test_overflowing_mean_snr_is_refused(self, power):
        # an infinite mean drew infinite SNRs, whose amplified ratio inf/inf
        # is NaN: no scheme ever failed, and the estimate read 0
        with pytest.raises(ValueError, match="got inf"):
            estimate_outage_coupled(
                NET1, PowerSpec(**power), RS, tuple(Scheme), 20_000, seed=1, snr=1e10
            )

    def test_matches_closed_form_rayleigh(self):
        est = estimate_outage_coupled(
            NET1, PW, RS, (Scheme.DFAF,), 10**6, seed=42, snr=10.0
        ).estimates[Scheme.DFAF]
        exact = outage_sc(Scheme.DFAF, NET1, PW, RS, 10.0)
        assert est.ci_low <= exact <= est.ci_high
        assert est.failures == round(est.probability * est.trials)

    def test_df_and_adaptive_agree_in_distribution(self):
        # independent runs, overlapping 99% intervals
        a = estimate_outage_coupled(
            NET1, PW, RS, (Scheme.DFAF,), 10**6, seed=1, stream_tag=(0,), snr=10.0
        ).estimates[Scheme.DFAF]
        b = estimate_outage_coupled(
            NET1, PW, RS, (Scheme.DF,), 10**6, seed=1, stream_tag=(1,), snr=10.0
        ).estimates[Scheme.DF]
        assert a.ci_low <= b.ci_high and b.ci_low <= a.ci_high

    def test_mrc_ordering_with_coupled_trials(self):
        coupled = estimate_outage_coupled(
            NET3,
            PW,
            RS,
            (Scheme.DFAF, Scheme.DF, Scheme.AF),
            10**6,
            seed=11,
            combiner=Combiner.MRC,
            snr=10.0,
        )
        assert coupled.dominance_violations[Scheme.DF] == 0
        assert coupled.dominance_violations[Scheme.AF] == 0
        adaptive = coupled.estimates[Scheme.DFAF]
        assert adaptive.ci_high < coupled.estimates[Scheme.DF].ci_low
        assert adaptive.ci_high < coupled.estimates[Scheme.AF].ci_low

    def test_reproducible_same_seed(self):
        kwargs = dict(trials=100_000, seed=5, snr=10.0)
        a = estimate_outage_coupled(NET1, PW, RS, (Scheme.DFAF,), **kwargs)
        b = estimate_outage_coupled(NET1, PW, RS, (Scheme.DFAF,), **kwargs)
        assert a == b

    def test_worker_count_does_not_change_counts(self):
        a = estimate_outage_coupled(
            NET1, PW, RS, (Scheme.DFAF,), 200_000, seed=5, workers=1, snr=10.0
        )
        b = estimate_outage_coupled(
            NET1, PW, RS, (Scheme.DFAF,), 200_000, seed=5, workers=3, snr=10.0
        )
        assert a.estimates[Scheme.DFAF].failures == b.estimates[Scheme.DFAF].failures

    def test_workers_are_threads_of_this_process(self, monkeypatch):
        # more workers than cores, switching threads often, give the serial
        # counts and violations and start no child process
        def refuse(*args, **kwargs):
            raise AssertionError("an estimate started a child process")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        args = (NET3, PW, RS, tuple(Scheme), 5 * BLOCK_SIZE)
        serial = estimate_outage_coupled(*args, seed=5, workers=1, snr=10.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = estimate_outage_coupled(*args, seed=5, workers=5, snr=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_worker_thread_exception_reaches_the_caller(self, monkeypatch):
        # the second block range fails on its own thread; the estimate
        # raises that exception and leaves no thread running
        draw = montecarlo.sample_snr

        def fail_off_main_thread(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("draw failed off the main thread")
            return draw(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "sample_snr", fail_off_main_thread)
        running = threading.active_count()
        with pytest.raises(RuntimeError, match="off the main thread"):
            estimate_outage_coupled(
                NET1, PW, RS, (Scheme.DFAF,), 2 * BLOCK_SIZE, seed=1, workers=2, snr=10.0
            )
        assert threading.active_count() == running

    def test_first_range_exception_wins(self, monkeypatch):
        # every range fails, the later ones after the first; the first
        # range's exception is raised once all threads have ended
        def fail(*args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                raise ValueError("first range")
            time.sleep(0.1)
            raise RuntimeError("later range")

        monkeypatch.setattr(montecarlo, "sample_snr", fail)
        running = threading.active_count()
        with pytest.raises(ValueError, match="first range"):
            estimate_outage_coupled(
                NET1, PW, RS, (Scheme.DFAF,), 3 * BLOCK_SIZE, seed=1, workers=3, snr=10.0
            )
        assert threading.active_count() == running

    def test_stream_tags_give_distinct_runs(self):
        a = estimate_outage_coupled(
            NET1, PW, RS, (Scheme.DFAF,), 10**5, seed=5, stream_tag=(0,), snr=10.0
        )
        b = estimate_outage_coupled(
            NET1, PW, RS, (Scheme.DFAF,), 10**5, seed=5, stream_tag=(1,), snr=10.0
        )
        assert a.estimates[Scheme.DFAF].failures != b.estimates[Scheme.DFAF].failures

    @pytest.mark.parametrize("combiner", list(Combiner))
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_coupled_counts_equal_single_scheme_runs(self, combiner, k):
        # the kernel shares each relay's decode mask and amplified SNR
        # between schemes; no scheme's count may depend on the others
        net = from_shapes(0.5, [1, 1.5, 2][:k], [2, 1, 0.5][:k])
        args = (net, PW, RS)
        kwargs = dict(trials=20_000, seed=8, combiner=combiner, stream_tag=(k, 4), snr=3.0)
        coupled = estimate_outage_coupled(*args, tuple(Scheme), **kwargs)
        for s in Scheme:
            alone = estimate_outage_coupled(*args, (s,), **kwargs).estimates[s]
            assert alone.failures == coupled.estimates[s].failures

    def test_memory_is_flat_in_relay_count(self):
        # one block of every scheme: relays are drawn and folded one at a
        # time, so eight relays trace no more memory than two
        def traced_peak(k):
            tracemalloc.start()
            try:
                estimate_outage_coupled(
                    rayleigh(k), PW, RS, tuple(Scheme),
                    BLOCK_SIZE, seed=1, combiner=Combiner.MRC, workers=1, snr=10.0,
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(8) <= 1.1 * traced_peak(2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_buffers_are_strip_sized(self, workers):
        # four blocks of three schemes under MRC: each worker holds eight
        # float rows of CHUNK_SIZE, not of BLOCK_SIZE (about 4.2 MB each)
        bound = (1 << 20) + workers * 8 * CHUNK_SIZE * 8 * 1.5
        tracemalloc.start()
        try:
            estimate_outage_coupled(
                NET3, PW, RS, tuple(Scheme), 4 * BLOCK_SIZE,
                seed=1, combiner=Combiner.MRC, workers=workers, snr=10.0,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_repeat_estimate_faults_few_pages(self):
        # each worker draws and folds every block into one set of buffers,
        # so a repeat estimate maps little new memory (about 1,000 pages
        # at most); arrays allocated afresh per block took about 16,800
        resource = pytest.importorskip("resource")
        if not sys.platform.startswith("linux"):
            pytest.skip("minor page faults are counted as on Linux")
        args = (NET3, PW, RS, tuple(Scheme), 10**6)
        kwargs = dict(seed=11, combiner=Combiner.MRC, workers=1, snr=10.0)
        estimate_outage_coupled(*args, **kwargs)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        estimate_outage_coupled(*args, **kwargs)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 4000

    def test_minimum_trials_enforced(self):
        with pytest.raises(ValueError):
            estimate_outage_coupled(NET1, PW, RS, (Scheme.DFAF,), 999, seed=1)

    @pytest.mark.parametrize("workers", [0, -4])
    def test_workers_must_be_positive(self, workers):
        with pytest.raises(ValueError, match="worker"):
            estimate_outage_coupled(NET1, PW, RS, (Scheme.DFAF,), 10**4, seed=1, workers=workers)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5])
    def test_confidence_checked_before_any_draw(self, monkeypatch, confidence):
        def refuse(*args, **kwargs):
            raise AssertionError("drew trials for an invalid confidence")

        monkeypatch.setattr(montecarlo, "sample_snr", refuse)
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
        # a scheme listed twice had its failures counted twice on the
        # shared draws, doubling the estimate
        with pytest.raises(ValueError, match="at most once"):
            estimate_outage_coupled(NET1, PW, RS, (Scheme.DFAF, Scheme.DFAF), 10**4, seed=1)


def curve_scenario(net, grid, trials, seed, outputs=("montecarlo",)):
    # one scheme, coupled: grid point idx draws from the streams tagged (idx,)
    return Curve(
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
            net = rayleigh(k)
            estimates[k] = estimate_outage_coupled(
                net, PW, RS, (Scheme.DFAF,),
                10**6, seed=13, stream_tag=(k,), snr=10.0 ** 1.5,
            ).estimates[Scheme.DFAF]
        assert estimates[2].ci_high < estimates[1].ci_low
        assert estimates[3].ci_high < estimates[2].ci_low

    def test_matches_analytic_pointwise(self):
        grid = [0.0, 5.0, 10.0, 15.0]
        rows = run_scenario(
            curve_scenario(NET3, grid, 10**6, seed=2026, outputs=("analytic", "montecarlo"))
        )
        for r in rows:
            snr = 10.0 ** (r.snr_db / 10.0)
            assert r.outage_analytic == outage_sc(Scheme.DFAF, NET3, PW, RS, snr)
            assert r.mc_ci_low <= r.outage_analytic <= r.mc_ci_high

    def test_warns_on_few_failures(self):
        with pytest.warns(UserWarning, match="unreliable"):
            run_scenario(curve_scenario(NET1, [25.0], 2000, seed=4))
