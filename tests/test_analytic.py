"""Closed-form outage checks: hand-evaluated values, cross-validation of
the two AF path CDF routes, asymptotics, coding gain, and bounds.

The frozen AF CDF value 0.5946916379538068 was computed with
af_path_cdf_quadrature and agrees with the one-term Bessel expression for
the all-Rayleigh case.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.special import gammainc

from opprelay.analytic import (
    ClosedFormUnavailableError,
    RateSpec,
    _power_law,
    af_bounds,
    af_path_cdf,
    af_path_cdf_closed,
    af_path_cdf_quadrature,
    asymptotic_outage_dfaf,
    coding_gain_dfaf,
    diversity_order_dfaf,
    outage_af_sc,
    outage_df_sc,
    outage_dfaf_sc,
)
from opprelay.channel import ChannelSpec, LinkSnr, NetworkSpec, PowerSpec, make_stream, sample_snr

RS = RateSpec(rate=1.0)
PW = PowerSpec.equal()


def db(x: float) -> float:
    return 10.0 ** (x / 10.0)


class TestRateSpec:
    def test_delta_derivation(self):
        assert RateSpec(rate=1.0).delta == 3.0
        assert RateSpec(rate=0.5).delta == 1.0
        assert RateSpec(rate=2.0).delta == 15.0

    def test_gamma_th_defaults_to_delta(self):
        assert RateSpec(rate=1.0).gamma_th == 3.0
        assert RateSpec(rate=1.0, gamma_th=5.0).gamma_th == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RateSpec(rate=0.0)
        with pytest.raises(ValueError):
            RateSpec(rate=1.0, gamma_th=-1.0)


class TestExactOutage:
    def test_hand_value_rayleigh_k1(self):
        # direct evaluation with exponential CDFs at transmit SNR 10
        e = math.exp(-0.3)
        hand = (1 - e) * (e * (1 - e) + (1 - e))
        assert outage_dfaf_sc(NetworkSpec.rayleigh(1), PW, RS, 10.0) == pytest.approx(
            hand, abs=1e-15
        )
        assert hand == pytest.approx(0.11694, abs=1e-5)

    def test_no_relays_reduces_to_direct_link(self):
        net = NetworkSpec(direct=ChannelSpec(m=1.0))
        assert outage_dfaf_sc(net, PW, RS, 10.0) == pytest.approx(
            1 - math.exp(-0.3), rel=1e-12
        )

    def test_monotone_decreasing_in_snr(self):
        net = NetworkSpec.rayleigh(2)
        values = [outage_dfaf_sc(net, PW, RS, db(s)) for s in range(0, 61, 5)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-9

    def test_monotone_in_gamma_th(self):
        net = NetworkSpec.from_shapes(0.5, [1.0, 2.0], [1.0, 1.0])
        ths = [0.5, 1.0, 2.0, 3.0, 6.0]
        vals = [
            outage_dfaf_sc(net, PW, RateSpec(rate=1.0, gamma_th=t), 50.0) for t in ths
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_probability_range_random_configs(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            k = int(rng.integers(0, 4))
            net = NetworkSpec.from_shapes(
                float(rng.uniform(0.5, 3.0)),
                list(rng.uniform(0.5, 3.0, k)),
                list(rng.uniform(0.5, 3.0, k)),
            )
            snr = float(rng.uniform(0.1, 1e4))
            p = outage_dfaf_sc(net, PW, RS, snr)
            assert 0.0 <= p <= 1.0

    def test_df_identical_to_dfaf(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            k = int(rng.integers(0, 4))
            net = NetworkSpec.from_shapes(
                float(rng.uniform(0.5, 3.0)),
                list(rng.uniform(0.5, 3.0, k)),
                list(rng.uniform(0.5, 3.0, k)),
            )
            snr = float(rng.uniform(0.1, 1e4))
            assert outage_df_sc(net, PW, RS, snr) == outage_dfaf_sc(net, PW, RS, snr)


class TestAfPathCdf:
    def test_zero(self):
        h = LinkSnr(mean_snr=10.0, m=1.0)
        assert af_path_cdf_closed(h, h, 0.0) == 0.0
        assert af_path_cdf_quadrature(h, h, 0.0) == 0.0

    def test_frozen_rayleigh_value(self):
        h = LinkSnr(mean_snr=10.0, m=1.0)
        assert af_path_cdf_closed(h, h, 3.0) == pytest.approx(
            0.5946916379538068, abs=1e-8
        )

    def test_large_y_saturates(self):
        h = LinkSnr(mean_snr=10.0, m=1.0)
        assert af_path_cdf_closed(h, h, 1e4) == pytest.approx(1.0, abs=1e-6)

    def test_bessel_argument_where_k_underflows(self):
        # rate 1000/sqrt(12) per hop at y = 3 puts the Bessel argument
        # z = 2 sqrt(a1 a2 y (y + 1)) at 2000, where K_n(z) itself underflows
        # to zero; the scaled log form keeps every term finite
        h = LinkSnr(mean_snr=2.0 * math.sqrt(12.0) / 1000.0, m=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            closed = af_path_cdf_closed(h, h, 3.0)
        assert math.isfinite(closed)
        assert abs(closed - af_path_cdf_quadrature(h, h, 3.0)) <= 1e-8

    def test_non_integer_shape_rejected(self):
        good = LinkSnr(mean_snr=10.0, m=2.0)
        bad = LinkSnr(mean_snr=10.0, m=0.8)
        with pytest.raises(ClosedFormUnavailableError):
            af_path_cdf_closed(bad, good, 1.0)
        with pytest.raises(ClosedFormUnavailableError):
            af_path_cdf_closed(good, bad, 1.0)

    @pytest.mark.parametrize("m1", [1, 2, 3])
    @pytest.mark.parametrize("m2", [1, 2, 3])
    @pytest.mark.parametrize("gbar", [5.0, 20.0])
    def test_closed_matches_quadrature(self, m1, m2, gbar):
        h1 = LinkSnr(mean_snr=gbar, m=float(m1))
        h2 = LinkSnr(mean_snr=gbar, m=float(m2))
        for y in (0.5, 3.0, 10.0):
            closed = af_path_cdf_closed(h1, h2, y)
            quad = af_path_cdf_quadrature(h1, h2, y)
            assert abs(closed - quad) <= 1e-8

    @pytest.mark.parametrize("m1,m2", [(1, 10), (10, 1), (5, 5), (4, 7), (10, 10)])
    def test_high_orders_match_quadrature(self, m1, m2):
        # the Bessel orders in the sum reach max(m1, m2); y spans small and
        # large Bessel arguments z = 2 sqrt(a1 a2 y (y + 1))
        h1 = LinkSnr(mean_snr=20.0, m=float(m1))
        h2 = LinkSnr(mean_snr=20.0, m=float(m2))
        for y in (0.01, 0.5, 3.0, 10.0, 40.0):
            closed = af_path_cdf_closed(h1, h2, y)
            quad = af_path_cdf_quadrature(h1, h2, y)
            assert abs(closed - quad) <= 1e-8

    def test_asymmetric_means(self):
        h1 = LinkSnr(mean_snr=5.0, m=2.0)
        h2 = LinkSnr(mean_snr=30.0, m=1.0)
        for y in (0.5, 3.0):
            assert abs(
                af_path_cdf_closed(h1, h2, y) - af_path_cdf_quadrature(h1, h2, y)
            ) <= 1e-8

    def test_quadrature_against_sampled_pairs(self):
        # KS on 1e5 amplified-path samples, Rayleigh hops; the closed form
        # serves as the fast callable and is pinned to the quadrature above
        h1 = LinkSnr(mean_snr=10.0, m=1.0)
        h2 = LinkSnr(mean_snr=15.0, m=1.0)
        rng = make_stream(61, 0)
        g1 = sample_snr(h1, rng, size=10**5)
        g2 = sample_snr(h2, rng, size=10**5)
        samples = np.sort(g1 * g2 / (g1 + g2 + 1.0))
        cdf = np.array([af_path_cdf_closed(h1, h2, float(y)) for y in samples])
        d = np.max(
            np.maximum(
                np.abs(cdf - np.arange(1, len(samples) + 1) / len(samples)),
                np.abs(cdf - np.arange(0, len(samples)) / len(samples)),
            )
        )
        assert d < 1.63 / math.sqrt(len(samples))  # 1% KS band

    def test_empirical_vs_quadrature_non_integer_shapes(self):
        h1 = LinkSnr(mean_snr=10.0, m=0.8)
        h2 = LinkSnr(mean_snr=10.0, m=1.7)
        rng = make_stream(62, 0)
        g1 = sample_snr(h1, rng, size=10**6)
        g2 = sample_snr(h2, rng, size=10**6)
        path = g1 * g2 / (g1 + g2 + 1.0)
        for y in (0.5, 2.0, 6.0):
            expected = af_path_cdf_quadrature(h1, h2, y)
            assert abs(np.mean(path < y) - expected) < 0.002

    def test_dispatch(self):
        integer = LinkSnr(mean_snr=10.0, m=2.0)
        frac = LinkSnr(mean_snr=10.0, m=0.5)
        assert af_path_cdf(integer, integer, 3.0) == af_path_cdf_closed(
            integer, integer, 3.0
        )
        assert af_path_cdf(frac, integer, 3.0) == pytest.approx(
            af_path_cdf_quadrature(frac, integer, 3.0)
        )


class TestAfOutage:
    def test_no_relays(self):
        net = NetworkSpec(direct=ChannelSpec(m=0.5))
        assert outage_af_sc(net, PW, RS, 10.0) == outage_dfaf_sc(net, PW, RS, 10.0)

    def test_single_relay_factorization(self):
        net = NetworkSpec.rayleigh(1)
        h = LinkSnr(mean_snr=10.0, m=1.0)
        expected = (1 - math.exp(-0.3)) * af_path_cdf_closed(h, h, 3.0)
        assert outage_af_sc(net, PW, RS, 10.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("snr_db", [30.0, 35.0, 40.0])
    def test_adaptive_beats_af_at_high_snr(self, snr_db):
        for k in (1, 2, 3):
            net = NetworkSpec.rayleigh(k)
            assert outage_dfaf_sc(net, PW, RS, db(snr_db)) <= outage_af_sc(
                net, PW, RS, db(snr_db)
            )

    def test_af_product_over_relays(self):
        net2 = NetworkSpec.rayleigh(2)
        h = LinkSnr(mean_snr=10.0, m=1.0)
        f = af_path_cdf_closed(h, h, 3.0)
        expected = (1 - math.exp(-0.3)) * f * f
        assert outage_af_sc(net2, PW, RS, 10.0) == pytest.approx(expected, rel=1e-12)

    def test_monotone_and_bounded(self):
        net = NetworkSpec.from_shapes(0.5, [1.0, 2.0], [2.0, 1.0])
        values = [outage_af_sc(net, PW, RS, db(s)) for s in range(0, 51, 5)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))
        ths = [1.0, 2.0, 3.0, 6.0]
        by_th = [
            outage_af_sc(net, PW, RateSpec(rate=1.0, gamma_th=t), 100.0) for t in ths
        ]
        assert all(b >= a for a, b in zip(by_th, by_th[1:]))


class TestPowerLaw:
    def test_definition(self):
        for m in (0.5, 0.8, 2.0, 3.5):
            for x in (1e-8, 1e-3, 0.3):
                expected = x**m / (m * math.gamma(m))
                assert _power_law(m, x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m", [0.5, 0.8, 1.0, 2.0, 3.0, 5.0])
    def test_small_argument_limit_of_lower_gamma(self, m):
        # P(m, x) -> x**m / (m Gamma(m)) as x -> 0; this limit is what
        # turns the exact outage into the high-SNR power law
        x = 1e-6
        assert gammainc(m, x) / _power_law(m, x) == pytest.approx(1.0, abs=1e-3)


class TestAsymptotics:
    def test_ratio_approaches_one_fig3_config(self):
        net = NetworkSpec.from_shapes(0.5, [1, 1, 2], [1, 1, 1])
        ratios = []
        for snr_db in (30, 35, 40, 45, 50):
            exact = outage_dfaf_sc(net, PW, RS, db(snr_db))
            asym = asymptotic_outage_dfaf(net, PW, RS, db(snr_db))
            ratios.append(asym / exact)
        assert abs(ratios[2] - 1.0) < 0.15  # within 15% at 40 dB
        gaps = [abs(r - 1.0) for r in ratios]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_second_hop_limited_branch(self):
        # first hop stronger (m1=2 > m2=1): the second hop's coefficient
        # applies, with gamma_th rather than the decode threshold
        net = NetworkSpec.from_shapes(1.0, [2.0], [1.0])
        snr = 1e4
        asym = asymptotic_outage_dfaf(net, PW, RS, snr)
        direct = RS.gamma_th / snr          # (m0 gth / w0)^m0 / (m0 G(m0)) snr^-1
        relay = RS.gamma_th / snr           # same form for the m2=1 hop
        assert asym == pytest.approx(direct * relay, rel=1e-12)
        result = coding_gain_dfaf(net, RS)
        assert result.per_relay_factors[0].branch == "second_hop_limited"

    def test_balanced_branch_carries_factor_two(self):
        # equal hop shapes m=1, delta=3, unit spread: relay factor 6/snr
        net = NetworkSpec.rayleigh(1)
        snr = 1e4
        asym = asymptotic_outage_dfaf(net, PW, RS, snr)
        assert asym == pytest.approx((3.0 / snr) * (6.0 / snr), rel=1e-12)
        result = coding_gain_dfaf(net, RS)
        assert result.per_relay_factors[0].branch == "balanced"
        assert result.per_relay_factors[0].coefficient == pytest.approx(6.0)

    @pytest.mark.parametrize(
        "net,rs",
        [
            (NetworkSpec.rayleigh(1), RateSpec(rate=1.0, gamma_th=6.0)),
            (
                NetworkSpec(
                    direct=ChannelSpec(m=1.0),
                    relays=((ChannelSpec(m=2.0), ChannelSpec(m=2.0, omega=10.0)),),
                ),
                RS,
            ),
        ],
        ids=["rayleigh-gamma_th-6", "m2-second-spread-10"],
    )
    def test_balanced_branch_away_from_default_binding(self, net, rs):
        # a1 delta != a2 gamma_th: each hop's own leading term counts
        exact = outage_dfaf_sc(net, PW, rs, db(70.0))
        asym = asymptotic_outage_dfaf(net, PW, rs, db(70.0))
        assert abs(asym / exact - 1.0) < 1e-2

    def test_first_hop_limited_branch(self):
        net = NetworkSpec.from_shapes(1.0, [1.0], [2.0])
        result = coding_gain_dfaf(net, RS)
        fac = result.per_relay_factors[0]
        assert fac.branch == "first_hop_limited"
        assert fac.exponent == 1.0
        assert fac.coefficient == pytest.approx(RS.delta)  # (m delta / w)^1 / (1 * 1)

    def test_unequal_power_uses_each_link_snr(self):
        # second-hop limited relay: direct link at power 4, second hop at
        # relay power 0.5, each leading term at its own link's mean SNR
        net = NetworkSpec.from_shapes(1.0, [2.0], [1.0])
        pw = PowerSpec(source_power=2.0, relay_power=0.5, direct_power=4.0)
        snr = 1e4
        asym = asymptotic_outage_dfaf(net, pw, RS, snr)
        assert asym == pytest.approx(
            (RS.gamma_th / (4.0 * snr)) * (RS.gamma_th / (0.5 * snr)), rel=1e-12
        )

    def test_converges_on_random_networks_at_any_power_split(self):
        # Not every network is within 1e-2 at 70 dB: when the limiting
        # hop is ~1e3 times stronger than its partner, the partner's
        # neglected term, one SNR order smaller, is still comparable
        # there.  Every neglected term decays at least one SNR order
        # faster than the law, so 40 dB on the gap must shrink a
        # hundredfold and be within 1e-2.
        rng = np.random.default_rng(2013)

        def link(shapes):
            omega = float(10.0 ** rng.uniform(-1.0, 1.0))
            return ChannelSpec(m=float(rng.choice(shapes)), omega=omega)

        for i in range(40):
            net = NetworkSpec(
                direct=link([0.5, 1.0, 1.5, 2.0]),
                relays=tuple((link([1, 2, 3]), link([1, 2, 3])) for _ in range(i % 5)),
            )
            source, relay, direct, n0 = (float(x) for x in rng.uniform(0.3, 3.0, 4))
            pw = PowerSpec(source, relay, n0, direct)
            rs = RateSpec(rate=1.0, gamma_th=RS.delta * float(rng.uniform(1.0, 3.0)))
            gap = {
                x: abs(
                    asymptotic_outage_dfaf(net, pw, rs, db(x))
                    / outage_dfaf_sc(net, pw, rs, db(x))
                    - 1.0
                )
                for x in (70.0, 110.0)
            }
            assert gap[110.0] <= min(1e-2, 1e-2 * gap[70.0] + 1e-12), (i, gap)

    def test_decode_failure_term_deep_in_outage(self):
        # at 70 dB the first hop's decode failure P(3, a1 delta) ~ 1e-21
        # is the relay factor's leading term; 1 - Q(3, .) would lose it
        net = NetworkSpec.from_shapes(1.0, [3.0], [4.0])
        exact = outage_dfaf_sc(net, PW, RS, db(70.0))
        asym = asymptotic_outage_dfaf(net, PW, RS, db(70.0))
        assert abs(asym / exact - 1.0) < 1e-3

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fig4_configs_within_15_percent_at_40db(self, k):
        net = NetworkSpec.from_shapes(0.8, [1.0] * k, [1.0] * k)
        exact = outage_dfaf_sc(net, PW, RS, db(40.0))
        asym = asymptotic_outage_dfaf(net, PW, RS, db(40.0))
        assert abs(asym / exact - 1.0) < 0.15


class TestCodingGainAndDiversity:
    def test_fig3_diversity(self):
        net = NetworkSpec.from_shapes(0.5, [1, 1, 2], [1, 1, 1])
        assert coding_gain_dfaf(net, RS).diversity_order == pytest.approx(3.5)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_rayleigh_relays_add_k(self, k):
        net = NetworkSpec.from_shapes(0.8, [1.0] * k, [1.0] * k)
        assert coding_gain_dfaf(net, RS).diversity_order == pytest.approx(0.8 + k)

    def test_no_relays(self):
        net = NetworkSpec(direct=ChannelSpec(m=0.5))
        result = coding_gain_dfaf(net, RS)
        assert result.diversity_order == 0.5
        expected = (0.5 * 3.0) ** 0.5 / (0.5 * math.gamma(0.5))
        assert result.coding_gain == pytest.approx(expected, rel=1e-12)
        assert result.per_relay_factors == ()

    def test_diversity_order_matches_coding_gain(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            k = int(rng.integers(0, 4))
            net = NetworkSpec.from_shapes(
                float(rng.uniform(0.5, 3.0)),
                list(rng.uniform(0.5, 3.0, k)),
                list(rng.uniform(0.5, 3.0, k)),
            )
            assert diversity_order_dfaf(net) == pytest.approx(
                coding_gain_dfaf(net, RS).diversity_order
            )

    def test_asymptote_matches_coding_gain_power_law(self):
        net = NetworkSpec.from_shapes(0.5, [1, 1, 2], [1, 1, 1])
        result = coding_gain_dfaf(net, RS)
        snr = 1e4
        predicted = result.coding_gain * snr ** (-result.diversity_order)
        assert asymptotic_outage_dfaf(net, PW, RS, snr) == pytest.approx(
            predicted, rel=1e-12
        )


class TestSlopeLaw:
    @pytest.mark.parametrize(
        "net,d",
        [
            (NetworkSpec.from_shapes(0.5, [1, 1, 2], [1, 1, 1]), 3.5),
            (NetworkSpec.from_shapes(0.8, [1, 1], [1, 1]), 2.8),
            (NetworkSpec.from_shapes(0.5, [1.5, 1.5], [1.0, 1.0]), 2.5),
        ],
    )
    def test_fitted_slope_matches_diversity(self, net, d):
        xs = np.arange(35.0, 45.5, 1.0)
        ys = [outage_dfaf_sc(net, PW, RS, db(x)) for x in xs]
        slope = -np.polyfit(xs / 10.0, np.log10(ys), 1)[0]
        assert abs(slope - d) <= 0.15


class TestAfBounds:
    def test_ratio_exact(self):
        h1 = LinkSnr(mean_snr=1e4, m=2.0)
        h2 = LinkSnr(mean_snr=1e4, m=3.0)
        b = af_bounds(h1, h2, RS)
        assert b.upper / b.lower == pytest.approx(2.0**b.m_min, rel=1e-12)
        assert b.m_min == 2.0

    def test_min_side_selection(self):
        h1 = LinkSnr(mean_snr=50.0, m=1.0)
        h2 = LinkSnr(mean_snr=80.0, m=2.0)
        b = af_bounds(h1, h2, RS)
        assert b.m_min == 1.0
        assert b.mean_snr_min == 50.0

    @pytest.mark.parametrize("m1,m2", [(1, 1), (1, 2), (2, 3)])
    def test_squeeze_at_40db(self, m1, m2):
        snr = db(40.0)
        h1 = LinkSnr(mean_snr=snr, m=float(m1))
        h2 = LinkSnr(mean_snr=snr, m=float(m2))
        b = af_bounds(h1, h2, RS)
        f = af_path_cdf_closed(h1, h2, RS.gamma_th)
        ratio = f / b.lower
        assert 1.0 - 0.1 <= ratio <= 2.0**b.m_min * 1.1
