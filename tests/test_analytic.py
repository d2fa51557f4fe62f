"""Closed-form outage checks: hand-evaluated values, the AF path CDF
quadrature against frozen 80-digit values and against the paper's Bessel
sum, the DFAF factor below delta against frozen 40-digit values and
coupled Monte Carlo, DFAF's dominance over DF and AF, asymptotics, coding
gain, and bounds.

The frozen AF CDF value 0.5946916379538068 was computed with
af_path_cdf_quadrature and agrees with the one-term Bessel expression for
the all-Rayleigh case.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammainc, gammaincc

import opprelay
from opprelay.analytic import (
    ClosedFormUnavailableError,
    QuadratureError,
    RateSpec,
    Scheme,
    _amplified_sum,
    _gammainc_is_one_above,
    _power_law,
    af_bounds,
    af_path_cdf_closed,
    af_path_cdf_quadrature,
    asymptotic_outage,
    asymptotic_outage_point,
    diversity_order_dfaf,
    outage_sc,
    outage_sc_point,
)
from opprelay.channel import (
    ChannelSpec,
    LinkSnr,
    NetworkSpec,
    PowerSpec,
    make_stream,
    network_link_snrs,
    sample_snr,
    snr_cdf,
)
from opprelay.montecarlo import estimate_outage_coupled

from nets import from_shapes, rayleigh

RS = RateSpec(rate=1.0)
PW = PowerSpec()


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
        with pytest.raises(ValueError):
            RateSpec(rate=math.inf)


class TestExactOutage:
    def test_hand_value_rayleigh_k1(self):
        # direct evaluation with exponential CDFs at transmit SNR 10
        e = math.exp(-0.3)
        hand = (1 - e) * (e * (1 - e) + (1 - e))
        assert outage_sc(Scheme.DFAF, rayleigh(1), PW, RS, 10.0) == pytest.approx(
            hand, abs=1e-15
        )
        assert hand == pytest.approx(0.11694, abs=1e-5)

    def test_no_relays_reduces_to_direct_link(self):
        net = NetworkSpec(direct=ChannelSpec(m=1.0))
        assert outage_sc(Scheme.DFAF, net, PW, RS, 10.0) == pytest.approx(
            1 - math.exp(-0.3), rel=1e-12
        )

    def test_monotone_decreasing_in_snr(self):
        net = rayleigh(2)
        values = [outage_sc(Scheme.DFAF, net, PW, RS, db(s)) for s in range(0, 61, 5)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-9

    def test_monotone_in_gamma_th(self):
        net = from_shapes(0.5, [1.0, 2.0], [1.0, 1.0])
        ths = [0.5, 1.0, 2.0, 3.0, 6.0]
        vals = [
            outage_sc(Scheme.DFAF, net, PW, RateSpec(rate=1.0, gamma_th=t), 50.0) for t in ths
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_probability_range_random_configs(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            k = int(rng.integers(0, 4))
            net = from_shapes(
                float(rng.uniform(0.5, 3.0)),
                list(rng.uniform(0.5, 3.0, k)),
                list(rng.uniform(0.5, 3.0, k)),
            )
            snr = float(rng.uniform(0.1, 1e4))
            p = outage_sc(Scheme.DFAF, net, PW, RS, snr)
            assert 0.0 <= p <= 1.0

    def test_df_identical_to_dfaf(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            k = int(rng.integers(0, 4))
            net = from_shapes(
                float(rng.uniform(0.5, 3.0)),
                list(rng.uniform(0.5, 3.0, k)),
                list(rng.uniform(0.5, 3.0, k)),
            )
            snr = float(rng.uniform(0.1, 1e4))
            df, dfaf = (outage_sc(x, net, PW, RS, snr) for x in (Scheme.DF, Scheme.DFAF))
            assert df == dfaf


# P(g1 g2 / (g1 + g2 + 1) < 3) for hops (m1, mean SNR dB, m2, mean SNR dB),
# frozen from an 80-digit mpmath evaluation of the same split the
# quadrature uses: P(m1, a1 y) plus the tail integral in v = ln t, by
# tanh-sinh on unit intervals from ln(a2 y (y + 1)) - 70 to
# ln((m1 + 250) / a1) + 3.  For integer shapes it agrees with the Bessel
# sum, also at 80 digits, to 4e-31 relative.
AF_CDF_ORACLE = [
    (0.5, 0.0, 0.5, 0.0, 0.9996661741218413832),
    (0.5, 20.0, 0.5, 20.0, 0.27443507300808964224),
    (0.5, 40.0, 0.5, 40.0, 0.027680763918801578406),
    (0.5, 60.0, 0.5, 60.0, 0.0027644276802647535962),
    (1.0, 0.0, 1.0, 0.0, 0.9999915721745505314),
    (1.0, 20.0, 1.0, 20.0, 0.065666944735666646479),
    (1.0, 40.0, 1.0, 40.0, 0.00060171266133480484589),
    (1.0, 60.0, 1.0, 60.0, 6.0002818984342421156e-6),
    (1.5, 0.0, 1.5, 0.0, 0.99999979194168183998),
    (1.5, 20.0, 1.5, 20.0, 0.016172230344520674845),
    (1.5, 40.0, 1.5, 40.0, 1.4383854313164806088e-5),
    (1.5, 60.0, 1.5, 60.0, 1.4362141828131466701e-8),
    (2.0, 0.0, 2.0, 0.0, 0.99999999480342374919),
    (2.0, 20.0, 2.0, 20.0, 0.0040878651646312780952),
    (2.0, 40.0, 2.0, 40.0, 3.6043539045096861327e-7),
    (2.0, 60.0, 2.0, 60.0, 3.6000432060494421106e-11),
    (2.5, 0.0, 2.5, 0.0, 0.99999999986859994209),
    (2.5, 20.0, 2.5, 20.0, 0.0010548896601386173529),
    (2.5, 40.0, 2.5, 40.0, 9.2811014931721795578e-9),
    (2.5, 60.0, 2.5, 60.0, 9.2706856980325511768e-14),
    (3.0, 0.0, 3.0, 0.0, 0.99999999999664365241),
    (3.0, 20.0, 3.0, 20.0, 0.00027666459930484397496),
    (3.0, 40.0, 3.0, 40.0, 2.4327396692619547213e-10),
    (3.0, 60.0, 3.0, 60.0, 2.4300273380840787302e-16),
    (4.0, 0.0, 4.0, 0.0, 0.99999999999999775997),
    (4.0, 20.0, 4.0, 20.0, 1.9715389402099998534e-5),
    (4.0, 40.0, 4.0, 40.0, 1.7300305721099241545e-13),
    (4.0, 60.0, 4.0, 60.0, 1.7280202755041386313e-21),
    (8.0, 0.0, 8.0, 0.0, 1.0),
    (8.0, 20.0, 8.0, 20.0, 6.4096144889524146903e-10),
    (8.0, 40.0, 8.0, 40.0, 5.4684150900417871701e-26),
    (8.0, 60.0, 8.0, 60.0, 5.4601682308588757659e-42),
    (0.5, 0.0, 3.0, 0.0, 0.9999994997593518191),
    (0.5, 20.0, 3.0, 20.0, 0.14196792708209828796),
    (0.5, 40.0, 3.0, 40.0, 0.013823222949982323242),
    (0.5, 60.0, 3.0, 60.0, 0.0013819800528459277776),
    (1.0, 0.0, 4.0, 0.0, 0.9999999981504385626),
    (1.0, 20.0, 4.0, 20.0, 0.031220390140411557325),
    (1.0, 40.0, 4.0, 40.0, 0.00030011505266201510781),
    (1.0, 60.0, 4.0, 60.0, 3.0000115000525016049e-6),
    (1.5, 0.0, 0.5, 0.0, 0.99998353172239750396),
    (1.5, 20.0, 0.5, 20.0, 0.15173000230683269696),
    (1.5, 40.0, 0.5, 40.0, 0.013834529356145166781),
    (1.5, 60.0, 0.5, 60.0, 0.0013819913789908282602),
    (1.5, 20.0, 2.5, 50.0, 0.0069908417521455641546),
    (2.0, -10.0, 1.0, -10.0, 1.0),
    (2.0, 0.0, 1.0, 0.0, 0.9999996744968593945),
    (2.0, 20.0, 1.0, 20.0, 0.034184302152189928732),
    (2.0, 40.0, 1.0, 40.0, 0.00030037683294008564507),
    (2.0, 60.0, 1.0, 60.0, 3.0000375031614519726e-6),
    (2.5, 0.0, 1.5, 0.0, 0.99999999273157621461),
    (2.5, 20.0, 1.5, 20.0, 0.0083354601268305714756),
    (2.5, 40.0, 1.5, 40.0, 7.1908612345367882285e-6),
    (2.5, 60.0, 1.5, 60.0, 7.1810598234320828609e-9),
    (3.0, 60.0, 0.5, 10.0, 0.41611870767356890135),
    (3.0, 0.0, 8.0, 0.0, 0.99999999999999999901),
    (3.0, 20.0, 8.0, 20.0, 0.00013033105692583112464),
    (3.0, 40.0, 8.0, 40.0, 1.2158465116663917493e-10),
    (3.0, 60.0, 8.0, 60.0, 1.215008461642221807e-16),
    (4.0, 0.0, 2.5, 0.0, 0.99999999999914128361),
    (4.0, 20.0, 2.5, 20.0, 0.00051543082520618977219),
    (4.0, 40.0, 2.5, 40.0, 4.6390776825437949213e-9),
    (4.0, 60.0, 2.5, 60.0, 4.6353274829896384625e-14),
    (8.0, 0.0, 3.0, 0.0, 0.99999999999999999901),
    (8.0, 20.0, 3.0, 20.0, 0.00013033105692583112464),
    (8.0, 40.0, 3.0, 40.0, 1.2158465116663917493e-10),
    (8.0, 60.0, 3.0, 60.0, 1.215008461642221807e-16),
    # Large shapes, whose factors turn over within about 1/sqrt(m) in v;
    # frozen from the Bessel sum at 250 digits (in double precision it
    # reads 0.0 at (20, 20) through its 1 - sum).
    (14.0, 32.5, 1.0, 32.5, 0.0016896895357660100707),
    (16.0, 45.0, 1.0, 45.0, 9.4876630120824228664e-05),
    (20.0, 50.0, 1.0, 50.0, 3.0000813166605178624e-05),
    (20.0, 52.5, 20.0, 52.5, 3.0060520235048733699e-88),
]


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

    @pytest.mark.parametrize(
        "m1,db1,m2,db2,expected",
        AF_CDF_ORACLE,
        ids=[f"{r[0]}@{r[1]:g}dB-{r[2]}@{r[3]:g}dB" for r in AF_CDF_ORACLE],
    )
    def test_quadrature_matches_80_digit_oracle(self, m1, db1, m2, db2, expected):
        h1 = LinkSnr(mean_snr=db(db1), m=m1)
        h2 = LinkSnr(mean_snr=db(db2), m=m2)
        assert af_path_cdf_quadrature(h1, h2, 3.0) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_cached_value_is_still_certified(self, monkeypatch):
        h1, h2 = LinkSnr(mean_snr=10.0, m=2.0), LinkSnr(mean_snr=20.0, m=1.5)
        af_path_cdf_quadrature(h1, h2, 3.0)
        hits = _amplified_sum.cache_info().hits
        # the sum is memoised, and no error estimate is below zero, so the
        # cached value must still refuse
        monkeypatch.setattr("opprelay.analytic.AF_QUAD_TOL", -1.0)
        with pytest.raises(QuadratureError, match="AF path CDF error estimate"):
            af_path_cdf_quadrature(h1, h2, 3.0)
        assert _amplified_sum.cache_info().hits == hits + 1

    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 1.7, 2.0, 4.0, 10.0, 25.0, 60.0])
    def test_gammainc_is_exactly_one_past_the_skip(self, m):
        # the amplified sum skips gammainc(m2, z) at z > z*(m2), so it must
        # be exactly 1.0 there; z* is where the upper-tail bound
        # z^(m-1) e^-z / Gamma(m) max(1, z / (z - m + 1)) crosses 2^-55
        z_star = _gammainc_is_one_above(m)
        z = np.geomspace(1e-2, 1e4, 6001)
        assert (gammainc(m, z[z > z_star]) == 1.0).all()
        z = z[z >= max(m - 1.0, 0.0) + 1.0]
        bound = np.exp(
            (m - 1.0) * np.log(z) - z - math.lgamma(m)
            + np.log(np.maximum(1.0, z / (z - m + 1.0)))
        )
        # at m = 1 the bound is e^-z itself, Q's own value
        slack = 1.0 + 1e-12 if m == 1.0 else 1.0
        assert (gammaincc(m, z) <= bound * slack).all()
        np.testing.assert_array_equal(z > z_star, bound < 2.0**-55)

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

    def test_import_leaves_scipy_integrate_unloaded(self):
        # the quadrature is the package's own rule; scipy.integrate would
        # add about 0.4 s to every CLI start
        src = str(Path(opprelay.__file__).parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        code = "import sys, opprelay; print('scipy.integrate' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "False"

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


class TestAfOutage:
    @pytest.mark.parametrize(
        "m,snr_db,expected",
        [(4.0, 50.0, 5.1845305789228479206e-22), (8.0, 30.0, 1.6607953574141004164e-20)],
        ids=["m4-50dB", "m8-30dB"],
    )
    def test_integer_shapes_deep_in_outage(self, m, snr_db, expected):
        # Rayleigh direct link times the AF path CDF of AF_CDF_ORACLE's
        # method, whose value (1.7e-17 and 5.5e-18) is beyond what a
        # 1 - sum closed form resolves
        net = from_shapes(1.0, [m], [m])
        got = outage_sc(Scheme.AF, net, PW, RS, db(snr_db))
        assert got == pytest.approx(expected, rel=1e-12, abs=0)

    def test_no_relays(self):
        net = NetworkSpec(direct=ChannelSpec(m=0.5))
        af, dfaf = (outage_sc(x, net, PW, RS, 10.0) for x in (Scheme.AF, Scheme.DFAF))
        assert af == dfaf

    def test_single_relay_factorization(self):
        net = rayleigh(1)
        h = LinkSnr(mean_snr=10.0, m=1.0)
        expected = (1 - math.exp(-0.3)) * af_path_cdf_closed(h, h, 3.0)
        assert outage_sc(Scheme.AF, net, PW, RS, 10.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("snr_db", [30.0, 35.0, 40.0])
    def test_adaptive_beats_af_at_high_snr(self, snr_db):
        for k in (1, 2, 3):
            net = rayleigh(k)
            x = db(snr_db)
            assert outage_sc(Scheme.DFAF, net, PW, RS, x) <= outage_sc(Scheme.AF, net, PW, RS, x)

    def test_af_product_over_relays(self):
        net2 = rayleigh(2)
        h = LinkSnr(mean_snr=10.0, m=1.0)
        f = af_path_cdf_closed(h, h, 3.0)
        expected = (1 - math.exp(-0.3)) * f * f
        assert outage_sc(Scheme.AF, net2, PW, RS, 10.0) == pytest.approx(expected, rel=1e-12)

    def test_monotone_and_bounded(self):
        net = from_shapes(0.5, [1.0, 2.0], [2.0, 1.0])
        values = [outage_sc(Scheme.AF, net, PW, RS, db(s)) for s in range(0, 51, 5)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))
        ths = [1.0, 2.0, 3.0, 6.0]
        by_th = [
            outage_sc(Scheme.AF, net, PW, RateSpec(rate=1.0, gamma_th=t), 100.0) for t in ths
        ]
        assert all(b >= a for a, b in zip(by_th, by_th[1:]))


# One relay's DFAF path-failure factor below delta, frozen at 40 digits by
# tests/dfaf_oracle.py (its docstring says how to rerun it).
DFAF_ORACLE = json.loads(
    (Path(__file__).parent / "golden" / "dfaf_below_delta.json").read_text(encoding="utf-8")
)


class TestDfafBelowDelta:
    # Below delta a relay that cannot decode still amplifies, so the
    # adaptive scheme's factor is not the DF one.

    @pytest.mark.parametrize(
        "row",
        DFAF_ORACLE,
        ids=[
            f"{r['m1']}@{r['snr1_db']:g}dB-{r['m2']}@{r['snr2_db']:g}dB"
            f"-R{r['rate']:g}-th{r['gamma_th']:.10g}"
            for r in DFAF_ORACLE
        ],
    )
    def test_factor_matches_40_digit_oracle(self, row):
        # At unit power, noise and snr each hop's spread is its mean SNR,
        # and a direct link of vanishing power misses with probability
        # exactly 1.0, so the outage is the relay's factor itself.
        first = ChannelSpec(m=row["m1"], omega=db(row["snr1_db"]))
        second = ChannelSpec(m=row["m2"], omega=db(row["snr2_db"]))
        net = NetworkSpec(direct=ChannelSpec(m=1.0), relays=((first, second),))
        power = PowerSpec(direct_power=1e-300)
        rs = RateSpec(rate=row["rate"], gamma_th=row["gamma_th"])
        assert rs.gamma_th < rs.delta
        assert outage_sc(Scheme.DFAF, NetworkSpec(direct=net.direct), power, rs, 1.0) == 1.0
        got = outage_sc(Scheme.DFAF, net, power, rs, 1.0)
        assert got == pytest.approx(float(row["factor"]), rel=1e-12, abs=0)

    def test_rayleigh_point_inside_coupled_interval(self):
        # Rayleigh K=1 at 10 dB, gamma_th = 1 < delta = 3: the DF outage
        # 0.03137 lies far outside the adaptive scheme's interval
        net, rs = rayleigh(1), RateSpec(rate=1.0, gamma_th=1.0)
        exact = {s: outage_sc(s, net, PW, rs, 10.0) for s in Scheme}
        assert exact[Scheme.DFAF] == pytest.approx(0.0213262, abs=1e-7)
        est = estimate_outage_coupled(
            net, PW, rs, tuple(Scheme), 10**6, seed=2027, snr=10.0
        ).estimates
        for s in Scheme:
            assert est[s].ci_low <= exact[s] <= est[s].ci_high, s
        assert est[Scheme.DFAF].ci_high < exact[Scheme.DF]

    def test_adaptive_dominates_on_random_networks(self):
        # selecting DF or AF per relay never does worse than either alone
        rng = np.random.default_rng(1301)

        def link():
            omega = float(10.0 ** rng.uniform(-1.0, 1.0))
            return ChannelSpec(m=float(rng.uniform(0.5, 4.0)), omega=omega)

        below = 0
        for i in range(200):
            relays = tuple((link(), link()) for _ in range(1 + i % 4))
            net = NetworkSpec(direct=link(), relays=relays)
            source, relay, direct = (float(x) for x in 10.0 ** rng.uniform(-1.0, 1.0, 3))
            pw = PowerSpec(source, relay, 1.0, direct)
            rs = RateSpec(rate=1.0, gamma_th=RS.delta * float(3.0 ** rng.uniform(-1.0, 1.0)))
            below += rs.gamma_th < rs.delta
            x = db(float(rng.uniform(0.0, 40.0)))
            p = {s: outage_sc(s, net, pw, rs, x) for s in Scheme}
            assert p[Scheme.DFAF] <= min(p[Scheme.DF], p[Scheme.AF]) * (1.0 + 1e-12), (i, p)
        assert 50 <= below <= 150


class TestPowerLaw:
    def test_definition(self):
        for m in (0.5, 0.8, 2.0, 3.5):
            for x in (1e-8, 1e-3, 0.3):
                expected = x**m / (m * math.gamma(m))
                assert _power_law(m, x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("scheme", list(Scheme), ids=[x.value for x in Scheme])
    @pytest.mark.parametrize("power", [{"source_power": 1e300}, {"relay_power": 1e300}])
    def test_overflowing_mean_snr_is_refused(self, scheme, power):
        # AF's closed form divided by zero, DF's and DFAF's read 0.0, and
        # the law hit a math domain error
        for fn in (outage_sc, asymptotic_outage):
            with pytest.raises(ValueError, match="got inf"):
                fn(scheme, rayleigh(1), PowerSpec(**power), RS, 1e10)

    def test_overflow_names_shape_and_argument(self):
        with pytest.raises(OverflowError, match=r"m=20.0, argument 6e\+16"):
            _power_law(20.0, 6e16)

    @pytest.mark.parametrize("m", [0.5, 0.8, 1.0, 2.0, 3.0, 5.0])
    def test_small_argument_limit_of_lower_gamma(self, m):
        # P(m, x) -> x**m / (m Gamma(m)) as x -> 0; this limit is what
        # turns the exact outage into the high-SNR power law
        x = 1e-6
        assert gammainc(m, x) / _power_law(m, x) == pytest.approx(1.0, abs=1e-3)


class TestAsymptotics:
    def test_ratio_approaches_one_fig3_config(self):
        net = from_shapes(0.5, [1, 1, 2], [1, 1, 1])
        ratios = []
        for snr_db in (30, 35, 40, 45, 50):
            exact = outage_sc(Scheme.DFAF, net, PW, RS, db(snr_db))
            asym = asymptotic_outage(Scheme.DFAF, net, PW, RS, db(snr_db))
            ratios.append(asym / exact)
        assert abs(ratios[2] - 1.0) < 0.15  # within 15% at 40 dB
        gaps = [abs(r - 1.0) for r in ratios]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_second_hop_limited_branch(self):
        # first hop stronger (m1=2 > m2=1): the second hop's coefficient
        # applies, with gamma_th rather than the decode threshold
        net = from_shapes(1.0, [2.0], [1.0])
        snr = 1e4
        asym = asymptotic_outage(Scheme.DFAF, net, PW, RS, snr)
        direct = RS.gamma_th / snr          # (m0 gth / w0)^m0 / (m0 G(m0)) snr^-1
        relay = RS.gamma_th / snr           # same form for the m2=1 hop
        assert asym == pytest.approx(direct * relay, rel=1e-12)
        gain = asymptotic_outage(Scheme.DFAF, net, PowerSpec(), RS, 1.0)
        assert gain == pytest.approx(RS.gamma_th * RS.gamma_th, rel=1e-12)

    def test_balanced_branch_carries_factor_two(self):
        # equal hop shapes m=1, delta=3, unit spread: relay factor 6/snr
        net = rayleigh(1)
        snr = 1e4
        asym = asymptotic_outage(Scheme.DFAF, net, PW, RS, snr)
        assert asym == pytest.approx((3.0 / snr) * (6.0 / snr), rel=1e-12)
        gain = asymptotic_outage(Scheme.DFAF, net, PowerSpec(), RS, 1.0)
        assert gain == pytest.approx(RS.gamma_th * (RS.delta + RS.gamma_th), rel=1e-12)

    @pytest.mark.parametrize(
        "net,rs",
        [
            (rayleigh(1), RateSpec(rate=1.0, gamma_th=6.0)),
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
        exact = outage_sc(Scheme.DFAF, net, PW, rs, db(70.0))
        asym = asymptotic_outage(Scheme.DFAF, net, PW, rs, db(70.0))
        assert abs(asym / exact - 1.0) < 1e-2

    @pytest.mark.parametrize(
        "net",
        [rayleigh(1), from_shapes(0.5, [1, 1, 2], [1, 1, 1]), from_shapes(1.0, [2.0], [2.0])],
        ids=["rayleigh-K1", "fig3", "m2-balanced"],
    )
    def test_below_delta_first_hop_term_at_gamma_th(self, net):
        # below delta a relay that cannot decode still amplifies, and its
        # path misses only when g1 < gamma_th, not whenever g1 < delta
        rs = RateSpec(rate=1.0, gamma_th=1.0)
        exact = outage_sc(Scheme.DFAF, net, PW, rs, db(70.0))
        asym = asymptotic_outage(Scheme.DFAF, net, PW, rs, db(70.0))
        assert abs(asym / exact - 1.0) < 1e-5

    def test_below_delta_coding_gain(self):
        # Rayleigh K=1: direct gamma_th times the relay's gamma_th + gamma_th
        rs = RateSpec(rate=1.0, gamma_th=1.0)
        gain = asymptotic_outage(Scheme.DFAF, rayleigh(1), PowerSpec(), rs, 1.0)
        assert gain == pytest.approx(rs.gamma_th * 2.0 * rs.gamma_th, rel=1e-12)

    def test_below_delta_df_coding_gain(self):
        # Rayleigh K=1: a DF relay that cannot decode stays silent, so its
        # first-hop term stays at delta: gamma_th times delta + gamma_th,
        # 1 * (3 + 1) = 4 against the adaptive scheme's 2
        rs = RateSpec(rate=1.0, gamma_th=1.0)
        gain = asymptotic_outage(Scheme.DF, rayleigh(1), PowerSpec(), rs, 1.0)
        assert gain == pytest.approx(rs.gamma_th * (rs.delta + rs.gamma_th), rel=1e-12)
        assert gain == pytest.approx(4.0, rel=1e-12)

    def test_above_delta_af_coding_gain(self):
        # Rayleigh K=1 at gamma_th = 2 delta = 6: the amplified SNR is
        # below g1, so AF's first-hop term sits at gamma_th, 6 * (6 + 6) =
        # 72 = 2 gamma_th**2; DF's and DFAF's sits at delta, 6 * (3 + 6) = 54
        rs = RateSpec(rate=1.0, gamma_th=6.0)
        gain = {x: asymptotic_outage(x, rayleigh(1), PowerSpec(), rs, 1.0) for x in Scheme}
        assert gain[Scheme.AF] == pytest.approx(2.0 * rs.gamma_th**2, rel=1e-12)
        assert gain[Scheme.AF] == pytest.approx(72.0, rel=1e-12)
        assert gain[Scheme.DF] == gain[Scheme.DFAF] == pytest.approx(54.0, rel=1e-12)

    @pytest.mark.parametrize("gamma_th", [1.0, 3.0, 6.0])
    def test_af_law_is_the_bounds_low_end(self, gamma_th):
        # AF's law is the direct link's term times each relay's af_bounds
        # lower end, bit for bit, on either side of delta = 3
        net = NetworkSpec(
            direct=ChannelSpec(m=0.8, omega=1.7),
            relays=(
                (ChannelSpec(m=1.0, omega=0.6), ChannelSpec(m=2.0, omega=2.5)),
                (ChannelSpec(m=2.5), ChannelSpec(m=1.5, omega=0.4)),
                (ChannelSpec(m=2.0, omega=3.0), ChannelSpec(m=2.0, omega=0.9)),
            ),
        )
        pw = PowerSpec(source_power=2.0, relay_power=0.5, noise_variance=1.3, direct_power=1.5)
        rs = RateSpec(rate=1.0, gamma_th=gamma_th)
        snr = db(30.0)
        direct, relays = network_link_snrs(net, pw, snr)
        law = _power_law(direct.m, direct.rate * rs.gamma_th)
        for first, second in relays:
            law *= af_bounds(first, second, rs).lower
        assert asymptotic_outage(Scheme.AF, net, pw, rs, snr) == law

    def test_first_hop_limited_branch(self):
        net = from_shapes(1.0, [1.0], [2.0])
        assert diversity_order_dfaf(net) == 2.0
        # direct (m gth / w)^1 / (1 * 1) times the relay's (m delta / w)^1 / (1 * 1)
        gain = asymptotic_outage(Scheme.DFAF, net, PowerSpec(), RS, 1.0)
        assert gain == pytest.approx(RS.gamma_th * RS.delta, rel=1e-12)

    def test_unequal_power_uses_each_link_snr(self):
        # second-hop limited relay: direct link at power 4, second hop at
        # relay power 0.5, each leading term at its own link's mean SNR
        net = from_shapes(1.0, [2.0], [1.0])
        pw = PowerSpec(source_power=2.0, relay_power=0.5, direct_power=4.0)
        snr = 1e4
        asym = asymptotic_outage(Scheme.DFAF, net, pw, RS, snr)
        assert asym == pytest.approx(
            (RS.gamma_th / (4.0 * snr)) * (RS.gamma_th / (0.5 * snr)), rel=1e-12
        )

    @pytest.mark.parametrize("scheme", list(Scheme), ids=[x.value for x in Scheme])
    def test_converges_on_random_networks_at_any_power_split(self, scheme):
        # Each scheme's law against its own exact value; gamma_th spans
        # both sides of delta, where the laws differ.  Not every
        # network is within 1e-2 at 70 dB: when the limiting hop is ~1e3
        # times stronger than its partner, the partner's neglected term,
        # one SNR order smaller, is still comparable there.  Every
        # neglected term decays at least one SNR order faster than the
        # law, so 40 dB on the gap must shrink a hundredfold and be
        # within 1e-2.
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
            rs = RateSpec(rate=1.0, gamma_th=RS.delta * float(3.0 ** rng.uniform(-1.0, 1.0)))
            gap = {
                x: abs(
                    asymptotic_outage(scheme, net, pw, rs, db(x))
                    / outage_sc(scheme, net, pw, rs, db(x))
                    - 1.0
                )
                for x in (70.0, 110.0)
            }
            assert gap[110.0] <= min(1e-2, 1e-2 * gap[70.0] + 1e-12), (i, gap)

    def test_decode_failure_term_deep_in_outage(self):
        # at 70 dB the first hop's decode failure P(3, a1 delta) ~ 1e-21
        # is the relay factor's leading term; 1 - Q(3, .) would lose it
        net = from_shapes(1.0, [3.0], [4.0])
        exact = outage_sc(Scheme.DFAF, net, PW, RS, db(70.0))
        asym = asymptotic_outage(Scheme.DFAF, net, PW, RS, db(70.0))
        assert abs(asym / exact - 1.0) < 1e-3

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fig4_configs_within_15_percent_at_40db(self, k):
        net = from_shapes(0.8, [1.0] * k, [1.0] * k)
        exact = outage_sc(Scheme.DFAF, net, PW, RS, db(40.0))
        asym = asymptotic_outage(Scheme.DFAF, net, PW, RS, db(40.0))
        assert abs(asym / exact - 1.0) < 0.15


class TestCodingGainAndDiversity:
    # The coding gain g of outage ~ g * snr**(-d) is the high-SNR law at
    # unit SNR and the unit equal power split.
    def test_fig3_diversity(self):
        net = from_shapes(0.5, [1, 1, 2], [1, 1, 1])
        assert diversity_order_dfaf(net) == pytest.approx(3.5)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_rayleigh_relays_add_k(self, k):
        net = from_shapes(0.8, [1.0] * k, [1.0] * k)
        assert diversity_order_dfaf(net) == pytest.approx(0.8 + k)

    def test_no_relays(self):
        net = NetworkSpec(direct=ChannelSpec(m=0.5))
        assert diversity_order_dfaf(net) == 0.5
        expected = (0.5 * 3.0) ** 0.5 / (0.5 * math.gamma(0.5))
        assert asymptotic_outage(Scheme.DFAF, net, PowerSpec(), RS, 1.0) == pytest.approx(
            expected, rel=1e-12
        )
        assert asymptotic_outage(Scheme.DFAF, net, PW, RS, 1e4) == pytest.approx(
            expected * 1e4**-0.5, rel=1e-12
        )

    def test_diversity_order_matches_coding_gain(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            k = int(rng.integers(0, 4))
            net = from_shapes(
                float(rng.uniform(0.5, 3.0)),
                list(rng.uniform(0.5, 3.0, k)),
                list(rng.uniform(0.5, 3.0, k)),
            )
            # the diversity order is the exponent the law decays with
            gain = asymptotic_outage(Scheme.DFAF, net, PowerSpec(), RS, 1.0)
            assert asymptotic_outage(Scheme.DFAF, net, PW, RS, 10.0) == pytest.approx(
                gain * 10.0 ** -diversity_order_dfaf(net), rel=1e-12
            )

    def test_asymptote_matches_coding_gain_power_law(self):
        net = from_shapes(0.5, [1, 1, 2], [1, 1, 1])
        gain = asymptotic_outage(Scheme.DFAF, net, PowerSpec(), RS, 1.0)
        snr = 1e4
        predicted = gain * snr ** (-diversity_order_dfaf(net))
        assert asymptotic_outage(Scheme.DFAF, net, PW, RS, snr) == pytest.approx(
            predicted, rel=1e-12
        )


class TestSlopeLaw:
    @pytest.mark.parametrize(
        "net,d",
        [
            (from_shapes(0.5, [1, 1, 2], [1, 1, 1]), 3.5),
            (from_shapes(0.8, [1, 1], [1, 1]), 2.8),
            (from_shapes(0.5, [1.5, 1.5], [1.0, 1.0]), 2.5),
        ],
    )
    def test_fitted_slope_matches_diversity(self, net, d):
        xs = np.arange(35.0, 45.5, 1.0)
        ys = [outage_sc(Scheme.DFAF, net, PW, RS, db(x)) for x in xs]
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
        # the m=1 hop alone: (m gth / mean SNR)^1 / (1 * 1)
        assert b.lower == pytest.approx(RS.gamma_th / 50.0, rel=1e-12)
        assert b.upper == pytest.approx(2.0 * RS.gamma_th / 50.0, rel=1e-12)

    @pytest.mark.parametrize(
        "m,ratio",
        [(1.0, 1.0), (3.0, 10.0), (0.5, 10.0)],
        ids=["m1-equal", "m3-10to1", "m0.5-10to1"],
    )
    def test_tied_shapes_sum_both_hops(self, m, ratio):
        # with equal shapes neither hop is the weaker one: each adds its
        # own leading term, and that sum is the CDF's leading term
        h1 = LinkSnr(mean_snr=ratio * db(60.0), m=m)
        h2 = LinkSnr(mean_snr=db(60.0), m=m)
        b = af_bounds(h1, h2, RS)
        assert b.m_min == m
        assert b.lower == _power_law(m, h1.rate * RS.gamma_th) + _power_law(
            m, h2.rate * RS.gamma_th
        )
        f = af_path_cdf_quadrature(h1, h2, RS.gamma_th)
        assert abs(f / b.lower - 1.0) < 1e-3

    def test_tied_shapes_on_random_networks(self):
        rng = np.random.default_rng(2003)
        for i in range(400):
            m = float(rng.uniform(0.5, 4.0))
            h1 = LinkSnr(mean_snr=db(60.0) * 10.0 ** rng.uniform(-1.0, 1.0), m=m)
            h2 = LinkSnr(mean_snr=db(60.0) * 10.0 ** rng.uniform(-1.0, 1.0), m=m)
            f = af_path_cdf_quadrature(h1, h2, RS.gamma_th)
            assert abs(f / af_bounds(h1, h2, RS).lower - 1.0) < 1e-3, (i, h1, h2)

    @pytest.mark.parametrize("m1,m2", [(1, 1), (1, 2), (2, 3)])
    def test_squeeze_at_40db(self, m1, m2):
        snr = db(40.0)
        h1 = LinkSnr(mean_snr=snr, m=float(m1))
        h2 = LinkSnr(mean_snr=snr, m=float(m2))
        b = af_bounds(h1, h2, RS)
        f = af_path_cdf_closed(h1, h2, RS.gamma_th)
        ratio = f / b.lower
        assert 1.0 - 0.1 <= ratio <= 2.0**b.m_min * 1.1


class TestPointPasses:
    """The per-point passes keep every bit of the one-scheme calls, on
    seeded networks: K 0-4, non-integer shapes, gamma_th on both sides of
    delta and unequal powers."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(30)
        for i in range(40):
            def link():
                return ChannelSpec(m=float(rng.uniform(0.5, 4.0)), omega=float(rng.uniform(0.2, 5.0)))

            net = NetworkSpec(direct=link(), relays=tuple((link(), link()) for _ in range(i % 5)))
            power = PowerSpec(*map(float, rng.uniform(0.5, 2.0, 3)), direct_power=1.3)
            rs = RateSpec(rate=1.0, gamma_th=3.0 * float(rng.choice([1 / 3, 1.0, 2.0])))
            yield net, power, rs, float(10.0 ** rng.uniform(0.0, 2.5))

    def test_asymptotic_point_equals_each_scheme(self):
        for net, power, rs, snr in self.cases():
            point = asymptotic_outage_point(tuple(Scheme), network_link_snrs(net, power, snr), rs)
            for scheme in Scheme:
                assert point[scheme] == asymptotic_outage(scheme, net, power, rs, snr)

    def test_exact_point_equals_each_scheme_and_scalar_factors(self):
        for net, power, rs, snr in self.cases():
            laws = network_link_snrs(net, power, snr)
            point = outage_sc_point(tuple(Scheme), laws, rs)
            for scheme in Scheme:
                assert point[scheme] == outage_sc(scheme, net, power, rs, snr)
            # the one array call keeps the bits of one scalar call per factor
            direct, relays = laws
            df = snr_cdf(direct, rs.gamma_th)
            for first, second in relays:
                decode = snr_cdf(first, rs.delta)
                df *= decode + (1.0 - decode) * snr_cdf(second, rs.gamma_th)
            assert point[Scheme.DF] == df
