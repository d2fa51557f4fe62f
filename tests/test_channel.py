"""Link model and variate-generation checks: parameter validation, moments,
distributional agreement, and stream reproducibility."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

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
from opprelay.montecarlo import BLOCK_SIZE, CHUNK_SIZE

from nets import from_shapes


def upper_gamma_quadrature(a: float, x: float) -> float:
    """Independent oracle: Q(a, x) by adaptive quadrature of the scaled
    integrand exp((a-1) ln t - t - ln Gamma(a)) over [x, inf)."""
    val, _ = integrate.quad(
        lambda t: math.exp((a - 1.0) * math.log(t) - t - math.lgamma(a)),
        x,
        np.inf,
        limit=300,
    )
    return val


class TestSpecs:
    def test_channel_validation(self):
        ChannelSpec(m=0.5, omega=2.0)
        with pytest.raises(ValueError):
            ChannelSpec(m=0.4)
        with pytest.raises(ValueError):
            ChannelSpec(m=1.0, omega=0.0)
        with pytest.raises(ValueError):
            ChannelSpec(m=-1.0)
        with pytest.raises(ValueError):
            ChannelSpec(m=math.inf)
        with pytest.raises(ValueError):
            ChannelSpec(m=1.0, omega=math.inf)

    def test_power_spec(self):
        pw = PowerSpec(source_power=4.0, relay_power=6.0)
        assert pw.source_power / (pw.source_power + pw.relay_power) == 0.4
        split = PowerSpec.from_alpha(0.3, 10.0)
        assert split.source_power + split.relay_power == pytest.approx(10.0)
        assert split.source_power / (split.source_power + split.relay_power) == pytest.approx(0.3)
        with pytest.raises(ValueError):
            PowerSpec.from_alpha(1.0, 10.0)
        with pytest.raises(ValueError):
            PowerSpec(source_power=0.0)
        with pytest.raises(ValueError):
            PowerSpec(relay_power=math.inf)

    def test_direct_power_switch(self):
        pw = PowerSpec(source_power=2.0, relay_power=8.0)
        assert pw.effective_direct_power == 2.0
        pw = PowerSpec(source_power=2.0, relay_power=8.0, direct_power=5.0)
        assert pw.effective_direct_power == 5.0


def link_laws(ch: ChannelSpec, snr: float = 1.0, **power):
    """Direct, first-hop and second-hop laws of a one-relay network whose
    three links are all ch."""
    net = NetworkSpec(direct=ch, relays=((ch, ch),))
    direct, ((first, second),) = network_link_snrs(net, PowerSpec(**power), snr)
    return direct, first, second


class TestLinkSnr:
    def test_definition(self):
        for ls in link_laws(ChannelSpec(m=1.0, omega=1.0), snr=10.0):
            assert ls.mean_snr == 10.0
            assert ls.rate == pytest.approx(0.1)
        for ls in link_laws(ChannelSpec(m=2.0, omega=1.0), snr=10.0):
            assert ls.rate == pytest.approx(0.2)

    def test_mean_is_spread_power_snr_over_noise(self):
        ch = ChannelSpec(m=1.5, omega=0.7)
        laws = link_laws(
            ch, snr=3.0,
            source_power=2.0, relay_power=5.0, direct_power=0.5, noise_variance=4.0,
        )
        for ls, tx in zip(laws, (0.5, 2.0, 5.0)):
            assert ls.mean_snr == pytest.approx(0.7 * tx * 3.0 / 4.0)
            assert ls.rate == pytest.approx(1.5 / ls.mean_snr)
            assert ls.m == 1.5

    def test_forty_db_case(self):
        for ls in link_laws(ChannelSpec(m=0.5, omega=1.0), snr=1e4):
            assert ls.mean_snr == 1e4

    def test_scale_consistency(self):
        # doubling one transmit power doubles its own link's mean SNR
        # only; doubling snr doubles all three
        ch = ChannelSpec(m=1.5, omega=0.7)
        base = dict(
            snr=3.0, source_power=3.0, relay_power=3.0, direct_power=3.0, noise_variance=2.0
        )
        before = link_laws(ch, **base)
        for field, link in (
            ("direct_power", 0), ("source_power", 1), ("relay_power", 2), ("snr", None)
        ):
            after = link_laws(ch, **{**base, field: 2.0 * base[field]})
            for i, (x, y) in enumerate(zip(before, after)):
                factor = 2.0 if link in (None, i) else 1.0
                assert y.mean_snr == factor * x.mean_snr, (field, i)

    def test_domain(self):
        for snr in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                link_laws(ChannelSpec(m=1.0), snr=snr)
        with pytest.raises(ValueError):
            link_laws(ChannelSpec(m=1.0), source_power=0.0)
        with pytest.raises(ValueError):
            link_laws(ChannelSpec(m=1.0), noise_variance=-1.0)

    def test_network_link_snrs_power_routing(self):
        net = from_shapes(1.0, [1.0], [1.0])
        pw = PowerSpec(source_power=2.0, relay_power=8.0)
        direct, relays = network_link_snrs(net, pw, snr=3.0)
        assert direct.mean_snr == pytest.approx(6.0)   # source power scaled
        assert relays[0][0].mean_snr == pytest.approx(6.0)
        assert relays[0][1].mean_snr == pytest.approx(24.0)


class TestSampling:
    def test_mean(self):
        link = LinkSnr(mean_snr=10.0, m=1.0)
        draws = sample_snr(link, make_stream(3, 0), size=10**6)
        assert abs(draws.mean() - 10.0) < 0.05

    def test_exponential_cdf_point(self):
        link = LinkSnr(mean_snr=10.0, m=1.0)
        draws = sample_snr(link, make_stream(4, 0), size=10**6)
        empirical = np.mean(draws <= 10.0)
        assert abs(empirical - (1.0 - np.exp(-1.0))) < 0.002

    def test_cdf_point_against_gamma_oracle(self):
        # P{snr <= 3} for shape 2, mean 10 is 1 - Q(2, 0.6), and for an
        # integer shape Q(2, x) = exp(-x) (1 + x)
        link = LinkSnr(mean_snr=10.0, m=2.0)
        draws = sample_snr(link, make_stream(5, 0), size=10**6)
        expected = 1.0 - math.exp(-0.6) * 1.6
        assert abs(np.mean(draws <= 3.0) - expected) < 0.002

    @pytest.mark.parametrize("m", [0.5, 0.8, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("gbar", [1.0, 10.0, 100.0])
    def test_kolmogorov_smirnov(self, m, gbar):
        link = LinkSnr(mean_snr=gbar, m=m)
        rng = make_stream(101, int(m * 10), int(gbar))
        draws = sample_snr(link, rng, size=10**5)
        pvalue = stats.kstest(draws, stats.gamma(a=m, scale=gbar / m).cdf).pvalue
        assert pvalue > 0.01

    @pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 2.0, 3.3])
    @pytest.mark.parametrize("mean", [0.1, 3.0, 1e4])
    @pytest.mark.parametrize("n", [BLOCK_SIZE, 2 * CHUNK_SIZE + 1000, 1000])
    def test_filling_a_buffer_draws_the_same_bits(self, m, mean, n):
        # Monte Carlo blocks draw into reused buffers, a short block into
        # the head of one; the values must be those of a fresh draw.  A
        # block is drawn in strips of CHUNK_SIZE from one stream, the last
        # strip short unless n is a multiple, and the strips must join up
        # into the values of one fill
        link = LinkSnr(mean_snr=mean, m=m)
        buf = np.full(BLOCK_SIZE, np.nan)
        filled = sample_snr(link, make_stream(9, 1), out=buf[:n])
        drawn = sample_snr(link, make_stream(9, 1), size=n)
        scaled = make_stream(9, 1).gamma(m, mean / m, size=n)
        assert np.shares_memory(filled, buf)
        assert np.array_equal(filled.view(np.int64), drawn.view(np.int64))
        assert np.array_equal(drawn.view(np.int64), scaled.view(np.int64))
        assert np.isnan(buf[n:]).all()
        stream, strip = make_stream(9, 1), np.empty(CHUNK_SIZE)
        strips = []
        for start in range(0, n, CHUNK_SIZE):
            c = min(CHUNK_SIZE, n - start)
            strips.append(sample_snr(link, stream, size=c, out=strip[:c]).copy())
        assert np.array_equal(np.concatenate(strips).view(np.int64), drawn.view(np.int64))

    @pytest.mark.parametrize("m", [0.5, 0.8, 1.0, 2.0, 3.0])
    def test_variance(self, m):
        link = LinkSnr(mean_snr=10.0, m=m)
        draws = sample_snr(link, make_stream(55, int(m * 10)), size=10**6)
        expected = 100.0 / m
        assert abs(np.var(draws) - expected) / expected < 0.02


class TestSnrCdf:
    def test_zero(self):
        assert snr_cdf(LinkSnr(mean_snr=10.0, m=1.0), 0.0) == 0.0

    def test_exponential_case(self):
        val = snr_cdf(LinkSnr(mean_snr=10.0, m=1.0), 3.0)
        assert val == pytest.approx(1.0 - np.exp(-0.3), rel=1e-12)

    def test_half_shape_against_erfc(self):
        # P(1/2, x) = erf(sqrt(x)) = 1 - erfc(sqrt(x)); here x = 0.5 * 3 / 10
        val = snr_cdf(LinkSnr(mean_snr=10.0, m=0.5), 3.0)
        assert val == pytest.approx(1.0 - math.erfc(math.sqrt(0.15)), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            snr_cdf(LinkSnr(mean_snr=10.0, m=1.0), -1.0)

    @pytest.mark.parametrize("m", [0.5, 0.8, 1.0, 2.0, 7.5, 20.0, 50.0])
    def test_against_density_quadrature(self, m):
        # points x = rate * y straddle the shape, where the series and
        # continued-fraction regimes of the incomplete gamma meet, and reach
        # deep into the tail
        link = LinkSnr(mean_snr=10.0, m=m)
        for x in [1e-3, 0.1, 0.5, 1.0, m * 0.5, m, m + 1.0, m * 2.0, 150.0, 200.0]:
            y = x / link.rate
            oracle = 1.0 - upper_gamma_quadrature(m, link.rate * y)
            assert snr_cdf(link, y) == pytest.approx(oracle, abs=1e-10)

    def test_monotone_in_y(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            link = LinkSnr(
                mean_snr=float(rng.uniform(0.1, 100.0)), m=float(rng.uniform(0.5, 50.0))
            )
            ys = np.sort(rng.uniform(0.0, 200.0 / link.rate, size=20))
            p = [snr_cdf(link, float(y)) for y in ys]
            assert all(b >= a - 1e-15 for a, b in zip(p, p[1:]))


class TestStreams:
    def test_same_key_identical(self):
        a = make_stream(9, 1, 2).standard_normal(8)
        b = make_stream(9, 1, 2).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        a = make_stream(9, 0, 0).standard_normal(8)
        b = make_stream(9, 1, 0).standard_normal(8)
        c = make_stream(9, 0, 1).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            make_stream(-1, 0)
