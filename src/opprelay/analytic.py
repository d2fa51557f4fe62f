"""Exact and high-SNR closed-form outage probabilities for the three
opportunistic relaying schemes under selection combining, plus diversity
order and the asymptotic sandwich bounds for the amplify-and-forward
path; the coding gain is the high-SNR law at snr = 1 and PowerSpec().

All outage expressions, exact and high-SNR, are driven by the per-link
gamma rate parameters (shape / mean SNR), so they hold at any split of
transmit power between source, relays and the direct link.

outage_sc is the one exact closed form: the direct-link CDF times one
path-failure factor per relay, and only that factor differs between the
schemes.  The Scheme enum is defined here for it; the Monte Carlo engine
and the experiments import it from this module.

One trapezoid rule integrates the amplified path for any shapes: the AF
path CDF af_path_cdf_quadrature, and DFAF's factor below delta.  The
paper's Bessel sum for integer shapes, af_path_cdf_closed, is the AF
path CDF's reference, not exported from the package root.

Maximal ratio combining has no closed form here yet, so those curves come
from the Monte Carlo engine.  Relay selection ignores the direct link, so
the selected path stays independent of it under MRC as well; the MRC
outage is a one-dimensional integral over the direct-link SNR that is
not implemented yet.

Every scalar CDF factor (direct link, decode failure, second hop, the
amplified path's first-hop head) is channel.snr_cdf of the link laws
that channel.network_link_snrs builds for the grid point.  scipy.special
loads on the first exact value, inside snr_cdf, the trapezoid rule's node
array or the Bessel reference: the high-SNR law and the AF bounds need
only math, and Monte Carlo runs do not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .channel import LinkSnr, NetworkSpec, PowerSpec, network_link_snrs, snr_cdf

# Error the AF path CDF quadrature must certify, relative to its value.
AF_QUAD_TOL = 1e-9


class Scheme(Enum):
    DFAF = "dfaf"
    DF = "df"
    AF = "af"


class ClosedFormUnavailableError(ValueError):
    """The closed-form AF path CDF needs integer fading shapes."""


class QuadratureError(RuntimeError):
    """The AF path CDF quadrature could not certify AF_QUAD_TOL."""


@dataclass(frozen=True)
class RateSpec:
    """Target rate and the SNR thresholds it induces.

    delta is the decode threshold 2**(2 rate) - 1 (the exponent carries
    the factor 2 of the two-slot half-duplex protocol).  gamma_th is the
    destination outage threshold and defaults to delta, the binding used
    throughout the comparative experiments; the two stay separate fields
    because the exact outage expression distinguishes them.
    """

    rate: float
    gamma_th: float | None = None
    delta: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.rate < 512.0:  # 2.0 ** 1024.0 overflows
            raise ValueError(f"rate must lie in (0, 512), got {self.rate}")
        object.__setattr__(self, "delta", 2.0 ** (2.0 * self.rate) - 1.0)
        if self.gamma_th is None:
            object.__setattr__(self, "gamma_th", self.delta)
        if not 0.0 < self.gamma_th < math.inf:
            raise ValueError(f"gamma_th must be positive and finite, got {self.gamma_th}")


@dataclass(frozen=True)
class AfBounds:
    """Asymptotic sandwich for the AF path CDF at the outage threshold.

    m_min is the smaller hop shape; upper / lower = 2**m_min exactly.
    """

    lower: float
    upper: float
    m_min: float


def _power_law(m: float, x: float) -> float:
    # x**m / (m * Gamma(m)), the small-argument limit of P(m, x).
    return math.exp(m * math.log(x) - math.log(m) - math.lgamma(m))


def _leading_term(hops: tuple[tuple[float, float], ...]) -> tuple[float, float]:
    # Leading small-argument term of a relay path's failure probability
    # from its hops' (shape, argument) pairs: the smallest shape sets the
    # exponent, and every hop with that shape adds its own term.
    m_min = min(m for m, _ in hops)
    return m_min, sum(_power_law(m, x) for m, x in hops if m == m_min)


def _relay_failure(
    scheme: Scheme, first: LinkSnr, second: LinkSnr, rs: RateSpec
) -> float:
    # Probability that one relay's path misses gamma_th.  AF: the amplified
    # path's CDF.  DF: the relay fails to decode, or decodes and its second
    # hop misses gamma_th.  DFAF: a relay that cannot decode amplifies, and
    # at gamma_th >= delta that path, capped by g1 < delta, always misses.
    if scheme is Scheme.AF:
        return af_path_cdf_quadrature(first, second, rs.gamma_th)
    # The decode failure is the CDF P itself: 1 - Q would lose it deep in
    # outage, where it is the leading term.  1 - P is exact enough for Q,
    # which only ever adds to P.
    decode_fail = snr_cdf(first, rs.delta)
    second_fail = snr_cdf(second, rs.gamma_th)
    if scheme is Scheme.DFAF and rs.gamma_th < rs.delta:
        # The amplified miss needs g1 < delta; capping it at the decode
        # failure absorbs rounding that would lift the factor above 1.
        amplified_fail = min(decode_fail, _amplified_miss(first, second, rs.gamma_th, rs.delta))
        return amplified_fail + (1.0 - decode_fail) * second_fail
    return decode_fail + (1.0 - decode_fail) * second_fail


def outage_sc(
    scheme: Scheme, net: NetworkSpec, power: PowerSpec, rs: RateSpec, snr: float
) -> float:
    """Exact outage probability of a scheme with best-relay selection and
    selection combining: the direct-link outage times, per relay, the
    probability that the relay path fails (the paths are independent).

    Exact at any gamma_th for all three schemes.  DFAF equals DF at
    gamma_th >= delta; below it, a relay that cannot decode amplifies.
    """
    direct, relays = network_link_snrs(net, power, snr)
    p = snr_cdf(direct, rs.gamma_th)
    for first, second in relays:
        p *= _relay_failure(scheme, first, second, rs)
    return p


def af_path_cdf_closed(hop1: LinkSnr, hop2: LinkSnr, y: float) -> float:
    """CDF of the amplified two-hop SNR g1*g2/(g1+g2+1) at y, evaluated by
    the paper's finite Bessel sum, valid for integer fading shapes.

    The reference af_path_cdf_quadrature is checked against; as 1 - sum
    it loses values near 1e-16 and below.  Binomial weights are assembled
    in log space so shapes up to ~10 stay well inside double range.  The
    result is clamped to [0, 1] only to absorb last-bit rounding.
    """
    from scipy.special import kve

    if y < 0.0:
        raise ValueError(f"y must be nonnegative, got {y}")
    if y == 0.0:
        return 0.0
    for m, which in ((hop1.m, "first"), (hop2.m, "second")):
        if not float(m).is_integer() or m < 1.0:
            raise ClosedFormUnavailableError(
                f"{which} hop shape m={m} is not a positive integer; the finite-sum "
                "CDF needs integer shapes, use af_path_cdf_quadrature instead"
            )
    m1, m2 = int(hop1.m), int(hop2.m)
    a1 = hop1.rate
    a2 = hop2.rate

    z = 2.0 * math.sqrt(a1 * a2 * y * (y + 1.0))
    # log K_n(z) for every order the sum uses; K is even in its order, and
    # the exponentially scaled kve keeps large z from underflowing.
    ln_k = (np.log(kve(np.arange(max(m1, m2) + 1), z)) - z).tolist()
    ln_a1 = math.log(a1)
    ln_a2 = math.log(a2)
    ln_y = math.log(y)
    ln_1py = math.log1p(y)
    # (m1-1)! cancels one Gamma(m1); the remaining prefactor is
    # 2 a2^m2 exp(-(a1+a2) y) / Gamma(m2).
    ln_pref = math.log(2.0) + m2 * ln_a2 - (a1 + a2) * y - math.lgamma(m2)

    def ln_choose(n: int, k: int) -> float:
        return math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)

    total = 0.0
    for n in range(m1):
        for j in range(n + 1):
            for k in range(m2):
                ln_term = (
                    ln_pref
                    - math.lgamma(n + 1.0)
                    + ln_choose(n, j)
                    + ln_choose(m2 - 1, k)
                    + 0.5 * (2 * n - j + k + 1) * ln_a1
                    + 0.5 * (j - k - 1) * ln_a2
                    + 0.5 * (j + k + 1) * ln_1py
                    + 0.5 * (2 * n + 2 * m2 - j - k - 1) * ln_y
                    + ln_k[abs(j - k - 1)]
                )
                total += math.exp(ln_term)
    return min(1.0, max(0.0, 1.0 - total))


def _amplified_miss(hop1: LinkSnr, hop2: LinkSnr, y: float, below: float) -> float:
    # P(g1 < below and g1 g2 / (g1 + g2 + 1) < y) for 0 < y < below <= inf.
    # g1 <= y always misses; for g1 = y + t, t < c = below - y, the path
    # misses when g2 < y (y + t + 1) / t.  That tail is one trapezoid sum in
    # v on t = e^v / (1 + e^v / c), which maps the real line onto (0, c) and
    # is e^v at below = inf.  All its terms are positive, so the value keeps
    # its relative accuracy deep in outage.
    from scipy.special import gammainc

    (m1, a1), (m2, a2), c = (hop1.m, hop1.rate), (hop2.m, hop2.rate), below - y
    # Far below t = min(a2 y (y + 1), c) the integrand falls like e^v, so
    # 36 e-folds under that point leave e^-36 ~ 2e-16 of its size there.
    # Beyond a1 t = e (m1 + 60) the first-hop tail mass is below e^-60; t
    # gets there, at v = hi - ln(1 - e^hi / c), only if c lies above it.
    # Past v = ln c dt/dv falls like e^-v, and 36 e-folds leave e^-36.
    lo = math.log(min(a2 * y * (y + 1.0), c)) - 36.0
    hi = math.log((m1 + 60.0) / a1) + 1.0
    r = math.exp(hi) / c
    hi = min(hi - math.log1p(-r) if r < 1.0 else math.inf, math.log(c) + 36.0)
    # A shape-m factor turns over in v within about 1/sqrt(m); the step keeps
    # the every-other-node sum inside AF_QUAD_TOL where the full one is right.
    h = 0.4 / math.sqrt(max(m1, m2, 25.0))
    v = lo + h * np.arange(math.ceil((hi - lo) / h) + 1)
    ev = np.exp(v)
    q = ev / c  # 0 at below = inf; dt/dv = e^v / (1 + q)^2
    t = ev / (1.0 + q)
    x = y + t
    ln_f1 = m1 * math.log(a1) - math.lgamma(m1) + (m1 - 1.0) * np.log(x) - a1 * x
    f = np.exp(ln_f1 + v - 2.0 * np.log1p(q)) * gammainc(m2, a2 * y * (x + 1.0) / t)
    tail = h * float(f.sum())
    value = min(1.0, snr_cdf(hop1, y) + tail)
    err = abs(tail - 2.0 * h * float(f[::2].sum()))
    if err > AF_QUAD_TOL * value:
        raise QuadratureError(
            f"AF path CDF error estimate {err:.3e} exceeds {AF_QUAD_TOL:.1e} of {value:.3e}"
        )
    return value


def af_path_cdf_quadrature(hop1: LinkSnr, hop2: LinkSnr, y: float) -> float:
    """CDF of g1*g2/(g1+g2+1) at y from first principles, for any shapes:
    the first-hop head P(m1, a1 y) plus a trapezoid sum in v = ln t over
    g1 = y + t, with step 0.4/sqrt(max(m1, m2, 25)).  Raises QuadratureError
    when its gap to the sum over every other node exceeds AF_QUAD_TOL of
    the value.
    """
    if y < 0.0:
        raise ValueError(f"y must be nonnegative, got {y}")
    if y == 0.0:
        return 0.0
    return _amplified_miss(hop1, hop2, y, math.inf)


def asymptotic_outage_dfaf(
    net: NetworkSpec, power: PowerSpec, rs: RateSpec, snr: float
) -> float:
    """High-SNR power law for the adaptive scheme: each CDF factor of the
    exact expression is replaced by its leading small-argument term at the
    point's link SNRs, so the product decays like snr**(-d) with the
    network diversity order d, at any power split.  A relay contributes
    the terms of its hops with the smaller shape, both when they are equal,
    the first hop's at min(delta, gamma_th): below delta a relay that cannot
    decode amplifies, and its path misses only when g1 < gamma_th.  At
    snr = 1 with PowerSpec() it is the coding gain g of g * snr**(-d).
    """
    direct, relays = network_link_snrs(net, power, snr)
    g = _power_law(direct.m, direct.rate * rs.gamma_th)
    for first, second in relays:
        g *= _leading_term(
            (
                (first.m, first.rate * min(rs.delta, rs.gamma_th)),
                (second.m, second.rate * rs.gamma_th),
            )
        )[1]
    return g


def diversity_order_dfaf(net: NetworkSpec) -> float:
    """Diversity order: direct shape plus the weaker shape of every relay
    path."""
    return net.direct.m + sum(min(a.m, b.m) for a, b in net.relays)


def af_bounds(hop1: LinkSnr, hop2: LinkSnr, rs: RateSpec) -> AfBounds:
    """Asymptotic lower/upper bounds on the AF path CDF at gamma_th.

    The amplified path SNR lies between min(g1, g2)/2 and min(g1, g2),
    so the CDF is squeezed between the leading terms of
    P(min(g1, g2) < gamma_th) and P(min(g1, g2) < 2 gamma_th): every hop
    with the smaller shape m_min, both when the shapes are equal, adds
    its own term.  The ratio is 2**m_min.  The hop SNR descriptors
    already carry the evaluation SNR.
    """
    m, lower = _leading_term(
        ((hop1.m, hop1.rate * rs.gamma_th), (hop2.m, hop2.rate * rs.gamma_th))
    )
    return AfBounds(lower=lower, upper=2.0**m * lower, m_min=m)
