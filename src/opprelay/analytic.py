"""Exact and high-SNR closed-form outage probabilities for the three
opportunistic relaying schemes under selection combining, plus diversity
order.  outage_sc and asymptotic_outage (one rule for all three schemes)
are keyed by scheme; the coding gain is the high-SNR law at snr = 1 and
PowerSpec().

All outage expressions, exact and high-SNR, are driven by the per-link
gamma rate parameters (shape / mean SNR), so they hold at any split of
transmit power between source, relays and the direct link.

The exact closed form is the direct-link CDF times one path-failure
factor per relay, and only that factor differs between the schemes; the
high-SNR law is the product of the factors' leading terms.  For several
schemes at one grid point, relay_factors returns the exact factors and
relay_terms the leading terms (with each relay's smaller hop shape, and
AF's term the low end of the AF path CDF's sandwich), each in one pass
over the point's link laws.  outage_sc_point and asymptotic_outage_point
multiply them out; outage_sc and asymptotic_outage are the one-scheme
passes.  The Scheme enum is defined here; Monte Carlo and the
experiments import it.

One rule gives the amplified path's miss for any shapes: the AF path
CDF af_path_cdf_quadrature, and DFAF's factor below delta.  It is the
first-hop head P(g1 < y) plus a trapezoid sum over the tail; the leading
nodes, where the second hop's gammainc is exactly 1.0, skip that call.
Each miss, head and tail together, is memoised in a process-local cache
of 512 entries, so the bounds table reuses its curve's AF integrals and
identical relays share one; the AF_QUAD_TOL certificate is never
skipped: it is checked on every call, cached or not.  The paper's Bessel
sum for integer shapes, af_path_cdf_closed, is the AF path CDF's
reference, not exported from the package root.

Maximal ratio combining has no closed form here yet, so those curves come
from the Monte Carlo engine.  Relay selection ignores the direct link, so
the selected path stays independent of it under MRC as well; the MRC
outage is a one-dimensional integral over the direct-link SNR that is
not implemented yet.

The CDFs every scheme shares (direct link, decode failure, second hop)
are the regularised gamma function of the link laws that
channel.network_link_snrs builds for the grid point, in one call per
point; the amplified miss forms its own head.  scipy.special comes
from channel.scipy_special and loads on the first exact value: the
high-SNR law needs only math, and Monte Carlo runs do not load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .channel import LinkSnr, NetworkSpec, PowerSpec, network_link_snrs, scipy_special, snr_cdf

# Error the AF path CDF quadrature must certify, relative to its value.
AF_QUAD_TOL = 1e-9


class Scheme(Enum):
    DFAF = "dfaf"
    DF = "df"
    AF = "af"


class ClosedFormUnavailableError(ValueError):
    """The closed-form AF path CDF needs integer fading shapes."""


class QuadratureError(ArithmeticError):
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


def _power_law(m: float, x: float) -> float:
    # x**m / (m * Gamma(m)), the small-argument limit of P(m, x).
    try:
        return math.exp(m * math.log(x) - math.log(m) - math.lgamma(m))
    except OverflowError:
        raise OverflowError(f"high-SNR term overflows at shape m={m}, argument {x:.6g}") from None


def outage_sc(
    scheme: Scheme, net: NetworkSpec, power: PowerSpec, rs: RateSpec, snr: float
) -> float:
    """Exact outage probability of a scheme with best-relay selection and
    selection combining: the direct-link outage times, per relay, the
    probability that the relay path fails (the paths are independent).

    Exact at any gamma_th for all three schemes.  DFAF equals DF at
    gamma_th >= delta; below it, a relay that cannot decode amplifies.
    The value is outage_sc_point's for this one scheme.
    """
    return outage_sc_point((scheme,), network_link_snrs(net, power, snr), rs)[scheme]


def outage_sc_point(schemes: Sequence[Scheme], laws: tuple, rs: RateSpec) -> dict[Scheme, float]:
    """outage_sc of each scheme in schemes at one grid point: the product
    of relay_factors' direct-link CDF and relay factors."""
    return _products(schemes, *relay_factors(schemes, laws, rs))


def relay_factors(schemes: Sequence[Scheme], laws: tuple, rs: RateSpec) -> tuple[float, list]:
    """The exact outage's factors at one grid point, in one pass over the
    point's link laws (network_link_snrs): the direct-link CDF, and per
    relay the list of each scheme's path-failure factor, in the order of
    schemes.  One gammainc call of fixed layout gives the CDFs every
    scheme shares: the direct link, then each relay's decode failure and
    second hop.

    AF's factor is the amplified path's CDF, head included.  DF's: the
    relay fails to decode, or decodes and its second hop misses gamma_th.
    DFAF's is DF's at gamma_th >= delta, where the amplified path, capped
    by g1 < delta, always misses; below delta a relay that cannot decode
    amplifies.
    """
    direct, relays = laws
    factors = [(direct, rs.gamma_th)]
    for first, second in relays:
        factors += (first, rs.delta), (second, rs.gamma_th)
    # One array call, on the scalar call's inner loop: every factor keeps its bits
    cdf = scipy_special().gammainc(
        [link.m for link, _ in factors], [link.rate * y for link, y in factors]
    ).tolist()
    per_relay = []
    for (first, second), decode_fail, second_fail in zip(relays, cdf[1::2], cdf[2::2]):
        # The decode failure is the CDF P itself: 1 - Q would lose it deep
        # in outage, where it is the leading term.  1 - P is exact enough
        # for Q, which only ever adds to P.
        decoded_miss = (1.0 - decode_fail) * second_fail
        row = []
        for scheme in schemes:
            if scheme is Scheme.AF:
                row.append(_amplified_miss(first, second, rs.gamma_th, math.inf))
            elif scheme is Scheme.DFAF and rs.gamma_th < rs.delta:
                # The amplified miss needs g1 < delta; capping it at the
                # decode failure absorbs rounding that would lift the factor
                # above 1.
                amplified = _amplified_miss(first, second, rs.gamma_th, rs.delta)
                row.append(min(decode_fail, amplified) + decoded_miss)
            else:
                row.append(decode_fail + decoded_miss)
        per_relay.append(row)
    return cdf[0], per_relay


def _products(schemes: Sequence[Scheme], direct: float, relays: list) -> dict[Scheme, float]:
    # Each scheme's direct factor times its relay factors, folded in relay
    # order, so a value keeps the bits of a running product.
    return {
        scheme: math.prod([direct, *(row[i] for row in relays)])
        for i, scheme in enumerate(schemes)
    }


def af_path_cdf_closed(hop1: LinkSnr, hop2: LinkSnr, y: float) -> float:
    """CDF of the amplified two-hop SNR g1*g2/(g1+g2+1) at y, evaluated by
    the paper's finite Bessel sum, valid for integer fading shapes.

    The reference af_path_cdf_quadrature is checked against; as 1 - sum
    it loses values near 1e-16 and below.  Binomial weights are assembled
    in log space so shapes up to ~10 stay well inside double range.  The
    result is clamped to [0, 1] only to absorb last-bit rounding.
    """
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
    ln_k = (np.log(scipy_special().kve(np.arange(max(m1, m2) + 1), z)) - z).tolist()
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


@functools.lru_cache(maxsize=64)
def _gammainc_is_one_above(m: float) -> float:
    # For z > r = max(m - 1, 0) the upper tail is bounded:
    # Q(m, z) <= z^(m-1) e^-z / Gamma(m) * max(1, z / (z - r)).  The bound's
    # log falls in z; where it is below 2^-55, 1 - Q rounds to 1.0, so
    # gammainc(m, z) is exactly 1.0 beyond this root of it, found by
    # Newton from r + 1 (about 36 at m = 0.5, 48 at 4 and 150 at 60).
    r = max(m - 1.0, 0.0)
    base = math.lgamma(m) - 55.0 * math.log(2.0)
    z = r + 1.0
    for _ in range(100):
        g = m * math.log(z) - z - math.log(z - r) - base
        step = g / (m / z - 1.0 - 1.0 / (z - r))
        z = max(z - step, r + 1.0)
        if abs(step) <= 1e-12 * z:
            break
    return z


@functools.lru_cache(maxsize=512)
def _amplified_sum(
    hop1: LinkSnr, hop2: LinkSnr, y: float, below: float
) -> tuple[float, float]:
    # P(g1 < below and g1 g2 / (g1 + g2 + 1) < y) for 0 < y < below <= inf,
    # and its tail sum's gap to the every-other-node sum.  The head
    # P(g1 < y) always misses; for g1 = y + t, t < c = below - y, the path
    # misses when g2 < y (y + t + 1) / t.  That tail is one trapezoid sum
    # in v on t = e^v / (1 + e^v / c), which maps the real line onto
    # (0, c) and is e^v at below = inf.  All its terms are positive, so the value keeps
    # its relative accuracy deep in outage.  Memoised, head and tail
    # together, on its exact arguments (LinkSnr is frozen): a table's
    # repeated integrals, and identical relays, are summed once; the size
    # holds a 50-point curve's integrals on 4 relays.
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
    t = ev = np.exp(v)  # exact at below = inf, where q = 0 and dt/dv = e^v
    if below < math.inf:
        q = ev / c  # dt/dv = e^v / (1 + q)^2
        t = ev / (1.0 + q)
    x = y + t
    ln_f = m1 * math.log(a1) - math.lgamma(m1) + (m1 - 1.0) * np.log(x) - a1 * x + v
    if below < math.inf:
        ln_f -= 2.0 * np.log1p(q)
    f = np.exp(ln_f)
    # The second hop's argument falls along v, and the nodes where its
    # gammainc is exactly 1.0 lead: only the rest call it, and a product
    # with 1.0 is exact, so every bit is kept.
    z = a2 * y * (x + 1.0) / t
    k = np.count_nonzero(z > _gammainc_is_one_above(m2))
    f[k:] *= scipy_special().gammainc(m2, z[k:])
    tail = h * float(f.sum())
    return min(1.0, snr_cdf(hop1, y) + tail), abs(tail - 2.0 * h * float(f[::2].sum()))


def _amplified_miss(hop1: LinkSnr, hop2: LinkSnr, y: float, below: float) -> float:
    # The memoised amplified miss, certified on every call, cached or not.
    value, err = _amplified_sum(hop1, hop2, y, below)
    if err > AF_QUAD_TOL * value:
        raise QuadratureError(
            f"AF path CDF error estimate {err:.3e} exceeds {AF_QUAD_TOL:.1e} of {value:.3e}"
            f" at hop shapes {hop1.m:g} and {hop2.m:g}, mean SNRs {hop1.mean_snr:g}"
            f" and {hop2.mean_snr:g}, y = {y:g}, g1 < {below:g}"
        )
    return value


def af_path_cdf_quadrature(hop1: LinkSnr, hop2: LinkSnr, y: float) -> float:
    """CDF of g1*g2/(g1+g2+1) at y from first principles, for any shapes:
    the first-hop head P(m1, a1 y) plus a trapezoid sum in v = ln t over
    g1 = y + t, with step 0.4/sqrt(max(m1, m2, 25)).  Raises QuadratureError
    when its gap to the sum over every other node exceeds AF_QUAD_TOL of
    the value.

    The value, head and sum together, is memoised per process on
    (hop1, hop2, y), at most 512 entries, and the certificate is never
    skipped: it is checked on every call, cached or not.
    """
    if y < 0.0:
        raise ValueError(f"y must be nonnegative, got {y}")
    if y == 0.0:
        return 0.0
    return _amplified_miss(hop1, hop2, y, math.inf)


def asymptotic_outage(
    scheme: Scheme, net: NetworkSpec, power: PowerSpec, rs: RateSpec, snr: float
) -> float:
    """High-SNR power law of a scheme at any power split: each CDF factor
    of its exact expression becomes its leading small-argument term at the
    point's link SNRs, so it decays like snr**(-d), d the diversity order.
    A relay adds the terms of its hops with the smaller shape, both when
    equal, each at the largest SNR at which that hop alone sinks the path:
    the second hop at gamma_th; the first at delta for DF (a relay that
    cannot decode stays silent), at gamma_th for AF (the amplified SNR is
    below g1) and at min(delta, gamma_th) for DFAF.  At snr = 1 with
    PowerSpec() it is the coding gain g of g * snr**(-d).  The value is
    asymptotic_outage_point's for this one scheme.
    """
    return asymptotic_outage_point((scheme,), network_link_snrs(net, power, snr), rs)[scheme]


def asymptotic_outage_point(
    schemes: Sequence[Scheme], laws: tuple, rs: RateSpec
) -> dict[Scheme, float]:
    """asymptotic_outage of each scheme in schemes at one grid point: the
    product of relay_terms' direct-link term and relay terms."""
    direct, relays = relay_terms(schemes, laws, rs)
    return _products(schemes, direct, [terms for _, terms in relays])


def relay_terms(schemes: Sequence[Scheme], laws: tuple, rs: RateSpec) -> tuple[float, list]:
    """The high-SNR law's factors at one grid point: the direct link's
    leading term, and per relay a pair of its smaller hop shape m_min and
    the list of each scheme's leading term, in the order of schemes.
    Every hop with shape m_min, both when equal, adds its own term
    (asymptotic_outage says at which SNR).

    AF's term squeezes the AF path CDF at gamma_th: the amplified SNR lies
    between min(g1, g2)/2 and min(g1, g2), so the CDF lies between the
    leading terms of P(min(g1, g2) < gamma_th), which is the term, and
    P(min(g1, g2) < 2 gamma_th), which is 2**m_min times it.
    """
    below = {Scheme.DF: rs.delta, Scheme.AF: rs.gamma_th, Scheme.DFAF: min(rs.delta, rs.gamma_th)}
    direct, relays = laws
    direct_term = _power_law(direct.m, direct.rate * rs.gamma_th)
    per_relay = []
    for first, second in relays:
        m_min = min(first.m, second.m)
        terms = []
        for scheme in schemes:
            hops = ((first.m, first.rate * below[scheme]), (second.m, second.rate * rs.gamma_th))
            terms.append(sum(_power_law(m, x) for m, x in hops if m == m_min))
        per_relay.append((m_min, terms))
    return direct_term, per_relay


def diversity_order_dfaf(net: NetworkSpec) -> float:
    """Diversity order: direct shape plus the weaker shape of every relay
    path."""
    return net.direct.m + sum(min(a.m, b.m) for a, b in net.relays)
