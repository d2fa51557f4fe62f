"""Exact and high-SNR closed-form outage probabilities for the three
opportunistic relaying schemes under selection combining, plus coding
gain, diversity order, and the asymptotic sandwich bounds for the
amplify-and-forward path.

All outage expressions, exact and high-SNR, are driven by the per-link
gamma rate parameters (shape / mean SNR), so they hold at any split of
transmit power between source, relays and the direct link.

The AF path CDF has one route for any shapes, af_path_cdf_quadrature;
the paper's Bessel sum for integer shapes, af_path_cdf_closed, is its
reference.

Maximal ratio combining has no closed form here yet, so those curves come
from the Monte Carlo engine.  Relay selection ignores the direct link, so
the selected path stays independent of it under MRC as well; the MRC
outage is a one-dimensional integral over the direct-link SNR that is
not implemented yet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammainc, kve

from .channel import LinkSnr, NetworkSpec, PowerSpec, network_link_snrs

# Error the AF path CDF quadrature must certify, relative to its value.
AF_QUAD_TOL = 1e-9

# 16-point Gauss-Legendre nodes and weights on [-1, 1].
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


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
        if not self.rate > 0.0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        object.__setattr__(self, "delta", 2.0 ** (2.0 * self.rate) - 1.0)
        if self.gamma_th is None:
            object.__setattr__(self, "gamma_th", self.delta)
        if not self.gamma_th > 0.0:
            raise ValueError(f"gamma_th must be positive, got {self.gamma_th}")


@dataclass(frozen=True)
class AsymptoticResult:
    coding_gain: float
    diversity_order: float


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


def outage_dfaf_sc(
    net: NetworkSpec, power: PowerSpec, rs: RateSpec, snr: float
) -> float:
    """Exact outage probability of adaptive decode-or-amplify relaying with
    best-relay selection and selection combining, for gamma_th >= delta.

    Product of the direct-link outage and, per relay, the probability that
    the relay path fails: either the relay decodes (first hop clears the
    decode threshold) but the second hop falls below gamma_th, or the
    relay fails to decode, in which case the amplified path is capped by
    the first hop and cannot clear the threshold either.  That last step
    needs gamma_th >= delta; below it an amplified path can still clear
    gamma_th, and this expression is the DF outage, an upper bound.
    """
    direct, relays = network_link_snrs(net, power, snr)
    p = float(gammainc(direct.m, direct.rate * rs.gamma_th))
    for first, second in relays:
        # The decode failure P comes from gammainc: 1 - Q would lose it
        # deep in outage, where it is the leading term.  1 - P is exact
        # enough for Q, which only ever adds to P.
        decode_fail = float(gammainc(first.m, first.rate * rs.delta))
        second_fail = float(gammainc(second.m, second.rate * rs.gamma_th))
        p *= decode_fail + (1.0 - decode_fail) * second_fail
    return p


def outage_df_sc(
    net: NetworkSpec, power: PowerSpec, rs: RateSpec, snr: float
) -> float:
    """Exact outage of opportunistic decode-and-forward under selection
    combining, for any gamma_th.  For gamma_th >= delta it equals the
    adaptive scheme's outage (a relay that cannot decode fails to clear
    the threshold either way), so it shares that expression; kept as its
    own named operation so scheme comparison tables stay explicit."""
    return outage_dfaf_sc(net, power, rs, snr)


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


def af_path_cdf_quadrature(hop1: LinkSnr, hop2: LinkSnr, y: float) -> float:
    """CDF of g1*g2/(g1+g2+1) at y from first principles, for any shapes.

    g1 <= y always fails; for g1 = y + t the path fails when
    g2 < y(y+t+1)/t.  That tail integral is taken in v = ln t by 16-point
    Gauss-Legendre on panels of width h = min(1, 3/sqrt(max shape)).  All
    its terms are positive, so the value keeps its relative accuracy deep
    in outage.  Raises QuadratureError when the gap to the width-2h rule
    exceeds AF_QUAD_TOL of the value.
    """
    if y < 0.0:
        raise ValueError(f"y must be nonnegative, got {y}")
    if y == 0.0:
        return 0.0
    m1, a1 = hop1.m, hop1.rate
    m2, a2 = hop2.m, hop2.rate
    # Far below t = a2 y (y+1) the conditional probability tends to 1, so
    # the integrand falls like t = e^v: all of it more than 36 e-folds
    # under that point is e^-36 ~ 2e-16 of its size there.  Beyond
    # a1 t = e (m1 + 60) the first-hop tail mass Q(m1, a1 t) is below e^-60.
    lo = math.log(a2 * y * (y + 1.0)) - 36.0
    hi = math.log((m1 + 60.0) / a1) + 1.0
    # In v, a shape-m factor turns over a width of about 1/sqrt(m), so
    # above shape 9 the panels narrow like that; the width-2h estimate
    # then stays inside AF_QUAD_TOL wherever the width-h value is right.
    h = min(1.0, 3.0 / math.sqrt(max(m1, m2)))
    n_wide = math.ceil((hi - lo) / (2.0 * h))
    k = h * np.arange(2 * n_wide)[:, None]
    unit = lo + 0.5 * h + k + 0.5 * h * _GL_NODES
    wide = lo + h + 2.0 * k[:n_wide] + h * _GL_NODES
    v = np.concatenate((unit.ravel(), wide.ravel()))
    t = np.exp(v)
    x = y + t
    ln_f1 = m1 * math.log(a1) - math.lgamma(m1) + (m1 - 1.0) * np.log(x) - a1 * x
    f = np.exp(ln_f1 + v) * gammainc(m2, a2 * y * (x + 1.0) / t)
    panels = f.reshape(-1, _GL_NODES.size) @ _GL_WEIGHTS  # half-widths h/2, h
    tail = 0.5 * h * float(panels[: 2 * n_wide].sum())
    value = min(1.0, float(gammainc(m1, a1 * y)) + tail)
    err = abs(tail - h * float(panels[2 * n_wide :].sum()))
    if err > AF_QUAD_TOL * value:
        raise QuadratureError(
            f"AF path CDF error estimate {err:.3e} exceeds {AF_QUAD_TOL:.1e} of {value:.3e}"
        )
    return value


def outage_af_sc(
    net: NetworkSpec, power: PowerSpec, rs: RateSpec, snr: float
) -> float:
    """Exact outage of opportunistic amplify-and-forward under selection
    combining: direct-link outage times the product of the per-relay AF
    path CDFs at gamma_th (the per-path failures are independent)."""
    direct, relays = network_link_snrs(net, power, snr)
    p = float(gammainc(direct.m, direct.rate * rs.gamma_th))
    for first, second in relays:
        p *= af_path_cdf_quadrature(first, second, rs.gamma_th)
    return p


def _leading_product(
    direct: LinkSnr, relays: tuple[tuple[LinkSnr, LinkSnr], ...], rs: RateSpec
) -> float:
    # The exact product of outage_dfaf_sc with each CDF factor replaced by
    # its leading small-argument term, at the given link descriptors: a
    # relay fails when the first hop misses delta or the second gamma_th.
    g = _power_law(direct.m, direct.rate * rs.gamma_th)
    for first, second in relays:
        g *= _leading_term(
            ((first.m, first.rate * rs.delta), (second.m, second.rate * rs.gamma_th))
        )[1]
    return g


def asymptotic_outage_dfaf(
    net: NetworkSpec, power: PowerSpec, rs: RateSpec, snr: float
) -> float:
    """High-SNR power law for the adaptive scheme: each CDF factor of the
    exact expression is replaced by its leading small-argument term at the
    point's link SNRs, so the product decays like snr**(-d) with the
    network diversity order d, at any power split."""
    return _leading_product(*network_link_snrs(net, power, snr), rs)


def coding_gain_dfaf(net: NetworkSpec, rs: RateSpec) -> AsymptoticResult:
    """SNR-independent coefficient g and exponent d of the high-SNR law
    outage ~ g * snr**(-d), where snr is the equal transmit SNR and each
    link's mean SNR is its spread times snr.

    Each relay contributes the leading small-argument terms of the hops
    with its smaller shape: P(m1, a1 delta) for the first hop, and
    P(m2, a2 gamma_th) for the second.  With equal shapes both terms add;
    at the default binding a1 delta = a2 gamma_th that is twice either one.
    """
    # Unit-SNR link descriptors make rate = m / omega, which is exactly
    # the snr-free coefficient the coding gain needs.
    return AsymptoticResult(
        coding_gain=_leading_product(*network_link_snrs(net, PowerSpec.equal()), rs),
        diversity_order=diversity_order_dfaf(net),
    )


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
