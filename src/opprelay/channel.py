"""Nakagami-m link model: parameter containers, per-link SNR distributions,
seedable random variate generation.

The squared envelope of a Nakagami-m channel is gamma distributed, so the
instantaneous SNR of a link with mean snr gbar has density
(1/Gamma(m)) (m/gbar)^m y^(m-1) exp(-m y / gbar).

network_link_snrs turns a grid point (powers, noise and the swept SNR)
into these laws for the closed forms and Monte Carlo alike, and snr_cdf is
the one scalar CDF of a law.  scipy_special is the one place scipy.special
is imported, on its first call, for snr_cdf and the closed forms in
analytic; drawing variates needs numpy alone, so Monte Carlo runs never
load scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ChannelSpec:
    """One Nakagami-m link: shape m and spread omega = E[|h|^2]."""

    m: float
    omega: float = 1.0

    def __post_init__(self) -> None:
        if not 0.5 <= self.m < math.inf:
            raise ValueError(f"Nakagami shape must be finite and >= 0.5, got m={self.m}")
        if not 0.0 < self.omega < math.inf:
            raise ValueError(f"spread must be positive and finite, got omega={self.omega}")


@dataclass(frozen=True)
class NetworkSpec:
    """Direct source-destination link plus K two-hop relay paths."""

    direct: ChannelSpec
    relays: tuple[tuple[ChannelSpec, ChannelSpec], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "relays", tuple(tuple(pair) for pair in self.relays))
        for pair in self.relays:
            if len(pair) != 2:
                raise ValueError("each relay entry must be a (first_hop, second_hop) pair")


@dataclass(frozen=True)
class PowerSpec:
    """Transmit powers and noise level, all in linear units.

    direct_power is the power used on the source-destination link; it
    defaults to the source power (configurable because unequal-power
    operation leaves this choice open).
    """

    source_power: float = 1.0
    relay_power: float = 1.0
    noise_variance: float = 1.0
    direct_power: float | None = None

    def __post_init__(self) -> None:
        for name in ("source_power", "relay_power", "noise_variance"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.direct_power is not None and not 0.0 < self.direct_power < math.inf:
            raise ValueError("direct_power must be positive and finite when given")

    @property
    def effective_direct_power(self) -> float:
        return self.source_power if self.direct_power is None else self.direct_power

    @classmethod
    def from_alpha(
        cls, alpha: float, total_power: float, noise_variance: float = 1.0
    ) -> "PowerSpec":
        """Split a total power budget: source gets alpha, relay the rest."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        return cls(
            source_power=alpha * total_power,
            relay_power=(1.0 - alpha) * total_power,
            noise_variance=noise_variance,
        )


@dataclass(frozen=True)
class LinkSnr:
    """Instantaneous-SNR distribution of one link: gamma with shape m and
    mean mean_snr, so the exponential rate parameter is m / mean_snr."""

    mean_snr: float
    m: float
    rate: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.mean_snr < math.inf:
            raise ValueError(f"mean SNR must be positive and finite, got {self.mean_snr}")
        if not 0.0 < self.m < math.inf:
            raise ValueError(f"shape must be positive and finite, got {self.m}")
        object.__setattr__(self, "rate", self.m / self.mean_snr)
        if self.rate == math.inf:
            raise ValueError(f"mean SNR {self.mean_snr} is too small: m / mean SNR overflows")


def network_link_snrs(
    net: NetworkSpec, power: PowerSpec, snr: float = 1.0
) -> tuple[LinkSnr, tuple[tuple[LinkSnr, LinkSnr], ...]]:
    """Per-link SNR laws at one grid point: the sweep variable snr scales
    every transmit power, and a link's mean SNR is omega * power * snr / N0.
    With the unit equal-power default, snr is exactly the transmit SNR.

    This is the only place the grid SNR enters: the Monte Carlo engine
    takes its link laws from here, and a table builds one set per
    closed-form point, which the exact and the high-SNR passes share."""
    if not snr > 0.0:
        raise ValueError(f"snr must be positive, got {snr}")
    n0 = power.noise_variance

    def law(ch: ChannelSpec, tx_power: float) -> LinkSnr:
        return LinkSnr(mean_snr=ch.omega * (tx_power * snr) / n0, m=ch.m)

    direct = law(net.direct, power.effective_direct_power)
    relays = tuple(
        (law(first, power.source_power), law(second, power.relay_power))
        for first, second in net.relays
    )
    return direct, relays


def make_stream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent random stream derived from a master seed and an integer
    key such as (block_index, link_id).  Identical (seed, key) pairs give
    bit-identical streams, which is what makes parallel runs reproducible."""
    if master_seed < 0:
        raise ValueError("master_seed must be nonnegative")
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def sample_snr(
    link: LinkSnr,
    rng_stream: np.random.Generator,
    size: int | None = None,
    out: np.ndarray | None = None,
):
    """Draw instantaneous SNR values: gamma with shape m, scale mean/m.

    Draws size values, or fills out (a contiguous float64 array of that
    size, when both are given) in place and returns it.  Standard gamma
    variates scaled in place are bit for bit numpy's gamma(m, mean/m),
    which draws the same variates and multiplies by the scale.  For
    shape < 1, which the half-integer shapes here need, numpy's generator
    runs a rejection loop that takes one uniform and one exponential per
    try, not a draw at shape m+1 times U^(1/m).
    """
    x = rng_stream.standard_gamma(link.m, size=size, out=out)
    x *= link.mean_snr / link.m
    return x


@functools.cache
def scipy_special():
    """scipy.special, imported on the first call, never on import."""
    import scipy.special

    return scipy.special


def snr_cdf(link: LinkSnr, y: float) -> float:
    """CDF of the instantaneous SNR: P(m, m y / mean)."""
    if y < 0.0:
        raise ValueError(f"y must be nonnegative, got {y}")
    return float(scipy_special().gammainc(link.m, link.rate * y))
