"""Trial-level protocol simulation of the three opportunistic relaying
schemes under selection or maximal ratio combining.

The engine partitions trials into fixed-size blocks; every (block, link)
pair draws from its own random stream derived from the master seed, so
failure counts are bit-identical for any worker count and scheduling
order.  Aggregation is a plain sum of per-block failure counts.

Coupled mode evaluates several schemes on the same channel draws, which
turns scheme comparisons into paired comparisons with far lower variance
and makes the per-trial dominance of the adaptive scheme directly
observable.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from statistics import NormalDist

import numpy as np

from .analytic import RateSpec
from .channel import (
    LinkSnr,
    NetworkSpec,
    PowerSpec,
    make_stream,
    network_link_snrs,
    sample_snr,
)

BLOCK_SIZE = 1 << 16


class Scheme(Enum):
    DFAF = "dfaf"
    DF = "df"
    AF = "af"


class Combiner(Enum):
    SC = "sc"
    MRC = "mrc"


@dataclass(frozen=True)
class OutageEstimate:
    probability: float
    trials: int
    failures: int
    ci_low: float
    ci_high: float
    confidence: float
    master_seed: int


@dataclass(frozen=True)
class CoupledEstimates:
    """Per-scheme estimates from shared channel draws, plus the number of
    trials in which the adaptive scheme's combined SNR fell below another
    scheme's (zero when the adaptive scheme was run)."""

    estimates: dict[Scheme, OutageEstimate]
    dominance_violations: dict[Scheme, int]


def wilson_interval(
    failures: int, trials: int, confidence: float = 0.99
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion; stays sensible at
    the very low failure counts deep-outage points produce."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    z = NormalDist().inv_cdf(0.5 + 0.5 * confidence)
    p = failures / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return max(0.0, centre - half), min(1.0, centre + half)


def _af_equivalent(g1, g2):
    return g1 * g2 / (g1 + g2 + 1.0)


def _draw_block(
    direct: LinkSnr,
    relays: tuple[tuple[LinkSnr, LinkSnr], ...],
    seed: int,
    tag: tuple[int, ...],
    block: int,
    n: int,
):
    # Link ids: 0 direct, 2i+1 first hop of relay i, 2i+2 second hop.
    g0 = sample_snr(direct, make_stream(seed, *tag, block, 0), size=n)
    k = len(relays)
    g1 = np.empty((k, n))
    g2 = np.empty((k, n))
    for i, (first, second) in enumerate(relays):
        g1[i] = sample_snr(first, make_stream(seed, *tag, block, 2 * i + 1), size=n)
        g2[i] = sample_snr(second, make_stream(seed, *tag, block, 2 * i + 2), size=n)
    return g0, g1, g2


def _combined_snr_block(g0, g1, g2, rs: RateSpec, scheme: Scheme, combiner: Combiner):
    """Combined destination SNR of each trial in a block of draws: g0 has
    shape (n,), g1 and g2 shape (K, n).

    The selected relay maximizes the scheme's own path metric.  A relay
    that decodes forwards its second hop; one that does not contributes
    the amplified SNR under the adaptive scheme and zero under DF, so with
    no decoding relay DF falls back on the direct link.
    """
    if g1.shape[0] == 0:
        relay = np.zeros_like(g0)
    else:
        if scheme is Scheme.DFAF:
            metric = np.where(g1 >= rs.delta, g2, _af_equivalent(g1, g2))
        elif scheme is Scheme.DF:
            metric = np.where(g1 >= rs.delta, g2, 0.0)
        else:
            metric = _af_equivalent(g1, g2)
        relay = metric.max(axis=0)
    if combiner is Combiner.SC:
        return np.maximum(g0, relay)
    return g0 + relay


def _run_counts(
    net, power, rs, schemes, combiner, trials, seed, tag, workers
) -> tuple[dict[Scheme, int], dict[Scheme, int]]:
    """Failure counts per scheme (shared draws) plus counts of trials where
    the adaptive scheme's combined SNR fell strictly below another's.

    Each worker resolves one contiguous range of blocks in one loop: the
    calling thread the first range, pool threads the others.  The gamma
    draws, most of the work, release the interpreter lock while they fill
    a block, so the threads overlap.  One worker thus starts no thread; a
    fresh thread per estimate gets a fresh malloc arena, which measured up
    to 10 MB more peak RSS on single-worker runs."""
    direct, relays = network_link_snrs(net, power)
    n_blocks = -(-trials // BLOCK_SIZE)
    workers = max(1, min(workers, n_blocks))
    bounds = [i * n_blocks // workers for i in range(workers + 1)]

    def range_counts(block_lo: int, block_hi: int):
        failures = {s: 0 for s in schemes}
        violations = {s: 0 for s in schemes if s is not Scheme.DFAF}
        for block in range(block_lo, block_hi):
            n = min(BLOCK_SIZE, trials - block * BLOCK_SIZE)
            g0, g1, g2 = _draw_block(direct, relays, seed, tag, block, n)
            combined = {
                s: _combined_snr_block(g0, g1, g2, rs, s, combiner) for s in schemes
            }
            for s in schemes:
                failures[s] += int(np.count_nonzero(combined[s] < rs.gamma_th))
            if Scheme.DFAF in combined:
                for s in violations:
                    violations[s] += int(
                        np.count_nonzero(combined[Scheme.DFAF] < combined[s])
                    )
        return failures, violations

    ranges = list(zip(bounds[:-1], bounds[1:]))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(range_counts, lo, hi) for lo, hi in ranges[1:]]
        parts = [range_counts(*ranges[0])] + [f.result() for f in futures]
    failures = {s: sum(f[s] for f, _ in parts) for s in schemes}
    violations = {s: sum(v[s] for _, v in parts) for s in parts[0][1]}
    return failures, violations


def _check_run_args(trials: int, seed: int, confidence: float) -> None:
    if trials < 1000:
        raise ValueError(f"need at least 1000 trials for a usable estimate, got {trials}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")


def _estimate(failures: int, trials: int, confidence: float, seed: int) -> OutageEstimate:
    lo, hi = wilson_interval(failures, trials, confidence)
    return OutageEstimate(
        probability=failures / trials,
        trials=trials,
        failures=failures,
        ci_low=lo,
        ci_high=hi,
        confidence=confidence,
        master_seed=seed,
    )


def estimate_outage_coupled(
    net: NetworkSpec,
    power: PowerSpec,
    rs: RateSpec,
    schemes: tuple[Scheme, ...],
    trials: int,
    seed: int,
    confidence: float = 0.99,
    combiner: Combiner = Combiner.SC,
    workers: int = 1,
    stream_tag: tuple[int, ...] = (),
) -> CoupledEstimates:
    """Monte Carlo outage estimates with Wilson score intervals for one or
    more schemes on identical channel draws (paired comparison).

    stream_tag namespaces the random streams, so runs that must be
    independent (different grid points, different schemes in uncoupled
    mode) pass distinct tags.
    """
    _check_run_args(trials, seed, confidence)
    if not schemes:
        raise ValueError("need at least one scheme")
    failures, violations = _run_counts(
        net, power, rs, tuple(schemes), combiner, trials, seed, stream_tag, workers
    )
    return CoupledEstimates(
        estimates={
            s: _estimate(failures[s], trials, confidence, seed) for s in schemes
        },
        dominance_violations=violations,
    )


MIN_RELIABLE_FAILURES = 30
