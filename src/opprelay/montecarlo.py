"""Trial-level protocol simulation of the three opportunistic relaying
schemes under selection or maximal ratio combining.

The engine partitions trials into fixed-size blocks; every (block, link)
pair draws from its own random stream derived from the master seed, so
failure counts are bit-identical for any worker count and scheduling
order.  Within a block the kernel draws one relay's hops at a time and
folds them into a running best per scheme, so memory does not grow with
the number of relays.  Aggregation is a plain sum of per-block failure
counts.

Coupled mode evaluates several schemes on the same channel draws, which
turns scheme comparisons into paired comparisons with far lower variance
and makes the per-trial dominance of the adaptive scheme directly
observable.

The Scheme enum is defined in analytic, next to the closed forms that
dispatch on it, and re-exported here.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from statistics import NormalDist

import numpy as np

from .analytic import RateSpec, Scheme
from .channel import (
    NetworkSpec,
    PowerSpec,
    make_stream,
    network_link_snrs,
    sample_snr,
)

BLOCK_SIZE = 1 << 16


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
    # At 0 or n failures centre and half nearly cancel, and rounding can
    # leave an end a few ulps on the wrong side of p.
    return min(max(0.0, centre - half), p), max(min(1.0, centre + half), p)


def _combined_snrs(g0, hops, rs: RateSpec, schemes, combiner: Combiner):
    """Combined destination SNR of each trial for each scheme: g0 holds the
    direct-link draws, hops yields each relay's (g1, g2) draws.

    The selected relay maximizes the scheme's own path metric.  A relay
    that decodes forwards its second hop; one that does not contributes
    the amplified SNR under the adaptive scheme and zero under DF, so with
    no decoding relay DF falls back on the direct link.  Every metric is
    nonnegative, so a running best that starts at zero is the selected
    relay's SNR, and zero with no relays.  The decode mask and the
    amplified SNR are computed only when a requested scheme reads them.
    """
    best = {s: np.zeros_like(g0) for s in schemes}
    decodes = Scheme.DFAF in best or Scheme.DF in best
    amplifies = Scheme.DFAF in best or Scheme.AF in best
    for g1, g2 in hops:
        decoded = g1 >= rs.delta if decodes else None
        amplified = g1 * g2 / (g1 + g2 + 1.0) if amplifies else None
        for s, relay in best.items():
            if s is Scheme.DFAF:
                metric = np.where(decoded, g2, amplified)
            elif s is Scheme.DF:
                metric = np.where(decoded, g2, 0.0)
            else:
                metric = amplified
            np.maximum(relay, metric, out=relay)
    combine = np.maximum if combiner is Combiner.SC else np.add
    return {s: combine(g0, relay, out=relay) for s, relay in best.items()}


def _run_counts(
    net, power, snr, rs, schemes, combiner, trials, seed, tag, workers
) -> tuple[dict[Scheme, int], dict[Scheme, int]]:
    """Failure counts per scheme (shared draws) plus counts of trials where
    the adaptive scheme's combined SNR fell strictly below another's.

    Each worker resolves one contiguous range of blocks in one loop: the
    calling thread the first range, pool threads the others.  The gamma
    draws, most of the work, release the interpreter lock while they fill
    a block, so the threads overlap.  One worker thus starts no thread; a
    fresh thread per estimate gets a fresh malloc arena, which measured up
    to 10 MB more peak RSS on single-worker runs.  A block's relay hops
    are drawn lazily, one relay at a time, as the kernel folds them in, so
    a worker's memory is flat in the number of relays."""
    direct, relays = network_link_snrs(net, power, snr)
    n_blocks = -(-trials // BLOCK_SIZE)
    workers = min(workers, n_blocks)
    bounds = [i * n_blocks // workers for i in range(workers + 1)]

    def range_counts(block_lo: int, block_hi: int):
        failures = {s: 0 for s in schemes}
        violations = {s: 0 for s in schemes if s is not Scheme.DFAF}
        for block in range(block_lo, block_hi):
            n = min(BLOCK_SIZE, trials - block * BLOCK_SIZE)
            # Link ids: 0 direct, 2i+1 first hop of relay i, 2i+2 second hop.
            g0 = sample_snr(direct, make_stream(seed, *tag, block, 0), size=n)
            hops = (
                (
                    sample_snr(first, make_stream(seed, *tag, block, 2 * i + 1), size=n),
                    sample_snr(second, make_stream(seed, *tag, block, 2 * i + 2), size=n),
                )
                for i, (first, second) in enumerate(relays)
            )
            combined = _combined_snrs(g0, hops, rs, schemes, combiner)
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


def _check_run_args(trials: int, seed: int, confidence: float, workers: int) -> None:
    if trials < 1000:
        raise ValueError(f"need at least 1000 trials for a usable estimate, got {trials}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")


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
    snr: float = 1.0,
) -> CoupledEstimates:
    """Monte Carlo outage estimates with Wilson score intervals for one or
    more schemes on identical channel draws (paired comparison).

    snr scales every transmit power of `power`, as the closed forms'
    argument of that name does.  stream_tag namespaces the random streams,
    so runs that must be independent (different grid points, different
    schemes in uncoupled mode) pass distinct tags.
    """
    _check_run_args(trials, seed, confidence, workers)
    if not schemes:
        raise ValueError("need at least one scheme")
    failures, violations = _run_counts(
        net, power, snr, rs, tuple(schemes), combiner, trials, seed, stream_tag, workers
    )
    return CoupledEstimates(
        estimates={
            s: _estimate(failures[s], trials, confidence, seed) for s in schemes
        },
        dominance_violations=violations,
    )


MIN_RELIABLE_FAILURES = 30
