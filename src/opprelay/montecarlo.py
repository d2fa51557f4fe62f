"""Trial-level protocol simulation of the three opportunistic relaying
schemes under selection or maximal ratio combining.

The engine partitions trials into blocks of BLOCK_SIZE; every
(block, link) pair draws from its own random stream derived from the
master seed, so failure counts are bit-identical for any worker count and
scheduling order.  BLOCK_SIZE fixes that stream layout and nothing else:
a worker draws and folds each block in strips of CHUNK_SIZE trials, each
strip continuing the block's streams, into one set of strip-sized
buffers.  Within a strip the kernel draws one relay's hops at a time and
folds them into a running best per scheme, so a worker's memory is flat
in the number of relays, of blocks and in BLOCK_SIZE.  Aggregation is a
plain sum of per-strip failure counts.

Coupled mode evaluates several schemes on the same channel draws, which
turns scheme comparisons into paired comparisons with far lower variance
and makes the per-trial dominance of the adaptive scheme directly
observable.

The Scheme enum is defined in analytic, next to the closed forms that
dispatch on it, and re-exported here.
"""

from __future__ import annotations

import math
import threading
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
CHUNK_SIZE = 1 << 14


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


class _Workspace:
    """Strip-sized arrays one worker reuses for every strip of every block
    it resolves: CHUNK_SIZE long, or the trial count when that is smaller.

    Rows of the float array, floats, hold the direct link's and a relay's
    two hops' draws, the amplified SNR, a temporary and a running best per
    scheme; rows of the bool array, masks, hold the decode mask and a
    comparison mask.  The keys of best are the schemes the kernel folds."""

    def __init__(self, schemes, floats: np.ndarray, masks: np.ndarray) -> None:
        self.g0, self.g1, self.g2, self.amplified, self.tmp, *best = floats
        self.best = dict(zip(schemes, best))
        self.decoded, self.mask = masks
        self.floats, self.masks = floats, masks

    @classmethod
    def allocate(cls, n: int, schemes) -> _Workspace:
        return cls(schemes, np.empty((5 + len(schemes), n)), np.empty((2, n), dtype=bool))

    def head(self, n: int) -> _Workspace:
        """Views of the first n trials of every array, for a short strip."""
        return _Workspace(self.best, self.floats[:, :n], self.masks[:, :n])


def _combined_snrs(g0, hops, rs: RateSpec, combiner: Combiner, ws: _Workspace):
    """Combined destination SNR of each trial for each scheme of ws: g0
    holds the direct-link draws, hops yields each relay's (g1, g2) draws.

    The selected relay maximizes the scheme's own path metric.  A relay
    that decodes forwards its second hop; one that does not contributes
    the amplified SNR under the adaptive scheme and zero under DF, so with
    no decoding relay DF falls back on the direct link.  Every metric is
    nonnegative, so a running best that starts at zero is the selected
    relay's SNR, and zero with no relays.  The decode mask and the
    amplified SNR are computed only when a requested scheme reads them.

    Every result is written into ws, a _Workspace as long as g0; the
    returned dict is its running bests, keyed by scheme.
    """
    best, decoded, amplified, tmp = ws.best, ws.decoded, ws.amplified, ws.tmp
    for relay in best.values():
        relay.fill(0.0)
    decodes = Scheme.DFAF in best or Scheme.DF in best
    amplifies = Scheme.DFAF in best or Scheme.AF in best
    for g1, g2 in hops:
        if decodes:
            np.greater_equal(g1, rs.delta, out=decoded)
        if amplifies:
            # g1 * g2 / (g1 + g2 + 1.0), in that operation order
            np.multiply(g1, g2, out=amplified)
            np.add(g1, g2, out=tmp)
            tmp += 1.0
            amplified /= tmp
        for s, relay in best.items():
            if s is Scheme.DFAF:
                np.copyto(tmp, amplified)
                np.copyto(tmp, g2, where=decoded)
                np.maximum(relay, tmp, out=relay)
            elif s is Scheme.DF:
                # an undecoded relay's metric is zero, never above relay
                np.maximum(relay, g2, out=relay, where=decoded)
            else:
                np.maximum(relay, amplified, out=relay)
    combine = np.maximum if combiner is Combiner.SC else np.add
    for relay in best.values():
        combine(g0, relay, out=relay)
    return best


def _run_counts(
    net, power, snr, rs, schemes, combiner, trials, seed, tag, workers
) -> tuple[dict[Scheme, int], dict[Scheme, int]]:
    """Failure counts per scheme (shared draws) plus counts of trials where
    the adaptive scheme's combined SNR fell strictly below another's.

    Each worker resolves one contiguous range of blocks in one loop: the
    calling thread the first range, one threading.Thread each the others,
    so one worker starts no thread.  Every thread is joined before the
    first range's exception, in range order, is raised.  The gamma draws,
    most of the work, release the interpreter lock while they fill a
    strip, so the threads overlap.

    BLOCK_SIZE fixes the stream layout: a block opens its 2K+1 streams
    once, keyed (seed, *tag, block, link_id), and pairs each with its
    link.  CHUNK_SIZE fixes the buffer length: the block is drawn and
    folded in strips of that many trials, and each strip continues every
    stream where the last one stopped, so the draws are bit for bit those
    of one block-long fill.  A worker allocates one strip-sized _Workspace
    for the requested schemes and has sample_snr fill its rows and
    _combined_snrs fold them, relay by relay, so its memory is flat in
    the number of relays, of blocks and in BLOCK_SIZE, and its pages are
    faulted in once per estimate.  A short last strip uses views of the
    workspace."""
    direct, relays = network_link_snrs(net, power, snr)
    # Link ids: 0 direct, 2i+1 first hop of relay i, 2i+2 second hop.
    links = (direct, *(hop for pair in relays for hop in pair))
    n_blocks = -(-trials // BLOCK_SIZE)
    workers = min(workers, n_blocks)
    bounds = [i * n_blocks // workers for i in range(workers + 1)]

    def range_counts(block_lo: int, block_hi: int):
        failures = {s: 0 for s in schemes}
        violations = {s: 0 for s in schemes if s is not Scheme.DFAF}
        full = _Workspace.allocate(min(CHUNK_SIZE, trials), schemes)
        for block in range(block_lo, block_hi):
            (direct_link, direct_stream), *sources = [
                (link, make_stream(seed, *tag, block, link_id))
                for link_id, link in enumerate(links)
            ]
            pairs = list(zip(sources[::2], sources[1::2]))
            n = min(BLOCK_SIZE, trials - block * BLOCK_SIZE)
            for start in range(0, n, CHUNK_SIZE):
                c = min(CHUNK_SIZE, n - start)
                ws = full.head(c)
                g0 = sample_snr(direct_link, direct_stream, size=c, out=ws.g0)
                hops = (
                    (sample_snr(*a, size=c, out=ws.g1), sample_snr(*b, size=c, out=ws.g2))
                    for a, b in pairs
                )
                combined = _combined_snrs(g0, hops, rs, combiner, ws)
                for s in schemes:
                    failures[s] += int(
                        np.count_nonzero(np.less(combined[s], rs.gamma_th, out=ws.mask))
                    )
                if Scheme.DFAF in combined:
                    for s in violations:
                        violations[s] += int(
                            np.count_nonzero(
                                np.less(combined[Scheme.DFAF], combined[s], out=ws.mask)
                            )
                        )
        return failures, violations

    ranges = list(zip(bounds[:-1], bounds[1:]))
    parts: list = [None] * workers

    def resolve(i: int) -> None:
        try:
            parts[i] = range_counts(*ranges[i])
        except BaseException as exc:  # re-raised on the calling thread below
            parts[i] = exc

    threads = []
    try:
        for i in range(1, workers):
            thread = threading.Thread(target=resolve, args=(i,))
            thread.start()
            threads.append(thread)
        parts[0] = range_counts(*ranges[0])
    finally:
        for thread in threads:
            thread.join()
    for part in parts[1:]:
        if isinstance(part, BaseException):
            raise part
    failures = {s: sum(f[s] for f, _ in parts) for s in schemes}
    violations = {s: sum(v[s] for _, v in parts) for s in parts[0][1]}
    return failures, violations


def check_run_args(
    schemes: tuple[Scheme, ...], trials: int, seed: int, confidence: float
) -> None:
    """The rules an estimate's schemes and run arguments keep; Scenario
    applies them to every scenario as it is built."""
    if not schemes:
        raise ValueError("need at least one scheme")
    if len(set(schemes)) < len(schemes):
        raise ValueError(f"each scheme at most once, got {[x.value for x in schemes]}")
    if trials < 1000:
        raise ValueError(f"need at least 1000 trials for a usable estimate, got {trials}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")


def check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")


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
    check_run_args(schemes, trials, seed, confidence)
    check_workers(workers)
    failures, violations = _run_counts(
        net, power, snr, rs, tuple(schemes), combiner, trials, seed, stream_tag, workers
    )
    estimates = {}
    for s in schemes:
        lo, hi = wilson_interval(failures[s], trials, confidence)
        estimates[s] = OutageEstimate(
            probability=failures[s] / trials, trials=trials, failures=failures[s],
            ci_low=lo, ci_high=hi, confidence=confidence, master_seed=seed,
        )
    return CoupledEstimates(estimates=estimates, dominance_violations=violations)


MIN_RELIABLE_FAILURES = 30
