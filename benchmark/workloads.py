"""Seeded workload generator: scenario dicts in the YAML scenario schema.

Standard library only, so it can run before `import opprelay` is timed.
The package sees nothing but these dicts, built through
`experiments.scenario_from_dict` (the user's validation path).

Each workload has a fixed composition (how many networks of each relay
count and shape class) and draws only the values inside each class from
the seed.  That keeps the amount of work per round nearly the same for
every seed while the inputs themselves change.

Regions where known closed-form defects live are part of the inputs on
purpose.  Where a defect only makes a check fail (gamma_th below delta,
the 1e-12 floor), the input is timed and the check counts a finding.
Where it makes a call raise (deep outage, non-integer shapes at high
SNR), the input goes to an untimed probe, run once per run, whose raises
the report counts: a timed round must not fail.
"""

from __future__ import annotations

import random

WORKLOADS = ("mc_sc", "mc_mrc_pool", "closed_form")

# Every MC preset in scenarios/ (fig2, fig3, fig7, fig8) runs 1e6 trials
# per estimate, so the per-estimate costs (stream set-up, pool start) weigh
# about as much against the per-block ones here as they do there.
TRIALS = 1_000_000
RATE = 1.0  # bit/s/Hz, so delta = 2**(2*RATE) - 1 = 3
DELTA = 2.0 ** (2.0 * RATE) - 1.0
ALL_SCHEMES = ["dfaf", "df", "af"]


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash with SHA-512, so this is stable across processes.
    return random.Random(f"{workload}:{seed}")


def _r(x: float) -> float:
    return round(x, 4)


def _link(m: float, omega: float = 1.0) -> dict:
    return {"m": m, "omega": omega}


class _Cards:
    """Stratified draws: each pass deals every combination of strata once,
    in shuffled order, so a round holds the same mix of cheap and
    expensive inputs for every seed; only the values inside the strata
    change."""

    def __init__(self, rng: random.Random, *strata: int):
        self.rng = rng
        self.cards = [()]
        for n in strata:
            self.cards = [c + (i,) for c in self.cards for i in range(n)]
        self.pending: list[tuple[int, ...]] = []

    def __call__(self) -> tuple[int, ...]:
        if not self.pending:
            self.pending = list(self.cards)
            self.rng.shuffle(self.pending)
        return self.pending.pop()


def _in_stratum(rng: random.Random, edges: list[float], i: int) -> float:
    """A value in stratum i, rounded to 4 places and never an integer (an
    integer shape would take the Bessel-sum route)."""
    x = _r(rng.uniform(edges[i], edges[i + 1]))
    return x + 0.0625 if float(x).is_integer() else x


class _Deck:
    """One value per card: the stratum's edge when `integer`, else a value
    inside the stratum."""

    def __init__(self, rng: random.Random, edges: list[float], integer: bool = False):
        self.rng, self.edges, self.integer = rng, edges, integer
        self.cards = _Cards(rng, len(edges) - 1)

    def __call__(self) -> float:
        (i,) = self.cards()
        return float(self.edges[i]) if self.integer else _in_stratum(self.rng, self.edges, i)


def _steps(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * j / n for j in range(n + 1)]


def _log_deck(rng: random.Random, centre: float, span: float, n: int):
    """Log-uniform values in [centre/span, centre*span], stratified."""
    exps = _Deck(rng, _steps(-1.0, 1.0, n))
    return lambda: _r(centre * span ** exps())


def _gamma_th_deck(rng: random.Random):
    # [delta/3, 3 delta], the range the schema admits in ROADMAP item 3;
    # below delta the DFAF closed form is known to be off.
    return _log_deck(rng, DELTA, 3.0, 6)


def _mc_sc(rng: random.Random) -> list[dict]:
    """Four uncoupled SC points, K = 1..4, 1 worker: 12 estimates.

    The SNR falls as K grows (25, 15, 10, 0 dB), so every point sees
    enough failures to have a usable interval.

    Every network has a direct link with m < 1 (numpy's boosted rejection
    sampler), first hops alternating integer and non-integer shapes, and
    non-integer second hops, so the draw mix is the same for every seed.
    """
    first_int = _Deck(rng, [1, 2, 3, 4], integer=True)
    first_frac = _Deck(rng, _steps(1.0, 3.0, 4))
    second = _Deck(rng, _steps(0.5, 3.0, 5))
    direct = _Deck(rng, _steps(0.5, 0.95, 4))
    omega = _log_deck(rng, 1.0, 2.0, 4)
    gamma_th = _gamma_th_deck(rng)
    out = []
    for i, (k, snr_db) in enumerate(((1, 25.0), (2, 15.0), (3, 10.0), (4, 0.0))):
        relays = [
            {
                "first_hop": _link(first_int() if j % 2 == 0 else first_frac(), omega()),
                "second_hop": _link(second(), omega()),
            }
            for j in range(k)
        ]
        out.append(
            {
                "name": f"mc_sc_{i}_K{k}",
                "network": {"direct": _link(direct()), "relays": relays},
                "rate": {"rate": RATE, "gamma_th": gamma_th()},
                "schemes": list(ALL_SCHEMES),
                "combiner": "sc",
                "outputs": ["montecarlo"],
                "snr_grid_db": [snr_db],
                "trials": TRIALS,
                "seed": rng.randrange(1 << 30),
                "confidence": 0.99,
            }
        )
    return out


def _mrc_network(direct, hop, spread, k: int) -> dict:
    return {
        "direct": _link(direct(), spread()),
        "relays": [{"first_hop": _link(hop(), spread()), "second_hop": _link(hop(), spread())}
                   for _ in range(k)],
    }


def _mc_mrc_pool(rng: random.Random) -> list[dict]:
    """Three coupled MRC curves (K = 2, 3, 4) at 0, 12.5 and 25 dB plus one
    coupled alpha sweep (3 splits), nproc workers: 12 estimates, so 12 pool
    starts per round, against 15 for the fig7 + fig8 presets."""
    gamma_th = _gamma_th_deck(rng)
    # numpy draws shapes below 1 with an extra uniform and a power, so how
    # many hops have m < 1 sets much of a round's cost.  The first stratum
    # of each deck is exactly m < 1: every round has 1 such direct link
    # and 6 such hops out of 18.
    direct = _Deck(rng, [0.5, 1.0, 1.25, 1.5])
    hop = _Deck(rng, [0.5, 1.0, 1.75, 2.5])
    spread = _log_deck(rng, 1.0, 2.0, 4)
    out = []
    for i, k in enumerate((2, 3, 4)):
        power = {}
        if i == 1:  # one curve with unequal source and relay power
            power = {
                "source_power": _r(rng.uniform(0.5, 2.0)),
                "relay_power": _r(rng.uniform(0.5, 2.0)),
            }
        out.append(
            {
                "name": f"mc_mrc_{i}_K{k}",
                "network": _mrc_network(direct, hop, spread, k),
                "rate": {"rate": RATE, "gamma_th": gamma_th()},
                "power": power,
                "schemes": list(ALL_SCHEMES),
                "combiner": "mrc",
                "outputs": ["montecarlo"],
                "snr_grid_db": {"start": 0, "stop": 25, "step": 12.5},
                "trials": TRIALS,
                "seed": rng.randrange(1 << 30),
                "confidence": 0.99,
                "coupled": True,
            }
        )
    # The sweep network stays near the fig8 preset (weak direct link,
    # three relays) so the mid-split dip the C8 check expects is a
    # property of the inputs, not a coincidence of the seed.
    out.append(
        {
            "name": "mc_mrc_alpha_K3",
            "kind": "alpha_sweep",
            "network": {
                "direct": _link(_r(rng.uniform(0.5, 0.8))),
                "relays": [
                    {
                        "first_hop": _link(_r(rng.uniform(1.0, 2.0))),
                        "second_hop": _link(_r(rng.uniform(1.0, 2.0))),
                    }
                    for _ in range(3)
                ],
            },
            "rate": {"rate": RATE},
            "schemes": list(ALL_SCHEMES),
            "combiner": "mrc",
            "outputs": ["montecarlo"],
            "alphas": [0.1, 0.5, 0.9],
            "total_power": 10.0,
            "trials": TRIALS,
            "seed": rng.randrange(1 << 30),
            "confidence": 0.99,
            "coupled": True,
        }
    )
    return out


# The AF path CDF quadrature (the non-integer route) first raised
# QuadratureError at a largest hop mean SNR of 39.6 dB, over 6000 random
# hops with shapes in [0.5, 4], mean SNRs in 0-60 dB and gamma_th in
# [1, 9]; none of the 2060 hops below 35 dB raised.  Timed points stop at
# 20 dB, so with spreads up to 10 and powers up to 2 no hop exceeds 33 dB.
TIMED_SNR_DB = [2.5 * j for j in range(9)]  # 0 to 20 dB
PROBE_SNR_DB = [25.0 + 5.0 * j for j in range(6)]  # 25 to 50 dB
FIT_WINDOW_DB = [35, 45]


def _closed_form(rng: random.Random) -> tuple[list[dict], list[dict]]:
    """Sixty SC networks for analytic + asymptotic + bounds points, twelve
    networks for diversity fits and one diversity surface; no Monte Carlo.

    Returns (timed, probe).  The timed round is the part of the schema on
    which no call raises today.  The probe holds the rest: the same sixty
    networks at 25-50 dB and their 35-45 dB fits, where ROADMAP item 3's
    defects raise (QuadratureError, ZeroOutageError).  The runner calls
    the probe once per run, outside the timed region, and reports what
    raised and what its checks found.

    Curve networks are evaluated one SNR point per call.  K runs 0..4
    twelve times.  Even networks use integer shapes 1..8 (the finite
    Bessel-sum route), odd ones non-integer shapes in [0.5, 4] (the
    quadrature route).  Every third network has unequal powers, so it asks
    for no asymptote (the schema allows that only at equal power).

    The timed fit networks use integer shapes, and every relay has one hop
    of shape 1 or 2.  The AF path CDF is computed as 1 - sum, which reads
    0 below about 1e-16; at 45 dB a path whose weaker hop has shape 4 or
    more falls there, and a fit of a zero outage raises ZeroOutageError.
    """
    int_shape = _Deck(rng, list(range(1, 10)), integer=True)
    frac_shape = _Deck(rng, _steps(0.5, 4.0, 7))
    omega = _log_deck(rng, 1.0, 10.0, 8)
    gamma_th = _gamma_th_deck(rng)
    # A relay's cost depends on its two shapes together: the Bessel-sum
    # route's cost grows with their product.  Dealing the shape pairs as
    # cards keeps the round's mix of pairs the same for every seed: each
    # round has 60 relays of each route, one pass of the 6 x 10
    # non-integer cards and 60 of the 8 x 8 integer ones.
    int_pair = _Cards(rng, 8, 8)
    frac_pair = _Cards(rng, 6, 10)
    first_edges, second_edges = _steps(0.5, 4.0, 6), _steps(0.5, 4.0, 10)

    def relay(integer: bool) -> dict:
        a, b = int_pair() if integer else frac_pair()
        if integer:
            m1, m2 = float(a + 1), float(b + 1)
        else:
            m1, m2 = _in_stratum(rng, first_edges, a), _in_stratum(rng, second_edges, b)
        return {"first_hop": _link(m1, omega()), "second_hop": _link(m2, omega())}

    def network(i: int, k: int, integer: bool, relays: list[dict]) -> dict:
        equal = i % 3 != 0
        power = {}
        if not equal:
            power = {
                "source_power": _r(rng.uniform(0.5, 2.0)),
                "relay_power": _r(rng.uniform(0.5, 2.0)),
                "direct_power": _r(rng.uniform(0.5, 2.0)),
            }
        # bounds is a per-relay table, so a network without relays has none
        outputs = ["analytic"] + (["bounds"] if k else []) + (["asymptotic"] if equal else [])
        shape = int_shape if integer else frac_shape
        return {
            "network": {"direct": _link(shape(), omega()), "relays": relays},
            "rate": {"rate": RATE, "gamma_th": gamma_th()},
            "power": power,
            "schemes": list(ALL_SCHEMES),
            "combiner": "sc",
            "outputs": outputs,
            "snr_grid_db": {"start": 0, "stop": 50, "step": 5},
            "fit_window_db": FIT_WINDOW_DB,
        }

    def points(name: str, net: dict, grid: list[float]) -> list[dict]:
        return [{**net, "name": f"{name}@{db}dB", "snr_grid_db": [db]} for db in grid]

    timed, probe = [], []
    for i in range(60):
        k, integer = i % 5, i % 2 == 0
        name = f"cf_{i}_K{k}_{'int' if integer else 'frac'}"
        net = network(i, k, integer, [relay(integer) for _ in range(k)])
        timed.extend(points(name, net, TIMED_SNR_DB))
        # the probe's whole-grid scenario is fitted, its points evaluated
        probe.append({**net, "name": name})
        probe.extend(points(name, net, PROBE_SNR_DB))
    small = _Deck(rng, [1, 2, 3], integer=True)
    for i in range(12):
        k = i % 4
        relays = []
        for _ in range(k):
            pair = [small(), int_shape()]
            rng.shuffle(pair)
            relays.append({"first_hop": _link(pair[0], omega()),
                           "second_hop": _link(pair[1], omega())})
        timed.append({**network(i, k, True, relays), "name": f"cf_fit_{i}_K{k}"})
    shapes = sorted(rng.sample([0.5, 1.0, 1.5, 2.0, 2.5, 3.0], 3))
    timed.append(
        {
            "name": "cf_surface",
            "kind": "diversity_surface",
            "network": {"direct": _link(_r(rng.uniform(0.5, 1.5)))},
            "rate": {"rate": RATE, "gamma_th": gamma_th()},
            "schemes": ["dfaf"],
            "outputs": ["analytic"],
            "surface_shapes": shapes,
            "fit_window_db": FIT_WINDOW_DB,
        }
    )
    return timed, probe


_GENERATORS = {
    "mc_sc": lambda rng: (_mc_sc(rng), []),
    "mc_mrc_pool": lambda rng: (_mc_mrc_pool(rng), []),
    "closed_form": _closed_form,
}


def _both(workload: str, seed: int) -> tuple[list[dict], list[dict]]:
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](_rng(workload, seed))


def generate(workload: str, seed: int) -> list[dict]:
    """The timed round's scenario dicts for one workload; the same
    (workload, seed) always gives the same dicts."""
    return _both(workload, seed)[0]


def probe(workload: str, seed: int) -> list[dict]:
    """Scenario dicts of the known-defect probe (empty for the MC
    workloads): inputs on which calls raise today, run once untimed."""
    return _both(workload, seed)[1]
