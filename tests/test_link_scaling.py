"""Frozen float.hex values of the closed forms and the failure counts of
one coupled Monte Carlo point, on seeded networks with non-integer shapes,
unequal spreads, unequal source and relay power, a separate direct-link
power on some, and noise other than 1.

Every golden preset table runs at equal unit power, so only these values
pin how a grid point's SNR scales each transmit power into link SNR laws:
any change to that arithmetic moves them bit for bit.

The link mean SNRs are plain floating-point products and quotients, held
bit for bit anywhere.  The closed forms also carry the last digits of the
special-function library, so they are held bit for bit under the numpy
and scipy releases they were captured with, and elsewhere to the golden
tables' 1e-12 relative.
"""

import json
import math
import random
from pathlib import Path

import numpy
import pytest
import scipy

from opprelay.analytic import (
    RateSpec,
    asymptotic_outage_dfaf,
    outage_sc,
)
from opprelay.channel import ChannelSpec, NetworkSpec, PowerSpec, network_link_snrs
from opprelay.experiments import Scenario, run_scenario
from opprelay.montecarlo import Scheme

FROZEN = json.loads(
    (Path(__file__).parent / "golden" / "link_scaling.json").read_text(encoding="utf-8")
)
SAME_LIBRARIES = FROZEN["captured_with"] == {
    "numpy": numpy.__version__, "scipy": scipy.__version__,
}
SEEDS = range(20)
SNR_DB = (0.0, 15.0, 30.0, 45.0, 60.0)
CLOSED_FORMS = {
    "outage_dfaf_sc": lambda *args: outage_sc(Scheme.DFAF, *args),
    "outage_af_sc": lambda *args: outage_sc(Scheme.AF, *args),
    "asymptotic_outage_dfaf": asymptotic_outage_dfaf,
}
# Coupled failures per scheme at 10 dB on network(3): three relays and a
# separate direct-link power.
MC_SEED = 3
MC_FAILURES = {"dfaf": 3008, "df": 3008, "af": 3061}


def network(seed: int) -> tuple[NetworkSpec, PowerSpec, RateSpec]:
    """K = seed % 5 relays; every third network sets direct_power."""
    r = random.Random(seed)

    def link() -> ChannelSpec:
        return ChannelSpec(m=r.uniform(0.5, 4.0), omega=10.0 ** r.uniform(-1.0, 1.0))

    net = NetworkSpec(direct=link(), relays=tuple((link(), link()) for _ in range(seed % 5)))
    power = PowerSpec(
        source_power=10.0 ** r.uniform(-1.0, 1.0),
        relay_power=10.0 ** r.uniform(-1.0, 1.0),
        noise_variance=10.0 ** r.uniform(-0.5, 0.5),
        direct_power=10.0 ** r.uniform(-1.0, 1.0) if seed % 3 == 0 else None,
    )
    return net, power, RateSpec(rate=r.uniform(0.5, 1.5))


def link_mean_snrs(seed: int) -> list[str]:
    """float.hex of every link's mean SNR at every grid point: direct link,
    then each relay's first and second hop."""
    net, power, _ = network(seed)
    means = []
    for snr_db in SNR_DB:
        direct, relays = network_link_snrs(net, power, 10.0 ** (snr_db / 10.0))
        means += [law.mean_snr.hex() for law in (direct, *(h for hops in relays for h in hops))]
    return means


def mc_failures() -> dict[str, int]:
    net, power, rs = network(MC_SEED)
    s = Scenario(
        name="link_scaling",
        network=net,
        rate=rs,
        power=power,
        schemes=tuple(Scheme),
        outputs=frozenset({"montecarlo"}),
        snr_grid_db=(10.0,),
        trials=100_000,
        seed=2024,
        coupled=True,
    )
    return {row.scheme: row.failures for row in run_scenario(s)}


@pytest.mark.parametrize("seed", SEEDS)
def test_link_laws_bit_identical(seed):
    assert link_mean_snrs(seed) == FROZEN["link_mean_snrs"][str(seed)]


@pytest.mark.parametrize("name", list(CLOSED_FORMS))
@pytest.mark.parametrize("seed", SEEDS)
def test_closed_forms_bit_identical(name, seed):
    net, power, rs = network(seed)
    got = [
        CLOSED_FORMS[name](net, power, rs, 10.0 ** (snr_db / 10.0)).hex()
        for snr_db in SNR_DB
    ]
    want = FROZEN[name][str(seed)]
    if SAME_LIBRARIES:
        assert got == want
    else:
        for g, w in zip(got, want, strict=True):
            assert math.isclose(float.fromhex(g), float.fromhex(w), rel_tol=1e-12, abs_tol=0.0)


def test_networks_cover_the_scaling_cases():
    nets = [network(seed) for seed in SEEDS]
    assert {len(net.relays) for net, _, _ in nets} == {0, 1, 2, 3, 4}
    assert sum(power.direct_power is not None for _, power, _ in nets) == 7
    assert all(power.source_power != power.relay_power for _, power, _ in nets)
    assert network(MC_SEED)[1].direct_power is not None


def test_coupled_point_failure_counts():
    assert mc_failures() == MC_FAILURES
