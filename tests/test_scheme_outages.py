"""Frozen float.hex values of all three schemes' exact SC outage on seeded
networks whose outage threshold gamma_th is drawn between delta / 3 and
3 delta, so DF and DFAF differ on the networks below delta and coincide
on those above it.

The networks have 0 to 4 relays, shapes in [0.5, 4], unequal spreads,
unequal source and relay power and noise other than 1, over 0 to 60 dB.
Only these values and tests/golden/dfaf_below_delta.json pin the
adaptive scheme's own factor below delta at the bit level: every golden
preset table but below_delta_rayleigh_K3 runs at gamma_th = delta.

The closed forms carry the last digits of the special-function library,
so they are held bit for bit under the numpy and scipy releases they were
captured with, and elsewhere to the golden tables' 1e-12 relative.

Regenerate with `PYTHONPATH=src python tests/test_scheme_outages.py`, and
only when a number is meant to change; such a change is a bug fix and is
logged as one in CHANGES.md.
"""

import json
import math
import random
import re
from pathlib import Path

import numpy
import pytest
import scipy

from opprelay.analytic import RateSpec, Scheme, outage_sc
from opprelay.channel import ChannelSpec, NetworkSpec, PowerSpec

PIN = Path(__file__).parent / "golden" / "scheme_outages.json"
SEEDS = range(40)
SNR_DB = (0.0, 15.0, 30.0, 45.0, 60.0)


def network(seed: int) -> tuple[NetworkSpec, PowerSpec, RateSpec]:
    """K = seed % 5 relays; gamma_th = delta * 3**u with u uniform in [-1, 1]."""
    r = random.Random(7000 + seed)

    def link() -> ChannelSpec:
        return ChannelSpec(m=r.uniform(0.5, 4.0), omega=10.0 ** r.uniform(-1.0, 1.0))

    net = NetworkSpec(direct=link(), relays=tuple((link(), link()) for _ in range(seed % 5)))
    power = PowerSpec(
        source_power=10.0 ** r.uniform(-1.0, 1.0),
        relay_power=10.0 ** r.uniform(-1.0, 1.0),
        noise_variance=10.0 ** r.uniform(-0.5, 0.5),
    )
    rate = r.uniform(0.5, 1.5)
    delta = RateSpec(rate=rate).delta
    return net, power, RateSpec(rate=rate, gamma_th=delta * 3.0 ** r.uniform(-1.0, 1.0))


def outages(seed: int) -> dict[str, list[str]]:
    """float.hex of each scheme's exact outage at every grid point."""
    net, power, rs = network(seed)
    return {
        scheme.value: [
            outage_sc(scheme, net, power, rs, 10.0 ** (snr_db / 10.0)).hex() for snr_db in SNR_DB
        ]
        for scheme in Scheme
    }


def frozen() -> dict:
    return json.loads(PIN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", SEEDS)
def test_outages_bit_identical(seed):
    pin = frozen()
    same_libraries = pin["captured_with"] == {
        "numpy": numpy.__version__, "scipy": scipy.__version__,
    }
    got, want = outages(seed), pin["outage_sc"][str(seed)]
    assert got.keys() == want.keys()
    for scheme in want:
        if same_libraries:
            assert got[scheme] == want[scheme], scheme
            continue
        for g, w in zip(got[scheme], want[scheme], strict=True):
            assert math.isclose(float.fromhex(g), float.fromhex(w), rel_tol=1e-12, abs_tol=0.0)


def test_networks_cover_the_cases():
    nets = [network(seed) for seed in SEEDS]
    assert {len(net.relays) for net, _, _ in nets} == {0, 1, 2, 3, 4}
    assert all(power.source_power != power.relay_power for _, power, _ in nets)
    assert all(rs.delta / 3.0 <= rs.gamma_th <= 3.0 * rs.delta for _, _, rs in nets)
    below = [seed for seed in SEEDS if nets[seed][2].gamma_th < nets[seed][2].delta]
    assert 10 <= len(below) <= 30
    # below delta with a relay, the adaptive scheme takes its own factor
    pin = frozen()["outage_sc"]
    for seed in below:
        if nets[seed][0].relays:
            assert pin[str(seed)]["dfaf"] != pin[str(seed)]["df"], seed
    for seed in set(SEEDS) - set(below):
        assert pin[str(seed)]["dfaf"] == pin[str(seed)]["df"], seed


if __name__ == "__main__":
    text = json.dumps(
        {
            "captured_with": {"numpy": numpy.__version__, "scipy": scipy.__version__},
            "snr_db": list(SNR_DB),
            "outage_sc": {str(seed): outages(seed) for seed in SEEDS},
        },
        indent=1,
    )
    # one line per list, as in link_scaling.json
    text = re.sub(r"\[\s+([^][]*?)\s+\]", lambda m: f"[{' '.join(m[1].split())}]", text)
    text = re.sub(r'\{\n\s+("numpy": [^,]+,)\s+("scipy": [^\n]+)\n\s+\}', r"{\1 \2}", text)
    PIN.write_text(text + "\n", encoding="utf-8")
