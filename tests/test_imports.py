"""scipy.special loads on the first closed-form call, so Monte Carlo runs
import numpy alone, and PyYAML loads on the first scenario file read.
Each check runs in a fresh interpreter, because the test process has long
since loaded scipy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import opprelay


def run_fresh(code: str) -> list[str]:
    src = str(Path(opprelay.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return out.split()


def test_monte_carlo_leaves_scipy_unloaded(tmp_path):
    out = tmp_path / "fig7.csv"
    code = f"""
import sys
import opprelay
from opprelay import cli
print("scipy" in sys.modules)
# 140000 trials make 3 blocks, so both workers resolve some
opprelay.estimate_outage_coupled(
    opprelay.NetworkSpec(
        opprelay.ChannelSpec(1.5), ((opprelay.ChannelSpec(0.5), opprelay.ChannelSpec(2.0)),)
    ),
    opprelay.PowerSpec(10.0, 10.0),
    opprelay.RateSpec(1.0),
    tuple(opprelay.Scheme),
    trials=140000,
    seed=5,
    combiner=opprelay.Combiner.MRC,
    workers=2,
)
print("scipy" in sys.modules)
cli.main(["simulate", "--scenario", "fig7_mrc_compare", "--trials", "2000",
          "--workers", "2", "--out", {str(out)!r}])
print("scipy" in sys.modules)
"""
    assert run_fresh(code) == ["False", "False", "False"]
    assert out.read_text().count("\n") > 1


def test_yaml_loads_on_the_first_scenario_file():
    code = """
import sys
import opprelay
print("yaml" in sys.modules)
opprelay.preset("fig4_K1")
print("yaml" in sys.modules)
"""
    assert run_fresh(code) == ["False", "True"]


def test_closed_form_loads_scipy_special_and_matches_it():
    code = """
import sys
from opprelay import LinkSnr, snr_cdf
link = LinkSnr(mean_snr=7.5, m=1.7)
value = snr_cdf(link, 2.3)
print("scipy.special" in sys.modules)
import scipy.special
print(value == float(scipy.special.gammainc(link.m, link.rate * 2.3)))
"""
    assert run_fresh(code) == ["True", "True"]


@pytest.mark.parametrize("process", range(3))
def test_concurrent_first_calls_agree(process):
    # four threads make the process's first snr_cdf call at once, so all
    # of them race to import scipy.special
    code = """
import threading
from opprelay import LinkSnr, snr_cdf
link = LinkSnr(mean_snr=7.5, m=1.7)
barrier = threading.Barrier(4)
results = []
def first_call():
    barrier.wait()
    try:
        results.append(repr(snr_cdf(link, 2.3)))
    except Exception as exc:
        results.append(type(exc).__name__)
threads = [threading.Thread(target=first_call) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(" ".join(results))
print(repr(snr_cdf(link, 2.3)))
"""
    *racing, settled = run_fresh(code)
    assert racing == [settled] * 4
