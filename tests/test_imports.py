"""scipy.special loads on the first exact closed-form value, never for
the high-SNR law; nothing loads numpy.polynomial, and block threads come
from threading, so Monte Carlo runs load neither scipy, numpy.polynomial
nor concurrent.futures; PyYAML loads on the first scenario file read.
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


def monte_carlo_loads(tmp_path, modules: list[str]) -> list[str]:
    """Whether any of modules is loaded after import opprelay, after a
    2-worker coupled MRC estimate and after a 2-worker simulate command."""
    out = tmp_path / "fig7.csv"
    code = f"""
import sys
import opprelay
from opprelay import cli
def loaded():
    print(any(name in sys.modules for name in {modules!r}))
loaded()
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
loaded()
cli.main(["simulate", "--scenario", "fig7_mrc_compare", "--trials", "2000",
          "--workers", "2", "--out", {str(out)!r}])
loaded()
"""
    loads = run_fresh(code)
    assert out.read_text().count("\n") > 1
    return loads


def test_monte_carlo_leaves_scipy_unloaded(tmp_path):
    assert monte_carlo_loads(tmp_path, ["scipy"]) == ["False", "False", "False"]


def test_monte_carlo_leaves_quadrature_table_and_executor_unloaded(tmp_path):
    # an AF quadrature node table built at import once loaded
    # numpy.polynomial and ran an eigen-solve, and the block threads came
    # from a concurrent.futures pool
    modules = ["numpy.polynomial", "concurrent.futures"]
    assert monte_carlo_loads(tmp_path, modules) == ["False", "False", "False"]


def test_yaml_loads_on_the_first_scenario_file():
    code = """
import sys
import opprelay
print("yaml" in sys.modules)
opprelay.preset("fig4_K1")
print("yaml" in sys.modules)
"""
    assert run_fresh(code) == ["False", "True"]


def test_high_snr_law_leaves_scipy_unloaded():
    # the asymptotic column is math alone: relay_terms calls no gammainc
    code = """
import sys
from dataclasses import replace
from opprelay import preset, run_scenario
(s,) = preset("fig3_nakagami_3relay")
rows = run_scenario(replace(s, outputs=frozenset({"asymptotic"})))
print(len(rows), all(r.outage_asymptotic > 0.0 for r in rows))
print("scipy" in sys.modules)
"""
    assert run_fresh(code) == ["33", "True", "False"]


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


def assert_first_calls_agree(setup: str, call: str) -> None:
    """Four threads make the process's first call at once; each must get
    the value a later call gets."""
    code = f"""
import threading
{setup}
barrier = threading.Barrier(4)
results = []
def first_call():
    barrier.wait()
    try:
        results.append(repr({call}))
    except Exception as exc:
        results.append(type(exc).__name__)
threads = [threading.Thread(target=first_call) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(" ".join(results))
print(repr({call}))
"""
    *racing, settled = run_fresh(code)
    assert racing == [settled] * 4


@pytest.mark.parametrize("process", range(3))
def test_concurrent_first_calls_agree(process):
    # the first snr_cdf calls race to import scipy.special
    setup = "from opprelay import LinkSnr, snr_cdf\nlink = LinkSnr(mean_snr=7.5, m=1.7)"
    assert_first_calls_agree(setup, "snr_cdf(link, 2.3)")


@pytest.mark.parametrize("process", range(3))
def test_concurrent_first_quadratures_agree(process):
    # the first af_path_cdf_quadrature calls race to import scipy.special
    # inside the amplified-path trapezoid rule
    setup = (
        "from opprelay import LinkSnr, af_path_cdf_quadrature\n"
        "hops = (LinkSnr(mean_snr=7.5, m=1.7), LinkSnr(mean_snr=4.0, m=2.5))"
    )
    assert_first_calls_agree(setup, "af_path_cdf_quadrature(*hops, 2.3)")
