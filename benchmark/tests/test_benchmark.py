"""Tests of the benchmark itself (not of the package).

    python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Target, Tracer  # noqa: E402

from opprelay import analytic, channel, experiments, montecarlo  # noqa: E402

MODULES = (experiments, channel, analytic)


def _declared(section: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[section]]


def _bindings() -> dict:
    """Every binding the tracer may replace, by identity; module dunders
    such as the warnings registry are not bindings."""
    return {
        (mod.__name__, key): id(value)
        for mod in (experiments, channel, analytic, montecarlo)
        for key, value in vars(mod).items()
        if (callable(value) or isinstance(value, dict)) and not key.startswith("__")
    } | {
        ("experiments._ANALYTIC_FNS", k): id(v)
        for k, v in experiments._ANALYTIC_FNS.items()
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    assert first != workloads.generate(workload, 8)
    for cfg in first:
        experiments.scenario_from_dict(cfg)


def _small_scenarios():
    """A cheap slice of every workload: one SC curve, one pooled MRC
    curve, one closed-form network with relays (its timed single-point
    scenarios, and its whole-grid and single-point probe ones)."""
    sc = experiments.scenario_from_dict(workloads.generate("mc_sc", 3)[1])
    mrc = experiments.scenario_from_dict(workloads.generate("mc_mrc_pool", 3)[0])
    dicts = workloads.generate("closed_form", 3) + workloads.probe("closed_form", 3)
    network = next(c["name"].partition("@")[0] for c in dicts if c["network"]["relays"])
    cf = [
        experiments.scenario_from_dict(c)
        for c in dicts
        if c["name"].partition("@")[0] == network
    ]
    return [
        ("mc_sc", [replace(sc, snr_grid_db=(0.0, 10.0))], 1),
        ("mc_mrc_pool", [replace(mrc, snr_grid_db=(5.0,))], 2),
        ("closed_form", cf, 1),
    ]


@pytest.mark.parametrize("case", range(3))
def test_traced_round_restores_wrappers_and_output(case, tmp_path):
    workload, scenarios, workers = _small_scenarios()[case]
    before = _bindings()
    _, plain = child.run_round(MODULES, scenarios, workload, workers)

    tracer = Tracer(str(tmp_path))
    tracer.install()
    try:
        _, traced = child.run_round(MODULES, scenarios, workload, workers)
    finally:
        tracer.restore()
    merged = tracer.merge_worker_dumps()
    assert _bindings() == before
    assert tracer.absent == []
    assert sum(tracer.calls.values()) > 0

    _, after = child.run_round(MODULES, scenarios, workload, workers)
    csv = ["".join(op.csv for op in ops) for ops in (plain, traced, after)]
    assert csv[0] == csv[1] == csv[2]
    if workers > 1:
        assert merged == workers
        assert tracer.calls["channel.sample_snr"] > 0


def test_missing_binding_is_reported_absent(tmp_path):
    tracer = Tracer(str(tmp_path))
    tracer.install((Target("specfun.gone", ("opprelay.analytic",), "no_such_function"),))
    tracer.restore()
    assert tracer.absent == ["specfun.gone"]


def test_metric_names_match_benchmark_json(tmp_path):
    workload, scenarios, workers = _small_scenarios()[2]
    tracer = Tracer(str(tmp_path))
    untraced = [child.Round(*child.run_round(MODULES, scenarios, workload, workers), False)]
    tracer.install()
    try:
        traced = [child.Round(*child.run_round(MODULES, scenarios, workload, workers), True)]
    finally:
        tracer.restore()
    layers = child.layer_metrics(tracer, traced, untraced, 0.5, 0.01)
    assert set(_declared("per_layer")) <= set(layers)
    res = {"wall_s": 1.0, "own_peak_rss_mb": 50.0, "workers_peak_rss_mb": 0.0}
    assert set(run.end_to_end_values([0.7, 0.8], res)) == set(_declared("end_to_end"))
