"""One fresh workload process.  Started by run.py; prints one JSON line.

    python3 benchmark/child.py --workload W --seed N --setup-only
    python3 benchmark/child.py --workload W --seed N --seconds S --trace 0|1

It imports the package from the checkout's src/ (never an installed
copy), builds the workload's scenarios from the generated dicts through
`experiments.scenario_from_dict`, then repeats the workload's rounds of
public entry-point calls for S seconds.  With --trace 1 it alternates
untraced and traced rounds, so the traced per-layer numbers and the
tracing overhead come from the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import warnings
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from checks import check_round  # noqa: E402
from tracing import TARGETS, Target, Tracer  # noqa: E402
from workloads import generate, probe  # noqa: E402

MIN_ROUNDS = 3
clock = time.perf_counter


@dataclass
class Op:
    kind: str  # curve | bounds | fit | sweep | surface
    scenario: str
    seconds: float
    rows: list
    error: str | None
    csv: str
    work: int  # see _work


@dataclass
class Round:
    wall: float
    ops: list[Op]
    traced: bool


def workers_for(workload: str) -> int:
    return len(os.sched_getaffinity(0)) if workload == "mc_mrc_pool" else 1


def load_package():
    """Import the package under test and return (module tuple, import seconds)."""
    t0 = clock()
    import opprelay
    from opprelay import analytic, channel, experiments

    elapsed = clock() - t0
    if not os.path.abspath(opprelay.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"opprelay imported from {opprelay.__file__}, not from {SRC}")
    return (experiments, channel, analytic), elapsed


def _calls(ex, s, workload: str, workers: int):
    """The public entry-point calls one scenario contributes to a round.
    Functions are looked up on the module at call time, so a traced
    round sees the wrappers."""
    if s.kind == "alpha_sweep":
        yield "sweep", lambda: ex.sweep_alpha(s, workers=workers)
    elif s.kind == "diversity_surface":
        yield "surface", lambda: ex.run_diversity_surface(s)
    elif workload == "closed_form" and len(s.snr_grid_db) > 1:
        # closed_form fits each network's whole-grid scenario and evaluates
        # its single-point ones (see workloads._closed_form)
        yield "fit", lambda: ex.fit_scenario_curves(s)
    else:
        yield "curve", lambda: ex.run_scenario(s, workers=workers)
        if "bounds" in s.outputs:
            yield "bounds", lambda: ex.af_bounds_rows(s)


# The calls whose output work_rate counts, per workload.
RATED = {"mc_sc": ("curve",), "mc_mrc_pool": ("curve", "sweep"), "closed_form": ("curve",)}


def _work(workload: str, rows: list) -> int:
    """Values a call returned: closed-form (SNR point, scheme) values, or
    resolved MC (trial, scheme) outcomes.  A call that raised returned
    nothing, so it counts no work."""
    return len(rows) if workload == "closed_form" else sum(r.trials for r in rows)


def run_round(modules, scenarios, workload: str, workers: int) -> tuple[float, list[Op]]:
    ex, _, analytic = modules
    failures = (analytic.QuadratureError, ex.ZeroOutageError, ValueError, ArithmeticError)
    ops = []
    start = clock()
    for s in scenarios:
        for kind, call in _calls(ex, s, workload, workers):
            t0 = clock()
            try:
                rows, error = call(), None
            except failures as exc:
                rows, error = [], type(exc).__name__
            seconds = clock() - t0
            text = ex.csv_text(rows) if rows else ""
            ops.append(Op(kind, s.name, seconds, rows, error, text, _work(workload, rows)))
    return clock() - start, ops


def curve_latency(untraced: list[Round]) -> tuple[float, float, int, int]:
    """Median and tail latency (ms) of one run_scenario call, the tail
    percentile used and the sample count.  The tail is the highest of
    p50/p75/p90/p95/p99 with at least 10 samples beyond it."""
    ms = sorted(op.seconds * 1e3 for r in untraced for op in r.ops if op.kind == "curve")
    tail = max(p for p in (50, 75, 90, 95, 99) if len(ms) * (100 - p) / 100.0 >= 10 or p == 50)
    return statistics.median(ms), ms[min(len(ms) - 1, int(len(ms) * tail / 100.0))], tail, len(ms)


def call_medians(rounds: list[Round]) -> list[float]:
    """Each call's median time over the rounds.  Every round makes the
    same calls in the same order on the same inputs, so a call's repeats
    differ only by the machine's noise.  Over five runs per workload on a
    shared VM, the sum of these medians spread 0.10-0.16 (IQR/median)
    from run to run; the sum of each call's fastest time spread 0.10-0.27."""
    return [statistics.median(ts) for ts in zip(*([op.seconds for op in r.ops] for r in rounds))]


def round_time(rounds: list[Round]) -> float:
    """One round's wall time: each call at its median, plus the median
    time a round spent outside the calls (csv_text and the loop)."""
    rest = statistics.median(r.wall - sum(op.seconds for op in r.ops) for r in rounds)
    return sum(call_medians(rounds)) + rest


def work_rate(workload: str, rounds: list[Round]) -> float:
    """MC workloads: resolved (trial, scheme) outcomes per second inside
    MC calls.  closed_form: closed-form (SNR point, scheme) values
    returned per second inside curve calls.  Calls that raised add their
    time and no work.  Each call counts at its median."""
    rated = [
        (op.work, t) for op, t in zip(rounds[0].ops, call_medians(rounds))
        if op.kind in RATED[workload]
    ]
    return sum(w for w, _ in rated) / sum(t for _, t in rated)


def mc_rows(rnd: Round) -> list:
    return [row for op in rnd.ops for row in op.rows if getattr(row, "trials", None)]


def mc_wnv(untraced: list[Round]) -> list[float]:
    """ROADMAP's work-normalised variance of every MC point with a failure:
    (CI half-width / estimate)^2 times the point's seconds.  A point's
    seconds are its call's median time shared equally by the call's rows
    (coupled schemes share their draws)."""
    return [
        ((row.mc_ci_high - row.mc_ci_low) / 2.0 / row.outage_mc) ** 2
        * seconds / len(op.rows)
        for op, seconds in zip(untraced[0].ops, call_medians(untraced))
        for row in op.rows
        if getattr(row, "failures", None)
    ]


def layer_metrics(tracer: Tracer, traced: list[Round], untraced: list[Round],
                  import_s: float, build_busy: float) -> dict[str, float]:
    """Span figures per traced round; MC counts, precision, latency and
    overhead from the untraced rounds.  Holds every span's calls,
    busy_share and self_share; run.py prints the names BENCHMARK.json
    declares."""
    n = len(traced)
    traced_wall = sum(r.wall for r in traced)
    m: dict[str, float] = {}
    for target in TARGETS:
        m.update(tracer.span_metrics(target.name, n, traced_wall))
    for name, value in tracer.counts.items():
        m[name] = value / n
    # Spans every workload runs also in seconds per round.
    m["experiments.run_scenario.self_s"] = tracer.self_time["experiments.run_scenario"] / n
    m["experiments.csv_text.busy_s"] = tracer.busy["experiments.csv_text"] / n
    # Every untraced round returns the same rows, so the first one stands
    # for all of them.
    rows = mc_rows(untraced[0])
    min_reliable = getattr(sys.modules["opprelay.montecarlo"], "MIN_RELIABLE_FAILURES", 30)
    m["montecarlo.trials"] = sum(row.trials for row in rows)
    m["montecarlo.failures"] = sum(row.failures for row in rows)
    m["montecarlo.reliable_point_frac"] = (
        sum(row.failures >= min_reliable for row in rows) / len(rows) if rows else 0.0
    )
    wnv = mc_wnv(untraced)
    m["montecarlo.precision_per_s"] = 1.0 / statistics.median(wnv) if wnv else 0.0
    m["import.opprelay_s"] = import_s
    m["experiments.scenario_from_dict.busy_s"] = build_busy
    p50, tail_ms, tail, n_curves = curve_latency(untraced)
    m["experiments.run_scenario.p50_ms"] = p50
    m["experiments.run_scenario.tail_ms"] = tail_ms
    m["experiments.run_scenario.tail_percentile"] = tail
    m["experiments.run_scenario.samples"] = n_curves
    m["trace.wall_untraced_s"] = round_time(untraced)
    m["trace.wall_traced_s"] = round_time(traced)
    m["trace.overhead"] = m["trace.wall_traced_s"] / m["trace.wall_untraced_s"] - 1.0
    return m


def figures(workload: str, untraced: list[Round], failed: int, attempted: int,
            check_fail_rate: float, probe_ops: list[Op]) -> dict:
    """Every figure of the workload's definition that applies to it, by
    name and unit, from the untraced rounds and the probe."""
    f = {
        "error_rate": (failed / attempted, "ratio"),
        "check_fail_rate": (check_fail_rate, "ratio"),
    }
    if probe_ops:
        raised = sum(op.error is not None for op in probe_ops)
        f["probe_error_rate"] = (raised / len(probe_ops), "ratio")
    rate = work_rate(workload, untraced)
    if workload == "closed_form":
        f["points_per_s"] = (rate, "1/s")
        p50, tail_ms, tail, n_curves = curve_latency(untraced)
        f["curve_p50_ms"] = (p50, "ms")
        f["curve_tail_ms"] = (tail_ms, "ms")
        f["curve_tail_percentile"] = (tail, "percentile")
        f["curve_samples"] = (n_curves, "count")
    else:
        f["mc_trials_per_s"] = (rate, "1/s")
        f["mc_wnv"] = (statistics.median(mc_wnv(untraced)), "s")
    return {name: {"value": v, "unit": u} for name, (v, u) in f.items()}


def _error_kinds(ops: list[Op]) -> dict[str, int]:
    kinds: dict[str, int] = {}
    for op in ops:
        if op.error:
            kinds[f"{op.kind}:{op.error}"] = kinds.get(f"{op.kind}:{op.error}", 0) + 1
    return kinds


def versions() -> dict:
    import multiprocessing

    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(),
    }


def setup_only(workload: str, seed: int) -> dict:
    dicts = generate(workload, seed)
    t0 = clock()
    (ex, _, _), import_s = load_package()
    for d in dicts:
        ex.scenario_from_dict(d)
    return {"setup_s": clock() - t0, "import_s": import_s}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    dicts = generate(workload, seed)
    t0 = clock()
    modules, import_s = load_package()
    ex = modules[0]
    build_tracer = Tracer(HERE)
    if trace:
        build_tracer.install((Target("experiments.scenario_from_dict",
                                     ("opprelay.experiments",), "scenario_from_dict"),))
    try:
        scenarios = [ex.scenario_from_dict(d) for d in dicts]
    finally:
        build_tracer.restore()
    setup_s = clock() - t0

    workers = workers_for(workload)
    dump_dir = os.path.join(ROOT, ".bench_work", f"trace-{os.getpid()}")
    if trace:
        os.makedirs(dump_dir, exist_ok=True)
    tracer = Tracer(dump_dir)
    rounds: list[Round] = []
    worker_dumps: list[int] = []  # per traced round
    rerun_identical = True
    start = clock()
    while True:
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            wall, ops = run_round(modules, scenarios, workload, workers)
        finally:
            if traced:
                tracer.restore()
                worker_dumps.append(tracer.merge_worker_dumps())
        rounds.append(Round(wall, ops, traced))
        if len(rounds) > 1:
            # Later rounds keep only their timings, so memory does not grow
            # with the number of rounds; their CSV must equal the first's.
            rerun_identical &= [op.csv for op in ops] == [op.csv for op in rounds[0].ops]
            for op in ops:
                op.rows, op.csv = [], ""
        n_traced = sum(r.traced for r in rounds)
        if (clock() - start >= seconds and len(rounds) - n_traced >= MIN_ROUNDS
                and (not trace or n_traced >= MIN_ROUNDS)):
            break
    if trace:
        os.rmdir(dump_dir)
        if not os.listdir(os.path.dirname(dump_dir)):
            os.rmdir(os.path.dirname(dump_dir))

    # ru_maxrss is in KiB on Linux.  Read before the probe, which is not
    # part of the workload.  run.py adds the pool workers' peaks.
    own_peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = [r for r in rounds if not r.traced]
    traced_rounds = [r for r in rounds if r.traced]
    # The known-defect probe: inputs on which calls raise today, called
    # once, untimed, and checked together with the first round.
    probe_scenarios = [ex.scenario_from_dict(d) for d in probe(workload, seed)]
    _, probe_ops = run_round(modules, probe_scenarios, workload, workers)
    report = check_round(workload, modules, scenarios + probe_scenarios,
                         untraced[0].ops + probe_ops)
    ops_per_round = len(untraced[0].ops)
    errors = sum(op.error is not None for r in untraced for op in r.ops)

    out = {
        "setup_s": setup_s,
        "import_s": import_s,
        "rounds": len(untraced),
        "round_walls_s": [r.wall for r in untraced],
        "attempted": ops_per_round * len(untraced),
        "failed": errors,
        "error_kinds_per_round": _error_kinds(untraced[0].ops),
        "probe": {"attempted": len(probe_ops), "raised": _error_kinds(probe_ops)},
        "correct": report.correct and rerun_identical,
        "rerun_identical": rerun_identical,
        "checks": report.summary(),
        # Rounds of one run were seen to differ by up to 75%; every round
        # time is in the report.
        "wall_s": round_time(untraced),
        "own_peak_rss_mb": own_peak_rss_mb,
        "figures": figures(workload, untraced, errors, ops_per_round * len(untraced),
                           report.summary()["check_fail_rate"], probe_ops),
        "workers": workers,
        "versions": versions(),
    }
    if trace:
        out["layers"] = layer_metrics(
            tracer, traced_rounds, untraced, import_s,
            build_tracer.busy["experiments.scenario_from_dict"],
        )
        out["absent"] = sorted(set(tracer.absent))
        # Worker spans are merged at the end of each traced round, from the
        # workers that exited in it.  Workers that outlive the round, or that
        # were started without the wrappers, leave their spans unmeasured.
        out["worker_spans"] = (
            "no pool workers" if workers == 1
            else "merged" if all(worker_dumps) else "not measured"
        )
        out["traced_rounds"] = len(traced_rounds)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    # Low-failure and quadrature warnings are part of normal output; keep
    # them off stderr so the report stays readable.
    warnings.simplefilter("ignore")
    if args.setup_only:
        result = setup_only(args.workload, args.seed)
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
