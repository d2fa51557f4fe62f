"""Traced run support: wrap the package's public functions from outside.

Each traced function is replaced under the name its *caller* binds (for
example `montecarlo.sample_snr`, or the values of the scheme table in
`experiments`), so calls made through any of those bindings are seen.
`restore()` puts every original object back.  A binding that no longer
exists is recorded in `absent` and skipped, so the benchmark keeps
working when a later refactor removes or renames a layer.

A span records calls, inclusive time (busy) and self time (busy minus
the time covered by traced callees).  Spans inside pool workers are
collected by a worker initializer, dumped when the worker exits and
merged into the parent totals by `merge_worker_dumps()`, which the
runner calls at the end of every traced round.  Their self time is not
tracked.  Workers that do not carry the wrappers (started in an
untraced round, or under a non-fork start method) or that outlive the
round leave nothing to merge; the runner reports their spans as not
measured.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing.util
import os
import time
from collections import defaultdict
from dataclasses import dataclass

# The tracer that pool-worker initializers report into.  Pool workers are
# forked from the traced process, so they inherit this reference.
_ACTIVE: "Tracer | None" = None


@dataclass(frozen=True)
class Target:
    """One function to trace: the metric prefix, the modules whose
    bindings are replaced (the first one defines the original object),
    the attribute name, and whether to time it or only count calls."""

    name: str
    modules: tuple[str, ...]
    attr: str
    timed: bool = True
    hook: str | None = None


TARGETS = (
    Target("channel.sample_snr", ("opprelay.montecarlo",), "sample_snr", hook="variates"),
    Target("channel.make_stream", ("opprelay.montecarlo",), "make_stream"),
    Target("montecarlo.estimate_outage", ("opprelay.experiments",), "estimate_outage"),
    Target(
        "montecarlo.estimate_outage_coupled", ("opprelay.experiments",),
        "estimate_outage_coupled",
    ),
    Target("analytic.outage_dfaf_sc", ("opprelay.analytic", "opprelay.experiments"), "outage_dfaf_sc"),
    Target("analytic.outage_df_sc", ("opprelay.analytic", "opprelay.experiments"), "outage_df_sc"),
    Target("analytic.outage_af_sc", ("opprelay.analytic", "opprelay.experiments"), "outage_af_sc"),
    Target("analytic.af_path_cdf_closed", ("opprelay.analytic",), "af_path_cdf_closed"),
    Target("analytic.af_path_cdf_quadrature", ("opprelay.analytic",), "af_path_cdf_quadrature"),
    Target("analytic.asymptotic_outage_dfaf", ("opprelay.analytic",), "asymptotic_outage_dfaf"),
    Target("analytic.af_bounds", ("opprelay.analytic",), "af_bounds", timed=False),
    Target("specfun.reg_lower_gamma", ("opprelay.analytic", "opprelay.channel"), "reg_lower_gamma"),
    Target("specfun.reg_upper_gamma", ("opprelay.analytic",), "reg_upper_gamma"),
    Target("specfun.ln_bessel_k_int", ("opprelay.analytic",), "ln_bessel_k_int"),
    Target("specfun.ln_gamma", ("opprelay.analytic",), "ln_gamma", timed=False),
    Target("experiments.scenario_from_dict", ("opprelay.experiments",), "scenario_from_dict"),
    Target("experiments.run_scenario", ("opprelay.experiments",), "run_scenario"),
    Target("experiments.sweep_alpha", ("opprelay.experiments",), "sweep_alpha"),
    Target("experiments.fit_scenario_curves", ("opprelay.experiments",), "fit_scenario_curves"),
    Target("experiments.run_diversity_surface", ("opprelay.experiments",), "run_diversity_surface"),
    Target("experiments.af_bounds_rows", ("opprelay.experiments",), "af_bounds_rows"),
    Target("experiments.csv_text", ("opprelay.experiments",), "csv_text"),
)
POOL_BINDING = ("opprelay.montecarlo", "ProcessPoolExecutor")
COUNTERS = ("channel.variates", "montecarlo.pool_starts")


class Tracer:
    def __init__(self, dump_dir: str) -> None:
        self.dump_dir = dump_dir
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float, dict.fromkeys(COUNTERS, 0.0))
        self._stack: list[list[float]] = []

    # -- installing and removing wrappers ---------------------------------

    def install(self, targets=TARGETS) -> None:
        global _ACTIVE
        for t in targets:
            try:
                owner = importlib.import_module(t.modules[0])
                original = getattr(owner, t.attr)
            except (ImportError, AttributeError):
                self.absent.append(t.name)
                continue
            wrapper = (
                self._timed(t.name, original, getattr(self, f"_hook_{t.hook}", None))
                if t.timed
                else self._counted(t.name, original)
            )
            for mod_name in t.modules:
                try:
                    mod = importlib.import_module(mod_name)
                except ImportError:
                    continue
                self._replace(vars(mod), original, wrapper)
        try:
            mc = importlib.import_module(POOL_BINDING[0])
            pool_cls = getattr(mc, POOL_BINDING[1])
        except (ImportError, AttributeError):
            self.absent.append("montecarlo.pool_starts")
        else:
            self._set(vars(mc), POOL_BINDING[1], self._traced_pool(pool_cls))
        _ACTIVE = self

    def _replace(self, namespace: dict, original, wrapper) -> None:
        # Module globals bound to the original, and values of module-level
        # dicts (dispatch tables) that hold it.
        for key, value in list(namespace.items()):
            if value is original:
                self._set(namespace, key, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        self._set(value, k, wrapper)

    def _set(self, container: dict, key, value) -> None:
        self._patches.append((container, key, container[key]))
        container[key] = value

    def restore(self) -> None:
        global _ACTIVE
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()
        _ACTIVE = None

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn, hook):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack  # looked up per call: reset() replaces it
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.calls[name] += 1
                self.busy[name] += dt
                self.self_time[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                hook(args, kwargs, result, dt)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook_variates(self, args, kwargs, result, dt) -> None:
        size = kwargs.get("size", args[2] if len(args) > 2 else None)
        self.counts["channel.variates"] += 1 if size is None else size

    def _traced_pool(self, pool_cls):
        tracer = self

        class TracedPool(pool_cls):
            def __init__(self, *args, **kwargs):
                tracer.counts["montecarlo.pool_starts"] += 1
                if "initializer" not in kwargs and len(args) < 3:
                    kwargs["initializer"] = _worker_start
                super().__init__(*args, **kwargs)

        return TracedPool

    # -- pool workers --------------------------------------------------------

    def _dump(self) -> None:
        path = os.path.join(self.dump_dir, f"worker-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"calls": self.calls, "busy": self.busy, "counts": self.counts}, fh
            )

    def merge_worker_dumps(self) -> int:
        """Add the spans of the workers that have exited to the totals;
        return how many workers there were."""
        merged = 0
        for entry in sorted(os.listdir(self.dump_dir)):
            if not entry.startswith("worker-"):
                continue
            path = os.path.join(self.dump_dir, entry)
            with open(path, encoding="utf-8") as fh:
                part = json.load(fh)
            os.remove(path)
            for k, v in part["calls"].items():
                self.calls[k] += v
            for k, v in part["busy"].items():
                self.busy[k] += v
            for k, v in part["counts"].items():
                self.counts[k] += v
            merged += 1
        return merged

    # -- reading results -------------------------------------------------------

    def span_metrics(self, name: str, rounds: int, traced_wall: float) -> dict[str, float]:
        """Calls per round, and busy and self time as shares of the traced
        rounds' wall time.  Worker spans add up across workers, so a
        share can exceed 1 when a pool runs."""
        return {
            f"{name}.calls": self.calls.get(name, 0) / rounds,
            f"{name}.busy_share": self.busy.get(name, 0.0) / traced_wall,
            f"{name}.self_share": self.self_time.get(name, 0.0) / traced_wall,
        }


def _worker_start() -> None:
    # Runs in each pool worker.  A forked worker starts with a copy of the
    # parent's totals, so clear them and dump this worker's own at exit.
    tracer = _ACTIVE
    if tracer is None:
        return
    tracer.reset()
    multiprocessing.util.Finalize(None, tracer._dump, exitpriority=10)
