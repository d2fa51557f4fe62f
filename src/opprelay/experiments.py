"""Scenario definitions, preset experiment configurations, diversity-slope
fitting, power-allocation sweeps, and CSV emission.

A scenario is a parameter bundle, not code: network shapes, rate, powers,
SNR grid, schemes, and which outputs to produce.  Presets reproduce the
comparative experiments at desk scale; each is an annotated YAML file in
the package's scenarios/ directory, in the same schema user scenario
files follow.

Scenario is where the rules live: building one, replace included, checks
every rule of its kind's table; a table function checks only its kind.
Loading a file also refuses a key the scenario's kind never reads.

Curve tables use a fixed column set so emitted CSV files are stable:
snr_db, scheme, combiner, outage_analytic, outage_asymptotic, outage_mc,
mc_ci_low, mc_ci_high, trials, failures.  Columns a scenario did not
request stay empty.  An alpha sweep is a curve over power splits: its
table has the same columns with alpha in place of snr_db, and it reads
outputs and coupled as a curve does.  Diversity-surface, slope-fit, and
AF bound tables have their own documented column sets.

Curves, alpha sweeps and slope fits build their rows with one table
engine, _table, over a list of operating points: it is the one route
for every exact (analytic.outage_sc of the row's scheme), asymptotic and
Monte Carlo value they hold.  A dB value whose linear SNR overflows a
float, or underflows to zero, is a ScenarioError.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import os
import re
import warnings
from dataclasses import dataclass, fields
from importlib import resources
from itertools import product
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Sequence

import numpy as np

from . import analytic
from .analytic import RateSpec, Scheme
from .channel import ChannelSpec, NetworkSpec, PowerSpec, network_link_snrs
from .montecarlo import MIN_RELIABLE_FAILURES, Combiner, check_run_args, estimate_outage_coupled

if TYPE_CHECKING:
    from importlib.resources.abc import Traversable


class ScenarioError(ValueError):
    """Configuration problem: unknown preset, malformed scenario file, or
    an inconsistent scheme/combiner/output combination."""


class ZeroOutageError(RuntimeError):
    """A log-log slope fit hit an outage value of zero inside the window."""


VALID_OUTPUTS = frozenset({"analytic", "asymptotic", "montecarlo", "bounds"})

# Most points an snr_grid_db mapping or a 1 dB fit grid may build: 0.01 dB
# steps over 100 dB.
MAX_GRID_POINTS = 10_000

_KIND_COMMANDS = {
    "curve": "analytic, asymptotic, simulate, compare or fit-diversity",
    "alpha_sweep": "sweep-alpha",
    "diversity_surface": "fit-diversity",
}

_ALPHA_POWER_KEYS = (
    "an alpha sweep takes its power split from alphas and total_power; "
    "its power block may set noise_variance only"
)


@dataclass(frozen=True, kw_only=True)
class Scenario:
    name: str
    network: NetworkSpec
    rate: RateSpec = RateSpec(rate=1.0)
    power: PowerSpec = PowerSpec()
    schemes: tuple[Scheme, ...]
    combiner: Combiner = Combiner.SC
    outputs: frozenset[str] = frozenset({"analytic"})
    snr_grid_db: tuple[float, ...] | None = None
    trials: int = 10**6
    seed: int = 12345
    confidence: float = 0.99
    coupled: bool = False
    mc_max_snr_db: float | None = 25.0
    kind: str = "curve"  # curve | alpha_sweep | diversity_surface
    alphas: tuple[float, ...] | None = None
    total_power: float | None = None
    surface_shapes: tuple[float, ...] | None = None
    fit_window_db: tuple[float, float] = (35.0, 45.0)

    def __post_init__(self) -> None:
        bad = set(self.outputs) - VALID_OUTPUTS
        if bad:
            raise ScenarioError(f"unknown outputs {sorted(bad)}; valid: {sorted(VALID_OUTPUTS)}")
        if self.kind not in _KIND_COMMANDS:
            raise ScenarioError(f"unknown scenario kind {self.kind!r}")
        try:
            check_run_args(self.schemes, self.trials, self.seed, self.confidence)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        # curves and alpha sweeps read outputs alike; a surface reads none
        if self.kind != "diversity_surface" and self.outputs - {"montecarlo"}:
            _require_selection_combining(self, "a closed-form output")
        if self.kind == "curve":
            if not self.snr_grid_db:
                raise ScenarioError(f"scenario {self.name!r} has no SNR grid")
            if not all(map(math.isfinite, self.snr_grid_db)):
                raise ScenarioError("every snr_grid_db point must be finite")
            if any(b <= a for a, b in zip(self.snr_grid_db, self.snr_grid_db[1:])):
                raise ScenarioError("snr_grid_db must be strictly increasing")
            for db in self.snr_grid_db:
                _db_to_linear(db)
            if self.mc_max_snr_db is not None and math.isnan(self.mc_max_snr_db):
                raise ScenarioError("mc_max_snr_db must be a number or null, not NaN")
            if "bounds" in self.outputs and Scheme.AF not in self.schemes:
                raise ScenarioError("bounds output applies to the AF scheme only")
            if "bounds" in self.outputs and not self.network.relays:
                raise ScenarioError("bounds output needs at least one relay path")
        elif self.kind == "alpha_sweep":
            if not self.alphas:
                raise ScenarioError("alpha sweep needs a nonempty alphas list")
            if any(not 0.0 < a < 1.0 for a in self.alphas):
                raise ScenarioError("every alpha must lie strictly inside (0, 1)")
            if self.total_power is None or not 0.0 < self.total_power < math.inf:
                raise ScenarioError("alpha sweep needs a positive finite total_power")
            if self.power != PowerSpec(noise_variance=self.power.noise_variance):
                raise ScenarioError(_ALPHA_POWER_KEYS)
            if "bounds" in self.outputs:
                raise ScenarioError("bounds output applies to curves only, not alpha sweeps")
        else:
            _require_selection_combining(self, "a diversity fit")
            if self.schemes != (Scheme.DFAF,):
                raise ScenarioError(
                    "a diversity surface fits the adaptive scheme only; set schemes to [dfaf]"
                )
            if self.network.relays:
                raise ScenarioError(
                    "a surface takes its relays from surface_shapes; set relays: []"
                )
            if not self.surface_shapes:
                raise ScenarioError("diversity surface needs a surface_shapes grid")
        if self.kind != "alpha_sweep":
            lo, hi = self.fit_window_db
            if not all(map(math.isfinite, self.fit_window_db)):
                raise ScenarioError(f"fit window [{lo}, {hi}] dB must be finite")
            n = math.floor(hi - lo) + 1
            if n > MAX_GRID_POINTS:
                raise ScenarioError(
                    f"fit window [{lo}, {hi}] dB has {n} 1 dB points, over {MAX_GRID_POINTS}"
                )


@dataclass(frozen=True)
class CurveRow:
    snr_db: float
    scheme: str
    combiner: str
    outage_analytic: float | None = None
    outage_asymptotic: float | None = None
    outage_mc: float | None = None
    mc_ci_low: float | None = None
    mc_ci_high: float | None = None
    trials: int | None = None
    failures: int | None = None


@dataclass(frozen=True)
class AlphaRow:
    alpha: float
    scheme: str
    combiner: str
    outage_analytic: float | None = None
    outage_asymptotic: float | None = None
    outage_mc: float | None = None
    mc_ci_low: float | None = None
    mc_ci_high: float | None = None
    trials: int | None = None
    failures: int | None = None


@dataclass(frozen=True)
class SurfaceRow:
    shape_first_hop: float
    shape_second_hop: float
    diversity_theory: float
    fitted_slope: float
    residual: float
    window_lo_db: float
    window_hi_db: float


@dataclass(frozen=True)
class FitRow:
    scheme: str
    combiner: str
    window_lo_db: float
    window_hi_db: float
    fitted_slope: float
    theoretical_d: float
    residual: float
    n_points: int


@dataclass(frozen=True)
class BoundsRow:
    snr_db: float
    relay_index: int
    m_min: float
    bound_low: float
    bound_high: float
    af_path_cdf: float


def fit_diversity(
    curve: Sequence[tuple[float, float]], window_db: tuple[float, float]
) -> tuple[float, float, int]:
    """Least-squares slope of log10(outage) against log10(linear SNR) over
    the dB window, negated so a diversity order comes out positive, with
    its RMS residual and the number of points in the window."""
    lo, hi = window_db
    pts = [(db, p) for db, p in curve if lo <= db <= hi]
    if len(pts) < 3:
        raise ScenarioError(
            f"need at least 3 curve points inside [{lo}, {hi}] dB, found {len(pts)}"
        )
    if any(p <= 0.0 for _, p in pts):
        raise ZeroOutageError(
            f"zero outage value inside the fit window [{lo}, {hi}] dB"
        )
    x = np.array([db / 10.0 for db, _ in pts])  # log10 of linear SNR
    y = np.log10([p for _, p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return float(-slope), resid, len(pts)


def _db_to_linear(db: float) -> float:
    try:
        linear = 10.0 ** (db / 10.0)
    except OverflowError:
        raise ScenarioError(f"{db} dB overflows a linear SNR") from None
    if linear == 0.0:
        raise ScenarioError(f"{db} dB underflows a linear SNR")
    return linear


def _require_kind(s: Scenario, kind: str, what: str) -> None:
    if s.kind != kind:
        raise ScenarioError(
            f"scenario {s.name!r} is not {what} but kind {s.kind!r}; run it "
            f"with {_KIND_COMMANDS[s.kind]}"
        )


def _require_selection_combining(s: Scenario, what: str) -> None:
    if s.combiner is Combiner.MRC:
        raise ScenarioError(
            f"{what} is selection-combining only; MRC outage has no closed "
            "form here and comes from Monte Carlo (the montecarlo output)"
        )


def _grid(s: Scenario, grid_db: Iterable[float]) -> list[tuple]:
    """(key, label, power, snr, simulated) points at the scenario's power,
    one per dB value; simulated marks the points up to mc_max_snr_db."""
    cut = math.inf if s.mc_max_snr_db is None else s.mc_max_snr_db
    return [(db, f"{db} dB", s.power, _db_to_linear(db), db <= cut) for db in grid_db]


def _table(
    row: type, s: Scenario, net: NetworkSpec, points: Sequence[tuple],
    outputs: Collection[str], coupled: bool, workers: int,
) -> list:
    """One row(key, scheme, combiner, **columns) per point then scheme,
    the columns named as CurveRow's and holding the requested outputs:
    the exact SC outage, the high-SNR law (one value per point, none for
    AF) and, at simulated points, the Monte Carlo estimate.  Point idx of
    the list draws under stream tag (idx,) when coupled, all schemes
    sharing each trial's draw; otherwise scheme si draws its own trials
    under tag (idx, si)."""
    runs = [(s.schemes, ())] if coupled else [((x,), (si,)) for si, x in enumerate(s.schemes)]
    with_asym = "asymptotic" in outputs and any(x is not Scheme.AF for x in s.schemes)
    table = []
    for idx, (key, label, power, snr, simulated) in enumerate(points):
        estimates = {}
        if "montecarlo" in outputs and simulated:
            for schemes, sub_tag in runs:
                result = estimate_outage_coupled(
                    net, power, s.rate, schemes, s.trials, s.seed, s.confidence,
                    s.combiner, workers, stream_tag=(idx, *sub_tag), snr=snr,
                )
                estimates.update(result.estimates)
        asym = analytic.asymptotic_outage_dfaf(net, power, s.rate, snr) if with_asym else None
        for scheme in s.schemes:
            columns = {}
            if "analytic" in outputs:
                columns["outage_analytic"] = analytic.outage_sc(scheme, net, power, s.rate, snr)
            if "asymptotic" in outputs:
                columns["outage_asymptotic"] = None if scheme is Scheme.AF else asym
            est = estimates.get(scheme)
            if est is not None:
                columns.update(
                    outage_mc=est.probability, mc_ci_low=est.ci_low,
                    mc_ci_high=est.ci_high, trials=est.trials, failures=est.failures,
                )
                if est.failures < MIN_RELIABLE_FAILURES:
                    warnings.warn(
                        f"only {est.failures} failures at {label} ({scheme.value}) "
                        f"({est.trials} trials); estimate unreliable",
                        stacklevel=3,
                    )
            table.append(row(key, scheme.value, s.combiner.value, **columns))
    return table


def run_scenario(s: Scenario, workers: int = 1) -> list[CurveRow]:
    """Produce the curve table: one row per (snr_db, scheme)."""
    _require_kind(s, "curve", "a curve")
    return _table(CurveRow, s, s.network, _grid(s, s.snr_grid_db), s.outputs, s.coupled, workers)


def af_bounds_rows(s: Scenario) -> list[BoundsRow]:
    """Companion table for the AF scheme: asymptotic sandwich of each relay
    path's CDF at gamma_th, per grid point."""
    _require_kind(s, "curve", "a curve")
    rows = []
    for snr_db, _, power, snr, _ in _grid(s, s.snr_grid_db):
        _, relays = network_link_snrs(s.network, power, snr)
        for i, (first, second) in enumerate(relays):
            b = analytic.af_bounds(first, second, s.rate)
            rows.append(
                BoundsRow(
                    snr_db=snr_db,
                    relay_index=i,
                    m_min=b.m_min,
                    bound_low=b.lower,
                    bound_high=b.upper,
                    af_path_cdf=analytic.af_path_cdf_quadrature(first, second, s.rate.gamma_th),
                )
            )
    return rows


def sweep_alpha(s: Scenario, workers: int = 1) -> list[AlphaRow]:
    """The curve table over power splits: one row per (alpha, scheme) at
    fixed total power, holding the scenario's outputs with the curve's
    coupling, and alpha in place of snr_db."""
    _require_kind(s, "alpha_sweep", "an alpha sweep")
    n0 = s.power.noise_variance
    points = [
        (alpha, f"alpha={alpha}", PowerSpec.from_alpha(alpha, s.total_power, n0), 1.0, True)
        for alpha in s.alphas
    ]
    return _table(AlphaRow, s, s.network, points, s.outputs, s.coupled, workers)


def _fit_closed_form(s: Scenario, net: NetworkSpec) -> dict[Scheme, tuple[float, float, int]]:
    """fit_diversity of each scheme's exact SC curve on net, sampled in
    1 dB steps from the low end of the scenario's window, none beyond its
    high end."""
    lo, hi = s.fit_window_db
    points = _grid(s, [lo + i for i in range(math.floor(hi - lo) + 1)])
    curves = {x.value: [] for x in s.schemes}
    for row in _table(CurveRow, s, net, points, {"analytic"}, False, 1):
        curves[row.scheme].append((row.snr_db, row.outage_analytic))
    return {x: fit_diversity(curves[x.value], s.fit_window_db) for x in s.schemes}


def run_diversity_surface(s: Scenario) -> list[SurfaceRow]:
    """Fitted high-SNR slope of the exact outage for a two-relay symmetric
    network over a grid of hop shapes, against the predicted diversity."""
    _require_kind(s, "diversity_surface", "a diversity surface")
    rows = []
    for g1, g2 in product(s.surface_shapes, repeat=2):
        net = NetworkSpec(
            direct=s.network.direct,
            relays=((ChannelSpec(m=g1), ChannelSpec(m=g2)),) * 2,
        )
        slope, residual, _ = _fit_closed_form(s, net)[Scheme.DFAF]
        rows.append(
            SurfaceRow(
                shape_first_hop=g1,
                shape_second_hop=g2,
                diversity_theory=analytic.diversity_order_dfaf(net),
                fitted_slope=slope,
                residual=residual,
                window_lo_db=s.fit_window_db[0],
                window_hi_db=s.fit_window_db[1],
            )
        )
    return rows


def fit_scenario_curves(s: Scenario) -> list[FitRow]:
    """Diversity fit of each scheme's exact closed-form curve over the
    scenario's fit window; the curve is the selection-combining outage
    whatever the scenario's outputs."""
    _require_kind(s, "curve", "a curve")
    _require_selection_combining(s, "a diversity fit")
    window = s.fit_window_db
    d = analytic.diversity_order_dfaf(s.network)
    return [
        FitRow(
            scheme=scheme.value,
            combiner=s.combiner.value,
            window_lo_db=window[0],
            window_hi_db=window[1],
            fitted_slope=slope,
            theoretical_d=d,
            residual=residual,
            n_points=n_points,
        )
        for scheme, (slope, residual, n_points) in _fit_closed_form(s, s.network).items()
    ]


# ---------------------------------------------------------------------------
# CSV emission


def _cell(value) -> str:
    if value is None:
        return ""
    # str() of a float is the shortest round-trip representation
    return str(value)


def csv_text(rows: Iterable) -> str:
    """Dataclass rows as CSV text; all rows must share one type."""
    rows = list(rows)
    if not rows:
        raise ScenarioError("no rows to write")
    columns = [f.name for f in fields(rows[0])]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(getattr(row, name)) for name in columns])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Presets: the comparative experiment configurations at desk scale, one
# YAML file each in the package's scenarios/ directory.

_PRESET_GROUPS = {"fig4_varyK": ("fig4_K1", "fig4_K2", "fig4_K3")}


def _preset_files() -> dict[str, Traversable]:
    scenarios = resources.files(__package__) / "scenarios"
    return {
        f.name.removesuffix(".yaml"): f
        for f in scenarios.iterdir()
        if f.name.endswith(".yaml")
    }


def preset_names() -> list[str]:
    return sorted([*_preset_files(), *_PRESET_GROUPS])


def preset(name: str) -> tuple[Scenario, ...]:
    files = _preset_files()
    if name not in files and name not in _PRESET_GROUPS:
        raise ScenarioError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    return tuple(load_scenario(files[n]) for n in _PRESET_GROUPS.get(name, (name,)))


# ---------------------------------------------------------------------------
# Scenario files (YAML)


def _parsed(cfg: dict, parsers: dict[str, Callable]) -> dict:
    """Parse the keys present in cfg; absent keys keep the defaults of the
    class the result is passed to, and a key outside the table is an
    error, so a misspelt key cannot silently leave a default in place."""
    if not isinstance(cfg, dict):
        raise ScenarioError(f"expected a mapping, got {cfg!r}")
    if not cfg.keys() <= parsers.keys():
        unknown = sorted(map(str, cfg.keys() - parsers.keys()))
        raise ScenarioError(f"unknown keys {unknown}; valid: {sorted(parsers)}")
    return {key: parsers[key](value) for key, value in cfg.items()}


def _real(value) -> float:
    """A number; a YAML boolean or a string, even '1.0', is an error."""
    if isinstance(value, (bool, str)):
        raise ScenarioError(f"expected a number, got {value!r}")
    return float(value)


def _reals(values) -> tuple[float, ...]:
    return tuple(map(_real, values))


def _integral(value) -> int:
    """A whole number; a fraction, a bool or a string is an error rather
    than silently truncated or converted."""
    whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise ScenarioError(f"expected a whole number, got {value!r}")
    return int(value)


def _flag(value) -> bool:
    """A YAML boolean; a quoted "false" would otherwise read as true."""
    if not isinstance(value, bool):
        raise ScenarioError(f"expected true or false, got {value!r}")
    return value


_GRID_KEYS = dict.fromkeys(("start", "stop", "step"), _real)


def _grid_from_config(cfg) -> tuple[float, ...]:
    if isinstance(cfg, dict):
        grid = _parsed(cfg, _GRID_KEYS)
        if grid.keys() != _GRID_KEYS.keys():
            missing = sorted(_GRID_KEYS.keys() - grid.keys())
            raise ScenarioError(f"snr_grid_db mapping needs {missing}")
        start, stop, step = grid["start"], grid["stop"], grid["step"]
        if not (step > 0 and all(map(math.isfinite, (start, stop, step)))):
            raise ScenarioError("snr grid start, stop and step must be finite, step positive")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        if n > MAX_GRID_POINTS:
            raise ScenarioError(f"snr_grid_db mapping has {n} points, over {MAX_GRID_POINTS}")
        return tuple(start + i * step for i in range(n))
    return _reals(cfg)


def _spec(cls) -> Callable[[dict], object]:
    """Parser of a mapping of the init fields of cls, each a number."""
    keys = {f.name: _real for f in fields(cls) if f.init}
    return lambda cfg: cls(**_parsed(cfg, keys))


_channel = _spec(ChannelSpec)
_RELAY_KEYS = {"first_hop": _channel, "second_hop": _channel}


def _relays(cfgs) -> tuple[tuple[ChannelSpec, ChannelSpec], ...]:
    hops = [_parsed(cfg, _RELAY_KEYS) for cfg in cfgs]
    return tuple((h["first_hop"], h["second_hop"]) for h in hops)


_NETWORK_KEYS = {"direct": _channel, "relays": _relays}
_SCENARIO_KEYS = {
    "name": str,
    "kind": str,
    "network": lambda cfg: NetworkSpec(**_parsed(cfg, _NETWORK_KEYS)),
    "rate": _spec(RateSpec),
    "power": _spec(PowerSpec),
    "schemes": lambda names: tuple(Scheme(str(x).lower()) for x in names),
    "combiner": lambda name: Combiner(str(name).lower()),
    "outputs": lambda names: frozenset(str(x).lower() for x in names),
    "snr_grid_db": _grid_from_config,
    "mc_max_snr_db": lambda v: None if v is None else _real(v),
    "trials": _integral,
    "seed": _integral,
    "confidence": _real,
    "coupled": _flag,
    "alphas": _reals,
    "total_power": _real,
    "surface_shapes": _reals,
    "fit_window_db": _reals,
}


# Each key that some kind never reads, with the kinds that read it
_KEY_KINDS = {
    "snr_grid_db": {"curve"}, "mc_max_snr_db": {"curve"}, "alphas": {"alpha_sweep"},
    "total_power": {"alpha_sweep"}, "surface_shapes": {"diversity_surface"},
    "fit_window_db": {"curve", "diversity_surface"},
}


def scenario_from_dict(cfg: dict) -> Scenario:
    """Build a scenario from its file schema; absent keys take the
    defaults of Scenario, RateSpec, PowerSpec and ChannelSpec, and a key
    the scenario's kind never reads is an error.  An alpha sweep's power
    block may name noise_variance only, even at a default value, since
    the parsed PowerSpec no longer shows which keys were set."""
    try:
        parsed = _parsed(cfg, _SCENARIO_KEYS)
        ignored = sorted(map(str, cfg.get("power", {}).keys() - {"noise_variance"}))
        if parsed.get("kind") == "alpha_sweep" and ignored:
            raise ScenarioError(f"{_ALPHA_POWER_KEYS}, not {ignored}")
        s = Scenario(**parsed)
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"malformed scenario config: {exc}") from exc
    stray = [key for key in cfg if s.kind not in _KEY_KINDS.get(key, _KIND_COMMANDS)]
    if stray:
        raise ScenarioError(f"kind {s.kind!r} never reads {', '.join(stray)}")
    return s


@functools.cache
def _yaml_loader() -> type:
    """PyYAML's safe loader, reading 1e6 as a float: YAML 1.1 floats need a dot."""
    import yaml

    loader = type("Loader", (yaml.SafeLoader,), {})
    exponent = re.compile(r"^[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)[eE][-+]?[0-9]+$")
    loader.add_implicit_resolver("tag:yaml.org,2002:float", exponent, list("-+0123456789."))
    return loader


def load_scenario(path: str | os.PathLike | Traversable) -> Scenario:
    """Read one scenario from a YAML file path or a packaged resource.
    PyYAML loads on the first call, so importing opprelay does not."""
    import yaml

    if isinstance(path, (str, os.PathLike)):
        path = Path(path)
    cfg = yaml.load(path.read_text(encoding="utf-8"), Loader=_yaml_loader())
    if not isinstance(cfg, dict):
        raise ScenarioError(f"{path} does not contain a scenario mapping")
    return scenario_from_dict(cfg)


def resolve_scenarios(ref: str) -> tuple[Scenario, ...]:
    """Accept a preset name or a path to a YAML scenario file."""
    if ref in preset_names():
        return preset(ref)
    if os.path.exists(ref):
        return (load_scenario(ref),)
    raise ScenarioError(
        f"{ref!r} is neither a preset nor an existing scenario file; "
        f"presets: {', '.join(preset_names())}"
    )
