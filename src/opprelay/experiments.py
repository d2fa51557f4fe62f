"""Scenario definitions, preset experiment configurations, diversity
slopes, power-allocation sweeps, and CSV emission.

A scenario is a parameter bundle, not code: network shapes, rate, powers,
SNR grid, schemes, and which outputs to produce.  Presets reproduce the
comparative experiments at desk scale; each is an annotated YAML file in
the package's scenarios/ directory, in the same schema user scenario
files follow.

Each table kind has its own Scenario class, Curve, AlphaSweep or Surface,
holding only that kind's fields and rules: building one, replace included,
checks them all.  A file's kind key picks the class, whose fields it sets.

Curve tables use a fixed column set so emitted CSV files are stable:
snr_db, scheme, combiner, outage_analytic, outage_asymptotic, outage_mc,
mc_ci_low, mc_ci_high, trials, failures.  Columns a scenario did not
request stay empty.  An alpha sweep is a curve over power splits: its
table has the same columns with alpha in place of snr_db, and it reads
outputs and coupled as a curve does.  Diversity-surface, slope-fit, and
AF bound tables have their own documented column sets.

Curves and alpha sweeps build their rows with one table engine, _table,
over a list of operating points; it keys every value by scheme and holds
no closed-form rule of its own.  A point's link laws are built once, and
its exact values and high-SNR laws come from one analytic.outage_sc_point
and one analytic.asymptotic_outage_point pass over them, for all the
scenario's schemes.  A slope fit reads the exact pass directly at its dB
window's two ends: the exact secant
-ln(P(hi) / P(lo)) / ln(snr_hi / snr_lo).  A dB value whose linear SNR
overflows a float, or underflows to zero, is a ScenarioError.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import operator
import os
import re
import warnings
from dataclasses import dataclass, fields
from importlib import resources
from itertools import product
from pathlib import Path
from typing import TYPE_CHECKING, Callable, ClassVar, Iterable, Sequence

from . import analytic
from .analytic import RateSpec, Scheme
from .channel import ChannelSpec, NetworkSpec, PowerSpec, network_link_snrs
from .montecarlo import MIN_RELIABLE_FAILURES, Combiner, check_run_args, estimate_outage_coupled

if TYPE_CHECKING:
    from importlib.resources.abc import Traversable


class ScenarioError(ValueError):
    """Configuration problem: unknown preset, malformed scenario file, or
    an inconsistent scheme/combiner/output combination."""


class ZeroOutageError(ArithmeticError):
    """A slope fit met an outage of zero at its window's high end, where
    the closed form has underflowed, so the secant has no logarithm."""


VALID_OUTPUTS = frozenset({"analytic", "asymptotic", "montecarlo", "bounds"})

# Most points an snr_grid_db mapping may build: 0.01 dB steps over 100 dB.
MAX_GRID_POINTS = 10_000

_ALPHA_POWER_KEYS = (
    "an alpha sweep takes its power split from alphas and total_power; "
    "its power block may set noise_variance only"
)


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """The fields every kind reads; Curve, AlphaSweep and Surface add
    their kind's own fields and rules."""

    kind: ClassVar[str]
    name: str
    network: NetworkSpec
    rate: RateSpec = RateSpec(rate=1.0)
    power: PowerSpec = PowerSpec()
    schemes: tuple[Scheme, ...]
    combiner: Combiner = Combiner.SC
    outputs: frozenset[str] = frozenset({"analytic"})
    trials: int = 10**6
    seed: int = 12345
    confidence: float = 0.99
    coupled: bool = False

    def __post_init__(self) -> None:
        bad = set(self.outputs) - VALID_OUTPUTS
        if bad:
            raise ScenarioError(f"unknown outputs {sorted(bad)}; valid: {sorted(VALID_OUTPUTS)}")
        try:
            check_run_args(self.schemes, self.trials, self.seed, self.confidence)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        if self.outputs - {"montecarlo"}:
            _require_selection_combining(self, "a closed-form output")


@dataclass(frozen=True, kw_only=True)
class Curve(Scenario):
    """Outage over a dB grid, Monte Carlo up to mc_max_snr_db (everywhere
    when None); a fit reads its exact curve at the ends of fit_window_db."""

    kind: ClassVar[str] = "curve"
    snr_grid_db: tuple[float, ...]
    mc_max_snr_db: float | None = 25.0
    fit_window_db: tuple[float, float] = (35.0, 45.0)

    def __post_init__(self) -> None:
        super().__post_init__()
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
        _check_fit_window(self.fit_window_db)


@dataclass(frozen=True, kw_only=True)
class AlphaSweep(Scenario):
    """The curve table over source shares alpha of total_power."""

    kind: ClassVar[str] = "alpha_sweep"
    alphas: tuple[float, ...]
    total_power: float

    def __post_init__(self) -> None:
        super().__post_init__()
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


@dataclass(frozen=True, kw_only=True)
class Surface(Scenario):
    """DFAF slope fits over the hop-shape pairs of two symmetric relays."""

    kind: ClassVar[str] = "diversity_surface"
    surface_shapes: tuple[float, ...]
    fit_window_db: tuple[float, float] = (35.0, 45.0)

    def __post_init__(self) -> None:
        # first, or the outputs rule would blame outputs a surface never reads
        _require_selection_combining(self, "a diversity fit")
        super().__post_init__()
        if self.schemes != (Scheme.DFAF,):
            raise ScenarioError(
                "a diversity surface fits the adaptive scheme only; set schemes to [dfaf]"
            )
        if self.network.relays:
            raise ScenarioError("a surface takes its relays from surface_shapes; set relays: []")
        if not self.surface_shapes:
            raise ScenarioError("diversity surface needs a surface_shapes grid")
        try:
            for m in self.surface_shapes:
                ChannelSpec(m=m)
        except ValueError as exc:
            raise ScenarioError(f"surface_shapes: {exc}") from None
        _check_fit_window(self.fit_window_db)


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


@dataclass(frozen=True)
class BoundsRow:
    snr_db: float
    relay_index: int
    m_min: float
    bound_low: float
    bound_high: float
    af_path_cdf: float


def _db_to_linear(db: float) -> float:
    try:
        linear = 10.0 ** (db / 10.0)
    except OverflowError:
        raise ScenarioError(f"{db} dB overflows a linear SNR") from None
    if linear == 0.0:
        raise ScenarioError(f"{db} dB underflows a linear SNR")
    return linear


def _check_fit_window(window: tuple[float, float]) -> None:
    """A secant needs finite ends lo < hi with linear SNRs."""
    lo, hi = window
    if not all(map(math.isfinite, window)):
        raise ScenarioError(f"fit window [{lo}, {hi}] dB must be finite")
    _db_to_linear(lo)
    _db_to_linear(hi)
    if not lo < hi:
        raise ScenarioError(f"fit window [{lo}, {hi}] dB must have its low end below its high end")


def _require_selection_combining(s: Scenario, what: str) -> None:
    if s.combiner is Combiner.MRC:
        raise ScenarioError(
            f"{what} is selection-combining only; MRC outage has no closed "
            "form here and comes from Monte Carlo (the montecarlo output)"
        )


def _grid(power: PowerSpec, grid_db: Iterable[float], cut: float | None = None) -> list[tuple]:
    """(key, label, power, snr, simulated) points at one power, one per dB
    value; simulated marks the points up to cut, every point when None."""
    cut = math.inf if cut is None else cut
    return [(db, f"{db} dB", power, _db_to_linear(db), db <= cut) for db in grid_db]


def _table(row: type, s: Scenario, points: Sequence[tuple], workers: int) -> list:
    """One row(key, scheme, combiner, **columns) per point then scheme,
    the columns named as CurveRow's and holding the scenario's outputs:
    the exact SC outage, the scheme's high-SNR law and, at simulated
    points, the Monte Carlo estimate.  Point idx of the list draws under
    stream tag (idx,) when coupled, all schemes sharing each trial's draw;
    otherwise scheme si draws its own trials under tag (idx, si)."""
    runs = [(s.schemes, ())] if s.coupled else [((x,), (si,)) for si, x in enumerate(s.schemes)]
    table = []
    for idx, (key, label, power, snr, simulated) in enumerate(points):
        estimates = {}
        if "montecarlo" in s.outputs and simulated:
            for schemes, sub_tag in runs:
                result = estimate_outage_coupled(
                    s.network, power, s.rate, schemes, s.trials, s.seed, s.confidence,
                    s.combiner, workers, stream_tag=(idx, *sub_tag), snr=snr,
                )
                estimates.update(result.estimates)
        closed = {}
        if s.outputs & {"analytic", "asymptotic"}:
            laws = network_link_snrs(s.network, power, snr)
            if "analytic" in s.outputs:
                closed["outage_analytic"] = analytic.outage_sc_point(s.schemes, laws, s.rate)
            if "asymptotic" in s.outputs:
                closed["outage_asymptotic"] = analytic.asymptotic_outage_point(
                    s.schemes, laws, s.rate
                )
        for scheme in s.schemes:
            columns = {column: values[scheme] for column, values in closed.items()}
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


def run_scenario(s: Curve, workers: int = 1) -> list[CurveRow]:
    """Produce the curve table: one row per (snr_db, scheme)."""
    points = _grid(s.power, s.snr_grid_db, s.mc_max_snr_db)
    return _table(CurveRow, s, points, workers)


def af_bounds_rows(s: Curve) -> list[BoundsRow]:
    """Companion table for the AF scheme, per grid point and relay: the
    AF column of both engines.  analytic.relay_terms gives the low end of
    the path CDF's asymptotic sandwich and m_min, the high end is 2**m_min
    times it, and analytic.relay_factors gives the exact path CDF."""
    rows = []
    for snr_db, _, power, snr, _ in _grid(s.power, s.snr_grid_db):
        laws = network_link_snrs(s.network, power, snr)
        _, terms = analytic.relay_terms((Scheme.AF,), laws, s.rate)
        _, factors = analytic.relay_factors((Scheme.AF,), laws, s.rate)
        rows += (
            BoundsRow(snr_db, i, m_min, low, 2.0**m_min * low, af_cdf)
            for i, ((m_min, (low,)), (af_cdf,)) in enumerate(zip(terms, factors))
        )
    return rows


def sweep_alpha(s: AlphaSweep, workers: int = 1) -> list[AlphaRow]:
    """The curve table over power splits: one row per (alpha, scheme) at
    fixed total power, holding the scenario's outputs with the curve's
    coupling, and alpha in place of snr_db."""
    n0 = s.power.noise_variance
    points = [
        (alpha, f"alpha={alpha}", PowerSpec.from_alpha(alpha, s.total_power, n0), 1.0, True)
        for alpha in s.alphas
    ]
    return _table(AlphaRow, s, points, workers)


def _window_slopes(s: Curve | Surface, net: NetworkSpec) -> dict[Scheme, float]:
    """Each scheme's secant slope of its exact SC outage on net between the
    ends of the scenario's window, both evaluated by one closed-form pass;
    the log-SNR span comes from the dB values, so it is never zero."""
    lo, hi = s.fit_window_db
    at_lo, at_hi = (
        analytic.outage_sc_point(
            s.schemes, network_link_snrs(net, s.power, _db_to_linear(db)), s.rate
        )
        for db in (lo, hi)
    )
    span = (hi - lo) / 10.0 * math.log(10.0)
    slopes = {}
    for scheme in s.schemes:
        if at_hi[scheme] == 0.0:
            raise ZeroOutageError(f"zero outage at the high end of the fit window [{lo}, {hi}] dB")
        slopes[scheme] = -math.log(at_hi[scheme] / at_lo[scheme]) / span
    return slopes


def run_diversity_surface(s: Surface) -> list[SurfaceRow]:
    """Secant high-SNR slope of the exact outage for a two-relay symmetric
    network over a grid of hop shapes, against the predicted diversity."""
    rows = []
    for g1, g2 in product(s.surface_shapes, repeat=2):
        net = NetworkSpec(
            direct=s.network.direct,
            relays=((ChannelSpec(m=g1), ChannelSpec(m=g2)),) * 2,
        )
        rows.append(
            SurfaceRow(
                shape_first_hop=g1,
                shape_second_hop=g2,
                diversity_theory=analytic.diversity_order_dfaf(net),
                fitted_slope=_window_slopes(s, net)[Scheme.DFAF],
                window_lo_db=s.fit_window_db[0],
                window_hi_db=s.fit_window_db[1],
            )
        )
    return rows


def fit_scenario_curves(s: Curve) -> list[FitRow]:
    """Secant slope of each scheme's exact closed-form curve over the
    scenario's fit window; the curve is the selection-combining outage
    whatever the scenario's outputs."""
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
        )
        for scheme, slope in _window_slopes(s, s.network).items()
    ]


# ---------------------------------------------------------------------------
# CSV emission


@functools.cache
def _columns(row_type: type) -> tuple[list[str], Callable]:
    names = [f.name for f in fields(row_type)]
    return names, operator.attrgetter(*names)


def csv_text(rows: Iterable) -> str:
    """Dataclass rows as CSV text; all rows must share one type.  The
    writer writes None as an empty field and a float as its str(), the
    shortest round-trip representation."""
    rows = list(rows)
    if not rows:
        raise ScenarioError("no rows to write")
    columns, values = _columns(type(rows[0]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(map(values, rows))
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


def _parsed(cfg: dict, parsers: dict[str, Callable], owner: str | None = None) -> dict:
    """Parse the keys present in cfg; absent keys keep the defaults of the
    class the result is passed to, and a key outside the table is an
    error, naming its owner if given, so a misspelt key cannot silently
    leave a default in place."""
    if not isinstance(cfg, dict):
        raise ScenarioError(f"expected a mapping, got {cfg!r}")
    if not cfg.keys() <= parsers.keys():
        unknown = sorted(map(str, cfg.keys() - parsers.keys()))
        what = f"{owner} never reads {', '.join(unknown)}" if owner else f"unknown keys {unknown}"
        raise ScenarioError(f"{what}; valid: {sorted(parsers)}")
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


def _spec(cls, parsers: dict[str, Callable] | None = None, owner: str | None = None):
    """Parser of a mapping of the init fields of cls, each parsed by its
    entry in parsers, or as a number."""
    keys = {f.name: (parsers or {}).get(f.name, _real) for f in fields(cls) if f.init}
    return lambda cfg: cls(**_parsed(cfg, keys, owner))


_channel = _spec(ChannelSpec)
_power = _spec(PowerSpec)
_RELAY_KEYS = {"first_hop": _channel, "second_hop": _channel}


def _relays(cfgs) -> tuple[tuple[ChannelSpec, ChannelSpec], ...]:
    hops = [_parsed(cfg, _RELAY_KEYS) for cfg in cfgs]
    return tuple((h["first_hop"], h["second_hop"]) for h in hops)


_NETWORK_KEYS = {"direct": _channel, "relays": _relays}
# The parser of each scenario field that is not a plain number
_SCENARIO_KEYS = {
    "name": str,
    "network": lambda cfg: NetworkSpec(**_parsed(cfg, _NETWORK_KEYS)),
    "rate": _spec(RateSpec),
    "power": _power,
    "schemes": lambda names: tuple(Scheme(str(x).lower()) for x in names),
    "combiner": lambda name: Combiner(str(name).lower()),
    "outputs": lambda names: frozenset(str(x).lower() for x in names),
    "snr_grid_db": _grid_from_config,
    "mc_max_snr_db": lambda v: None if v is None else _real(v),
    "trials": _integral,
    "seed": _integral,
    "coupled": _flag,
    "alphas": _reals,
    "surface_shapes": _reals,
    "fit_window_db": _reals,
}


def _sweep_power(cfg) -> PowerSpec:
    """A sweep's power block, refusing a split key even at its default
    value, which the parsed PowerSpec no longer shows."""
    power = _power(cfg)
    split = sorted(cfg.keys() - {"noise_variance"})
    if split:
        raise ScenarioError(f"{_ALPHA_POWER_KEYS}, not {split}")
    return power


_KINDS = {
    cls.kind: _spec(cls, {**_SCENARIO_KEYS, **parsers}, f"kind {cls.kind!r}")
    for cls, parsers in ((Curve, {}), (AlphaSweep, {"power": _sweep_power}), (Surface, {}))
}


def scenario_from_dict(cfg: dict) -> Scenario:
    """Build the scenario class that the kind key names (curve when
    absent) from its file schema.  Absent keys take the defaults of that
    class, RateSpec, PowerSpec and ChannelSpec, and a key outside the
    class's fields is an error."""
    try:
        cfg = dict(cfg)
        kind = cfg.pop("kind", "curve")
        if kind not in _KINDS:
            raise ScenarioError(f"unknown scenario kind {kind!r}; valid: {sorted(_KINDS)}")
        return _KINDS[kind](cfg)
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"malformed scenario config: {exc}") from exc


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
