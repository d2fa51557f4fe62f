"""Command-line front end: run preset or file-based scenarios and emit CSV.

Exit codes: 0 success, 2 configuration error, 3 numerical/convergence
error (any ArithmeticError).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .experiments import (
    ScenarioError,
    af_bounds_rows,
    csv_text,
    fit_scenario_curves,
    preset,
    preset_names,
    resolve_scenarios,
    run_diversity_surface,
    run_scenario,
    sweep_alpha,
)
from .montecarlo import check_workers

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--scenario", required=True, metavar="FILE|PRESET",
        help="scenario YAML file or preset name (see 'presets list')",
    )
    common.add_argument("--seed", type=int, help="override the scenario seed")
    common.add_argument("--trials", type=int, help="override trials per point")
    common.add_argument(
        "--confidence", type=float, help="override the CI confidence level"
    )
    common.add_argument(
        "--out", metavar="PATH",
        help="write CSV here (default stdout); with a multi-scenario preset "
        "the scenario name is appended to the stem",
    )
    common.add_argument(
        "--workers", type=int, default=1,
        help="threads that share the Monte Carlo blocks (results identical "
        "for any value)",
    )

    parser = argparse.ArgumentParser(
        prog="opprelay",
        description="Outage curves for opportunistic relaying over "
        "Nakagami-m channels: closed form, high-SNR asymptotics, and "
        "Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("analytic", parents=[common], help="closed-form outage curve")
    sub.add_parser("asymptotic", parents=[common], help="high-SNR power-law curve")
    sub.add_parser("simulate", parents=[common], help="Monte Carlo outage curve")
    sub.add_parser(
        "compare", parents=[common],
        help="all outputs the scenario requests, side by side",
    )
    fit = sub.add_parser(
        "fit-diversity", parents=[common],
        help="secant log-log slope of the exact curve between the window's ends "
        "vs the predicted diversity order",
    )
    fit.add_argument(
        "--window-db", type=float, nargs=2, metavar=("LO", "HI"),
        help="fit window in dB, LO below HI (default: the scenario's window)",
    )
    sub.add_parser(
        "sweep-alpha", parents=[common],
        help="outage vs source power share at fixed total power",
    )
    pre = sub.add_parser("presets", help="preset utilities")
    pre.add_argument("action", nargs="?", default="list", choices=["list"])
    return parser


_NARROWED_OUTPUTS = {"analytic": "analytic", "asymptotic": "asymptotic", "simulate": "montecarlo"}

# The table function, of a scenario and a worker count, that each command
# runs on each scenario kind it accepts
_TABLES = {
    **{(c, "curve"): run_scenario for c in ("analytic", "asymptotic", "simulate", "compare")},
    ("fit-diversity", "curve"): lambda s, workers: fit_scenario_curves(s),
    ("sweep-alpha", "alpha_sweep"): sweep_alpha,
    ("fit-diversity", "diversity_surface"): lambda s, workers: run_diversity_surface(s),
}


def _out_path(base: str | None, scenario_name: str, multi: bool) -> Path | None:
    if base is None:
        return None
    path = Path(base)
    if not multi:
        return path
    return path.with_name(f"{path.stem}_{scenario_name}{path.suffix or '.csv'}")


def _emit(text: str, path: Path | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)


def _run_command(args: argparse.Namespace) -> None:
    if args.command == "presets":
        for name in preset_names():
            kinds = {s.kind for s in preset(name)}
            print(f"{name}  [{', '.join(sorted(kinds))}]")
        return

    check_workers(args.workers)
    scenarios = resolve_scenarios(args.scenario)
    for scenario in scenarios:
        if (args.command, scenario.kind) not in _TABLES:
            runs = [command for command, kind in _TABLES if kind == scenario.kind]
            raise ScenarioError(
                f"scenario {scenario.name!r} is kind {scenario.kind!r}; "
                f"run it with {' or '.join(runs)}"
            )
    # one replace per scenario applies, and so checks, every override; the
    # command's kinds all have the fields it overrides
    given = {"seed": args.seed, "trials": args.trials, "confidence": args.confidence}
    updates = {key: value for key, value in given.items() if value is not None}
    if getattr(args, "window_db", None):
        updates["fit_window_db"] = tuple(args.window_db)
    if args.command in _NARROWED_OUTPUTS:
        updates["outputs"] = frozenset({_NARROWED_OUTPUTS[args.command]})
    multi = len(scenarios) > 1
    for scenario in scenarios:
        scenario = replace(scenario, **updates)
        path = _out_path(args.out, scenario.name, multi)
        if multi and path is None:
            print(f"# scenario: {scenario.name}", file=sys.stderr)
        rows = _TABLES[args.command, scenario.kind](scenario, args.workers)
        _emit(csv_text(rows), path)

        if args.command == "compare" and "bounds" in scenario.outputs:
            if path is None:
                print(
                    "# bounds table skipped on stdout; pass --out to write "
                    "the companion file",
                    file=sys.stderr,
                )
            else:
                side = path.with_name(f"{path.stem}.bounds{path.suffix or '.csv'}")
                _emit(csv_text(af_bounds_rows(scenario)), side)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _run_command(args)
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
