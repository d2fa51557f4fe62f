"""Golden tables for every preset, emitted through the CLI's entry points
at 20,000 trials per point.

Monte Carlo columns must match byte for byte.  Closed-form columns may
move by floating-point noise only: 1e-12 relative for outage values,
asymptotes, bounds, AF path CDFs and slopes.

Regenerate with `PYTHONPATH=src python tests/test_golden.py`, and only
when a number is meant to change; such a change is a bug fix and is
logged as one in CHANGES.md.
"""

import csv
import io
import math
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from opprelay.cli import EXIT_OK, main
from opprelay.experiments import af_bounds_rows, csv_text, preset, preset_names

GOLDEN = Path(__file__).parent / "golden"
TRIALS = 20_000

SC_AF_CURVES = [
    "fig2_rayleigh_K1",
    "fig2_rayleigh_K2",
    "fig2_rayleigh_K3",
    "fig3_nakagami_3relay",
]
SC_CURVES = SC_AF_CURVES + ["fig4_K1", "fig4_K2", "fig4_K3"]
CASES = (
    [("compare", name) for name in SC_CURVES + ["below_delta_rayleigh_K3", "fig7_mrc_compare"]]
    + [("bounds", name) for name in SC_AF_CURVES]
    + [("fit-diversity", name) for name in SC_CURVES + ["fig6_diversity_surface"]]
    + [("sweep-alpha", "fig8_alpha_sweep")]
)

MC_COLUMNS = frozenset({"outage_mc", "mc_ci_low", "mc_ci_high", "trials", "failures"})


def golden_path(command: str, name: str) -> Path:
    return GOLDEN / f"{name}.{command}.csv"


def render(command: str, name: str, workdir: Path) -> str:
    """The CSV text the CLI writes for one preset; the bounds table is the
    companion file `compare` writes when a scenario requests bounds."""
    if command == "bounds":
        (s,) = preset(name)
        return csv_text(af_bounds_rows(replace(s, outputs=s.outputs | {"bounds"})))
    out = workdir / f"{name}.{command}.csv"
    with warnings.catch_warnings():
        # 20,000 trials leave few failures at the deeper MC points
        warnings.simplefilter("ignore")
        code = main([command, "--scenario", name, "--trials", str(TRIALS), "--out", str(out)])
    assert code == EXIT_OK
    return out.read_text(encoding="utf-8")


def assert_tables_match(text: str, expected_text: str) -> None:
    assert text.splitlines()[0] == expected_text.splitlines()[0]
    rows = list(csv.DictReader(io.StringIO(text)))
    expected_rows = list(csv.DictReader(io.StringIO(expected_text)))
    assert len(rows) == len(expected_rows)
    for i, (row, expected) in enumerate(zip(rows, expected_rows)):
        for column, want in expected.items():
            got = row[column]
            if got == want:
                continue
            where = f"row {i}, {column}: {got!r} != golden {want!r}"
            assert column not in MC_COLUMNS and got and want, where
            assert math.isclose(float(got), float(want), rel_tol=1e-12), where


@pytest.mark.parametrize("command,name", CASES, ids=[f"{c}-{n}" for c, n in CASES])
def test_matches_golden(command, name, tmp_path):
    expected = golden_path(command, name).read_text(encoding="utf-8")
    assert_tables_match(render(command, name, tmp_path), expected)


def test_every_preset_has_a_golden_table():
    covered = {name for _, name in CASES}
    for group in preset_names():
        assert {s.name for s in preset(group)} <= covered, group


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for command, name in CASES:
            golden_path(command, name).write_text(
                render(command, name, Path(tmp)), encoding="utf-8"
            )
