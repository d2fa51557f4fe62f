"""Command-line behaviour: CSV emission, overrides, exit codes, and
byte-identical reruns."""

import csv
import io
import math
import re
from pathlib import Path

import pytest

import opprelay
from opprelay import analytic, cli
from opprelay.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from opprelay.experiments import af_bounds_rows, csv_text, load_scenario

SCENARIO_DIR = Path(opprelay.__file__).parent / "scenarios"

CURVE_HEADER = (
    "snr_db,scheme,combiner,outage_analytic,outage_asymptotic,"
    "outage_mc,mc_ci_low,mc_ci_high,trials,failures"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasics:
    def test_analytic_preset_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "--scenario", "fig4_K1")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == CURVE_HEADER
        assert len(lines) == 1 + 11  # header + 0..50 dB step 5

    def test_presets_list(self, capsys):
        code, out, _ = run_cli(capsys, "presets", "list")
        assert code == EXIT_OK
        assert "fig8_alpha_sweep" in out
        assert "fig2_rayleigh_K3" in out

    def test_scenario_file_input(self, capsys):
        code, out, _ = run_cli(
            capsys, "analytic", "--scenario", str(SCENARIO_DIR / "fig4_K2.yaml")
        )
        assert code == EXIT_OK
        assert out.startswith(CURVE_HEADER)

    @pytest.mark.filterwarnings("ignore:only .* failures")
    def test_simulate_with_overrides(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--scenario", "fig2_rayleigh_K1",
            "--trials", "20000", "--seed", "9",
        )
        assert code == EXIT_OK
        assert "20000" in out

    def test_fit_diversity(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit-diversity", "--scenario", "fig4_K3",
            "--window-db", "35", "45",
        )
        assert code == EXIT_OK
        row = out.splitlines()[1].split(",")
        assert abs(float(row[4]) - 3.8) < 0.15

    def test_sweep_alpha(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep-alpha", "--scenario", "fig8_alpha_sweep",
            "--trials", "5000",
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == CURVE_HEADER.replace("snr_db", "alpha")
        assert len(out.splitlines()) == 1 + 27  # 9 alphas x 3 schemes


class TestFiles:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, err = run_cli(
            capsys, "analytic", "--scenario", "fig4_K1", "--out", str(target)
        )
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().startswith(CURVE_HEADER)

    def test_multi_scenario_suffixes(self, capsys, tmp_path):
        target = tmp_path / "fig4.csv"
        code, _, _ = run_cli(
            capsys, "analytic", "--scenario", "fig4_varyK", "--out", str(target)
        )
        assert code == EXIT_OK
        for k in (1, 2, 3):
            assert (tmp_path / f"fig4_fig4_K{k}.csv").exists()

    @pytest.mark.filterwarnings("ignore:only .* failures")
    def test_rerun_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            code, _, _ = run_cli(
                capsys,
                "compare", "--scenario", "fig2_rayleigh_K1",
                "--trials", "20000", "--out", str(target),
            )
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.filterwarnings("ignore:only .* failures")
    def test_worker_count_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
        for target, workers in ((a, "1"), (b, "2")):
            code, _, _ = run_cli(
                capsys,
                "simulate", "--scenario", "fig7_mrc_compare",
                "--trials", "30000", "--workers", workers, "--out", str(target),
            )
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_bounds_companion_file(self, capsys, tmp_path):
        import yaml

        cfg = yaml.safe_load((SCENARIO_DIR / "fig2_rayleigh_K2.yaml").read_text())
        cfg["outputs"] = ["analytic", "bounds"]
        cfg["schemes"] = ["af"]
        path = tmp_path / "bounds_scenario.yaml"
        path.write_text(yaml.safe_dump(cfg))
        target = tmp_path / "curve.csv"
        code, _, _ = run_cli(capsys, "compare", "--scenario", str(path), "--out", str(target))
        assert code == EXIT_OK
        side = tmp_path / "curve.bounds.csv"
        assert side.exists()
        assert side.read_text().startswith("snr_db,relay_index,m_min,bound_low")

    def test_compare_builds_the_bounds_table_only_for_its_file(
        self, capsys, tmp_path, monkeypatch
    ):
        # on stdout the companion table is skipped before it is computed, so
        # an error there cannot fail a command that already printed its curve
        fig3 = (SCENARIO_DIR / "fig3_nakagami_3relay.yaml").read_text()
        old = "outputs: [analytic, asymptotic, montecarlo]"
        assert old in fig3
        path = tmp_path / "fig3_bounds.yaml"
        path.write_text(fig3.replace(old, "outputs: [analytic, bounds]"))
        target = tmp_path / "curve.csv"
        code, _, _ = run_cli(capsys, "compare", "--scenario", str(path), "--out", str(target))
        assert code == EXIT_OK
        scenario = load_scenario(path)
        side = tmp_path / "curve.bounds.csv"
        assert side.read_text(encoding="utf-8") == csv_text(af_bounds_rows(scenario))

        def refuse(s):
            raise AssertionError("bounds table computed for stdout")

        monkeypatch.setattr(cli, "af_bounds_rows", refuse)
        code, out, err = run_cli(capsys, "compare", "--scenario", str(path))
        assert code == EXIT_OK
        assert out == target.read_text(encoding="utf-8")
        assert "# bounds table skipped on stdout" in err


class TestExitCodes:
    def test_unknown_preset_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "--scenario", "fig99")
        assert code == EXIT_CONFIG
        assert "configuration error" in err

    def test_mrc_analytic_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "--scenario", "fig7_mrc_compare")
        assert code == EXIT_CONFIG
        assert "selection-combining only" in err

    def test_mrc_fit_diversity_is_config_error(self, capsys):
        # the fitted curve is the selection-combining closed form, so an
        # MRC scenario must not get it under an "mrc" label
        code, out, err = run_cli(
            capsys, "fit-diversity", "--scenario", "fig7_mrc_compare"
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert "MRC" in err

    def test_mrc_surface_file_is_config_error(self, capsys, tmp_path):
        text = (SCENARIO_DIR / "fig6_diversity_surface.yaml").read_text()
        path = tmp_path / "mrc_surface.yaml"
        path.write_text(text.replace("combiner: sc", "combiner: mrc"))
        code, out, err = run_cli(capsys, "fit-diversity", "--scenario", str(path))
        assert code == EXIT_CONFIG
        assert out == ""
        assert "MRC" in err

    def test_misspelt_scenario_key_is_config_error(self, capsys, tmp_path):
        # a misspelt key must not leave the default of 10**6 trials in place
        text = (SCENARIO_DIR / "fig4_K1.yaml").read_text()
        path = tmp_path / "typo.yaml"
        path.write_text(text + "\ntrails: 1000\n")
        code, out, err = run_cli(capsys, "analytic", "--scenario", str(path))
        assert code == EXIT_CONFIG
        assert out == ""
        assert "trails" in err

    @pytest.mark.parametrize(
        "line",
        [
            'coupled: "false"', "coupled: 'False'", "coupled: 'off'", "coupled: 0",
            "trials: 2500.7", "trials: '2500'", "trials: true",
            "seed: 12.5", "seed: '7'",
            "direct: {m: yes, omega: 1.0}", "direct: {m: 0.8, omega: .inf}",
            "rate: {rate: true}", "rate: {rate: 600}", "rate: {rate: '1.0'}",
            "power: {source_power: .inf}",
            "snr_grid_db: {start: 0, stop: .inf, step: 5}",
        ],
    )
    def test_mistyped_scenario_value_is_config_error(self, capsys, tmp_path, line):
        # a quoted "false" used to run a coupled scenario, a fractional
        # trial count was truncated, m: yes ran a Rayleigh link, an
        # infinite spread or power wrote zero outages, a rate whose
        # threshold overflows crashed, and a quoted number parsed as one;
        # each is refused before anything runs
        key = line.split(":")[0]
        text = (SCENARIO_DIR / "fig4_K1.yaml").read_text()
        text = re.sub(rf"^( *){key}: .*$", rf"\g<1>{line}", text, flags=re.M)
        assert line in text
        path = tmp_path / "typed.yaml"
        path.write_text(text)
        target = tmp_path / "curve.csv"
        code, out, err = run_cli(capsys, "analytic", "--scenario", str(path), "--out", str(target))
        assert code == EXIT_CONFIG
        assert out == ""
        assert "configuration error" in err
        assert not target.exists()

    @pytest.mark.parametrize(
        "command, line, word",
        [
            ("analytic", "trials: 0", "at least 1000 trials"),
            ("analytic", "confidence: 2", "confidence must lie in (0, 1)"),
            ("analytic", "seed: -1", "seed must be nonnegative"),
            ("asymptotic", "trials: 999", "at least 1000 trials"),
            ("fit-diversity", "confidence: 0", "confidence must lie in (0, 1)"),
            ("analytic", "snr_grid_db: [0, 10, 4000]", "4000.0 dB overflows a linear SNR"),
            ("fit-diversity", "snr_grid_db: [0, 10, 4000]", "4000.0 dB overflows a linear SNR"),
        ],
    )
    def test_run_argument_in_file_is_config_error_for_every_command(
        self, capsys, tmp_path, command, line, word
    ):
        # the Monte Carlo arguments used to be checked only by an estimate,
        # so the closed-form commands wrote a table from a file that
        # simulate refused
        key = line.split(":")[0]
        text = (SCENARIO_DIR / "fig4_K1.yaml").read_text()
        text = re.sub(rf"^{key}: .*$", line, text, flags=re.M)
        assert line in text
        path = tmp_path / "run_args.yaml"
        path.write_text(text)
        target = tmp_path / "table.csv"
        code, out, err = run_cli(capsys, command, "--scenario", str(path), "--out", str(target))
        assert code == EXIT_CONFIG
        assert out == ""
        assert word in err
        assert not target.exists()

    @pytest.mark.parametrize(
        "command, name, old, new, word",
        [
            ("sweep-alpha", "fig8_alpha_sweep", "total_power: 10.0", "total_power: .inf",
             "total_power"),
            ("fit-diversity", "fig6_diversity_surface", "relays: []",
             "relays: [{first_hop: {m: 4.0}, second_hop: {m: 4.0}}]", "relays: []"),
            ("compare", "fig2_rayleigh_K1", "mc_max_snr_db: 25", "mc_max_snr_db: .nan",
             "mc_max_snr_db"),
            ("compare", "fig2_rayleigh_K1", "schemes: [dfaf, df, af]", "schemes: [dfaf, dfaf]",
             "dfaf"),
            ("simulate", "fig7_mrc_compare", "outputs: [montecarlo]",
             "outputs: [analytic, montecarlo]", "selection-combining only"),
            ("sweep-alpha", "fig8_alpha_sweep", "outputs: [montecarlo]",
             "outputs: [analytic, montecarlo]", "selection-combining only"),
            ("analytic", "fig4_K1", "coupled: false", "coupled: false\nalphas: [0.5]",
             "kind 'curve' never reads alphas"),
            ("sweep-alpha", "fig8_alpha_sweep", "total_power: 10.0",
             "total_power: 10.0\nsnr_grid_db: [0, 10]",
             "kind 'alpha_sweep' never reads snr_grid_db"),
        ],
        ids=[
            "infinite_total_power", "surface_with_relay", "nan_mc_cut", "repeated_scheme",
            "simulate_mrc_closed_form", "mrc_sweep_closed_form", "curve_with_alphas",
            "sweep_with_grid",
        ],
    )
    def test_unusable_table_scenario_is_config_error(
        self, capsys, tmp_path, command, name, old, new, word
    ):
        # an infinite total power wrote zero outages, a surface ran its
        # own two relays whatever the network named, a NaN Monte Carlo
        # cut left every Monte Carlo column empty, and a repeated scheme
        # doubled its coupled Monte Carlo estimate; an MRC file that asks
        # for a closed form is refused even by simulate, which never
        # writes one
        text = (SCENARIO_DIR / f"{name}.yaml").read_text()
        assert old in text
        path = tmp_path / "edited.yaml"
        path.write_text(text.replace(old, new))
        target = tmp_path / "table.csv"
        code, out, err = run_cli(
            capsys, command, "--scenario", str(path), "--trials", "20000", "--out", str(target)
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert word in err
        assert not target.exists()

    @pytest.mark.parametrize(
        "grid, word",
        [("{start: 0, stop: 10, step: 5, stpe: 1}", "stpe"), ("{start: 0, stop: 10}", "step")],
        ids=["unknown", "missing"],
    )
    def test_grid_mapping_keys_are_checked(self, capsys, tmp_path, grid, word):
        text = (SCENARIO_DIR / "fig4_K1.yaml").read_text()
        path = tmp_path / "grid.yaml"
        path.write_text(text.replace("{start: 0, stop: 50, step: 5}", grid))
        code, out, err = run_cli(capsys, "analytic", "--scenario", str(path))
        assert code == EXIT_CONFIG
        assert out == ""
        assert word in err

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_nonpositive_workers_is_config_error(self, capsys, workers):
        code, out, err = run_cli(
            capsys,
            "simulate", "--scenario", "fig2_rayleigh_K1",
            "--trials", "20000", "--workers", workers,
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert "configuration error" in err and "worker" in err

    @pytest.mark.parametrize(
        "command, name",
        [("analytic", "fig4_K1"), ("asymptotic", "fig4_K1"), ("compare", "fig4_K1"),
         ("fit-diversity", "fig4_K1"), ("sweep-alpha", "fig8_alpha_sweep")],
    )
    def test_nonpositive_workers_is_config_error_for_every_command(self, capsys, command, name):
        # only the Monte Carlo estimator refused it, so a closed-form run
        # took any worker count
        code, out, err = run_cli(
            capsys, command, "--scenario", name, "--trials", "20000", "--workers", "0"
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert "need at least one worker, got 0" in err

    def test_sweep_reads_outputs_and_coupled(self, capsys, tmp_path):
        # a sweep ran coupled Monte Carlo alone, whatever the file asked for
        text = (SCENARIO_DIR / "fig8_alpha_sweep.yaml").read_text()
        edits = {
            "combiner: mrc": "combiner: sc",
            "outputs: [montecarlo]": "outputs: [analytic, montecarlo]",
            "coupled: true": "coupled: false",
        }
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "sc_sweep.yaml"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "sweep-alpha", "--scenario", str(path), "--trials", "20000")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == CURVE_HEADER.replace("snr_db", "alpha")
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 27
        assert all(row[3] and not row[4] and row[5] for row in rows)

    @pytest.mark.parametrize("to_file", [True, False])
    def test_bounds_without_relays_is_config_error(self, capsys, tmp_path, to_file):
        # rejected before any table is written, not after the curve CSV
        import yaml

        cfg = yaml.safe_load((SCENARIO_DIR / "fig2_rayleigh_K1.yaml").read_text())
        cfg["network"]["relays"] = []
        cfg["outputs"] = ["analytic", "bounds"]
        cfg["schemes"] = ["af"]
        path = tmp_path / "no_relays.yaml"
        path.write_text(yaml.safe_dump(cfg))
        target = tmp_path / "curve.csv"
        argv = ["compare", "--scenario", str(path)]
        code, out, err = run_cli(capsys, *argv, *(["--out", str(target)] if to_file else []))
        assert code == EXIT_CONFIG
        assert out == ""
        assert "relay" in err
        assert not list(tmp_path.glob("curve*"))

    def test_alpha_sweep_power_block_is_config_error(self, capsys, tmp_path):
        # a power split other than the alphas' would be silently dropped
        text = (SCENARIO_DIR / "fig8_alpha_sweep.yaml").read_text()
        path = tmp_path / "sweep.yaml"
        path.write_text(text.replace("power: {noise_variance: 1.0}", "power: {direct_power: 50}"))
        target = tmp_path / "alpha.csv"
        code, out, err = run_cli(
            capsys, "sweep-alpha", "--scenario", str(path),
            "--trials", "20000", "--out", str(target),
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert "total_power" in err
        assert not target.exists()

    @pytest.mark.parametrize("key", ["source_power", "relay_power"])
    def test_alpha_sweep_default_power_key_is_config_error(self, capsys, tmp_path, key):
        # a key spelt out at its default value is refused when the file is
        # parsed: the alphas would override it all the same
        text = (SCENARIO_DIR / "fig8_alpha_sweep.yaml").read_text()
        path = tmp_path / "sweep.yaml"
        block = f"power: {{noise_variance: 1.0, {key}: 1.0}}"
        path.write_text(text.replace("power: {noise_variance: 1.0}", block))
        target = tmp_path / "alpha.csv"
        code, out, err = run_cli(
            capsys, "sweep-alpha", "--scenario", str(path),
            "--trials", "20000", "--out", str(target),
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert key in err and "noise_variance only" in err
        assert not target.exists()

    @pytest.mark.parametrize("window", [("35", "inf"), ("3080", "3090")])
    def test_unrepresentable_fit_window_is_config_error(self, capsys, tmp_path, window):
        # an infinite bound, or one whose linear SNR overflows a float
        target = tmp_path / "fit.csv"
        code, out, err = run_cli(
            capsys, "fit-diversity", "--scenario", "fig4_K1",
            "--window-db", *window, "--out", str(target),
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert "configuration error" in err
        assert not target.exists()

    def test_unbounded_fit_window_is_refused_at_load(self, capsys, tmp_path):
        # a 2,000,046-point fit grid used to be built in full, taking
        # seconds and hundreds of MB, before its first point failed
        target = tmp_path / "fit.csv"
        code, out, err = run_cli(
            capsys, "fit-diversity", "--scenario", "fig4_K1",
            "--window-db", "-2000000", "45", "--out", str(target),
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert "-2000000.0 dB underflows a linear SNR" in err
        assert not target.exists()

    @pytest.mark.parametrize(
        "command", ["analytic", "asymptotic", "simulate", "compare", "fit-diversity", "sweep-alpha"]
    )
    @pytest.mark.parametrize(
        "name, old, new, word",
        [
            ("fig4_K1", "coupled: false", "coupled: false\nfit_window_db: [45, 35]",
             "fit window [45.0, 35.0] dB must have its low end below its high end"),
            ("fig4_K1", "coupled: false", "coupled: false\nfit_window_db: [3080, 3090]",
             "3090.0 dB overflows a linear SNR"),
            ("fig6_diversity_surface", "surface_shapes: [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]",
             "surface_shapes: [0.3, 1.0]", "got m=0.3"),
        ],
        ids=["reversed_window", "overflowing_window", "shape_below_half"],
    )
    def test_unusable_fit_window_or_shape_is_config_error_for_every_command(
        self, capsys, tmp_path, command, name, old, new, word
    ):
        # these loaded, and the curves ran under analytic, until
        # fit-diversity or the surface reached them
        text = (SCENARIO_DIR / f"{name}.yaml").read_text()
        assert old in text
        path = tmp_path / "edited.yaml"
        path.write_text(text.replace(old, new))
        target = tmp_path / "table.csv"
        code, out, err = run_cli(
            capsys, command, "--scenario", str(path), "--trials", "20000", "--out", str(target)
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert word in err
        assert not target.exists()

    @pytest.mark.parametrize(
        "name, old, new",
        [
            ("fig4_K1", "coupled: false", "coupled: false\nfit_window_db: [35, 36]"),
            ("fig4_K1", "coupled: false", "coupled: false\nfit_window_db: [-2.4, -0.4]"),
            ("fig6_diversity_surface", "fit_window_db: [35, 45]", "fit_window_db: [35, 36.5]"),
        ],
        ids=["narrow_window", "rounded_window", "narrow_surface_window"],
    )
    def test_narrow_fit_window_loads_and_fits(self, capsys, tmp_path, name, old, new):
        # a secant needs only the window's two ends, so a window too
        # narrow for a 1 dB grid of 3 points loads and fits
        text = (SCENARIO_DIR / f"{name}.yaml").read_text()
        assert old in text
        path = tmp_path / "edited.yaml"
        path.write_text(text.replace(old, new))
        target = tmp_path / "fit.csv"
        code, out, _ = run_cli(
            capsys, "fit-diversity", "--scenario", str(path), "--out", str(target)
        )
        assert code == EXIT_OK
        assert out == ""
        window = new.rsplit("[", 1)[1].rstrip("]").split(", ")
        rows = list(csv.DictReader(io.StringIO(target.read_text())))
        assert rows
        for row in rows:
            assert [row["window_lo_db"], row["window_hi_db"]] == [str(float(x)) for x in window]
            assert 0.0 < float(row["fitted_slope"]) < math.inf

    @pytest.mark.parametrize(
        "argv, command",
        [
            (["fit-diversity", "--scenario", "fig8_alpha_sweep"], "sweep-alpha"),
            (["fit-diversity", "--window-db", "30", "40", "--scenario", "fig8_alpha_sweep"],
             "sweep-alpha"),
            (["analytic", "--scenario", "fig6_diversity_surface"], "fit-diversity"),
            (["sweep-alpha", "--scenario", "fig6_diversity_surface"], "fit-diversity"),
            (["sweep-alpha", "--scenario", "fig4_K1"],
             "analytic or asymptotic or simulate or compare or fit-diversity"),
        ],
        ids=["fit-sweep", "fit-window-sweep", "curve-surface", "sweep-surface", "sweep-curve"],
    )
    def test_scenario_of_another_kind_names_its_command(self, capsys, argv, command):
        # refused before the overrides apply: a sweep has no fit window
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.rstrip().endswith(f"run it with {command}")

    @pytest.mark.filterwarnings("ignore:only .* failures")
    @pytest.mark.parametrize(
        "command", ["analytic", "asymptotic", "simulate", "compare", "fit-diversity", "sweep-alpha"]
    )
    @pytest.mark.parametrize(
        "name, first_column, runs",
        [
            ("fig4_K1", {"fit-diversity": "scheme"},
             "analytic or asymptotic or simulate or compare or fit-diversity"),
            ("fig8_alpha_sweep", {"sweep-alpha": "alpha"}, "sweep-alpha"),
            ("fig6_diversity_surface", {"fit-diversity": "shape_first_hop"}, "fit-diversity"),
        ],
        ids=["curve", "alpha_sweep", "diversity_surface"],
    )
    def test_each_command_runs_its_kinds_and_names_the_others(
        self, capsys, command, name, first_column, runs
    ):
        # every (command, kind) pair either writes that kind's table or
        # is refused with the commands that run the kind
        code, out, err = run_cli(capsys, command, "--scenario", name, "--trials", "1000")
        if command in runs.split(" or "):
            assert code == EXIT_OK
            assert out.split(",", 1)[0] == first_column.get(command, "snr_db")
        else:
            assert code == EXIT_CONFIG
            assert out == ""
            assert err == f"configuration error: scenario {name!r} is kind " + (
                f"{opprelay.preset(name)[0].kind!r}; run it with {runs}\n"
            )

    def test_underflowing_db_value_is_config_error(self, capsys, tmp_path):
        # a linear SNR of 0.0 used to reach the closed forms, which
        # refused it only as a nonpositive snr
        code, out, err = run_cli(
            capsys, "fit-diversity", "--scenario", "fig4_K1", "--window-db", "-4000", "-3990"
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert "-4000.0 dB underflows a linear SNR" in err
        import yaml

        cfg = yaml.safe_load((SCENARIO_DIR / "fig4_K1.yaml").read_text())
        cfg["snr_grid_db"] = [-4000.0, 10.0]
        path = tmp_path / "grid.yaml"
        path.write_text(yaml.safe_dump(cfg))
        code, out, err = run_cli(capsys, "analytic", "--scenario", str(path))
        assert code == EXIT_CONFIG
        assert out == ""
        assert "-4000.0 dB underflows a linear SNR" in err

    @pytest.mark.parametrize("top", [4000.0, float("inf")], ids=["overflow", "inf"])
    def test_unrepresentable_grid_point_is_config_error(self, capsys, tmp_path, top):
        # an inf point used to write an inf row, an overflowing one to crash
        import yaml

        cfg = yaml.safe_load((SCENARIO_DIR / "fig4_K1.yaml").read_text())
        cfg["snr_grid_db"] = [10.0, top]
        path = tmp_path / "grid.yaml"
        path.write_text(yaml.safe_dump(cfg))
        target = tmp_path / "curve.csv"
        code, out, err = run_cli(capsys, "analytic", "--scenario", str(path), "--out", str(target))
        assert code == EXIT_CONFIG
        assert out == ""
        assert "configuration error" in err
        assert not target.exists()

    def test_alpha_sweep_via_curve_command_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--scenario", "fig8_alpha_sweep")
        assert code == EXIT_CONFIG
        assert "run it with sweep-alpha" in err

    def test_uncertified_af_quadrature_is_numerical_error(self, capsys, monkeypatch):
        # no error estimate is below zero, so every AF path CDF refuses
        monkeypatch.setattr(analytic, "AF_QUAD_TOL", -1.0)
        code, out, err = run_cli(capsys, "analytic", "--scenario", "fig2_rayleigh_K1")
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert "numerical error" in err
        assert "AF path CDF error estimate" in err
        # the message locates the refused integral: the first grid point
        assert "at hop shapes 1 and 1, mean SNRs 1 and 1, y = 3, g1 < inf" in err

    @pytest.mark.parametrize("command", ["analytic", "asymptotic", "simulate"])
    @pytest.mark.parametrize("power", ["source_power", "relay_power"])
    def test_overflowing_mean_snr_is_config_error(self, capsys, tmp_path, command, power):
        # at 100 dB a power of 1e300 gives a link mean SNR of inf: AF's
        # closed form divided by zero, the others read math domain errors
        # or wrote 0.0, and simulate counted no failures from NaN SNRs
        text = (SCENARIO_DIR / "fig2_rayleigh_K1.yaml").read_text()
        edits = {
            "power: {source_power: 1.0, relay_power: 1.0, noise_variance: 1.0}":
                f"power: {{{power}: 1.0e300}}",
            "snr_grid_db: {start: 0, stop: 50, step: 5}": "snr_grid_db: [100]",
            "mc_max_snr_db: 25": "mc_max_snr_db: 100",
        }
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "overflow.yaml"
        path.write_text(text)
        code, out, err = run_cli(capsys, command, "--scenario", str(path), "--trials", "20000")
        assert code == EXIT_CONFIG
        assert out == ""
        assert "configuration error: mean SNR must be positive and finite, got inf" in err

    def test_overflowing_law_term_is_numerical_error(self, capsys, tmp_path):
        # at -150 dB an m = 20 link's leading term x**20 / (20 Gamma(20))
        # overflows a double; it raised a bare OverflowError
        path = tmp_path / "m20.yaml"
        path.write_text(
            "name: m20\nkind: curve\n"
            "network:\n  direct: {m: 20.0}\n"
            "  relays: [{first_hop: {m: 20.0}, second_hop: {m: 20.0}}]\n"
            "rate: {rate: 1.0}\nschemes: [dfaf, df, af]\ncombiner: sc\n"
            "outputs: [analytic, asymptotic]\nsnr_grid_db: [-150]\n"
        )
        code, out, err = run_cli(capsys, "asymptotic", "--scenario", str(path))
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert "numerical error" in err and "overflow" in err
        assert "m=20.0" in err

    def test_underflowed_curve_is_numerical_error(self, capsys):
        # beyond ~1600 dB the closed form underflows to exactly zero, which
        # the slope fit must refuse rather than silently drop
        code, _, err = run_cli(
            capsys,
            "fit-diversity", "--scenario", "fig4_K3",
            "--window-db", "1600", "1610",
        )
        assert code == EXIT_NUMERICAL
        assert "numerical error" in err
