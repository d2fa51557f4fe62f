"""Scenario machinery: preset pinning, table schemas, CSV round trips,
slope fitting, the alpha sweep, and scenario file parsing."""

import csv
import io
from dataclasses import replace
from pathlib import Path

import pytest

import opprelay
from opprelay import analytic, experiments
from opprelay.analytic import RateSpec
from opprelay.channel import ChannelSpec, PowerSpec
from opprelay.experiments import (
    CurveRow,
    Scenario,
    ScenarioError,
    ZeroOutageError,
    af_bounds_rows,
    csv_text,
    fit_diversity,
    fit_scenario_curves,
    load_scenario,
    preset,
    preset_names,
    resolve_scenarios,
    run_diversity_surface,
    run_scenario,
    scenario_from_dict,
    sweep_alpha,
)
from opprelay.montecarlo import Combiner, Scheme

SCENARIO_DIR = Path(opprelay.__file__).parent / "scenarios"

SPEC_PRESETS = [
    "fig2_rayleigh_K1",
    "fig2_rayleigh_K2",
    "fig2_rayleigh_K3",
    "fig3_nakagami_3relay",
    "fig4_varyK",
    "fig6_diversity_surface",
    "fig7_mrc_compare",
    "fig8_alpha_sweep",
]


def small(scenario: Scenario, **extra) -> Scenario:
    return replace(scenario, trials=20_000, **extra)


class TestPresets:
    @pytest.mark.parametrize("name", SPEC_PRESETS)
    def test_exists(self, name):
        assert name in preset_names()
        assert preset(name)

    def test_unknown_name(self):
        with pytest.raises(ScenarioError):
            preset("fig9_nope")

    def test_fig2_rayleigh_parameters(self):
        for k in (1, 2, 3):
            (s,) = preset(f"fig2_rayleigh_K{k}")
            assert s.network.num_relays == k
            assert s.network.direct.m == 1.0
            assert all(f.m == 1.0 and g.m == 1.0 for f, g in s.network.relays)
            assert all(
                f.omega == 1.0 and g.omega == 1.0 for f, g in s.network.relays
            )
            assert s.rate.rate == 1.0 and s.rate.delta == 3.0 and s.rate.gamma_th == 3.0
            assert s.combiner is Combiner.SC

    def test_fig3_parameters(self):
        (s,) = preset("fig3_nakagami_3relay")
        assert s.network.direct.m == 0.5
        assert [f.m for f, _ in s.network.relays] == [1.0, 1.0, 2.0]
        assert [g.m for _, g in s.network.relays] == [1.0, 1.0, 1.0]

    def test_fig4_group_expands(self):
        group = preset("fig4_varyK")
        assert [s.name for s in group] == ["fig4_K1", "fig4_K2", "fig4_K3"]
        for i, s in enumerate(group, start=1):
            assert s.network.direct.m == 0.8
            assert s.network.num_relays == i
            assert "montecarlo" not in s.outputs

    def test_fig7_parameters(self):
        (s,) = preset("fig7_mrc_compare")
        assert s.combiner is Combiner.MRC
        assert s.coupled
        assert s.outputs == frozenset({"montecarlo"})

    def test_fig8_parameters(self):
        (s,) = preset("fig8_alpha_sweep")
        assert s.kind == "alpha_sweep"
        assert s.total_power == 10.0
        assert s.power.noise_variance == 1.0
        assert s.alphas == tuple(round(0.1 * i, 1) for i in range(1, 10))
        assert s.combiner is Combiner.MRC


class TestRunScenario:
    def test_row_schema_and_order(self):
        (s,) = preset("fig4_K1")
        rows = run_scenario(s)
        assert len(rows) == len(s.snr_grid_db)
        assert [r.snr_db for r in rows] == list(s.snr_grid_db)
        assert all(r.scheme == "dfaf" and r.combiner == "sc" for r in rows)
        assert all(r.outage_mc is None and r.trials is None for r in rows)
        assert all(r.outage_analytic is not None for r in rows)

    def test_mc_columns_respect_cutoff(self):
        (s,) = preset("fig2_rayleigh_K1")
        s = small(s, snr_grid_db=(0.0, 10.0, 30.0, 40.0))
        rows = run_scenario(s)
        for r in rows:
            if r.scheme != "dfaf":
                continue
            if r.snr_db <= s.mc_max_snr_db:
                assert r.outage_mc is not None
                assert r.failures is not None
            else:
                assert r.outage_mc is None

    def test_analytic_and_mc_agree_at_10db(self):
        (s,) = preset("fig2_rayleigh_K2")
        s = replace(s, trials=10**6, snr_grid_db=(10.0,))
        rows = run_scenario(s)
        for r in rows:
            assert r.mc_ci_low <= r.outage_analytic <= r.mc_ci_high

    def test_af_rows_have_no_asymptotic_column(self):
        (s,) = preset("fig3_nakagami_3relay")
        s = replace(s, outputs=frozenset({"analytic", "asymptotic"}))
        rows = run_scenario(s)
        for r in rows:
            if r.scheme == "af":
                assert r.outage_asymptotic is None
            else:
                assert r.outage_asymptotic is not None

    def test_mrc_with_closed_form_outputs_rejected(self):
        (s,) = preset("fig7_mrc_compare")
        bad = replace(s, outputs=frozenset({"analytic", "montecarlo"}))
        with pytest.raises(ScenarioError, match="selection-combining only"):
            run_scenario(bad)

    def test_wrong_kind_rejected(self):
        (s,) = preset("fig8_alpha_sweep")
        with pytest.raises(ScenarioError, match="sweep-alpha"):
            run_scenario(s)

    def test_asymptotic_at_unequal_power(self):
        (s,) = preset("fig3_nakagami_3relay")
        s = replace(
            s,
            outputs=frozenset({"asymptotic"}),
            power=PowerSpec(source_power=2.0, relay_power=0.5, direct_power=1.5),
        )
        for r in run_scenario(s):
            if r.scheme == "af":
                assert r.outage_asymptotic is None
            else:
                assert r.outage_asymptotic == analytic.asymptotic_outage_dfaf(
                    s.network, s.power, s.rate, 10.0 ** (r.snr_db / 10.0)
                )

    @pytest.mark.parametrize(
        "run,name,command",
        [
            ("fit_scenario_curves", "fig8_alpha_sweep", "sweep-alpha"),
            ("run_scenario", "fig6_diversity_surface", "fit-diversity"),
            ("sweep_alpha", "fig6_diversity_surface", "fit-diversity"),
        ],
        ids=["fit-sweep", "curve-surface", "sweep-surface"],
    )
    def test_wrong_kind_names_its_command(self, run, name, command):
        (s,) = preset(name)
        with pytest.raises(ScenarioError, match=f"run it with {command}$"):
            getattr(experiments, run)(s)

    def test_coupled_equals_per_scheme_failure_ordering(self):
        (s,) = preset("fig7_mrc_compare")
        s = small(s, snr_grid_db=(10.0,))
        rows = run_scenario(s)
        by_scheme = {r.scheme: r for r in rows}
        assert by_scheme["dfaf"].failures <= by_scheme["df"].failures
        assert by_scheme["dfaf"].failures <= by_scheme["af"].failures


class TestCsv:
    def test_round_trip_exact(self):
        (s,) = preset("fig2_rayleigh_K1")
        s = small(s, snr_grid_db=(0.0, 10.0, 30.0))
        rows = run_scenario(s)
        parsers = {"scheme": str, "combiner": str, "trials": int, "failures": int}
        parsed = [
            CurveRow(**{
                name: None if cell == "" else parsers.get(name, float)(cell)
                for name, cell in record.items()
            })
            for record in csv.DictReader(io.StringIO(csv_text(rows)))
        ]
        assert parsed == rows

    def test_header_order_pinned(self):
        header = csv_text([CurveRow(snr_db=0.0, scheme="dfaf", combiner="sc")]).splitlines()[0]
        assert header == (
            "snr_db,scheme,combiner,outage_analytic,outage_asymptotic,"
            "outage_mc,mc_ci_low,mc_ci_high,trials,failures"
        )

    def test_byte_identical_rerun(self):
        (s,) = preset("fig2_rayleigh_K1")
        s = small(s, snr_grid_db=(5.0, 10.0))
        assert csv_text(run_scenario(s)) == csv_text(run_scenario(s))


class TestFitDiversity:
    def test_exact_power_law(self):
        curve = [(db, 4.2 * (10.0 ** (db / 10.0)) ** -2.0) for db in range(30, 51, 5)]
        fit = fit_diversity(curve, (30.0, 50.0))
        assert fit.fitted_slope == pytest.approx(2.0, abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_points(self):
        curve = [(35.0, 1e-3), (45.0, 1e-4)]
        with pytest.raises(ScenarioError, match="at least 3"):
            fit_diversity(curve, (30.0, 50.0))

    def test_zero_outage_rejected(self):
        curve = [(35.0, 1e-3), (40.0, 0.0), (45.0, 1e-5)]
        with pytest.raises(ZeroOutageError):
            fit_diversity(curve, (30.0, 50.0))

    def test_window_filters_points(self):
        curve = [(db, 10.0 ** (-db / 10.0)) for db in range(0, 51, 5)]
        fit = fit_diversity(curve, (35.0, 45.0))
        assert fit.snr_window_db == (35.0, 45.0)
        assert fit.fitted_slope == pytest.approx(1.0, abs=1e-12)

    def test_fractional_window_stays_inside(self, monkeypatch):
        # both fit entry points sample 1 dB steps from the low end and
        # never evaluate the closed form past the high end
        grids = []

        def recording_fit(curve, window, theoretical_d):
            grids.append([db for db, _ in curve])
            return fit_diversity(curve, window, theoretical_d)

        monkeypatch.setattr(experiments, "fit_diversity", recording_fit)
        (s,) = preset("fig4_K1")
        (row,) = fit_scenario_curves(replace(s, fit_window_db=(35.5, 45.0)))
        assert row.n_points == 10
        (surface,) = preset("fig6_diversity_surface")
        run_diversity_surface(
            replace(surface, surface_shapes=(1.0,), fit_window_db=(35.5, 45.0))
        )
        assert grids == [[35.5 + i for i in range(10)]] * 2
        fit_scenario_curves(replace(s, fit_window_db=(35.0, 45.0)))
        assert grids[-1] == [35.0 + i for i in range(11)]

    def test_scenario_curves_hit_theory(self):
        (s,) = preset("fig3_nakagami_3relay")
        for row in fit_scenario_curves(s):
            tol = 0.2 if row.scheme == "af" else 0.15
            assert abs(row.fitted_slope - 3.5) <= tol
            assert row.theoretical_d == 3.5


class TestDiversitySurface:
    def test_slope_tracks_weaker_hop(self):
        (s,) = preset("fig6_diversity_surface")
        s = replace(s, surface_shapes=(1.0, 2.0))
        rows = run_diversity_surface(s)
        assert len(rows) == 4
        for r in rows:
            expected = 0.5 + 2.0 * min(r.shape_first_hop, r.shape_second_hop)
            assert r.diversity_theory == pytest.approx(expected)
            assert abs(r.fitted_slope - expected) <= 0.15

    def test_wrong_kind(self):
        (s,) = preset("fig2_rayleigh_K1")
        with pytest.raises(ScenarioError):
            run_diversity_surface(s)

    @pytest.mark.parametrize(
        "update,match",
        [
            ({"combiner": Combiner.MRC}, "MRC"),
            ({"schemes": (Scheme.AF,)}, r"\[dfaf\]"),
            ({"schemes": (Scheme.DFAF, Scheme.DF)}, r"\[dfaf\]"),
        ],
        ids=["mrc", "af", "dfaf-df"],
    )
    def test_only_selection_combining_dfaf(self, update, match):
        (s,) = preset("fig6_diversity_surface")
        with pytest.raises(ScenarioError, match=match):
            run_diversity_surface(replace(s, **update))


class TestSweepAlpha:
    @pytest.mark.parametrize("combiner", list(Combiner), ids=lambda c: c.value)
    def test_rows_and_pairing(self, combiner):
        (s,) = preset("fig8_alpha_sweep")
        s = small(s, alphas=(0.2, 0.5, 0.8), combiner=combiner)
        rows = sweep_alpha(s)
        assert len(rows) == 9  # 3 alphas x 3 schemes
        assert [r.alpha for r in rows[:3]] == [0.2, 0.2, 0.2]
        assert {r.combiner for r in rows} == {combiner.value}
        by_key = {(r.alpha, r.scheme): r for r in rows}
        for alpha in (0.2, 0.5, 0.8):
            assert by_key[(alpha, "dfaf")].failures <= by_key[(alpha, "df")].failures
            assert by_key[(alpha, "dfaf")].failures <= by_key[(alpha, "af")].failures

    def test_adaptive_converges_to_df_at_source_heavy_splits(self):
        # with most power at the source, decode failures get rare and the
        # adaptive scheme collapses onto DF; at relay-heavy splits the AF
        # fallback separates them clearly.  Coupled 1e6-trial estimates
        # resolve even the small residual gap, so the comparison is on
        # relative difference rather than CI overlap.
        (s,) = preset("fig8_alpha_sweep")
        s = replace(s, trials=10**6, alphas=(0.2, 0.8, 0.9))
        by_key = {(r.alpha, r.scheme): r for r in sweep_alpha(s)}

        def rel_gap(alpha):
            d = by_key[(alpha, "dfaf")].outage_mc
            f = by_key[(alpha, "df")].outage_mc
            return (f - d) / f

        assert rel_gap(0.8) < 0.03
        assert rel_gap(0.9) < 0.03
        assert rel_gap(0.2) > 0.05

    def test_validation(self):
        (s,) = preset("fig8_alpha_sweep")
        with pytest.raises(ScenarioError, match="alpha"):
            sweep_alpha(replace(s, alphas=(0.0, 0.5)))
        with pytest.raises(ScenarioError, match="total_power"):
            sweep_alpha(replace(s, total_power=None))
        (curve,) = preset("fig2_rayleigh_K1")
        with pytest.raises(ScenarioError, match="not an alpha sweep"):
            sweep_alpha(curve)


class TestBoundsTable:
    def test_rows(self):
        (s,) = preset("fig2_rayleigh_K2")
        s = replace(
            s,
            outputs=frozenset({"analytic", "bounds"}),
            snr_grid_db=(30.0, 40.0),
        )
        rows = af_bounds_rows(s)
        assert len(rows) == 4  # 2 grid points x 2 relays
        for r in rows:
            assert r.bound_high / r.bound_low == pytest.approx(2.0**r.m_min)
            if r.snr_db == 40.0:
                assert r.bound_low * 0.9 <= r.af_path_cdf <= r.bound_high * 1.1

    @pytest.mark.parametrize(
        "name", ["fig2_rayleigh_K1", "fig2_rayleigh_K2", "fig2_rayleigh_K3", "fig3_nakagami_3relay"]
    )
    def test_path_cdf_inside_its_sandwich_from_15db(self, name):
        (s,) = preset(name)
        rows = af_bounds_rows(replace(s, outputs=s.outputs | {"bounds"}))
        outside = [
            r for r in rows
            if r.snr_db >= 15.0 and not r.bound_low <= r.af_path_cdf <= r.bound_high
        ]
        assert not outside

    def test_bounds_need_af_scheme(self):
        (s,) = preset("fig4_K1")
        bad = replace(s, outputs=frozenset({"analytic", "bounds"}))
        with pytest.raises(ScenarioError, match="AF scheme"):
            run_scenario(bad)


class TestScenarioFiles:
    @pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml")))
    def test_files_load_by_path(self, name):
        # each preset file is named after the scenario it holds
        s = load_scenario(str(SCENARIO_DIR / f"{name}.yaml"))
        assert s.name == name
        assert preset(name) == (s,)

    def test_grid_shorthand(self):
        s = scenario_from_dict(
            {
                "name": "t",
                "network": {"direct": {"m": 1.0}},
                "schemes": ["dfaf"],
                "snr_grid_db": {"start": 0, "stop": 10, "step": 5},
            }
        )
        assert s.snr_grid_db == (0.0, 5.0, 10.0)

    def test_minimal_config_takes_dataclass_defaults(self):
        s = scenario_from_dict(
            {"name": "t", "network": {"direct": {"m": 2.0}}, "schemes": ["DF"]}
        )
        assert s.network.direct == ChannelSpec(m=2.0, omega=1.0)
        assert s.network.relays == ()
        assert s.rate == RateSpec(rate=1.0)
        assert s.power == PowerSpec.equal()
        assert s.schemes == (Scheme.DF,)
        assert s.combiner is Combiner.SC
        assert s.outputs == frozenset({"analytic"})
        assert (s.kind, s.trials, s.seed, s.confidence, s.coupled) == (
            "curve", 10**6, 12345, 0.99, False,
        )
        assert (s.snr_grid_db, s.mc_max_snr_db, s.fit_window_db) == (
            None, 25.0, (35.0, 45.0),
        )

    def test_malformed_config(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict({"name": "x"})
        with pytest.raises(ScenarioError):
            scenario_from_dict(
                {"name": "x", "network": {"direct": {"m": 1.0}}, "schemes": ["bogus"]}
            )
        with pytest.raises(ScenarioError, match="expected a mapping"):
            scenario_from_dict({"name": "x", "network": "direct", "schemes": ["df"]})

    @pytest.mark.parametrize(
        "path, key",
        [
            ((), "trails"),
            (("network",), "relay"),
            (("network", "direct"), "omgea"),
            (("network", "relays", 0), "third_hop"),
            (("network", "relays", 0, "first_hop"), "shape"),
            (("rate",), "gamma"),
            (("power",), "relay_pwr"),
        ],
    )
    def test_unknown_key_rejected(self, path, key):
        cfg = {
            "name": "t",
            "network": {
                "direct": {"m": 1.0},
                "relays": [{"first_hop": {"m": 1.0}, "second_hop": {"m": 1.0}}],
            },
            "rate": {"rate": 1.0},
            "power": {"source_power": 1.0},
            "schemes": ["dfaf"],
        }
        scenario_from_dict(cfg)
        level = cfg
        for step in path:
            level = level[step]
        level[key] = 5
        with pytest.raises(ScenarioError, match=f"unknown keys \\['{key}'\\]"):
            scenario_from_dict(cfg)

    def test_resolver(self):
        assert resolve_scenarios("fig2_rayleigh_K1")[0].name == "fig2_rayleigh_K1"
        path = str(SCENARIO_DIR / "fig3_nakagami_3relay.yaml")
        assert resolve_scenarios(path)[0].rate.delta == 3.0
        with pytest.raises(ScenarioError, match="neither a preset"):
            resolve_scenarios("no_such_thing")

    def test_unknown_outputs_rejected(self):
        (s,) = preset("fig2_rayleigh_K1")
        with pytest.raises(ScenarioError, match="unknown outputs"):
            replace(s, outputs=frozenset({"plots"}))
