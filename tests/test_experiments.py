"""Scenario machinery: preset pinning, table schemas, CSV round trips,
secant diversity slopes, the alpha sweep, and scenario file parsing."""

import csv
import io
import math
import re
import types
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import opprelay
from opprelay import analytic, experiments
from opprelay.analytic import RateSpec
from opprelay.channel import ChannelSpec, NetworkSpec, PowerSpec, network_link_snrs, snr_cdf
from opprelay.experiments import (
    AlphaSweep,
    Curve,
    CurveRow,
    Scenario,
    ScenarioError,
    Surface,
    ZeroOutageError,
    af_bounds_rows,
    csv_text,
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
from opprelay.montecarlo import Combiner, Scheme, estimate_outage_coupled

SCENARIO_DIR = Path(opprelay.__file__).parent / "scenarios"

KIND_CLASSES = {"curve": Curve, "alpha_sweep": AlphaSweep, "diversity_surface": Surface}

SPEC_PRESETS = [
    "fig2_rayleigh_K1",
    "fig2_rayleigh_K2",
    "fig2_rayleigh_K3",
    "below_delta_rayleigh_K3",
    "fig3_nakagami_3relay",
    "fig4_varyK",
    "fig6_diversity_surface",
    "fig7_mrc_compare",
    "fig8_alpha_sweep",
]


def small(scenario: Scenario, **extra) -> Scenario:
    return replace(scenario, trials=20_000, **extra)


def sc_sweep(**extra) -> AlphaSweep:
    # fig8 under selection combining, asking for every output a sweep takes
    (s,) = preset("fig8_alpha_sweep")
    outputs = frozenset({"analytic", "asymptotic", "montecarlo"})
    return replace(s, **{"combiner": Combiner.SC, "outputs": outputs, **extra})


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
            assert len(s.network.relays) == k
            assert s.network.direct.m == 1.0
            assert all(f.m == 1.0 and g.m == 1.0 for f, g in s.network.relays)
            assert all(
                f.omega == 1.0 and g.omega == 1.0 for f, g in s.network.relays
            )
            assert s.rate.rate == 1.0 and s.rate.delta == 3.0 and s.rate.gamma_th == 3.0
            assert s.combiner is Combiner.SC

    def test_below_delta_parameters(self):
        # the fig2_rayleigh_K3 network, coupled, with gamma_th = 1 < delta = 3
        (s,) = preset("below_delta_rayleigh_K3")
        (fig2,) = preset("fig2_rayleigh_K3")
        assert s.network == fig2.network and s.power == fig2.power
        assert (s.rate.delta, s.rate.gamma_th) == (3.0, 1.0)
        assert s.coupled and s.mc_max_snr_db == 25.0
        assert s.outputs == {"analytic", "asymptotic", "montecarlo"}

    def test_below_delta_df_over_dfaf_tends_to_eight(self):
        # each Rayleigh relay's DF factor tends to (delta + gamma_th) / snr
        # and the adaptive one to 2 gamma_th / snr: three relays give
        # 2**3 = 8 over the adaptive scheme's high-SNR law, and DF tends
        # to its own law, whose first-hop term stays at delta.  Below
        # delta AF's first-hop term sits at gamma_th, as DFAF's does, so
        # the two laws are one
        (s,) = preset("below_delta_rayleigh_K3")
        laws = network_link_snrs(s.network, s.power, 10.0**8)
        law = analytic.asymptotic_outage_point(tuple(Scheme), laws, s.rate)
        exact = analytic.outage_sc_point(s.schemes, laws, s.rate)
        assert exact[Scheme.DF] / law[Scheme.DFAF] == pytest.approx(8.0, rel=1e-5)
        assert exact[Scheme.DF] / law[Scheme.DF] == pytest.approx(1.0, rel=1e-5)
        assert exact[Scheme.DFAF] / law[Scheme.DFAF] == pytest.approx(1.0, rel=1e-5)
        assert exact[Scheme.AF] / law[Scheme.DFAF] == pytest.approx(1.0, rel=1e-5)
        assert law[Scheme.AF] == law[Scheme.DFAF]
        assert exact[Scheme.AF] / law[Scheme.AF] == pytest.approx(1.0, rel=1e-5)

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
            assert len(s.network.relays) == i
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

    def test_every_row_holds_its_schemes_law(self):
        # AF's row holds its own law too, not an empty cell
        (s,) = preset("fig3_nakagami_3relay")
        s = replace(s, outputs=frozenset({"analytic", "asymptotic"}))
        rows = run_scenario(s)
        assert {r.scheme for r in rows} == {"dfaf", "df", "af"}
        for r in rows:
            assert r.outage_asymptotic == analytic.asymptotic_outage(
                Scheme(r.scheme), s.network, s.power, s.rate, 10.0 ** (r.snr_db / 10.0)
            )

    def test_mrc_with_closed_form_outputs_rejected(self):
        (s,) = preset("fig7_mrc_compare")
        with pytest.raises(ScenarioError, match="selection-combining only"):
            run_scenario(replace(s, outputs=frozenset({"analytic", "montecarlo"})))

    def test_asymptotic_at_unequal_power(self):
        # every row holds its own scheme's law, AF's included, at
        # gamma_th = delta and below it, where DF's law leaves DFAF's
        (fig3,) = preset("fig3_nakagami_3relay")
        for rate in (fig3.rate, RateSpec(rate=1.0, gamma_th=1.0)):
            s = replace(
                fig3,
                rate=rate,
                outputs=frozenset({"asymptotic"}),
                power=PowerSpec(source_power=2.0, relay_power=0.5, direct_power=1.5),
            )
            for r in run_scenario(s):
                assert r.outage_asymptotic == analytic.asymptotic_outage(
                    Scheme(r.scheme), s.network, s.power, s.rate, 10.0 ** (r.snr_db / 10.0)
                )

    @pytest.mark.parametrize("outputs", ["analytic", "analytic,asymptotic"])
    @pytest.mark.parametrize("schemes", ["dfaf", "af", "dfaf,df", "dfaf,df,af"])
    def test_one_point_evaluates_each_cdf_once(self, schemes, outputs, monkeypatch):
        # one pass per point: the link laws once, shared by the exact and
        # the high-SNR pass, and every scalar CDF factor once, from one
        # gammainc call: the direct link, then per relay the decode and
        # second-hop CDFs, whichever schemes share them (at gamma_th =
        # delta the amplified head is the decode CDF)
        cdfs, point_calls, laws = [], [], []
        special = analytic.scipy_special()

        def counted_cdf(link, y):
            cdfs.append((link, y))
            return snr_cdf(link, y)

        def counted_gammainc(m, x):
            if np.ndim(m):  # the trapezoid nodes share one scalar shape
                point_calls.append(list(zip(m, x)))
            return special.gammainc(m, x)

        def counted_laws(*args):
            laws.append(args)
            return network_link_snrs(*args)

        monkeypatch.setattr(analytic, "snr_cdf", counted_cdf)
        monkeypatch.setattr(
            analytic, "scipy_special", lambda: types.SimpleNamespace(gammainc=counted_gammainc)
        )
        monkeypatch.setattr(analytic, "network_link_snrs", counted_laws)
        monkeypatch.setattr(experiments, "network_link_snrs", counted_laws)
        (s,) = preset("fig3_nakagami_3relay")
        s = replace(
            s, schemes=tuple(map(Scheme, schemes.split(","))),
            outputs=frozenset(outputs.split(",")), snr_grid_db=(10.0,),
        )
        rows = run_scenario(s)
        assert len(rows) == len(s.schemes)
        assert laws == [(s.network, s.power, 10.0)]
        assert cdfs == []
        direct, relays = network_link_snrs(s.network, s.power, 10.0)
        factors = [(direct, s.rate.gamma_th)]
        for first, second in relays:
            factors += (first, s.rate.delta), (second, s.rate.gamma_th)
        assert point_calls == [[(link.m, link.rate * y) for link, y in factors]]
        assert len(point_calls[0]) == 1 + 2 * len(s.network.relays)

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

    def test_cells_pinned(self):
        # the writer's own None and float handling, frozen: None is an
        # empty field, a float its shortest round-trip str()
        @dataclass(frozen=True)
        class Row:
            a: object
            b: object
            c: object

        rows = [
            Row(None, -0.0, 5e-324),
            Row(1e16, 1e-05, 0.1 + 0.2),
            Row(math.inf, math.nan, 7),
            Row('dfaf, "quoted"', "x", None),
        ]
        assert csv_text(rows) == (
            "a,b,c\n,-0.0,5e-324\n1e+16,1e-05,0.30000000000000004\ninf,nan,7\n"
            '"dfaf, ""quoted""",x,\n'
        )

    def test_byte_identical_rerun(self):
        (s,) = preset("fig2_rayleigh_K1")
        s = small(s, snr_grid_db=(5.0, 10.0))
        assert csv_text(run_scenario(s)) == csv_text(run_scenario(s))


class TestFitDiversity:
    def test_fits_are_the_secant_of_the_curve_engine(self):
        # a slope is -ln(P(hi) / P(lo)) / ln(snr_hi / snr_lo) over the
        # exact column of the two-point curve (lo, hi), bit for bit, for a
        # curve's schemes and for each network of a surface
        (s,) = preset("fig3_nakagami_3relay")
        lo, hi = s.fit_window_db
        span = (hi - lo) / 10.0 * math.log(10.0)

        def secant(curve, scheme):
            two_points = replace(curve, snr_grid_db=(lo, hi), outputs=frozenset({"analytic"}))
            rows = run_scenario(two_points)
            p_lo, p_hi = (r.outage_analytic for r in rows if r.scheme == scheme)
            return -math.log(p_hi / p_lo) / span

        for fit in fit_scenario_curves(s):
            assert fit.fitted_slope == secant(s, fit.scheme)
        (surface,) = preset("fig6_diversity_surface")
        surface = replace(surface, surface_shapes=(1.0, 2.5), fit_window_db=(lo, hi))
        for row in run_diversity_surface(surface):
            hops = (ChannelSpec(m=row.shape_first_hop), ChannelSpec(m=row.shape_second_hop))
            net = NetworkSpec(direct=surface.network.direct, relays=(hops,) * 2)
            curve = replace(s, network=net, schemes=surface.schemes)
            assert row.fitted_slope == secant(curve, "dfaf")

    def test_decimal_window_evaluates_its_two_ends(self, monkeypatch):
        # a fit evaluates the closed form at exactly the window's two ends,
        # once per network, every scheme in one pass, even where lo + 5
        # rounds past hi
        calls = []

        def laws(net, power, snr):
            calls.append((None, net, snr))
            return snr  # stands in for the point's link laws

        def power_law(schemes, snr, rs):
            # each pass reads the laws built just before it, once
            assert calls[-1] == (None, calls[-1][1], snr)
            calls[-1] = (schemes, calls[-1][1], snr)
            return dict.fromkeys(schemes, 4.2 * snr**-2.0)

        monkeypatch.setattr(experiments, "network_link_snrs", laws)
        monkeypatch.setattr(analytic, "outage_sc_point", power_law)
        ends = (10.0 ** (-5.1 / 10.0), 10.0 ** (-0.1 / 10.0))
        (s,) = preset("fig3_nakagami_3relay")
        for row in fit_scenario_curves(replace(s, fit_window_db=(-5.1, -0.1))):
            assert row.fitted_slope == pytest.approx(2.0, rel=1e-12, abs=0.0)
        assert [(x, snr) for x, _, snr in calls] == [(s.schemes, snr) for snr in ends]
        calls.clear()
        (surface,) = preset("fig6_diversity_surface")
        surface = replace(surface, surface_shapes=(1.0, 2.0), fit_window_db=(-5.1, -0.1))
        rows = run_diversity_surface(surface)
        assert [snr for _, _, snr in calls] == [*ends] * len(rows)
        assert len({net for _, net, _ in calls}) == len(rows) == 4

    def test_underflowed_high_end_is_zero_outage_error(self):
        # beyond ~1600 dB the closed form underflows to exactly zero, which
        # has no logarithm
        (s,) = preset("fig4_K3")
        with pytest.raises(ZeroOutageError, match=r"\[1600.0, 1610.0\]"):
            fit_scenario_curves(replace(s, fit_window_db=(1600.0, 1610.0)))

    @pytest.mark.parametrize(
        "name, window",
        [("fig4_K1", (35.0, 36.0)), ("fig4_K1", (-2.4, -0.4)),
         ("fig6_diversity_surface", (35.0, 36.5))],
        ids=["narrow", "rounded", "narrow_surface"],
    )
    def test_narrow_window_loads_and_fits(self, name, window):
        # a secant needs only the window's two ends, so a window too
        # narrow for a 1 dB grid of 3 points still fits
        (s,) = preset(name)
        s = replace(s, fit_window_db=window)
        fit = run_diversity_surface if isinstance(s, Surface) else fit_scenario_curves
        for row in fit(s):
            assert (row.window_lo_db, row.window_hi_db) == window
            assert 0.0 < row.fitted_slope < math.inf

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

    @pytest.mark.parametrize(
        "power",
        [
            PowerSpec(direct_power=50.0),
            PowerSpec(source_power=2.0),
            PowerSpec(relay_power=0.5, noise_variance=2.0),
        ],
        ids=["direct", "source", "relay"],
    )
    def test_power_beyond_noise_is_refused(self, power):
        # the split comes from alphas and total_power, so any other power
        # setting would be silently dropped
        (s,) = preset("fig8_alpha_sweep")
        with pytest.raises(ScenarioError, match="alphas and total_power"):
            sweep_alpha(small(s, alphas=(0.5,), power=power))

    def test_closed_form_inside_the_interval(self):
        # the exact column is the curve's outage_sc at the alpha's power
        # split; 1e6 coupled trials cover it at the C1 rate, 14 points in 15
        rows = sweep_alpha(sc_sweep(trials=10**6))
        assert len(rows) == 27
        covered = sum(r.mc_ci_low <= r.outage_analytic <= r.mc_ci_high for r in rows)
        assert 15 * covered >= 14 * len(rows)

    def test_asymptote_approaches_exact_as_total_power_grows(self):
        s = sc_sweep(outputs=frozenset({"analytic", "asymptotic"}))
        gaps = {alpha: [] for alpha in s.alphas}
        for total_power in (10.0, 1e3, 1e5, 1e7):
            for r in sweep_alpha(replace(s, total_power=total_power)):
                if r.scheme == "dfaf":
                    gaps[r.alpha].append(abs(r.outage_asymptotic / r.outage_analytic - 1.0))
        for alpha, gap in gaps.items():
            assert gap == sorted(gap, reverse=True), alpha
            assert gap[-1] < 1e-4, alpha
        assert gaps[0.5][0] > 1.0  # 3.06 at total power 10

    def test_uncoupled_sweep_equals_per_scheme_runs(self):
        # alpha idx and scheme si draw under stream tag (idx, si), as on a
        # curve; the sweep used to run coupled whatever the file said
        s = sc_sweep(outputs=frozenset({"montecarlo"}), coupled=False, trials=20_000,
                     alphas=(0.3, 0.7))
        rows = iter(sweep_alpha(s))
        for idx, alpha in enumerate(s.alphas):
            power = PowerSpec.from_alpha(alpha, s.total_power, s.power.noise_variance)
            for si, scheme in enumerate(s.schemes):
                est = estimate_outage_coupled(
                    s.network, power, s.rate, (scheme,), s.trials, s.seed, s.confidence,
                    s.combiner, stream_tag=(idx, si),
                ).estimates[scheme]
                row = next(rows)
                assert (row.alpha, row.scheme) == (alpha, scheme.value)
                assert (row.failures, row.mc_ci_low, row.mc_ci_high) == (
                    est.failures, est.ci_low, est.ci_high,
                )
        assert next(rows, None) is None

    def test_closed_form_sweep_draws_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("drew trials for a sweep without the montecarlo output")

        monkeypatch.setattr(experiments, "estimate_outage_coupled", refuse)
        rows = sweep_alpha(sc_sweep(outputs=frozenset({"analytic"})))
        assert len(rows) == 27
        assert all(r.outage_analytic is not None for r in rows)
        mc = ("outage_asymptotic", "outage_mc", "mc_ci_low", "mc_ci_high", "trials", "failures")
        assert all(getattr(r, column) is None for r in rows for column in mc)

    def test_validation(self):
        (s,) = preset("fig8_alpha_sweep")
        with pytest.raises(ScenarioError, match="alpha"):
            sweep_alpha(replace(s, alphas=(0.0, 0.5)))
        with pytest.raises(ScenarioError, match="total_power"):
            sweep_alpha(replace(s, total_power=None))


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

    def test_bounds_table_reuses_the_curve_integrals(self):
        # the amplified-path sum is memoised, so the bounds table after its
        # curve computes no integral
        (s,) = preset("fig3_nakagami_3relay")
        s = replace(s, outputs=frozenset({"analytic", "bounds"}))
        run_scenario(s)
        before = analytic._amplified_sum.cache_info()
        rows = af_bounds_rows(s)
        after = analytic._amplified_sum.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + len(rows)

    def test_identical_relays_share_one_integral(self):
        # fig2_K3: 11 points x 3 identical relays, AF curve plus bounds
        (s,) = preset("fig2_rayleigh_K3")
        s = replace(s, outputs=frozenset({"analytic", "bounds"}))
        analytic._amplified_sum.cache_clear()
        run_scenario(s)
        af_bounds_rows(s)
        info = analytic._amplified_sum.cache_info()
        assert (info.misses, info.hits) == (11, 55)

    def test_bounds_need_af_scheme(self):
        (s,) = preset("fig4_K1")
        with pytest.raises(ScenarioError, match="AF scheme"):
            run_scenario(replace(s, outputs=frozenset({"analytic", "bounds"})))

    def test_bounds_need_a_relay(self):
        (s,) = preset("fig2_rayleigh_K1")
        no_relays = replace(s.network, relays=())
        for table in (run_scenario, af_bounds_rows):
            with pytest.raises(ScenarioError, match="relay"):
                table(replace(s, network=no_relays, outputs=frozenset({"analytic", "bounds"})))


# (preset, fields that break one rule, the start of that rule's message)
SCENARIO_RULES = [
    ("fig4_K1", {"snr_grid_db": None}, "scenario 'fig4_K1' has no SNR grid"),
    ("fig4_K1", {"snr_grid_db": (0.0, math.inf)}, "every snr_grid_db point must be finite"),
    ("fig4_K1", {"snr_grid_db": (10.0, 5.0)}, "snr_grid_db must be strictly increasing"),
    ("fig2_rayleigh_K1", {"mc_max_snr_db": math.nan},
     "mc_max_snr_db must be a number or null, not NaN"),
    ("fig7_mrc_compare", {"outputs": frozenset({"analytic", "montecarlo"})},
     "a closed-form output is selection-combining only; MRC outage has no closed form"),
    ("fig4_K1", {"outputs": frozenset({"analytic", "bounds"})},
     "bounds output applies to the AF scheme only"),
    ("fig2_rayleigh_K1",
     {"outputs": frozenset({"bounds"}), "network": NetworkSpec(direct=ChannelSpec(m=1.0))},
     "bounds output needs at least one relay path"),
    ("fig8_alpha_sweep", {"alphas": ()}, "alpha sweep needs a nonempty alphas list"),
    ("fig8_alpha_sweep", {"alphas": (0.5, 1.0)}, "every alpha must lie strictly inside (0, 1)"),
    ("fig8_alpha_sweep", {"total_power": -1.0}, "alpha sweep needs a positive finite total_power"),
    ("fig8_alpha_sweep", {"power": PowerSpec(relay_power=2.0)},
     "an alpha sweep takes its power split from alphas and total_power; "
     "its power block may set noise_variance only"),
    ("fig3_nakagami_3relay", {"fit_window_db": (35.0, math.inf)},
     "fit window [35.0, inf] dB must be finite"),
    ("fig6_diversity_surface", {"combiner": Combiner.MRC},
     "a diversity fit is selection-combining only"),
    ("fig6_diversity_surface", {"schemes": (Scheme.DF,)},
     "a diversity surface fits the adaptive scheme only; set schemes to [dfaf]"),
    ("fig6_diversity_surface",
     {"network": NetworkSpec(direct=ChannelSpec(m=0.5), relays=((ChannelSpec(m=1.0),) * 2,))},
     "a surface takes its relays from surface_shapes; set relays: []"),
    ("fig6_diversity_surface", {"surface_shapes": ()},
     "diversity surface needs a surface_shapes grid"),
    ("fig4_K1", {"trials": 999}, "need at least 1000 trials for a usable estimate, got 999"),
    ("fig4_K1", {"seed": -1}, "seed must be nonnegative"),
    ("fig4_K1", {"confidence": 2.0}, "confidence must lie in (0, 1)"),
    ("fig4_K1", {"fit_window_db": (-2_000_000.0, 45.0)},
     "-2000000.0 dB underflows a linear SNR"),
    ("fig6_diversity_surface", {"fit_window_db": (0.0, 10_000.0)},
     "10000.0 dB overflows a linear SNR"),
    ("fig2_rayleigh_K1", {"schemes": ()}, "need at least one scheme"),
    ("fig2_rayleigh_K1", {"schemes": (Scheme.DF, Scheme.DF)},
     "each scheme at most once, got ['df', 'df']"),
    ("fig4_K1", {"snr_grid_db": (0.0, 10.0, 4000.0)}, "4000.0 dB overflows a linear SNR"),
    ("fig4_K1", {"snr_grid_db": (-4000.0, 0.0)}, "-4000.0 dB underflows a linear SNR"),
    ("fig8_alpha_sweep", {"outputs": frozenset({"analytic", "montecarlo"})},
     "a closed-form output is selection-combining only"),
    ("fig8_alpha_sweep", {"combiner": Combiner.SC, "outputs": frozenset({"bounds"})},
     "bounds output applies to curves only, not alpha sweeps"),
    ("fig4_K1", {"fit_window_db": (45.0, 35.0)},
     "fit window [45.0, 35.0] dB must have its low end below its high end"),
    ("fig6_diversity_surface", {"fit_window_db": (35.0, 35.0)},
     "fit window [35.0, 35.0] dB must have its low end below its high end"),
    ("fig4_K1", {"fit_window_db": (3080.0, 3090.0)}, "3090.0 dB overflows a linear SNR"),
    ("fig6_diversity_surface", {"surface_shapes": (0.3, 1.0)},
     "surface_shapes: Nakagami shape must be finite and >= 0.5, got m=0.3"),
]


class TestScenarioRules:
    @pytest.mark.parametrize(
        "name, bad, message",
        SCENARIO_RULES,
        ids=[
            "no_grid", "infinite_grid_point", "decreasing_grid", "nan_mc_cut",
            "mrc_closed_form", "bounds_without_af", "bounds_without_relay",
            "no_alphas", "alpha_at_one", "negative_total_power", "sweep_power_split",
            "infinite_fit_window", "mrc_surface", "surface_not_dfaf", "surface_with_relay",
            "no_surface_shapes", "too_few_trials", "negative_seed", "confidence_above_one",
            "unbounded_fit_window", "unbounded_surface_window", "no_scheme",
            "repeated_scheme", "overflowing_grid_point", "underflowing_grid_point",
            "mrc_sweep_closed_form", "sweep_bounds", "reversed_fit_window",
            "empty_surface_window", "overflowing_fit_window",
            "surface_shape_below_half",
        ],
    )
    def test_rule_fires_where_the_scenario_is_built(self, name, bad, message):
        # each table rule used to wait for the table, and the Monte Carlo
        # arguments for an estimate; replace now refuses the scenario,
        # whatever command or table would have run it
        (s,) = preset(name)
        with pytest.raises(ScenarioError, match=re.escape(message)):
            replace(s, **bad)


class TestScenarioFiles:
    @pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml")))
    def test_files_load_by_path(self, name):
        # each preset file is named after the scenario it holds
        path = SCENARIO_DIR / f"{name}.yaml"
        s = load_scenario(str(path))
        assert s.name == name
        assert preset(name) == (s,)
        assert type(s) is KIND_CLASSES[yaml.safe_load(path.read_text())["kind"]]

    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("fig4_K1", "alphas", [0.5]),
            ("fig4_K1", "total_power", 3.0),
            ("fig4_K1", "surface_shapes", [1.0]),
            ("fig8_alpha_sweep", "snr_grid_db", [0, 10]),
            ("fig8_alpha_sweep", "mc_max_snr_db", 25),
            ("fig8_alpha_sweep", "fit_window_db", [35, 45]),
            ("fig8_alpha_sweep", "surface_shapes", [1.0]),
            ("fig6_diversity_surface", "snr_grid_db", [0, 10]),
            ("fig6_diversity_surface", "mc_max_snr_db", None),
            ("fig6_diversity_surface", "alphas", [0.5]),
            ("fig6_diversity_surface", "total_power", 3.0),
        ],
    )
    def test_key_the_kind_never_reads_is_refused(self, name, key, value):
        # such a key used to load and do nothing
        cfg = yaml.safe_load((SCENARIO_DIR / f"{name}.yaml").read_text())
        scenario_from_dict(cfg)
        cfg[key] = value
        with pytest.raises(ScenarioError, match=f"kind '{cfg['kind']}' never reads {key};"):
            scenario_from_dict(cfg)

    @pytest.mark.parametrize("workload", ["mc_sc", "mc_mrc_pool", "closed_form"])
    def test_benchmark_workloads_load(self, workload):
        # the benchmark builds every scenario it times or probes from these
        # dicts, through scenario_from_dict; the module is compiled from its
        # source so that no bytecode is written next to it
        path = Path(__file__).parents[1] / "benchmark" / "workloads.py"
        workloads = types.ModuleType("workloads")
        exec(compile(path.read_text(), str(path), "exec"), vars(workloads))
        for seed in (1, 2, 3):
            for cfg in workloads.generate(workload, seed) + workloads.probe(workload, seed):
                assert type(scenario_from_dict(cfg)) is KIND_CLASSES[cfg.get("kind", "curve")]

    def test_readme_lists_each_kind_keys(self):
        # README's Scenario files section has one YAML key list for the
        # Scenario base, then one per kind in the order curve, alpha
        # sweep, surface
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
        blocks = [b.split("```", 1)[0] for b in section.split("```yaml\n")[1:]]
        listed = [set(yaml.safe_load(b)) - {"kind"} for b in blocks]
        base = {f.name for f in fields(Scenario)}
        assert listed == [base] + [
            {f.name for f in fields(cls)} - base for cls in KIND_CLASSES.values()
        ]

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

    def test_grid_mapping_point_count_is_bounded(self):
        # a million-point mapping was built in full before any check ran
        cfg = {
            "name": "t",
            "network": {"direct": {"m": 1.0}},
            "schemes": ["dfaf"],
            "snr_grid_db": {"start": 0, "stop": 1e6, "step": 1},
        }
        with pytest.raises(ScenarioError, match="1000001 points"):
            scenario_from_dict(cfg)
        cfg["snr_grid_db"] = {"start": 0, "stop": 99.99, "step": 0.01}
        assert len(scenario_from_dict(cfg).snr_grid_db) == experiments.MAX_GRID_POINTS

    def test_whole_floats_and_yaml_booleans_parse(self, tmp_path):
        # the checks that refuse fractions and booleans still take a whole
        # float, YAML's unquoted off, and an unquoted 1e-3, which YAML 1.1
        # reads as a string and the scenario loader reads as a float
        text = (SCENARIO_DIR / "fig7_mrc_compare.yaml").read_text()
        text = text.replace("direct: {m: 0.5, omega: 1.0}", "direct: {m: 0.5, omega: 1e-3}")
        text = text.replace("coupled: true", "coupled: off")
        text = text.replace("trials: 1000000", "trials: 2.0e+4")
        path = tmp_path / "typed.yaml"
        path.write_text(text.replace("seed: 12345", "seed: 7.0"))
        s = load_scenario(path)
        assert s.coupled is False
        assert (s.trials, s.seed) == (20_000, 7)
        assert type(s.trials) is int and type(s.seed) is int
        assert s.network.direct.omega == 0.001

    def test_exponent_form_whole_numbers_parse(self, tmp_path):
        # YAML 1.1 floats need a dot, so PyYAML's own loader reads 1e4 as
        # a string; the scenario loader reads it as a number
        text = (SCENARIO_DIR / "fig2_rayleigh_K1.yaml").read_text()
        assert "trials: 1000000" in text and "seed: 12345" in text
        text = text.replace("trials: 1000000", "trials: 1e4")
        path = tmp_path / "exponent.yaml"
        path.write_text(text.replace("seed: 12345", "seed: 1e3"))
        s = load_scenario(path)
        assert (s.trials, s.seed) == (10_000, 1000)
        assert type(s.trials) is int and type(s.seed) is int

    @pytest.mark.parametrize(
        "text, value",
        [("1e6", 1e6), ("1.0e6", 1e6), (".5e1", 5.0), ("-2E-3", -0.002),
         ("'1e6'", "1e6"), ("1e", "1e"), ("e5", "e5")],
    )
    def test_exponent_floats_resolve(self, text, value):
        loaded = yaml.load(f"x: {text}", Loader=experiments._yaml_loader())["x"]
        assert (type(loaded), loaded) == (type(value), value)

    def test_minimal_config_takes_dataclass_defaults(self):
        s = scenario_from_dict(
            {
                "name": "t",
                "network": {"direct": {"m": 2.0}},
                "schemes": ["DF"],
                "snr_grid_db": [0.0],
            }
        )
        assert s.network.direct == ChannelSpec(m=2.0, omega=1.0)
        assert s.network.relays == ()
        assert s.rate == RateSpec(rate=1.0)
        assert s.power == PowerSpec()
        assert s.schemes == (Scheme.DF,)
        assert s.combiner is Combiner.SC
        assert s.outputs == frozenset({"analytic"})
        assert (s.kind, s.trials, s.seed, s.confidence, s.coupled) == (
            "curve", 10**6, 12345, 0.99, False,
        )
        assert (s.mc_max_snr_db, s.fit_window_db) == (25.0, (35.0, 45.0))
        # only a curve has a grid
        surface = scenario_from_dict(
            {
                "name": "t",
                "kind": "diversity_surface",
                "network": {"direct": {"m": 2.0}},
                "schemes": ["dfaf"],
                "surface_shapes": [1.0],
            }
        )
        assert not hasattr(surface, "snr_grid_db")

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
            "snr_grid_db": [0.0],
        }
        scenario_from_dict(cfg)
        level = cfg
        for step in path:
            level = level[step]
        level[key] = 5
        # a top-level key is one the curve class has no field for
        match = f"unknown keys \\['{key}'\\]" if path else f"kind 'curve' never reads {key};"
        with pytest.raises(ScenarioError, match=match):
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
