"""Acceptance gate: every exit criterion at its stated tolerance, one
printed pass/fail line each.

Run as part of the normal suite, or alone with verbose lines:

    pytest tests/test_acceptance.py -v -s
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from opprelay.analytic import (
    RateSpec,
    af_path_cdf_closed,
    af_path_cdf_quadrature,
    asymptotic_outage,
    outage_sc,
)
from opprelay.channel import LinkSnr, PowerSpec
from opprelay.experiments import csv_text, preset, run_scenario, sweep_alpha
from opprelay.montecarlo import (
    Combiner,
    Scheme,
    estimate_outage_coupled,
)

from nets import from_shapes, rayleigh

RS = RateSpec(rate=1.0)
PW = PowerSpec()
FIG3_NET = from_shapes(0.5, [1, 1, 2], [1, 1, 1])


def db(x: float) -> float:
    return 10.0 ** (x / 10.0)


def report(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def fitted_slope(curve_fn, window_db=(35.0, 45.0)) -> float:
    xs = np.arange(window_db[0], window_db[1] + 0.5, 1.0)
    ys = [curve_fn(db(x)) for x in xs]
    return float(-np.polyfit(xs / 10.0, np.log10(ys), 1)[0])


def test_c1_analytic_mc_agreement_rayleigh():
    """Closed form inside the 99% Wilson CI of 1e6-trial estimates on the
    Rayleigh presets, >= 14 of 15 points, under two minutes."""
    start = time.perf_counter()
    covered = 0
    total = 0
    for k in (1, 2, 3):
        net = rayleigh(k)
        for idx, snr_db in enumerate((0.0, 5.0, 10.0, 15.0, 20.0)):
            exact = outage_sc(Scheme.DFAF, net, PW, RS, db(snr_db))
            est = estimate_outage_coupled(
                net, PW, RS, (Scheme.DFAF,),
                10**6, seed=2026, confidence=0.99, stream_tag=(k, idx), snr=db(snr_db),
            ).estimates[Scheme.DFAF]
            total += 1
            covered += est.ci_low <= exact <= est.ci_high
    elapsed = time.perf_counter() - start
    report(
        covered >= 14 and total == 15 and elapsed < 120.0,
        "C1 analytic-MC agreement",
        f"{covered}/15 points covered in {elapsed:.1f}s",
    )


@pytest.mark.filterwarnings("ignore:only .* failures")
def test_c1_below_delta_preset_coverage():
    """The below_delta_rayleigh_K3 preset at its own 1e6 trials and seed:
    each scheme's closed form inside its coupled 99% Wilson CI at every
    simulated point, >= 17 of 18 at C1's rate."""
    (s,) = preset("below_delta_rayleigh_K3")
    assert s.trials == 10**6 and s.coupled and s.confidence == 0.99
    rows = [
        r for r in run_scenario(replace(s, outputs=frozenset({"analytic", "montecarlo"})))
        if r.outage_mc is not None
    ]
    covered = sum(r.mc_ci_low <= r.outage_analytic <= r.mc_ci_high for r in rows)
    report(
        covered >= 17 and len(rows) == 18,
        "C1 below-delta preset coverage",
        f"{covered}/{len(rows)} coupled CIs cover the closed forms",
    )


def test_c2_hand_value():
    """Rayleigh K=1 at transmit SNR 10: closed form 0.11694 +- 1e-5 and a
    1e7-trial CI that covers it."""
    net = rayleigh(1)
    exact = outage_sc(Scheme.DFAF, net, PW, RS, 10.0)
    est = estimate_outage_coupled(
        net, PW, RS, (Scheme.DFAF,), 10**7, seed=7, confidence=0.99, snr=10.0
    ).estimates[Scheme.DFAF]
    ok = abs(exact - 0.11694) <= 1e-5 and est.ci_low <= exact <= est.ci_high
    report(
        ok,
        "C2 hand value",
        f"closed={exact:.6f} mc=[{est.ci_low:.6f},{est.ci_high:.6f}]",
    )


def test_c3_af_cdf_oracle_equivalence():
    """Finite Bessel sum vs the trapezoid quadrature within 1e-8 on the grid."""
    worst = 0.0
    for m1 in (1, 2, 3):
        for m2 in (1, 2, 3):
            for gbar in (5.0, 20.0):
                h1 = LinkSnr(mean_snr=gbar, m=float(m1))
                h2 = LinkSnr(mean_snr=gbar, m=float(m2))
                for y in (0.5, 3.0, 10.0):
                    gap = abs(
                        af_path_cdf_closed(h1, h2, y)
                        - af_path_cdf_quadrature(h1, h2, y)
                    )
                    worst = max(worst, gap)
    report(worst <= 1e-8, "C3 AF CDF oracle equivalence", f"max |closed-quad| = {worst:.2e}")


def test_c4_diversity_slopes():
    """Log-log slopes of the exact curves over 35-45 dB match the predicted
    diversity orders: +-0.15 for the adaptive scheme, +-0.2 for AF."""
    checks = []
    for k, d in ((1, 1.8), (2, 2.8), (3, 3.8)):
        net = from_shapes(0.8, [1.0] * k, [1.0] * k)
        s_adapt = fitted_slope(lambda snr: outage_sc(Scheme.DFAF, net, PW, RS, snr))
        s_af = fitted_slope(lambda snr: outage_sc(Scheme.AF, net, PW, RS, snr))
        checks.append((f"K{k}", s_adapt, d, 0.15))
        checks.append((f"K{k}-af", s_af, d, 0.2))
    s_adapt = fitted_slope(lambda snr: outage_sc(Scheme.DFAF, FIG3_NET, PW, RS, snr))
    s_af = fitted_slope(lambda snr: outage_sc(Scheme.AF, FIG3_NET, PW, RS, snr))
    checks.append(("fig3", s_adapt, 3.5, 0.15))
    checks.append(("fig3-af", s_af, 3.5, 0.2))
    ok = all(abs(slope - d) <= tol for _, slope, d, tol in checks)
    detail = " ".join(f"{name}={slope:.3f}~{d}" for name, slope, d, _ in checks)
    report(ok, "C4 diversity slopes", detail)


def test_c5_asymptotic_validity():
    """High-SNR expansion within 15% of the exact value at 40 dB and a
    ratio approaching 1 monotonically from 30 to 50 dB."""
    nets = {"fig3": FIG3_NET}
    for k in (1, 2, 3):
        nets[f"fig4_K{k}"] = from_shapes(0.8, [1.0] * k, [1.0] * k)
    details = []
    ok = True
    for name, net in nets.items():
        gaps = []
        for snr_db in (30.0, 35.0, 40.0, 45.0, 50.0):
            ratio = asymptotic_outage(Scheme.DFAF, net, PW, RS, db(snr_db)) / outage_sc(
                Scheme.DFAF, net, PW, RS, db(snr_db)
            )
            gaps.append(abs(ratio - 1.0))
        ok &= gaps[2] <= 0.15
        ok &= all(b < a for a, b in zip(gaps, gaps[1:]))
        details.append(f"{name}@40dB={gaps[2]:.1e}")
    report(ok, "C5 asymptotic validity", " ".join(details))


def test_c6_scheme_ordering_sc():
    """DF equals the adaptive scheme exactly; AF is no better at 30-40 dB
    once the decode and outage thresholds coincide."""
    equal_everywhere = True
    for name in (
        "fig2_rayleigh_K1", "fig2_rayleigh_K2", "fig2_rayleigh_K3",
        "fig3_nakagami_3relay", "fig4_K1", "fig4_K2", "fig4_K3",
        "fig7_mrc_compare", "fig8_alpha_sweep",
    ):
        for s in preset(name):
            grid = getattr(s, "snr_grid_db", None) or tuple(float(x) for x in range(0, 51, 5))
            for snr_db in grid:
                a = outage_sc(Scheme.DFAF, s.network, PW, s.rate, db(snr_db))
                b = outage_sc(Scheme.DF, s.network, PW, s.rate, db(snr_db))
                equal_everywhere &= a == b
    ordered = True
    for k in (1, 2, 3):
        net = rayleigh(k)
        for snr_db in (30.0, 35.0, 40.0):
            dfaf, af = (outage_sc(x, net, PW, RS, db(snr_db)) for x in (Scheme.DFAF, Scheme.AF))
            ordered &= dfaf <= af
    report(
        equal_everywhere and ordered,
        "C6 scheme ordering (SC)",
        f"df==dfaf everywhere: {equal_everywhere}; dfaf<=af at 30-40dB: {ordered}",
    )


def test_c7_mrc_ordering_coupled():
    """At 10 dB on the mixed-shape network with MRC and shared draws: the
    adaptive scheme dominates per trial in all 1e6 trials and its outage
    CI sits strictly below both others."""
    coupled = estimate_outage_coupled(
        FIG3_NET, PW, RS,
        (Scheme.DFAF, Scheme.DF, Scheme.AF),
        10**6, seed=12345, confidence=0.99, combiner=Combiner.MRC, snr=10.0,
    )
    viol = coupled.dominance_violations
    adaptive = coupled.estimates[Scheme.DFAF]
    df = coupled.estimates[Scheme.DF]
    af = coupled.estimates[Scheme.AF]
    ok = (
        viol[Scheme.DF] == 0
        and viol[Scheme.AF] == 0
        and adaptive.ci_high < df.ci_low
        and adaptive.ci_high < af.ci_low
    )
    report(
        ok,
        "C7 MRC ordering (coupled)",
        f"violations={viol[Scheme.DF]}+{viol[Scheme.AF]} "
        f"dfaf={adaptive.probability:.5f} df={df.probability:.5f} af={af.probability:.5f}",
    )


def test_c8_alpha_sweep_shape():
    """Fixed total power split between source and relay: outage dips at the
    middle of the sweep, and the adaptive scheme never loses."""
    (s,) = preset("fig8_alpha_sweep")
    rows = sweep_alpha(s)
    by_key = {(r.alpha, r.scheme): r for r in rows}
    mid = by_key[(0.5, "dfaf")]
    low = by_key[(0.1, "dfaf")]
    high = by_key[(0.9, "dfaf")]
    dip = mid.mc_ci_high < low.mc_ci_low and mid.mc_ci_high < high.mc_ci_low
    never_loses = all(
        by_key[(a, "dfaf")].failures <= by_key[(a, other)].failures
        for a in s.alphas
        for other in ("df", "af")
    )
    report(
        dip and never_loses,
        "C8 alpha sweep shape",
        f"dfaf(0.1/0.5/0.9)={low.outage_mc:.4f}/{mid.outage_mc:.4f}/{high.outage_mc:.4f}",
    )


def test_c9_determinism():
    """Identical seed gives byte-identical CSV, for any worker count."""
    (curve,) = preset("fig2_rayleigh_K1")
    curve = replace(curve, trials=30_000, snr_grid_db=(0.0, 5.0, 10.0))
    rerun_equal = csv_text(run_scenario(curve)) == csv_text(run_scenario(curve))

    (mrc,) = preset("fig7_mrc_compare")
    mrc = replace(mrc, trials=120_000, snr_grid_db=(5.0, 10.0))
    w1 = csv_text(run_scenario(mrc, workers=1))
    w2 = csv_text(run_scenario(mrc, workers=2))

    (alpha,) = preset("fig8_alpha_sweep")
    alpha = replace(alpha, trials=30_000, alphas=(0.3, 0.6))
    a1 = csv_text(sweep_alpha(alpha, workers=1))
    a3 = csv_text(sweep_alpha(alpha, workers=3))

    ok = rerun_equal and w1 == w2 and a1 == a3
    report(
        ok,
        "C9 determinism",
        f"rerun={rerun_equal} workers(curve)={w1 == w2} workers(alpha)={a1 == a3}",
    )


@pytest.fixture(autouse=True)
def _quiet_low_failure_warnings(recwarn):
    # deep-outage grid points legitimately trip the minimum-failures guard
    yield
