"""Correctness checks on a round's outputs, run outside the timed region.

Gating checks decide the result's `correct` flag.  Checks that ROADMAP
item 3's open defects of the closed forms make fail are evaluated on
every input too, but a failure there is counted as a known-defect
finding instead of gating.  The inputs keep those regions on purpose, so
the counts show the defects today and fall to zero when they are fixed:

* `dfaf_gamma_below_delta`: MC intervals that miss the DFAF closed form
  on networks with gamma_th < delta (item 3(a));
* `af_cdf_route_gap`: the two AF path CDF routes differ by more than the
  acceptance gate's 1e-8 outside the gate's own domain (hop mean SNRs up
  to 20), or by more than 1e-6 relative anywhere (item 3(c));
* `curve_not_monotone`: a closed-form curve rises with SNR where a value
  is below 1e-12, the floor of the `1 - sum` form (item 3(c));
* `slope_mismatch`: a fitted 35-45 dB slope misses the diversity order
  by more than the acceptance gate's C4 tolerance (items 3(c), 3(d));
* `interval_excludes_estimate`: a Wilson interval misses its own estimate
  by rounding; at failures == trials its upper end is 1 - 2**-53, not 1
  (not yet on the ROADMAP).

Inside the regions the acceptance gate already covers, the same checks
gate.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

# Wilson intervals cover somewhat less than nominal at small failure
# counts, so the coverage test allows twice the nominal miss rate and
# fails only when the miss count is that unlikely (binomial tail < 1e-6).
COVERAGE_SLACK = 2.0
COVERAGE_ALPHA = 1e-6
AF_CDF_ABS_TOL = 1e-8  # the acceptance gate's C3 bound ...
AF_CDF_GATE_MEAN_SNR = 20.0  # ... and the largest hop mean SNR it uses
AF_CDF_REL_GAP = 1e-6
MONOTONE_FLOOR = 1e-12
ROUNDING = 1e-12
SLOPE_TOL = {"dfaf": 0.15, "df": 0.15, "af": 0.2}  # the C4 bounds
MONOTONE_REL_TOL = 1e-12


@dataclass
class CheckReport:
    checked: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    coverage_points: int = 0
    coverage_misses: int = 0
    coverage_ok: bool = True
    known_defects: dict[str, int] = field(default_factory=dict)
    references_unavailable: int = 0
    mc_digest: str = ""

    def expect(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def finding(self, ok: bool, name: str) -> None:
        """A check that a known defect can fail: counted, never gating."""
        self.checked += 1
        if not ok:
            self.known_defects[name] = self.known_defects.get(name, 0) + 1

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.coverage_ok

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "checked": self.checked,
            "failed": self.failed,
            "check_fail_rate": (
                (self.failed + sum(self.known_defects.values())) / self.checked
                if self.checked else 0.0
            ),
            "first_failures": self.failures,
            "coverage_points": self.coverage_points,
            "coverage_misses": self.coverage_misses,
            "coverage_ok": self.coverage_ok,
            "known_defects": self.known_defects,
            "references_unavailable": self.references_unavailable,
            "mc_failure_digest": self.mc_digest,
        }


def _prob(x) -> bool:
    return x is not None and math.isfinite(x) and 0.0 <= x <= 1.0


def _binomial_sf(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    if k <= 0:
        return 1.0
    return sum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(k, n + 1))


def _check_values(rep: CheckReport, op) -> None:
    for row in op.rows:
        tag = f"{op.scenario} {type(row).__name__}"
        if hasattr(row, "outage_mc") and row.outage_mc is not None:
            p, lo, hi = row.outage_mc, row.mc_ci_low, row.mc_ci_high
            rep.expect(
                _prob(p) and _prob(lo) and _prob(hi) and lo <= hi,
                f"{tag}: MC value or interval outside [0, 1]",
            )
            rep.expect(
                lo - ROUNDING <= p <= hi + ROUNDING,
                f"{tag}: MC interval [{lo}, {hi}] excludes the estimate {p}",
            )
            rep.finding(lo <= p <= hi, "interval_excludes_estimate")
        if getattr(row, "outage_analytic", None) is not None:
            rep.expect(_prob(row.outage_analytic), f"{tag}: closed form outside [0, 1]")
        if getattr(row, "outage_asymptotic", None) is not None:
            rep.expect(
                math.isfinite(row.outage_asymptotic) and row.outage_asymptotic >= 0.0,
                f"{tag}: asymptote not finite and nonnegative",
            )
        if hasattr(row, "af_path_cdf"):
            rep.expect(
                _prob(row.af_path_cdf)
                and math.isfinite(row.bound_high)
                and 0.0 <= row.bound_low <= row.bound_high,
                f"{tag}: AF bounds row out of range",
            )
        if hasattr(row, "fitted_slope"):
            rep.expect(math.isfinite(row.fitted_slope), f"{tag}: slope not finite")


def _check_monotone(rep: CheckReport, name: str, rows: list) -> None:
    """One network's closed-form rows, from one curve call or from one
    call per SNR point; points whose call raised are skipped."""
    curves: dict[str, list[float]] = {}
    for row in sorted(rows, key=lambda r: r.snr_db):
        if row.outage_analytic is not None:
            curves.setdefault(row.scheme, []).append(row.outage_analytic)
    for scheme, vals in curves.items():
        for a, b in zip(vals, vals[1:]):
            ok = b <= a * (1.0 + MONOTONE_REL_TOL)
            if min(a, b) >= MONOTONE_FLOOR:
                rep.expect(ok, f"{name} {scheme}: closed-form curve rises with SNR")
            else:
                rep.finding(ok, "curve_not_monotone")


def _check_coverage(rep: CheckReport, ex, scenario, op) -> None:
    """MC intervals against the SC closed form on the same grid."""
    try:
        exact_rows = ex.run_scenario(replace(scenario, outputs=frozenset({"analytic"})))
    except (ArithmeticError, ValueError, RuntimeError):
        rep.references_unavailable += 1
        return
    exact = {(r.snr_db, r.scheme): r.outage_analytic for r in exact_rows}
    below_delta = scenario.rate.gamma_th < scenario.rate.delta and scenario.network.relays
    for row in op.rows:
        if row.outage_mc is None:
            continue
        covered = row.mc_ci_low <= exact[(row.snr_db, row.scheme)] <= row.mc_ci_high
        if row.scheme == "dfaf" and below_delta:
            rep.finding(covered, "dfaf_gamma_below_delta")
            continue
        rep.coverage_points += 1
        rep.coverage_misses += not covered


def _check_coupled(rep: CheckReport, op) -> None:
    """Shared draws: the adaptive scheme never fails where another succeeds,
    so its failure count is at most each other scheme's at every point."""
    by_point: dict[float, dict[str, int]] = {}
    for row in op.rows:
        key = row.alpha if hasattr(row, "alpha") else row.snr_db
        by_point.setdefault(key, {})[row.scheme] = row.failures
    for key, counts in by_point.items():
        rep.expect(
            all(counts["dfaf"] <= c for c in counts.values()),
            f"{op.scenario} @ {key}: coupled DFAF failures exceed another scheme's",
        )


def _check_alpha_dip(rep: CheckReport, op) -> None:
    """The C8 shape: the mid split beats both extreme splits, with
    non-overlapping intervals."""
    rows = {(r.alpha, r.scheme): r for r in op.rows}
    alphas = sorted({r.alpha for r in op.rows})
    mid = rows[(alphas[len(alphas) // 2], "dfaf")]
    low, high = rows[(alphas[0], "dfaf")], rows[(alphas[-1], "dfaf")]
    rep.expect(
        mid.mc_ci_high < low.mc_ci_low and mid.mc_ci_high < high.mc_ci_low,
        f"{op.scenario}: alpha sweep has no mid-split dip",
    )


def _check_af_routes(rep: CheckReport, channel, analytic, scenario) -> None:
    """Bessel-sum and quadrature AF path CDFs where both apply."""
    y = scenario.rate.gamma_th
    for snr_db in scenario.snr_grid_db:
        _, relays = channel.network_link_snrs(
            scenario.network, scenario.power, 10.0 ** (snr_db / 10.0)
        )
        for h1, h2 in relays:
            if not (float(h1.m).is_integer() and float(h2.m).is_integer()):
                continue
            try:
                quad = analytic.af_path_cdf_quadrature(h1, h2, y)
            except (ArithmeticError, ValueError, RuntimeError):
                rep.references_unavailable += 1
                continue
            closed = analytic.af_path_cdf_closed(h1, h2, y)
            gap = abs(closed - quad)
            in_gate = max(h1.mean_snr, h2.mean_snr) <= AF_CDF_GATE_MEAN_SNR
            if in_gate:
                rep.expect(
                    gap <= AF_CDF_ABS_TOL,
                    f"{scenario.name} @ {snr_db} dB: AF CDF routes differ by {gap:.2e}",
                )
            rep.finding(
                (in_gate or gap <= AF_CDF_ABS_TOL)
                and gap <= AF_CDF_REL_GAP * max(closed, quad),
                "af_cdf_route_gap",
            )


def _check_slopes(rep: CheckReport, op) -> None:
    for row in op.rows:
        scheme = getattr(row, "scheme", "dfaf")
        theory = getattr(row, "theoretical_d", None)
        if theory is None:
            theory = row.diversity_theory
        rep.finding(abs(row.fitted_slope - theory) <= SLOPE_TOL[scheme], "slope_mismatch")


def mc_digest(ops) -> str:
    """SHA-256 of every MC failure count in a round, in order."""
    h = hashlib.sha256()
    for op in ops:
        for row in op.rows:
            if getattr(row, "failures", None) is not None:
                key = getattr(row, "alpha", None)
                key = row.snr_db if key is None else key
                h.update(f"{op.scenario}|{key}|{row.scheme}|{row.failures}\n".encode())
    return h.hexdigest()


def check_round(workload: str, modules, scenarios, ops) -> CheckReport:
    """Run every check that applies to `workload` on one round's ops."""
    ex, channel, analytic = modules
    by_name = {s.name: s for s in scenarios}
    rep = CheckReport()
    # closed-form rows per network; single-point scenarios are named
    # "<network>@<snr>dB"
    curves: dict[str, list] = {}
    for op in ops:
        if op.error is not None:
            continue
        _check_values(rep, op)
        scenario = by_name[op.scenario]
        if op.kind == "curve" and "analytic" in scenario.outputs:
            curves.setdefault(op.scenario.partition("@")[0], []).extend(op.rows)
        if op.kind == "curve" and workload == "mc_sc":
            _check_coverage(rep, ex, scenario, op)
        if op.kind in ("curve", "sweep") and scenario.coupled:
            _check_coupled(rep, op)
        if op.kind == "sweep":
            _check_alpha_dip(rep, op)
        if op.kind in ("fit", "surface"):
            _check_slopes(rep, op)
    for name, rows in curves.items():
        _check_monotone(rep, name, rows)
    if workload == "closed_form":
        for s in scenarios:
            if s.kind == "curve" and "@" not in s.name:
                _check_af_routes(rep, channel, analytic, s)
    if rep.coverage_points:
        rate = min(1.0, COVERAGE_SLACK * (1.0 - scenarios[0].confidence))
        rep.coverage_ok = (
            _binomial_sf(rep.coverage_misses, rep.coverage_points, rate) >= COVERAGE_ALPHA
        )
    rep.mc_digest = mc_digest(ops)
    return rep
