"""Write tests/golden/dfaf_below_delta.json: one relay's DFAF path-failure
factor at gamma_th < delta, at 40 digits, for test_analytic.py.

Below delta a relay that cannot decode amplifies, so its path misses with
probability

    P(g1 < delta and g1 g2 / (g1 + g2 + 1) < gamma_th)
        + (1 - P(m1, a1 delta)) P(m2, a2 gamma_th).

The first term is P(m1, a1 gamma_th) plus the integral over g1 = gamma_th + t,
0 < t < delta - gamma_th, of the first-hop density times
P(m2, a2 gamma_th (gamma_th + t + 1) / t), taken in v = ln t by tanh-sinh
on unit intervals from 80 e-folds under min(a2 gamma_th (gamma_th + 1),
delta - gamma_th) up to ln(delta - gamma_th), or to 3 e-folds past
a1 t = m1 + 250 where that comes first.  This split and this change of
variable differ from the package's own, so the table checks its rule and
its cut-offs, not only its arithmetic.  Every value is computed at 40 and
at 50 digits, and the two must agree to 1e-30 relative.

The inputs are the doubles the test builds: mean SNR 10**(dB/10) and the
rate m / mean SNR of channel.LinkSnr, gamma_th as listed.

Rerun from the repository root with mpmath installed (1.3.0 was used):

    python tests/dfaf_oracle.py

It takes about two and a half minutes and rewrites the JSON file in place.
"""

import json
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).parent / "golden" / "dfaf_below_delta.json"

# (m1, first-hop mean SNR dB, m2, second-hop mean SNR dB, rate, gamma_th)
CASES = [
    (1.0, 10.0, 1.0, 10.0, 1.0, 1.0),
    (0.5, 0.0, 1.0, 0.0, 1.0, 1.5),
    (0.5, 20.0, 2.0, 20.0, 1.0, 2.5),
    (0.5, 50.0, 0.5, 50.0, 1.0, 0.3),
    (0.5, 10.0, 1.5, 40.0, 1.0, 3.0 * (1.0 - 1e-9)),
    (0.5, 30.0, 0.5, 0.0, 1.0, 1.9),
    (1.0, 0.0, 1.0, 0.0, 1.0, 0.1),
    (1.0, 30.0, 3.0, 30.0, 1.0, 2.0),
    (1.0, 45.0, 0.5, 5.0, 1.0, 2.2),
    (1.3, 50.0, 3.7, 10.0, 1.0, 2.8),
    (1.7, 15.0, 0.8, 25.0, 1.0, 0.5),
    (2.0, 40.0, 1.0, 10.0, 1.0, 1.0),
    (2.0, 20.0, 2.0, 20.0, 1.0, 3.0 * (1.0 - 1e-9)),
    (2.5, 5.0, 4.0, 45.0, 1.0, 1.2),
    (3.0, 20.0, 3.0, 20.0, 1.0, 2.99),
    (4.0, 50.0, 4.0, 50.0, 1.0, 1.0),
    (6.0, 25.0, 1.0, 25.0, 1.0, 0.8),
    (8.0, 30.0, 2.5, 35.0, 1.0, 2.0),
    (1.0, 20.0, 2.0, 20.0, 2.0, 5.0),
    (3.0, 10.0, 1.0, 10.0, 0.5, 0.5),
]


def rate(m: float, snr_db: float) -> mp.mpf:
    # channel.LinkSnr's double m / mean_snr, taken exactly
    return mp.mpf(m / 10.0 ** (snr_db / 10.0))


def factor(m1, db1, m2, db2, rate_bits, gamma_th) -> mp.mpf:
    m1, m2, y = mp.mpf(m1), mp.mpf(m2), mp.mpf(gamma_th)
    a1, a2 = rate(float(m1), db1), rate(float(m2), db2)
    delta = mp.mpf(2.0 ** (2.0 * rate_bits) - 1.0)
    c = delta - y
    assert c > 0
    p = lambda m, x: mp.gammainc(m, 0, x, regularized=True)  # noqa: E731
    ln_pref = m1 * mp.log(a1) - mp.loggamma(m1)

    def integrand(v):
        t = mp.exp(v)
        x = y + t
        return mp.exp(ln_pref + (m1 - 1) * mp.log(x) - a1 * x + v) * p(m2, a2 * y * (x + 1) / t)

    lo = mp.log(min(a2 * y * (y + 1), c)) - 80
    hi = min(mp.log(c), mp.log((m1 + 250) / a1) + 3)
    edges = [lo + k for k in range(int(mp.floor(hi - lo)) + 1)] + [hi]
    amplified = p(m1, a1 * y) + mp.quad(integrand, edges)
    return amplified + (1 - p(m1, a1 * delta)) * p(m2, a2 * y)


def main() -> None:
    rows = []
    for case in CASES:
        with mp.workdps(50):
            fine = factor(*case)
        with mp.workdps(40):
            value = factor(*case)
        assert abs(value / fine - 1) < mp.mpf(10) ** -30, (case, value, fine)
        m1, db1, m2, db2, rate_bits, gamma_th = case
        rows.append(
            {
                "m1": m1, "snr1_db": db1, "m2": m2, "snr2_db": db2,
                "rate": rate_bits, "gamma_th": gamma_th,
                "factor": mp.nstr(value, 35, min_fixed=0, max_fixed=0),
            }
        )
    text = "[\n" + ",\n".join(" " + json.dumps(row) for row in rows) + "\n]\n"
    OUT.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
