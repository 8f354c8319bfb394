"""Stationarity diagnostics on a synthetic NAV-like random walk.

A random walk has a unit root, so the Dickey-Fuller test should refuse to
call it stationary; its first difference is white noise and should pass.
The correlograms tell the same story: slowly decaying ACF before
differencing, nothing outside the confidence band after.
"""

import numpy as np

import navcast as nc

rng = np.random.default_rng(7)
values = 2.0 + np.cumsum(rng.normal(0.0005, 0.01, size=600))
series = nc.TimeSeries.from_values(values, name="demo-nav")

for d in (0, 1):
    x = nc.difference(series, d)
    res = nc.adf_test(x)
    verdict = "stationary" if res.is_stationary_5pct else "non-stationary"
    print(f"d={d}: ADF statistic {res.statistic:+.3f} "
          f"(5% critical {res.critical_values[0.05]:.2f}) -> {verdict}")

diffed = nc.difference(series, 1)
print("\nlag  ACF      PACF     (band +/-{:.3f})".format(1.96 / np.sqrt(len(diffed))))
acf_pts, pacf_pts = nc.acf(diffed, 10), nc.pacf(diffed, 10)
for a, p in zip(acf_pts, pacf_pts):
    flag = "*" if abs(a.value) > a.confidence_bound else " "
    print(f"{a.lag:3d}  {a.value:+.4f}  {p.value:+.4f}  {flag}")
