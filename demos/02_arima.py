"""Fit ARIMA to a simulated series and inspect the order search.

The data is an AR(2) process integrated once, so the search should settle
on d=1 and a small ARMA order, and the fitted coefficients should land
near the simulation's truth.
"""

import numpy as np

import navcast as nc

rng = np.random.default_rng(3)
n, phi = 1200, (0.55, 0.25)
z = np.zeros(n)
for t in range(2, n):
    z[t] = phi[0] * z[t - 1] + phi[1] * z[t - 2] + rng.normal(0, 0.01)
series = nc.TimeSeries.from_values(2.0 + np.cumsum(z), name="ar2-integrated")

report = nc.select_order(series)
print(f"chosen order: {report.chosen}")
print("top candidates by AIC:")
for order, value, _converged in sorted(report.candidates, key=lambda c: c[1])[:5]:
    print(f"  {order}: {value:.1f}")

# AIC may prefer a richer order than the truth on a finite sample; fitting
# the generating order directly shows the estimator itself is well calibrated.
model = nc.fit(series, nc.ArimaOrder(2, 1, 0))
print(f"\nARIMA(2,1,0) AR coefficients: {np.round(model.ar_coeffs, 3)} (truth {phi})")
print(f"innovation variance: {model.sigma2:.2e} (truth 1.00e-04)")

chosen = report.model  # the search already fitted the chosen order
print(f"next-step forecast ({report.chosen}): {nc.forecast_one(chosen, series):.4f} "
      f"(last observation {series.values[-1]:.4f})")
