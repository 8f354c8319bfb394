"""Univariate series core: differencing, stationarity testing, correlograms,
min-max scaling, and chronological splitting.

All functions are pure; every returned container is immutable in practice
(numpy arrays are copied on construction and never written to afterwards).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, NumericalError

# Large-sample critical values for the Dickey-Fuller distribution,
# constant-only regression (no deterministic trend).
ADF_CRITICAL_VALUES = {0.01: -3.43, 0.05: -2.86, 0.10: -2.57}
MAX_DIFFERENCES = 2  # the most differences the stationarity rule tries


@dataclass(frozen=True)
class TimeSeries:
    """Ordered, timestamped univariate observations."""

    timestamps: tuple
    values: np.ndarray
    name: str = ""

    def __post_init__(self):
        ts = tuple(self.timestamps)
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1:
            raise ConfigurationError("values must be one-dimensional")
        if len(ts) != len(vals):
            raise ConfigurationError(
                f"{len(ts)} timestamps but {len(vals)} values"
            )
        if len(vals) < 1:
            raise DegenerateInputError("a series needs at least 1 observation")
        if not np.all(np.isfinite(vals)):
            raise DegenerateInputError("series contains non-finite values")
        for a, b in zip(ts, ts[1:]):
            if not a < b:
                raise ConfigurationError(f"timestamps not strictly increasing at {b}")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return len(self.values)

    def segment(self, start: int, stop: int) -> np.ndarray:
        """Return values[start:stop].  The single read path used by rolling
        evaluation, so tests can subclass and audit every access."""
        return self.values[start:stop]

    def slice(self, start: int, stop: int) -> "TimeSeries":
        return TimeSeries(self.timestamps[start:stop], self.segment(start, stop), self.name)

    @staticmethod
    def from_values(values, name: str = "") -> "TimeSeries":
        """Attach consecutive daily timestamps from 2000-01-01 to bare values."""
        start = datetime.date(2000, 1, 1)
        ts = tuple(start + datetime.timedelta(days=i) for i in range(len(values)))
        return TimeSeries(ts, values, name)


@dataclass(frozen=True)
class AdfResult:
    """Augmented Dickey-Fuller outcome (constant-only regression)."""

    statistic: float
    lag_used: int

    @property
    def critical_values(self) -> dict:
        return dict(ADF_CRITICAL_VALUES)

    @property
    def is_stationary_5pct(self) -> bool:
        return self.statistic < self.critical_values[0.05]


@dataclass(frozen=True)
class CorrelogramPoint:
    lag: int
    value: float
    confidence_bound: float


@dataclass(frozen=True)
class ScaleParams:
    """Affine map [min, max] -> [-1, 1]."""

    min: float
    max: float

    def __post_init__(self):
        if not self.max > self.min:
            raise DegenerateInputError("scale range is degenerate (max <= min)")


@dataclass(frozen=True)
class SplitSpec:
    train_len: int
    val_len: int
    test_len: int

    def __post_init__(self):
        if min(self.train_len, self.val_len, self.test_len) <= 0:
            raise ConfigurationError("all split segments must be positive")

    @property
    def total(self) -> int:
        return self.train_len + self.val_len + self.test_len

    @staticmethod
    def proportional(n: int) -> "SplitSpec":
        """Scale the reference 900/100/260 split to length n (largest remainder)."""
        ratios = (900, 100, 260)
        total = sum(ratios)
        raw = [n * r / total for r in ratios]
        base = [int(x) for x in raw]
        rem = n - sum(base)
        order = sorted(range(3), key=lambda i: raw[i] - base[i], reverse=True)
        for i in order[:rem]:
            base[i] += 1
        return SplitSpec(*base)


def difference(series: TimeSeries, d: int) -> np.ndarray:
    """d-th forward difference of the series values (a new array)."""
    if d < 0:
        raise ConfigurationError("difference order must be non-negative")
    vals = series.values
    if len(vals) <= d:
        raise DegenerateInputError(f"series of length {len(vals)} cannot be differenced {d} times")
    return np.diff(vals, d) if d else vals.copy()


def _first_stationary(adf_results) -> int | None:
    """The index d of the first ADF result that rejects at 5%, or None; reads no further."""
    return next((d for d, res in enumerate(adf_results) if res.is_stationary_5pct), None)


def _autocovariances(x, max_lag: int) -> np.ndarray:
    """Biased autocovariances sum_t x_t x_{t+k} / n of x about zero, k = 0..max_lag."""
    n = len(x)
    return np.array([np.dot(x[: n - k], x[k:]) for k in range(max_lag + 1)]) / n


def acf(values, max_lag: int) -> list[CorrelogramPoint]:
    """Sample autocorrelations for lags 1..max_lag.

    Uses the biased divide-by-n covariance estimator, so the +-1.96/sqrt(n)
    white-noise bound applies.
    """
    x = np.asarray(values, dtype=float)
    n = len(x)
    if max_lag < 0:
        raise ConfigurationError(f"max_lag must be non-negative, got {max_lag}")
    if n <= max_lag:
        raise DegenerateInputError(f"need more than {max_lag} observations, got {n}")
    c = _autocovariances(x - x.mean(), max_lag)
    if c[0] == 0.0:
        raise DegenerateInputError("zero-variance series has no correlogram")
    bound = 1.96 / np.sqrt(n)
    return [CorrelogramPoint(k, float(c[k] / c[0]), bound) for k in range(1, max_lag + 1)]


def pacf(values, max_lag: int) -> list[CorrelogramPoint]:
    """Partial autocorrelations via the Durbin-Levinson recursion on the ACF."""
    x = np.asarray(values, dtype=float)
    n = len(x)
    if max_lag >= n / 2:
        raise DegenerateInputError("max_lag must be below half the series length")
    rho = np.array([pt.value for pt in acf(x, max_lag)])
    bound = 1.96 / np.sqrt(n)
    phi_prev = np.zeros(0)
    points = []
    for k in range(1, max_lag + 1):
        den = 1.0 - float(np.dot(phi_prev, rho[:k - 1]))
        if abs(den) < 1e-14:
            raise NumericalError(f"Durbin-Levinson recursion singular at lag {k}")
        phi_kk = (rho[k - 1] - float(np.dot(phi_prev, rho[:k - 1][::-1]))) / den
        phi = np.concatenate((phi_prev - phi_kk * phi_prev[::-1], [phi_kk]))
        points.append(CorrelogramPoint(k, float(phi_kk), bound))
        phi_prev = phi
    return points


def adf_test(values) -> AdfResult:
    """Augmented Dickey-Fuller unit-root test, constant-only regression.

    Lag order is chosen by minimizing the Gaussian AIC of the augmented
    regression over 0..max_lag, capped by the Schwert bound
    floor(12 * (n/100)^0.25).
    """
    y = np.asarray(values, dtype=float)
    n = len(y)
    if n < 20:
        raise DegenerateInputError(f"ADF test needs at least 20 observations, got {n}")
    max_lag = min(int(np.floor(12.0 * (n / 100.0) ** 0.25)), n // 2 - 2)

    dy = np.diff(y)
    # Common effective sample across candidate lags so AICs are comparable.
    # The regression at lag k uses the first k + 2 columns: constant, level,
    # then the lagged differences.
    t0 = max_lag + 1
    lhs = dy[t0 - 1:]
    neff = len(lhs)
    A = np.column_stack([np.ones_like(lhs), y[t0 - 1:-1]]
                        + [dy[t0 - 1 - i:-i] for i in range(1, max_lag + 1)] + [lhs])
    X_all = A[:, :-1]
    # matrix_rank uses lstsq's tolerance, and dropping columns only raises sigma_min and
    # lowers sigma_max: X_all is full rank exactly when every lag's regression is.
    if np.linalg.matrix_rank(X_all) < X_all.shape[1]:
        raise NumericalError("rank-deficient ADF regression: collinear regressors, "
                             "or values too large for the least-squares rank tolerance")
    # One QR for every lag: with r the last column of R in A = [X_all | lhs] = QR, the
    # regression on the first c columns leaves RSS = sum_{i >= c} r_i^2 (Golub & Van Loan 5.3).
    r = np.linalg.qr(A, mode="r")[:, -1]
    rss_by_lag = np.cumsum(r[::-1] ** 2)[::-1][2:]
    if rss_by_lag[-1] <= 0.0:  # the full regression's RSS bounds every lag's from below
        raise NumericalError("degenerate ADF regression (zero residual sum)")
    lag = int(np.argmin(neff * np.log(rss_by_lag / neff) + 2 * np.arange(2, max_lag + 3)))
    X = X_all[:, :lag + 2]
    coef = np.linalg.lstsq(X, lhs, rcond=None)[0]
    resid = lhs - X @ coef
    sigma2 = float(resid @ resid) / (neff - X.shape[1])
    se = np.sqrt(sigma2 * np.linalg.inv(X.T @ X)[1, 1])
    return AdfResult(statistic=float(coef[1] / se), lag_used=lag)


def fit_scale(values) -> ScaleParams:
    """Fit min-max parameters on (training) values."""
    x = np.asarray(values, dtype=float)
    lo, hi = float(x.min()), float(x.max())
    if hi == lo:
        raise DegenerateInputError("cannot scale a constant series")
    return ScaleParams(lo, hi)


def minmax_scale(values, params: ScaleParams) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    return -1.0 + (x - params.min) * 2.0 / (params.max - params.min)


def minmax_unscale(scaled, params: ScaleParams) -> np.ndarray:
    x = np.asarray(scaled, dtype=float)
    return params.min + (x + 1.0) * (params.max - params.min) / 2.0


def split(series: TimeSeries, spec: SplitSpec):
    """Contiguous chronological (train, val, test) partition."""
    if spec.total != len(series):
        raise ConfigurationError(
            f"split {spec.train_len}+{spec.val_len}+{spec.test_len} != series length {len(series)}"
        )
    a = spec.train_len
    b = a + spec.val_len
    return (
        series.slice(0, a),
        series.slice(a, b),
        series.slice(b, spec.total),
    )
