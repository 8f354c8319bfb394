"""ARIMA(p,d,q) estimation by conditional sum of squares, AIC-based order
selection, one-step forecasting, and residual extraction.

Estimation conventions:

* the series is differenced d times, then mean-centered; the removed mean is
  reported as the intercept (the drift of the differenced series when d >= 1);
* conditioning on the first p observations, pre-sample shocks are zero, and
  the CSS objective sums squared one-step residuals for t >= p;
* pure AR fits (q == 0) are solved exactly by least squares on lagged values,
  which is the minimizer of the same objective;
* fits with MA terms minimize it by L-BFGS-B from Yule-Walker AR and zero MA
  starts, with phi in [-10, 10], theta in [-0.99, 0.99] and the exact CSS
  gradient (two solves on one band per evaluation, one of them backwards in
  time, see `_css_objective`).

`fit` drives scipy's L-BFGS-B routine (the reverse-communication `setulb`
that scipy.optimize.minimize loops over) directly, in `_lbfgsb`: the same
iterates, stopping rules and evaluation count as minimize(method="L-BFGS-B"),
without the wrapper objects minimize runs on every evaluation, which cost
about as much as the CSS evaluation itself on the short windows that the
order search and the rolling refits fit.

The residual recursion eps = phi(B) z / (1 - theta(B)) is one FIR pass
(`np.convolve`) and one unit lower triangular banded solve (LAPACK dtbtrs).
Fits, residuals and forecasts all run it: the one-step forecast is the next
value whose residual is zero (Box, Jenkins, Reinsel & Ljung, ch. 5).

dtbtrs and setulb are the only compiled scipy routines navcast calls.  The
module loads them from the extension modules scipy.linalg._flapack and
scipy.optimize._lbfgsb (`_scipy_extension`), and imports none of the
packages scipy.linalg, scipy.optimize or scipy.signal: their __init__s load
hundreds of modules navcast never uses, and they took most of the start-up
time and memory of every navcast process.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from pathlib import Path

import numpy as np
import scipy

from . import _doc
from .errors import FIT_FAILURES, AnalysisError, DegenerateInputError, FitError
from .series import (MAX_DIFFERENCES, TimeSeries, _autocovariances, _first_stationary,
                     adf_test, difference)

MAX_ITER = 500
GRAD_TOL = 1e-8
CSS_CAP = 1e300  # the objective's value where the residuals overflow


def _scipy_extension(name: str):
    """The compiled module scipy.<name>, loaded from its file under scipy's
    directory without running the __init__ of the package that holds it.
    A module already imported is reused; one that loading registers is taken
    out of sys.modules again, so a later import of its package binds it as a
    plain import does."""
    full = f"scipy.{name}"
    if full in sys.modules:
        return sys.modules[full]
    where = Path(scipy.__file__).parent.joinpath(*name.split(".")[:-1])
    spec = FileFinder(str(where), (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(full)
    if spec is None:
        raise ImportError(f"no compiled module {full} in {where}", name=full, path=str(where))
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(full, None)
    return module


dtbtrs = _scipy_extension("linalg._flapack").dtbtrs  # unit lower triangular banded solve
setulb = _scipy_extension("optimize._lbfgsb").setulb  # one L-BFGS-B step


@dataclass(frozen=True)
class ArimaOrder:
    p: int
    d: int
    q: int

    def __post_init__(self):
        if min(self.p, self.d, self.q) < 0:
            raise ValueError("orders must be non-negative")

    def __iter__(self):
        return iter((self.p, self.d, self.q))

    def __str__(self):
        return f"({self.p},{self.d},{self.q})"


SEARCH_CAPS = ArimaOrder(5, MAX_DIFFERENCES, 5)  # the order search's grid, bounds included


@dataclass(frozen=True)
class ArimaModel:
    order: ArimaOrder
    ar_coeffs: np.ndarray
    ma_coeffs: np.ndarray
    intercept: float
    sigma2: float
    in_sample_residuals: np.ndarray
    n_obs: int
    # Whether the fit that made this model converged: L-BFGS-B reported
    # success and left its start point (closed-form fits always do).  Not
    # saved and not compared, so a model read back reports True.
    converged: bool = field(default=True, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ar_coeffs", np.array(self.ar_coeffs, dtype=float))
        object.__setattr__(self, "ma_coeffs", np.array(self.ma_coeffs, dtype=float))
        object.__setattr__(
            self, "in_sample_residuals", np.array(self.in_sample_residuals, dtype=float)
        )
        if (len(self.ar_coeffs), len(self.ma_coeffs)) != (self.order.p, self.order.q):
            raise ValueError(
                f"ARIMA{self.order} needs {self.order.p} AR and {self.order.q} MA "
                f"coefficients, got {len(self.ar_coeffs)} and {len(self.ma_coeffs)}"
            )

    @property
    def ar_stationary(self) -> bool:
        return _ar_roots_outside_unit_circle(self.ar_coeffs)


@dataclass(frozen=True)
class OrderSearchReport:
    candidates: list  # (ArimaOrder, aic, converged)
    model: ArimaModel  # the search's own fit of the chosen order

    @property
    def chosen(self) -> ArimaOrder:
        return self.model.order


def _ar_filter(z, phi):
    """The FIR pass phi(B) z, with z zero before the sample."""
    return np.convolve(z, np.concatenate(([1.0], np.negative(phi, dtype=float))))[: len(z)]


def _ma_inverse(theta, n, band=None):
    """b -> A^-1 b, A the n x n unit lower triangular Toeplitz matrix of 1 - theta(B),
    by forward substitution (LAPACK dtbtrs) on one Fortran-ordered band whose
    every column is [1, -theta_1, ..., -theta_q] (unit diagonal not read; with
    q = 0 it only copies).  A caller that solves for many theta passes the
    same (q + 1) x n band each time, and it is refilled in place."""
    if band is None:
        band = np.ones((len(theta) + 1, n), order="F")
    band[1:] = np.negative(theta, dtype=float)[:, None]
    return lambda b: dtbtrs(band, b, uplo="L", diag="U")[0]


def _arma_residuals(z, phi, theta):
    """One-step residuals eps_t = z_t - sum phi_i z_{t-i} + sum theta_j eps_{t-j}
    with zero pre-sample terms: the FIR pass phi(B) z, then (1 - theta(B)) eps =
    phi(B) z as a banded solve (Golub & Van Loan, Matrix Computations, 4.3)."""
    return _ma_inverse(theta, len(z))(_ar_filter(z, phi))


def _css_objective(z, p, q):
    """The CSS objective of one fit, x = (phi, theta) -> (CSS, exact gradient).

    With A the unit lower triangular Toeplitz matrix of 1 - theta(B),
    d eps_t / d phi_i = -(A^-1 z)_{t-i} and d eps_t / d theta_j =
    (A^-1 eps)_{t-j} (Box, Jenkins, Reinsel & Ljung, ch. 7).  A commutes with
    shifts, so with r the residuals from t = p on (zero before) and
    w = A^-T r, dCSS/dphi_i = -2 sum w_t z_{t-i} and dCSS/dtheta_j =
    2 sum w_t eps_{t-j}.  A^-T is A^-1 in reversed time, so w is a second
    solve on the same band, run backwards: one band and two solves per
    evaluation whatever p + q is, and one band allocation per fit.

    Explosive candidates overflow, so callers run the objective under
    np.errstate(over="ignore", invalid="ignore"); it then reports CSS_CAP
    and a zero gradient, so that the line search backs away instead of
    propagating NaN.
    """
    n = len(z)
    band = np.ones((q + 1, n), order="F")

    def objective(x):
        phi, theta = x[:p], x[p:]
        solve = _ma_inverse(theta, n, band)
        eps = solve(_ar_filter(z, phi))
        tail = eps[p:]
        css = float(tail @ tail)
        r = np.concatenate((np.zeros(p), tail))
        # Zero-padded so that correlating it with a length-n series gives
        # sum_t w_t x_{t-k} for k = 0 .. max(p, q).
        w = np.concatenate((solve(r[::-1])[::-1], np.zeros(max(p, q))))
        grad = 2.0 * np.concatenate((-np.correlate(w[: n + p], z)[1:],
                                     np.correlate(w[: n + q], eps)[1:]))
        if not (np.isfinite(css) and np.all(np.isfinite(grad))):
            return CSS_CAP, np.zeros(p + q)
        return css, grad

    return objective


def _yule_walker_ar(z, p):
    """Yule-Walker AR(p) start values from the biased autocovariances, or
    zeros where those or the solution are not finite (an overflowing series)
    or the Toeplitz system c[|i - j|] is singular."""
    with np.errstate(over="ignore", invalid="ignore"):
        c = _autocovariances(z, p)
    if not (np.all(np.isfinite(c)) and c[0] > 0):
        return np.zeros(p)
    lags = np.arange(p)
    try:
        phi = np.linalg.solve(c[np.abs(lags[:, None] - lags)], c[1: p + 1])
    except np.linalg.LinAlgError:
        return np.zeros(p)
    return phi if np.all(np.isfinite(phi)) else np.zeros(p)


def _ar_roots_outside_unit_circle(phi) -> bool:
    # z is a root of 1 - phi_1 z - ... - phi_p z^p exactly when 1/z is a root
    # of the monic z^p - phi_1 z^(p-1) - ... - phi_p.  Its companion matrix
    # holds phi itself, so it stays finite however close to 0 phi_p is.
    inverse_roots = np.roots(np.concatenate(([1.0], -np.asarray(phi, dtype=float))))
    return bool(np.all(np.abs(inverse_roots) < 1.0))


def _lbfgsb(objective, x0, lo, hi):
    """Minimize objective(x) -> (value, gradient) over the box [lo, hi] from x0
    by L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995), answering the requests of
    scipy's reverse-communication routine setulb in the loop that
    scipy.optimize.minimize(method="L-BFGS-B", jac=True, options={"maxiter":
    MAX_ITER, "gtol": GRAD_TOL}) runs, with its defaults (10 corrections, 20
    line-search steps, ftol 2.2e-9, maxfun 15000) and its reuse of the last
    evaluation when setulb asks for the same x again, but without the
    wrapper objects it runs on every evaluation.  Returns x and whether
    setulb reported convergence (task 4)."""
    m, n = 10, len(x0)
    x = np.clip(x0, lo, hi)
    nbd = np.full(n, 2, dtype=np.int32)  # every variable bounded on both sides
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task, ln_task, lsave = (np.zeros(k, dtype=np.int32) for k in (2, 2, 4))
    isave, dsave = np.zeros(44, dtype=np.int32), np.zeros(29)
    factr = 2.2204460492503131e-09 / np.finfo(float).eps
    # minimize evaluates the start before the loop, then skips any request
    # for the point it evaluated last (a NaN never matches).
    f, g = objective(x)
    evaluated, evaluations, iterations = x.tolist(), 1, 0
    while True:
        setulb(m, x, lo, hi, nbd, f, g, factr, GRAD_TOL, wa, iwa, task, lsave,
               isave, dsave, 20, ln_task)
        if task[0] == 3:  # evaluate at x
            point = x.tolist()
            if point != evaluated:
                f, g = objective(x)
                evaluated = point
                evaluations += 1
        elif task[0] == 1:  # an iteration ended
            iterations += 1
            if iterations >= MAX_ITER:
                task[:] = 5, 504
            elif evaluations > 15000:
                task[:] = 5, 502
        else:
            return x, bool(task[0] == 4)


def fit(series: TimeSeries, order: ArimaOrder) -> ArimaModel:
    """Estimate an ARIMA(p,d,q) model by conditional sum of squares.

    Raises FitError, whatever the order, when the CSS of the final residuals
    is not below CSS_CAP.
    """
    p, d, q = order
    n = len(series)
    if n < p + q + d + 2:
        raise DegenerateInputError(
            f"series of length {n} too short for ARIMA{order}"
        )
    w = difference(series, d)
    mu = float(w.mean())
    z = w - mu

    converged = True
    if q == 0:
        # Exact least squares on lagged values: row t of X is z_{t-1} ... z_{t-p}
        # (no columns for white noise).
        X = np.lib.stride_tricks.sliding_window_view(z[:-1], p)[:, ::-1]
        phi, theta = np.linalg.lstsq(X, z[p:], rcond=None)[0], np.zeros(0)
    else:
        x0 = np.concatenate((_yule_walker_ar(z, p), np.zeros(q)))
        hi = np.repeat([10.0, 0.99], [p, q])
        with np.errstate(over="ignore", invalid="ignore"):
            x, converged = _lbfgsb(_css_objective(z, p, q), x0, -hi, hi)
        phi, theta = x[:p], x[p:]
        converged = converged and not np.array_equal(x, x0)

    with np.errstate(over="ignore", invalid="ignore"):
        eps = _arma_residuals(z, phi, theta)
        css = float(eps @ eps)
    if not css < CSS_CAP:  # past the cap, or NaN
        raise FitError(f"CSS of ARIMA{order} overflows")
    model = ArimaModel(
        order=order,
        ar_coeffs=phi,
        ma_coeffs=theta,
        intercept=mu,
        sigma2=css / len(z),
        in_sample_residuals=eps,
        n_obs=n,
        converged=converged,
    )
    if not model.ar_stationary:
        warnings.warn(f"AR polynomial of ARIMA{order} fit is non-stationary")
    return model


def aic(model: ArimaModel) -> float:
    """Gaussian-CSS Akaike criterion: n ln(CSS/n) + 2(p + q + 1).

    n is the number of residuals, n_obs - d, not n_obs - d - p: conditional
    estimation computes the first p against zero-padded pre-sample terms
    instead of dropping them, so every (p,q) candidate on the same series is
    scored on the same sample.  `fit` stores sigma2 = CSS/n, so n ln(sigma2)
    is n ln(CSS/n) bitwise.
    """
    n = len(model.in_sample_residuals)
    if not model.sigma2 > 0:
        raise DegenerateInputError("AIC undefined for zero residual sum of squares")
    k = model.order.p + model.order.q + 1
    return n * float(np.log(model.sigma2)) + 2 * k


def select_order(series: TimeSeries) -> OrderSearchReport:
    """Pick d by the ADF test, then (p,q) by AIC over the grid SEARCH_CAPS:
    p <= 5, d <= MAX_DIFFERENCES, q <= 5.

    Ties break toward the smallest p+q, then the smallest p, so the result is
    independent of grid evaluation order.
    """
    d_chosen = _first_stationary(adf_test(difference(series, d)) for d in range(SEARCH_CAPS.d + 1))
    if d_chosen is None:
        raise AnalysisError(
            f"series is not stationary after up to {SEARCH_CAPS.d} differences; "
            "unsuitable for ARIMA modelling"
        )
    candidates, fits, failures = [], {}, []
    for p in range(SEARCH_CAPS.p + 1):
        for q in range(SEARCH_CAPS.q + 1):
            order = ArimaOrder(p, d_chosen, q)
            try:
                fits[order] = fit(series, order)
                candidates.append((order, aic(fits[order]), fits[order].converged))
            except FIT_FAILURES as exc:
                candidates.append((order, float("inf"), False))
                failures.append(f"ARIMA{order}: {type(exc).__name__}: {exc}")
    converged = [c for c in candidates if c[2]]
    if not converged:
        first = f"; first failure {failures[0]}" if failures else ""
        raise AnalysisError(
            f"no ARIMA candidate converged: {len(failures)} raised, "
            f"{len(candidates) - len(failures)} stopped without converging{first}"
        )
    chosen = min(converged, key=lambda c: (c[1], c[0].p + c[0].q, c[0].p))[0]
    return OrderSearchReport(candidates=candidates, model=fits[chosen])


def _fit_or_search(series: TimeSeries, order) -> ArimaModel:
    """Fit a fixed order, or for "auto" return the order search's chosen fit.

    Private on purpose: outside-in tracing wraps every public function, and a
    public wrapper would time the whole search as one fit.
    """
    if order == "auto":
        return select_order(series).model
    return fit(series, order)


def forecast_one(model: ArimaModel, history: TimeSeries) -> float:
    """One-step-ahead point forecast at the original (undifferenced) level.

    The forecast is the next value whose one-step residual is zero.  Extend
    the history by any value x: its d-th difference adds x with coefficient 1
    and no other term of the last residual depends on x, so that residual is
    x minus the forecast.  x is the last observed value.
    """
    return _forecast_and_residuals(model, history)[0]


def _forecast_and_residuals(model: ArimaModel, history: TimeSeries):
    """(forecast_one(model, history), residuals(model, history)) from one run of
    the recursion: the residuals of history are those of the extended series
    from entry p up to the one before its last."""
    p, d, q = model.order
    # The recursion reads the last p values and the last q residuals of z.
    if len(history) < d + max(p + 1, q):
        raise DegenerateInputError(
            f"history of length {len(history)} too short for ARIMA{model.order} forecast"
        )
    y = np.append(history.values, history.values[-1])
    z = np.diff(y, d) - model.intercept
    eps = _arma_residuals(z, model.ar_coeffs, model.ma_coeffs)
    return float(y[-1] - eps[-1]), eps[p:-1]


def residuals(model: ArimaModel, series: TimeSeries) -> np.ndarray:
    """One-step in-sample prediction errors where a genuine prediction exists.

    Length is n - d - p: the first p differenced points only condition the
    recursion and receive no prediction.
    """
    p, d, q = model.order
    if len(series) < p + d + 1:
        raise DegenerateInputError("series too short for residual extraction")
    z = difference(series, d) - model.intercept
    return _arma_residuals(z, model.ar_coeffs, model.ma_coeffs)[p:]


# ---------------------------------------------------------------------------
# Serialization in the shared saved-model format (navcast._doc).  Every
# field is written; ar_stationary is derived from ar_coeffs.

def serialize(model: ArimaModel) -> str:
    o = model.order
    return _doc.dump("arima-model", [
        ("p", [o.p]), ("d", [o.d]), ("q", [o.q]),
        ("intercept", [model.intercept]), ("sigma2", [model.sigma2]), ("n_obs", [model.n_obs]),
        ("ar", model.ar_coeffs), ("ma", model.ma_coeffs), ("residuals", model.in_sample_residuals),
    ])


def deserialize(text: str) -> ArimaModel:
    row = dict(_doc.load("arima-model", text))
    try:
        return ArimaModel(
            order=ArimaOrder(*(int(row[key][0]) for key in "pdq")),
            ar_coeffs=[float(v) for v in row["ar"]],
            ma_coeffs=[float(v) for v in row["ma"]],
            intercept=float(row["intercept"][0]),
            sigma2=float(row["sigma2"][0]),
            in_sample_residuals=[float(v) for v in row["residuals"]],
            n_obs=int(row["n_obs"][0]),
        )
    except (KeyError, IndexError) as exc:
        raise ValueError(f"arima-model document lacks field {exc}") from exc
