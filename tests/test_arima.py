import os
import re
import time
import warnings
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import navcast._fork as _fork
import navcast.arima as arima
from navcast.arima import (
    ArimaModel, ArimaOrder, aic, deserialize, fit, forecast_one, residuals, select_order, serialize,
)
from navcast.cli import generate_synthetic
from navcast.errors import AnalysisError, DegenerateInputError, FitError
from conftest import as_series, assert_no_children, random_walk, simulate_ar1, simulate_ma1

V1_DOCUMENT = Path(__file__).parent / "data" / "arima_v1.txt"
PAPER_PARAMS = {"sigma": 0.001, "amplitude": 4.0, "period": 25.0, "base": 10.0}


def stationary_ar(pacf):
    """AR coefficients with these partial autocorrelations (Durbin-Levinson)."""
    phi = np.zeros(0)
    for r in pacf:
        phi = np.concatenate((phi - r * phi[::-1], [r]))
    return phi


def assert_same_model(a, b):
    """Every compared field bitwise equal (so -0.0 and 0.0 differ), plus ar_stationary.

    `converged` is not compared: it describes the fit, not the model, and is
    not saved.
    """
    for f in (f for f in fields(ArimaModel) if f.compare):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "order":
            assert x == y
        else:
            assert np.asarray(x).dtype == np.asarray(y).dtype, f.name
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), f.name
    assert a.ar_stationary == b.ar_stationary


class TestFit:
    def test_random_walk_drift_closed_form(self):
        s = as_series(np.cumsum([2.0, 0.1, 0.3, -0.2, 0.5, 0.1]))
        m = fit(s, ArimaOrder(0, 1, 0))
        diffs = np.diff(s.values)
        assert m.intercept == pytest.approx(diffs.mean(), abs=1e-15)
        assert np.allclose(m.in_sample_residuals, diffs - diffs.mean())

    def test_ar1_recovery(self):
        s = as_series(simulate_ar1(0.6, 2000, seed=0))
        m = fit(s, ArimaOrder(1, 0, 0))
        assert 0.55 <= m.ar_coeffs[0] <= 0.65

    def test_ma1_recovery(self):
        s = as_series(simulate_ma1(0.5, 2000, seed=1))
        m = fit(s, ArimaOrder(0, 0, 1))
        assert 0.42 <= m.ma_coeffs[0] <= 0.58

    def test_ar_fit_matches_ols(self):
        # q=0 degenerates to a pure AR model solved by least squares.
        x = simulate_ar1(0.5, 500, seed=2)
        s = as_series(x)
        m = fit(s, ArimaOrder(2, 0, 0))
        z = x - x.mean()
        X = np.column_stack([z[1:-1], z[:-2]])
        ols = np.linalg.lstsq(X, z[2:], rcond=None)[0]
        assert np.allclose(m.ar_coeffs, ols, atol=1e-6)

    def test_residual_orthogonality(self):
        # OLS normal equations zero the residual-regressor inner products;
        # check the normalized (cosine) form of that orthogonality.
        x = simulate_ar1(0.7, 800, seed=3)
        s = as_series(x)
        m = fit(s, ArimaOrder(2, 0, 0))
        z = x - x.mean()
        eps = residuals(m, s)
        for lag in (1, 2):
            reg = z[2 - lag: len(z) - lag]
            cos = np.dot(eps, reg) / (np.linalg.norm(eps) * np.linalg.norm(reg))
            assert abs(cos) < 1e-6

    def test_too_short_rejected(self):
        with pytest.raises(DegenerateInputError):
            fit(as_series([1.0, 2.0, 3.0]), ArimaOrder(2, 1, 2))

    def test_overflowing_css_raises_fit_error(self):
        # Values near 1e160 square past the float64 range, so the CSS
        # overflows whether the optimizer or the closed form fits it.
        values = 1e160 * np.random.default_rng(17).normal(size=60)
        for order in ((1, 0, 1), (0, 0, 0), (2, 0, 0)):
            with pytest.raises(FitError):
                fit(as_series(values), ArimaOrder(*order))

    def test_overflow_raises_fit_error_before_any_warning(self):
        # The Yule-Walker start's autocovariances overflow as well; they must
        # not warn before fit reports the overflow.
        values = 1e160 * np.random.default_rng(17).normal(size=60)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for order in ((1, 0, 1), (2, 0, 1), (3, 0, 2)):
                with pytest.raises(FitError):
                    fit(as_series(values), ArimaOrder(*order))

    def test_optimizer_uses_the_exact_gradient(self, monkeypatch):
        # ARIMA(4,1,5) on the paper fixture's last 120-day training window
        # takes 127 evaluations with the exact gradient and 1220 with
        # 2-point finite differences.
        s = generate_synthetic("linear-plus-sine", 1260, PAPER_PARAMS, seed=0).slice(780, 900)
        evaluations = 0

        def counting(z, p, q):
            objective = css_objective(z, p, q)

            def counted(x):
                nonlocal evaluations
                evaluations += 1
                return objective(x)
            return counted
        css_objective = arima._css_objective
        monkeypatch.setattr(arima, "_css_objective", counting)
        fit(s, ArimaOrder(4, 1, 5))
        assert 0 < evaluations < 300

    def test_sigma2_nonnegative(self):
        m = fit(as_series(simulate_ar1(0.4, 300, seed=4)), ArimaOrder(1, 0, 1))
        assert m.sigma2 >= 0


class TestAic:
    def test_identical_fits_identical_aic(self):
        s = as_series(simulate_ar1(0.5, 400, seed=5))
        assert aic(fit(s, ArimaOrder(1, 0, 0))) == aic(fit(s, ArimaOrder(1, 0, 0)))

    def test_overfit_penalized(self):
        wins = 0
        for seed in range(50):
            s = as_series(simulate_ar1(0.6, 1000, seed=seed))
            if aic(fit(s, ArimaOrder(3, 0, 0))) > aic(fit(s, ArimaOrder(1, 0, 0))):
                wins += 1
        assert wins >= 40  # >= 80% of 50 trials

    def test_every_paper_search_candidate_scores_n_ln_css_over_n(self):
        # n = len(series) - d residuals; the value must match bitwise.
        s = generate_synthetic("linear-plus-sine", 1260, PAPER_PARAMS, seed=0).slice(0, 900)
        report = select_order(s)
        assert len(report.candidates) == 36
        for order, value, _ in report.candidates:
            m = fit(s, order)
            eps = m.in_sample_residuals
            n = len(s) - order.d
            expected = n * float(np.log(float(eps @ eps) / n)) + 2 * (order.p + order.q + 1)
            assert aic(m) == value == expected, order

    def test_nav_scale_differences_strongly_negative(self):
        rng = np.random.default_rng(6)
        s = as_series(2.0 + np.cumsum(rng.normal(0, 0.02, 900)))
        value = aic(fit(s, ArimaOrder(0, 1, 0)))
        assert value < -1000


class TestSelectOrder:
    def test_random_walk_gets_d1(self):
        s = as_series(2.0 + random_walk(1260, seed=7, sigma=0.02))
        assert select_order(s).chosen.d == 1

    def test_white_noise_majority_000(self, monkeypatch):
        monkeypatch.setattr(arima, "SEARCH_CAPS", ArimaOrder(2, 1, 2))
        hits = 0
        for seed in range(50):
            s = as_series(np.random.default_rng(seed).normal(size=1000))
            ch = select_order(s).chosen
            hits += (ch.p, ch.d, ch.q) == (0, 0, 0)
        assert hits > 25

    def test_ar1_order_recovered_70pct(self):
        # AIC over a CSS grid is not a consistent selector; this threshold is
        # above what AIC-based selection (ours or full-MLE references)
        # achieves on this protocol.  Kept at the stated level regardless.
        hits = 0
        for seed in range(50):
            s = as_series(simulate_ar1(0.6, 2000, seed=seed))
            ch = select_order(s).chosen
            hits += (ch.p, ch.d, ch.q) == (1, 0, 0)
        assert hits >= 35

    def test_a_fit_stuck_at_its_start_is_not_converged(self, monkeypatch):
        # The AR(1) test's seed 2: ARIMA(0,0,5) from theta = 0 stops after one
        # iteration with CSS = z'z, so the search must not count it.
        s = as_series(simulate_ar1(0.6, 2000, seed=2))
        z = s.values - s.values.mean()
        m = fit(s, ArimaOrder(0, 0, 5))
        assert np.array_equal(m.ma_coeffs, np.zeros(5))
        eps = m.in_sample_residuals
        assert float(eps @ eps) == pytest.approx(z @ z, rel=1e-12)
        assert m.converged is False
        # The flag is not saved: the model reads back as converged and equal.
        read_back = deserialize(serialize(m))
        assert read_back.converged is True
        assert_same_model(read_back, m)
        assert fit(s, ArimaOrder(1, 0, 1)).converged is True
        monkeypatch.setattr(arima, "SEARCH_CAPS", ArimaOrder(1, 0, 5))
        report = select_order(s)
        flags = {order: ok for order, _, ok in report.candidates}
        assert flags[ArimaOrder(0, 0, 5)] is False
        assert flags[ArimaOrder(1, 0, 0)] is True

    def test_an_overflowing_candidate_is_recorded_as_failed(self, monkeypatch):
        # Only the candidates with MA terms overflow: their residual filter
        # returns values whose squares pass the float64 range.
        arma_residuals = arima._arma_residuals

        def overflowing_with_ma(z, phi, theta):
            return np.full(len(z), 1e160) if len(theta) else arma_residuals(z, phi, theta)
        monkeypatch.setattr(arima, "_arma_residuals", overflowing_with_ma)
        monkeypatch.setattr(arima, "SEARCH_CAPS", ArimaOrder(1, 0, 1))
        s = as_series(simulate_ar1(0.6, 300, seed=0))
        report = select_order(s)
        flags = {order: (value, ok) for order, value, ok in report.candidates}
        assert flags[ArimaOrder(0, 0, 1)] == (float("inf"), False)
        assert flags[ArimaOrder(1, 0, 1)] == (float("inf"), False)
        assert report.chosen == ArimaOrder(1, 0, 0)

    def test_a_search_where_every_candidate_overflows_chooses_nothing(self, monkeypatch):
        # The ADF regression refuses values this large (its constant column
        # falls below the rank tolerance), so d = 0 is given here.
        monkeypatch.setattr(arima, "adf_test", lambda w: SimpleNamespace(is_stationary_5pct=True))
        monkeypatch.setattr(arima, "SEARCH_CAPS", ArimaOrder(1, 0, 1))
        values = 1e160 * np.random.default_rng(17).normal(size=60)
        with pytest.raises(AnalysisError, match="no ARIMA candidate converged"):
            select_order(as_series(values))

    def test_chosen_minimal_aic_with_tiebreak(self, monkeypatch):
        monkeypatch.setattr(arima, "SEARCH_CAPS", ArimaOrder(2, 0, 2))
        s = as_series(simulate_ar1(0.6, 600, seed=8))
        report = select_order(s)
        converged = [c for c in report.candidates if c[2]]
        best = min(converged, key=lambda c: (c[1], c[0].p + c[0].q, c[0].p))
        assert report.chosen == best[0]

    def test_an_aic_tie_goes_to_the_fewest_terms(self, monkeypatch):
        # (0,0,2) comes first in the grid and ties (1,0,0) at the lowest AIC;
        # the smaller p + q wins.
        tied = {ArimaOrder(1, 0, 0), ArimaOrder(0, 0, 2)}
        monkeypatch.setattr(arima, "aic", lambda m: -1.0 if m.order in tied else 0.0)
        monkeypatch.setattr(arima, "SEARCH_CAPS", ArimaOrder(2, 0, 2))
        report = select_order(as_series(simulate_ar1(0.6, 600, seed=8)))
        assert {order for order, value, ok in report.candidates if ok and value == -1.0} == tied
        assert report.chosen == ArimaOrder(1, 0, 0)

    def test_grid_order_invariance(self, monkeypatch):
        # Deterministic tie-break: two runs agree (grid is iterated the same
        # way, so this checks determinism of the whole search).
        monkeypatch.setattr(arima, "SEARCH_CAPS", ArimaOrder(2, 1, 2))
        s = as_series(simulate_ar1(0.3, 500, seed=9))
        r1 = select_order(s)
        r2 = select_order(s)
        assert r1.chosen == r2.chosen

    def test_report_model_is_the_chosen_fit_bitwise(self, monkeypatch):
        monkeypatch.setattr(arima, "SEARCH_CAPS", ArimaOrder(3, 1, 3))
        s = as_series(2.0 + random_walk(400, seed=11, sigma=0.02)
                      + 0.1 * np.sin(np.arange(400) / 4))
        report = select_order(s)
        assert report.chosen.q > 0  # an optimizer fit, not a closed form
        ref = fit(s, report.chosen)
        assert report.model.order == report.chosen
        for name in ("ar_coeffs", "ma_coeffs", "in_sample_residuals"):
            assert getattr(report.model, name).tobytes() == getattr(ref, name).tobytes()
        assert (report.model.intercept, report.model.sigma2) == (ref.intercept, ref.sigma2)


def paper_training_segment():
    """The paper fixture's 900-day training segment, whose search warns."""
    return generate_synthetic("linear-plus-sine", 1260, PAPER_PARAMS, seed=0).slice(0, 900)


class TestSearchWorker:
    """Given a spare CPU, select_order shares its 36 fits with one forked worker."""

    @pytest.fixture(params=[False, True], ids=["in-process", "worker"])
    def spare_cpu(self, request, monkeypatch):
        monkeypatch.setattr(_fork, "spare_cpu", lambda: request.param)
        return request.param

    def test_every_candidate_is_fitted_once_across_processes(self, spare_cpu, call_log):
        call_log.record(arima, "fit", lambda series, order: f"{order} {os.getpid()}")
        report = select_order(paper_training_segment())
        assert_no_children()
        fitted = [line.split() for line in call_log.lines()]
        assert len(fitted) == 36
        assert sorted(order for order, _ in fitted) == sorted(str(o) for o, _, _ in report.candidates)
        assert len({pid for _, pid in fitted}) == (2 if spare_cpu else 1)

    def test_warnings_are_the_same_in_both_layouts(self, monkeypatch):
        s = paper_training_segment()
        issued = {}
        for spare_cpu in (False, True):
            monkeypatch.setattr(_fork, "spare_cpu", lambda spare=spare_cpu: spare)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                select_order(s)
            issued[spare_cpu] = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
        assert issued[True] == issued[False]
        # In grid order, each from where fit issues it.
        grid = [ArimaOrder(p, 1, q) for p in range(6) for q in range(6)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            unstable = [o for o in grid if not fit(s, o).ar_stationary]
        assert unstable
        assert [message for _, message, _, _ in issued[True]] == [
            f"AR polynomial of ARIMA{o} fit is non-stationary" for o in unstable]
        assert {(category, filename) for category, _, filename, _ in issued[True]} == {
            (UserWarning, arima.__file__)}

    def test_a_programming_error_propagates_with_its_type(self, spare_cpu, monkeypatch):
        def broken_fit(series, order):
            raise TypeError("broken fit code")
        monkeypatch.setattr(arima, "fit", broken_fit)
        with pytest.raises(TypeError, match="^broken fit code$"):
            select_order(paper_training_segment())
        assert_no_children()

    def test_a_programming_error_in_the_worker_carries_its_traceback(self, monkeypatch):
        monkeypatch.setattr(_fork, "spare_cpu", lambda: True)
        original, parent = arima.fit, os.getpid()

        def broken_in_the_worker(series, order):
            if os.getpid() != parent:
                raise TypeError("broken fit code")
            return original(series, order)
        monkeypatch.setattr(arima, "fit", broken_in_the_worker)
        with pytest.raises(TypeError, match="^broken fit code$") as raised:
            select_order(paper_training_segment())
        assert "in broken_in_the_worker" in str(raised.value.__cause__)
        assert_no_children()

    def test_a_worker_that_exits_makes_the_search_raise(self, monkeypatch):
        monkeypatch.setattr(_fork, "spare_cpu", lambda: True)
        original, parent = arima.fit, os.getpid()

        def dying_in_the_worker(series, order):
            if os.getpid() != parent:
                os._exit(1)
            return original(series, order)
        monkeypatch.setattr(arima, "fit", dying_in_the_worker)
        with pytest.raises(RuntimeError, match="^the order search's worker exited with code 1 "
                                               "before it sent its results$"):
            select_order(paper_training_segment())
        assert_no_children()

    def test_a_failing_search_ends_a_worker_still_fitting(self, monkeypatch):
        monkeypatch.setattr(_fork, "spare_cpu", lambda: True)
        parent = os.getpid()

        def stalling_in_the_worker(series, order):
            if os.getpid() != parent:
                time.sleep(60)
            raise TypeError("broken fit code")
        monkeypatch.setattr(arima, "fit", stalling_in_the_worker)
        started = time.monotonic()
        with pytest.raises(TypeError, match="^broken fit code$"):
            select_order(paper_training_segment())
        assert time.monotonic() - started < 30
        assert_no_children()


def css(z, phi, theta, p):
    """The CSS objective and its gradient at one point (phi, theta)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return arima._css_objective(z, p, len(theta))(np.concatenate((phi, theta), dtype=float))


class TestCssGradient:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_central_differences(self, data):
        p, q = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        phi = stationary_ar(data.draw(st.lists(st.floats(-0.95, 0.95), min_size=p, max_size=p)))
        theta = np.array(data.draw(st.lists(st.floats(-0.99, 0.99), min_size=q, max_size=q)))
        n = data.draw(st.integers(p + q + 2, 80))
        z = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=n)
        x = np.concatenate((phi, theta))
        value, grad = css(z, phi, theta, p)
        h = 1e-6
        numeric = np.empty(p + q)
        for k in range(p + q):
            up, down = x.copy(), x.copy()
            up[k] += h
            down[k] -= h
            numeric[k] = (css(z, up[:p], up[p:], p)[0]
                          - css(z, down[:p], down[p:], p)[0]) / (2 * h)
        assert value < arima.CSS_CAP
        # Relative to the largest component; near a stationary point the
        # differences' rounding error, about 1e-16 * CSS / h, sets the floor.
        scale = max(np.max(np.abs(grad), initial=0.0), 1e-3 * value)
        assert np.max(np.abs(grad - numeric), initial=0.0) <= 1e-6 * scale

    def test_cap_returns_a_zero_gradient(self):
        value, grad = css(np.array([1e200, -1e200, 1e200]), [0.5], [0.5], 1)
        assert value == arima.CSS_CAP
        assert np.array_equal(grad, np.zeros(2))


def css_objective_by_concatenation(z, p, q):
    """The CSS objective as arima._css_objective was first written: the same
    FIR pass, band solves and correlations, with fresh arrays on every call.
    Kept as the bitwise reference for the leaner objective."""
    n = len(z)
    band = np.ones((q + 1, n), order="F")

    def objective(x):
        phi, theta = x[:p], x[p:]
        band[1:] = np.negative(theta, dtype=float)[:, None]

        def solve(b):
            return arima.dtbtrs(band, b, uplo="L", diag="U")[0]
        eps = solve(np.convolve(z, np.concatenate(([1.0], np.negative(phi, dtype=float))))[:n])
        tail = eps[p:]
        css = float(tail @ tail)
        r = np.concatenate((np.zeros(p), tail))
        w = np.concatenate((solve(r[::-1])[::-1], np.zeros(max(p, q))))
        grad = 2.0 * np.concatenate((-np.correlate(w[: n + p], z)[1:],
                                     np.correlate(w[: n + q], eps)[1:]))
        if not (np.isfinite(css) and np.all(np.isfinite(grad))):
            return arima.CSS_CAP, np.zeros(p + q)
        return css, grad

    return objective


class TestCssObjectiveReference:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_value_and_gradient_bytes_match_the_reference(self, data):
        p, q = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        n = data.draw(st.integers(p + q + 2, 400))
        capped = data.draw(st.booleans())
        scale = 1e160 if capped else data.draw(st.floats(1e-4, 1e2))
        z = scale * np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=n)
        box = st.tuples(*[st.floats(-1.5, 1.5)] * p, *[st.floats(-0.99, 0.99)] * q)
        points = [np.array(data.draw(box), dtype=float) for _ in range(2)]
        with np.errstate(over="ignore", invalid="ignore"):
            lean, reference = arima._css_objective(z, p, q), css_objective_by_concatenation(z, p, q)
            got = [lean(x) for x in points]
            want = [reference(x) for x in points]
        for (value, grad), (ref_value, ref_grad) in zip(got, want):
            assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
            assert grad.dtype == ref_grad.dtype and grad.tobytes() == ref_grad.tobytes()
        if capped:
            assert got[0][0] == arima.CSS_CAP
        # Each call returns its own gradient: L-BFGS-B keeps the last one.
        assert not np.shares_memory(got[0][1], got[1][1])


def css_problem(values, order):
    """The CSS objective, start and box that fit hands to L-BFGS-B."""
    p, d, q = order
    z = np.diff(np.asarray(values, dtype=float), d)
    z = z - z.mean()
    hi = np.repeat([10.0, 0.99], [p, q])
    x0 = np.concatenate((arima._yule_walker_ar(z, p), np.zeros(q)))
    return arima._css_objective(z, p, q), x0, -hi, hi


class TestLbfgsb:
    """`_lbfgsb` drives scipy's private setulb routine; it must reproduce the
    public minimize(method="L-BFGS-B") bit for bit, so a change to setulb's
    signature or to minimize's loop fails here."""

    @staticmethod
    def both(objective, x0, lo, hi):
        """(x bits, converged, evaluations) from _lbfgsb and from minimize."""
        evaluations = 0

        def counted(x):
            nonlocal evaluations
            evaluations += 1
            return objective(x)
        with np.errstate(over="ignore", invalid="ignore"):
            x, converged = arima._lbfgsb(counted, x0, lo, hi)
            res = minimize(objective, x0, jac=True, method="L-BFGS-B", bounds=list(zip(lo, hi)),
                           options={"maxiter": arima.MAX_ITER, "gtol": arima.GRAD_TOL})
        return (x.tobytes(), converged, evaluations), (res.x.tobytes(), res.success, res.nfev)

    @pytest.mark.parametrize("order", [(4, 1, 5), (1, 1, 1), (0, 1, 2), (3, 0, 3), (5, 2, 4)])
    def test_paper_window_fits(self, order):
        s = generate_synthetic("linear-plus-sine", 1260, PAPER_PARAMS, seed=0).slice(780, 900)
        ours, reference = self.both(*css_problem(s.values, order))
        assert ours == reference
        assert ours[1] is True

    @pytest.mark.parametrize("kind, n, seed, order", [("ar1", 250, 0, (3, 1, 3)),
                                                     ("random-walk", 250, 1, (1, 2, 2))])
    def test_a_line_search_longer_than_ten_steps(self, kind, n, seed, order):
        s = generate_synthetic(kind, n, seed=seed)
        ours, reference = self.both(*css_problem(s.values, order))
        assert ours == reference

    def test_a_fit_stuck_at_its_start(self):
        objective, x0, lo, hi = css_problem(simulate_ar1(0.6, 2000, seed=2), (0, 0, 5))
        ours, reference = self.both(objective, x0, lo, hi)
        assert ours == reference
        assert ours[0] == x0.tobytes()

    @pytest.mark.parametrize("scale, from_the_start", [(1e151, False), (1e160, True)])
    def test_an_objective_at_the_cap(self, scale, from_the_start):
        # At 1e151 one line-search trial overflows and the search backs away;
        # at 1e160 the start overflows too (the autocovariances overflow, so
        # its Yule-Walker AR part falls back to zeros).
        objective, x0, lo, hi = css_problem(scale * simulate_ar1(0.6, 200, seed=1), (2, 0, 1))
        capped = []

        def recording(x):
            value, grad = objective(x)
            capped.append(value == arima.CSS_CAP)
            return value, grad
        ours, reference = self.both(recording, x0, lo, hi)
        assert ours == reference
        assert capped[0] is from_the_start and any(capped)

    def test_an_overflowing_series_starts_from_zeros(self):
        values = 1e160 * simulate_ar1(0.6, 200, seed=1)
        objective, x0, lo, hi = css_problem(values, (2, 0, 1))
        assert np.array_equal(x0, np.zeros(3))
        with np.errstate(over="ignore", invalid="ignore"):
            x, _ = arima._lbfgsb(objective, x0, lo, hi)
        assert x.tobytes() == x0.tobytes()
        with pytest.raises(FitError):
            fit(as_series(values), ArimaOrder(2, 0, 1))

    def test_a_run_cut_short_by_max_iter(self, monkeypatch):
        monkeypatch.setattr(arima, "MAX_ITER", 3)
        s = generate_synthetic("linear-plus-sine", 1260, PAPER_PARAMS, seed=0).slice(780, 900)
        ours, reference = self.both(*css_problem(s.values, (4, 1, 5)))
        assert ours == reference
        assert ours[1] is False

    def test_a_start_outside_the_box(self):
        objective, _, lo, hi = css_problem(simulate_ma1(0.5, 300, seed=3), (2, 0, 2))
        ours, reference = self.both(objective, np.array([12.0, -11.0, 1.5, -0.3]), lo, hi)
        assert ours == reference


class TestScipyRoutines:
    def test_they_are_the_ones_scipy_binds(self):
        import scipy.linalg.lapack
        import scipy.optimize
        assert arima.dtbtrs is scipy.linalg.lapack.dtbtrs
        assert arima.setulb is scipy.optimize._lbfgsb.setulb
        res = minimize(lambda x: float((x - 1.5) @ (x - 1.5)), np.zeros(2), method="L-BFGS-B")
        assert res.success and np.allclose(res.x, 1.5)

    def test_a_missing_module_names_its_directory(self):
        where = str(Path(arima.scipy.__file__).parent / "linalg")
        with pytest.raises(ImportError, match=re.escape(where)):
            arima._scipy_extension("linalg._no_such_module")


class TestForecastOne:
    def test_pure_persistence(self):
        s = as_series([1.0, 1.1, 1.3, 1.234])
        m = fit(s, ArimaOrder(0, 1, 0))
        zero_drift = arima.ArimaModel(
            order=m.order, ar_coeffs=[], ma_coeffs=[], intercept=0.0,
            sigma2=m.sigma2, in_sample_residuals=m.in_sample_residuals, n_obs=m.n_obs,
        )
        assert forecast_one(zero_drift, s) == 1.234

    def test_drift(self):
        s = as_series([1.9, 1.95, 2.0])
        m = fit(s, ArimaOrder(0, 1, 0))
        drifted = arima.ArimaModel(
            order=m.order, ar_coeffs=[], ma_coeffs=[], intercept=0.002,
            sigma2=m.sigma2, in_sample_residuals=m.in_sample_residuals, n_obs=m.n_obs,
        )
        assert forecast_one(drifted, s) == pytest.approx(2.002, abs=1e-15)

    def test_ar1_hand_case(self):
        x = simulate_ar1(0.5, 200, seed=10)
        s = as_series(x)
        m = fit(s, ArimaOrder(1, 0, 0))
        mean = np.mean(x)
        phi = m.ar_coeffs[0]
        manual = mean + phi * (x[-1] - mean)
        assert forecast_one(m, s) == pytest.approx(manual, abs=1e-12)

    def test_shift_equivariance(self):
        x = 2.0 + random_walk(300, seed=11, sigma=0.05)
        s = as_series(x)
        m = fit(s, ArimaOrder(1, 1, 1))
        shifted = as_series(x + 5.0)
        m2 = fit(shifted, ArimaOrder(1, 1, 1))
        assert forecast_one(m2, shifted) == pytest.approx(forecast_one(m, s) + 5.0, abs=1e-9)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_sums_integrated_back_up(self, data):
        p, d, q = (data.draw(st.integers(0, cap)) for cap in (5, 2, 5))
        # Partial autocorrelations inside (-1, 1) give a stationary phi(B)
        # and an invertible theta(B).
        def partials(k):
            return data.draw(st.lists(st.floats(-0.9, 0.9), min_size=k, max_size=k))
        phi, theta = stationary_ar(partials(p)), stationary_ar(partials(q))
        n = data.draw(st.integers(d + max(p + 1, q), 120))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        history = as_series(data.draw(st.floats(-100.0, 100.0)) + rng.normal(size=n).cumsum())
        model = ArimaModel(ArimaOrder(p, d, q), phi, theta, data.draw(st.floats(-1.0, 1.0)),
                           1.0, [0.0], n)
        error = forecast_one(model, history) - forecast_by_sums(model, history)
        assert abs(error) <= 1e-12 * np.max(np.abs(history.values))

    def test_insufficient_history(self):
        s = as_series(simulate_ar1(0.5, 100, seed=12))
        m = fit(s, ArimaOrder(3, 0, 0))
        with pytest.raises(DegenerateInputError):
            forecast_one(m, as_series([1.0, 2.0]))

    def test_insufficient_history_for_the_ma_terms(self):
        # Three values differenced twice leave one residual; MA(2) needs two.
        # residuals runs the forecast's recursion, so it refuses them too.
        m = fit(as_series(random_walk(100, seed=12)), ArimaOrder(0, 2, 2))
        for read in (forecast_one, residuals):
            with pytest.raises(DegenerateInputError,
                               match=r"^series of length 3 too short for one-step reads of "
                                     r"ARIMA\(0,2,2\)"):
                read(m, as_series([1.0, 2.0, 4.0]))
        assert len(residuals(m, as_series([1.0, 2.0, 4.0, 7.0]))) == 2


def arma_recursion(z, phi, theta):
    """The documented recursion, term by term, with zero pre-sample z and eps."""
    eps = []
    for t in range(len(z)):
        e = z[t]
        for i in range(1, min(len(phi), t) + 1):
            e -= phi[i - 1] * z[t - i]
        for j in range(1, min(len(theta), t) + 1):
            e += theta[j - 1] * eps[t - j]
        eps.append(e)
    return np.array(eps)


def forecast_by_sums(model, history):
    """The forecast as AR and MA sums on the differenced series, integrated back up."""
    p, d, q = model.order
    levels = [history.values]
    for _ in range(d):
        levels.append(np.diff(levels[-1]))
    z = levels[d] - model.intercept
    eps = arma_recursion(z, model.ar_coeffs, model.ma_coeffs)
    zhat = 0.0
    for i in range(1, p + 1):
        zhat += model.ar_coeffs[i - 1] * z[-i]
    for j in range(1, q + 1):
        zhat -= model.ma_coeffs[j - 1] * eps[-j]
    # Each lower difference level adds its own last value.
    yhat = model.intercept + zhat
    for k in range(d - 1, -1, -1):
        yhat = levels[k][-1] + yhat
    return yhat


class TestResiduals:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_arma_residuals_follow_the_recursion(self, data):
        p, q = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        phi = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=p, max_size=p))
        # Partial autocorrelations inside (-1, 1) give an invertible theta(B).
        theta = stationary_ar(data.draw(st.lists(st.floats(-0.9, 0.9), min_size=q, max_size=q)))
        n = data.draw(st.integers(1, 300))
        z = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=n)
        got = arima._arma_residuals(z, phi, theta)
        want = arma_recursion(z, phi, theta)
        assert got.shape == (n,)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_noiseless_ar_process(self):
        # Deterministic zero-mean AR(2) recursion (sampled sinusoid over whole
        # periods): refitting recovers it and residuals vanish.
        omega = 2 * np.pi / 16
        x = np.sin(omega * np.arange(80))
        s = as_series(x)
        m = fit(s, ArimaOrder(2, 0, 0))
        assert np.allclose(m.ar_coeffs, [2 * np.cos(omega), -1.0], atol=1e-8)
        assert np.max(np.abs(residuals(m, s))) < 1e-10

    def test_random_walk_closed_form(self):
        s = as_series(2.0 + random_walk(100, seed=13, sigma=0.01))
        m = fit(s, ArimaOrder(0, 1, 0))
        diffs = np.diff(s.values)
        assert np.allclose(residuals(m, s), diffs - diffs.mean(), atol=1e-14)

    def test_variance_close_to_innovation(self):
        s = as_series(simulate_ar1(0.6, 2000, seed=14))
        m = fit(s, ArimaOrder(1, 0, 0))
        v = np.var(residuals(m, s))
        assert abs(v - 1.0) < 0.15

    def test_length_contract(self):
        s = as_series(simulate_ar1(0.5, 150, seed=15))
        m = fit(s, ArimaOrder(2, 0, 1))
        assert len(residuals(m, s)) == 150 - 2
        assert len(m.in_sample_residuals) == 150

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_forecast_error_is_the_next_residual(self, data):
        # forecast_one and residuals run one filter: s[t] minus the forecast
        # from s[:t] is the residual that s[:t+1] ends with.
        p, d, q = (data.draw(st.integers(0, 2)) for _ in range(3))
        values = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=p + d + q + 4, max_size=40))
        s = as_series(values)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # non-stationary fits are fine here
            m = fit(s, ArimaOrder(p, d, q))
        t = data.draw(st.integers(d + max(p + 1, q), len(s) - 1))
        error = s.values[t] - forecast_one(m, s.slice(0, t))
        last = residuals(m, s.slice(0, t + 1))[-1]
        assert abs(error - last) <= 1e-9 * max(1.0, abs(s.values[t]))


class TestSerialization:
    def test_round_trip(self):
        s = as_series(simulate_ar1(0.6, 300, seed=16))
        m = fit(s, ArimaOrder(2, 0, 1))
        m2 = deserialize(serialize(m))
        assert m2.order == m.order
        assert np.array_equal(m2.ar_coeffs, m.ar_coeffs)
        assert np.array_equal(m2.ma_coeffs, m.ma_coeffs)
        assert m2.intercept == m.intercept
        assert m2.sigma2 == m.sigma2
        assert forecast_one(m2, s) == forecast_one(m, s)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_field_round_trips_bitwise(self, data):
        floats = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
        p, d, q = (data.draw(st.integers(0, 5)) for _ in range(3))
        m = ArimaModel(
            order=ArimaOrder(p, d, q),
            ar_coeffs=data.draw(st.lists(floats, min_size=p, max_size=p)),
            ma_coeffs=data.draw(st.lists(floats, min_size=q, max_size=q)),
            intercept=data.draw(floats),
            sigma2=data.draw(floats),
            in_sample_residuals=data.draw(st.lists(floats, min_size=1, max_size=30)),
            n_obs=data.draw(st.integers(0, 2**62)),
        )
        assert_same_model(deserialize(serialize(m)), m)

    def test_ar_stationary_with_a_last_coefficient_near_underflow(self):
        # 1 - 44z - 2.4e-307 z^2 has a root near 1/44, inside the unit circle.
        m = ArimaModel(ArimaOrder(2, 0, 0), [44.0, 2.3947062894692112e-307], [], 0.0, 0.0, [0.0], 0)
        assert m.ar_stationary is False
        assert_same_model(deserialize(serialize(m)), m)

    def test_every_search_candidate_round_trips(self, monkeypatch):
        # The paper's fixture (1260 days, NAV base 10) and its 900-day
        # training segment: several of the search's ARMA fits are
        # non-stationary, and they must read back as non-stationary.
        s = generate_synthetic("linear-plus-sine", 1260,
                               {"sigma": 0.001, "amplitude": 4.0, "period": 25.0, "base": 10.0},
                               seed=0).slice(0, 900)
        candidates = []

        def recording(series, order):
            candidates.append(fit(series, order))
            return candidates[-1]
        monkeypatch.setattr(arima, "fit", recording)
        monkeypatch.setattr(_fork, "spare_cpu", lambda: False)  # every fit recorded here
        select_order(s)
        assert len(candidates) == 36
        assert any(not m.ar_stationary for m in candidates)
        for m in candidates:
            assert_same_model(deserialize(serialize(m)), m)

    def test_committed_v1_document_reads_and_writes_back_unchanged(self):
        text = V1_DOCUMENT.read_text(encoding="utf-8")
        assert serialize(deserialize(text)) == text

    @pytest.mark.parametrize("edit", [
        lambda t: "",
        lambda t: t.replace("arima-model v1", "arima-model v2", 1),
        lambda t: t.replace("format arima-model", "format lstm-network", 1),
        lambda t: t.replace("p 2\n", ""),
        lambda t: t.replace("n_obs 30\n", ""),
        lambda t: t.replace("ma \n", ""),
        lambda t: t.replace("sigma2 0.0097384786127945218", "sigma2"),
        lambda t: t.replace(" -0.14049826926392806\n", "\n", 1),
        lambda t: t.replace("ma \n", "ma 0.5\n"),
        lambda t: t.replace(" -0.14049826926392806\n", " nan\n", 1),
        lambda t: t.replace("sigma2 0.0097384786127945218", "sigma2 inf"),
    ], ids=["empty", "v2", "other-kind", "no-p", "no-n_obs", "no-ma", "empty-sigma2",
            "short-ar", "long-ma", "nan-ar", "inf-sigma2"])
    def test_malformed_document_raises_value_error(self, edit):
        text = edit(V1_DOCUMENT.read_text(encoding="utf-8"))
        with pytest.raises(ValueError):
            deserialize(text)
