import multiprocessing
import os
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import navcast.arima as arima
import navcast.hybrid as hybrid_mod
import navcast.lstm as lstm_mod
from navcast._blas import single_threaded
from navcast.cli import generate_synthetic
from navcast.errors import AnalysisError, ConfigurationError, DegenerateInputError
from navcast.hybrid import (
    SEED_OFFSETS,
    HybridModel,
    compare_models,
    failure_message,
    fit_hybrid,
    sliding_window_evaluate,
)
from navcast.lstm import LstmNetwork, TrainConfig, _forward_batch
from navcast.series import SplitSpec, TimeSeries, fit_scale, minmax_scale, minmax_unscale
from navcast.metrics import MODEL_KINDS, mse
from conftest import as_series

FAST = TrainConfig(epochs=10, layers=1, hidden_dim=8, window_m=10, batch_size=32, seed=0)


def sine_walk(n, seed, sigma=0.05, amplitude=0.5, period=50):
    return generate_synthetic(
        "linear-plus-sine", n,
        {"sigma": sigma, "amplitude": amplitude, "period": period}, seed,
    )


class TestFitHybrid:
    def test_residual_net_starts_at_linear_baseline(self):
        s = sine_walk(300, seed=1)
        cfg = TrainConfig(epochs=1, layers=1, hidden_dim=4, window_m=10, seed=0)
        train = s.slice(0, 250)
        model = fit_hybrid(train, s.slice(250, 300), arima.select_order(train).model, cfg)
        assert model.window_m == 10
        assert model.val_mse is not None

    def test_too_short_train_rejected(self):
        s = as_series(np.random.default_rng(0).normal(size=30) + 5)
        train = s.slice(0, 12)
        with pytest.raises(ConfigurationError, match="11 training residuals"):
            fit_hybrid(train, s.slice(12, 30), arima.fit(train, arima.ArimaOrder(0, 1, 0)),
                       TrainConfig(window_m=20, epochs=1))

    def test_validation_windows_continue_the_training_residuals(self, monkeypatch):
        # The first validation window ends at the last training residual and
        # predicts the first validation residual; val_mse and best_val_epoch
        # are the lowest per-epoch validation loss and its epoch.
        original, seen = lstm_mod.train, []

        def recording_train(net, data, cfg, val_data=None):
            seen.append((val_data, original(net, data, cfg, val_data=val_data)))
            return seen[-1][1]
        monkeypatch.setattr(lstm_mod, "train", recording_train)
        s = sine_walk(300, seed=1)
        train, val = s.slice(0, 250), s.slice(250, 300)
        model = arima.fit(train, arima.ArimaOrder(1, 1, 0))
        cfg = TrainConfig(epochs=12, layers=1, hidden_dim=4, window_m=10, seed=0)
        hyb = fit_hybrid(train, val, model, cfg)
        [(val_data, result)] = seen
        stream = minmax_scale(arima.residuals(model, s), hyb.residual_scale)
        n_train = len(stream) - len(val)
        assert len(val_data.targets) == len(val)
        assert np.array_equal(val_data.inputs[0], stream[n_train - 10: n_train])
        assert val_data.targets[0] == stream[n_train]
        assert np.argmin(result.val_losses) != np.argmax(result.val_losses)
        assert hyb.best_val_epoch == int(np.argmin(result.val_losses))
        assert hyb.val_mse == float(np.min(result.val_losses))

    def test_random_walk_residuals_near_white(self):
        # No nonlinear part: the LSTM should learn almost nothing and the
        # hybrid must stay within 2x of the ARIMA-alone test MSE.
        s = generate_synthetic("random-walk", 500, {"sigma": 0.02}, seed=3)
        spec = SplitSpec(350, 50, 100)
        cfg = TrainConfig(epochs=30, layers=1, hidden_dim=8, window_m=10, seed=3)
        hyb = sliding_window_evaluate(s, spec, "hybrid", cfg)
        ari = sliding_window_evaluate(s, spec, "arima", cfg)
        assert mse(hyb.predictions, hyb.actuals) <= 2 * mse(ari.predictions, ari.actuals)


class TestSlidingWindowEvaluate:
    def test_lstm_kind_scales_on_the_training_segment_alone(self, monkeypatch):
        original, scales = lstm_mod.make_windows, []

        def recording_make_windows(values, m, scale):
            scales.append(scale)
            return original(values, m, scale)
        monkeypatch.setattr(lstm_mod, "make_windows", recording_make_windows)
        # A steady climb: the validation segment leaves the training range.
        s = generate_synthetic("random-walk", 200, {"drift": 0.01, "sigma": 0.002}, seed=2)
        spec = SplitSpec(140, 20, 40)
        train_scale = fit_scale(s.values[:140])
        assert fit_scale(s.values[:160]) != train_scale
        sliding_window_evaluate(s, spec, "lstm", FAST)
        assert scales == [train_scale, train_scale]

    def test_naive_persistence_closed_form(self):
        # ARIMA(0,1,0) with negligible drift: each prediction is yesterday's
        # actual plus the train-segment drift.
        s = generate_synthetic("random-walk", 200, {"sigma": 0.02}, seed=7)
        spec = SplitSpec(140, 20, 40)
        run = sliding_window_evaluate(s, spec, "arima", FAST,
                                      arima_order=arima.ArimaOrder(0, 1, 0))
        model = arima.fit(s.slice(0, 140), arima.ArimaOrder(0, 1, 0))
        prev = s.values[159:199]
        assert np.allclose(run.predictions, prev + model.intercept, atol=1e-12)

    def test_prediction_count(self):
        s = sine_walk(400, seed=8)
        run = sliding_window_evaluate(s, SplitSpec(280, 40, 80), "hybrid", FAST)
        assert len(run.predictions) == 80
        assert len(run.actuals) == 80

    def test_determinism(self):
        s = sine_walk(300, seed=9)
        spec = SplitSpec(200, 40, 60)
        r1 = sliding_window_evaluate(s, spec, "hybrid", FAST)
        r2 = sliding_window_evaluate(s, spec, "hybrid", FAST)
        assert np.array_equal(r1.predictions, r2.predictions)

    def test_superposition_identity_everywhere(self):
        s = sine_walk(300, seed=10)
        run = sliding_window_evaluate(s, SplitSpec(200, 40, 60), "hybrid", FAST)
        assert np.max(np.abs(run.predictions - run.linear - run.nonlinear)) < 1e-12

    def test_refit_policy_changes_arima_path(self):
        s = sine_walk(300, seed=11)
        spec = SplitSpec(200, 40, 60)
        base = sliding_window_evaluate(s, spec, "arima", FAST,
                                       arima_order=arima.ArimaOrder(1, 1, 0))
        refit = sliding_window_evaluate(s, spec, "arima", FAST, refit="arima",
                                        arima_order=arima.ArimaOrder(1, 1, 0))
        assert not np.array_equal(base.predictions, refit.predictions)

    def test_step_residuals_are_each_step_models_residuals_over_its_window(self):
        # Reference: each step's residuals recomputed from its model and
        # window, and the hybrid's corrections from them, in one batch.
        s = sine_walk(300, seed=11)
        spec = SplitSpec(200, 40, 60)
        order, L = arima.ArimaOrder(2, 1, 1), 120
        for refit in ("none", "arima"):
            run = sliding_window_evaluate(s, spec, "arima", FAST, window_L=L, refit=refit,
                                          arima_order=order)
            hybrid = sliding_window_evaluate(s, spec, "hybrid", FAST, window_L=L, refit=refit,
                                             arima_order=order, arima_run=run)
            assert len(run.step_residuals) == spec.test_len
            expected = []
            for j, t in enumerate(range(240, 300)):
                window = s.slice(t - L, t)
                model = arima.fit(window, order) if refit == "arima" else run.model
                expected.append(arima.residuals(model, window))
                assert np.array_equal(run.step_residuals[j], expected[-1]), (refit, j)
            m, scale = hybrid.model.window_m, hybrid.model.residual_scale
            windows = np.stack([r[-m:] for r in expected])
            with single_threaded():
                raw = _forward_batch(hybrid.model.residual_net, minmax_scale(windows, scale))
            assert np.array_equal(hybrid.nonlinear, minmax_unscale(raw, scale)), refit

    @settings(max_examples=40, deadline=None)
    @given(train_len=st.integers(20, 60), val_len=st.integers(1, 20),
           test_len=st.integers(1, 6), window_L=st.integers(12, 100),
           p=st.integers(0, 2), d=st.integers(0, 1), q=st.integers(0, 2),
           refit=st.sampled_from(["none", "arima"]))
    def test_the_fewest_residuals_of_a_walk_step_are_known_before_the_walk(
            self, train_len, val_len, test_len, window_L, p, d, q, refit):
        spec, order = SplitSpec(train_len, val_len, test_len), arima.ArimaOrder(p, d, q)
        s = sine_walk(100, seed=23).slice(0, spec.total)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # some small fits are non-stationary
            run = sliding_window_evaluate(s, spec, "arima", FAST, window_L=window_L,
                                          refit=refit, arima_order=order)
        assert (hybrid_mod._fewest_walk_residuals(spec, window_L, order)
                == min(map(len, run.step_residuals)))

    def test_zero_output_head_reduces_to_arima(self, monkeypatch):
        def zero_head_fit(*args, **kwargs):
            model = fit_hybrid(*args, **kwargs)
            model.residual_net.head_w[:] = 0.0
            model.residual_net.head_b = 0.0
            return model
        monkeypatch.setattr(hybrid_mod, "fit_hybrid", zero_head_fit)
        s = sine_walk(300, seed=4)
        spec = SplitSpec(200, 40, 60)
        run = sliding_window_evaluate(s, spec, "arima", FAST)
        hybrid = sliding_window_evaluate(s, spec, "hybrid", FAST, arima_run=run)
        # the residual scale maps 0 to 0, so a zero head is a zero correction
        assert np.all(hybrid.nonlinear == 0.0)
        assert np.array_equal(hybrid.predictions, run.predictions)

    def test_window_L_too_short_for_the_net_window_fails_the_hybrid(self):
        # ARIMA(1,1,0) on a window of L values leaves L - 2 residuals.
        s = sine_walk(300, seed=6)
        spec = SplitSpec(200, 40, 60)
        order = arima.ArimaOrder(1, 1, 0)
        enough = FAST.window_m + 2
        res = compare_models(s, spec, FAST, window_L=enough - 1, arima_order=order)
        assert list(res.failures) == ["hybrid"]
        assert isinstance(res.failures["hybrid"], DegenerateInputError)
        assert failure_message(res.failures["hybrid"]) == (
            "DegenerateInputError: need 10 recent residuals, got 9")
        run = sliding_window_evaluate(s, spec, "arima", FAST, window_L=enough, arima_order=order)
        sliding_window_evaluate(s, spec, "hybrid", FAST, window_L=enough, arima_run=run)

    def test_arima_run_of_another_walk_rejected(self):
        s = sine_walk(300, seed=12)
        spec = SplitSpec(200, 40, 60)
        run = sliding_window_evaluate(s, spec, "arima", FAST, window_L=60,
                                      arima_order=arima.ArimaOrder(1, 1, 0))
        with pytest.raises(ConfigurationError):
            sliding_window_evaluate(s, spec, "hybrid", FAST, arima_run=run)

    def test_a_run_of_another_kind_is_not_an_arima_run(self):
        s = sine_walk(300, seed=12)
        spec = SplitSpec(200, 40, 60)
        run = sliding_window_evaluate(s, spec, "lstm", FAST)
        with pytest.raises(ConfigurationError, match="a run of the lstm kind"):
            sliding_window_evaluate(s, spec, "hybrid", FAST, arima_run=run)

    def test_arima_run_fitted_on_another_training_segment_rejected(self):
        # Same test walk, but the run's fit saw 50 of the hybrid's 90
        # validation days.
        s = sine_walk(300, seed=12)
        run = sliding_window_evaluate(s, SplitSpec(200, 40, 60), "arima", FAST,
                                      arima_order=arima.ArimaOrder(1, 1, 0))
        with pytest.raises(ConfigurationError, match="fitted on 200 values"):
            sliding_window_evaluate(s, SplitSpec(150, 90, 60), "hybrid", FAST, arima_run=run)

    def test_unknown_kind(self):
        s = sine_walk(300, seed=12)
        with pytest.raises(ConfigurationError):
            sliding_window_evaluate(s, SplitSpec(200, 40, 60), "prophet", FAST)

    def test_unknown_refit_policy(self):
        s = sine_walk(300, seed=12)
        with pytest.raises(ConfigurationError, match="^unknown refit policy 'sometimes'$"):
            sliding_window_evaluate(s, SplitSpec(200, 40, 60), "arima", FAST, refit="sometimes")

    def test_spec_mismatch(self):
        s = sine_walk(300, seed=13)
        with pytest.raises(ConfigurationError):
            sliding_window_evaluate(s, SplitSpec(200, 40, 61), "arima", FAST)


class AuditedSeries(TimeSeries):
    """Records the stop bound of every value read for the causality audit."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "reads", [])

    def segment(self, start, stop):
        self.reads.append((start, stop))
        return super().segment(start, stop)


def first_causality_violation(reads, test_start, n):
    """The first read of a walk that looks past its prediction frontier, or None.

    The frontier is the first test index whose actual has not been consumed.
    A read may end at or before it; the only read allowed past it is
    [frontier, frontier + 1), which consumes that actual after its prediction
    and advances the frontier.  The walk must consume every test value.
    """
    frontier = test_start
    for start, stop in reads:
        if stop <= frontier:
            continue
        if (start, stop) != (frontier, frontier + 1):
            return f"read [{start},{stop}) past frontier {frontier}"
        frontier += 1
    if frontier != n:
        return f"walk consumed test values up to {frontier}, not {n}"
    return None


def audit_walks(base, spec, cfg):
    """Run each kind's walk on its own AuditedSeries; kind -> first violation.

    The hybrid itself reads only train, val and each actual; its forecasts
    also depend on the arima run it is given.  So its arima run is made on
    the hybrid's own series, and the reads of that walk and of the hybrid's
    are each audited, in that order.
    """
    verdicts = {}
    for kind in MODEL_KINDS:
        s = AuditedSeries(base.timestamps, base.values)
        walks, arima_run = [], None
        if kind == "hybrid":
            arima_run = sliding_window_evaluate(s, spec, "arima", cfg)
            walks.append(s.reads[:])
            s.reads.clear()
        sliding_window_evaluate(s, spec, kind, cfg, arima_run=arima_run)
        walks.append(s.reads)
        verdicts[kind] = next(filter(None, (
            first_causality_violation(reads, spec.train_len + spec.val_len, spec.total)
            for reads in walks)), None)
    return verdicts


class TestCausality:
    def test_each_walk_reads_a_test_value_only_to_consume_it(self):
        verdicts = audit_walks(sine_walk(260, seed=14), SplitSpec(180, 30, 50), FAST)
        assert verdicts == {kind: None for kind in MODEL_KINDS}

    def test_a_one_step_look_ahead_is_caught(self):
        reads = [(0, 180), (90, 210), (210, 211), (92, 212), (211, 212)]
        assert first_causality_violation(reads, 210, 212) == "read [92,212) past frontier 211"
        assert first_causality_violation(reads[:3], 210, 212) == (
            "walk consumed test values up to 211, not 212")


class TestCompareModels:
    def test_all_rows_and_metrics_present(self):
        s = sine_walk(300, seed=15)
        res = compare_models(s, SplitSpec(200, 40, 60), FAST)
        assert set(res.runs) == {"arima", "lstm", "hybrid"}
        assert [r.model for r in res.report.rows] == ["arima", "lstm", "hybrid"]
        for r in res.report.rows:
            assert r.rmse == pytest.approx(np.sqrt(r.mse), rel=1e-12)

    def test_reproducible_for_fixed_seed(self):
        s = sine_walk(300, seed=16)
        spec = SplitSpec(200, 40, 60)
        r1 = compare_models(s, spec, FAST)
        r2 = compare_models(s, spec, FAST)
        for kind in ("arima", "lstm", "hybrid"):
            assert np.array_equal(r1.runs[kind].predictions, r2.runs[kind].predictions)

    def test_runs_carry_the_training_segment_fit(self):
        s = sine_walk(300, seed=17)
        spec = SplitSpec(200, 40, 60)
        order = arima.ArimaOrder(1, 1, 0)
        res = compare_models(s, spec, FAST, refit="arima", arima_order=order)
        train_fit = arima.fit(s.slice(0, 200), order)
        assert np.array_equal(res.runs["arima"].model.ar_coeffs, train_fit.ar_coeffs)
        assert isinstance(res.runs["lstm"].model, LstmNetwork)
        hybrid = res.runs["hybrid"].model
        assert isinstance(hybrid, HybridModel)
        assert np.array_equal(hybrid.arima.ar_coeffs, train_fit.ar_coeffs)

    def test_hybrid_adds_its_correction_to_the_arima_run(self):
        s = sine_walk(300, seed=20)
        spec = SplitSpec(200, 40, 60)
        res = compare_models(s, spec, FAST, refit="arima")
        alone = sliding_window_evaluate(
            s, spec, "hybrid", replace(FAST, seed=FAST.seed + SEED_OFFSETS["hybrid"]),
            refit="arima")
        assert np.array_equal(res.runs["hybrid"].predictions, alone.predictions)
        assert np.array_equal(res.runs["hybrid"].linear, res.runs["arima"].predictions)

    def test_failed_order_search_fails_arima_and_hybrid_once(self, monkeypatch):
        calls = []

        def failing_search(series, *args, **kwargs):
            calls.append(len(series))
            raise AnalysisError("no ARIMA candidate converged")
        monkeypatch.setattr(arima, "select_order", failing_search)
        s = sine_walk(300, seed=18)
        res = compare_models(s, SplitSpec(200, 40, 60), FAST)
        assert calls == [200]
        assert list(res.failures) == ["arima", "hybrid"]
        assert res.failures["arima"] is res.failures["hybrid"]
        assert failure_message(res.failures["arima"]) == (
            "AnalysisError: no ARIMA candidate converged")
        assert list(res.runs) == ["lstm"]

    def test_programming_error_propagates(self, monkeypatch):
        import navcast.lstm as lstm_mod

        def broken_train(*args, **kwargs):
            raise TypeError("broken training code")
        monkeypatch.setattr(lstm_mod, "train", broken_train)
        s = sine_walk(300, seed=19)
        with pytest.raises(TypeError, match="broken training code"):
            compare_models(s, SplitSpec(200, 40, 60), FAST,
                           arima_order=arima.ArimaOrder(0, 1, 0))

    def test_a_programming_error_in_the_training_worker_propagates(self, monkeypatch):
        original, parent = lstm_mod.train, os.getpid()

        def broken_in_a_worker(*args, **kwargs):
            if os.getpid() != parent:
                raise TypeError("broken training code")
            return original(*args, **kwargs)
        monkeypatch.setattr(lstm_mod, "train", broken_in_a_worker)
        monkeypatch.setattr(hybrid_mod, "_spare_cpu", lambda: True)
        with pytest.raises(TypeError, match="^broken training code$") as raised:
            compare_models(sine_walk(300, seed=19), SplitSpec(200, 40, 60), FAST,
                           arima_order=arima.ArimaOrder(0, 1, 0))
        assert "in broken_in_a_worker" in str(raised.value.__cause__)  # the worker's traceback
        assert multiprocessing.active_children() == []

    def test_a_worker_that_exits_without_a_net_raises(self, monkeypatch):
        original, parent = lstm_mod.train, os.getpid()

        def dying_in_a_worker(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return original(*args, **kwargs)
        monkeypatch.setattr(lstm_mod, "train", dying_in_a_worker)
        monkeypatch.setattr(hybrid_mod, "_spare_cpu", lambda: True)
        with pytest.raises(RuntimeError, match="worker exited with code 1 before it sent a net"):
            compare_models(sine_walk(300, seed=19), SplitSpec(200, 40, 60), FAST,
                           arima_order=arima.ArimaOrder(0, 1, 0))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("kind", ["lstm", "hybrid"])
    def test_a_dying_worker_names_its_kind(self, monkeypatch, kind):
        original, parent = lstm_mod.train, os.getpid()

        def dying_in_one_worker(net, data, cfg, **kwargs):
            if os.getpid() != parent and cfg.seed - SEED_OFFSETS[kind] == FAST.seed:
                os._exit(3)
            return original(net, data, cfg, **kwargs)
        monkeypatch.setattr(lstm_mod, "train", dying_in_one_worker)
        monkeypatch.setattr(hybrid_mod, "_spare_cpu", lambda: True)
        with pytest.raises(RuntimeError, match=f"^the {kind} kind's training worker exited "
                                               "with code 3 before it sent"):
            compare_models(sine_walk(300, seed=19), SplitSpec(200, 40, 60), FAST,
                           arima_order=arima.ArimaOrder(0, 1, 0))
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_compare(self, monkeypatch):
        monkeypatch.setattr(hybrid_mod, "_spare_cpu", lambda: True)
        s, spec = sine_walk(300, seed=19), SplitSpec(200, 40, 60)
        res = compare_models(s, spec, FAST, arima_order=arima.ArimaOrder(0, 1, 0))
        assert list(res.runs) == list(MODEL_KINDS)
        assert multiprocessing.active_children() == []
        # The parent fails while the worker still trains: the worker is ended.
        original, parent = lstm_mod.train, os.getpid()

        def stalling_in_a_worker(*args, **kwargs):
            if os.getpid() != parent:
                time.sleep(60)
            return original(*args, **kwargs)

        def broken_search(*args, **kwargs):
            raise TypeError("broken search code")
        monkeypatch.setattr(lstm_mod, "train", stalling_in_a_worker)
        monkeypatch.setattr(arima, "select_order", broken_search)
        with pytest.raises(TypeError, match="broken search code"):
            compare_models(s, spec, FAST)
        assert multiprocessing.active_children() == []

    def test_one_failure_does_not_sink_the_rest(self, monkeypatch):
        # Constant-ish series: LSTM scaling of a constant train segment fails,
        # but ARIMA persistence still works.  The lstm kind's refusal reads the
        # same from its training worker as in process.
        values = np.full(120, 3.0)
        s = as_series(values)
        for spare_cpu in (False, True):
            monkeypatch.setattr(hybrid_mod, "_spare_cpu", lambda spare=spare_cpu: spare)
            res = compare_models(
                s, SplitSpec(80, 20, 20),
                TrainConfig(epochs=1, layers=1, hidden_dim=4, window_m=5, seed=0),
                arima_order=arima.ArimaOrder(0, 1, 0),
            )
            assert "lstm" in res.failures
            assert failure_message(res.failures["lstm"]) == (
                "DegenerateInputError: cannot scale a constant series"), spare_cpu
            assert "arima" in res.runs
