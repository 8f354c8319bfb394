"""ARIMA + residual-LSTM hybrid pipeline and rolling one-step evaluation.

The hybrid decomposes a series into a linear part handled by ARIMA and a
nonlinear part learned by an LSTM trained on the ARIMA residuals; the final
forecast is the exact sum of the two one-step predictions.  Evaluation walks
the test segment one day at a time, predicting each day from the trailing
window of past observations only and appending the actual afterwards.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import _blas
from . import arima as arima_mod
from . import lstm as lstm_mod
from .errors import FIT_FAILURES, ComparisonError, ConfigurationError, DegenerateInputError
from .lstm import LstmNetwork, TrainConfig
from .metrics import MODEL_KINDS, build_report
from .series import (
    ScaleParams,
    SplitSpec,
    TimeSeries,
    fit_scale,
    minmax_scale,
    minmax_unscale,
)

DEFAULT_WINDOW_L = 120

# Fixed seed offsets so the three model evaluations draw independent streams.
SEED_OFFSETS = {"arima": 0, "lstm": 1, "hybrid": 2}


@dataclass
class HybridModel:
    arima: arima_mod.ArimaModel
    residual_net: LstmNetwork
    residual_scale: ScaleParams
    window_m: int
    val_mse: float
    best_val_epoch: int


@dataclass
class EvalRun:
    model_kind: str
    predictions: np.ndarray
    actuals: np.ndarray
    timestamps: tuple
    window_L: int
    linear: np.ndarray | None = None  # hybrid only: the ARIMA component
    nonlinear: np.ndarray | None = None  # hybrid only: the LSTM component
    # The fit on the training segment (ArimaModel, LstmNetwork or
    # HybridModel); under refit == "arima" it is not the last window's refit.
    model: object = None
    # arima only: each step's residuals over its history window, as
    # arima.residuals(model of the step, window) gives them.
    step_residuals: tuple = ()


def _kind_config(cfg: TrainConfig, kind: str) -> TrainConfig:
    """cfg as model kind `kind` trains with it: its seed moved by the kind's offset."""
    return replace(cfg, seed=cfg.seed + SEED_OFFSETS[kind])


def _train_net(stream, n_train: int, scale: ScaleParams, cfg: TrainConfig):
    """Train a fresh net, seeded by cfg.seed, on the windows of stream[:n_train].

    The windows of `stream` that end past n_train (its continuation through
    the validation segment) feed the per-epoch validation loss.
    """
    m = cfg.window_m
    data = lstm_mod.make_windows(stream[:n_train], m, scale)
    val_windows = lstm_mod.make_windows(stream[n_train - m:], m, scale)
    net = lstm_mod.init_network(1, cfg.hidden_dim, cfg.layers, np.random.default_rng(cfg.seed))
    return lstm_mod.train(net, data, cfg, val_data=val_windows)


def _fit_lstm(train: TimeSeries, val: TimeSeries, cfg: TrainConfig) -> tuple:
    """The lstm kind's training fit: the scale fitted on train and the net.

    The single-model baseline trains on scaled raw levels of train + val,
    with the same window and config as the residual net.
    """
    if len(train) <= cfg.window_m:
        raise ConfigurationError(
            f"{len(train)} training values cannot fill windows of length {cfg.window_m}")
    scale = fit_scale(train.values)
    stream = np.concatenate((train.values, val.values))
    return scale, _train_net(stream, len(train), scale, cfg).net


def _spare_cpu() -> bool:
    """Whether a forked worker can train beside this process: fork exists and 2+ CPUs are ours."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


class _WorkerTraceback(Exception):
    """The cause given to an exception raised again from a training worker: its traceback."""


@contextlib.contextmanager
def _training(kind: str, func, *args, **kwargs):
    """Yield a function that returns func(*args, **kwargs): model kind `kind`'s training.

    With a spare CPU the training runs in one forked worker from entry on,
    and the function waits for it and raises what the training raised;
    otherwise the function trains in process.  No worker outlives the block.
    """
    if not _spare_cpu():
        yield lambda: func(*args, **kwargs)
        return
    import multiprocessing
    import signal
    import traceback

    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)

    def train() -> None:  # the worker's body; a fork-context target is not pickled
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's; it ends the worker
        try:
            message = "result", func(*args, **kwargs), None
        except Exception as exc:  # the parent raises it, or records it as the kind's failure
            message = "raised", exc, traceback.format_exc()
        sender.send(message)

    worker = context.Process(target=train, daemon=True)
    worker.start()
    sender.close()

    def result():
        try:
            outcome, value, trace = receiver.recv()
        except EOFError:
            worker.join()
            raise RuntimeError(f"the {kind} kind's training worker exited with code "
                               f"{worker.exitcode} before it sent a net") from None
        if outcome == "raised":
            raise value from _WorkerTraceback(trace)
        return value

    try:
        yield result
    finally:
        receiver.close()
        worker.terminate()  # a worker still training trains a net no longer wanted
        worker.join()
        worker.close()


def _fewest_walk_residuals(spec: SplitSpec, window_L: int, order: arima_mod.ArimaOrder) -> int:
    """The fewest residuals a step of the arima walk holds, known before the walk.

    A step's history is its trailing window_L values, fewer only while the
    window reaches back past the series start, so the first test step's is
    the shortest; residuals(model, history) has d + p fewer entries.
    """
    return min(window_L, spec.train_len + spec.val_len) - order.d - order.p


def fit_hybrid(
    train: TimeSeries,
    val: TimeSeries,
    arima_model: arima_mod.ArimaModel,
    cfg: TrainConfig = TrainConfig(),
    *,
    _walk_residuals: int | None = None,
) -> HybridModel:
    """Train the residual LSTM on the in-sample errors of `arima_model`.

    `arima_model` is an ARIMA model already fitted on train.  The net trains on
    its residuals over train; their continuation through val only scores each
    epoch (best-epoch validation MSE is recorded); weights are last-epoch.
    `_walk_residuals` is the fewest residuals a step of sliding_window_evaluate's
    walk holds: fewer than the net's window is refused before the training.
    """
    values = np.concatenate((train.values, val.values))
    stream = arima_mod.residuals(arima_model, TimeSeries(train.timestamps + val.timestamps, values))
    n_train = len(stream) - len(val)
    if n_train <= cfg.window_m:
        raise ConfigurationError(
            f"{n_train} training residuals cannot fill windows of length {cfg.window_m}"
        )
    # Symmetric scaling so that zero residual maps to zero scaled value: with
    # the zero-initialized output head the untrained correction is then
    # exactly 0 and the hybrid starts at the pure linear baseline.
    bound = float(np.max(np.abs(stream[:n_train])))
    if bound == 0.0:
        raise DegenerateInputError("all training residuals are zero")
    if _walk_residuals is not None and _walk_residuals < cfg.window_m:
        raise DegenerateInputError(f"need {cfg.window_m} recent residuals, got {_walk_residuals}")
    scale = ScaleParams(-bound, bound)
    result = _train_net(stream, n_train, scale, cfg)
    return HybridModel(
        arima=arima_model,
        residual_net=result.net,
        residual_scale=scale,
        window_m=cfg.window_m,
        val_mse=float(result.val_losses[result.best_val_epoch]),
        best_val_epoch=result.best_val_epoch,
    )


def _check_walk(series: TimeSeries, spec: SplitSpec, refit: str, window_L: int) -> None:
    """Refuse a refit policy, window_L or split that no kind can walk."""
    if refit not in ("none", "arima"):
        raise ConfigurationError(f"unknown refit policy {refit!r}")
    if window_L < 1:
        raise ConfigurationError(f"window_L must be at least 1, got {window_L}")
    if spec.total != len(series):
        raise ConfigurationError(
            f"split total {spec.total} != series length {len(series)}"
        )


def sliding_window_evaluate(
    series: TimeSeries,
    spec: SplitSpec,
    kind: str,
    cfg: TrainConfig = TrainConfig(),
    window_L: int = DEFAULT_WINDOW_L,
    refit: str = "none",
    arima_order="auto",
    *,
    arima_run: EvalRun | None = None,
    _fit=None,
) -> EvalRun:
    """Walk the test segment one step at a time with a trailing history window.

    Models are fit once on the training segment (ARIMA coefficients are refit
    on each step's window when refit == "arima"); every prediction for test
    index t reads observations strictly before t.

    The hybrid's linear part is the arima kind's forecast: the hybrid kind
    trains on the training fit of `arima_run`, an arima run of the same
    series, split and window_L, takes that run's forecasts as its linear part
    and adds only its residual correction, read off that run's per-step
    residuals.  So it takes its ARIMA order and refit policy from that run;
    `arima_order` and `refit` apply only when no run is given and it
    evaluates one itself.  `_fit` is the kind's training fit as compare_models
    made it (the arima kind's ArimaModel, the lstm kind's (scale, net), the
    hybrid's HybridModel): with it the kind only walks.
    """
    if kind not in MODEL_KINDS:
        raise ConfigurationError(f"unknown model kind {kind!r}")
    _check_walk(series, spec, refit, window_L)
    test_start = spec.train_len + spec.val_len
    n = spec.total
    # Test values are read one at a time, each only after its prediction is
    # made; the split here must not touch the test segment.
    train = series.slice(0, spec.train_len)
    val = series.slice(spec.train_len, test_start)

    preds = np.empty(spec.test_len)
    actuals = np.empty(spec.test_len)
    linear = nonlinear = None
    step_residuals = []

    if kind == "arima":
        fitted = model = _fit if _fit is not None else arima_mod._fit_or_search(train, arima_order)
        for j, t in enumerate(range(test_start, n)):
            hist = series.slice(max(0, t - window_L), t)
            if refit == "arima":
                model = arima_mod.fit(hist, fitted.order)
            preds[j], resid = arima_mod._forecast_and_residuals(model, hist)
            step_residuals.append(resid)
            actuals[j] = series.segment(t, t + 1)[0]
    elif kind == "lstm":
        scale, fitted = _fit if _fit is not None else _fit_lstm(train, val, cfg)
        for j, t in enumerate(range(test_start, n)):
            window = minmax_scale(series.segment(t - cfg.window_m, t), scale)
            preds[j] = minmax_unscale(lstm_mod.forward(fitted, window), scale)
            actuals[j] = series.segment(t, t + 1)[0]
    else:
        if arima_run is None:
            arima_run = sliding_window_evaluate(
                series, spec, "arima", cfg, window_L, refit, arima_order)
        elif (arima_run.window_L, arima_run.timestamps) != (
                window_L, series.timestamps[test_start:n]):
            raise ConfigurationError("arima_run was evaluated on another test walk")
        elif arima_run.model_kind != "arima":
            raise ConfigurationError(f"arima_run is a run of the {arima_run.model_kind} kind")
        elif arima_run.model.n_obs != spec.train_len:
            raise ConfigurationError(f"arima_run was fitted on {arima_run.model.n_obs} values, "
                                     f"not on the {spec.train_len}-value training segment")
        fitted = _fit if _fit is not None else fit_hybrid(
            train, val, arima_run.model, cfg,
            _walk_residuals=_fewest_walk_residuals(spec, window_L, arima_run.model.order))
        m, scale = fitted.window_m, fitted.residual_scale
        # Every correction window is the arima walk's residuals before its
        # step, all known now: one batched pass of the net corrects every step.
        windows = np.stack([r[-m:] for r in arima_run.step_residuals])
        with _blas.single_threaded():
            raw = lstm_mod._forward_batch(fitted.residual_net, minmax_scale(windows, scale))
        linear = arima_run.predictions.copy()
        nonlinear = minmax_unscale(raw, scale)
        for j, t in enumerate(range(test_start, n)):
            actuals[j] = series.segment(t, t + 1)[0]
        preds = linear + nonlinear

    return EvalRun(
        model_kind=kind,
        predictions=preds,
        actuals=actuals,
        timestamps=series.timestamps[test_start:n],
        window_L=window_L,
        linear=linear,
        nonlinear=nonlinear,
        model=fitted,
        step_residuals=tuple(step_residuals),
    )


@dataclass
class CompareResult:
    runs: dict  # kind -> EvalRun (successful only)
    report: "object"  # MetricsReport
    failures: dict = field(default_factory=dict)  # kind -> the exception that failed it


def failure_message(exc: BaseException) -> str:
    """How a failed kind's exception is reported: its class name and its message."""
    return f"{type(exc).__name__}: {exc}"


def compare_models(
    series: TimeSeries,
    spec: SplitSpec,
    cfg: TrainConfig = TrainConfig(),
    window_L: int = DEFAULT_WINDOW_L,
    refit: str = "none",
    arima_order="auto",
) -> CompareResult:
    """Evaluate arima, lstm, and hybrid under identical splits and derived seeds.

    The test segment is walked with ARIMA once: the arima kind runs the one
    order search and every trailing-window refit, and the hybrid kind adds its
    residual correction to that run's forecasts.  If the arima kind fails (search,
    training fit or a refit), hybrid fails with the same exception; lstm still
    runs.  When every kind fails, ComparisonError carries each kind's exception.
    A refit policy, window_L or split that no kind can walk is refused once,
    before any search or training, and fails all three kinds with that one
    exception.

    Neither net's training needs a walk: the lstm kind's needs nothing of the
    others, the hybrid's only the arima kind's training fit.  Given a spare
    CPU, each kind's whole training fit, its refusals included, runs in its
    own forked worker, the lstm kind's from the start and the hybrid's from
    the arima fit on, while this process walks ARIMA over the test segment.
    The order search, every ARIMA fit and every walk run here.
    """
    runs, failures = {}, {}
    cfgs = {kind: _kind_config(cfg, kind) for kind in MODEL_KINDS}
    walk = {"window_L": window_L, "refit": refit}  # every kind here walks a fit made already
    try:
        _check_walk(series, spec, refit, window_L)
    except FIT_FAILURES as exc:  # no kind can walk: each fails with this one refusal
        failures = dict.fromkeys(MODEL_KINDS, exc)
    else:
        train = series.slice(0, spec.train_len)
        val = series.slice(spec.train_len, spec.train_len + spec.val_len)
        with _training("lstm", _fit_lstm, train, val, cfgs["lstm"]) as lstm_fit:
            try:  # one model failing must not sink the others
                arima_fit = arima_mod._fit_or_search(train, arima_order)
                with _training("hybrid", fit_hybrid, train, val, arima_fit, cfgs["hybrid"],
                               _walk_residuals=_fewest_walk_residuals(
                                   spec, window_L, arima_fit.order)) as hybrid_fit:
                    runs["arima"] = sliding_window_evaluate(
                        series, spec, "arima", cfgs["arima"], **walk, _fit=arima_fit)
                    try:
                        # A worker sends back a copy of arima_fit: the run keeps the original.
                        hybrid = replace(hybrid_fit(), arima=arima_fit)
                        runs["hybrid"] = sliding_window_evaluate(
                            series, spec, "hybrid", cfgs["hybrid"], **walk,
                            arima_run=runs["arima"], _fit=hybrid)
                    except FIT_FAILURES as exc:
                        failures["hybrid"] = exc
            except FIT_FAILURES as exc:  # the arima kind's, so the hybrid's too
                failures["arima"] = failures["hybrid"] = exc
            try:
                runs["lstm"] = sliding_window_evaluate(
                    series, spec, "lstm", cfgs["lstm"], **walk, _fit=lstm_fit())
            except FIT_FAILURES as exc:
                failures["lstm"] = exc
    runs = {kind: runs[kind] for kind in MODEL_KINDS if kind in runs}
    failures = {kind: failures[kind] for kind in MODEL_KINDS if kind in failures}
    if not runs:
        causes = "; ".join(f"{kind}: {failure_message(exc)}" for kind, exc in failures.items())
        raise ComparisonError(f"all three model evaluations failed ({causes})", failures)
    report = build_report(runs.values())
    return CompareResult(runs=runs, report=report, failures=failures)
