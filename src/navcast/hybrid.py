"""ARIMA + residual-LSTM hybrid pipeline and rolling one-step evaluation.

The hybrid decomposes a series into a linear part handled by ARIMA and a
nonlinear part learned by an LSTM trained on the ARIMA residuals; the final
forecast is the exact sum of the two one-step predictions.  Evaluation walks
the test segment one day at a time, predicting each day from the trailing
window of past observations only and appending the actual afterwards.
"""

from __future__ import annotations

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


def fit_hybrid(
    train: TimeSeries,
    val: TimeSeries,
    arima_model: arima_mod.ArimaModel,
    cfg: TrainConfig = TrainConfig(),
) -> HybridModel:
    """Train the residual LSTM on the in-sample errors of `arima_model`.

    `arima_model` is an ARIMA model already fitted on train.  The net trains on
    its residuals over train; their continuation through val only scores each
    epoch (best-epoch validation MSE is recorded); weights are last-epoch.
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
    evaluates one itself.
    """
    if kind not in MODEL_KINDS:
        raise ConfigurationError(f"unknown model kind {kind!r}")
    if refit not in ("none", "arima"):
        raise ConfigurationError(f"unknown refit policy {refit!r}")
    if window_L < 1:
        raise ConfigurationError(f"window_L must be at least 1, got {window_L}")
    if spec.total != len(series):
        raise ConfigurationError(
            f"split total {spec.total} != series length {len(series)}"
        )
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
        fitted = model = arima_mod._fit_or_search(train, arima_order)
        for j, t in enumerate(range(test_start, n)):
            hist = series.slice(max(0, t - window_L), t)
            if refit == "arima":
                model = arima_mod.fit(hist, fitted.order)
            preds[j], resid = arima_mod._forecast_and_residuals(model, hist)
            step_residuals.append(resid)
            actuals[j] = series.segment(t, t + 1)[0]
    elif kind == "lstm":
        # Single-model baseline: trained on scaled raw levels with the same
        # window and config as the residual net.
        if len(train) <= cfg.window_m:
            raise ConfigurationError(
                f"{len(train)} training values cannot fill windows of length {cfg.window_m}")
        scale = fit_scale(train.values)
        fitted = _train_net(
            np.concatenate((train.values, val.values)), len(train), scale, cfg).net
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
        fitted = fit_hybrid(train, val, arima_run.model, cfg)
        m, scale = fitted.window_m, fitted.residual_scale
        shortest = min(map(len, arima_run.step_residuals))
        if shortest < m:
            raise DegenerateInputError(f"need {m} recent residuals, got {shortest}")
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
    training fit or a refit), hybrid fails with the same exception without
    running; lstm still runs.  When every kind fails, ComparisonError carries
    each kind's exception.
    """
    runs, failures = {}, {}
    for kind in MODEL_KINDS:
        if kind == "hybrid" and "arima" in failures:
            failures[kind] = failures["arima"]
            continue
        try:
            runs[kind] = sliding_window_evaluate(
                series, spec, kind, _kind_config(cfg, kind),
                window_L=window_L, refit=refit, arima_order=arima_order,
                arima_run=runs["arima"] if kind == "hybrid" else None,
            )
        except FIT_FAILURES as exc:  # one model failing must not sink the others
            failures[kind] = exc
    if not runs:
        causes = "; ".join(f"{kind}: {failure_message(exc)}" for kind, exc in failures.items())
        raise ComparisonError(f"all three model evaluations failed ({causes})", failures)
    report = build_report(runs.values())
    return CompareResult(runs=runs, report=report, failures=failures)
