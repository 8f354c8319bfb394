"""Error metrics (MSE / MAE / RMSE) and the three-model comparison report."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

MODEL_KINDS = ("arima", "lstm", "hybrid")


def _check_pair(pred, actual):
    p = np.asarray(pred, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape or p.size == 0:
        raise ConfigurationError(
            f"prediction/actual shapes {p.shape} vs {a.shape} (nonempty, equal required)"
        )
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(a))):
        raise ConfigurationError("metrics require finite inputs")
    return p, a


def mse(pred, actual) -> float:
    p, a = _check_pair(pred, actual)
    return float(np.mean((p - a) ** 2))


def mae(pred, actual) -> float:
    p, a = _check_pair(pred, actual)
    return float(np.mean(np.abs(p - a)))


def rmse(pred, actual) -> float:
    return float(np.sqrt(mse(pred, actual)))


@dataclass(frozen=True)
class MetricsRow:
    model: str
    mse: float
    mae: float
    rmse: float
    n: int


@dataclass(frozen=True)
class MetricsReport:
    """The comparison on the test segment."""

    rows: tuple
    best: str = ""

    def to_dict(self) -> dict:
        return {
            "segment": "test",
            "rows": [
                {"model": r.model, "mse": r.mse, "mae": r.mae, "rmse": r.rmse, "n": r.n}
                for r in self.rows
            ],
            "best": self.best,
        }


def build_report(runs) -> MetricsReport:
    """One row per evaluation run, ordered arima, lstm, hybrid, then any other kind.

    ``runs`` is an iterable of objects with model_kind, predictions, actuals.
    The best model is the lowest-MSE row; an exact tie on MSE reports "tie".
    """
    by_kind = {}
    for run in runs:
        if len(run.predictions) == 0:
            raise ConfigurationError(f"empty evaluation run for {run.model_kind}")
        by_kind[run.model_kind] = run
    # Stable sort: kinds outside MODEL_KINDS follow it in input order.
    rank = {kind: i for i, kind in enumerate(MODEL_KINDS)}
    ordered = sorted(by_kind.values(), key=lambda run: rank.get(run.model_kind, len(rank)))
    rows = []
    for run in ordered:
        row_mse = mse(run.predictions, run.actuals)
        rows.append(MetricsRow(
            model=run.model_kind,
            mse=row_mse,
            mae=mae(run.predictions, run.actuals),
            rmse=float(np.sqrt(row_mse)),
            n=len(run.predictions),
        ))
    best_row = min(rows, key=lambda r: r.mse)
    ties = [r for r in rows if r.mse == best_row.mse]
    best = "tie" if len(ties) > 1 else best_row.model
    return MetricsReport(rows=tuple(rows), best=best)


def format_table(report: MetricsReport) -> str:
    """Human-readable aligned comparison table (6 significant digits)."""
    header = f"{'Model':<10}{'MSE':>14}{'MAE':>14}{'RMSE':>14}{'n':>8}"
    lines = [header, "-" * len(header)]
    for r in report.rows:
        lines.append(
            f"{r.model:<10}{r.mse:>14.6g}{r.mae:>14.6g}{r.rmse:>14.6g}{r.n:>8d}"
        )
    lines.append(f"best: {report.best}")
    return "\n".join(lines)
