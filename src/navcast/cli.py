"""Command-line front end: `analyze`, `fit-arima`, `fit-hybrid`, `compare`, `synth`.

Exit codes: 0 success, 2 usage/configuration, 3 ingestion, 4 analysis,
5 training.  Machine-readable outputs are JSON; plottable series are CSV.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import _blas
from . import arima as arima_mod
from . import lstm as lstm_mod
from .arima import ArimaOrder
from .errors import (
    AnalysisError,
    ComparisonError,
    ConfigurationError,
    DegenerateInputError,
    FitError,
    IngestionError,
    NavcastError,
    NumericalError,
)
from .hybrid import DEFAULT_WINDOW_L, _kind_config, compare_models, failure_message, fit_hybrid
from .lstm import TrainConfig
from .metrics import MODEL_KINDS, format_table
from .series import (MAX_DIFFERENCES, SplitSpec, TimeSeries, _first_stationary, acf, adf_test,
                     difference, pacf, split)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INGESTION = 3
EXIT_ANALYSIS = 4
EXIT_TRAINING = 5

SYNTH_START_DATE = datetime.date(2016, 6, 6)

# Each training flag and the TrainConfig field it sets.
TRAIN_FLAGS = (("--lr", "learning_rate"), ("--epochs", "epochs"), ("--batch", "batch_size"),
               ("--layers", "layers"), ("--hidden", "hidden_dim"), ("--window-m", "window_m"))


# ---------------------------------------------------------------------------
# Ingestion and emission


def ingest_csv(path) -> TimeSeries:
    """Read a `date,nav` CSV into a validated, chronologically sorted series."""
    p = Path(path)
    if not p.is_file():
        raise IngestionError(f"input file not found: {p}")
    try:
        lines = p.read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{p}: byte {exc.start}: not UTF-8 text") from None
    if not lines:
        raise IngestionError(f"{p}: empty file")
    if lines[0].strip() != "date,nav":
        raise IngestionError(f"{p}: line 1: expected header 'date,nav'")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise IngestionError(f"{p}: line {lineno}: expected 2 comma-separated fields")
        try:
            date = datetime.date.fromisoformat(parts[0].strip())
        except ValueError:
            raise IngestionError(f"{p}: line {lineno}: bad date {parts[0]!r}")
        try:
            nav = float(parts[1])
        except ValueError:
            raise IngestionError(f"{p}: line {lineno}: bad nav value {parts[1]!r}")
        if not np.isfinite(nav) or nav <= 0:
            raise IngestionError(f"{p}: line {lineno}: nav must be a positive finite number")
        records.append((date, nav, lineno))
    if len(records) < 2:
        raise IngestionError(f"{p}: need at least 2 data rows")
    records.sort(key=lambda r: r[0])
    for (d1, _, _), (d2, _, ln) in zip(records, records[1:]):
        if d1 == d2:
            raise IngestionError(f"{p}: line {ln}: duplicate date {d2}")
    return TimeSeries(
        tuple(r[0] for r in records),
        np.array([r[1] for r in records]),
        name=p.stem,
    )


def write_series_csv(path, series: TimeSeries):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,nav\n")
        for ts, v in zip(series.timestamps, series.values):
            fh.write(f"{ts.isoformat()},{float(v)!r}\n")


# Extreme parameters may overflow or divide by zero; TimeSeries refuses the
# non-finite values that result, so numpy need not warn about them first.
@np.errstate(all="ignore")
def generate_synthetic(kind: str, n: int, params: dict | None = None, seed: int = 0) -> TimeSeries:
    """Seeded fixture generator: random-walk, ar1, or linear-plus-sine."""
    if n < 30:
        raise ConfigurationError("synthetic series need n >= 30")
    params = dict(params or {})
    base = float(params.pop("base", 2.0))
    rng = np.random.default_rng(seed)
    if kind in ("random-walk", "linear-plus-sine"):
        drift = float(params.pop("drift", 0.0))
        sigma = float(params.pop("sigma", 0.01))
        if kind == "linear-plus-sine":
            amplitude = float(params.pop("amplitude", 0.1))
            period = float(params.pop("period", 50.0))
        values = base + np.concatenate(([0.0], np.cumsum(rng.normal(drift, sigma, n - 1))))
        if kind == "linear-plus-sine":
            values = values + amplitude * np.sin(2 * np.pi * np.arange(n) / period)
    elif kind == "ar1":
        phi = float(params.pop("phi", 0.6))
        sigma = float(params.pop("sigma", 0.01))
        # x[0] = 0, x[t] = phi x[t-1] + shock[t] in Python floats: exactly one
        # rounded multiply and one rounded add per step, which a BLAS solve
        # does not promise (it may fuse them).
        shocks = rng.normal(0.0, sigma, n)
        ar1 = itertools.accumulate(shocks[1:].tolist(), lambda x, s: phi * x + s, initial=0.0)
        values = base + np.fromiter(ar1, dtype=float, count=n)
    else:
        raise ConfigurationError(f"unknown synthetic kind {kind!r}")
    if params:
        raise ConfigurationError(f"unknown parameters for {kind}: {sorted(params)}")
    ts = tuple(SYNTH_START_DATE + datetime.timedelta(days=i) for i in range(n))
    return TimeSeries(ts, values, name=f"synth-{kind}")


# ---------------------------------------------------------------------------
# Command implementations


def _adf_payload(result):
    return {
        "statistic": result.statistic,
        "lag_used": result.lag_used,
        "critical_values": {f"{k:.2f}": v for k, v in result.critical_values.items()},
        "is_stationary_5pct": result.is_stationary_5pct,
    }


def cmd_analyze(series: TimeSeries, out_dir: Path, max_lag: int = 20) -> dict:
    """Stationarity and correlogram artifacts: adf.json, acf.csv, pacf.csv, diff.csv.

    All are computed before `out_dir` is created, so a failure writes nothing.
    """
    diffs, results = [], []
    for d in range(MAX_DIFFERENCES + 1):
        diffs.append(difference(series, d))
        results.append(adf_test(diffs[d]))
    adf = {str(d): _adf_payload(res) for d, res in enumerate(results)}
    stationary_d = _first_stationary(results)
    d_used = stationary_d if stationary_d is not None else 1
    w = diffs[d_used]
    correlograms = (("acf.csv", acf(w, max_lag)), ("pacf.csv", pacf(w, max_lag)))

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "adf.json").write_text(json.dumps(adf, indent=2) + "\n", encoding="utf-8")
    for name, points in correlograms:
        with open(out_dir / name, "w", encoding="utf-8") as fh:
            fh.write("lag,value,confidence_bound\n")
            for pt in points:
                fh.write(f"{pt.lag},{float(pt.value)!r},{float(pt.confidence_bound)!r}\n")
    with open(out_dir / "diff.csv", "w", encoding="utf-8") as fh:
        fh.write("date,value\n")
        for ts, v in zip(series.timestamps[1:], diffs[1]):
            fh.write(f"{ts.isoformat()},{float(v)!r}\n")
    return {"adf": adf, "stationary_d": stationary_d, "correlogram_d": d_used}


def _write_models(out_dir: Path, arima_model, residual_net=None):
    """models/arima.txt, and models/lstm.txt when a residual net is given."""
    models_dir = out_dir / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    (models_dir / "arima.txt").write_text(arima_mod.serialize(arima_model), encoding="utf-8")
    if residual_net is not None:
        (models_dir / "lstm.txt").write_text(lstm_mod.serialize(residual_net), encoding="utf-8")


def cmd_fit_arima(series: TimeSeries, order, out_dir: Path) -> arima_mod.ArimaModel:
    model = arima_mod._fit_or_search(series, order)
    _write_models(out_dir, model)
    return model


def cmd_fit_hybrid(series: TimeSeries, spec: SplitSpec, order, cfg: TrainConfig, out_dir: Path):
    """compare's hybrid fit without the walk: its net is seeded as compare seeds
    the hybrid's, so for the same flags it writes compare's models/."""
    train, val, _ = split(series, spec)
    model = fit_hybrid(train, val, arima_mod._fit_or_search(train, order),
                       _kind_config(cfg, "hybrid"))
    _write_models(out_dir, model.arima, model.residual_net)
    summary = {
        "arima_order": [model.arima.order.p, model.arima.order.d, model.arima.order.q],
        "window_m": model.window_m,
        "val_mse": model.val_mse,
        "best_val_epoch": model.best_val_epoch,
        "residual_scale": {
            "min": model.residual_scale.min,
            "max": model.residual_scale.max,
            "target_lo": -1.0,
            "target_hi": 1.0,
        },
    }
    (out_dir / "hybrid.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return model


def cmd_compare(series: TimeSeries, spec: SplitSpec, cfg: TrainConfig, out_dir: Path,
                window_L: int = DEFAULT_WINDOW_L, refit: str = "none",
                order="auto"):
    """Three-model rolling comparison; emits predictions.csv, metrics.json, models/."""
    result = compare_models(series, spec, cfg, window_L=window_L, refit=refit,
                            arima_order=order)
    out_dir.mkdir(parents=True, exist_ok=True)
    test_start = spec.train_len + spec.val_len
    dates = series.timestamps[test_start: spec.total]
    actuals = series.values[test_start: spec.total]

    with open(out_dir / "predictions.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(("date", "actual") + MODEL_KINDS) + "\n")
        for j, (ts, actual) in enumerate(zip(dates, actuals)):
            cells = [ts.isoformat(), repr(float(actual))]
            for kind in MODEL_KINDS:
                run = result.runs.get(kind)
                cells.append(repr(float(run.predictions[j])) if run is not None else "")
            fh.write(",".join(cells) + "\n")

    messages = {kind: failure_message(exc) for kind, exc in result.failures.items()}
    payload = result.report.to_dict()
    if messages:
        payload["failed"] = messages
    (out_dir / "metrics.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    if "hybrid" in result.runs:
        hybrid = result.runs["hybrid"].model  # the evaluated training-segment fit
        _write_models(out_dir, hybrid.arima, hybrid.residual_net)

    print(format_table(result.report))
    for kind, msg in messages.items():
        print(f"FAILED {kind}: {msg}")
    return result


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


def _exit_code(exc: BaseException) -> int:
    """The documented exit code of an error that ends a command or fails a compare kind.

    A compare whose kinds all failed exits as one whose kinds partly failed:
    with the highest code among the kinds' errors.
    """
    if isinstance(exc, ComparisonError):
        return max(map(_exit_code, exc.failures.values()))
    if isinstance(exc, IngestionError):
        return EXIT_INGESTION
    if isinstance(exc, (AnalysisError, DegenerateInputError, NumericalError)):
        return EXIT_ANALYSIS
    if isinstance(exc, NavcastError) and not isinstance(exc, FitError):
        return EXIT_USAGE
    return EXIT_TRAINING  # FitError, and a kind's LinAlgError or FloatingPointError


def _parse_split(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("split must be A,B,C")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("split parts must be integers")


def _parse_order(text: str):
    if text == "auto":
        return "auto"
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("order must be 'auto' or p,d,q")
    try:
        p, d, q = (int(x) for x in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("order parts must be integers")
    return ArimaOrder(p, d, q)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="navcast",
        description="ARIMA / LSTM / hybrid one-step-ahead forecasting of fund NAV series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_input=True):
        if need_input:
            p.add_argument("--input", required=True, help="CSV file with header date,nav")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0)

    def add_train_flags(p):
        default = TrainConfig()
        p.add_argument("--split", type=_parse_split, default=None,
                       help="train,val,test lengths (default: 900,100,260 scaled)")
        p.add_argument("--order", type=_parse_order, default="auto")
        for flag, name in TRAIN_FLAGS:
            value = getattr(default, name)
            p.add_argument(flag, type=type(value), default=value, dest=name,
                           metavar=flag[2:].upper().replace("-", "_"))

    p = sub.add_parser("analyze", help="ADF / ACF / PACF / differencing artifacts")
    add_common(p)
    p.add_argument("--max-lag", type=int, default=20)

    p = sub.add_parser("fit-arima", help="fit an ARIMA model and serialize it")
    add_common(p)
    p.add_argument("--order", type=_parse_order, default="auto")

    p = sub.add_parser("fit-hybrid", help="fit the ARIMA + residual-LSTM hybrid")
    add_common(p)
    add_train_flags(p)

    p = sub.add_parser("compare", help="rolling three-model comparison")
    add_common(p)
    add_train_flags(p)
    p.add_argument("--window-L", type=int, default=DEFAULT_WINDOW_L)
    p.add_argument("--refit", choices=("none", "arima"), default="none")

    p = sub.add_parser("synth", help="generate a synthetic fixture CSV")
    add_common(p, need_input=False)
    p.add_argument("--kind", choices=("random-walk", "ar1", "linear-plus-sine"),
                   default="random-walk")
    p.add_argument("--n", type=int, default=1260)
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                   help="generator parameter, e.g. --param sigma=0.01")
    p.add_argument("--output", default=None, help="CSV path (default <out>/synthetic.csv)")

    return parser


def main(argv=None) -> int:
    with _blas.single_threaded():
        return _main(argv)


def _main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    try:
        out_dir = Path(args.out)
        if args.command == "synth":
            params = {}
            for item in args.param:
                key, _, value = item.partition("=")
                if not _:
                    raise ConfigurationError(f"bad --param {item!r}, expected KEY=VALUE")
                try:
                    params[key] = float(value)
                except ValueError:
                    raise ConfigurationError(f"bad --param {item!r}, value must be a number")
            # Write only what ingest_csv accepts: finite, positive NAVs.
            try:
                series = generate_synthetic(args.kind, args.n, params, args.seed)
            except (DegenerateInputError, ValueError) as exc:  # non-finite values, sigma < 0
                raise ConfigurationError(f"bad --param values: {exc}")
            bad = np.flatnonzero(series.values <= 0)
            if len(bad):
                raise ConfigurationError(
                    f"synthetic value at index {bad[0]} is {float(series.values[bad[0]])!r}, "
                    "not a positive NAV; raise --param base"
                )
            out_dir.mkdir(parents=True, exist_ok=True)
            target = Path(args.output) if args.output else out_dir / "synthetic.csv"
            write_series_csv(target, series)
            print(f"wrote {len(series)} rows to {target}")
            return EXIT_OK

        series = ingest_csv(args.input)
        if args.command == "analyze":
            d = cmd_analyze(series, out_dir, max_lag=args.max_lag)["stationary_d"]
            print(f"stationary at d={d}" if d is not None
                  else f"not stationary for d<={MAX_DIFFERENCES}")
            return EXIT_OK
        if args.command == "fit-arima":
            model = cmd_fit_arima(series, args.order, out_dir)
            print(f"fitted ARIMA{model.order}; sigma2={model.sigma2:.6g}")
            return EXIT_OK

        spec = (SplitSpec.proportional(len(series)) if args.split is None
                else SplitSpec(*args.split))
        cfg = TrainConfig(seed=args.seed, **{name: getattr(args, name) for _, name in TRAIN_FLAGS})
        if args.command == "fit-hybrid":
            model = cmd_fit_hybrid(series, spec, args.order, cfg, out_dir)
            print(f"fitted hybrid: ARIMA{model.arima.order} + LSTM window {model.window_m}")
            return EXIT_OK
        if args.command == "compare":
            result = cmd_compare(series, spec, cfg, out_dir,
                                 window_L=args.window_L, refit=args.refit,
                                 order=args.order)
            return max(map(_exit_code, result.failures.values()), default=EXIT_OK)
    except NavcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
