import ctypes
import functools
import importlib
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from navcast.cli import (
    EXIT_ANALYSIS,
    EXIT_INGESTION,
    EXIT_OK,
    EXIT_TRAINING,
    EXIT_USAGE,
    generate_synthetic,
    ingest_csv,
    main,
    write_series_csv,
)
import navcast._blas as blas_mod
import navcast._fork as _fork
import navcast.arima as arima_mod
import navcast.cli as cli_mod
import navcast.lstm as lstm_mod
from navcast.errors import (
    AnalysisError,
    ConfigurationError,
    DegenerateInputError,
    FitError,
    IngestionError,
    NumericalError,
)
from navcast.hybrid import SEED_OFFSETS, failure_message
from navcast.series import SplitSpec, TimeSeries, acf, fit_scale
from conftest import assert_no_children


class TestIngestCsv:
    def write(self, tmp_path, text):
        p = tmp_path / "in.csv"
        p.write_text(text, encoding="utf-8")
        return p

    def test_valid_two_rows(self, tmp_path):
        p = self.write(tmp_path, "date,nav\n2021-07-29,1.5\n2021-07-30,1.6\n")
        s = ingest_csv(p)
        assert len(s) == 2
        assert s.values.tolist() == [1.5, 1.6]

    def test_bad_value_names_line(self, tmp_path):
        p = self.write(tmp_path, "date,nav\n2021-07-30,abc\n2021-07-31,1.0\n")
        with pytest.raises(IngestionError, match="line 2"):
            ingest_csv(p)

    def test_bad_date_names_line(self, tmp_path):
        p = self.write(tmp_path, "date,nav\n2021-07-30,1.0\nnot-a-date,1.1\n")
        with pytest.raises(IngestionError, match="line 3"):
            ingest_csv(p)

    def test_duplicate_date(self, tmp_path):
        p = self.write(tmp_path, "date,nav\n2021-07-30,1.0\n2021-07-30,1.1\n")
        with pytest.raises(IngestionError, match="duplicate"):
            ingest_csv(p)

    def test_negative_nav(self, tmp_path):
        p = self.write(tmp_path, "date,nav\n2021-07-30,1.0\n2021-07-31,-0.5\n")
        with pytest.raises(IngestionError, match="positive"):
            ingest_csv(p)

    def test_unsorted_input_sorted(self, tmp_path):
        p = self.write(tmp_path, "date,nav\n2021-07-31,1.6\n2021-07-30,1.5\n")
        s = ingest_csv(p)
        assert s.values.tolist() == [1.5, 1.6]

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError):
            ingest_csv(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        with pytest.raises(IngestionError):
            ingest_csv(self.write(tmp_path, ""))

    def test_bytes_that_are_not_utf8_name_the_file_and_offset(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_bytes(b"date,nav\n2021-07-29,1.5\n\xff\xfe\n")
        with pytest.raises(IngestionError, match=r"in\.csv: byte 24: not UTF-8"):
            ingest_csv(p)

    def test_a_byte_order_mark_before_the_header_is_read(self, tmp_path):
        text = "date,nav\n2021-07-29,1.5\n2021-07-30,1.6\n"
        plain = ingest_csv(self.write(tmp_path, text))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        series = ingest_csv(marked)
        assert series.timestamps == plain.timestamps
        assert series.values.tobytes() == plain.values.tobytes()
        # A decode error still names its byte offset in the file, mark included.
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8") + b"\xff\n")
        with pytest.raises(IngestionError, match=r"marked\.csv: byte 42: not UTF-8"):
            ingest_csv(marked)

    def test_blank_lines_are_skipped_and_still_counted(self, tmp_path):
        s = ingest_csv(self.write(tmp_path, "date,nav\n\n2021-07-29,1.5\n   \n2021-07-30,1.6\n"))
        assert s.values.tolist() == [1.5, 1.6]
        with pytest.raises(IngestionError, match="line 4: bad nav value"):
            ingest_csv(self.write(tmp_path, "date,nav\n\n2021-07-29,1.5\n2021-07-30,abc\n"))

    def test_paper_scale_file(self, tmp_path):
        s = generate_synthetic("random-walk", 1260, {"sigma": 0.02}, seed=0)
        p = tmp_path / "nav.csv"
        write_series_csv(p, s)
        loaded = ingest_csv(p)
        assert len(loaded) == 1260
        from navcast.series import split
        parts = split(loaded, SplitSpec(900, 100, 260))
        assert [len(x) for x in parts] == [900, 100, 260]


class TestGenerateSynthetic:
    def test_seeded_repeatability(self):
        a = generate_synthetic("random-walk", 100, seed=5)
        b = generate_synthetic("random-walk", 100, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_ar1_is_the_recurrence_bitwise(self):
        for phi in (0.6, -0.5, 0.95):
            for seed in (0, 1, 19):
                for n in (30, 2000):
                    shocks = np.random.default_rng(seed).normal(0.0, 0.01, n)
                    x = np.empty(n)
                    x[0] = 0.0
                    for t in range(1, n):
                        x[t] = phi * x[t - 1] + shocks[t]
                    got = generate_synthetic("ar1", n, {"phi": phi}, seed=seed).values
                    assert got.tobytes() == (2.0 + x).tobytes()

    def test_ar1_phi_zero_is_white_noise(self):
        s = generate_synthetic("ar1", 5000, {"phi": 0.0}, seed=6)
        lag1 = acf(s.values, 1)[0]
        assert abs(lag1.value) <= lag1.confidence_bound

    def test_random_walk_drift_recovered(self):
        drift, sigma, n = 0.01, 0.05, 5000
        s = generate_synthetic("random-walk", n, {"drift": drift, "sigma": sigma}, seed=7)
        diffs = np.diff(s.values)
        assert abs(diffs.mean() - drift) < 3 * sigma / np.sqrt(n)

    def test_unknown_kind(self):
        from navcast.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            generate_synthetic("brownian-bridge", 100)

    def test_unknown_param(self):
        from navcast.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            generate_synthetic("ar1", 100, {"rho": 0.5})

    def test_too_short(self):
        from navcast.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            generate_synthetic("random-walk", 10)


class TestAnalyzeCommand:
    def test_random_walk_artifacts(self, tmp_path):
        s = generate_synthetic("random-walk", 400, {"sigma": 0.02}, seed=8)
        csv = tmp_path / "rw.csv"
        write_series_csv(csv, s)
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(csv), "--out", str(out)])
        assert code == EXIT_OK
        adf = json.loads((out / "adf.json").read_text())
        assert adf["0"]["is_stationary_5pct"] is False
        assert adf["1"]["is_stationary_5pct"] is True
        for name in ("acf.csv", "pacf.csv", "diff.csv"):
            lines = (out / name).read_text().strip().splitlines()
            assert len(lines) > 1  # header plus data

    def test_outputs_reread_by_tool(self, tmp_path):
        s = generate_synthetic("random-walk", 300, {"sigma": 0.02}, seed=9)
        csv = tmp_path / "rw.csv"
        write_series_csv(csv, s)
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(csv), "--out", str(out)]) == EXIT_OK
        for name in ("acf.csv", "pacf.csv"):
            rows = (out / name).read_text().strip().splitlines()[1:]
            for row in rows:
                lag, value, bound = row.split(",")
                int(lag), float(value), float(bound)

    def test_white_noise_stationary_at_d0(self, tmp_path):
        s = generate_synthetic("ar1", 300, {"phi": 0.0, "sigma": 0.05}, seed=10)
        csv = tmp_path / "wn.csv"
        write_series_csv(csv, s)
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(csv), "--out", str(out)]) == EXIT_OK
        adf = json.loads((out / "adf.json").read_text())
        assert adf["0"]["is_stationary_5pct"] is True

    @pytest.mark.parametrize("kind, params, d", [
        ("random-walk", {"sigma": 0.02}, 1), ("ar1", {}, 0),
        ("linear-plus-sine", {"sigma": 0.03, "amplitude": 0.3, "period": 25}, 1)])
    def test_stationary_d_is_the_order_search_d(self, tmp_path, kind, params, d):
        s = generate_synthetic(kind, 300, params, seed=11)
        assert cli_mod.cmd_analyze(s, tmp_path / "out")["stationary_d"] == d
        assert arima_mod.select_order(s).chosen.d == d

    @pytest.mark.parametrize("max_lag, code", [("-1", EXIT_USAGE), ("150", EXIT_ANALYSIS)])
    def test_a_failing_correlogram_writes_nothing(self, tmp_path, capsys, max_lag, code):
        # -1 is a usage error; 150 lags of a 199-point differenced series
        # pass the ACF but not the PACF's half-length limit.
        csv = tmp_path / "rw.csv"
        write_series_csv(csv, generate_synthetic("random-walk", 200, {"sigma": 0.02}, seed=8))
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(csv), "--out", str(out),
                     "--max-lag", max_lag]) == code
        assert "max_lag" in capsys.readouterr().err
        assert not out.exists()


class TestCompareCommand:
    def run_compare(self, tmp_path, seed=7, n=180, extra=()):
        s = generate_synthetic(
            "linear-plus-sine", n, {"sigma": 0.03, "amplitude": 0.3, "period": 25},
            seed=3,
        )
        csv = tmp_path / "series.csv"
        write_series_csv(csv, s)
        out = tmp_path / f"out-{seed}-{len(extra)}"
        args = [
            "compare", "--input", str(csv), "--out", str(out),
            "--seed", str(seed), "--epochs", "5", "--layers", "1",
            "--hidden", "8", "--window-m", "10", "--batch", "32",
        ] + list(extra)
        code = main(args)
        return code, out

    def test_artifacts_written(self, tmp_path):
        code, out = self.run_compare(tmp_path)
        assert code == EXIT_OK
        assert (out / "predictions.csv").exists()
        assert (out / "metrics.json").exists()
        assert (out / "models" / "arima.txt").exists()
        assert (out / "models" / "lstm.txt").exists()
        header = (out / "predictions.csv").read_text().splitlines()[0]
        assert header == "date,actual,arima,lstm,hybrid"

    def test_metrics_schema(self, tmp_path):
        _, out = self.run_compare(tmp_path)
        payload = json.loads((out / "metrics.json").read_text())
        assert set(payload) >= {"segment", "rows", "best"}
        assert {r["model"] for r in payload["rows"]} == {"arima", "lstm", "hybrid"}
        for row in payload["rows"]:
            assert set(row) == {"model", "mse", "mae", "rmse", "n"}

    def test_forced_010_is_persistence_plus_drift(self, tmp_path):
        code, out = self.run_compare(tmp_path, extra=["--order", "0,1,0"])
        assert code == EXIT_OK
        rows = (out / "predictions.csv").read_text().strip().splitlines()[1:]
        actuals = [float(r.split(",")[1]) for r in rows]
        arima_preds = [float(r.split(",")[2]) for r in rows]
        steps = np.diff(np.array(arima_preds)) - np.diff(np.array(actuals[:-1] + [actuals[-1]]))
        # prediction at t equals actual at t-1 plus a constant drift
        drift = np.array(arima_preds[1:]) - np.array(actuals[:-1])
        assert np.allclose(drift, drift[0], atol=1e-12)

    def test_determinism_bytewise(self, tmp_path):
        _, out1 = self.run_compare(tmp_path, seed=7)
        _, out2 = self.run_compare(tmp_path, seed=7, extra=["--refit", "none"])
        assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()
        assert (out1 / "predictions.csv").read_bytes() == (out2 / "predictions.csv").read_bytes()

    def test_one_order_search_and_two_trainings(self, tmp_path, call_log):
        call_log.record(arima_mod, "select_order")
        call_log.record(lstm_mod, "train")  # a call in a training worker counts too
        code, _ = self.run_compare(tmp_path)
        assert code == EXIT_OK
        names = call_log.lines()
        calls = {name: names.count(name) for name in ("select_order", "train")}
        assert calls == {"select_order": 1, "train": 2}

    def test_the_training_worker_writes_the_bytes_of_an_in_process_compare(self, tmp_path,
                                                                           monkeypatch, call_log):
        call_log.record(lstm_mod, "train", lambda *args, **kwargs: str(os.getpid()))
        outputs = {}
        for spare_cpu in (False, True):
            monkeypatch.setattr(_fork, "spare_cpu", lambda spare=spare_cpu: spare)
            code, out = self.run_compare(tmp_path)
            assert code == EXIT_OK
            trainers = set(call_log.lines())
            assert len(trainers) == (2 if spare_cpu else 1)  # the worker is another process
            outputs[spare_cpu] = {p.relative_to(out): p.read_bytes()
                                  for p in sorted(out.rglob("*")) if p.is_file()}
            out.rename(tmp_path / f"spare-cpu-{spare_cpu}")
            call_log.clear()
        assert len(outputs[True]) == 4
        assert outputs[True] == outputs[False]

    def failing_training_of(self, monkeypatch, kind, seed=7):
        """Make the training of model kind `kind` raise FitError; each kind
        trains in its own worker, picked out by the kind's seed."""
        original = lstm_mod.train

        def failing_train(net, data, cfg, **kwargs):
            if cfg.seed - SEED_OFFSETS[kind] == seed:
                raise FitError("worker training diverged")
            return original(net, data, cfg, **kwargs)
        monkeypatch.setattr(lstm_mod, "train", failing_train)
        monkeypatch.setattr(_fork, "spare_cpu", lambda: True)

    def test_a_fit_error_in_the_training_worker_fails_the_lstm_kind(self, tmp_path, monkeypatch,
                                                                    capsys):
        self.failing_training_of(monkeypatch, "lstm")
        code, out = self.run_compare(tmp_path, extra=["--order", "1,1,0"])
        assert code == EXIT_TRAINING
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["failed"] == {"lstm": "FitError: worker training diverged"}
        assert [r["model"] for r in payload["rows"]] == ["arima", "hybrid"]
        assert "FAILED lstm: FitError: worker training diverged\n" in capsys.readouterr().out

    def test_a_fit_error_in_the_hybrids_worker_fails_only_the_hybrid(self, tmp_path, monkeypatch,
                                                                    capsys):
        self.failing_training_of(monkeypatch, "hybrid")
        code, out = self.run_compare(tmp_path, extra=["--order", "1,1,0"])
        assert code == EXIT_TRAINING
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["failed"] == {"hybrid": "FitError: worker training diverged"}
        assert [r["model"] for r in payload["rows"]] == ["arima", "lstm"]
        assert "FAILED hybrid: FitError: worker training diverged\n" in capsys.readouterr().out
        assert [p.name for p in (out / "models").iterdir()] == ["arima.txt"]

    def test_a_refit_error_while_the_hybrid_trains_fails_arima_and_hybrid(self, tmp_path,
                                                                         monkeypatch):
        # The hybrid's net would train for a minute in its worker: the refit
        # failure must end that worker, not wait for it.
        original_train, original_fit, parent = lstm_mod.train, arima_mod.fit, os.getpid()

        def stalling_train(net, data, cfg, **kwargs):
            if os.getpid() != parent and cfg.seed - SEED_OFFSETS["hybrid"] == 7:
                time.sleep(60)
            return original_train(net, data, cfg, **kwargs)

        def failing_refit(series, order):
            if len(series) == 60:  # a trailing window of --window-L 60
                raise FitError("refit diverged")
            return original_fit(series, order)
        monkeypatch.setattr(lstm_mod, "train", stalling_train)
        monkeypatch.setattr(arima_mod, "fit", failing_refit)
        monkeypatch.setattr(_fork, "spare_cpu", lambda: True)
        started = time.monotonic()
        code, out = self.run_compare(
            tmp_path, extra=["--order", "1,1,0", "--refit", "arima", "--window-L", "60"])
        assert time.monotonic() - started < 30
        assert_no_children()
        assert code == EXIT_TRAINING
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["failed"] == {"arima": "FitError: refit diverged",
                                     "hybrid": "FitError: refit diverged"}
        assert [r["model"] for r in payload["rows"]] == ["lstm"]

    def test_models_are_the_training_segment_hybrid_under_refit(self, tmp_path):
        from dataclasses import replace

        from navcast.hybrid import SEED_OFFSETS, fit_hybrid
        from navcast.lstm import TrainConfig

        seed = 7
        code, out = self.run_compare(tmp_path, seed=seed, extra=["--refit", "arima"])
        assert code == EXIT_OK
        # Reference: the hybrid fitted again on its own, as compare did before
        # it wrote models/ from the evaluated run.
        series = ingest_csv(tmp_path / "series.csv")
        spec = SplitSpec.proportional(len(series))
        cfg = TrainConfig(epochs=5, layers=1, hidden_dim=8, window_m=10, batch_size=32, seed=seed)
        train = series.slice(0, spec.train_len)
        val = series.slice(spec.train_len, spec.train_len + spec.val_len)
        train_fit = arima_mod.fit(train, arima_mod.select_order(train).chosen)
        ref = fit_hybrid(train, val, train_fit, replace(cfg, seed=seed + SEED_OFFSETS["hybrid"]))
        assert (out / "models" / "arima.txt").read_text() == arima_mod.serialize(ref.arima)
        assert (out / "models" / "lstm.txt").read_text() == lstm_mod.serialize(ref.residual_net)

    def test_fit_hybrid_writes_the_models_of_compare(self, tmp_path):
        code, out = self.run_compare(tmp_path)
        assert code == EXIT_OK
        fit_out = tmp_path / "fit-hybrid"
        assert main(["fit-hybrid", "--input", str(tmp_path / "series.csv"), "--out", str(fit_out),
                     "--seed", "7", "--epochs", "5", "--layers", "1", "--hidden", "8",
                     "--window-m", "10", "--batch", "32"]) == EXIT_OK
        for name in ("arima.txt", "lstm.txt"):
            assert (fit_out / "models" / name).read_bytes() == (out / "models" / name).read_bytes()

    def test_one_arima_walk_under_refit(self, tmp_path, monkeypatch):
        original, calls = arima_mod.fit, []

        def counting_fit(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        monkeypatch.setattr(arima_mod, "fit", counting_fit)
        code, _ = self.run_compare(tmp_path, extra=["--order", "1,1,0", "--refit", "arima"])
        assert code == EXIT_OK
        test_len = SplitSpec.proportional(180).test_len
        # the arima kind's training fit and one refit per test step; the
        # hybrid reuses the arima kind's training fit and refits
        assert len(calls) == 1 + test_len

    def test_failed_refit_fails_arima_and_hybrid_once(self, tmp_path, monkeypatch):
        original, refits = arima_mod.fit, []

        def failing_refit(series, order):
            if len(series) == 60:  # a trailing window of --window-L 60
                refits.append(1)
                raise FitError("refit diverged")
            return original(series, order)
        monkeypatch.setattr(arima_mod, "fit", failing_refit)
        code, out = self.run_compare(
            tmp_path, extra=["--order", "1,1,0", "--refit", "arima", "--window-L", "60"])
        assert code == EXIT_TRAINING
        assert refits == [1]
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["failed"] == {"arima": "FitError: refit diverged",
                                     "hybrid": "FitError: refit diverged"}
        assert [r["model"] for r in payload["rows"]] == ["lstm"]

    def test_arima_model_is_written_when_only_the_hybrid_fails(self, tmp_path, call_log):
        # ARIMA(5,1,5) on 10-value windows leaves 4 residuals per step, fewer
        # than the net's window of 5: the hybrid fails, the arima kind does not.
        # The hybrid refuses before it trains a net: only the lstm kind's seed
        # trains, in this process or in a forked worker.
        call_log.record(lstm_mod, "train", lambda net, data, cfg, **kwargs: str(cfg.seed))
        series = generate_synthetic("linear-plus-sine", 400, {"base": 10.0}, seed=0)
        csv, out = tmp_path / "s.csv", tmp_path / "o"
        write_series_csv(csv, series)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the ARIMA(5,1,5) fit is non-stationary
            code = main(["compare", "--input", str(csv), "--out", str(out), "--epochs", "1",
                         "--layers", "1", "--hidden", "4", "--window-m", "5",
                         "--order", "5,1,5", "--window-L", "10"])
            train_fit = arima_mod.fit(series.slice(0, SplitSpec.proportional(400).train_len),
                                      arima_mod.ArimaOrder(5, 1, 5))
        assert code == EXIT_ANALYSIS
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["failed"] == {
            "hybrid": "DegenerateInputError: need 5 recent residuals, got 4"}
        assert [p.name for p in (out / "models").iterdir()] == ["arima.txt"]
        assert (out / "models" / "arima.txt").read_text() == arima_mod.serialize(train_fit)
        assert call_log.lines() == [str(SEED_OFFSETS["lstm"])]

    def test_model_files_deserializable(self, tmp_path):
        _, out = self.run_compare(tmp_path)
        arima_mod.deserialize((out / "models" / "arima.txt").read_text())
        lstm_mod.deserialize((out / "models" / "lstm.txt").read_text())


# The generator parameters of each synthetic kind, the range a typical value of
# each is drawn from, and values at and past the edges of float64.
SYNTH_PARAMS = {"random-walk": ("base", "drift", "sigma"),
                "linear-plus-sine": ("base", "drift", "sigma", "amplitude", "period"),
                "ar1": ("base", "phi", "sigma")}
PARAM_RANGES = {"base": (-2.0, 20.0), "drift": (-0.1, 0.1), "sigma": (0.0, 1.0),
                "amplitude": (0.0, 5.0), "period": (-100.0, 100.0), "phi": (-1.5, 1.5)}
EXTREME_FLOATS = [0.0, -0.0, 5e-324, 1e-300, -1.0, 1e300, -1e300, 1.7976931348623157e308,
                  np.nan, np.inf, -np.inf]


def synth_param(key):
    return st.one_of(st.floats(*PARAM_RANGES[key]), st.sampled_from(EXTREME_FLOATS))


class TestSynthCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "o"
        code = main(["synth", "--kind", "ar1", "--n", "100", "--seed", "3",
                     "--out", str(out)])
        assert code == EXIT_OK
        s = ingest_csv(out / "synthetic.csv")
        assert len(s) == 100

    def test_param_flag(self, tmp_path):
        out = tmp_path / "o"
        code = main(["synth", "--kind", "random-walk", "--n", "50",
                     "--param", "sigma=0.001", "--out", str(out)])
        assert code == EXIT_OK
        s = ingest_csv(out / "synthetic.csv")
        assert np.max(np.abs(np.diff(s.values))) < 0.01


    def test_output_writes_only_where_it_is_told(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--n", "40", "--output", "new/deep/x.csv"]) == EXIT_OK
        assert len(ingest_csv(tmp_path / "new" / "deep" / "x.csv")) == 40
        assert [p.name for p in tmp_path.iterdir()] == ["new"]

    def test_non_positive_values_refused(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["synth", "--kind", "linear-plus-sine", "--n", "300",
                     "--param", "amplitude=4", "--param", "sigma=0.001",
                     "--param", "period=25", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "index 15" in capsys.readouterr().err
        assert not out.exists()

    def test_extreme_parameters_are_refused_without_numpy_warnings(self, tmp_path, capsys):
        # period=0 divides by zero, and the sine of the result is NaN.
        target = tmp_path / "s.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["synth", "--kind", "linear-plus-sine", "--n", "40",
                         "--param", "period=0", "--param", "base=10",
                         "--out", str(tmp_path), "--output", str(target)])
        assert code == EXIT_USAGE
        assert "non-finite" in capsys.readouterr().err
        assert not target.exists()
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(SYNTH_PARAMS)), n=st.integers(30, 400),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_writes_only_what_ingest_accepts(self, kind, n, seed, data):
        # synth either refuses (exit 2, no CSV) or writes a CSV that ingest_csv
        # reads back bit for bit as the series generate_synthetic makes.
        params = {key: data.draw(synth_param(key), label=key) for key in SYNTH_PARAMS[kind]}
        flags = [f for key, value in params.items() for f in ("--param", f"{key}={value!r}")]
        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp) / "s.csv"
            code = main(["synth", "--kind", kind, "--n", str(n), "--seed", str(seed),
                         "--out", tmp, "--output", str(target)] + flags)
            if code == EXIT_USAGE:
                assert not target.exists()
            else:
                assert code == EXIT_OK
                written, expected = ingest_csv(target), generate_synthetic(kind, n, params, seed)
                assert written.timestamps == expected.timestamps
                assert written.values.tobytes() == expected.values.tobytes()


class TestExitCodes:
    def test_missing_input_file(self, tmp_path):
        code = main(["analyze", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_INGESTION

    def test_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    @pytest.mark.parametrize("text, message", [
        ("Date,NAV\n2021-07-29,1.5\n2021-07-30,1.6\n", "line 1: expected header 'date,nav'"),
        ("date,nav\n2021-07-29;1.5\n2021-07-30,1.6\n",
         "line 2: expected 2 comma-separated fields"),
        ("date,nav\n2021-07-29,1.5\n2021-07-30,1.6,1.7\n",
         "line 3: expected 2 comma-separated fields"),
        ("date,nav\n2021-07-29,1.5\n\n", "need at least 2 data rows"),
    ], ids=["header", "one-field", "three-fields", "one-row"])
    def test_a_malformed_input_is_an_ingestion_error(self, tmp_path, capsys, text, message):
        csv, out = tmp_path / "in.csv", tmp_path / "o"
        csv.write_text(text, encoding="utf-8")
        assert main(["analyze", "--input", str(csv), "--out", str(out)]) == EXIT_INGESTION
        assert capsys.readouterr().err == f"error: {csv}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--split", "100,50", "split must be A,B,C"),
        ("--split", "100,50,x", "split parts must be integers"),
        ("--order", "1,1", "order must be 'auto' or p,d,q"),
        ("--order", "1,a,0", "order parts must be non-negative integers, got '1,a,0'"),
        ("--order", "1,1,-1", "order parts must be non-negative integers, got '1,1,-1'"),
    ])
    def test_a_malformed_split_or_order_is_a_usage_error(self, tmp_path, capsys, flag, value,
                                                          message):
        csv, out = tmp_path / "s.csv", tmp_path / "o"
        write_series_csv(csv, generate_synthetic("random-walk", 200, seed=0))
        assert main(["compare", "--input", str(csv), "--out", str(out), flag, value]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: argument {flag}: {message}\n" in err
        assert "_parse" not in err
        assert not out.exists()

    def test_a_synth_param_without_a_value_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["synth", "--param", "sigma", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: bad --param 'sigma', expected KEY=VALUE\n"
        assert not out.exists()

    def test_a_series_not_stationary_after_two_differences(self, tmp_path, capsys):
        # Three cumulative sums of noise: its second difference is a random walk.
        noise = np.random.default_rng(0).normal(0.0, 0.01, 120)
        csv = tmp_path / "s.csv"
        write_series_csv(csv, TimeSeries.from_values(1e3 + np.cumsum(np.cumsum(np.cumsum(noise)))))
        out = tmp_path / "fit"
        assert main(["fit-arima", "--input", str(csv), "--out", str(out)]) == EXIT_ANALYSIS
        assert capsys.readouterr().err == ("error: series is not stationary after up to 2 "
                                           "differences; unsuitable for ARIMA modelling\n")
        assert not out.exists()
        out = tmp_path / "analyze"
        assert main(["analyze", "--input", str(csv), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == "not stationary for d<=2\n"
        adf = json.loads((out / "adf.json").read_text())
        assert [adf[d]["is_stationary_5pct"] for d in "012"] == [False] * 3

    def test_non_numeric_synth_param(self, tmp_path, capsys):
        code = main(["synth", "--param", "sigma=abc", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "sigma=abc" in capsys.readouterr().err

    def test_fit_hybrid_has_no_evaluation_flags(self, tmp_path):
        for flag in (["--refit", "arima"], ["--window-L", "60"]):
            argv = ["fit-hybrid", "--input", str(tmp_path / "x.csv")] + flag
            assert main(argv) == EXIT_USAGE

    def test_fit_hybrid_split_must_cover_the_series(self, tmp_path):
        csv = tmp_path / "s.csv"
        write_series_csv(csv, generate_synthetic("random-walk", 400, {"base": 10.0}, seed=0))
        out = tmp_path / "o"
        code = main(["fit-hybrid", "--input", str(csv), "--out", str(out),
                     "--split", "100,50,10", "--order", "0,1,0", "--epochs", "1",
                     "--layers", "1", "--hidden", "4", "--window-m", "5"])
        assert code == EXIT_USAGE
        assert not (out / "models").exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_a_non_finite_learning_rate_is_a_usage_error(self, tmp_path, capsys, lr):
        csv = tmp_path / "s.csv"
        write_series_csv(csv, generate_synthetic("random-walk", 200, seed=0))
        out = tmp_path / "o"
        code = main(["fit-hybrid", "--input", str(csv), "--out", str(out),
                     "--order", "1,1,0", "--lr", lr, "--epochs", "2",
                     "--layers", "1", "--hidden", "4"])
        assert code == EXIT_USAGE
        assert "learning rate must be finite and positive" in capsys.readouterr().err
        assert not (out / "models").exists()

    def test_compare_window_L_below_one_trains_nothing(self, tmp_path, monkeypatch, call_log):
        # A walk that no kind can take is refused before any net trains, in
        # this process or in a training worker.
        call_log.record(lstm_mod, "train")
        monkeypatch.setattr(_fork, "spare_cpu", lambda: True)
        csv = tmp_path / "s.csv"
        write_series_csv(csv, generate_synthetic("random-walk", 200, {"base": 10.0}, seed=0))
        for walk in (["--window-L", "0"], ["--split", "100,50,10"]):
            code = main(["compare", "--input", str(csv), "--out", str(tmp_path / "o"), *walk,
                         "--order", "0,1,0", "--epochs", "1",
                         "--layers", "1", "--hidden", "4", "--window-m", "5"])
            assert code == EXIT_USAGE, walk
            assert call_log.lines() == [], walk

    def test_compare_failing_every_kind_names_the_cause_and_writes_nothing(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        write_series_csv(csv, generate_synthetic("random-walk", 200, {"base": 10.0}, seed=0))
        out = tmp_path / "o"
        code = main(["compare", "--input", str(csv), "--out", str(out),
                     "--window-L", "0", "--order", "0,1,0", "--epochs", "1",
                     "--layers", "1", "--hidden", "4", "--window-m", "5"])
        assert code == EXIT_USAGE
        assert "window_L must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_failing_every_kind_exits_with_the_highest_code(self, tmp_path, monkeypatch,
                                                                    capsys):
        def failing(*args, **kwargs):
            raise NumericalError("stage failed")
        monkeypatch.setattr(arima_mod, "adf_test", failing)  # fails arima, and so hybrid
        monkeypatch.setattr(lstm_mod, "train", failing)
        csv = tmp_path / "s.csv"
        write_series_csv(csv, generate_synthetic("random-walk", 200, {"base": 10.0}, seed=0))
        out = tmp_path / "o"
        code = main(["compare", "--input", str(csv), "--out", str(out), "--epochs", "1",
                     "--layers", "1", "--hidden", "4", "--window-m", "5"])
        assert code == EXIT_ANALYSIS
        err = capsys.readouterr().err
        assert "all three model evaluations failed (" in err
        assert err.count("NumericalError: stage failed") == 3
        assert not out.exists()

    def test_a_search_that_chooses_nothing_names_the_first_failure(self, tmp_path, monkeypatch,
                                                                   capsys):
        # Every candidate's CSS overflows at this scale; ADF refuses such
        # values, so d = 0 is given.
        monkeypatch.setattr(arima_mod, "adf_test",
                            lambda w: SimpleNamespace(is_stationary_5pct=True))
        csv = tmp_path / "s.csv"
        values = 1e160 * np.random.default_rng(17).uniform(1.0, 3.0, 60)
        write_series_csv(csv, TimeSeries.from_values(values))
        # A candidate's fit failure reads the same from the search's worker.
        for spare_cpu in (False, True):
            monkeypatch.setattr(_fork, "spare_cpu", lambda spare=spare_cpu: spare)
            code = main(["fit-arima", "--input", str(csv), "--out", str(tmp_path / "o")])
            assert code == EXIT_ANALYSIS, spare_cpu
            err = capsys.readouterr().err
            assert "36 raised" in err and "FitError" in err and "overflows" in err, spare_cpu

    def test_training_divergence(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        write_series_csv(csv, generate_synthetic("random-walk", 200, seed=0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["fit-hybrid", "--input", str(csv), "--out", str(tmp_path / "o"),
                         "--order", "1,1,0", "--lr", "1e300", "--epochs", "3",
                         "--layers", "1", "--hidden", "4"])
        assert code == EXIT_TRAINING
        assert "non-finite gradient" in capsys.readouterr().err
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_a_non_finite_loss_is_a_training_failure(self, tmp_path):
        # One batch in one epoch: the gradients stay finite, and the update
        # they make overflows the validation loss.
        csv = tmp_path / "s.csv"
        write_series_csv(csv, generate_synthetic("random-walk", 200, seed=0))
        flags = ["--input", str(csv), "--order", "1,1,0", "--lr", "1e300", "--epochs", "1",
                 "--batch", "1000", "--layers", "1", "--hidden", "4"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["fit-hybrid", "--out", str(tmp_path / "fit")] + flags) == EXIT_TRAINING
            assert main(["compare", "--out", str(tmp_path / "cmp")] + flags) == EXIT_TRAINING
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert not (tmp_path / "fit").exists()

        def refuse(constant):
            raise ValueError(f"metrics.json holds {constant}")
        metrics = json.loads((tmp_path / "cmp" / "metrics.json").read_text(encoding="utf-8"),
                             parse_constant=refuse)
        assert [row["model"] for row in metrics["rows"]] == ["arima"]
        assert sorted(metrics["failed"]) == ["hybrid", "lstm"]
        assert all(msg.startswith("FitError: validation loss of epoch 0 is inf")
                   for msg in metrics["failed"].values())

    def test_a_window_m_the_training_segment_cannot_fill_is_a_usage_error(self, tmp_path,
                                                                         capsys, monkeypatch):
        csv = tmp_path / "s.csv"
        write_series_csv(csv, generate_synthetic("random-walk", 500, {"base": 10.0}, seed=1))
        flags = ["--input", str(csv), "--order", "0,1,0", "--epochs", "1", "--layers", "1",
                 "--hidden", "2", "--window-m", "400"]
        # The lstm kind's refusal reads the same from its worker as in process.
        for spare_cpu in (False, True):
            monkeypatch.setattr(_fork, "spare_cpu", lambda spare=spare_cpu: spare)
            out_dir = tmp_path / f"cmp-spare-cpu-{spare_cpu}"
            assert main(["compare", "--out", str(out_dir)] + flags) == EXIT_USAGE, spare_cpu
            out = capsys.readouterr().out
            assert ("FAILED lstm: ConfigurationError: 357 training values cannot fill windows of "
                    "length 400") in out
            assert ("FAILED hybrid: ConfigurationError: 356 training residuals cannot fill "
                    "windows of length 400") in out
        assert main(["fit-hybrid", "--out", str(tmp_path / "fit")] + flags) == EXIT_USAGE

    # The exit code README documents for each NavcastError subclass.
    DOCUMENTED = {IngestionError: EXIT_INGESTION, AnalysisError: EXIT_ANALYSIS,
                  DegenerateInputError: EXIT_ANALYSIS, NumericalError: EXIT_ANALYSIS,
                  FitError: EXIT_TRAINING, ConfigurationError: EXIT_USAGE}
    # Each stage, by every module attribute it is called through.
    STAGES = {
        "ingest_csv": [(cli_mod, "ingest_csv")],
        "adf_test": [(cli_mod, "adf_test"), (arima_mod, "adf_test")],
        "arima.fit": [(arima_mod, "fit")],
        "lstm.train": [(lstm_mod, "train")],
        "compare_models": [(cli_mod, "compare_models")],
    }
    REACHED = {
        "synth": (),
        "analyze": ("ingest_csv", "adf_test"),
        "fit-arima": ("ingest_csv", "adf_test", "arima.fit"),
        "fit-hybrid": ("ingest_csv", "adf_test", "arima.fit", "lstm.train"),
        "compare": tuple(STAGES),
    }

    def documented_code(self, command, stage, error):
        if stage not in self.REACHED[command]:
            return EXIT_OK
        # compare records a failing kind, runs the others and exits with the failing
        # error's code: the code another command gives the same error.
        if stage == "arima.fit":
            return EXIT_ANALYSIS  # every candidate of the order search fails
        return self.DOCUMENTED[error]

    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(sorted(REACHED)), stage=st.sampled_from(sorted(STAGES)),
           error=st.sampled_from(sorted(DOCUMENTED, key=lambda e: e.__name__)))
    def test_a_failing_stage_exits_with_its_documented_code(self, command, stage, error):
        def failing(*args, **kwargs):
            raise error(f"{stage} failed")
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            csv = Path(tmp) / "s.csv"
            write_series_csv(csv, generate_synthetic(
                "linear-plus-sine", 80, {"sigma": 0.03, "amplitude": 0.3, "period": 25}, seed=3))
            for module, name in self.STAGES[stage]:
                mp.setattr(module, name, failing)
            argv = [command, "--out", tmp] + ([] if command == "synth" else ["--input", str(csv)])
            if command in ("fit-hybrid", "compare"):
                argv += ["--epochs", "1", "--layers", "1", "--hidden", "2", "--window-m", "5"]
            assert main(argv) == self.documented_code(command, stage, error)

    @pytest.mark.parametrize("seed", ["-1", "-5"])
    @pytest.mark.parametrize("command", ["synth", "analyze", "fit-arima", "fit-hybrid", "compare"])
    def test_a_negative_seed_is_refused_before_any_work(self, tmp_path, capsys, command, seed):
        csv = tmp_path / "s.csv"
        write_series_csv(csv, generate_synthetic("random-walk", 300, seed=0))
        argv = [command, "--seed", seed, "--out", str(tmp_path / "o")]
        assert main(argv + ([] if command == "synth" else ["--input", str(csv)])) == EXIT_USAGE
        assert (f"error: argument --seed: seed must be a non-negative integer, got '{seed}'"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [csv]

    @pytest.mark.parametrize("command, out", [
        ("synth", "FILE/sub"), ("analyze", "FILE"), ("fit-arima", "FILE/sub"),
        ("fit-hybrid", "FILE"), ("compare", "FILE/sub")])
    def test_an_out_that_cannot_be_a_directory_is_refused_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, out):
        def no_work(*args, **kwargs):
            pytest.fail(f"{command} started work with an unusable --out")
        for module, name in ((cli_mod, "generate_synthetic"), (cli_mod, "adf_test"),
                             (arima_mod, "adf_test"), (arima_mod, "fit"), (lstm_mod, "train")):
            monkeypatch.setattr(module, name, no_work)
        csv = tmp_path / "s.csv"
        write_series_csv(csv, generate_synthetic("random-walk", 300, seed=0))
        (tmp_path / "FILE").write_text("kept\n", encoding="utf-8")
        argv = [command, "--out", str(tmp_path / out)]
        assert main(argv + ([] if command == "synth" else ["--input", str(csv)])) == EXIT_USAGE
        assert capsys.readouterr().err == (f"error: output directory {str(tmp_path / out)!r}: "
                                           f"{str(tmp_path / 'FILE')!r} is not a directory\n")
        assert (tmp_path / "FILE").read_text(encoding="utf-8") == "kept\n"

    def test_a_failed_write_is_a_usage_error(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        write_series_csv(csv, generate_synthetic("random-walk", 300, seed=0))
        out = tmp_path / "o"
        (out / "adf.json").mkdir(parents=True)
        assert main(["analyze", "--input", str(csv), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write outputs: ") and err.count("\n") == 1
        assert main(["synth", "--out", str(tmp_path), "--output", str(out)]) == EXIT_USAGE
        assert "Is a directory" in capsys.readouterr().err

    def test_an_unreadable_input_is_an_ingestion_error(self, tmp_path, capsys, monkeypatch):
        csv = tmp_path / "s.csv"
        write_series_csv(csv, generate_synthetic("random-walk", 300, seed=0))

        def denied(self):
            raise PermissionError(13, "Permission denied", str(self))
        monkeypatch.setattr(Path, "read_bytes", denied)
        code = main(["analyze", "--input", str(csv), "--out", str(tmp_path / "o")])
        assert code == EXIT_INGESTION
        assert capsys.readouterr().err == f"error: {csv}: Permission denied\n"
        assert not (tmp_path / "o").exists()

    def test_analysis_error_on_tiny_series(self, tmp_path):
        p = tmp_path / "tiny.csv"
        p.write_text("date,nav\n2021-01-01,1.0\n2021-01-02,1.1\n", encoding="utf-8")
        code = main(["analyze", "--input", str(p), "--out", str(tmp_path / "o")])
        assert code == EXIT_ANALYSIS

    @pytest.mark.parametrize("lstm_error, hybrid_error, code", [
        (FloatingPointError, NumericalError, EXIT_TRAINING),
        (NumericalError, np.linalg.LinAlgError, EXIT_TRAINING),
        (ConfigurationError, NumericalError, EXIT_ANALYSIS),
        (NumericalError, IngestionError, EXIT_ANALYSIS)])
    def test_compare_exits_with_the_highest_code_of_its_failed_kinds(
            self, tmp_path, monkeypatch, capsys, lstm_error, hybrid_error, code):
        errors = {"lstm": lstm_error("lstm kind failed"),
                  "hybrid": hybrid_error("hybrid kind failed")}
        seed = 0  # compare's default --seed

        def failing_train(net, data, cfg, **kwargs):
            # Each kind trains at its own seed, and each may train in its own
            # forked worker, so no state is shared between the two calls.
            [kind] = [k for k in errors if cfg.seed - SEED_OFFSETS[k] == seed]
            raise errors[kind]
        monkeypatch.setattr(lstm_mod, "train", failing_train)
        csv = tmp_path / "s.csv"
        write_series_csv(csv, generate_synthetic("random-walk", 200, {"base": 10.0}, seed=0))
        out = tmp_path / "o"
        argv = ["compare", "--input", str(csv), "--out", str(out), "--order", "0,1,0",
                "--epochs", "1", "--layers", "1", "--hidden", "4", "--window-m", "5"]
        assert main(argv) == code
        failed = {"lstm": f"{lstm_error.__name__}: lstm kind failed",
                  "hybrid": f"{hybrid_error.__name__}: hybrid kind failed"}
        assert json.loads((out / "metrics.json").read_text())["failed"] == failed
        stdout = capsys.readouterr().out
        assert all(f"FAILED {kind}: {msg}\n" in stdout for kind, msg in failed.items())


def test_the_cli_loads_neither_scipy_signal_nor_scipy_stats(tmp_path):
    # A fresh interpreter, so that no other test's imports count.  Nor does
    # it import scipy.linalg or scipy.optimize: navcast.arima loads the two
    # compiled routines it calls from their files, and a later import of
    # those packages binds the same routines.  Nor do fit-arima, fit-hybrid
    # or compare load a multiprocessing or concurrent module: the order
    # search's worker and compare's training workers are plain forks.
    csv = tmp_path / "s.csv"
    write_series_csv(csv, generate_synthetic("ar1", 60, {"base": 10.0}, seed=0))
    script = (
        "import sys, navcast, navcast.cli\n"
        f"assert navcast.cli.main(['fit-arima', '--input', {str(csv)!r}, "
        f"'--out', {str(tmp_path / 'o')!r}]) == 0\n"
        f"assert navcast.cli.main(['fit-hybrid', '--input', {str(csv)!r}, "
        f"'--out', {str(tmp_path / 'h')!r}, '--epochs', '1', '--layers', '1', "
        "'--hidden', '4', '--window-m', '5']) == 0\n"
        f"assert navcast.cli.main(['compare', '--input', {str(csv)!r}, "
        f"'--out', {str(tmp_path / 'c')!r}, '--epochs', '1', '--layers', '1', "
        "'--hidden', '4', '--window-m', '5']) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.startswith(('scipy.linalg', 'scipy.optimize')))\n"
        "unused = sorted(m for m in sys.modules if m.startswith(('scipy.signal', 'scipy.stats',\n"
        "                                                        'multiprocessing', 'concurrent')))\n"
        "import scipy.linalg.lapack, scipy.optimize\n"
        "print(loaded, navcast.arima.dtbtrs is scipy.linalg.lapack.dtbtrs,\n"
        "      navcast.arima.setulb is scipy.optimize._lbfgsb.setulb)\n"
        "print(unused)\n"
    )
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-2] == "[] True True"
    assert run.stdout.splitlines()[-1] == "[]"


def openblas_thread_pools():
    """(get, set) thread-count functions of numpy's and scipy's OpenBLAS, as found here."""
    pools = []
    for package, suffix in ((np, "64_"), (scipy, "")):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in libs.glob(f"libscipy_openblas{suffix}-*.so*"):
            handle = ctypes.CDLL(str(lib))
            get = getattr(handle, f"scipy_openblas_get_num_threads{suffix}", None)
            set_ = getattr(handle, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                pools.append((get, set_))
    return pools


def missing_library(path):
    raise OSError(f"{path}: cannot open shared object file")


def library_without_symbols(path):
    return SimpleNamespace()


class TestBlasThreads:
    @pytest.fixture
    def counts(self):
        """Puts every pool at two threads for the test and returns a reader of the counts.

        Two threads, so that one thread inside main and a restored count after it
        differ; never more than os.cpu_count().
        """
        pools = openblas_thread_pools()
        if not pools:
            pytest.skip("neither numpy's nor scipy's OpenBLAS thread pool was found")
        if (os.cpu_count() or 1) < 2:
            pytest.skip("one CPU: no count above one to tell a restored pool from main's")
        saved = [get() for get, _ in pools]
        for _, set_threads in pools:
            set_threads(2)
        yield lambda: [get() for get, _ in pools]
        for (_, set_threads), count in zip(pools, saved):
            set_threads(count)

    @pytest.fixture
    def csv(self, tmp_path):
        path = tmp_path / "s.csv"
        write_series_csv(path, generate_synthetic("random-walk", 200, {"base": 10.0}, seed=0))
        return path

    def test_fit_arima_and_compare_run_on_one_thread(self, counts, csv, tmp_path, monkeypatch):
        original, seen = arima_mod.fit, []

        def recording_fit(*args, **kwargs):
            seen.append(counts())
            return original(*args, **kwargs)
        monkeypatch.setattr(arima_mod, "fit", recording_fit)
        for argv in (["fit-arima"],
                     ["compare", "--epochs", "1", "--layers", "1", "--hidden", "4",
                      "--window-m", "5"]):
            seen.clear()
            code = main(argv + ["--input", str(csv), "--out", str(tmp_path / argv[0]),
                                "--order", "0,1,0"])
            assert code == EXIT_OK
            assert seen and all(c == [1] * len(c) for c in seen), (argv[0], seen)

    def test_main_restores_the_counts_it_found(self, counts, csv, tmp_path, monkeypatch):
        before = counts()
        assert before == [2] * len(before)
        assert main(["fit-arima", "--input", str(csv), "--out", str(tmp_path / "ok"),
                     "--order", "0,1,0"]) == EXIT_OK
        assert counts() == before
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("date,nav\n2021-01-01,1.0\n2021-01-02,1.1\n", encoding="utf-8")
        assert main(["analyze", "--input", str(tiny), "--out", str(tmp_path / "a")]) == (
            EXIT_ANALYSIS)
        assert counts() == before

        def broken_fit(*args, **kwargs):
            raise TypeError("broken fit")
        monkeypatch.setattr(arima_mod, "fit", broken_fit)
        with pytest.raises(TypeError, match="broken fit"):
            main(["fit-arima", "--input", str(csv), "--out", str(tmp_path / "t"),
                  "--order", "0,1,0"])
        assert counts() == before

    def test_library_training_runs_on_one_thread_and_restores_the_counts(self, counts,
                                                                          monkeypatch):
        # Every LSTM kernel call goes through _forward_batch: train's, and
        # those of direct bptt_gradients and forward calls.
        original, seen = lstm_mod._forward_batch, []

        def recording_forward_batch(*args, **kwargs):
            seen.append(counts())
            return original(*args, **kwargs)
        monkeypatch.setattr(lstm_mod, "_forward_batch", recording_forward_batch)
        before = counts()
        rng = np.random.default_rng(0)
        values = rng.normal(size=40)
        data = lstm_mod.make_windows(values, 5, fit_scale(values))
        net = lstm_mod.init_network(1, 4, 1, rng)
        calls = {
            "train": lambda: lstm_mod.train(net, data, lstm_mod.TrainConfig(
                epochs=2, batch_size=16, layers=1, hidden_dim=4, window_m=5)),
            "bptt_gradients": lambda: lstm_mod.bptt_gradients(net, data.inputs, data.targets),
            "forward": lambda: lstm_mod.forward(net, data.inputs[0]),
        }
        for name, call in calls.items():
            seen.clear()
            call()
            assert seen and all(c == [1] * len(c) for c in seen), (name, seen)
            assert counts() == before, name

    @pytest.mark.parametrize("spare_cpu", [False, True])
    def test_library_order_search_fits_on_one_thread_and_restores_the_counts(
            self, counts, call_log, monkeypatch, spare_cpu):
        # Every ARIMA fit solves on its band (dtbtrs), in this process or in
        # the search's worker.
        monkeypatch.setattr(_fork, "spare_cpu", lambda: spare_cpu)
        call_log.record(arima_mod, "dtbtrs", lambda *args, **kwargs: repr(counts()))
        before = counts()
        series = generate_synthetic("random-walk", 200, {"base": 10.0}, seed=0)
        calls = {
            "fit": lambda: arima_mod.fit(series, arima_mod.ArimaOrder(1, 1, 1)),
            "select_order": lambda: arima_mod.select_order(series),
        }
        for name, call in calls.items():
            call_log.clear()
            call()
            seen = call_log.lines()
            assert seen and set(seen) == {repr([1] * len(before))}, (name, set(seen))
            assert counts() == before, name
        assert_no_children()

    def test_import_sets_no_thread_count(self, counts):
        before = counts()
        importlib.reload(cli_mod)
        assert counts() == before

    def test_a_pool_already_at_one_thread_is_left_alone(self, monkeypatch):
        # Setting a count restarts a pool that a fork stopped: a forked
        # worker that inherits one thread must not set it again.
        counts, sets = [1, 2], []

        def pool(i):
            def set_threads(n):
                sets.append((i, n))
                counts[i] = n
            return (lambda: counts[i]), set_threads
        monkeypatch.setattr(blas_mod, "openblas_pools", lambda: (pool(0), pool(1)))
        with blas_mod.single_threaded():
            assert counts == [1, 1]
        assert counts == [1, 2]
        assert sets == [(1, 1), (1, 2)]

    @pytest.mark.parametrize("cdll", [missing_library, library_without_symbols])
    def test_without_openblas_fit_arima_writes_the_same_bytes(self, csv, tmp_path,
                                                              monkeypatch, cdll):
        assert main(["fit-arima", "--input", str(csv), "--out", str(tmp_path / "blas")]) == EXIT_OK
        monkeypatch.setattr(blas_mod, "openblas_pools",
                            functools.cache(blas_mod.openblas_pools.__wrapped__))
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert main(["fit-arima", "--input", str(csv), "--out", str(tmp_path / "none")]) == EXIT_OK
        assert blas_mod.openblas_pools() == ()
        assert ((tmp_path / "none" / "models" / "arima.txt").read_bytes()
                == (tmp_path / "blas" / "models" / "arima.txt").read_bytes())

    def test_fit_arima_bits_do_not_depend_on_the_thread_count(self, counts, tmp_path):
        # In process the search runs with two threads per pool, inside main with one.
        series = generate_synthetic("linear-plus-sine", 1260, {
            "sigma": 0.001, "amplitude": 4.0, "period": 25.0, "base": 10.0}, seed=0)
        csv = tmp_path / "paper.csv"
        write_series_csv(csv, series)
        assert main(["fit-arima", "--input", str(csv), "--out", str(tmp_path / "o")]) == EXIT_OK
        in_process = arima_mod.serialize(arima_mod.select_order(ingest_csv(csv)).model)
        assert (tmp_path / "o" / "models" / "arima.txt").read_text(encoding="utf-8") == in_process
