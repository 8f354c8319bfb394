"""The benchmark's outside-in tracer, run in-process around small CLI calls.

`bench/spans.py` wraps every public navcast function; these tests read its
spans to pin how often each layer runs per `compare` and per `fit-arima`, and
check that `Tracer.restore` leaves every navcast name as it was.
"""

import importlib.util
import inspect
import math
import sys
from pathlib import Path

import pytest

import navcast.arima as arima_mod
from navcast.cli import EXIT_OK, generate_synthetic, main, write_series_csv
from navcast.series import SplitSpec

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
N = 180


def load_spans():
    spec = importlib.util.spec_from_file_location("navcast_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def navcast_functions():
    return {
        (name, attr): obj
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "navcast" or name.startswith("navcast."))
        for attr, obj in vars(mod).items()
        if inspect.isfunction(obj)
    }


@pytest.fixture
def traced_main():
    """Run `navcast.cli.main(argv)` under the tracer; yields (run, the spans module).

    run(argv) returns the recorded spans.  On teardown every navcast name must
    be bound as it was before.
    """
    spans_mod = load_spans()
    before = navcast_functions()

    def run(argv):
        tracer = spans_mod.Tracer()
        tracer.install()
        try:
            code = main(argv)
        finally:
            tracer.restore()
        assert code == EXIT_OK
        return tracer.spans

    yield run, spans_mod
    after = navcast_functions()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.fixture
def traced_compare(tmp_path, traced_main):
    """Run one compare under the tracer; returns (run, the spans module)."""
    run_main, spans_mod = traced_main
    csv = tmp_path / "series.csv"
    write_series_csv(csv, generate_synthetic(
        "linear-plus-sine", N, {"sigma": 0.03, "amplitude": 0.3, "period": 25}, seed=3))

    def run(*extra):
        return run_main(["compare", "--input", str(csv), "--out", str(tmp_path / "out"),
                         "--epochs", "5", "--layers", "1", "--hidden", "8",
                         "--window-m", "10", "--batch", "32", *extra])

    return run, spans_mod


def count(spans, name):
    return sum(1 for s in spans if s[0] == name)


def test_fixed_order_refit_compare_fits_and_forecasts_once_per_step(traced_compare):
    run, _ = traced_compare
    spans = run("--order", "1,1,0", "--refit", "arima")
    test_len = SplitSpec.proportional(N).test_len
    # one training-segment fit, then one refit per test step, shared by arima
    # and hybrid
    assert count(spans, "arima.fit") == 1 + test_len
    # each step's forecast and residuals come from one private recursion run
    assert count(spans, "arima.forecast_one") == 0
    assert count(spans, "hybrid.predict_one") == 0
    assert count(spans, "hybrid.fit_hybrid") == 1
    # one residual stream over train + val for the fit; the hybrid walk reads
    # each step's residuals off the arima run
    assert count(spans, "arima.residuals") == 1
    assert count(spans, "lstm.train") == 2
    # the lstm kind runs its net once per step; the hybrid corrects every
    # step in one batched pass, which calls no public forward
    assert count(spans, "lstm.forward") == test_len


@pytest.mark.parametrize("kind, d", [("ar1", 0), ("random-walk", 1)])
def test_the_order_search_tests_no_d_past_the_first_stationary_one(traced_main, tmp_path,
                                                                  kind, d):
    run, _ = traced_main
    csv = tmp_path / "series.csv"
    write_series_csv(csv, generate_synthetic(kind, N, {}, seed=3))
    spans = run(["fit-arima", "--input", str(csv), "--out", str(tmp_path / "out")])
    text = (tmp_path / "out" / "models" / "arima.txt").read_text(encoding="utf-8")
    assert arima_mod.deserialize(text).order.d == d
    assert count(spans, "series.adf_test") == d + 1


def test_auto_order_search_runs_inside_the_arima_evaluation(traced_compare):
    run, spans_mod = traced_compare
    spans = run()
    searches = [s for s in spans if s[spans_mod.NAME] == "arima.select_order"]
    assert len(searches) == 1
    parent = spans[searches[0][spans_mod.PARENT]]
    assert parent[spans_mod.NAME] == "hybrid.sliding_window_evaluate"
    assert parent[spans_mod.INFO]["kind"] == "arima"
    metrics = spans_mod.layer_metrics(spans)
    assert metrics["arima.fit.rolling.calls"] == 0  # the search's fit is reused
    assert metrics["arima.fit.search.calls"] == 36


def test_the_lstm_layer_metrics_read_the_network(traced_compare):
    # spans.py reads each layer's weights (vars(layer)) for the training
    # input digest, and hidden_dim and W_f's shape for the BPTT FLOP count.
    run, spans_mod = traced_compare
    metrics = spans_mod.layer_metrics(run("--order", "1,1,0"))
    gflop_s = metrics["lstm.bptt_gradients.gflop_s_computed"]
    assert math.isfinite(gflop_s) and gflop_s > 0
    assert metrics["lstm.train.distinct_ratio"] == 1.0
