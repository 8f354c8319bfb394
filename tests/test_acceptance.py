"""End-to-end acceptance checks.

Each test prints a single ``criterion NN PASS/FAIL`` line (visible with
``pytest -s``) and then asserts, so a red run still reports every verdict.
The suite is slower than the unit tests; run it alone with

    pytest tests/test_acceptance.py -v -s
"""

import json
import math

import numpy as np
import pytest

import navcast.arima as arima
from navcast.cli import generate_synthetic, main, write_series_csv
from navcast.hybrid import compare_models, sliding_window_evaluate
from navcast.lstm import LstmNetwork, TrainConfig, forward
from navcast.metrics import mae, mse, rmse
from navcast.series import SplitSpec, adf_test, difference

from conftest import as_series, simulate_ar1, simulate_ma1, random_walk
from test_hybrid import audit_walks
from test_lstm import check_gradients, init_random_head, scalar_cell

# Benchmark fixture: a strong seasonal swing over a low-noise walk. The
# AIC-chosen ARMA underfits the differenced sine+noise mix here, leaving
# autocorrelated residuals that persist out of sample, which is exactly the
# structure the residual LSTM is supposed to pick up.
BENCH = {"sigma": 0.001, "amplitude": 4.0, "period": 25}


def report(num, desc, ok):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def bench_series(seed):
    return generate_synthetic("linear-plus-sine", 1260, BENCH, seed=seed)


def test_criterion_01_superposition_identity():
    s = bench_series(seed=0)
    run = sliding_window_evaluate(s, SplitSpec(900, 100, 260), "hybrid",
                                  TrainConfig(seed=0))
    gap = float(np.max(np.abs(run.predictions - run.linear - run.nonlinear)))
    report(1, f"superposition max |yhat - lin - nonlin| = {gap:.3g} < 1e-12",
           gap < 1e-12)


def test_criterion_02_differenced_mean_closed_form():
    ok = True
    for s in (
        as_series(random_walk(200, seed=1, drift=0.01)),
        as_series(np.linspace(1.0, 3.0, 150) + 0.2 * np.sin(np.arange(150) / 7.0)),
        bench_series(seed=2),
    ):
        model = arima.fit(s, arima.ArimaOrder(0, 1, 0))
        expected = s.values[-1] + np.diff(s.values).mean()
        ok &= abs(arima.forecast_one(model, s) - expected) <= 1e-12
    # and across a whole rolling evaluation
    s = as_series(random_walk(200, seed=3, drift=0.005))
    run = sliding_window_evaluate(
        s, SplitSpec(140, 20, 40), "arima",
        TrainConfig(epochs=1, layers=1, hidden_dim=4, window_m=5),
        arima_order=arima.ArimaOrder(0, 1, 0),
    )
    model = arima.fit(s.slice(0, 140), arima.ArimaOrder(0, 1, 0))
    prev = s.values[159:199]
    ok &= bool(np.max(np.abs(run.predictions - (prev + model.intercept))) <= 1e-12)
    report(2, "random-walk-with-drift forecasts match prev + mean(diff)", ok)


def test_criterion_03_parameter_recovery():
    ar_hits = ma_hits = 0
    for seed in range(50):
        m = arima.fit(as_series(simulate_ar1(0.6, 2000, seed=seed)),
                      arima.ArimaOrder(1, 0, 0))
        ar_hits += abs(m.ar_coeffs[0] - 0.6) <= 0.05
        m = arima.fit(as_series(simulate_ma1(0.5, 2000, seed=seed + 1000)),
                      arima.ArimaOrder(0, 0, 1))
        ma_hits += abs(m.ma_coeffs[0] - 0.5) <= 0.08
    report(3, f"AR(1) recovered {ar_hits}/50 (need 45), MA(1) {ma_hits}/50 (need 40)",
           ar_hits >= 45 and ma_hits >= 40)


def test_criterion_04_adf_calibration():
    walk_nonstat = noise_stat = diff_stat = 0
    for seed in range(100):
        walk = random_walk(1000, seed=seed)
        noise = np.random.default_rng(10_000 + seed).normal(size=1000)
        walk_nonstat += not adf_test(walk).is_stationary_5pct
        noise_stat += adf_test(noise).is_stationary_5pct
        diff_stat += adf_test(difference(as_series(walk), 1)).is_stationary_5pct
    report(4, f"ADF: walk non-stationary {walk_nonstat}/100 (need 90), "
              f"noise stationary {noise_stat}/100 (need 95), "
              f"differenced walk stationary {diff_stat}/100 (need 95)",
           walk_nonstat >= 90 and noise_stat >= 95 and diff_stat >= 95)


def test_criterion_05_gradient_fidelity():
    rng = np.random.default_rng(77)
    worst = 0.0
    for hidden, layers, m in ((3, 1, 4), (5, 2, 6)):
        net = init_random_head(hidden, layers, rng)
        X = rng.normal(size=(3, m))
        y = rng.normal(size=3)
        worst = max(worst, check_gradients(net, X, y))
    report(5, f"BPTT vs finite differences, max relative error {worst:.3g} < 1e-4",
           worst < 1e-4)


def test_criterion_06_gate_hand_case():
    # Unit weights, zero biases, x = 1, zero initial state.  By hand, over
    # [h_prev, x] = [0, 1]: f = i = o = sigmoid(1) = 0.7310586,
    # c~ = tanh(1) = 0.7615942, C = f*0 + i*c~ = 0.5567699 and
    # h = o*tanh(C) = 0.7310586 * 0.5055769 = 0.3696064.  A one-layer net of
    # that cell with head weight 1 and bias 0 outputs h for the window [1.0].
    f = i = o = 1.0 / (1.0 + math.exp(-1.0))
    C = f * 0.0 + i * math.tanh(1.0)
    target = o * math.tanh(C)
    net = LstmNetwork(layers=[scalar_cell()], head_w=np.array([1.0]), head_b=0.0)
    h = forward(net, [1.0])
    report(6, f"scalar cell hand case h = {h:.6f}, target {target:.6f} +/- 1e-4",
           abs(h - target) <= 1e-4)


def test_criterion_07_metric_identities():
    rng = np.random.default_rng(4242)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        a, b = rng.normal(size=n), rng.normal(size=n)
        ok &= abs(rmse(a, b) ** 2 - mse(a, b)) < 1e-12
    pred, act = np.array([1.0, 2.0]), np.array([2.0, 4.0])
    ok &= mse(pred, act) == pytest.approx(2.5, abs=1e-12)
    ok &= mae(pred, act) == pytest.approx(1.5, abs=1e-12)
    ok &= rmse(pred, act) == pytest.approx(np.sqrt(2.5), abs=1e-12)
    ok &= round(float(np.sqrt(3.61)), 2) == 1.90
    report(7, "rmse^2 == mse on 1000 pairs; hand case (2.5, 1.5, sqrt 2.5); "
              "sqrt(3.61) rounds to 1.90", ok)


def test_criterion_08_ranking_reproduction():
    wins_vs_arima = wins_vs_lstm = 0
    for seed in range(10):
        res = compare_models(bench_series(seed), SplitSpec(900, 100, 260),
                             TrainConfig(seed=seed))
        by_model = {r.model: r.mse for r in res.report.rows}
        wins_vs_arima += by_model["hybrid"] <= by_model["arima"]
        wins_vs_lstm += by_model["hybrid"] <= by_model["lstm"]
    report(8, f"hybrid beats arima {wins_vs_arima}/10 (need 8), "
              f"beats lstm {wins_vs_lstm}/10 (need 7)",
           wins_vs_arima >= 8 and wins_vs_lstm >= 7)


def test_criterion_09_causality_audit():
    base = generate_synthetic("linear-plus-sine", 260,
                              {"sigma": 0.05, "amplitude": 0.4, "period": 30},
                              seed=21)
    verdicts = audit_walks(base, SplitSpec(180, 30, 50),
                           TrainConfig(epochs=10, layers=1, hidden_dim=8, window_m=10,
                                       batch_size=32, seed=0))
    report(9, f"each walk, audited alone, reads the value at t only after predicting t: {verdicts}",
           all(why is None for why in verdicts.values()))


def test_criterion_10_determinism(tmp_path):
    s = generate_synthetic("linear-plus-sine", 400,
                           {"sigma": 0.04, "amplitude": 0.4, "period": 40},
                           seed=11)
    csv = tmp_path / "fixture.csv"
    write_series_csv(csv, s)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main(["compare", "--input", str(csv), "--out", str(out),
                     "--seed", "7", "--epochs", "20", "--layers", "1",
                     "--hidden", "8", "--window-m", "10"])
        assert code == 0
        outs.append(out)
    same = ((outs[0] / "metrics.json").read_bytes()
            == (outs[1] / "metrics.json").read_bytes()
            and (outs[0] / "predictions.csv").read_bytes()
            == (outs[1] / "predictions.csv").read_bytes())
    report(10, "two compare --seed 7 runs bytewise identical", same)
