import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navcast.errors import ConfigurationError
from navcast.hybrid import EvalRun
from navcast.metrics import build_report, format_table, mae, mse, rmse


def run(kind, pred, actual):
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    return EvalRun(kind, pred, actual, tuple(range(len(pred))), window_L=120)


class TestFormulas:
    def test_zero_error(self):
        x = [1.0, 2.0, 3.0]
        assert mse(x, x) == 0.0
        assert mae(x, x) == 0.0
        assert rmse(x, x) == 0.0

    def test_hand_case(self):
        assert mse([1, 2], [2, 4]) == pytest.approx(2.5, abs=1e-15)
        assert mae([1, 2], [2, 4]) == pytest.approx(1.5, abs=1e-15)
        assert rmse([1, 2], [2, 4]) == pytest.approx(np.sqrt(2.5), abs=1e-15)

    def test_published_arima_row_consistency(self):
        # MSE 3.61 and RMSE 1.90 are consistent at 2 decimals
        assert round(np.sqrt(3.61), 2) == 1.90

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            mse([1, 2], [1, 2, 3])

    def test_empty(self):
        with pytest.raises(ConfigurationError):
            mae([], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs(self, bad):
        for metric in (mse, mae, rmse):
            for pred, actual in (([1.0, bad], [1.0, 2.0]), ([1.0, 2.0], [bad, 2.0])):
                with pytest.raises(ConfigurationError, match="^metrics require finite inputs$"):
                    metric(pred, actual)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_rmse_squared_is_mse(self, values):
        pred = np.array(values)
        actual = pred[::-1].copy()
        assert rmse(pred, actual) ** 2 == pytest.approx(mse(pred, actual), rel=1e-12, abs=1e-12)

    def test_symmetry(self, rng):
        p, a = rng.normal(size=30), rng.normal(size=30)
        assert mse(p, a) == mse(a, p)
        assert mae(p, a) == mae(a, p)
        assert rmse(p, a) == rmse(a, p)

    def test_permutation_invariance(self, rng):
        p, a = rng.normal(size=30), rng.normal(size=30)
        perm = rng.permutation(30)
        assert mse(p[perm], a[perm]) == pytest.approx(mse(p, a), rel=1e-12)
        assert mae(p[perm], a[perm]) == pytest.approx(mae(p, a), rel=1e-12)

    def test_homogeneity(self, rng):
        p, a = rng.normal(size=20), rng.normal(size=20)
        k = -3.7
        assert mse(k * p, k * a) == pytest.approx(k ** 2 * mse(p, a), rel=1e-12)
        assert mae(k * p, k * a) == pytest.approx(abs(k) * mae(p, a), rel=1e-12)
        assert rmse(k * p, k * a) == pytest.approx(abs(k) * rmse(p, a), rel=1e-12)

    def test_mae_at_most_rmse(self, rng):
        for _ in range(20):
            p, a = rng.normal(size=15), rng.normal(size=15)
            assert mae(p, a) <= rmse(p, a) + 1e-12


class TestBuildReport:
    def test_three_rows_in_fixed_order(self):
        runs = [
            run("hybrid", [1.0, 1.0], [1.1, 0.9]),
            run("arima", [1.0, 1.0], [1.5, 0.5]),
            run("lstm", [1.0, 1.0], [1.2, 0.8]),
        ]
        report = build_report(runs)
        assert [r.model for r in report.rows] == ["arima", "lstm", "hybrid"]
        for r in report.rows:
            assert r.rmse == pytest.approx(np.sqrt(r.mse), rel=1e-12)

    def test_a_run_of_another_kind_is_refused(self):
        runs = [run("hybrid", [1.0], [1.1]), run("naive", [1.0], [2.0])]
        with pytest.raises(ConfigurationError, match="unknown model kind 'naive'"):
            build_report(runs)

    def test_single_run(self):
        report = build_report([run("arima", [1.0], [2.0])])
        assert len(report.rows) == 1
        assert report.best == "arima"

    def test_dominant_hybrid_is_best(self):
        runs = [
            run("arima", [1.0, 1.0], [1.5, 0.5]),
            run("lstm", [1.0, 1.0], [1.2, 0.8]),
            run("hybrid", [1.0, 1.0], [1.01, 0.99]),
        ]
        assert build_report(runs).best == "hybrid"

    def test_exact_tie(self):
        runs = [
            run("arima", [1.0, 1.0], [1.5, 0.5]),
            run("lstm", [1.0, 1.0], [1.5, 0.5]),
        ]
        assert build_report(runs).best == "tie"

    def test_empty_run_rejected(self):
        with pytest.raises(ConfigurationError):
            build_report([run("arima", [], [])])

    def test_table_contains_all_rows(self):
        runs = [run("arima", [1.0], [2.0]), run("hybrid", [1.0], [1.1])]
        table = format_table(build_report(runs))
        assert "arima" in table and "hybrid" in table and "best:" in table

    def test_to_dict_schema(self):
        report = build_report([run("arima", [1.0, 2.0], [1.1, 2.2])])
        d = report.to_dict()
        assert set(d) == {"segment", "rows", "best"}
        assert set(d["rows"][0]) == {"model", "mse", "mae", "rmse", "n"}
