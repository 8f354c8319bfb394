import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navcast.errors import ConfigurationError, DegenerateInputError, NavcastError, NumericalError
from navcast.series import (
    SplitSpec,
    TimeSeries,
    acf,
    adf_test,
    difference,
    fit_scale,
    minmax_scale,
    minmax_unscale,
    pacf,
    split,
)
from navcast.cli import generate_synthetic
from conftest import as_series, random_walk, simulate_ar1, simulate_ar2


def adf_by_lag(values):
    """Reference ADF lag search: one least-squares fit per candidate lag, the
    first AIC minimum kept.  Returns (statistic, lag_used)."""
    y = np.asarray(values, dtype=float)
    n = len(y)
    if n < 20:
        raise DegenerateInputError(f"ADF test needs at least 20 observations, got {n}")
    max_lag = min(int(np.floor(12.0 * (n / 100.0) ** 0.25)), n // 2 - 2)
    dy = np.diff(y)
    t0 = max_lag + 1
    lhs = dy[t0 - 1:]
    neff = len(lhs)
    X_all = np.column_stack([np.ones_like(lhs), y[t0 - 1:-1]]
                            + [dy[t0 - 1 - i:-i] for i in range(1, max_lag + 1)])
    best = None
    for lag in range(max_lag + 1):
        X = X_all[:, :lag + 2]
        coef, _, rank, _ = np.linalg.lstsq(X, lhs, rcond=None)
        if rank < X.shape[1]:
            raise NumericalError("rank-deficient ADF regression")
        resid = lhs - X @ coef
        rss = float(resid @ resid)
        if rss <= 0.0:
            raise NumericalError("degenerate ADF regression (zero residual sum)")
        aic = neff * np.log(rss / neff) + 2 * X.shape[1]
        if best is None or aic < best[0]:
            best = (aic, lag, coef, rss)
    _, lag, coef, rss = best
    X = X_all[:, :lag + 2]
    se = np.sqrt(rss / (neff - X.shape[1]) * np.linalg.inv(X.T @ X)[1, 1])
    return float(coef[1] / se), lag


def adf_outcome(test, values):
    """(statistic.hex(), lag) of an ADF test, or the type of the error it raises."""
    try:
        statistic, lag = test(values)
    except NavcastError as exc:
        return type(exc)
    return statistic.hex(), lag


def adf_by_qr(values):
    res = adf_test(values)
    return res.statistic, res.lag_used


class TestTimeSeries:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            TimeSeries(TimeSeries.from_values([1, 2, 3]).timestamps, [1.0, 2.0])

    def test_rejects_nan(self):
        with pytest.raises(DegenerateInputError):
            as_series([1.0, float("nan"), 2.0])

    def test_rejects_empty(self):
        with pytest.raises(DegenerateInputError):
            TimeSeries((), [])

    def test_single_observation_unusable_for_analysis(self):
        with pytest.raises(DegenerateInputError):
            difference(as_series([1.0]), 1)

    def test_rejects_unsorted_timestamps(self):
        ts = as_series([1, 2, 3])
        with pytest.raises(ConfigurationError):
            TimeSeries(ts.timestamps[::-1], ts.values)


class TestDifference:
    def test_constant_series_differences_to_zero(self):
        assert difference(as_series([1, 1, 1, 1]), 1).tolist() == [0, 0, 0]

    def test_first_differences(self):
        assert difference(as_series([1, 2, 4, 7]), 1).tolist() == [1, 2, 3]

    def test_second_differences(self):
        # first pass by hand: [1,2,3]; second pass: [1,1]
        assert difference(as_series([1, 2, 4, 7]), 2).tolist() == [1, 1]

    def test_too_short(self):
        with pytest.raises(DegenerateInputError):
            difference(as_series([1, 2]), 2)


class TestAcf:
    def test_alternating_series(self):
        pts = acf([1, -1, 1, -1, 1, -1, 1, -1], 1)
        assert pts[0].value == pytest.approx(-0.875, abs=1e-12)

    def test_bounded(self):
        x = simulate_ar1(0.8, 300, seed=0)
        for p in acf(x, 30):
            assert abs(p.value) <= 1 + 1e-9

    def test_white_noise_within_bounds(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=5000)
        pts = acf(x, 20)
        inside = sum(abs(p.value) <= p.confidence_bound for p in pts)
        assert inside >= 18

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateInputError):
            acf([3.0] * 10, 2)

    @pytest.mark.parametrize("correlogram", [acf, pacf])
    def test_negative_max_lag_is_a_configuration_error(self, correlogram):
        with pytest.raises(ConfigurationError, match="max_lag"):
            correlogram(simulate_ar1(0.5, 50, seed=0), -1)


class TestPacf:
    def test_lag1_equals_acf_lag1(self):
        x = simulate_ar1(0.5, 400, seed=7)
        assert pacf(x, 5)[0].value == acf(x, 5)[0].value

    def test_ar1_cutoff(self):
        x = simulate_ar1(0.6, 5000, seed=3)
        pts = pacf(x, 5)
        assert pts[0].value == pytest.approx(0.6, abs=0.05)
        for p in pts[1:]:
            assert abs(p.value) < 0.05

    def test_ar2_lag2(self):
        x = simulate_ar2(0.5, 0.3, 5000, seed=4)
        pts = pacf(x, 3)
        assert pts[1].value == pytest.approx(0.3, abs=0.05)

    def test_bounded(self):
        x = simulate_ar2(0.4, -0.3, 1000, seed=5)
        for p in pacf(x, 20):
            assert abs(p.value) <= 1 + 1e-9


class TestAdf:
    def test_random_walk_not_stationary(self):
        x = random_walk(1000, seed=11)
        assert not adf_test(x).is_stationary_5pct

    def test_white_noise_stationary(self):
        x = np.random.default_rng(12).normal(size=1000)
        assert adf_test(x).is_stationary_5pct

    def test_differenced_random_walk_stationary(self):
        x = random_walk(1000, seed=13)
        assert adf_test(np.diff(x)).is_stationary_5pct

    def test_critical_values_ordered(self):
        res = adf_test(np.random.default_rng(1).normal(size=100))
        cv = res.critical_values
        assert cv[0.01] < cv[0.05] < cv[0.10]

    def test_verdict_matches_statistic(self):
        res = adf_test(random_walk(500, seed=2))
        assert res.is_stationary_5pct == (res.statistic < res.critical_values[0.05])

    def test_too_short_rejected(self):
        with pytest.raises(DegenerateInputError):
            adf_test(np.arange(10.0))

    def test_rank_deficiency_names_scale_as_a_cause(self):
        # Near 1e160 the constant column falls below lstsq's rank tolerance,
        # which is relative to the largest singular value: nothing is collinear.
        with pytest.raises(NumericalError, match="values too large"):
            adf_test(1e160 * np.random.default_rng(17).normal(size=60))

    # (statistic, lag_used) pinned bitwise at their recorded values.
    PAPER_SEGMENT = generate_synthetic(
        "linear-plus-sine", 1260, {"sigma": 0.001, "amplitude": 4.0, "period": 25.0, "base": 10.0},
        seed=0).slice(0, 900)
    PINNED = {
        "random walk": (random_walk(1000, seed=11), "-0x1.36c1999c59eaep+1", 0),
        "white noise": (np.random.default_rng(12).normal(size=1000), "-0x1.d79f06c1d42c1p+4", 0),
        "ar1": (simulate_ar1(0.6, 500, seed=3), "-0x1.5bf8c11a87e92p+3", 0),
        "paper d=0": (difference(PAPER_SEGMENT, 0), "-0x1.d8ebeac45e654p-1", 14),
        "paper d=1": (difference(PAPER_SEGMENT, 1), "-0x1.ed4ac097ab06fp+3", 15),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_statistic_and_lag(self, name):
        values, statistic, lag = self.PINNED[name]
        res = adf_test(values)
        assert (res.statistic.hex(), res.lag_used) == (statistic, lag)

    # Near-tie AICs are where reading each lag's RSS off one QR, rather than
    # off its own fit, could choose another lag: every case must match bitwise.
    @pytest.mark.parametrize("kind", ["random-walk", "ar1", "linear-plus-sine"])
    @pytest.mark.parametrize("n", [20, 21, 60, 250, 1000, 2000])
    def test_matches_the_per_lag_search_on_synthetic_series(self, kind, n):
        for seed in range(4):
            series = generate_synthetic(kind, max(n, 30), seed=seed).slice(0, n)
            for d in range(3):
                values = difference(series, d)
                assert adf_outcome(adf_by_qr, values) == adf_outcome(adf_by_lag, values), (seed, d)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 1500), walk=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_per_lag_search_on_drawn_series(self, seed, n, walk):
        x = np.random.default_rng(seed).normal(size=n)
        values = np.cumsum(x) if walk else x
        assert adf_outcome(adf_by_qr, values) == adf_outcome(adf_by_lag, values)

    @pytest.mark.parametrize("values", [
        1e160 * np.random.default_rng(17).normal(size=60),
        0.5 * np.arange(100.0) + 3.0,
        np.full(50, 2.0),
        np.arange(10.0),
    ], ids=["scaled-1e160", "linear-ramp", "constant", "too-short"])
    def test_refuses_what_the_per_lag_search_refuses(self, values):
        outcome = adf_outcome(adf_by_qr, values)
        assert isinstance(outcome, type) and outcome == adf_outcome(adf_by_lag, values)

    def test_mean_reversion_does_not_flip_verdict(self):
        # Appending strongly mean-reverting data must not make a stationary
        # verdict non-stationary (fixed small suite, not a universal claim).
        for seed in range(5):
            x = np.random.default_rng(seed).normal(size=400)
            assert adf_test(x).is_stationary_5pct
            extra = simulate_ar1(-0.5, 400, seed=seed + 100)
            assert adf_test(np.concatenate((x, extra))).is_stationary_5pct


class TestScaling:
    def test_map_to_unit_interval(self):
        params = fit_scale([0, 5, 10])
        assert minmax_scale([0, 5, 10], params).tolist() == [-1, 0, 1]

    def test_round_trip(self):
        x = np.random.default_rng(0).uniform(-3, 9, 50)
        params = fit_scale(x)
        assert np.allclose(minmax_unscale(minmax_scale(x, params), params), x)

    def test_fitted_on_subrange(self):
        params = fit_scale([2, 3])
        assert minmax_scale([2, 2, 3], params).tolist() == [-1, -1, 1]

    def test_constant_rejected(self):
        with pytest.raises(DegenerateInputError):
            fit_scale([4.0, 4.0])


class TestSplit:
    def test_paper_sizes(self):
        s = as_series(np.arange(1260.0))
        train, val, test = split(s, SplitSpec(900, 100, 260))
        assert (len(train), len(val), len(test)) == (900, 100, 260)

    def test_last_element_is_test(self):
        s = as_series(np.arange(10.0))
        _, _, test = split(s, SplitSpec(8, 1, 1))
        assert test.values.tolist() == [9.0]

    def test_sum_mismatch(self):
        with pytest.raises(ConfigurationError):
            split(as_series(np.arange(10.0)), SplitSpec(5, 5, 5))

    def test_partition(self):
        s = as_series(np.random.default_rng(3).normal(size=50))
        parts = split(s, SplitSpec(30, 10, 10))
        rebuilt = np.concatenate([p.values for p in parts])
        assert np.array_equal(rebuilt, s.values)

    # At n = 11 the raw lengths are 7.86, 0.87 and 2.27: the two units left
    # after flooring go to the largest remainders, val's and then train's.
    @pytest.mark.parametrize("n, lengths", [(630, (450, 50, 130)), (11, (8, 1, 2))])
    def test_proportional_scaling(self, n, lengths):
        spec = SplitSpec.proportional(n)
        assert spec.total == n
        assert (spec.train_len, spec.val_len, spec.test_len) == lengths
