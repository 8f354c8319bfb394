import math
import re
import warnings
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import navcast.arima as arima
import navcast.lstm as lstm_mod
from navcast.errors import ConfigurationError, DegenerateInputError, FitError, NumericalError
from navcast.lstm import (
    GATES,
    LstmCellParams,
    LstmNetwork,
    PARAM_FIELDS,
    SupervisedWindowSet,
    TrainConfig,
    bptt_gradients,
    deserialize,
    forward,
    init_network,
    make_windows,
    serialize,
    train,
    _cell_step,
    _forward_batch,
)
from navcast.hybrid import DEFAULT_WINDOW_L, SEED_OFFSETS
from navcast.series import ADF_CRITICAL_VALUES, ScaleParams, fit_scale
from conftest import as_series, simulate_ma1

V1_DOCUMENT = Path(__file__).parent / "data" / "lstm_v1.txt"


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def init_random_head(hidden_dim, n_layers, rng):
    """A scalar-input net whose output head is drawn after the layers from
    uniform(-k, k), k = 1/sqrt(hidden_dim), so it is not the zero head."""
    net = init_network(1, hidden_dim, n_layers, rng)
    k = 1.0 / np.sqrt(hidden_dim)
    net.head_w = rng.uniform(-k, k, size=hidden_dim)
    return net


def scalar_cell(wf=1.0, wi=1.0, wc=1.0, wo=1.0, bf=0.0, bi=0.0, bc=0.0, bo=0.0):
    return LstmCellParams(
        W_f=np.full((1, 2), wf), W_i=np.full((1, 2), wi),
        W_c=np.full((1, 2), wc), W_o=np.full((1, 2), wo),
        b_f=np.array([bf]), b_i=np.array([bi]),
        b_c=np.array([bc]), b_o=np.array([bo]),
    )


# A single column's hidden output h (H,) and cell state C (H,).
State = namedtuple("State", "h C")


def zero_state(h=1):
    return State(h=np.zeros(h), C=np.zeros(h))


def cell_forward(params, x, prev):
    """One cell update of a single column through the kernel's _cell_step;
    x is (input_dim,) and prev holds (hidden_dim,) arrays."""
    H = params.hidden_dim
    a = np.concatenate((prev.h, x, [1.0]))[:, None]
    C, tC, h = np.empty((3, H, 1))
    _cell_step(params.Wb, a, prev.C[:, None], np.empty((4 * H, 1)), C, tC, h)
    return State(h=h[:, 0], C=C[:, 0])


def random_cell(hidden, d_in, rng):
    """A cell whose eight weight and bias arrays are drawn independently."""
    return LstmCellParams(**{
        name: rng.normal(size=(hidden, hidden + d_in) if name.startswith("W") else hidden)
        for name in PARAM_FIELDS
    })


def cell_by_gates(params, x, prev):
    """Reference cell update: each unit's four gates from their own weights,
    in scalar math."""
    a = [*prev.h, *x]

    def pre(W, b, j):
        return sum(W[j, k] * a[k] for k in range(len(a))) + b[j]

    h, C = [], []
    for j in range(params.hidden_dim):
        f = sigmoid(pre(params.W_f, params.b_f, j))
        i = sigmoid(pre(params.W_i, params.b_i, j))
        c_tilde = math.tanh(pre(params.W_c, params.b_c, j))
        o = sigmoid(pre(params.W_o, params.b_o, j))
        C.append(f * prev.C[j] + i * c_tilde)
        h.append(o * math.tanh(C[-1]))
    return State(h=np.array(h), C=np.array(C))


class TestCellForward:
    def test_all_zero_parameters(self):
        cell = scalar_cell(0, 0, 0, 0)
        st = cell_forward(cell, np.array([3.7]), zero_state())
        # sigmoid(0)=0.5 gates, tanh(0)=0 candidate: state stays exactly zero
        assert st.C[0] == 0.0
        assert st.h[0] == 0.0

    def test_saturated_forget_gate_keeps_memory(self):
        cell = scalar_cell(0, 0, 0, 0, bf=50.0, bi=-50.0)
        st = State(h=np.zeros(1), C=np.array([0.8]))
        for _ in range(100):
            st = cell_forward(cell, np.array([0.3]), State(h=np.zeros(1), C=st.C))
        assert st.C[0] == pytest.approx(0.8, abs=1e-6)

    def test_unit_weight_hand_case(self):
        # independently recomputed from scalar sigmoid/tanh arithmetic
        cell = scalar_cell()
        st = cell_forward(cell, np.array([1.0]), zero_state())
        f = i = o = sigmoid(1.0)
        c_tilde = math.tanh(1.0)
        C = i * c_tilde
        h = o * math.tanh(C)
        assert f == pytest.approx(0.73106, abs=1e-5)
        assert c_tilde == pytest.approx(0.76159, abs=1e-5)
        assert st.C[0] == pytest.approx(C, abs=1e-12)
        assert st.C[0] == pytest.approx(0.55677, abs=1e-5)
        assert st.h[0] == pytest.approx(h, abs=1e-12)
        assert st.h[0] == pytest.approx(0.369606, abs=1e-4)

    def test_gate_ranges(self, rng):
        net = init_network(1, 8, 1, rng)
        st = zero_state(8)
        for _ in range(50):
            st = cell_forward(net.layers[0], rng.normal(size=1) * 10, st)
            assert np.all(np.abs(st.h) < 1.0)

    @given(hidden=st.integers(1, 6), d_in=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_a_per_gate_scalar_reference(self, hidden, d_in, seed):
        rng = np.random.default_rng(seed)
        cell = random_cell(hidden, d_in, rng)
        prev = State(h=rng.uniform(-1, 1, hidden), C=rng.normal(size=hidden))
        x = rng.normal(size=d_in)
        got = cell_forward(cell, x, prev)
        want = cell_by_gates(cell, x, prev)
        assert np.max(np.abs(got.h - want.h)) <= 1e-12
        assert np.max(np.abs(got.C - want.C)) <= 1e-12


class TestGateMajorLayout:
    """Each layer stores one (4H, H + d_in + 1) matrix; the per-gate names are views of it."""

    @pytest.mark.parametrize("name, shape", [("W_c", (3, 4)), ("W_o", (3, 5, 1)),
                                             ("b_i", (4,)), ("b_o", (3, 1))])
    def test_constructor_names_a_wrongly_shaped_gate(self, rng, name, shape):
        fields = {n: getattr(random_cell(3, 2, rng), n) for n in PARAM_FIELDS}
        fields[name] = np.zeros(shape)
        with pytest.raises(ConfigurationError, match=rf"^{name} has shape {re.escape(str(shape))}"):
            LstmCellParams(**fields)

    def test_each_gate_is_its_block_of_the_matrix(self, rng):
        layer = random_cell(3, 2, rng)
        assert layer.Wb.shape == (12, 6)
        for k, gate in enumerate(GATES):
            rows = layer.Wb[3 * k:3 * (k + 1)]
            assert np.shares_memory(getattr(layer, "W_" + gate), layer.Wb)
            assert np.array_equal(getattr(layer, "W_" + gate), rows[:, :-1])
            assert np.array_equal(getattr(layer, "b_" + gate), rows[:, -1])

    def test_the_views_write_through(self, rng):
        net = init_random_head(4, 2, rng)
        window = rng.normal(size=6)
        before = forward(net, window)
        net.layers[-1].b_o[:] = 5.0
        raised = forward(net, window)
        assert raised != before
        net.layers[-1].b_o = np.zeros(4)
        assert forward(net, window) != raised
        assert np.all(net.layers[-1].Wb[8:12, -1] == 0.0)

    def test_gradient_layers_are_views_of_their_matrices(self, rng):
        net = init_random_head(3, 2, rng)
        grads, _ = bptt_gradients(net, rng.normal(size=(4, 5)), rng.normal(size=4))
        for g, layer in zip(grads.layers, net.layers):
            assert g.Wb.shape == layer.Wb.shape
            assert all(np.shares_memory(getattr(g, name), g.Wb) for name in PARAM_FIELDS)

    @pytest.mark.parametrize("name", PARAM_FIELDS)
    def test_check_names_the_field_with_a_non_finite_weight(self, rng, name):
        net = init_network(1, 3, 2, rng)
        getattr(net.layers[1], name)[-1] = np.inf
        with pytest.raises(NumericalError, match=rf"^{name} contains non-finite entries$"):
            net.check()

    @pytest.mark.parametrize("name, value", [("head_w", np.array([0.0, 0.0, np.inf])),
                                             ("head_b", np.nan)])
    def test_check_covers_the_output_head(self, rng, name, value):
        net = init_network(1, 3, 2, rng)
        setattr(net, name, value)
        with pytest.raises(NumericalError, match=rf"^{name} contains non-finite entries$"):
            net.check()


class TestForward:
    def test_zero_net_outputs_bias(self, rng):
        net = init_network(1, 4, 2, rng)
        net.head_b = 0.375
        assert forward(net, rng.normal(size=6)) == pytest.approx(0.375, abs=1e-15)

    def test_single_equals_batched_row(self, rng):
        net = init_random_head(5, 2, rng)
        X = rng.normal(size=(7, 9))
        batched = _forward_batch(net, X)
        for b in range(7):
            assert forward(net, X[b]) == pytest.approx(batched[b], abs=1e-12)

    @given(n_layers=st.integers(1, 3), hidden=st.integers(1, 6), m=st.integers(1, 8),
           batch=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_batched_forward_is_a_loop_of_cell_forward(self, n_layers, hidden, m, batch, seed):
        rng = np.random.default_rng(seed)
        net = init_random_head(hidden, n_layers, rng)
        net.head_b = rng.normal()
        X = rng.normal(size=(batch, m))
        batched = _forward_batch(net, X)
        for b in range(batch):
            inputs = [np.array([x]) for x in X[b]]
            for layer in net.layers:
                state = zero_state(hidden)
                outputs = []
                for x in inputs:
                    state = cell_forward(layer, x, state)
                    outputs.append(state.h)
                inputs = outputs
            expected = inputs[-1] @ net.head_w + net.head_b
            assert batched[b] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_a_net_reading_several_values_per_step_is_refused(self, rng):
        # The kernel feeds one value per step; a wider first layer would get
        # that value copied into each of its input slots.
        net = init_network(2, 3, 1, rng)
        with pytest.raises(ConfigurationError, match="one value per step"):
            forward(net, rng.normal(size=5))
        with pytest.raises(ConfigurationError, match="one value per step"):
            bptt_gradients(net, rng.normal(size=(4, 5)), rng.normal(size=4))

    def test_an_empty_window_is_refused(self, rng):
        with pytest.raises(ConfigurationError, match="at least one value"):
            forward(init_network(1, 3, 1, rng), [])

    @pytest.mark.parametrize("shape", [(), (3, 4), (1, 5), (2, 2, 2)])
    def test_a_window_that_is_not_one_dimensional_is_refused(self, rng, shape):
        with pytest.raises(ConfigurationError, match=r"\(B, m\) array"):
            forward(init_network(1, 3, 1, rng), np.ones(shape))

    def test_golden_regression_value(self):
        # frozen at build time from a seeded net and window
        rng = np.random.default_rng(2024)
        net = init_random_head(4, 2, rng)
        net.head_b = 0.1
        window = np.linspace(-1, 1, 8)
        value = forward(net, window)
        assert value == pytest.approx(0.08631984916682166, abs=1e-12)


def bptt_by_gates(net, X, y):
    """Reference BPTT, batch-major with one GEMM and one bias sum per gate.

    Returns (gradients, batch_mse) as bptt_gradients does.
    """
    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    B, m = X.shape
    cache = []
    inputs = X[:, :, None]
    for layer in net.layers:
        H = layer.hidden_dim
        h = np.zeros((B, H))
        C = np.zeros((B, H))
        steps = []
        outputs = np.empty((B, m, H))
        for t in range(m):
            a = np.concatenate((h, inputs[:, t, :]), axis=1)
            f = sig(a @ layer.W_f.T + layer.b_f)
            i = sig(a @ layer.W_i.T + layer.b_i)
            c_tilde = np.tanh(a @ layer.W_c.T + layer.b_c)
            o = sig(a @ layer.W_o.T + layer.b_o)
            C_new = f * C + i * c_tilde
            tC = np.tanh(C_new)
            h = o * tC
            steps.append((a, f, i, c_tilde, o, C, tC))
            C = C_new
            outputs[:, t, :] = h
        cache.append(steps)
        inputs = outputs
    err = outputs[:, -1, :] @ net.head_w + net.head_b - y
    d_pred = 2.0 * err / B
    g_head_w = outputs[:, -1, :].T @ d_pred
    d_out = np.zeros((B, m, net.layers[-1].hidden_dim))
    d_out[:, -1, :] = d_pred[:, None] * net.head_w
    grads = []
    for li in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[li]
        H = layer.hidden_dim
        g = LstmCellParams.wrap(np.zeros_like(layer.Wb))
        dh_next = np.zeros((B, H))
        dC_next = np.zeros((B, H))
        d_inputs = np.zeros((B, m, layer.input_dim))
        for t in range(m - 1, -1, -1):
            a, f, i, c_tilde, o, C_prev, tC = cache[li][t]
            dh = d_out[:, t, :] + dh_next
            dC = dC_next + dh * o * (1.0 - tC * tC)
            dz_f = dC * C_prev * f * (1.0 - f)
            dz_i = dC * c_tilde * i * (1.0 - i)
            dz_c = dC * i * (1.0 - c_tilde * c_tilde)
            dz_o = dh * tC * o * (1.0 - o)
            g.W_f += dz_f.T @ a
            g.W_i += dz_i.T @ a
            g.W_c += dz_c.T @ a
            g.W_o += dz_o.T @ a
            g.b_f += dz_f.sum(axis=0)
            g.b_i += dz_i.sum(axis=0)
            g.b_c += dz_c.sum(axis=0)
            g.b_o += dz_o.sum(axis=0)
            da = (dz_f @ layer.W_f + dz_i @ layer.W_i
                  + dz_c @ layer.W_c + dz_o @ layer.W_o)
            dh_next = da[:, :H]
            d_inputs[:, t, :] = da[:, H:]
            dC_next = dC * f
        grads.append(g)
        d_out = d_inputs
    grads.reverse()
    gradients = LstmNetwork(layers=grads, head_w=g_head_w, head_b=float(d_pred.sum()))
    return gradients, float(err @ err) / B


def numeric_gradient(net, X, y, get, set_, eps=1e-5):
    base = get()
    grad = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = base[idx]
        base[idx] = orig + eps
        set_(base)
        _, up = bptt_gradients(net, X, y)
        base[idx] = orig - eps
        set_(base)
        _, down = bptt_gradients(net, X, y)
        base[idx] = orig
        set_(base)
        grad[idx] = (up - down) / (2 * eps)
        it.iternext()
    return grad


def check_gradients(net, X, y, tol=1e-4):
    """Max relative error of analytic vs central finite-difference gradients."""
    grads, _ = bptt_gradients(net, X, y)
    worst = 0.0
    for li, layer in enumerate(net.layers):
        for name in PARAM_FIELDS:
            arr = getattr(layer, name)
            numeric = numeric_gradient(net, X, y, lambda a=arr: a, lambda v: None)
            analytic = getattr(grads.layers[li], name)
            scale = np.maximum(np.abs(numeric) + np.abs(analytic), 1e-8)
            worst = max(worst, float(np.max(np.abs(numeric - analytic) / scale)))
    numeric = numeric_gradient(net, X, y, lambda: net.head_w, lambda v: None)
    scale = np.maximum(np.abs(numeric) + np.abs(grads.head_w), 1e-8)
    worst = max(worst, float(np.max(np.abs(numeric - grads.head_w) / scale)))
    return worst


class TestBpttGradients:
    def test_zero_error_zero_gradients(self, rng):
        net = init_random_head(3, 1, rng)
        X = rng.normal(size=(4, 5))
        preds = _forward_batch(net, X)
        grads, loss = bptt_gradients(net, X, preds)
        assert loss == 0.0
        for layer in grads.layers:
            for name in PARAM_FIELDS:
                assert np.all(getattr(layer, name) == 0.0)
        assert np.all(grads.head_w == 0.0)
        assert grads.head_b == 0.0

    def test_finite_difference_check_one_layer(self, rng):
        net = init_random_head(3, 1, rng)
        X = rng.normal(size=(3, 4))
        y = rng.normal(size=3)
        assert check_gradients(net, X, y) < 1e-4

    def test_finite_difference_check_two_layers(self, rng):
        net = init_random_head(5, 2, rng)
        X = rng.normal(size=(2, 6))
        y = rng.normal(size=2)
        assert check_gradients(net, X, y) < 1e-4

    def test_batch_gradient_is_mean_of_per_sample(self, rng):
        net = init_random_head(4, 2, rng)
        X = rng.normal(size=(2, 5))
        y = rng.normal(size=2)
        g_pair, _ = bptt_gradients(net, X, y)
        g_a, _ = bptt_gradients(net, X[:1], y[:1])
        g_b, _ = bptt_gradients(net, X[1:], y[1:])
        for li in range(2):
            for name in PARAM_FIELDS:
                mean = (getattr(g_a.layers[li], name) + getattr(g_b.layers[li], name)) / 2
                assert np.allclose(getattr(g_pair.layers[li], name), mean, atol=1e-12)
        assert np.allclose(g_pair.head_w, (g_a.head_w + g_b.head_w) / 2, atol=1e-12)

    def test_empty_batch_rejected(self, rng):
        net = init_network(1, 3, 1, rng)
        with pytest.raises(ConfigurationError):
            bptt_gradients(net, np.empty((0, 4)), np.empty(0))

    @pytest.mark.parametrize("y_shape", [(1,), (3,), (4, 1)])
    def test_targets_must_match_the_batch(self, rng, y_shape):
        net = init_network(1, 3, 1, rng)
        with pytest.raises(ConfigurationError, match="4 windows need 4 targets"):
            bptt_gradients(net, rng.normal(size=(4, 5)), np.full(y_shape, 0.3))

    @given(n_layers=st.integers(1, 3), hidden=st.integers(1, 6), m=st.integers(1, 8),
           batch=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_gate_reference(self, n_layers, hidden, m, batch, seed):
        rng = np.random.default_rng(seed)
        net = init_random_head(hidden, n_layers, rng)
        for layer in net.layers:
            for name in ("b_f", "b_i", "b_c", "b_o"):
                getattr(layer, name)[:] = rng.normal(size=hidden)
        net.head_b = rng.normal()
        X = rng.normal(size=(batch, m))
        y = rng.normal(size=batch)
        got, loss = bptt_gradients(net, X, y)
        want, want_loss = bptt_by_gates(net, X, y)
        pairs = [(getattr(g, name), getattr(w, name))
                 for g, w in zip(got.layers, want.layers) for name in PARAM_FIELDS]
        pairs += [(got.head_w, want.head_w), (np.array([got.head_b]), np.array([want.head_b]))]
        scale = max(float(np.max(np.abs(w))) for _, w in pairs)
        for g, w in pairs:
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-12 * scale
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=1e-300)

    def test_non_finite_gradient_names_its_layer_and_field(self, rng):
        # Layer 0 sees x = 1e300 through unit weights on its f, i and o
        # gates, which saturate to exactly 1, so their gradients are exactly
        # 0; the candidate's weight 1e-300 keeps it unsaturated, and its
        # gradient times x overflows in W_c alone.
        net = init_network(1, 2, 2, rng)
        layer = net.layers[0]
        for W in (layer.W_f, layer.W_i, layer.W_o):
            W[:, -1] = 1.0
        layer.W_c[:, -1] = 1e-300
        net.head_w = np.full(2, 1e10)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FitError, match=r"^non-finite gradient in layer 0 W_c$"):
                bptt_gradients(net, np.array([[1e300]]), np.array([0.0]))
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


class TestMakeWindows:
    def test_small_example(self):
        scale = ScaleParams(-1.0, 1.0)  # identity on [-1,1]
        ws = make_windows([-1, -0.5, 0, 0.5, 1], 2, scale)
        assert ws.inputs.tolist() == [[-1, -0.5], [-0.5, 0], [0, 0.5]]
        assert ws.targets.tolist() == [0, 0.5, 1]

    def test_count(self, rng):
        x = rng.normal(size=57)
        ws = make_windows(x, 9, fit_scale(x))
        assert len(ws.inputs) == 57 - 9
        assert len(ws.targets) == 57 - 9

    def test_constant_series_degenerate_scale(self):
        with pytest.raises(DegenerateInputError):
            make_windows([2.0] * 30, 5, fit_scale([2.0] * 30))

    def test_too_short(self, rng):
        x = rng.normal(size=5)
        with pytest.raises(DegenerateInputError):
            make_windows(x, 5, ScaleParams(-1, 1))


def linear_recurrence_windows(n_windows=200, m=4, x0=1.0, rho=0.9):
    total = n_windows + m
    x = x0 * rho ** np.arange(total)
    scale = fit_scale(x)
    return make_windows(x, m, scale)


class TestTrain:
    def test_learns_linear_recurrence(self):
        data = linear_recurrence_windows()
        cfg = TrainConfig(layers=1, hidden_dim=8, window_m=4, epochs=100, batch_size=32, seed=0)
        rng = np.random.default_rng(cfg.seed)
        net = init_network(1, cfg.hidden_dim, cfg.layers, rng)
        result = train(net, data, cfg)
        assert result.train_losses[-1] < 1e-3

    def test_loss_moving_average_non_increasing(self):
        data = linear_recurrence_windows()
        cfg = TrainConfig(layers=1, hidden_dim=8, window_m=4, epochs=100, batch_size=32, seed=0)
        rng = np.random.default_rng(cfg.seed)
        net = init_network(1, cfg.hidden_dim, cfg.layers, rng)
        result = train(net, data, cfg)
        avg = np.convolve(result.train_losses, np.ones(10) / 10, mode="valid")
        assert np.all(np.diff(avg) <= 1e-9)

    def test_seeded_determinism(self):
        losses = []
        for _ in range(2):
            data = linear_recurrence_windows()
            cfg = TrainConfig(layers=1, hidden_dim=6, window_m=4, epochs=20, batch_size=16, seed=7)
            net = init_network(1, cfg.hidden_dim, cfg.layers, np.random.default_rng(cfg.seed))
            losses.append(train(net, data, cfg).train_losses)
        assert np.array_equal(losses[0], losses[1])

    def test_each_epoch_batches_a_fresh_seeded_permutation(self, monkeypatch):
        data = linear_recurrence_windows(n_windows=50)
        cfg = TrainConfig(layers=1, hidden_dim=3, window_m=4, epochs=3, batch_size=16, seed=5)
        original, batches = lstm_mod.bptt_gradients, []

        def recording(net, X, y):
            batches.append((X.copy(), y.copy()))
            return original(net, X, y)
        monkeypatch.setattr(lstm_mod, "bptt_gradients", recording)
        train(init_network(1, 3, 1, np.random.default_rng(0)), data, cfg)
        rng = np.random.default_rng(cfg.seed)
        want = [order[start: start + 16] for order in (rng.permutation(50) for _ in range(3))
                for start in range(0, 50, 16)]
        assert len(batches) == len(want) == 12
        for (X, y), idx in zip(batches, want):
            assert np.array_equal(X, data.inputs[idx]) and np.array_equal(y, data.targets[idx])

    def test_best_val_epoch_is_the_lowest_validation_loss(self):
        data = linear_recurrence_windows(n_windows=60)
        val = linear_recurrence_windows(n_windows=20, x0=0.5)
        cfg = TrainConfig(layers=1, hidden_dim=4, window_m=4, epochs=12, batch_size=16, seed=1)
        result = train(init_network(1, 4, 1, np.random.default_rng(0)), data, cfg, val_data=val)
        losses = result.val_losses
        assert np.argmin(losses) != np.argmax(losses)
        assert result.best_val_epoch == int(np.argmin(losses))

    @pytest.mark.parametrize("which", ["training", "validation"])
    def test_a_non_finite_loss_raises_fit_error_without_numpy_warnings(self, which):
        data = linear_recurrence_windows(n_windows=30)
        if which == "training":
            # The squared errors overflow; the zero output head keeps every
            # gradient finite.
            data, val, lr = SupervisedWindowSet(data.inputs, np.full(30, 1e200)), None, 0.005
        else:
            # One batch per epoch: the first update scales the head by about
            # 1e300, so the validation pass overflows before any gradient can.
            val, lr = data, 1e300
        cfg = TrainConfig(learning_rate=lr, layers=1, hidden_dim=4, window_m=4, epochs=2,
                          batch_size=64)
        net = init_network(1, 4, 1, np.random.default_rng(0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FitError, match=rf"^{which} loss of epoch 0 is inf"):
                train(net, data, cfg, val_data=val)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_empty_data_rejected(self, rng):
        net = init_network(1, 3, 1, rng)
        empty = SupervisedWindowSet(np.empty((0, 4)), np.empty(0))
        with pytest.raises(ConfigurationError):
            train(net, empty, TrainConfig(epochs=1))

    def test_adam_steps_each_layer_matrix_the_head_and_its_bias(self, monkeypatch):
        step, sizes = lstm_mod._Adam.step, []

        def recording_step(self, grads):
            sizes.append(len(grads))
            return step(self, grads)
        monkeypatch.setattr(lstm_mod._Adam, "step", recording_step)
        cfg = TrainConfig(layers=3, hidden_dim=4, window_m=4, epochs=1, batch_size=64)
        net = init_network(1, cfg.hidden_dim, cfg.layers, np.random.default_rng(0))
        train(net, linear_recurrence_windows(), cfg)
        assert sizes and set(sizes) == {3 + 2}

    @pytest.mark.parametrize("lr", [0.0, -0.1, np.nan, np.inf])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ConfigurationError, match="finite and positive"):
            TrainConfig(learning_rate=lr)

    def test_defaults_match_stated_hyperparameters(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.005
        assert cfg.epochs == 100
        assert cfg.batch_size == 64
        assert cfg.layers == 3
        assert cfg.hidden_dim == 32
        assert cfg.window_m == 20

    def test_documented_constants(self):
        assert ADF_CRITICAL_VALUES == {0.01: -3.43, 0.05: -2.86, 0.10: -2.57}
        assert DEFAULT_WINDOW_L == 120
        assert SEED_OFFSETS == {"arima": 0, "lstm": 1, "hybrid": 2}
        # An MA(1) with theta = 1: the CSS minimum lies past the bound, so the
        # fit stops on it.
        model = arima.fit(as_series(simulate_ma1(1.0, 1000, seed=2)), arima.ArimaOrder(0, 0, 1))
        assert model.ma_coeffs[0] == 0.99


class TestAdam:
    def test_two_steps_match_a_hand_worked_update(self):
        # lr 0.1, beta1 0.9, beta2 0.999, eps 1e-8.  Parameter 0 sees the
        # gradients 2 then -1, parameter 1 the constant 0.5.
        #   step 1: m = 0.2, v = 0.004; bias-corrected 0.2 / 0.1 = 2 and
        #           0.004 / 0.001 = 4, so the update is 0.1 * 2 / (2 + eps).
        #   step 2: m = 0.18 - 0.1 = 0.08, v = 0.003996 + 0.001 = 0.004996;
        #           corrected by 1 - 0.9^2 = 0.19 and 1 - 0.999^2 = 0.001999.
        # A constant gradient g gives m / (1 - beta1^t) = g and v / (1 -
        # beta2^t) = g^2 at every t: the update is lr * g / (|g| + eps).
        opt = lstm_mod._Adam(0.1)
        first = opt.step([np.array([2.0]), 0.5])
        second = opt.step([np.array([-1.0]), 0.5])
        assert first[0][0] == pytest.approx(0.1 * 2.0 / (2.0 + 1e-8), rel=1e-12)
        assert second[0][0] == pytest.approx(
            0.1 * (0.08 / 0.19) / (math.sqrt(0.004996 / 0.001999) + 1e-8), rel=1e-12)
        for update in (first[1], second[1]):
            assert update == pytest.approx(0.1 * 0.5 / (0.5 + 1e-8), rel=1e-12)


class TestSerialization:
    def test_round_trip(self, rng):
        net = init_random_head(4, 3, rng)
        net.head_b = -0.25
        net2 = deserialize(serialize(net))
        window = rng.normal(size=6)
        assert forward(net2, window) == forward(net, window)

    @given(
        st.integers(1, 3), st.integers(1, 4), st.integers(1, 3),
        st.integers(0, 2**32 - 1), st.integers(-300, 300),
        st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_array_and_head_b_round_trip_bitwise(self, n_layers, hidden, d_in, seed, exp, head_b):
        rng = np.random.default_rng(seed)
        net = init_network(d_in, hidden, n_layers, rng)
        for layer in net.layers:
            for name in PARAM_FIELDS:
                arr = getattr(layer, name)
                arr[...] = rng.normal(size=arr.shape) * 10.0 ** exp
        net.head_w = rng.normal(size=hidden) * 10.0 ** -exp
        net.head_b = head_b
        back = deserialize(serialize(net))
        assert len(back.layers) == n_layers
        for layer, layer2 in zip(net.layers, back.layers):
            for name in PARAM_FIELDS:
                a, b = getattr(layer, name), getattr(layer2, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert net.head_w.tobytes() == back.head_w.tobytes()
        assert np.float64(net.head_b).tobytes() == np.float64(back.head_b).tobytes()

    def test_committed_v1_document_reads_and_writes_back_unchanged(self):
        text = V1_DOCUMENT.read_text(encoding="utf-8")
        assert serialize(deserialize(text)) == text

    @pytest.mark.parametrize("edit", [
        lambda t: "",
        lambda t: t.replace("lstm-network v1", "lstm-network v2", 1),
        lambda t: t.replace("format lstm-network", "format arima-model", 1),
        lambda t: t.replace("layers 2\n", ""),
        lambda t: "\n".join(l for l in t.splitlines() if not l.startswith("layer 1 ")),
        lambda t: "\n".join(l for l in t.splitlines() if not l.startswith("param 1 b_o")),
        lambda t: "\n".join(l for l in t.splitlines() if not l.startswith("head_w")),
        lambda t: "\n".join(l for l in t.splitlines() if not l.startswith("head_b")),
        lambda t: t.replace("layers 2\n", "layers 0\n"),
        lambda t: "\n".join(l.rsplit(" ", 1)[0] if l.startswith("head_w") else l
                            for l in t.splitlines()),
        lambda t: t.replace("head_b -0.125", "head_b nan"),
        lambda t: t.replace("param 1 W_f 0.0063460043653981169", "param 1 W_f nan"),
    ], ids=["empty", "v2", "other-kind", "no-layers", "no-layer-1", "no-param-1-b_o", "no-head_w",
            "no-head_b", "zero-layers", "short-head_w", "nan-head_b", "nan-layer-weight"])
    def test_malformed_document_raises_value_error(self, edit):
        text = edit(V1_DOCUMENT.read_text(encoding="utf-8"))
        with pytest.raises(ValueError):
            deserialize(text)
