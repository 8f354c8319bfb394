"""From-scratch stacked LSTM regressor in double-precision numpy.

Forward pass uses the standard three-gate cell (sigmoid forget/input/output
gates over the concatenation [h_prev, x], tanh candidate); gradients are exact
backpropagation through time over the full window, no truncation.  Training is
mini-batch Adam with a seeded shuffle, fully deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _doc
from .errors import ConfigurationError, DegenerateInputError, FitError, NumericalError
from .series import ScaleParams, minmax_scale


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class LstmCellParams:
    """One layer's gate weights over [h_prev, x] and biases."""

    W_f: np.ndarray
    W_i: np.ndarray
    W_c: np.ndarray
    W_o: np.ndarray
    b_f: np.ndarray
    b_i: np.ndarray
    b_c: np.ndarray
    b_o: np.ndarray

    @property
    def hidden_dim(self) -> int:
        return self.W_f.shape[0]

    @property
    def input_dim(self) -> int:
        return self.W_f.shape[1] - self.W_f.shape[0]

    def check(self):
        h = self.hidden_dim
        for name in PARAM_FIELDS:
            arr = getattr(self, name)
            shape = (h, h + self.input_dim) if name.startswith("W") else (h,)
            if arr.shape != shape:
                raise ConfigurationError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise NumericalError(f"{name} contains non-finite entries")

    def zeros_like(self) -> "LstmCellParams":
        return LstmCellParams(
            *(np.zeros_like(getattr(self, n)) for n in PARAM_FIELDS)
        )


PARAM_FIELDS = ("W_f", "W_i", "W_c", "W_o", "b_f", "b_i", "b_c", "b_o")


@dataclass
class LstmState:
    h: np.ndarray
    C: np.ndarray


@dataclass
class LstmNetwork:
    """Stacked LSTM layers plus a scalar affine output head."""

    layers: list
    head_w: np.ndarray  # (hidden_dim of top layer,)
    head_b: float

    def check(self):
        if not self.layers:
            raise ConfigurationError("network needs at least one layer")
        prev_out = self.layers[0].input_dim
        for i, layer in enumerate(self.layers):
            layer.check()
            if i > 0 and layer.input_dim != prev_out:
                raise ConfigurationError(
                    f"layer {i} input dim {layer.input_dim} != layer {i-1} hidden {prev_out}"
                )
            prev_out = layer.hidden_dim
        if self.head_w.shape != (prev_out,):
            raise ConfigurationError("output head width does not match top layer")


@dataclass
class TrainConfig:
    learning_rate: float = 0.005
    epochs: int = 100
    batch_size: int = 64
    layers: int = 3
    hidden_dim: int = 32
    window_m: int = 20
    seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.batch_size, self.layers, self.hidden_dim, self.window_m) <= 0:
            raise ConfigurationError("all TrainConfig sizes must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning rate must be positive")


@dataclass
class SupervisedWindowSet:
    """Sliding windows of length m paired with their next-step targets (scaled)."""

    inputs: np.ndarray  # (count, m)
    targets: np.ndarray  # (count,)


@dataclass
class TrainResult:
    net: "LstmNetwork"
    train_losses: np.ndarray  # per-epoch mean training MSE
    val_losses: np.ndarray | None = None
    best_val_epoch: int | None = None


def init_network(
    input_dim: int,
    hidden_dim: int,
    n_layers: int,
    rng: np.random.Generator,
) -> LstmNetwork:
    """Uniform(-k, k) weights with k = 1/sqrt(fan-in); forget bias starts at 1.

    The output head starts at zero so an untrained net predicts the head bias
    (zero): the hybrid model then begins exactly at its linear baseline.
    """
    layers = []
    d_in = input_dim
    for _ in range(n_layers):
        k = 1.0 / np.sqrt(hidden_dim + d_in)
        def W():
            return rng.uniform(-k, k, size=(hidden_dim, hidden_dim + d_in))
        layers.append(
            LstmCellParams(
                W_f=W(), W_i=W(), W_c=W(), W_o=W(),
                b_f=np.ones(hidden_dim),
                b_i=np.zeros(hidden_dim),
                b_c=np.zeros(hidden_dim),
                b_o=np.zeros(hidden_dim),
            )
        )
        d_in = hidden_dim
    net = LstmNetwork(layers=layers, head_w=np.zeros(hidden_dim), head_b=0.0)
    net.check()
    return net


def cell_forward(params: LstmCellParams, x: np.ndarray, prev: LstmState) -> LstmState:
    """Single-step cell update; x is (input_dim,) and prev holds (hidden_dim,)."""
    a = np.concatenate((prev.h, np.atleast_1d(np.asarray(x, dtype=float))))
    if a.shape[0] != params.W_f.shape[1]:
        raise ConfigurationError(
            f"concatenated input has length {a.shape[0]}, expected {params.W_f.shape[1]}"
        )
    *_, C, _, h = _cell_step(params, a[None, :], prev.C)
    if not (np.all(np.isfinite(C)) and np.all(np.isfinite(h))):
        raise NumericalError("non-finite cell state")
    return LstmState(h=h[0], C=C[0])


def _cell_step(layer: LstmCellParams, a: np.ndarray, C: np.ndarray):
    """Cell update on rows a = [h_prev, x] of shape (B, H + d_in) and state C.

    Returns (f, i, c_tilde, o, C_new, tanh(C_new), h), each (B, H).
    """
    f = _sigmoid(a @ layer.W_f.T + layer.b_f)
    i = _sigmoid(a @ layer.W_i.T + layer.b_i)
    c_tilde = np.tanh(a @ layer.W_c.T + layer.b_c)
    o = _sigmoid(a @ layer.W_o.T + layer.b_o)
    C_new = f * C + i * c_tilde
    tC = np.tanh(C_new)
    return f, i, c_tilde, o, C_new, tC, o * tC


def _forward_batch(net: LstmNetwork, X: np.ndarray, want_cache: bool = False):
    """Batched forward over windows X of shape (B, m); scalar inputs per step.

    Returns predictions (B,) and, when requested, the per-layer per-step cache
    needed for backpropagation.
    """
    B, m = X.shape
    cache = []
    inputs = X[:, :, None]  # (B, m, 1)
    for layer in net.layers:
        H = layer.hidden_dim
        h = np.zeros((B, H))
        C = np.zeros((B, H))
        steps = []
        outputs = np.empty((B, m, H))
        for t in range(m):
            a = np.concatenate((h, inputs[:, t, :]), axis=1)  # (B, H + d_in)
            f, i, c_tilde, o, C_new, tC, h = _cell_step(layer, a, C)
            if want_cache:
                steps.append((a, f, i, c_tilde, o, C, tC))
            C = C_new
            outputs[:, t, :] = h
        cache.append(steps)
        inputs = outputs
    preds = outputs[:, -1, :] @ net.head_w + net.head_b
    if want_cache:
        return preds, (cache, outputs)
    return preds


def forward(net: LstmNetwork, window) -> float:
    """Run one window of length m through the stack; zero initial states."""
    w = np.asarray(window, dtype=float).reshape(1, -1)
    return float(_forward_batch(net, w)[0])


def bptt_gradients(net: LstmNetwork, X: np.ndarray, y: np.ndarray):
    """Exact gradients of mean squared error over the batch.

    Returns (gradients, batch_mse).  Loss is mean over the batch of
    (prediction - target)^2; the gradients are an LstmNetwork of the same
    shape as net.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or len(X) == 0:
        raise ConfigurationError("batch must be a nonempty (B, m) array")
    B, m = X.shape
    preds, (cache, top_out) = _forward_batch(net, X, want_cache=True)
    err = preds - y
    loss = float(err @ err) / B

    d_pred = 2.0 * err / B  # (B,)
    g_head_w = top_out[:, -1, :].T @ d_pred
    g_head_b = float(d_pred.sum())

    # Gradient w.r.t. every layer's output sequence, accumulated top-down.
    d_out = np.zeros((B, m, net.layers[-1].hidden_dim))
    d_out[:, -1, :] = d_pred[:, None] * net.head_w

    grads = []
    for li in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[li]
        steps = cache[li]
        H = layer.hidden_dim
        d_in_dim = layer.input_dim
        g = layer.zeros_like()
        dh_next = np.zeros((B, H))
        dC_next = np.zeros((B, H))
        d_inputs = np.zeros((B, m, d_in_dim))
        for t in range(m - 1, -1, -1):
            a, f, i, c_tilde, o, C_prev, tC = steps[t]
            dh = d_out[:, t, :] + dh_next
            do = dh * tC
            dC = dC_next + dh * o * (1.0 - tC * tC)
            df = dC * C_prev
            di = dC * c_tilde
            dct = dC * i
            dz_f = df * f * (1.0 - f)
            dz_i = di * i * (1.0 - i)
            dz_c = dct * (1.0 - c_tilde * c_tilde)
            dz_o = do * o * (1.0 - o)
            g.W_f += dz_f.T @ a
            g.W_i += dz_i.T @ a
            g.W_c += dz_c.T @ a
            g.W_o += dz_o.T @ a
            g.b_f += dz_f.sum(axis=0)
            g.b_i += dz_i.sum(axis=0)
            g.b_c += dz_c.sum(axis=0)
            g.b_o += dz_o.sum(axis=0)
            da = (
                dz_f @ layer.W_f + dz_i @ layer.W_i
                + dz_c @ layer.W_c + dz_o @ layer.W_o
            )
            dh_next = da[:, :H]
            d_inputs[:, t, :] = da[:, H:]
            dC_next = dC * f
        for name in PARAM_FIELDS:
            if not np.all(np.isfinite(getattr(g, name))):
                raise FitError(f"non-finite gradient in layer {li} {name}")
        grads.append(g)
        if li > 0:
            d_out = d_inputs
    grads.reverse()
    return LstmNetwork(layers=grads, head_w=g_head_w, head_b=g_head_b), loss


def make_windows(values, m: int, scale: ScaleParams) -> SupervisedWindowSet:
    """Sliding supervised (window, next value) pairs, scaled with given params."""
    x = np.asarray(values, dtype=float)
    if len(x) <= m:
        raise DegenerateInputError(f"need more than {m} values, got {len(x)}")
    s = minmax_scale(x, scale)
    count = len(s) - m
    idx = np.arange(m)[None, :] + np.arange(count)[:, None]
    return SupervisedWindowSet(inputs=s[idx], targets=s[m:])


class _Adam:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params: list, grads: list):
        """Update each array of params in place; moments are keyed by position."""
        self.t += 1
        for key, (param, g) in enumerate(zip(params, grads)):
            m = self.m.get(key, 0.0) * self.b1 + (1 - self.b1) * g
            v = self.v.get(key, 0.0) * self.b2 + (1 - self.b2) * g * g
            self.m[key] = m
            self.v[key] = v
            mhat = m / (1 - self.b1 ** self.t)
            vhat = v / (1 - self.b2 ** self.t)
            param -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def _arrays(net: LstmNetwork) -> list:
    """The weight arrays of a net, or of its gradients, in a fixed order."""
    return [getattr(layer, name) for layer in net.layers for name in PARAM_FIELDS] + [net.head_w]


def train(
    net: LstmNetwork,
    data: SupervisedWindowSet,
    cfg: TrainConfig,
    val_data: SupervisedWindowSet | None = None,
) -> TrainResult:
    """Mini-batch Adam on MSE with a per-epoch seeded shuffle.

    The head bias is updated alongside the weights.  Validation loss, when a
    validation set is given, is recorded per epoch for reporting only; the
    returned network always carries the last-epoch weights.
    """
    n = len(data.inputs)
    if n == 0:
        raise ConfigurationError("empty training set")
    net.check()
    rng = np.random.default_rng(cfg.seed)
    opt = _Adam(cfg.learning_rate)
    train_losses = np.empty(cfg.epochs)
    val_losses = np.empty(cfg.epochs) if val_data is not None else None
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        sq_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start: start + cfg.batch_size]
            grads, loss = bptt_gradients(net, data.inputs[idx], data.targets[idx])
            sq_sum += loss * len(idx)
            opt.step(_arrays(net), _arrays(grads))
            net.head_b -= opt.lr * _adam_scalar(opt, "head_b", grads.head_b)
        train_losses[epoch] = sq_sum / n
        if val_data is not None:
            vp = _forward_batch(net, val_data.inputs)
            verr = vp - val_data.targets
            val_losses[epoch] = float(verr @ verr) / len(verr)
    best_val = int(np.argmin(val_losses)) if val_losses is not None else None
    return TrainResult(net=net, train_losses=train_losses, val_losses=val_losses,
                       best_val_epoch=best_val)


def _adam_scalar(opt: _Adam, key, g):
    """Adam update direction for a scalar parameter, sharing the step counter."""
    m = opt.m.get(key, 0.0) * opt.b1 + (1 - opt.b1) * g
    v = opt.v.get(key, 0.0) * opt.b2 + (1 - opt.b2) * g * g
    opt.m[key] = m
    opt.v[key] = v
    mhat = m / (1 - opt.b1 ** opt.t)
    vhat = v / (1 - opt.b2 ** opt.t)
    return mhat / (np.sqrt(vhat) + opt.eps)


# ---------------------------------------------------------------------------
# Serialization in the shared saved-model format (navcast._doc): dims first,
# then each layer's row-major payloads, then the head.

def serialize(net: LstmNetwork) -> str:
    rows = [("layers", [len(net.layers)])]
    for li, layer in enumerate(net.layers):
        rows.append(("layer", [li, "hidden", layer.hidden_dim, "input", layer.input_dim]))
    for li, layer in enumerate(net.layers):
        rows += [("param", [li, name, *getattr(layer, name).ravel()]) for name in PARAM_FIELDS]
    rows += [("head_w", net.head_w), ("head_b", [net.head_b])]
    return _doc.dump("lstm-network", rows)


def deserialize(text: str) -> LstmNetwork:
    dims, payload, rest = {}, {}, {}
    try:
        for key, vals in _doc.load("lstm-network", text):
            if key == "layer":
                dims[int(vals[0])] = (int(vals[2]), int(vals[4]))
            elif key == "param":
                payload[(int(vals[0]), vals[1])] = np.array([float(v) for v in vals[2:]])
            else:
                rest[key] = vals
        layers = []
        for li in range(int(rest["layers"][0])):
            h, d_in = dims[li]
            kwargs = {}
            for name in PARAM_FIELDS:
                arr = payload[(li, name)]
                kwargs[name] = arr.reshape(h, h + d_in) if name.startswith("W") else arr
            layers.append(LstmCellParams(**kwargs))
        net = LstmNetwork(layers=layers, head_w=np.array([float(v) for v in rest["head_w"]]),
                          head_b=float(rest["head_b"][0]))
    except (KeyError, IndexError) as exc:
        raise ValueError(f"lstm-network document lacks field {exc}") from exc
    net.check()
    return net
