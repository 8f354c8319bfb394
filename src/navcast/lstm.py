"""From-scratch stacked LSTM regressor in double-precision numpy.

Forward pass uses the standard three-gate cell (sigmoid forget/input/output
gates over the concatenation [h_prev, x], tanh candidate); gradients are exact
backpropagation through time over the full window, no truncation.  Training is
mini-batch Adam with a seeded shuffle, fully deterministic for a fixed seed.

The kernel is gate-major: every per-step array is (rows, B) with the batch
last.  A layer stores its weights once, as one (4H, H + d_in + 1) matrix Wb
of [W | b] rows in the order f, i, o, c_tilde (W_f ... b_o are views of its
blocks), so each gate is a contiguous block of rows and a_t = [h_{t-1}; x_t; 1]
gives all four pre-activations in one GEMM.  The backward pass gets the
weight and bias gradients, in the same layout, from one GEMM per step,
dz @ a_t^T, and the input gradient from W^T @ dz.

`forward`, `bptt_gradients` and `train` run every OpenBLAS pool at one thread
(navcast._blas): their small GEMMs gain nothing from a second thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _blas, _doc
from .errors import ConfigurationError, DegenerateInputError, FitError, NumericalError
from .series import ScaleParams, minmax_scale


PARAM_FIELDS = ("W_f", "W_i", "W_c", "W_o", "b_f", "b_i", "b_c", "b_o")
# Row-block order of the stacked gate matrix: the three sigmoid gates first,
# so one in-place sigmoid covers rows :3H, then the tanh candidate.
GATES = ("f", "i", "o", "c")


def _gate_view(name):
    """Field `name` as a view of its block of Wb; assigning to it copies into the block."""
    k = GATES.index(name[-1])
    cols = -1 if name[0] == "b" else slice(None, -1)

    def block(self):
        H = self.hidden_dim
        return self.Wb[k * H:(k + 1) * H, cols]

    def assign(self, value):
        view = block(self)
        if np.shape(value) != view.shape:
            raise ConfigurationError(f"{name} has shape {np.shape(value)}, expected {view.shape}")
        view[...] = value

    return property(block, assign)


class LstmCellParams:
    """One layer's gates: a (4H, H + d_in + 1) matrix Wb of [W | b] rows, H per
    gate in GATES order, the only stored copy of the weights.  W_f ... W_o
    (H, H + d_in) over [h_prev, x] and b_f ... b_o (H,) are views of its
    blocks; the constructor copies the eight arrays in, `wrap` adopts a matrix."""

    W_f, W_i, W_c, W_o, b_f, b_i, b_c, b_o = map(_gate_view, PARAM_FIELDS)

    def __init__(self, W_f, W_i, W_c, W_o, b_f, b_i, b_c, b_o):
        H, K = np.shape(W_f)
        self.Wb = np.empty((4 * H, K + 1))
        for name, value in zip(PARAM_FIELDS, (W_f, W_i, W_c, W_o, b_f, b_i, b_c, b_o)):
            setattr(self, name, value)

    @classmethod
    def wrap(cls, Wb: np.ndarray) -> "LstmCellParams":
        layer = cls.__new__(cls)
        layer.Wb = Wb
        return layer

    @property
    def hidden_dim(self) -> int:
        return self.Wb.shape[0] // 4

    @property
    def input_dim(self) -> int:
        return self.Wb.shape[1] - 1 - self.hidden_dim

    def _non_finite_field(self) -> str | None:
        """The first field in PARAM_FIELDS order with a non-finite entry, or None."""
        if np.all(np.isfinite(self.Wb)):
            return None
        return next(n for n in PARAM_FIELDS if not np.all(np.isfinite(getattr(self, n))))

    def check(self):
        name = self._non_finite_field()
        if name is not None:
            raise NumericalError(f"{name} contains non-finite entries")


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
        for name in ("head_w", "head_b"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise NumericalError(f"{name} contains non-finite entries")


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
        if not 0 < self.learning_rate < np.inf:
            raise ConfigurationError("learning rate must be finite and positive")


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
        zeros = np.zeros(hidden_dim)
        layers.append(LstmCellParams(W_f=W(), W_i=W(), W_c=W(), W_o=W(),
                                     b_f=np.ones(hidden_dim), b_i=zeros, b_c=zeros, b_o=zeros))
        d_in = hidden_dim
    net = LstmNetwork(layers=layers, head_w=np.zeros(hidden_dim), head_b=0.0)
    net.check()
    return net


def _cell_step(W, a, C_prev, g, C, tC, h):
    """One cell update of every column of a = [h_prev; x; 1] (H + d_in + 1, B).

    W is a layer's (4H, H + d_in + 1) gate matrix Wb and C_prev the (H, B)
    state.  Writes the activated gates f, i, o, c_tilde into g (4H, B) and
    the new state, its tanh and the new hidden output into C, tC and h.
    """
    H = C_prev.shape[0]
    np.matmul(W, a, out=g)
    sig = g[:3 * H]  # 1 / (1 + exp(-z)), in place
    np.negative(sig, out=sig)
    np.exp(sig, out=sig)
    sig += 1.0
    np.reciprocal(sig, out=sig)
    c_tilde = g[3 * H:]
    np.tanh(c_tilde, out=c_tilde)
    np.multiply(g[:H], C_prev, out=C)
    C += g[H:2 * H] * c_tilde
    np.tanh(C, out=tC)
    np.multiply(g[2 * H:3 * H], tC, out=h)


def _forward_batch(net: LstmNetwork, X: np.ndarray, want_cache: bool = False):
    """Batched forward over windows X of shape (B, m); scalar inputs per step.

    Every per-step array is (rows, B), a_t = [h_{t-1}; x_t; 1] included.
    Each step allocates its own small arrays, which the allocator recycles
    from call to call; one (m, rows, B) block per layer would be returned to
    the OS and page-faulted in again on every call.  Returns predictions (B,)
    and, when requested, each layer's per-step (a_t, gates, C_{t-1},
    tanh(C_t)) and the top layer's last output, which backpropagation needs.
    """
    if X.ndim != 2 or len(X) == 0:
        raise ConfigurationError(f"a batch must be a nonempty (B, m) array, got shape {X.shape}")
    B, m = X.shape
    if net.layers[0].input_dim != 1:
        raise ConfigurationError("the network reads one value per step, but its first layer "
                                 f"takes {net.layers[0].input_dim}")
    if m == 0:
        raise ConfigurationError("a window needs at least one value")
    xs = [X[:, t] for t in range(m)]
    cache = []
    for layer in net.layers:
        H, W = layer.hidden_dim, layer.Wb
        C = np.zeros((H, B))
        h = np.zeros((H, B))
        steps, hs = [], []
        for x in xs:
            a = np.empty((W.shape[1], B))
            a[:H] = h
            a[H:-1] = x
            a[-1] = 1.0
            g = np.empty((4 * H, B))
            C_new, tC, h = np.empty((3, H, B))
            _cell_step(W, a, C, g, C_new, tC, h)
            if want_cache:
                steps.append((a, g, C, tC))
            hs.append(h)
            C = C_new
        cache.append(steps)
        xs = hs
    preds = net.head_w @ h + net.head_b
    if want_cache:
        return preds, (cache, h)
    return preds


@_blas.single_threaded()
def forward(net: LstmNetwork, window) -> float:
    """Run one window of length m >= 1 through the stack, one value per step;
    zero initial states."""
    return float(_forward_batch(net, np.asarray(window, dtype=float)[None])[0])


@_blas.single_threaded()
def bptt_gradients(net: LstmNetwork, X: np.ndarray, y: np.ndarray):
    """Exact gradients of mean squared error over the batch.

    Returns (gradients, batch_mse).  Loss is mean over the batch of
    (prediction - target)^2; the gradients are an LstmNetwork of the same
    shape as net, whose layers wrap the kernel's gradient matrices.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    preds, (cache, h_last) = _forward_batch(net, X, want_cache=True)
    B, m = X.shape
    if y.shape != (B,):
        raise ConfigurationError(f"{B} windows need {B} targets, got an array of shape {y.shape}")
    err = preds - y
    loss = float(err @ err) / B

    d_pred = 2.0 * err / B  # (B,)
    g_head_w = h_last @ d_pred
    g_head_b = float(d_pred.sum())

    # Gradient w.r.t. every layer's output at each step, top-down.
    d_out = [np.zeros_like(h_last)] * (m - 1) + [np.outer(net.head_w, d_pred)]

    grads = []
    for li in range(len(net.layers) - 1, -1, -1):
        W, H, steps = net.layers[li].Wb, net.layers[li].hidden_dim, cache[li]
        W_in_T = W[:, :-1].T  # maps gate gradients back onto [h_prev; x]
        gW = np.zeros_like(W)  # its last column is the bias gradient
        dz = np.empty((4 * H, B))
        dz_sig, dz_c = dz[:3 * H], dz[3 * H:]
        dh_next = np.zeros((H, B))
        dC_next = np.zeros((H, B))
        d_inputs = [None] * m
        for t in range(m - 1, -1, -1):
            a, g, C_prev, tC = steps[t]
            f, i, o, c_tilde = g[:H], g[H:2 * H], g[2 * H:3 * H], g[3 * H:]
            dh = d_out[t] + dh_next
            dC = dC_next + dh * o * (1.0 - tC * tC)
            np.multiply(dC, C_prev, out=dz[:H])
            np.multiply(dC, c_tilde, out=dz[H:2 * H])
            np.multiply(dh, tC, out=dz[2 * H:3 * H])
            dz_sig *= g[:3 * H] * (1.0 - g[:3 * H])
            np.multiply(dC, i, out=dz_c)
            dz_c *= 1.0 - c_tilde * c_tilde
            gW += dz @ a.T
            da = W_in_T @ dz
            dh_next = da[:H]
            d_inputs[t] = da[H:]
            dC_next = dC * f
        layer_grads = LstmCellParams.wrap(gW)
        name = layer_grads._non_finite_field()
        if name is not None:
            raise FitError(f"non-finite gradient in layer {li} {name}")
        grads.append(layer_grads)
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

    def step(self, grads: list) -> list:
        """The update to subtract from each parameter; moments are keyed by position."""
        self.t += 1
        updates = []
        for key, g in enumerate(grads):
            m = self.m.get(key, 0.0) * self.b1 + (1 - self.b1) * g
            v = self.v.get(key, 0.0) * self.b2 + (1 - self.b2) * g * g
            self.m[key] = m
            self.v[key] = v
            mhat = m / (1 - self.b1 ** self.t)
            vhat = v / (1 - self.b2 ** self.t)
            updates.append(self.lr * mhat / (np.sqrt(vhat) + self.eps))
        return updates


def _arrays(net: LstmNetwork) -> list:
    """The weight arrays of a net, or of its gradients: each layer's Wb, then the head."""
    return [layer.Wb for layer in net.layers] + [net.head_w]


@_blas.single_threaded()
def train(
    net: LstmNetwork,
    data: SupervisedWindowSet,
    cfg: TrainConfig,
    val_data: SupervisedWindowSet | None = None,
) -> TrainResult:
    """Mini-batch Adam on MSE with a per-epoch seeded shuffle.

    One Adam rule updates every parameter, the head bias included.
    Validation loss, when a validation set is given, is recorded per epoch
    for reporting only; the returned network always carries the last-epoch
    weights.
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
            *updates, head_b_update = opt.step(_arrays(grads) + [grads.head_b])
            for param, update in zip(_arrays(net), updates):
                param -= update
            net.head_b -= float(head_b_update)
        train_losses[epoch] = sq_sum / n
        if val_data is not None:
            vp = _forward_batch(net, val_data.inputs)
            verr = vp - val_data.targets
            val_losses[epoch] = float(verr @ verr) / len(verr)
    best_val = int(np.argmin(val_losses)) if val_losses is not None else None
    return TrainResult(net=net, train_losses=train_losses, val_losses=val_losses,
                       best_val_epoch=best_val)


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
            layers.append(LstmCellParams(**{
                name: payload[(li, name)].reshape(h, h + d_in) if name[0] == "W"
                else payload[(li, name)] for name in PARAM_FIELDS}))
        net = LstmNetwork(layers=layers, head_w=np.array([float(v) for v in rest["head_w"]]),
                          head_b=float(rest["head_b"][0]))
        net.check()
    except (KeyError, IndexError) as exc:
        raise ValueError(f"lstm-network document lacks field {exc}") from exc
    except (ConfigurationError, NumericalError) as exc:
        raise ValueError(f"lstm-network document is inconsistent: {exc}") from exc
    return net
