"""Outside-in tracing: timing spans around navcast's public functions.

``Tracer.install`` replaces every public function of the six navcast layer
modules with a wrapper that records a span (name, start, end, parent).  Names
that another module imported by value (``cli.compare_models``,
``cli.fit_hybrid``, ``arima.difference``, ``arima.adf_test``, ...) are rebound
to the same wrappers, so each call is seen once whichever name it went
through.  ``Tracer.restore`` puts every original back.  The program's source
is not changed.

``layer_metrics`` turns the recorded spans into the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("series", "arima", "lstm", "hybrid", "metrics", "cli")

# Span record fields.
NAME, START, END, PARENT, INFO = range(5)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _net_arrays(net):
    out = []
    for layer in net.layers:
        out.extend(vars(layer).values())
    return out + [net.head_w, net.head_b]


def _bptt_flops(net, X) -> float:
    """Matmul FLOPs of one BPTT call, computed from array shapes.

    Per layer and step: 4 gate GEMMs forward, 4 weight-gradient GEMMs and 4
    input-gradient GEMMs backward, each 2*B*H*(H+d_in) FLOPs.  Elementwise
    work is not counted.
    """
    B, m = np.shape(X)
    return float(sum(24 * B * layer.hidden_dim * layer.W_f.shape[1] * m for layer in net.layers))


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _train_info(a, k) -> dict:
    net, data, cfg = a[:3]
    val = _arg(a, k, 3, "val_data")
    parts = [data.inputs, data.targets, cfg, *_net_arrays(net)]
    if val is not None:
        parts += [val.inputs, val.targets]
    return {"input": _digest(*parts), "epochs": cfg.epochs}


# name -> function(args, kwargs) -> info recorded before the call.
_BEFORE = {
    "arima.select_order": lambda a, k: {"input": _digest(a[0].values, _arg(a, k, 1, "caps"))},
    "lstm.train": _train_info,
    "lstm.bptt_gradients": lambda a, k: {"flops": _bptt_flops(a[0], a[1])},
    "hybrid.fit_hybrid": lambda a, k: {
        "input": _digest(a[0].values,
                         None if _arg(a, k, 1, "val") is None else _arg(a, k, 1, "val").values,
                         _arg(a, k, 2, "arima_order", "auto"), _arg(a, k, 3, "cfg")),
    },
    "hybrid.sliding_window_evaluate": lambda a, k: {
        "kind": _arg(a, k, 2, "kind"), "test_len": a[1].test_len,
    },
}

# name -> function(result) -> info recorded after the call.
_AFTER = {
    "arima.fit": lambda r: {"stationary": bool(r.ar_stationary)},
    "arima.select_order": lambda r: {
        "ok": sum(1 for c in r.candidates if c[2]), "tried": len(r.candidates),
    },
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, name, func):
        spans, stack = self.spans, self._stack
        before, after = _BEFORE.get(name), _AFTER.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            info = before(args, kwargs) if before else None
            span = [name, clock(), None, stack[-1] if stack else -1, info]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after:
                extra = after(result)
                span[INFO] = {**(info or {}), **extra}
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = func.__name__
        return wrapper

    def install(self):
        """Wrap each layer's public functions and rebind every name bound to one."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"navcast.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "navcast" or modname.startswith("navcast.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(mod, attr, wrappers[id(obj)][1])
                    self._restore.append((mod, attr, obj))

    def restore(self):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics from one traced pass (names as listed in BENCHMARK.json)."""
    dur = [s[END] - s[START] for s in spans]
    by_name = {}
    children = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)
        children.setdefault(s[PARENT], []).append(i)

    def idx(name, parent=None):
        found = by_name.get(name, [])
        if parent is None:
            return found
        return [i for i in found if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == parent]

    def secs(ids):
        return float(sum(dur[i] for i in ids))

    def self_s(name):
        return float(sum(dur[i] - sum(dur[c] for c in children.get(i, [])) for i in idx(name)))

    def distinct(name):
        ids = idx(name)
        return _ratio(len({spans[i][INFO]["input"] for i in ids}), len(ids))

    m = {}
    for tag, parent in (("search", "arima.select_order"), ("rolling", "hybrid.sliding_window_evaluate")):
        ids = idx("arima.fit", parent)
        ms = [dur[i] * 1e3 for i in ids]
        m[f"arima.fit.{tag}.calls"] = len(ids)
        m[f"arima.fit.{tag}.s"] = secs(ids)
        m[f"arima.fit.{tag}.ms_p50"] = _pct(ms, 50)
        m[f"arima.fit.{tag}.ms_p95"] = _pct(ms, 95)
    fits = idx("arima.fit")
    m["arima.fit.nonstationary_ratio"] = _ratio(
        sum(1 for i in fits if not spans[i][INFO]["stationary"]), len(fits))

    so = idx("arima.select_order")
    m["arima.select_order.calls"] = len(so)
    m["arima.select_order.s"] = secs(so)
    m["arima.select_order.distinct_ratio"] = distinct("arima.select_order")
    m["arima.select_order.candidates_ok_ratio"] = _ratio(
        sum(spans[i][INFO]["ok"] for i in so), sum(spans[i][INFO]["tried"] for i in so))
    fo = idx("arima.forecast_one")
    m["arima.forecast_one.calls"] = len(fo)
    m["arima.forecast_one.us_p50"] = _pct([dur[i] * 1e6 for i in fo], 50)
    m["arima.residuals.calls"] = len(idx("arima.residuals"))

    tr = idx("lstm.train")
    m["lstm.train.calls"] = len(tr)
    m["lstm.train.s"] = secs(tr)
    m["lstm.train.epoch_s"] = _ratio(secs(tr), sum(spans[i][INFO]["epochs"] for i in tr))
    m["lstm.train.distinct_ratio"] = distinct("lstm.train")
    bp = idx("lstm.bptt_gradients")
    bp_ms = [dur[i] * 1e3 for i in bp]
    m["lstm.bptt_gradients.calls"] = len(bp)
    m["lstm.bptt_gradients.s"] = secs(bp)
    m["lstm.bptt_gradients.ms_p50"] = _pct(bp_ms, 50)
    m["lstm.bptt_gradients.ms_p95"] = _pct(bp_ms, 95)
    m["lstm.bptt_gradients.gflop_s_computed"] = _ratio(
        sum(spans[i][INFO]["flops"] for i in bp), secs(bp) * 1e9)
    fw = idx("lstm.forward")
    m["lstm.forward.calls"] = len(fw)
    m["lstm.forward.us_p50"] = _pct([dur[i] * 1e6 for i in fw], 50)

    fh = idx("hybrid.fit_hybrid")
    m["hybrid.fit_hybrid.calls"] = len(fh)
    m["hybrid.fit_hybrid.s"] = secs(fh)
    m["hybrid.fit_hybrid.distinct_ratio"] = distinct("hybrid.fit_hybrid")
    # Per-step evaluation cost: the evaluation span minus its one-off fit,
    # training and search children, over the number of test steps.
    one_off = {"arima.select_order", "lstm.train", "hybrid.fit_hybrid"}
    for kind in ("arima", "lstm", "hybrid"):
        ids = [i for i in idx("hybrid.sliding_window_evaluate") if spans[i][INFO]["kind"] == kind]
        step_s, steps = 0.0, 0
        for i in ids:
            kids = children.get(i, [])
            setup = [c for c in kids if spans[c][NAME] in one_off]
            first_fit = [c for c in kids if spans[c][NAME] == "arima.fit"][:1]
            step_s += dur[i] - secs(setup + first_fit)
            steps += spans[i][INFO]["test_len"]
        m[f"hybrid.sliding_window_evaluate.{kind}.s"] = secs(ids)
        m[f"hybrid.eval_step.{kind}.us"] = _ratio(step_s * 1e6, steps)
    po = idx("hybrid.predict_one")
    m["hybrid.predict_one.calls"] = len(po)
    m["hybrid.predict_one.us_p50"] = _pct([dur[i] * 1e6 for i in po], 50)
    m["hybrid.compare_models.s"] = secs(idx("hybrid.compare_models"))

    adf = idx("series.adf_test")
    m["series.adf_test.calls"] = len(adf)
    m["series.adf_test.s"] = secs(adf)
    m["series.adf_test.first_ms"] = dur[adf[0]] * 1e3 if adf else 0.0
    m["series.difference.calls"] = len(idx("series.difference"))

    ing = idx("cli.ingest_csv")
    m["cli.ingest_csv.calls"] = len(ing)
    m["cli.ingest_csv.s"] = secs(ing)
    m["cli.cmd_compare.self_s"] = self_s("cli.cmd_compare")
    m["cli.cmd_fit_arima.self_s"] = self_s("cli.cmd_fit_arima")
    m["metrics.build_report.s"] = secs(idx("metrics.build_report"))
    return m
