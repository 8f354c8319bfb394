"""One benchmark process: set up, run passes of CLI calls back to back, check outputs.

Usage: python3 bench/worker.py REQUEST.json RESULT.json

``run.py`` starts this script in a fresh interpreter, exactly as a user's
``navcast`` call would start.  Set-up is interpreter start, imports and the
fixture write; it ends at the first ``navcast.cli.main(argv)`` call.  Modes:

* ``setup``: stop after set-up (set-up time samples only);
* ``measure``: run passes until the time budget would be exceeded (at least one);
* ``once``: run exactly one pass;
* ``traced``: run one pass with the layer spans of ``spans.py`` installed.

The result file holds the timings, resource use, output checks and digests.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

ORDER_CAPS = (5, 2, 5)


def _import_navcast(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import navcast.cli

    if Path(navcast.__file__).resolve().parent != (src / "navcast").resolve():
        raise SystemExit(f"navcast imported from {navcast.__file__}, not from {src}")
    return navcast


def _blas_info(np) -> dict:
    """BLAS library name and its effective thread count (None if not readable)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*blas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def _tree_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_arima(navcast, out: Path):
    return navcast.arima.deserialize((out / "models" / "arima.txt").read_text(encoding="utf-8"))


def _rms(np, err) -> float:
    return math.sqrt(float(np.mean(err ** 2)))


def _check_compare(navcast, np, out: Path, test_len: int) -> tuple:
    """Check one compare output dir; returns (problems, ARIMA order, test RMSE by model)."""
    problems = []
    lines = (out / "predictions.csv").read_text(encoding="utf-8").splitlines()
    if lines[0] != "date,actual,arima,lstm,hybrid":
        problems.append(f"predictions.csv header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != test_len:
        problems.append(f"predictions.csv has {len(rows)} rows, expected {test_len}")
    table = np.array([[float(v) for v in row[1:]] for row in rows])
    if table.shape != (len(rows), 4) or not np.all(np.isfinite(table)):
        return problems + ["predictions.csv has missing or non-finite values"], None, {}
    report = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    if "failed" in report:
        problems.append(f"metrics.json reports failures {report['failed']}")
    models = [r["model"] for r in report["rows"]]
    if models != ["arima", "lstm", "hybrid"]:
        problems.append(f"metrics.json rows {models}")
    actual = table[:, 0]
    persistence = _rms(np, actual[1:] - actual[:-1])
    rmse = {}
    for col, row in enumerate(report["rows"], start=1):
        # The reported RMSE must be the RMSE of the written predictions, and
        # every model must beat the naive forecast y[t-1].
        expect = _rms(np, table[:, col] - actual)
        if not math.isclose(row["rmse"], expect, rel_tol=1e-12):
            problems.append(f"metrics.json rmse of {row['model']} {row['rmse']} != {expect}")
        if not _rms(np, table[1:, col] - actual[1:]) < persistence:
            problems.append(f"{row['model']} does not beat the persistence forecast")
        rmse[row["model"]] = row["rmse"]
    navcast.lstm.deserialize((out / "models" / "lstm.txt").read_text(encoding="utf-8"))
    return problems, _load_arima(navcast, out).order, rmse


def _check_fit_arima(navcast, np, out: Path, test_len) -> tuple:
    """Check one fit-arima output dir; returns (problems, ARIMA order, {})."""
    order = tuple(_load_arima(navcast, out).order)
    problems = []
    if any(o > cap for o, cap in zip(order, ORDER_CAPS)):
        problems.append(f"order {order} exceeds caps {ORDER_CAPS}")
    return problems, order, {}


def _check_pass(navcast, np, workload: str, pass_dir: Path, rcs: list) -> dict:
    """Per-invocation problems, chosen orders, test RMSEs and output digests of one pass."""
    spec = workloads.WORKLOADS[workload]
    check = _check_compare if spec["command"] == "compare" else _check_fit_arima
    problems, orders, rmse = [], [], {}
    for i, rc in enumerate(rcs):
        if rc != 0:
            problems.append([f"exit code {rc}"])
            continue
        try:
            found, order, call_rmse = check(navcast, np, pass_dir / f"{i:02d}", spec.get("test_len"))
            rmse = rmse or call_rmse
            orders.append(list(order) if order else None)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found = [f"unreadable output: {type(exc).__name__}: {exc}"]
        problems.append(found)
    first = pass_dir / "00"
    digests = {"outputs": _tree_digest(pass_dir)}
    for name in ("predictions.csv", "metrics.json"):
        if (first / name).is_file():
            digests[name] = _sha(first / name)
    return {"problems": problems, "digests": digests, "orders": orders, "rmse": rmse}


def run(req: dict) -> dict:
    root = Path(req["root"])
    work = Path(req["work_dir"])
    workload, mode = req["workload"], req["mode"]
    navcast = _import_navcast(root)
    import numpy as np
    import scipy

    inputs = []
    (work / "inputs").mkdir(parents=True, exist_ok=True)
    for name, kind, n, params, fseed in workloads.fixtures(workload, req["seed"]):
        path = work / "inputs" / name
        navcast.cli.write_series_csv(path, navcast.cli.generate_synthetic(kind, n, params, fseed))
        inputs.append(path)
    t_ready = time.monotonic()
    if mode == "setup":
        return {"t_ready": t_ready}

    tracer = None
    if mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t_first = time.monotonic()
    pass_walls, pass_rcs = [], []
    while True:
        pass_dir = work / f"pass{len(pass_walls)}"
        rcs = []
        t0 = time.monotonic()
        for argv in workloads.pass_argvs(workload, inputs, pass_dir):
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rcs.append(navcast.cli.main(argv))
            except Exception:  # a crash is a failed invocation, not a benchmark error
                traceback.print_exc()
                rcs.append("from an uncaught exception")
        pass_walls.append(time.monotonic() - t0)
        pass_rcs.append(rcs)
        elapsed = time.monotonic() - t_first
        if mode != "measure" or elapsed + pass_walls[-1] > req["seconds"]:
            break
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    loop_wall = time.monotonic() - t_first
    if tracer is not None:
        tracer.restore()

    checks = [_check_pass(navcast, np, workload, work / f"pass{p}", rcs)
              for p, rcs in enumerate(pass_rcs)]
    result = {
        "t_ready": t_ready,
        "pass_walls": pass_walls,
        "loop_wall": loop_wall,
        "cpu_s": (usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "checks": checks,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "blas": _blas_info(np),
    }
    if tracer is not None:
        from spans import layer_metrics

        result["layers"] = layer_metrics(tracer.spans)
    return result


def main(argv) -> int:
    request_path, result_path = argv
    req = json.loads(Path(request_path).read_text(encoding="utf-8"))
    result = run(req)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
