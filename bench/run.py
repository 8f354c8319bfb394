"""navcast benchmark: run one workload from outside and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload compare_paper --seed 0 --seconds 30 --trace 0

and for every workload:

    for w in compare_paper order_search rolling_refit; do
        python3 bench/run.py --workload $w --seed 0 --seconds 30 --trace 0; done

Workloads, metrics and bounds are listed in BENCHMARK.json; fixture
parameters, the seed-commit baseline and the layer-to-end-to-end mapping are
in bench/baseline.json.  Each workload is a closed loop: one client, one
process, CLI calls run back to back through ``navcast.cli.main(argv)``.

``--trace 0`` prints the end-to-end metrics of untraced runs: set-up is
sampled in several fresh processes and reported as the median.  ``--trace 1``
runs one untraced and one traced pass in fresh processes, prints the
per-layer metrics of the traced pass and checks that both passes wrote
byte-identical outputs.  The last line of output is one JSON object.
BLAS threads are left at the library default.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

SETUP_SAMPLES = 3  # set-up runs per --trace 0 run; the measuring process is the last
RUN_LIMIT_S = 170.0  # every process of one run ends within this


class BenchError(Exception):
    pass


def _git_sha(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


class Runner:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0

    def spawn(self, mode: str) -> dict:
        """Run worker.py in a fresh interpreter; adds ``setup_s`` to its result."""
        self.count += 1
        tag = f"{self.count:02d}-{mode}"
        req_path = self.work / f"{tag}.request.json"
        res_path = self.work / f"{tag}.result.json"
        log_path = self.work / f"{tag}.log"
        req_path.write_text(json.dumps({
            "root": str(ROOT), "work_dir": str(self.work / tag), "mode": mode,
            "workload": self.args.workload, "seed": self.args.seed,
            "seconds": self.args.seconds,
        }))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a worker")
        with open(log_path, "wb") as log:
            t_spawn = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "worker.py"), str(req_path), str(res_path)],
                    stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                raise BenchError(f"worker {tag} did not finish within {timeout:.0f} s")
        if proc.returncode != 0 or not res_path.is_file():
            tail = log_path.read_text(errors="replace")[-2000:]
            raise BenchError(f"worker {tag} exited with {proc.returncode}:\n{tail}")
        result = json.loads(res_path.read_text())
        result["setup_s"] = result["t_ready"] - t_spawn
        return result


def _invocations(result) -> tuple:
    """(attempted, failed, problem lines) over every pass of a worker result."""
    attempted, failed, lines = 0, 0, []
    for p, check in enumerate(result["checks"]):
        for i, problems in enumerate(check["problems"]):
            attempted += 1
            if problems:
                failed += 1
                lines += [f"pass {p} call {i}: {msg}" for msg in problems]
    return attempted, failed, lines


def _same_outputs(result) -> bool:
    return len({c["digests"]["outputs"] for c in result["checks"]}) == 1


def measure(runner: Runner) -> tuple:
    """--trace 0: end-to-end metrics, (attempted, failed), problems, first pass checks."""
    setups = [runner.spawn("setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    res = runner.spawn("measure")
    setups.append(res["setup_s"])
    attempted, failed, problems = _invocations(res)
    if not _same_outputs(res):
        problems.append("passes of one run wrote different outputs")
    first = res["checks"][0]
    metrics = {
        "wall_s": statistics.median(res["pass_walls"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": (attempted - failed) / attempted,
    }
    info = {"passes": len(res["pass_walls"]), "pass_walls": res["pass_walls"],
            "setup_samples": setups, "versions": res["versions"], "blas": res["blas"]}
    return metrics, (attempted, failed), problems, first, info


def traced(runner: Runner) -> tuple:
    """--trace 1: per-layer metrics, (attempted, failed), problems, first pass checks."""
    plain = runner.spawn("once")
    res = runner.spawn("traced")
    a1, f1, problems = _invocations(plain)
    a2, f2, more = _invocations(res)
    problems += more
    if plain["checks"][0]["digests"] != res["checks"][0]["digests"]:
        problems.append("traced and untraced runs wrote different outputs")
    wall, plain_wall = res["pass_walls"][0], plain["pass_walls"][0]
    rmse = res["checks"][0]["rmse"]
    metrics = dict(res["layers"])
    metrics.update({
        "metrics.rmse_arima": rmse.get("arima", 0.0),
        "metrics.rmse_lstm": rmse.get("lstm", 0.0),
        "metrics.rmse_hybrid": rmse.get("hybrid", 0.0),
        "proc.cpu_s": plain["cpu_s"],
        "proc.cpu_per_wall": plain["cpu_s"] / plain["loop_wall"],
        "trace.wall_s": wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_frac": wall / plain_wall - 1.0,
    })
    info = {"versions": res["versions"], "blas": res["blas"]}
    return metrics, (a1 + a2, f1 + f2), problems, res["checks"][0], info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "navcast" / "cli.py").is_file():
        print(f"error: no navcast source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    (ROOT / ".bench_run").mkdir(exist_ok=True)
    work = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir()
    try:
        runner = Runner(args, work)
        metrics, (attempted, failed), problems, first, info = (traced if args.trace else measure)(runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    meta = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_sha": _git_sha(ROOT),
        "run_seconds": args.seconds,
        "trace": args.trace,
        **workloads.describe(args.workload, args.seed),
        **info,
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, digest in sorted(first["digests"].items()):
        print(f"digest {name} {digest}")
    print("orders " + json.dumps(first["orders"]))
    for msg in problems:
        print(f"FAILED {msg}")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
