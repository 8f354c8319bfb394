"""Pinned output bytes of the CLI.

Each case runs `navcast.cli.main` in process and hashes every file it writes:
for each file, in sorted relative-path order, its path and then its bytes.
data/pinned_outputs.json holds the digests with the numpy and scipy versions
and the CPU model they were recorded on; floating-point results can move in
their last bits on another stack, so a mismatch names both stacks.

A change that moves a digest changes what navcast writes.  Record the file
again with

    PYTHONPATH=src python tests/test_pinned_outputs.py

and say why each digest moved.
"""

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from navcast.cli import generate_synthetic, main, write_series_csv

PINNED = Path(__file__).parent / "data" / "pinned_outputs.json"

# Criterion 10's fixture and training flags.
SINE = {"sigma": 0.04, "amplitude": 0.4, "period": 40}
NET_FLAGS = ["--epochs", "20", "--layers", "1", "--hidden", "8", "--window-m", "10"]

# name -> (input series as (kind, n, params, seed), command line after --input/--out)
CASES = {
    "compare-n400-seed7": (("linear-plus-sine", 400, SINE, 11),
                           ["compare", "--seed", "7", *NET_FLAGS]),
    "compare-n400-seed8": (("linear-plus-sine", 400, SINE, 11),
                           ["compare", "--seed", "8", *NET_FLAGS]),
    "fit-hybrid-n400-seed7": (("linear-plus-sine", 400, SINE, 11),
                              ["fit-hybrid", "--seed", "7", *NET_FLAGS]),
    "fit-hybrid-n400-seed8": (("linear-plus-sine", 400, SINE, 11),
                              ["fit-hybrid", "--seed", "8", *NET_FLAGS]),
    # The default split of 401 values has raw lengths 286.4, 31.8 and 82.7,
    # so the largest-remainder rule decides it.
    "compare-n401-seed0": (("linear-plus-sine", 401, SINE, 11),
                           ["compare", "--seed", "0", *NET_FLAGS]),
    "fit-arima-random-walk-n250": (("random-walk", 250, {}, 0), ["fit-arima"]),
    "fit-arima-ar1-n250": (("ar1", 250, {}, 0), ["fit-arima"]),
    "fit-arima-linear-plus-sine-n250": (("linear-plus-sine", 250, {}, 0), ["fit-arima"]),
    "analyze-n400": (("linear-plus-sine", 400, SINE, 11), ["analyze"]),
}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def running_stack() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__, "cpu": cpu_model()}


def output_digest(name: str, work: Path) -> str:
    """Run case `name` in directory `work` and hash every file it wrote."""
    (kind, n, params, seed), argv = CASES[name]
    csv = work / "input.csv"
    write_series_csv(csv, generate_synthetic(kind, n, params, seed=seed))
    out = work / "out"
    code = main([argv[0], "--input", str(csv), "--out", str(out), *argv[1:]])
    assert code == 0, f"{name} exited {code}"
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_the_pinned_digests(name, tmp_path):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    got = output_digest(name, tmp_path)
    if got != pinned["digests"][name]:
        stack = running_stack()
        same = "the same stack" if stack == pinned["stack"] else "a different stack"
        pytest.fail(f"{name} wrote other bytes than pinned ({got} != {pinned['digests'][name]}), "
                    f"on {same}: pinned on {pinned['stack']}, running on {stack}")


def record():
    digests = {}
    for name in CASES:
        with tempfile.TemporaryDirectory() as work:
            digests[name] = output_digest(name, Path(work))
    PINNED.write_text(json.dumps({"stack": running_stack(), "digests": digests}, indent=2) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    record()
