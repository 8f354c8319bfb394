"""Workload table: fixtures made from the benchmark seed and the CLI calls of one pass.

Every fixture comes from ``navcast.cli.generate_synthetic`` at NAV level 10
(base 10), the level of a real positive fund NAV, so every value is positive
and ``navcast`` accepts the written CSV.  A pass is the unit the closed loop
repeats; ``wall_s`` is the median pass time.
"""

from __future__ import annotations

# The paper's fixture: 1260 trading days, 900/100/260 split (the CLI default
# for a 1260-point series).
PAPER_KIND = "linear-plus-sine"
PAPER_PARAMS = {"sigma": 0.001, "amplitude": 4.0, "period": 25.0, "base": 10.0}
PAPER_N = 1260

ORDER_SEARCH_KINDS = {
    "random-walk": {"base": 10.0},
    "ar1": {"base": 10.0},
    "linear-plus-sine": {"base": 10.0},
}
ORDER_SEARCH_LENGTHS = (250, 500, 1000, 2000)
ORDER_SEARCH_FIXTURES_PER_CELL = 2

# The refit cost of one series depends on its noise draw (the optimizer's
# path), by about 25% between seeds, so a pass refits three independent
# funds with the paper's train/val split and a 100-day test segment each.
# Refits use one fixed order: the search picks anything from (4,1,1) to
# (5,1,5) depending on the seed, and the refit cost follows the order.
ROLLING_FUNDS = 3
ROLLING_TEST_LEN = 100
ROLLING_REFIT_ORDER = "4,1,5"

# Epoch counts are cut from the CLI default of 100 so that one pass fits the
# benchmark's run length; every other setting is the CLI default (3x32 LSTM,
# m=20, L=120).
COMPARE_PAPER_EPOCHS = 35
ROLLING_REFIT_EPOCHS = 2

WORKLOADS = {
    "compare_paper": {
        "command": "compare",
        "argv": ["--epochs", str(COMPARE_PAPER_EPOCHS)],
        "test_len": 260,
        "why": "the paper's three-way compare on the 1260-day fixture; LSTM training dominates",
    },
    "order_search": {
        "command": "fit-arima",
        "argv": [],
        "why": "24 fit-arima order searches over 3 kinds x 4 lengths; ARIMA only, bypasses the LSTM",
    },
    "rolling_refit": {
        "command": "compare",
        "argv": ["--split", f"900,100,{ROLLING_TEST_LEN}", "--refit", "arima",
                 "--order", ROLLING_REFIT_ORDER, "--epochs", str(ROLLING_REFIT_EPOCHS)],
        "test_len": ROLLING_TEST_LEN,
        "why": "3 funds x 100 test days refitting ARIMA(4,1,5) on each trailing 120-day window; the rolling fit loop blocks",
    },
}


def fixtures(workload: str, seed: int) -> list:
    """(file name, kind, n, params, fixture seed) for every input the workload reads."""
    if workload == "compare_paper":
        return [("paper.csv", PAPER_KIND, PAPER_N, dict(PAPER_PARAMS), seed)]
    if workload == "rolling_refit":
        n = 1000 + ROLLING_TEST_LEN
        return [(f"fund-{i}.csv", PAPER_KIND, n, dict(PAPER_PARAMS), seed * ROLLING_FUNDS + i)
                for i in range(ROLLING_FUNDS)]
    # Every fixture draws from its own generator seed, so no two share a
    # random stream and the pass cost averages over 24 independent series.
    cells = [(kind, params, n, k) for kind, params in ORDER_SEARCH_KINDS.items()
             for n in ORDER_SEARCH_LENGTHS for k in range(ORDER_SEARCH_FIXTURES_PER_CELL)]
    return [(f"{kind}-{n}-{k}.csv", kind, n, dict(params), seed * len(cells) + i)
            for i, (kind, params, n, k) in enumerate(cells)]


def pass_argvs(workload: str, inputs: list, out_dir) -> list:
    """The CLI argument lists of one pass, one per input file, each with its own output dir."""
    spec = WORKLOADS[workload]
    return [
        [spec["command"], "--input", str(path), "--out", str(out_dir / f"{i:02d}")] + spec["argv"]
        for i, path in enumerate(inputs)
    ]


def describe(workload: str, seed: int) -> dict:
    """Run metadata: the fixture parameters and seeds and the CLI calls of one pass."""
    return {
        "workload": workload,
        "seed": seed,
        "command": ["navcast", WORKLOADS[workload]["command"]] + WORKLOADS[workload]["argv"],
        "fixtures": [
            {"file": name, "kind": kind, "n": n, "params": params, "seed": fseed}
            for name, kind, n, params, fseed in fixtures(workload, seed)
        ],
    }
