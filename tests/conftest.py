import os

import numpy as np
import pytest

from navcast.series import TimeSeries


def simulate_ar1(phi, n, seed, sigma=1.0):
    rng = np.random.default_rng(seed)
    shocks = rng.normal(0.0, sigma, n)
    x = np.empty(n)
    x[0] = shocks[0]
    for t in range(1, n):
        x[t] = phi * x[t - 1] + shocks[t]
    return x


def simulate_ar2(phi1, phi2, n, seed, sigma=1.0):
    rng = np.random.default_rng(seed)
    shocks = rng.normal(0.0, sigma, n)
    x = np.empty(n)
    x[0], x[1] = shocks[0], shocks[1]
    for t in range(2, n):
        x[t] = phi1 * x[t - 1] + phi2 * x[t - 2] + shocks[t]
    return x


def simulate_ma1(theta, n, seed, sigma=1.0):
    """MA(1) with the library's sign convention: x_t = eps_t - theta*eps_{t-1}."""
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, sigma, n + 1)
    return eps[1:] - theta * eps[:-1]


def random_walk(n, seed, drift=0.0, sigma=1.0):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(drift, sigma, n))


def as_series(values):
    return TimeSeries.from_values(values)


def assert_no_children():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class CallLog:
    """Records calls of wrapped functions as lines of a file, so that a call
    made in a forked worker shows up in the test's process too."""

    def __init__(self, path, monkeypatch):
        self.path, self.monkeypatch = path, monkeypatch

    def record(self, module, name, line=None):
        """Wrap module.name: each call first appends line(*args, **kwargs), by default name."""
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write((name if line is None else line(*args, **kwargs)) + "\n")
            return original(*args, **kwargs)
        self.monkeypatch.setattr(module, name, wrapper)

    def lines(self) -> list:
        """The lines recorded so far, in the order they were written."""
        return self.path.read_text(encoding="utf-8").splitlines() if self.path.exists() else []

    def clear(self) -> None:
        self.path.unlink(missing_ok=True)


@pytest.fixture
def call_log(tmp_path, monkeypatch):
    return CallLog(tmp_path / "calls.log", monkeypatch)
