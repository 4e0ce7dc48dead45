import gc
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from explainkit import Dataset, dataset_from_rows, fit_ols, load_csv
from explainkit.predict import Predictor

DATA_DIR = Path(__file__).parent / "data"
FIXTURE_DIR = Path(__file__).parent / "fixtures"
GOLDEN_DIR = Path(__file__).parent / "golden"

WINE_CSV = DATA_DIR / "winequality_red.csv"


def fixture_command(name: str, *args: str) -> list[str]:
    """Invoke a scorer fixture portably through the current interpreter."""
    return [sys.executable, str(FIXTURE_DIR / name), *args]


class ScoredPredictor(Predictor):
    """Wraps a model without its additive view, so the relaxed-value engine
    scores every hybrid row instead of using a closed form."""

    def __init__(self, inner):
        self.inner = inner
        self.schema = inner.schema

    def score_columns(self, columns):
        return self.inner.score_columns(columns)


def make_regression(
    p: int,
    n: int,
    seed: int,
    coefficients=None,
    intercept: float = 0.5,
    noise: float = 0.0,
) -> Dataset:
    """Seeded numeric dataset with response y = intercept + X @ coefficients."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.uniform(-2.0, 2.0, size=(n, p))
    if coefficients is None:
        coefficients = rng.uniform(-3.0, 3.0, size=p)
    coefficients = np.asarray(coefficients, dtype=float)
    y = intercept + x @ coefficients
    if noise:
        y = y + rng.normal(0.0, noise, size=n)
    names = [f"x{i + 1}" for i in range(p)] + ["y"]
    rows = [tuple(x[i]) + (y[i],) for i in range(n)]
    return dataset_from_rows(names, ["numeric"] * (p + 1), rows, response_name="y")


def overflowing_table() -> Dataset:
    """`a` near the float limit, whose spread overflows; y = 3 sign(a) + b."""
    a = [1e300, -1e300, 5e299, -1e300, 1e300, 5e299, -1e300, 1e300]
    b = [0.5, 1.0, -1.5, 2.0, 0.0, -0.5, 1.5, -2.0]
    rows = [(ai, bi, 3.0 * math.copysign(1.0, ai) + bi) for ai, bi in zip(a, b)]
    return dataset_from_rows(["a", "b", "y"], ["numeric"] * 3, rows, "y")


@pytest.fixture(scope="session", autouse=True)
def no_child_process_left_running():
    """Fails the run if the tests leave a child process running or unreaped,
    where /proc lists a process's children."""
    yield
    gc.collect()  # finalizers reap what unreachable scorers started
    lists = Path(f"/proc/{os.getpid()}/task").glob("*/children")
    children = [pid for path in lists for pid in path.read_text().split()]
    assert not children, f"tests left child processes running: {children}"


@pytest.fixture(scope="session")
def wine():
    return load_csv(str(WINE_CSV), response_name="quality")


@pytest.fixture(scope="session")
def wine_ols(wine):
    return fit_ols(wine, wine.response_index)
