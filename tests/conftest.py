"""Shared builders for seeded random instances."""
import numpy as np
import pytest

from clinchbench.core import BudgetedInstance, normalize


def draw_instance(rng: np.random.Generator, n_max: int,
                  allow_inf: bool = True) -> BudgetedInstance:
    """One random instance mixing smooth, tied and unit-block weights.

    Values come from U(0.3, 1.3) with occasional rounding so exact value
    ties appear; budgets from U(0.1, 1.0) with an infinite budget about
    one time in ten.
    """
    n = int(rng.integers(1, n_max + 1))
    values = np.sort(rng.uniform(0.3, 1.3, n))[::-1]
    if rng.random() < 0.4:
        values = np.round(values, 1)
    shape = rng.random()
    if shape < 0.3:
        k = int(rng.integers(1, n + 1))
        weights = [1.0] * k + [0.0] * (n - k)
    else:
        drawn = np.sort(rng.random(n))[::-1]
        if shape < 0.55:
            drawn = np.round(drawn, 1)
        weights = [float(w) for w in drawn]
    budget = float(rng.uniform(0.1, 1.0))
    if allow_inf and rng.random() < 0.1:
        budget = float("inf")
    return normalize([float(v) for v in values], weights, budget)


@pytest.fixture
def worked() -> BudgetedInstance:
    """The standing worked example: values (4,3,2), two unit slots, B=1."""
    return normalize((4.0, 3.0, 2.0), (1.0, 1.0, 0.0), 1.0)
