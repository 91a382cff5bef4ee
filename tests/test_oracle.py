import ast
from pathlib import Path

import numpy as np
import pytest

import clinchbench.oracle
from clinchbench.clinching import closed_form
from clinchbench.core import Outcome, normalize
from clinchbench.envyfree import is_envy_free
from clinchbench.oracle import (
    LP_AGENT_CAP,
    UnboundedError,
    exhaustive_envy_check,
    lp_efo_revenue,
    lp_efo_welfare,
    simulate_clock,
    solve_lp,
)
from conftest import draw_instance


# ----------------------------------------------------------------------
# Simplex core
# ----------------------------------------------------------------------


def test_lp_one_variable():
    value, x = solve_lp((1.0,), ((1.0,),), (1.0,))
    assert value == pytest.approx(1.0)
    assert x == pytest.approx((1.0,))


def test_lp_two_variables():
    value, x = solve_lp((3.0, 2.0), ((1.0, 1.0), (1.0, 0.0)), (4.0, 2.0))
    assert value == pytest.approx(10.0)
    assert x == pytest.approx((2.0, 2.0))


def test_lp_rejects_negative_rhs():
    # x + y >= 1 written as -x - y <= -1: x = 0 is infeasible
    with pytest.raises(ValueError):
        solve_lp((1.0, 1.0), ((-1.0, -1.0), (1.0, 1.0)), (-1.0, 3.0))


def test_lp_redundant_rows_are_harmless():
    value, _ = solve_lp((1.0,), ((1.0,), (1.0,), (2.0,)), (1.0, 1.0, 2.0))
    assert value == pytest.approx(1.0)


def test_lp_unbounded():
    with pytest.raises(UnboundedError):
        solve_lp((1.0,), (), ())


def test_lp_against_scipy_on_random_programs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(7)
    for _ in range(40):
        nvar = int(rng.integers(1, 5))
        nrow = int(rng.integers(0, 6))
        A = rng.uniform(-1.0, 1.0, (nrow, nvar))
        b = rng.uniform(0.1, 2.0, nrow)  # x = 0 stays feasible
        c = rng.uniform(-1.0, 1.0, nvar)
        # x <= 3 as identity rows keeps the reference problem bounded
        lhs = np.vstack([A, np.eye(nvar)])
        rhs = np.concatenate([b, np.full(nvar, 3.0)])
        value, x = solve_lp(tuple(c), tuple(map(tuple, lhs)), tuple(rhs))
        ref = linprog(-c, A_ub=A, b_ub=b, bounds=[(0.0, 3.0)] * nvar)
        assert ref.status == 0
        assert value == pytest.approx(-ref.fun, abs=1e-7)
        assert np.all(A @ np.asarray(x) <= b + 1e-7)


# ----------------------------------------------------------------------
# Benchmark programs
# ----------------------------------------------------------------------


def test_lp_welfare_fixture(worked):
    assert lp_efo_welfare(worked) == pytest.approx(6.5, rel=1e-8)


def test_lp_revenue_fixture(worked):
    assert lp_efo_revenue(worked) == pytest.approx(3.0, rel=1e-8)


def test_lp_welfare_unconstrained_is_greedy(worked):
    inst = normalize(worked.values, worked.weights, float("inf"))
    assert lp_efo_welfare(inst) == pytest.approx(7.0, rel=1e-8)


def test_lp_revenue_single_item_unlimited():
    inst = normalize((3.0, 2.0), (1.0, 0.0), float("inf"))
    assert lp_efo_revenue(inst) == pytest.approx(3.0, rel=1e-8)


def test_lp_empty_instance():
    inst = normalize((), (), 1.0)
    assert lp_efo_welfare(inst) == 0.0
    assert lp_efo_revenue(inst) == 0.0


def test_lp_agent_cap():
    n = LP_AGENT_CAP + 1
    inst = normalize((1.0,) * n, (1.0,) * n, 1.0)
    with pytest.raises(ValueError):
        lp_efo_welfare(inst)
    with pytest.raises(ValueError):
        lp_efo_revenue(inst)


# ----------------------------------------------------------------------
# Tick clock
# ----------------------------------------------------------------------


def test_clock_rejects_bad_step(worked):
    with pytest.raises(ValueError):
        simulate_clock(worked, 0.0)


def test_clock_empty_instance():
    assert simulate_clock(normalize((), (), 1.0), 0.1) == Outcome((), ())


def test_clock_exact_without_budget_pressure(worked):
    inst = normalize(worked.values, worked.weights, float("inf"))
    outcome = simulate_clock(inst, 0.25)
    exact, _ = closed_form(inst)
    assert outcome.alloc == pytest.approx(exact.alloc, abs=1e-12)
    assert outcome.pay == pytest.approx(exact.pay, abs=1e-12)


def test_clock_zero_budget():
    inst = normalize((4.0, 3.0, 2.0), (1.0, 1.0, 0.5), 0.0)
    outcome = simulate_clock(inst, 0.1)
    assert outcome.alloc == pytest.approx((0.5, 0.5, 0.5))
    assert outcome.pay == (0.0, 0.0, 0.0)


def _clock_error(inst, step):
    exact, _ = closed_form(inst)
    approx = simulate_clock(inst, step)
    return max(
        max(abs(a - b) for a, b in zip(exact.alloc, approx.alloc)),
        max(abs(a - b) for a, b in zip(exact.pay, approx.pay)),
    )


def test_clock_converges_on_worked_fixture(worked):
    coarse = _clock_error(worked, 1e-2)
    fine = _clock_error(worked, 1e-3)
    assert fine <= 2e-3
    assert fine <= coarse * 0.5 + 1e-6


def test_clock_tracks_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(25):
        inst = draw_instance(rng, 7, allow_inf=False)
        assert _clock_error(inst, 1e-4) <= 2e-3, inst


# ----------------------------------------------------------------------
# Envy referee
# ----------------------------------------------------------------------


def test_envy_check_fixture():
    values = (3.0, 2.0)
    assert exhaustive_envy_check(values, Outcome((1.0, 0.0), (0.0, 0.0))) == [(2, 1)]
    assert exhaustive_envy_check(values, Outcome((1.0, 0.0), (2.0, 0.0))) == []


def test_envy_check_agrees_with_band_predicate():
    """The quadratic referee plus an IR scan must reproduce is_envy_free."""
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        values = tuple(np.sort(rng.uniform(0.5, 3.0, n))[::-1])
        alloc = tuple(rng.uniform(0.0, 1.0, n))
        pay = tuple(rng.uniform(0.0, 1.5, n))
        outcome = Outcome(alloc, pay)
        pairs = exhaustive_envy_check(values, outcome, tol=1e-9)
        rational = all(
            v * x - p >= -1e-9 for v, x, p in zip(values, alloc, pay)
        )
        assert is_envy_free(values, outcome) == (not pairs and rational)


# ----------------------------------------------------------------------
# Independence
# ----------------------------------------------------------------------


def test_oracle_imports_no_checked_module():
    """The referees stay independent of what they check: oracle.py imports
    nothing from envyfree, clinching or profit, in any import form."""
    tree = ast.parse(Path(clinchbench.oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    checked = {"envyfree", "clinching", "profit"}
    assert "core" in {part for name in imported for part in name.split(".")}
    assert not {name for name in imported if checked & set(name.split("."))}
