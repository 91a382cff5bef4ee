"""Referees for the benchmark's per-op checks.

Every check returns a list of problem descriptions; an empty list means
the output passed.  The checks are deterministic and are correct on the
traffic the workloads send (see README.md for the referees that are not,
and why they are not used as gates here).

The LP referee is scipy's HiGHS solver.  The envy-free programs use
adjacent envy pairs only, which is enough for monotone allocations over
sorted values, and carry prefix supply through cumulative variables so
the constraint matrix stays sparse at n = 1000.
"""
from __future__ import annotations

import math

import numpy as np

# Relative agreement demanded between an LP value and the value checked.
LP_RTOL = 1e-6
# Agreement between the two exact clinching routes (c02 uses the same).
ROUTE_TOL = 1e-8
# Slack, relative to the instance scale, on individual rationality, budget
# and supply checks of single outcomes.
OUTCOME_RTOL = 1e-9
# Slack on the factor-2 welfare guarantee (c04 uses the same).
WELFARE_GAP_TOL = 1e-6


def instance_scale(values, weights) -> float:
    """Largest value times total supply: the size of any welfare or payment."""
    return 1.0 + max(values, default=0.0) * sum(weights)


# ----------------------------------------------------------------------
# HiGHS programs
# ----------------------------------------------------------------------


class _Rows:
    """Sparse constraint rows in coordinate form."""

    def __init__(self):
        self.r, self.c, self.v, self.rhs = [], [], [], []

    def add(self, entries, bound):
        row = len(self.rhs)
        for col, val in entries:
            self.r.append(row)
            self.c.append(col)
            self.v.append(val)
        self.rhs.append(bound)

    def matrix(self, width):
        from scipy import sparse

        return sparse.csr_matrix((self.v, (self.r, self.c)),
                                 shape=(len(self.rhs), width))


def _prefix_equalities(x0, c0, n, width):
    # c_i = c_{i-1} + x_i, so that bounding c_i by S_i bounds the prefix sum
    eq = _Rows()
    for i in range(n):
        entries = [(c0 + i, 1.0), (x0 + i, -1.0)]
        if i:
            entries.append((c0 + i - 1, -1.0))
        eq.add(entries, 0.0)
    return eq.matrix(width), np.zeros(n)


def _maximize(objective, ub, eq, eq_rhs, bounds, width) -> float:
    # scipy is the referee's dependency, not the package's: import it on
    # first use so that set-up time measures only the package
    from scipy.optimize import linprog

    res = linprog(-np.asarray(objective), A_ub=ub.matrix(width),
                  b_ub=np.asarray(ub.rhs), A_eq=eq, b_eq=eq_rhs,
                  bounds=bounds, method="highs-ds")
    if res.status != 0:
        raise ArithmeticError(f"HiGHS: {res.message}")
    return -float(res.fun)


def lp_welfare(values, weights, budget) -> float:
    """Envy-free optimal welfare: maximize v.x over non-increasing x within
    prefix supply, with the top agent's minimum envy-free payment within
    the budget."""
    n = len(values)
    if n == 0:
        return 0.0
    width = 2 * n  # x, then cumulative c
    ub = _Rows()
    for i in range(n - 1):
        ub.add([(i + 1, 1.0), (i, -1.0)], 0.0)
    if math.isfinite(budget):
        entries = []
        for j in range(1, n):
            entries += [(j - 1, values[j]), (j, -values[j])]
        ub.add(entries, budget)
    eq, eq_rhs = _prefix_equalities(0, n, n, width)
    supply = np.cumsum(weights)
    bounds = [(0.0, None)] * n + [(0.0, float(s)) for s in supply]
    objective = list(values) + [0.0] * n
    return _maximize(objective, ub, eq, eq_rhs, bounds, width)


def lp_revenue(values, weights, budget) -> float:
    """Envy-free optimal revenue with payments as variables: adjacent envy
    pairs in both directions, per-agent budget caps, prefix supply, and
    individual rationality of the last agent, which with adjacent envy
    freeness over sorted values gives everyone's; maximize total payments."""
    n = len(values)
    if n == 0:
        return 0.0
    X, P, C = 0, n, 2 * n
    width = 3 * n
    v = values
    ub = _Rows()
    for i in range(n - 1):
        ub.add([(X + i + 1, 1.0), (X + i, -1.0)], 0.0)
        # agent i does not envy i+1, and i+1 does not envy i
        ub.add([(X + i + 1, v[i]), (X + i, -v[i]),
                (P + i + 1, -1.0), (P + i, 1.0)], 0.0)
        ub.add([(X + i, v[i + 1]), (X + i + 1, -v[i + 1]),
                (P + i, -1.0), (P + i + 1, 1.0)], 0.0)
    ub.add([(P + n - 1, 1.0), (X + n - 1, -v[n - 1])], 0.0)
    eq, eq_rhs = _prefix_equalities(X, C, n, width)
    cap = budget if math.isfinite(budget) else None
    supply = np.cumsum(weights)
    bounds = ([(0.0, None)] * n + [(0.0, cap)] * n
              + [(0.0, float(s)) for s in supply])
    objective = [0.0] * n + [1.0] * n + [0.0] * n
    return _maximize(objective, ub, eq, eq_rhs, bounds, width)


def lp_agreement(label, value, reference) -> list[str]:
    if abs(value - reference) > LP_RTOL * max(1.0, abs(reference)):
        return [f"{label} {value!r} differs from the LP referee {reference!r}"]
    return []


# ----------------------------------------------------------------------
# Single outcomes
# ----------------------------------------------------------------------


def outcome_problems(label, values, weights, budget, alloc, pay) -> list[str]:
    """Individual rationality, non-negative payments within the budget, and
    an allocation that fits the supply once sorted."""
    n = len(values)
    if len(alloc) != n or len(pay) != n:
        return [f"{label}: outcome size does not match the instance"]
    slack = OUTCOME_RTOL * instance_scale(values, weights)
    problems = []
    for i in range(n):
        if alloc[i] < -slack:
            problems.append(f"{label}: agent {i} has negative allocation")
        if pay[i] < -slack:
            problems.append(f"{label}: agent {i} has negative payment")
        if pay[i] > values[i] * alloc[i] + slack:
            problems.append(f"{label}: agent {i} is not individually rational")
        if math.isfinite(budget) and pay[i] > budget + slack:
            problems.append(f"{label}: agent {i} pays beyond the budget")
    held = supply = 0.0
    for i, (x, w) in enumerate(zip(sorted(alloc, reverse=True), weights)):
        held += x
        supply += w
        if held > supply + slack:
            problems.append(f"{label}: top {i + 1} allocations exceed supply")
            break
    return problems


def benchmark_problems(label, values, weights, budget, result,
                       objective: str) -> list[str]:
    """A benchmark outcome is monotone, envy free between neighbours,
    feasible, within budget, and worth the objective it reports."""
    alloc, pay = result.outcome.alloc, result.outcome.pay
    problems = outcome_problems(label, values, weights, budget, alloc, pay)
    if problems:
        return problems
    slack = OUTCOME_RTOL * instance_scale(values, weights)
    for i in range(len(values) - 1):
        if alloc[i + 1] > alloc[i] + slack:
            problems.append(f"{label}: allocation rises at agent {i + 1}")
        own, nxt = values[i] * alloc[i] - pay[i], values[i] * alloc[i + 1] - pay[i + 1]
        if nxt > own + slack:
            problems.append(f"{label}: agent {i} envies agent {i + 1}")
        own = values[i + 1] * alloc[i + 1] - pay[i + 1]
        if values[i + 1] * alloc[i] - pay[i] > own + slack:
            problems.append(f"{label}: agent {i + 1} envies agent {i}")
    if objective == "welfare":
        worth = sum(v * x for v, x in zip(values, alloc))
    else:
        worth = sum(pay)
    if abs(worth - result.objective) > slack:
        problems.append(f"{label}: reported objective {result.objective!r} "
                        f"but the outcome is worth {worth!r}")
    return problems


def welfare_gap_problems(benchmark, auction_welfare) -> list[str]:
    """The envy-free welfare benchmark is at most twice the auction's."""
    if benchmark > 2.0 * auction_welfare + WELFARE_GAP_TOL * max(1.0, benchmark):
        return [f"benchmark {benchmark!r} exceeds twice the auction welfare "
                f"{auction_welfare!r}"]
    return []


# ----------------------------------------------------------------------
# Clinching routes
# ----------------------------------------------------------------------


def _max_gap(a, b) -> float:
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def route_problems(label, values, first, second, alloc_tol, pay_tol) -> list[str]:
    if len(first.alloc) != len(values) or len(second.alloc) != len(values):
        return [f"{label}: outcome size does not match the instance"]
    problems = []
    da, dp = _max_gap(first.alloc, second.alloc), _max_gap(first.pay, second.pay)
    if da > alloc_tol:
        problems.append(f"{label}: allocations differ by {da:.3g} > {alloc_tol:.3g}")
    if dp > pay_tol:
        problems.append(f"{label}: payments differ by {dp:.3g} > {pay_tol:.3g}")
    return problems


def exact_route_problems(values, closed, clock) -> list[str]:
    """closed_form and run_clock compute the same auction exactly."""
    tol = ROUTE_TOL * max(1.0, max(values, default=0.0))
    return route_problems("closed_form vs run_clock", values, closed, clock,
                          ROUTE_TOL, tol)


def tick_tolerance(values, weights, budget, step) -> float:
    """Allocation tolerance for the tick clock at price increment ``step``.

    The tick clock is exact while no budget binds.  Once one binds, its
    price path lags the continuous clock by up to one step, which shifts
    the clinched shares by about the supply at stake times step over the
    price.  Budgets start to bind no lower than min(v_n, B): below the
    lowest value only while every agent is still in, at price
    (n-1)B/S_{n-1} >= B.  Hence the first-order tolerance

        tol = step * S_n / min(v_n, B).

    Over 1,200 sampled instances at n in {8, 16, 100, 1000} and step 1e-4
    the observed error stayed below 0.18 of it.
    """
    positive = [v for v in values if v > 0.0]
    floor = min(positive, default=1.0)
    if math.isfinite(budget) and budget > 0.0:
        floor = min(floor, budget)
    return step * sum(weights) / floor + ROUTE_TOL


def tick_problems(values, weights, budget, step, ticked, exact) -> list[str]:
    """The tick clock agrees with an exact route within its error bound."""
    tol = tick_tolerance(values, weights, budget, step)
    return route_problems("tick clock", values, ticked, exact, tol,
                          tol * max(1.0, max(values, default=0.0)))


# ----------------------------------------------------------------------
# Sampling walks
# ----------------------------------------------------------------------


def walk_problems(one_ahead_index, n, q, seed, trial_rng, ks, pointwise,
                  top) -> list[str]:
    """Each walk's statistics match the split that ``trial_rng(seed, t)``
    implies: the one-ahead index of market against sample on distinct
    values, pointwise dominance failure, and the top agent's side."""
    ranks = np.arange(n, 0, -1, dtype=float)
    problems = []
    for t in range(len(ks)):
        in_sample = trial_rng(seed, t).random(n) < q
        market, sample = ranks[~in_sample], ranks[in_sample]
        want = one_ahead_index(market, sample)
        if int(ks[t]) != want:
            problems.append(f"walk {t}: index {int(ks[t])}, split gives {want}")
        fails = any(s > (market[i] if i < market.size else 0.0)
                    for i, s in enumerate(sample))
        if bool(pointwise[t]) != fails:
            problems.append(f"walk {t}: pointwise failure flag is wrong")
        if bool(top[t]) != (not in_sample[0]):
            problems.append(f"walk {t}: top-agent flag is wrong")
    return problems
