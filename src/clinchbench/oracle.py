"""Independent ground truth for the rest of the package.

Three unrelated referees live here: a small dense LP solver used to state the
envy-free benchmarks as explicit programs, a tick-discretized price clock that
re-derives the clinching auction from its definition, and a brute-force envy
checker.  None of them import from the characterization or auction modules;
agreement between the two routes is what the test suite certifies.  Both LP
encodings keep x >= 0 and right-hand sides >= 0, the one form `solve_lp` takes.
"""

from __future__ import annotations

import math

import numpy as np

from .core import BudgetedInstance, Outcome

PIVOT_TOL = 1e-11
RATIO_TIE_TOL = 1e-12
MAX_PIVOTS = 50_000
LP_AGENT_CAP = 16


class UnboundedError(ArithmeticError):
    """The objective improves without limit over the feasible region."""


def solve_lp(objective, lhs, rhs) -> tuple[float, tuple[float, ...]]:
    """Dense simplex: maximize objective @ x s.t. lhs @ x <= rhs, x >= 0.

    Requires rhs >= 0 (a negative entry raises ValueError): x = 0 is then
    feasible, so the pivots, under Bland's rule, start from the slack basis.
    Returns (optimal value, an optimizer), or raises UnboundedError.  Built
    for desk-scale programs; the envy-free encodings below stay well under a
    thousand rows.
    """
    c = np.asarray(objective, dtype=float)
    nvar = c.size
    b = np.asarray(rhs, dtype=float)
    m = b.size
    A = np.asarray(lhs, dtype=float).reshape(m, nvar)
    if np.any(b < 0.0):
        raise ValueError("right-hand sides must be non-negative")
    tableau = np.zeros((m, nvar + m + 1))
    tableau[:, :nvar] = A
    tableau[np.arange(m), nvar + np.arange(m)] = 1.0
    tableau[:, -1] = b
    basis = nvar + np.arange(m)
    cost = np.zeros(nvar + m)
    cost[:nvar] = c
    for _ in range(MAX_PIVOTS):
        reduced = cost - cost[basis] @ tableau[:, :-1]
        enter = -1
        for j in range(reduced.size):
            if reduced[j] > PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = math.inf
        for r in range(m):
            a = tableau[r, enter]
            if a <= PIVOT_TOL:
                continue
            ratio = tableau[r, -1] / a
            if leave < 0 or ratio < best - RATIO_TIE_TOL:
                leave, best = r, ratio
            elif ratio <= best + RATIO_TIE_TOL and basis[r] < basis[leave]:
                leave = r  # tie: smaller basic variable leaves
        if leave < 0:
            raise UnboundedError("no blocking row for the entering column")
        tableau[leave] /= tableau[leave, enter]
        factor = tableau[:, enter].copy()
        factor[leave] = 0.0
        tableau -= np.outer(factor, tableau[leave])
        basis[leave] = enter
    else:
        raise ArithmeticError("simplex pivot budget exceeded")
    solution = np.zeros(nvar + m)
    solution[basis] = tableau[:, -1]
    x = solution[:nvar]
    return float(c @ x), tuple(float(t) for t in x)


def _check_cap(n: int) -> None:
    if n > LP_AGENT_CAP:
        raise ValueError(f"LP benchmark capped at {LP_AGENT_CAP} agents, got {n}")


def _allocation_rows(inst: BudgetedInstance, width: int):
    """Rows shared by both encodings, over `width` variables of which the
    first n are the allocations: non-increasing allocations
    (x_{i+1} - x_i <= 0), then prefix sums against the cumulative weights."""
    n = inst.n
    supply = np.cumsum(inst.weights)
    rows: list[tuple[float, ...]] = []
    rhs: list[float] = []
    for i in range(n - 1):
        row = np.zeros(width)
        row[i + 1] = 1.0
        row[i] = -1.0
        rows.append(tuple(row))
        rhs.append(0.0)
    for i in range(n):
        row = np.zeros(width)
        row[: i + 1] = 1.0
        rows.append(tuple(row))
        rhs.append(float(supply[i]))
    return rows, rhs


def lp_efo_welfare(inst: BudgetedInstance) -> float:
    """Envy-free optimal welfare as an explicit linear program.

    Variables are the allocations.  Envy-freeness enters through
    non-increasing allocations plus the requirement that the cheapest
    supporting payment of the top agent fits the budget; supply enters as
    prefix sums against the cumulative weights.
    """
    n = inst.n
    _check_cap(n)
    if n == 0:
        return 0.0
    v = inst.values
    rows, rhs = _allocation_rows(inst, n)
    if math.isfinite(inst.budget):
        coef = np.zeros(n)
        for j in range(1, n):
            coef[j - 1] += v[j]
            coef[j] -= v[j]
        rows.append(tuple(coef))
        rhs.append(inst.budget)
    value, _ = solve_lp(v, rows, rhs)
    return value


def lp_efo_revenue(inst: BudgetedInstance) -> float:
    """Envy-free optimal revenue with payments as explicit variables.

    Encodes the definition directly: every ordered envy pair, individual
    rationality, per-agent budget caps, prefix supply, maximize total
    payments.  Deliberately shares nothing with the virtual-value route it
    is used to referee.
    """
    n = inst.n
    _check_cap(n)
    if n == 0:
        return 0.0
    v = inst.values
    width = 2 * n  # x then p
    rows, rhs = _allocation_rows(inst, width)

    def push(row: np.ndarray, bound: float) -> None:
        rows.append(tuple(row))
        rhs.append(float(bound))

    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            row = np.zeros(width)
            row[j] = v[i]
            row[n + j] = -1.0
            row[i] = -v[i]
            row[n + i] = 1.0
            push(row, 0.0)
    for i in range(n):
        row = np.zeros(width)
        row[n + i] = 1.0
        row[i] = -v[i]
        push(row, 0.0)
    if math.isfinite(inst.budget):
        for i in range(n):
            row = np.zeros(width)
            row[n + i] = 1.0
            push(row, inst.budget)
    objective = (0.0,) * n + (1.0,) * n
    value, _ = solve_lp(objective, rows, rhs)
    return value


def simulate_clock(inst: BudgetedInstance, step: float) -> Outcome:
    """Discretized ascending price clock.

    The clock starts at zero and rises by `step` per tick, jumping over dead
    zones where nothing can change and pausing at every agent's value so that
    drop-outs happen at exact prices, one agent at a time from the bottom.
    At each event every remaining agent clinches up to the point where the
    other agents' capped demand meets remaining supply.  First-order accurate
    in `step` against the exact auction, and exact whenever no budget ever
    binds.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    n = inst.n
    if n == 0:
        return Outcome((), ())
    values = inst.values
    budget = inst.budget
    supply = inst.env.cumulative_supply()
    alloc = [0.0] * n
    pay = [0.0] * n
    m = n
    held = 0.0  # common holding of the agents still in
    spent = 0.0  # common payment of the agents still in

    def clinch(price: float) -> None:
        # every agent still in clinches what the other m - 1 cannot hold.  The
        # top j can hold at most their remaining supply and, at a positive
        # price, j * left / price.  On this hot path comparisons stand in for
        # min and max; they pick the same operand, so the result is the same.
        nonlocal held, spent
        if m == 0:
            return
        left = budget - spent
        cash = 0.0 if left < 0.0 else left
        top = supply[m - 1] - m * held
        rest = supply[m - 2] - (m - 1) * held if m > 1 else 0.0
        top = 0.0 if top < 0.0 else top
        rest = 0.0 if rest < 0.0 else rest
        if price > 0.0 and math.isfinite(left):
            if m * cash / price < top:
                top = m * cash / price
            if (m - 1) * cash / price < rest:
                rest = (m - 1) * cash / price
        gain = top - rest
        if gain > 0.0:
            held += gain
            spent += price * gain

    price = 0.0
    clinch(price)
    while m > 0:
        # alone in the auction, the last agent keeps what the last drop left
        if values[m - 1] <= price or m == 1:
            m -= 1
            alloc[m] = held
            pay[m] = min(spent, budget)
            clinch(price)
            continue
        nxt = values[m - 1]
        left = budget - spent
        rem_prev = max(supply[m - 2] - (m - 1) * held, 0.0)
        if not math.isfinite(left):
            bind = math.inf
        elif left <= 1e-13 * (1.0 + budget) or rem_prev <= 1e-300:
            bind = math.inf  # out of money or out of goods: coast to the drop
        else:
            bind = (m - 1) * left / rem_prev
        if bind > price:
            price = min(nxt, bind)
        else:
            price = min(price + step, nxt)
        clinch(price)
    return Outcome(tuple(alloc), tuple(pay))


def exhaustive_envy_check(
    values: tuple[float, ...], outcome: Outcome, tol: float = 1e-9
) -> list[tuple[int, int]]:
    """All ordered pairs (i, j), 1-based, where i prefers j's bundle.

    The dumb quadratic reference the rest of the suite leans on.
    """
    alloc, pay = outcome.alloc, outcome.pay
    violations: list[tuple[int, int]] = []
    for i in range(len(alloc)):
        own = values[i] * alloc[i] - pay[i]
        for j in range(len(alloc)):
            if i == j:
                continue
            other = values[i] * alloc[j] - pay[j]
            scale = (
                1.0
                + abs(values[i]) * (abs(alloc[i]) + abs(alloc[j]))
                + abs(pay[i])
                + abs(pay[j])
            )
            if own < other - tol * scale:
                violations.append((i + 1, j + 1))
    return violations


def padded_nobudget_reference(
    inst: BudgetedInstance, q: float, seed, pad: int, levels
) -> tuple[Outcome, bool]:
    """The padded no-budget sampling variant, ``pad`` placeholders written out
    below the reals as (class, value) pairs: (2, value) for a real, (1, -rank)
    for a placeholder.  Groups A/B/C come from ``random(n + pad)`` with the
    best-of-A-and-B swap; every breakpoint bid of every market real rebuilds
    the market table (A and C) against the sample (B).  ``levels`` maps the
    sample reals to service levels by rank.  Returns (outcome, rejected)."""
    n, values = inst.n, inst.values
    u = np.random.default_rng(seed).random(n + pad)
    keys = [(2.0, values[e]) if e < n else (1.0, float(n - 1 - e))
            for e in range(n + pad)]
    label = np.where(u < q, 0, np.where(u < 2.0 * q, 1, 2))
    union = np.flatnonzero(label < 2)
    if union.size and label[union[0]] == 1:
        label[union] = 1 - label[union]
    sample = [keys[e] for e in np.flatnonzero(label == 1)]
    market = [int(e) for e in np.flatnonzero(label != 1)]

    def ranking(agent: int, bid: float):
        # market entities by rank at the agent's bid; None if not covered
        rows = sorted((((2.0, bid) if e == agent else keys[e]), -e) for e in market)
        rows.reverse()
        for t in range(max(len(rows), len(sample))):
            s = sample[t] if t < len(sample) else (0.0, 0.0)
            m = rows[t][0] if t < len(rows) else (0.0, 0.0)
            if s > m:
                return None
        return [-e for _, e in rows]

    def served(agent: int, bid: float) -> float:
        order = ranking(agent, bid)
        if order is None:
            return 0.0
        rank = order.index(agent)
        return level[rank] if rank < len(level) else 0.0

    alloc = [0.0] * n
    pay = [0.0] * n
    if ranking(-1, 0.0) is None:
        # everyone rejected: the top agent alone, at the second value
        if inst.weights[0] > 0.0:
            alloc[0] = inst.weights[0]
            pay[0] = (values[1] if n >= 2 else 0.0) * inst.weights[0]
        return Outcome(tuple(alloc), tuple(pay)), True
    level = levels(tuple(value for kind, value in sample if kind == 2.0))
    for agent in (e for e in market if e < n):
        v = values[agent]
        grid = sorted({0.0, v} | {w for w in values if 0.0 < w < v})
        area = sum(served(agent, 0.5 * (a + b)) * (b - a)
                   for a, b in zip(grid, grid[1:]))
        alloc[agent] = served(agent, v)
        pay[agent] = v * alloc[agent] - area
    # the payment bump: the best of A and B is a real in A, a real in B next
    if union.size >= 2 and union[1] < n and label[union[1]] == 1:
        best, second = union[0], union[1]
        if alloc[best] > 0.0:
            pay[best] = max(pay[best], values[second] * alloc[best])
    return Outcome(tuple(alloc), tuple(pay)), False
