"""Envy-free payments, Lagrangian ironing, and budgeted benchmarks.

Welfare and revenue benchmarks over envy-free outcomes are computed by a
multiplier characterization: penalize the top payment, iron the resulting
virtual-value curve, and mix the two tie-break extremes of the optimizer
set so the top payment lands exactly on the budget.

The multiplier is exact: each tie-break extreme x (an *arm*) has the line
value(x) - lam * p_1(x) as its Lagrangian, and the lowest-p_1 arm where the
lines of an overspending and a fitting arm cross is either a new line between
them, which replaces one of the two, or both are optimal at that breakpoint.

The two benchmarks share that machinery and differ only through a private
frozen record per objective (``_WELFARE``, ``_REVENUE``): the curve to iron
(``welfare_curve`` or ``revenue_curve``), the payment rule (``min_payments``
or ``max_payments``), the coefficients of the top payment as a linear form
in the allocation, the objective value of an allocation, and the allocation
used when the budget is slack (the weights, or the p_1-maximal optimizer at
multiplier zero).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    ABS_TOL,
    BudgetedInstance,
    Outcome,
    ValuationProfile,
    _as_floats,
    zero_outcome,
)

# Adjacent hull intervals count as tied when their ironed virtuals differ
# by less than this relative amount.
TIE_RTOL = 1e-9


def _band_inputs(values, alloc):
    # Shared validation of the payment-band rules: floats, equal lengths,
    # and a non-increasing (swap-monotone) allocation.
    vs = _as_floats(values, "values")
    xs = _as_floats(alloc, "alloc")
    if len(vs) != len(xs):
        raise ValueError("values and alloc must have equal length")
    for a, b in zip(xs, xs[1:]):
        if b > a + ABS_TOL * (1.0 + abs(a)):
            raise ValueError("allocation is not swap monotone")
    return vs, xs


def min_payments(values, alloc):
    """Smallest envy-free payments supporting ``alloc`` under ``values``.

    p_i = sum_{j>i} (x_{j-1} - x_j) v_j: each agent pays the value lower
    agents place on the service she takes away from them.
    """
    vs, xs = _band_inputs(values, alloc)
    n = len(vs)
    pays = [0.0] * n
    for i in range(n - 1, 0, -1):
        pays[i - 1] = pays[i] + (xs[i - 1] - xs[i]) * vs[i]
    return tuple(pays)


def max_payments(values, alloc):
    """Largest envy-free payments supporting ``alloc`` under ``values``.

    p_i = sum_{j>=i} (x_j - x_{j+1}) v_j with x_{n+1} = 0.
    """
    vs, xs = _band_inputs(values, alloc)
    n = len(vs)
    if n == 0:
        return ()
    pays = [0.0] * n
    pays[n - 1] = xs[n - 1] * vs[n - 1]
    for i in range(n - 2, -1, -1):
        pays[i] = pays[i + 1] + (xs[i] - xs[i + 1]) * vs[i]
    return tuple(pays)


def is_envy_free(values, outcome, tol=1e-9):
    """Check individual rationality and pairwise no-envy of an outcome.

    Agent i envies nobody when u_i = v_i x_i - p_i is at least
    max_j (v_i x_j - p_j), up to one global slack.  That maximum is the
    upper envelope of the lines t -> x_j t - p_j at t = v_i.  The envelope
    is built by one sort on (x_j, p_j), keeping the cheapest line of each
    slope, and a monotone-chain sweep (Andrew 1979); the agents are then
    visited in ascending value with one pointer along it.  Line i itself
    needs no exclusion, since it meets u_i exactly at v_i.  O(n log n)
    time and O(n) memory; ``oracle.exhaustive_envy_check`` is the
    quadratic pairwise reference.
    """
    vs = _as_floats(values, "values")
    xs = outcome.alloc
    ps = outcome.pay
    if len(vs) != len(xs):
        raise ValueError("values and outcome must have equal length")
    n = len(vs)
    scale = 1.0
    if n:
        scale += max(abs(vs[0]), 1.0) * max(max(xs, default=0.0), 1.0)
        scale += max((abs(p) for p in ps), default=0.0)
    slack = tol * scale
    hull = []
    for x, p in sorted(zip(xs, ps)):
        if hull and hull[-1][0] == x:
            continue  # same slope, larger payment: never above the kept line
        while len(hull) >= 2:
            (x1, p1), (x2, p2) = hull[-2], hull[-1]
            if (p - p1) * (x2 - x1) <= (p2 - p1) * (x - x1):
                hull.pop()
            else:
                break
        hull.append((x, p))
    k = 0
    for v, u in sorted((v, v * x - p) for v, x, p in zip(vs, xs, ps)):
        if u < -slack:
            return False
        x, p = hull[k]
        best = v * x - p
        while k + 1 < len(hull):
            x, p = hull[k + 1]
            if v * x - p < best:
                break
            best = v * x - p
            k += 1
        if best > u + slack:
            return False
    return True


def welfare_curve(values, lam):
    """Cumulative welfare-virtual curve R(0..n); R(j) = sum v_i - lam*v_{j+1}."""
    vs = _as_floats(values, "values")
    n = len(vs)
    curve = [-lam * (vs[0] if n else 0.0)]
    run = 0.0
    for j in range(1, n + 1):
        run += vs[j - 1]
        nxt = vs[j] if j < n else 0.0
        curve.append(run - lam * nxt)
    return tuple(curve)


def revenue_curve(values, lam):
    """Cumulative revenue-virtual curve R(0..n); R(j) = (j - lam) v_j."""
    vs = _as_floats(values, "values")
    curve = [0.0]
    for j in range(1, len(vs) + 1):
        curve.append((j - lam) * vs[j - 1])
    return tuple(curve)


@dataclass(frozen=True)
class IroningResult:
    """Concave envelope of a virtual-value curve.

    ``curve`` holds R(0..n), ``ironed_curve`` the envelope of the points
    (i, max(R(i), 0)), ``intervals`` the 1-based index ranges over which
    the envelope sits strictly above the curve, and ``vertices`` the
    contact indexes of the envelope; a multiplier is already in ``curve``.
    """

    curve: tuple
    ironed_curve: tuple
    virtual: tuple
    ironed_virtual: tuple
    intervals: tuple
    vertices: tuple


def _hull_vertices(heights):
    # Upper concave envelope; collinear contact points are kept so that
    # exact slope ties stay visible to the callers.
    verts = [0]
    for t in range(1, len(heights)):
        while len(verts) >= 2:
            a, b = verts[-2], verts[-1]
            cross = (heights[t] - heights[a]) * (b - a) - (
                heights[b] - heights[a]
            ) * (t - a)
            if cross > 0.0:
                verts.pop()
            else:
                break
        verts.append(t)
    return verts


def iron(curve):
    """Iron a cumulative virtual curve R(0..n) against the origin.

    Produces the least concave function that dominates both the curve and
    zero, together with the per-position ironed virtuals (its increments)
    and the ironed intervals.
    """
    raw = _as_floats(curve, "curve")
    if not raw:
        raise ValueError("curve must include the origin point")
    n = len(raw) - 1
    clamped = [x if x > 0.0 else 0.0 for x in raw]
    verts = _hull_vertices(clamped)
    bar = [0.0] * (n + 1)
    bar[0] = clamped[0]
    ivirt = [0.0] * n
    for a, b in zip(verts, verts[1:]):
        slope = (clamped[b] - clamped[a]) / (b - a)
        for t in range(a + 1, b):
            bar[t] = clamped[a] + slope * (t - a)
        bar[b] = clamped[b]
        for t in range(a, b):
            ivirt[t] = slope
    if n:
        virtual = [raw[1] - clamped[0]]
        virtual.extend(raw[t] - raw[t - 1] for t in range(2, n + 1))
    else:
        virtual = []
    intervals = tuple((a + 1, b) for a, b in zip(verts, verts[1:]) if b - a >= 2)
    return IroningResult(
        curve=tuple(raw),
        ironed_curve=tuple(bar),
        virtual=tuple(virtual),
        ironed_virtual=tuple(ivirt),
        intervals=intervals,
        vertices=tuple(verts),
    )


def _welfare_p1(values):
    # Top minimum payment as a linear form in the allocation:
    # p_1 = sum_{j>1} (x_{j-1} - x_j) v_j.
    n = len(values)
    if n == 1:
        return [0.0]
    c = [values[1]]
    c.extend(values[j + 1] - values[j] for j in range(1, n - 1))
    c.append(-values[n - 1])
    return c


def _revenue_p1(values):
    # Top maximum payment: p_1 = sum_j (x_j - x_{j+1}) v_j.
    c = [values[0]]
    c.extend(values[j] - values[j - 1] for j in range(1, len(values)))
    return c


def _group_extreme(bounds, supply, csum, maximize, full, allowed):
    """Choose group cuts over hull-block boundaries extremizing p_1.

    Groups of consecutive blocks are served at their supply average; the
    objective is linear, so a small dynamic program over cut positions
    finds the extreme.  When ``full`` is false a prefix of the run may be
    served and the rest left empty; ``allowed`` masks which boundaries may
    carry a cut.
    """
    m = len(bounds) - 1
    sign = 1.0 if maximize else -1.0
    neg = float("-inf")
    pos = np.asarray(bounds, dtype=float)
    sup = np.asarray(supply, dtype=float)[bounds]
    cum = np.asarray(csum, dtype=float)[bounds]
    best = np.full(m + 1, neg)
    prev = [0] * (m + 1)
    best[0] = 0.0
    for jj in range(1, m + 1):
        if allowed is not None and not allowed[jj]:
            continue
        level = (sup[jj] - sup[:jj]) / (pos[jj] - pos[:jj])
        vals = best[:jj] + sign * level * (cum[jj] - cum[:jj])
        pick = int(np.argmax(vals))
        if vals[pick] > neg:
            best[jj] = vals[pick]
            prev[jj] = pick
    if full:
        end = m
        if best[end] == neg:
            raise ArithmeticError("hull run has no admissible grouping")
    else:
        end = 0
        for jj in range(1, m + 1):
            if best[jj] > best[end]:
                end = jj
    chain = []
    at = end
    while True:
        chain.append(at)
        if at == 0:
            break
        at = prev[at]
    chain.reverse()
    return [bounds[ii] for ii in chain]


def _arm(inst, lam, objective, maximize):
    """Extreme-p_1 optimizer of the ironed Lagrangian at multiplier lam."""
    values = list(inst.values)
    n = inst.n
    supply = (0.0,) + inst.env.cumulative_supply()
    res = iron(objective.curve(values, lam))
    verts = res.vertices
    height = res.ironed_curve
    coeffs = objective.p1(values)
    csum = [0.0]
    for c in coeffs:
        csum.append(csum[-1] + c)
    vmax = values[0] if n else 0.0
    ztol = 1e-12 * (1.0 + lam) * (1.0 + vmax)
    gtol = ztol * max(1, n)
    blocks = list(zip(verts, verts[1:]))
    slopes = [(height[b] - height[a]) / (b - a) for a, b in blocks]
    alloc = [0.0] * n
    i = 0
    while i < len(blocks):
        j = i
        while j + 1 < len(slopes) and abs(slopes[j + 1] - slopes[j]) <= TIE_RTOL * (
            1.0 + abs(slopes[j])
        ):
            j += 1
        phi = slopes[i]
        bounds = [blocks[i][0]] + [b for _, b in blocks[i : j + 1]]
        if phi < -ztol:
            break
        if phi > ztol:
            cuts = _group_extreme(bounds, supply, csum, maximize, True, None)
        else:
            # Flat stretch: serving is optional.  At height zero some hull
            # contacts rest on clamped points rather than the curve; cuts
            # there would leak negative Lagrangian mass, so forbid them.
            if height[bounds[0]] > gtol:
                allowed = None
            else:
                allowed = [res.curve[t] >= -gtol for t in bounds]
            cuts = _group_extreme(bounds, supply, csum, maximize, False, allowed)
        for a, b in zip(cuts, cuts[1:]):
            level = (supply[b] - supply[a]) / (b - a)
            for t in range(a, b):
                alloc[t] = level
        if phi <= ztol:
            break
        i = j + 1
    p1 = sum(c * x for c, x in zip(coeffs, alloc))
    return alloc, p1


@dataclass(frozen=True)
class BenchmarkResult:
    """Benchmark outcome with the multiplier and tie-break mix that hit it.

    ``multiplier`` is the exact breakpoint where the budget binds, its dual
    price in ``oracle``'s programs.  ``mix`` is the p_1-maximal arm's weight.
    """

    outcome: Outcome
    objective: float
    multiplier: float
    mix: float


@dataclass(frozen=True)
class _Objective:
    """One benchmark objective (see the module docstring).  Called as
    ``curve(values, lam)``, ``payments(values, alloc)``, ``p1(values)``,
    ``value(values, alloc)`` and ``slack_alloc(inst)``."""

    curve: Callable
    payments: Callable
    p1: Callable
    value: Callable
    slack_alloc: Callable


_WELFARE = _Objective(
    curve=welfare_curve,
    payments=min_payments,
    p1=_welfare_p1,
    value=lambda values, alloc: sum(v * x for v, x in zip(values, alloc)),
    slack_alloc=lambda inst: list(inst.weights),
)
_REVENUE = _Objective(
    curve=revenue_curve,
    payments=max_payments,
    p1=_revenue_p1,
    value=lambda values, alloc: sum(max_payments(values, alloc)),
    slack_alloc=lambda inst: _arm(inst, 0.0, _REVENUE, True)[0],
)


def _benchmark(inst, objective):
    values = list(inst.values)
    budget = inst.budget
    n = inst.n
    if n == 0:
        return BenchmarkResult(Outcome((), ()), 0.0, 0.0, 1.0)
    if budget <= 0.0:
        return BenchmarkResult(zero_outcome(n), 0.0, 0.0, 1.0)
    x0 = objective.slack_alloc(inst)
    p0 = objective.payments(values, x0)
    if not p0 or p0[0] <= budget:
        outcome = Outcome(tuple(x0), p0)
        return BenchmarkResult(outcome, objective.value(values, x0), 0.0, 1.0)

    # Arms are (alloc, p_1); doubling lam brackets lo (overspends) and hi
    # (fits).  Stop on "no new line": at a float crossing the hull may miss ties.
    lam = 0.0
    hi = _arm(inst, lam, objective, False)
    if hi[1] <= budget:
        lo = _arm(inst, lam, objective, True)
    else:
        lam = 1.0
        for _ in range(400):
            lo, hi = hi, _arm(inst, lam, objective, False)
            if hi[1] <= budget:
                break
            lam *= 2.0
        else:
            raise ArithmeticError("multiplier search failed to bracket")
        while True:
            gain = objective.value(values, lo[0]) - objective.value(values, hi[0])
            lam = gain / (lo[1] - hi[1])
            arm = _arm(inst, lam, objective, False)
            if not hi[1] < arm[1] < lo[1]:
                break
            if arm[1] > budget:
                lo = arm
            else:
                hi = arm
    (xmax, pmax), (xmin, pmin) = lo, hi
    if pmax - pmin <= 0.0:
        theta = 1.0
    else:
        theta = (budget - pmin) / (pmax - pmin)
        theta = min(1.0, max(0.0, theta))
    xs = tuple(theta * a + (1.0 - theta) * b for a, b in zip(xmax, xmin))
    outcome = Outcome(xs, objective.payments(values, xs))
    return BenchmarkResult(outcome, objective.value(values, xs), lam, theta)


def efo_welfare(inst: BudgetedInstance) -> BenchmarkResult:
    """Optimal envy-free welfare under the common budget."""
    return _benchmark(inst, _WELFARE)


def efo_revenue(inst: BudgetedInstance) -> BenchmarkResult:
    """Optimal envy-free revenue under the common budget."""
    return _benchmark(inst, _REVENUE)


def efo2_revenue(inst: BudgetedInstance) -> float:
    """Revenue benchmark with the top value lowered to the second value."""
    if inst.n < 2:
        raise ValueError("needs at least two agents")
    values = (inst.values[1],) + inst.values[1:]
    profile = ValuationProfile(values, inst.profile.budget)
    twin = BudgetedInstance(inst.env, profile, inst.order)
    return efo_revenue(twin).objective
