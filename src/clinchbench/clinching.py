"""Ascending-price clinching auction for position environments with a
common budget, in two interchangeable forms: an explicit price-clock
event loop and the closed-form outcome it converges to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BudgetedInstance, Outcome, feasible
from .envyfree import is_envy_free, min_payments

# Slack used when comparing clock prices to drop-out values.
PRICE_RTOL = 1e-12


@dataclass(frozen=True)
class ClinchEvent:
    """One clinching step of the price clock.

    ``kind`` is one of ``drop-out``, ``demand-bind``, ``gradual-phase``
    and ``final-split``.  The clinch and payment are per active agent;
    agents 1..active_count take part.  For gradual-phase events the
    payment is the price integral over the phase, otherwise it is
    price times amount.
    """

    price: float
    active_count: int
    per_agent_clinch: float
    per_agent_payment: float
    kind: str


@dataclass(frozen=True)
class ClinchingTrace:
    events: tuple


@dataclass(frozen=True)
class ClinchingStructure:
    """Shape of a budget-bound run: the pivotal index ``k``, the final
    split ``delta``, and the price at which demand started binding."""

    k: int
    delta: float
    phase2_start: float


def gradual_phase(s_i, i, p_start, p_end):
    """Continuous clinching while the other agents' demand binds.

    With ``i`` symmetric active agents and remaining supply ``s_i``, the
    clock moving from ``p_start`` to ``p_end`` lets each agent clinch

        (s_i / i) * (1 - (p_start / p_end) ** i)

    for a payment given by the price integral of the clinch rate.
    Returns (per-agent clinch, per-agent payment, remaining supply).
    """
    if i < 1:
        raise ValueError("need at least one active agent")
    if p_start <= 0.0:
        raise ValueError("phase must start at a positive price")
    if p_end < p_start * (1.0 - PRICE_RTOL):
        raise ValueError("phase must move the clock forward")
    if p_end <= p_start:
        return 0.0, 0.0, s_i
    ratio = p_start / p_end
    shrink = ratio**i
    clinch = (s_i / i) * (1.0 - shrink)
    if i == 1:
        payment = s_i * p_start * math.log(p_end / p_start)
    else:
        # integral in the form s * p0 * (1 - (p0/p1)^(i-1)) / (i-1), which
        # stays bounded however large i gets
        payment = s_i * p_start * (1.0 - ratio ** (i - 1)) / (i - 1)
    return clinch, payment, s_i * shrink


def run_clock(inst: BudgetedInstance):
    """Run the price clock and return (Outcome, ClinchingTrace).

    The clock starts at zero, where every agent clinches the supply the
    others cannot absorb, and rises through the drop-out values.  Between
    drops nothing moves until either the next agent drops (releasing
    supply at her value) or the remaining agents' budgets bind, which
    starts the gradual phase and ends the auction at the next value.
    """
    n = inst.n
    values = inst.values
    budget = inst.budget
    supply = (0.0,) + inst.env.cumulative_supply()
    if n == 0:
        return Outcome((), ()), ClinchingTrace(())
    events = []
    alloc = [0.0] * n
    pay = [0.0] * n
    if budget <= 0.0:
        base = supply[n] - supply[n - 1]
        if base > 0.0:
            alloc = [base] * n
            events.append(ClinchEvent(0.0, n, base, 0.0, "drop-out"))
        return Outcome(tuple(alloc), tuple(pay)), ClinchingTrace(tuple(events))

    clinched = 0.0
    spent = 0.0
    frozen = {}

    def settle(count, extra_alloc=0.0, extra_pay=0.0):
        for t in range(count):
            cap = spent + extra_pay
            alloc[t] = clinched + extra_alloc
            pay[t] = min(cap, budget) if math.isfinite(budget) else cap
        for t, (a, p) in frozen.items():
            alloc[t] = a
            pay[t] = p
        return Outcome(tuple(alloc), tuple(pay)), ClinchingTrace(tuple(events))

    for i in range(n, 0, -1):
        entry = values[i] if i < n else 0.0
        b_rem = budget - spent
        rem_i = supply[i] - i * clinched
        rem_prev = supply[i - 1] - (i - 1) * clinched
        if entry <= 0.0:
            c_i, c_prev = rem_i, rem_prev
        else:
            c_i = min(rem_i, i * b_rem / entry)
            c_prev = min(rem_prev, (i - 1) * b_rem / entry) if i > 1 else 0.0
        delta = max(0.0, c_i - c_prev)
        if delta > 0.0:
            release = max(0.0, min(delta, rem_i - rem_prev))
            bind_part = delta - release
            if release > 0.0:
                events.append(
                    ClinchEvent(entry, i, release, entry * release, "drop-out")
                )
            if bind_part > 0.0:
                events.append(
                    ClinchEvent(entry, i, bind_part, entry * bind_part, "demand-bind")
                )
            clinched += delta
            spent += entry * delta
        if i == 1:
            return settle(1)
        v_i = values[i - 1]
        b_rem = budget - spent
        rem_prev = supply[i - 1] - (i - 1) * clinched
        if rem_prev > 1e-300 and math.isfinite(budget):
            p_bind = (i - 1) * b_rem / rem_prev
        else:
            p_bind = math.inf
        if p_bind <= v_i * (1.0 + PRICE_RTOL):
            start = max(p_bind, entry)
            s_grad = supply[i] - i * clinched
            if start > 0.0 and v_i > start:
                grad, grad_pay, s_left = gradual_phase(s_grad, i, start, v_i)
            else:
                grad, grad_pay, s_left = 0.0, 0.0, s_grad
            if grad > 0.0:
                events.append(ClinchEvent(v_i, i, grad, grad_pay, "gradual-phase"))
                clinched += grad
                spent += grad_pay
            split = s_left / (i - 1)
            if split > 0.0:
                events.append(
                    ClinchEvent(v_i, i - 1, split, v_i * split, "final-split")
                )
            frozen[i - 1] = (clinched, spent)
            return settle(i - 1, split, v_i * split)
        frozen[i - 1] = (clinched, spent)
    raise AssertionError("clock failed to terminate")


def closed_form(inst: BudgetedInstance):
    """Outcome of the clinching auction in closed form.

    Returns (Outcome, ClinchingStructure).  The pivotal index ``k`` is
    the first position whose ironed top payment falls below the budget;
    agents above it exhaust the budget, agents below it keep exactly
    their position weight.
    """
    n = inst.n
    values = inst.values
    budget = inst.budget
    weights = inst.weights
    supply = (0.0,) + inst.env.cumulative_supply()
    if n == 0:
        return Outcome((), ()), ClinchingStructure(0, 0.0, 0.0)
    if budget <= 0.0:
        base = supply[n] - supply[n - 1]
        alloc = tuple([base] * n)
        return Outcome(alloc, tuple([0.0] * n)), ClinchingStructure(n, 0.0, 0.0)

    # tail[i - 1] = sum_{j>i} v_j (w_{j-1} - w_j), the minimum envy-free
    # payment of rank i under the weights: what an agent active through the
    # supply-release phase down to window i has paid.
    tail = min_payments(values, weights)
    # ironed top payments B_i = v_{i+1} (S_i / i - w_i) + tail[i - 1],
    # non-increasing in i with B_n = 0
    thresholds = [0.0] * (n + 1)
    for i in range(1, n + 1):
        v_next = values[i] if i < n else 0.0
        thresholds[i] = v_next * (supply[i] / i - weights[i - 1]) + tail[i - 1]
    k = n
    for i in range(1, n + 1):
        if thresholds[i] < budget:
            k = i
            break

    if k == 1:
        return Outcome(weights, tail), ClinchingStructure(1, 0.0, 0.0)

    v_k = values[k - 1]
    v_next = values[k] if k < n else 0.0
    phi_k = weights[k - 1]
    b_entry = budget - tail[k - 1]
    s_k = supply[k] - k * phi_k
    s_prev = supply[k - 1] - (k - 1) * phi_k
    p_bind = (k - 1) * b_entry / max(s_prev, 1e-300)
    extra = 0.0
    if p_bind < v_next:
        # demand already binds when the window opens: the drop-out clinch
        # and the bind correction land together at the entry price.
        start = v_next
        extra = s_k - (k - 1) * b_entry / v_next
        b_entry -= v_next * extra
        s_k -= k * extra
    else:
        start = p_bind
    if start > 0.0 and v_k > start:
        grad, grad_pay, s_left = gradual_phase(s_k, k, start, v_k)
    else:
        grad, grad_pay, s_left = 0.0, 0.0, s_k
    delta = s_left / (k - 1)

    alloc = [0.0] * n
    pay = [0.0] * n
    x_k = phi_k + extra + grad
    for i in range(k - 1):
        alloc[i] = x_k + delta
        pay[i] = budget
    alloc[k - 1] = x_k
    pay[k - 1] = tail[k - 1] + v_next * extra + grad_pay
    for i in range(k, n):
        alloc[i] = weights[i]
        pay[i] = tail[i]
    return (
        Outcome(tuple(alloc), tuple(pay)),
        ClinchingStructure(k, delta, start),
    )


def structure_check(inst: BudgetedInstance, outcome: Outcome, tol=1e-6):
    """Check an outcome against the clinching characterization.

    Returns a list of violation descriptions; empty means the outcome has
    the budget-exhaustion prefix, keeps position weights below the pivot,
    fits the supply, and is envy free.  The prefix, weight and supply checks
    are linear passes; envy-freeness is ``is_envy_free``'s upper-envelope
    sweep, so the whole check costs O(n log n) time and O(n) memory.
    """
    n = inst.n
    budget = inst.budget
    weights = inst.weights
    alloc = outcome.alloc
    pay = outcome.pay
    problems = []
    if len(alloc) != n or len(pay) != n:
        return ["outcome size does not match the instance"]
    if n == 0:
        return problems
    scale = tol * (1.0 + (budget if math.isfinite(budget) else 0.0))
    k = n + 1
    for i in range(1, n + 1):
        if pay[i - 1] < budget - scale:
            k = i
            break
    for i in range(1, k):
        if abs(pay[i - 1] - budget) > scale:
            problems.append(f"agent {i} above the pivot does not pay the budget")
        if abs(alloc[i - 1] - alloc[0]) > tol * (1.0 + abs(alloc[0])):
            problems.append(f"agent {i} above the pivot has unequal allocation")
    if k <= n and alloc[k - 1] < weights[k - 1] - tol:
        problems.append("pivot agent falls short of her position weight")
    for i in range(k + 1, n + 1):
        if abs(alloc[i - 1] - weights[i - 1]) > tol:
            problems.append(f"agent {i} below the pivot deviates from her weight")
    for i in range(n):
        if pay[i] > budget + scale:
            problems.append(f"agent {i + 1} pays beyond the budget")
    if not feasible(inst.env, alloc, tol):
        problems.append("allocation exceeds the supply")
    if not is_envy_free(inst.values, outcome, tol=tol):
        problems.append("outcome is not envy free")
    return problems
