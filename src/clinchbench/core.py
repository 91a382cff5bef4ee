"""Domain types and instance plumbing for budgeted position auctions.

An instance couples a position environment (service weights in [0, 1],
non-increasing) with a valuation profile (non-negative values, common
per-agent budget).  All mechanism code operates in the sorted domain;
``normalize`` retains the index map so results can be reported in the
caller's original agent order.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

# Uniform absolute comparison tolerance for money/probability quantities.
ABS_TOL = 1e-9

INF = float("inf")


class InstanceError(ValueError):
    """Raised when an instance or serialized document violates the schema."""


def _as_floats(xs: Sequence[float], what: str) -> tuple[float, ...]:
    out = tuple(map(float, xs))
    for x in out:
        if x != x:  # NaN; cheaper than math.isnan per entry
            raise InstanceError(f"{what} contains NaN")
    return out


# ======================================================================
# Types
# ======================================================================


@dataclass(frozen=True)
class PositionEnvironment:
    """Service weights, non-increasing, each in [0, 1].

    The cumulative sums form a concave supply curve; an allocation sorted
    non-increasingly is feasible iff every prefix sum stays below it.
    """

    weights: tuple[float, ...]

    def __post_init__(self):
        ws = _as_floats(self.weights, "weights")
        object.__setattr__(self, "weights", ws)
        for j, w in enumerate(ws):
            if w < 0.0:
                raise InstanceError(f"weight {j} is negative")
            if w > 1.0:
                raise InstanceError(f"weight {j} exceeds 1")
            if j and w > ws[j - 1] + 1e-12:
                raise InstanceError("weights must be non-increasing")

    @property
    def n(self) -> int:
        return len(self.weights)

    def cumulative_supply(self) -> tuple[float, ...]:
        """Prefix sums S_1..S_n of the weights (concave by construction)."""
        out, acc = [], 0.0
        for w in self.weights:
            acc += w
            out.append(acc)
        return tuple(out)


@dataclass(frozen=True)
class ValuationProfile:
    """Values sorted non-increasing plus a common per-agent budget."""

    values: tuple[float, ...]
    budget: float

    def __post_init__(self):
        vs = _as_floats(self.values, "values")
        object.__setattr__(self, "values", vs)
        for j, v in enumerate(vs):
            if v < 0.0:
                raise InstanceError(f"value {j} is negative")
            if j and v > vs[j - 1] + 1e-12:
                raise InstanceError("values must be non-increasing")
        b = float(self.budget)
        if math.isnan(b) or b < 0.0:
            raise InstanceError("budget must be non-negative or inf")
        object.__setattr__(self, "budget", b)


@dataclass(frozen=True)
class Outcome:
    """Per-agent allocation and payment, in the instance's sorted order."""

    alloc: tuple[float, ...]
    pay: tuple[float, ...]

    def __post_init__(self):
        a = _as_floats(self.alloc, "alloc")
        p = _as_floats(self.pay, "pay")
        if len(a) != len(p):
            raise InstanceError("alloc and pay lengths differ")
        object.__setattr__(self, "alloc", a)
        object.__setattr__(self, "pay", p)


@dataclass(frozen=True)
class BudgetedInstance:
    """Normalized instance: sorted profile, padded weights, index map.

    ``order[s]`` is the original index of the agent at sorted rank s.
    """

    env: PositionEnvironment
    profile: ValuationProfile
    order: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.profile.values)

    @property
    def values(self) -> tuple[float, ...]:
        return self.profile.values

    @property
    def weights(self) -> tuple[float, ...]:
        return self.env.weights

    @property
    def budget(self) -> float:
        return self.profile.budget


def zero_outcome(n: int) -> Outcome:
    return Outcome((0.0,) * n, (0.0,) * n)


# ======================================================================
# Normalization
# ======================================================================


def normalize(values: Sequence[float], weights: Sequence[float],
              budget: float) -> BudgetedInstance:
    """Sort values (stably, ties by original index) and weights, pad weights.

    Weights shorter than the value list are zero-padded; a weight list
    longer than the value list is rejected so no latent supply can hide
    beyond the agent count.
    """
    vs = _as_floats(values, "values")
    ws = _as_floats(weights, "weights")
    if len(ws) > len(vs):
        raise InstanceError("more weights than values")
    order = sorted(range(len(vs)), key=lambda j: (-vs[j], j))
    sorted_vals = tuple(vs[j] for j in order)
    sorted_ws = tuple(sorted(ws, reverse=True))
    padded = sorted_ws + (0.0,) * (len(vs) - len(ws))
    return BudgetedInstance(
        env=PositionEnvironment(padded),
        profile=ValuationProfile(sorted_vals, budget),
        order=tuple(order),
    )


# ======================================================================
# Instance-level quantities
# ======================================================================


def feasible(env: PositionEnvironment, alloc: Sequence[float],
             tol: float = ABS_TOL) -> bool:
    """Prefix-sum feasibility of a non-increasing allocation."""
    supply = env.cumulative_supply()
    acc = 0.0
    for j, a in enumerate(alloc):
        if a < -tol:
            return False
        if j and a > alloc[j - 1] + tol:
            return False
        acc += a
        if acc > supply[j] + tol:
            return False
    return True


def outcome_welfare(inst: BudgetedInstance, outcome: Outcome) -> float:
    return sum(v * a for v, a in zip(inst.values, outcome.alloc))


def outcome_revenue(outcome: Outcome) -> float:
    return sum(outcome.pay)


# ======================================================================
# Serialization
# ======================================================================


def parse_instance(text: str) -> BudgetedInstance:
    """Parse {"values": [...], "weights": [...], "budget": number|"inf"}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InstanceError(f"malformed JSON: {e}") from None
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    for key in ("values", "weights", "budget"):
        if key not in doc:
            raise InstanceError(f"missing field {key!r}")
    values, weights, budget = doc["values"], doc["weights"], doc["budget"]
    if not isinstance(values, list) or not isinstance(weights, list):
        raise InstanceError("values and weights must be arrays")
    if budget == "inf":
        budget = INF
    elif not isinstance(budget, (int, float)) or isinstance(budget, bool):
        raise InstanceError('budget must be a number or "inf"')
    return normalize(values, weights, float(budget))


def serialize_instance(inst: BudgetedInstance) -> str:
    """Canonical document: sorted values, padded sorted weights."""
    budget = "inf" if math.isinf(inst.budget) else inst.budget
    doc = {
        "values": list(inst.values),
        "weights": list(inst.weights),
        "budget": budget,
    }
    return json.dumps(doc)


def serialize_outcome(inst: BudgetedInstance, outcome: Outcome) -> str:
    """Outcome document in the caller's original agent order."""
    n = inst.n
    if len(outcome.alloc) != n:
        raise InstanceError("outcome size does not match instance")
    alloc = [0.0] * n
    pay = [0.0] * n
    for rank, orig in enumerate(inst.order):
        alloc[orig] = outcome.alloc[rank]
        pay[orig] = outcome.pay[rank]
    doc = {
        "alloc": alloc,
        "pay": pay,
        "welfare": outcome_welfare(inst, outcome),
        "revenue": outcome_revenue(outcome),
    }
    return json.dumps(doc)
