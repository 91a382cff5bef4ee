"""Randomized revenue mechanisms: biased sampling, profit extraction through
clinching or through rejection, the padded no-budget variant, pseudo-Vickrey,
and the mixed mechanism, plus the random-walk law of the one-ahead index used
to reason about all of them.

The padded no-budget variant is exact: its infinite tail of placeholders acts
only through the running maximum M of the sample-minus-market walk over it,
P(M >= m) = r^m with r = q/(1-q) as in ``walk_closed_forms``, and the walk
is forced down up to the tail's first member of groups A or B when no real
lands in either (the A/B swap then puts that member in the market).

Every randomized entry point takes an explicit seed (anything numpy's
``default_rng`` accepts, including a live Generator for stream reuse).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clinching import closed_form
from .core import (
    INF,
    BudgetedInstance,
    InstanceError,
    Outcome,
    PositionEnvironment,
    normalize,
    zero_outcome,
)
from .envyfree import efo_revenue

WALK_SERIES_LEN = 500


def _check_coin(q: float) -> None:
    if not 0.0 < q < 0.5:
        raise ValueError("sampling coin must lie strictly between 0 and 0.5")


def one_ahead_index(market_values, sample_values) -> int:
    """Smallest k with m_{i+1} >= s_i for every i > k (1-based, zero-padded).

    Zero means the market covers the sample one position ahead everywhere.
    """
    m = [float(t) for t in market_values]
    s = [float(t) for t in sample_values]
    length = max(len(m), len(s)) + 1
    m += [0.0] * (length - len(m))
    s += [0.0] * (length - len(s))
    k = 0
    for i in range(1, length + 1):
        ahead = m[i] if i < length else 0.0
        if ahead < s[i - 1]:
            k = i
    return k


@dataclass(frozen=True)
class SamplingSplit:
    """Market/sample partition of ranked positions (0 is the top value).

    ``groups`` carries the three-way (A, B, C) assignment of the padded
    variant, after the swap that parks the best of A and B in the market.
    """

    market: tuple[int, ...]
    sample: tuple[int, ...]
    coin: float
    groups: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] | None = None

    def __post_init__(self):
        _check_coin(self.coin)
        members = set(self.market) | set(self.sample)
        total = len(self.market) + len(self.sample)
        if len(members) != total or members != set(range(total)):
            raise ValueError("market and sample must partition the positions")


def biased_sample(n: int, q: float, seed) -> SamplingSplit:
    """Each position goes to the sample independently with probability q."""
    _check_coin(q)
    rng = np.random.default_rng(seed)
    drawn = rng.random(n) < q
    sample = tuple(int(i) for i in np.flatnonzero(drawn))
    market = tuple(int(i) for i in np.flatnonzero(~drawn))
    return SamplingSplit(market, sample, q)


def group_sample(n: int, q: float, seed) -> SamplingSplit:
    """Three-way split with probabilities (q, q, 1-2q), then the A/B swap.

    If the best position of A and B landed in B, the two labels are exchanged
    so the market side keeps the better of the two random groups.  Positions
    are ranks, so "best" is just the smallest index.
    """
    _check_coin(q)
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    group_a = [int(i) for i in np.flatnonzero(u < q)]
    group_b = [int(i) for i in np.flatnonzero((u >= q) & (u < 2.0 * q))]
    group_c = [int(i) for i in np.flatnonzero(u >= 2.0 * q)]
    if group_a or group_b:
        best = min(group_a + group_b)
        if best in set(group_b):
            group_a, group_b = group_b, group_a
    return SamplingSplit(
        tuple(sorted(group_a + group_c)),
        tuple(group_b),
        q,
        (tuple(group_a), tuple(group_b), tuple(group_c)),
    )


def _estimate_allocation(
    estimate: tuple[float, ...], env: PositionEnvironment, budget: float
) -> tuple[float, ...]:
    """Envy-free revenue-optimal service levels for the estimated values,
    under the base environment's weights cropped or zero-padded to size."""
    k = len(estimate)
    if k == 0:
        return ()
    weights = (env.weights + (0.0,) * k)[:k]
    inst = normalize(estimate, weights, budget)
    return efo_revenue(inst).outcome.alloc


def clinching_profit_extractor(estimate, actual, budget: float,
                               env: PositionEnvironment) -> Outcome:
    """Commit to the estimate's envy-free optimal service levels, then sell
    them to the actual bidders through the clinching auction.

    The estimate plays the role of a fixed market forecast: its optimal
    allocation becomes the position weights of a fresh budgeted instance over
    the actual values.
    """
    estimate = tuple(float(t) for t in estimate)
    actual = tuple(float(t) for t in actual)
    if not actual:
        return Outcome((), ())
    levels = _estimate_allocation(estimate, env, budget)
    weights = (levels + (0.0,) * len(actual))[: len(actual)]
    outcome, _ = closed_form(normalize(actual, weights, budget))
    return outcome


def _covers(actual, estimate) -> bool:
    """Whether the sorted actual values lie pointwise at or above the sorted
    estimate, the shorter list zero-filled."""
    for t in range(max(len(actual), len(estimate))):
        e = estimate[t] if t < len(estimate) else 0.0
        w = actual[t] if t < len(actual) else 0.0
        if e > w:
            return False
    return True


def _rank_at_bid(bid: float, i: int, actual: tuple[float, ...]) -> int:
    # ties lose to earlier positions, so the true bid reproduces rank i
    ahead = sum(1 for j in range(i) if actual[j] >= bid)
    ahead += sum(1 for j in range(i + 1, len(actual)) if actual[j] > bid)
    return ahead


def _per_alloc_at_bid(bid: float, i: int, actual: tuple[float, ...],
                      estimate: tuple[float, ...],
                      levels: tuple[float, ...]) -> float:
    if not _covers(sorted(actual[:i] + actual[i + 1:] + (bid,), reverse=True),
                   estimate):
        return 0.0
    r = _rank_at_bid(bid, i, actual)
    return levels[r] if r < len(levels) else 0.0


def _per_payment(i: int, actual: tuple[float, ...], estimate: tuple[float, ...],
                 levels: tuple[float, ...]) -> tuple[float, float]:
    """Exact truthful price: bid-allocation curve integrated by breakpoints."""
    v = actual[i]
    if v <= 0.0:
        return 0.0, _per_alloc_at_bid(v, i, actual, estimate, levels)
    grid = sorted({0.0, v} | {w for w in actual + estimate if 0.0 < w < v})
    area = 0.0
    for a, b in zip(grid, grid[1:]):
        area += _per_alloc_at_bid(0.5 * (a + b), i, actual, estimate, levels) * (b - a)
    served = _per_alloc_at_bid(v, i, actual, estimate, levels)
    return v * served - area, served


def per_profit_extractor(estimate, actual, env: PositionEnvironment) -> Outcome:
    """Profit extraction with rejection, no budgets.

    If the actual sorted values fail to cover the estimate pointwise, nobody
    is served and nothing is charged.  Otherwise rank i receives the
    estimate's envy-free optimal level and pays the truthful price obtained
    by integrating her piecewise-constant allocation-versus-bid curve.
    """
    estimate = tuple(float(t) for t in estimate)
    actual = tuple(float(t) for t in actual)
    n = len(actual)
    if n == 0:
        return Outcome((), ())
    if not _covers(actual, estimate):
        return zero_outcome(n)
    levels = _estimate_allocation(estimate, env, INF)
    alloc = []
    pay = []
    for i in range(n):
        price, served = _per_payment(i, actual, estimate, levels)
        alloc.append(served)
        pay.append(price)
    return Outcome(tuple(alloc), tuple(pay))


def bspe_budget(inst: BudgetedInstance, q: float, seed) -> Outcome:
    """Biased-sampling profit extraction under the common budget.

    Sampled agents are shut out; their envy-free optimum is then extracted
    from the market side through the clinching extractor.
    """
    _check_coin(q)
    split = biased_sample(inst.n, q, seed)
    alloc = [0.0] * inst.n
    pay = [0.0] * inst.n
    if split.market and split.sample:
        estimate = tuple(inst.values[i] for i in split.sample)
        actual = tuple(inst.values[i] for i in split.market)
        inner = clinching_profit_extractor(estimate, actual, inst.budget, inst.env)
        for pos, idx in enumerate(split.market):
            alloc[idx] = inner.alloc[pos]
            pay[idx] = inner.pay[pos]
    return Outcome(tuple(alloc), tuple(pay))


def bspe_guarantee(inst: BudgetedInstance, q: float) -> float:
    """Lower bound on the expected revenue of ``bspe_budget`` at coin q,
    (1-q) q EFO(v_2..v_n; w_1..w_{n-1}) - q (1-q) / (1-2q)^2 EFO(v_2; w_1)
    with EFO = ``efo_revenue``, or zero below two agents."""
    _check_coin(q)
    if inst.n < 2:
        return 0.0
    dropped = normalize(inst.values[1:], inst.weights[:inst.n - 1], inst.budget)
    single = normalize((inst.values[1],), (inst.weights[0],), inst.budget)
    return ((1.0 - q) * q * efo_revenue(dropped).objective
            - q * (1.0 - q) / (1.0 - 2.0 * q) ** 2
            * efo_revenue(single).objective)


def _tail_maximum(q: float, forced_down: bool, rng: np.random.Generator) -> int:
    """Running maximum M >= 0 of the +1/-1 walk over an infinite tail that
    steps up with probability q: P(M >= m) = r^m with r = q/(1-q).  With
    ``forced_down`` the steps up to the tail's first member of A or B, K of
    them with K - 1 ~ Geometric(2q), all go down first."""
    r = q / (1.0 - q)
    peak = math.floor(math.log1p(-rng.random()) / math.log(r))
    if forced_down:
        peak -= 1 + math.floor(math.log1p(-rng.random()) / math.log1p(-2.0 * q))
    return max(0, peak)


def bspe_nobudget(inst: BudgetedInstance, q: float, seed,
                  record: dict | None = None) -> Outcome:
    """No-budget sampling variant over an infinitely padded population.

    Infinitely many decreasing placeholders below the reals join them in
    groups A/B/C with probabilities (q, q, 1-2q) and the best-of-A-and-B
    swap; sample = B, market = A and C.  The padding is exact, not
    truncated: the tail enters only through the running maximum M of its
    sample-minus-market walk, P(M >= m) = r^m with r = q/(1-q), drawn after
    the reals' labels.  When no real lands in A or B, the swap forces the
    tail's first member of A or B into A, so the tail walk goes down up to
    it.  With s sampled and m market reals, everyone is rejected iff
    s - m + M >= 1 or the sample reals are not pointwise below the market
    reals; otherwise the market reals face ``per_profit_extractor``.  If
    everyone is rejected the top agent alone is served at the second value.
    The parenthetical payment bump applies when the market's group-A winner
    sits just above a sampled runner-up.

    ``record``, when supplied, is filled with which clauses fired.
    """
    _check_coin(q)
    events = {} if record is None else record
    events.clear()
    events.update(rejected=False, fallback=False, bump=False)
    n = inst.n
    if n == 0:
        return Outcome((), ())
    values = inst.values
    if values[-1] <= 0.0:
        raise InstanceError("padded sampling needs strictly positive values")
    rng = np.random.default_rng(seed)
    split = group_sample(n, q, rng)
    group_a, group_b, _ = split.groups
    tail = _tail_maximum(q, not (group_a or group_b), rng)
    sample = tuple(values[i] for i in split.sample)
    market = tuple(values[i] for i in split.market)
    alloc = [0.0] * n
    pay = [0.0] * n
    if len(sample) - len(market) + tail >= 1 or not _covers(market, sample):
        events["rejected"] = True
        if inst.weights[0] > 0.0:
            alloc[0] = inst.weights[0]
            pay[0] = (values[1] if n >= 2 else 0.0) * inst.weights[0]
            events["fallback"] = True
        return Outcome(tuple(alloc), tuple(pay))
    inner = per_profit_extractor(sample, market, inst.env)
    for pos, idx in enumerate(split.market):
        alloc[idx] = inner.alloc[pos]
        pay[idx] = inner.pay[pos]
    union = sorted(group_a + group_b)
    if len(union) >= 2:
        best, second = union[0], union[1]
        if second in group_b and alloc[best] > 0.0:
            events["bump"] = True
            pay[best] = max(pay[best], values[second] * alloc[best])
    return Outcome(tuple(alloc), tuple(pay))


def top_slot_instance(inst: BudgetedInstance) -> BudgetedInstance:
    """The same agents and budget with the weights cut to (w1, 0, ..., 0)."""
    weights = (inst.weights[0],) + (0.0,) * (inst.n - 1)
    return normalize(inst.values, weights, inst.budget)


def pseudo_vickrey(inst: BudgetedInstance) -> Outcome:
    """Sell the top slot only: clinching on ``top_slot_instance``."""
    if inst.n == 0:
        return Outcome((), ())
    outcome, _ = closed_form(top_slot_instance(inst))
    return outcome


def combined_hat(q: float) -> float:
    """Mixing weight numerator (1-q)q + q(1-q)/(1-2q)^2."""
    _check_coin(q)
    return (1.0 - q) * q + q * (1.0 - q) / (1.0 - 2.0 * q) ** 2


def combined_factor(q: float) -> float:
    """Approximation factor of the combined mechanism at coin q."""
    _check_coin(q)
    return 1.0 + 1.0 / ((1.0 - q) * q) + 1.0 / (1.0 - 2.0 * q) ** 2


def nobudget_factor(q: float) -> float:
    """Guarantee constant of the padded variant: min(q - r^2, r^2)."""
    _check_coin(q)
    r = q / (1.0 - q)
    return min(q - r * r, r * r)


def combined_mechanism(inst: BudgetedInstance, q: float, seed) -> Outcome:
    """Coin-flip between pseudo-Vickrey and budgeted sample extraction."""
    _check_coin(q)
    rng = np.random.default_rng(seed)
    hat = combined_hat(q)
    if rng.random() < hat / (1.0 + hat):
        return pseudo_vickrey(inst)
    return bspe_budget(inst, q, rng)


@dataclass(frozen=True)
class WalkPmf:
    """Law of the one-ahead index of a biased split, conditioned on the top
    agent landing in the market, in the infinite-population limit.

    ``pmf[i - 1]`` is the probability the index equals i; ``tail_bound``
    dominates the mass lost to truncation (the term ratio climbs toward
    4q(1-q) < 1, so a geometric tail applies).
    """

    coin: float
    pmf: tuple[float, ...]
    tail_bound: float

    def total(self) -> float:
        return float(sum(self.pmf))

    def index_mean(self) -> float:
        return float(sum((i + 1) * p for i, p in enumerate(self.pmf)))


def walk_pmf(q: float, i_max: int = WALK_SERIES_LEN) -> WalkPmf:
    """Series pmf(i) = C(2i, i) [q(1-q)]^i (1-2q) / (2(1-q)) up to i_max."""
    _check_coin(q)
    if i_max < 1:
        raise ValueError("need at least one series term")
    z = q * (1.0 - q)
    term = z * (1.0 - 2.0 * q) / (1.0 - q)
    entries = []
    for i in range(1, i_max + 1):
        entries.append(term)
        term *= z * 2.0 * (2.0 * i + 1.0) / (i + 1.0)
    tail = term / (1.0 - 4.0 * z)
    return WalkPmf(q, tuple(entries), tail)


def walk_closed_forms(q: float) -> tuple[float, float, float]:
    """Large-n dominance constants.

    Returns (r, r^2, q/(1-2q)^2) with r = q/(1-q): the rate at which the
    market fails to dominate the sample pointwise, the same rate
    conditioned on the top agent landing in the market, and the
    conditional mean of the one-ahead index.
    """
    _check_coin(q)
    r = q / (1.0 - q)
    return r, r * r, q / (1.0 - 2.0 * q) ** 2


def walk_trials(n: int, q: float, trials: int,
                seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Monte Carlo dominance statistics for biased splits of n ranked agents.

    Returns (one-ahead index, pointwise-failure mask, top-agent-in-market
    mask), one entry per trial; trial t draws from ``trial_rng(seed, t)``
    so any single row can be reproduced on its own.  Both statistics are
    read off the +1/-1 walk over the ranks (sample steps up): the index
    is the largest sample count attained while the walk is non-negative
    at a sample step, matching ``one_ahead_index`` on distinct values,
    and pointwise dominance fails exactly when the walk is strictly
    positive at some sample step.
    """
    _check_coin(q)
    if n < 1:
        raise ValueError("need at least one agent")
    ks = np.empty(trials, dtype=np.int64)
    pointwise = np.empty(trials, dtype=bool)
    top = np.empty(trials, dtype=bool)
    for t in range(trials):
        g = trial_rng(seed, t).random(n) < q
        walk = np.cumsum(np.where(g, 1, -1))
        count = np.cumsum(g)
        at_sample = walk[g]
        hits = count[g & (walk >= 0)]
        ks[t] = hits.max(initial=0)
        pointwise[t] = bool(at_sample.size) and int(at_sample.max()) >= 1
        top[t] = not g[0]
    return ks, pointwise, top


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Per-trial stream derived from a master seed by counter splitting."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    )
