import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clinchbench import envyfree, oracle
from clinchbench.cli import tight_instance
from clinchbench.clinching import closed_form, run_clock
from clinchbench.core import (
    Outcome,
    feasible,
    normalize,
    outcome_revenue,
    outcome_welfare,
)
from clinchbench.envyfree import (
    efo2_revenue,
    efo_revenue,
    efo_welfare,
    iron,
    is_envy_free,
    max_payments,
    min_payments,
    revenue_curve,
    welfare_curve,
)
from conftest import draw_instance

REL = 1e-6


# ----------------------------------------------------------------------
# Envy-free payment band
# ----------------------------------------------------------------------


def test_payment_band_fixture():
    values = (3.0, 2.0, 1.0)
    alloc = (0.6, 0.3, 0.1)
    assert min_payments(values, alloc) == pytest.approx((0.8, 0.2, 0.0))
    assert max_payments(values, alloc) == pytest.approx((1.4, 0.5, 0.1))


def test_band_extremes_are_envy_free():
    values = (3.0, 2.0, 1.0)
    alloc = (0.6, 0.3, 0.1)
    assert is_envy_free(values, Outcome(alloc, min_payments(values, alloc)))
    assert is_envy_free(values, Outcome(alloc, max_payments(values, alloc)))


def test_overcharging_breaks_envy_freeness():
    values = (3.0, 2.0, 1.0)
    alloc = (0.6, 0.3, 0.1)
    pay = list(max_payments(values, alloc))
    pay[0] += 1e-3
    assert not is_envy_free(values, Outcome(alloc, tuple(pay)))


def test_nonmonotone_allocation_is_never_envy_free():
    assert not is_envy_free((3.0, 2.0), Outcome((0.3, 0.6), (0.0, 0.0)))


def test_zero_outcome_is_envy_free():
    assert is_envy_free((3.0, 2.0), Outcome((0.0, 0.0), (0.0, 0.0)))


def _pairwise_envy_free(values, outcome, tol=1e-9):
    """The envy test written out over every ordered pair, with the same
    global slack as ``is_envy_free``."""
    vs = [float(v) for v in values]
    xs, ps = outcome.alloc, outcome.pay
    n = len(vs)
    scale = 1.0
    if n:
        scale += max(abs(vs[0]), 1.0) * max(max(xs, default=0.0), 1.0)
        scale += max((abs(p) for p in ps), default=0.0)
    slack = tol * scale
    for i in range(n):
        u_i = vs[i] * xs[i] - ps[i]
        if u_i < -slack:
            return False
        for j in range(n):
            if j != i and vs[i] * xs[j] - ps[j] > u_i + slack:
                return False
    return True


def _band_outcome(rng, values, alloc):
    """Payments drawn inside the envy-free band, then one of them moved."""
    lo = np.array(min_payments(values, alloc))
    hi = np.array(max_payments(values, alloc))
    pay = lo + rng.random() * (hi - lo)
    if len(pay):
        step = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12, 0)
        pay[rng.integers(len(pay))] += step
    return Outcome(tuple(alloc), tuple(float(p) for p in pay))


def _random_cases(rng):
    for _ in range(400):
        n = int(rng.integers(2, 61))
        values = tuple(np.sort(rng.uniform(0.3, 3.0, n))[::-1])
        alloc = tuple(np.sort(rng.random(n))[::-1])
        yield values, _band_outcome(rng, values, alloc)
        pay = tuple(rng.uniform(0.0, 1.0, n))
        yield values, Outcome(tuple(rng.random(n)), pay)


def _tied_cases(rng):
    # equal slopes with different payments: only the cheapest line counts
    for _ in range(300):
        n = int(rng.integers(2, 31))
        values = tuple(np.round(np.sort(rng.uniform(0.3, 3.0, n))[::-1], 1))
        alloc = tuple(np.round(np.sort(rng.random(n))[::-1], 1))
        yield values, _band_outcome(rng, values, alloc)
        pay = np.round(rng.uniform(0.0, 1.0, n), 1)
        yield values, Outcome(alloc, tuple(float(p) for p in pay))


def _zero_alloc_cases(rng):
    for _ in range(200):
        n = int(rng.integers(1, 21))
        k = int(rng.integers(0, n + 1))
        values = tuple(np.sort(rng.uniform(0.0, 2.0, n))[::-1])
        alloc = tuple(np.sort(rng.random(k))[::-1]) + (0.0,) * (n - k)
        yield values, _band_outcome(rng, values, alloc)
        pay = tuple(float(p) for p in rng.uniform(-1e-8, 1e-8, n))
        yield values, Outcome((0.0,) * n, pay)


def _unsorted_value_cases(rng):
    for _ in range(200):
        n = int(rng.integers(2, 31))
        values = tuple(rng.uniform(0.0, 3.0, n))
        alloc = tuple(np.sort(rng.random(n))[::-1])
        pay = max_payments(sorted(values, reverse=True), alloc)
        yield values, Outcome(alloc, pay)
        yield values, _band_outcome(rng, values, alloc)


def _tiny_cases(rng):
    yield (), Outcome((), ())
    for _ in range(50):
        v, x = float(rng.uniform(0.0, 2.0)), float(rng.random())
        for p in (0.0, v * x, v * x + 1e-10, v * x + 1e-8, -1.0):
            yield (v,), Outcome((x,), (p,))


def _nudged_clinching_cases(rng):
    """closed_form and run_clock outcomes with one payment moved by half
    and by twice the slack, in both directions."""
    for _ in range(60):
        inst = draw_instance(rng, 12)
        for outcome in (closed_form(inst)[0], run_clock(inst)[0]):
            yield inst.values, outcome
            slack = 1e-9 * (
                1.0
                + max(inst.values[0], 1.0) * max(max(outcome.alloc), 1.0)
                + max(abs(p) for p in outcome.pay)
            )
            k = int(rng.integers(inst.n))
            for factor in (0.5, -0.5, 2.0, -2.0):
                pay = list(outcome.pay)
                pay[k] += factor * slack
                yield inst.values, Outcome(outcome.alloc, tuple(pay))


@pytest.mark.parametrize(
    "family",
    [_random_cases, _tied_cases, _zero_alloc_cases, _unsorted_value_cases,
     _tiny_cases, _nudged_clinching_cases],
)
def test_envelope_matches_pairwise_predicate(family):
    rng = np.random.default_rng(2011)
    verdicts = []
    for values, outcome in family(rng):
        expected = _pairwise_envy_free(values, outcome)
        assert is_envy_free(values, outcome) == expected, (values, outcome)
        verdicts.append(expected)
    assert True in verdicts and False in verdicts


# ----------------------------------------------------------------------
# Lagrangian virtuals and curves
# ----------------------------------------------------------------------


def test_welfare_virtuals_fixture():
    assert iron(welfare_curve((4.0, 3.0, 2.0), 0.0)).virtual == (
        pytest.approx((4.0, 3.0, 2.0)))
    assert iron(welfare_curve((4.0, 3.0, 2.0), 1.0)).virtual == (
        pytest.approx((1.0, 4.0, 4.0)))


def test_revenue_virtuals_fixture():
    assert iron(revenue_curve((4.0, 3.0, 2.0), 0.0)).virtual == (
        pytest.approx((4.0, 2.0, 0.0)))
    assert revenue_curve((4.0, 3.0, 2.0), 1.0) == pytest.approx(
        (0.0, 0.0, 3.0, 4.0))


def test_curve_fixtures():
    assert welfare_curve((3.0, 2.0, 1.0), 1.0) == pytest.approx(
        (-3.0, 1.0, 4.0, 6.0))
    assert revenue_curve((3.0, 2.0, 1.0), 1.0) == pytest.approx(
        (0.0, 0.0, 2.0, 2.0))


def test_virtual_prefix_sums_trace_the_curves():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        values = tuple(np.sort(rng.uniform(0.0, 4.0, n))[::-1])
        lam = float(rng.uniform(0.0, 5.0))
        nxt = values[1:] + (0.0,)
        welfare = [values[0] - lam * nxt[0]]
        welfare += [v + lam * (v - w) for v, w in zip(values[1:], nxt[1:])]
        revenue = [(1.0 - lam) * values[0]]
        revenue += [(j - lam) * values[j - 1] - (j - 1 - lam) * values[j - 2]
                    for j in range(2, n + 1)]
        for curve, expected in ((welfare_curve(values, lam), welfare),
                                (revenue_curve(values, lam), revenue)):
            virtual = iron(curve).virtual
            assert virtual == pytest.approx(expected, abs=1e-9)
            assert np.cumsum(virtual) == pytest.approx(curve[1:], abs=1e-9)


# ----------------------------------------------------------------------
# Ironing
# ----------------------------------------------------------------------


def test_iron_two_point_hull():
    res = iron((0.0, 1.0, 0.5, 1.5))
    assert res.ironed_curve == pytest.approx((0.0, 1.0, 1.25, 1.5))
    assert res.intervals == ((2, 3),)
    assert res.vertices == (0, 1, 3)


def test_iron_concave_curve_is_untouched():
    curve = (0.0, 2.0, 3.0, 3.5)
    res = iron(curve)
    assert res.ironed_curve == pytest.approx(curve)
    assert res.intervals == ()


def test_iron_convex_curve_is_one_chord():
    res = iron((0.0, 0.1, 0.5, 3.0))
    assert res.intervals == ((1, 3),)
    assert res.ironed_curve == pytest.approx((0.0, 1.0, 2.0, 3.0))


def _brute_envelope(heights):
    # Least concave majorant of (i, max(h_i, 0)) by chord enumeration.
    clamped = [max(h, 0.0) for h in heights]
    m = len(clamped)
    env = list(clamped)
    for j in range(m):
        for a in range(j + 1):
            for b in range(j, m):
                if a == b:
                    continue
                chord = clamped[a] + (clamped[b] - clamped[a]) * (j - a) / (b - a)
                env[j] = max(env[j], chord)
    return env


def test_iron_matches_brute_force_envelope():
    rng = np.random.default_rng(11)
    for _ in range(120):
        n = int(rng.integers(1, 10))
        curve = tuple(rng.uniform(-2.0, 4.0, n + 1))
        res = iron(curve)
        assert res.ironed_curve == pytest.approx(_brute_envelope(curve),
                                                 abs=1e-10)
        bar = res.ironed_curve
        slopes = [b - a for a, b in zip(bar, bar[1:])]
        assert all(s1 >= s2 - 1e-9 for s1, s2 in zip(slopes, slopes[1:]))
        assert res.ironed_virtual == pytest.approx(slopes)
        for lo, hi in res.intervals:
            a = lo - 1
            assert hi - a >= 2
            assert bar[a] == pytest.approx(max(curve[a], 0.0))
            assert bar[hi] == pytest.approx(max(curve[hi], 0.0))
            for t in range(lo, hi):
                assert bar[t] > max(curve[t], 0.0) - 1e-12


# ----------------------------------------------------------------------
# Benchmarks
# ----------------------------------------------------------------------


def test_worked_welfare_benchmark(worked):
    res = efo_welfare(worked)
    assert res.objective == pytest.approx(6.5, rel=REL)
    assert res.outcome.alloc == pytest.approx((5 / 6, 5 / 6, 1 / 3), rel=1e-9)
    assert res.outcome.pay[0] == pytest.approx(1.0, rel=1e-6)
    assert res.multiplier == pytest.approx(0.5, abs=1e-6)
    assert res.mix == pytest.approx(0.5, abs=1e-6)
    assert is_envy_free(worked.values, res.outcome, tol=1e-7)
    assert feasible(worked.env, res.outcome.alloc, tol=1e-7)


def test_worked_revenue_benchmark(worked):
    res = efo_revenue(worked)
    assert res.objective == pytest.approx(3.0, rel=REL)
    assert res.multiplier == pytest.approx(3.0, abs=1e-6)
    assert res.mix == pytest.approx(0.75, abs=1e-6)
    assert max(res.outcome.pay) <= worked.budget + 1e-8
    assert is_envy_free(worked.values, res.outcome, tol=1e-7)


def test_value_tie_pair():
    inst = normalize((3.0, 3.0), (1.0, 0.0), 1.0)
    w = efo_welfare(inst)
    assert w.objective == pytest.approx(3.0, rel=REL)
    r = efo_revenue(inst)
    assert r.objective == pytest.approx(2.0, rel=REL)
    assert r.outcome.alloc == pytest.approx((1 / 3, 1 / 3), rel=1e-7)
    assert r.outcome.pay == pytest.approx((1.0, 1.0), rel=1e-7)


def test_single_agent():
    inst = normalize((10.0,), (1.0,), 3.0)
    assert efo_welfare(inst).objective == pytest.approx(10.0)
    assert efo_welfare(inst).outcome.pay == pytest.approx((0.0,), abs=1e-9)
    r = efo_revenue(inst)
    assert r.objective == pytest.approx(3.0)
    assert r.outcome.alloc == pytest.approx((0.3,), rel=1e-9)


def test_single_item_unlimited_budget_revenue():
    inst = normalize((3.0, 2.0), (1.0, 0.0), float("inf"))
    res = efo_revenue(inst)
    assert res.objective == pytest.approx(3.0)
    assert res.outcome.alloc == pytest.approx((1.0, 0.0), abs=1e-9)


def test_infinite_budget_welfare_is_greedy(worked):
    inst = normalize(worked.values, worked.weights, float("inf"))
    res = efo_welfare(inst)
    assert res.objective == pytest.approx(7.0)
    assert res.outcome.alloc == pytest.approx(inst.weights)
    assert res.multiplier == 0.0


def test_zero_budget_gives_zero_outcome(worked):
    inst = normalize(worked.values, worked.weights, 0.0)
    for bench in (efo_welfare, efo_revenue):
        res = bench(inst)
        assert res.objective == 0.0
        assert res.outcome.alloc == (0.0, 0.0, 0.0)
        assert res.outcome.pay == (0.0, 0.0, 0.0)


def test_empty_instance():
    inst = normalize((), (), 1.0)
    assert efo_welfare(inst).objective == 0.0
    assert efo_revenue(inst).outcome.alloc == ()


def test_efo2_fixture():
    inst = normalize((100.0, 1.0), (1.0, 0.0), float("inf"))
    assert efo2_revenue(inst) == pytest.approx(1.0)


def test_efo2_matches_manual_substitution():
    inst = normalize((5.0, 3.0, 2.0), (1.0, 0.5, 0.0), 1.5)
    twin = normalize((3.0, 3.0, 2.0), (1.0, 0.5, 0.0), 1.5)
    assert efo2_revenue(inst) == pytest.approx(efo_revenue(twin).objective,
                                               rel=1e-9)


def test_efo2_needs_two_agents():
    with pytest.raises(ValueError):
        efo2_revenue(normalize((1.0,), (1.0,), 1.0))


def test_matches_lp_oracle_on_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(60):
        inst = draw_instance(rng, 6)
        w = efo_welfare(inst).objective
        lw = oracle.lp_efo_welfare(inst)
        assert w == pytest.approx(lw, rel=REL, abs=1e-8), inst
        r = efo_revenue(inst).objective
        lr = oracle.lp_efo_revenue(inst)
        assert r == pytest.approx(lr, rel=REL, abs=1e-8), inst


def test_multiplier_search_evaluates_few_arms(monkeypatch):
    """The breakpoint search needs at most 30 arm evaluations per benchmark,
    on random instances and across the tight family's sizes."""
    calls = []
    arm = envyfree._arm

    def counted(*args):
        calls.append(args)
        return arm(*args)

    monkeypatch.setattr(envyfree, "_arm", counted)
    rng = np.random.default_rng(31)
    instances = [draw_instance(rng, 8) for _ in range(500)]
    instances += [tight_instance(N) for N in (3, 40, 400)]
    for inst in instances:
        for bench in (efo_welfare, efo_revenue):
            calls.clear()
            bench(inst)
            assert len(calls) <= 30, (bench.__name__, inst)


@st.composite
def small_instances(draw):
    n = draw(st.integers(1, 6))
    values = sorted(
        draw(st.lists(st.one_of(st.just(0.0), st.floats(0.1, 5.0)),
                      min_size=n, max_size=n)),
        reverse=True,
    )
    k = draw(st.integers(0, n))
    weights = sorted(
        draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)),
        reverse=True,
    )
    budget = draw(st.one_of(st.floats(0.05, 3.0), st.just(float("inf"))))
    return normalize(values, weights, budget)


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_benchmark_outcomes_are_valid(inst):
    """Both benchmarks must emit feasible, envy-free, budget-capped outcomes
    whose recorded objective matches the outcome they return."""
    w = efo_welfare(inst)
    assert feasible(inst.env, w.outcome.alloc, tol=1e-7)
    assert is_envy_free(inst.values, w.outcome, tol=1e-6)
    assert w.objective == pytest.approx(outcome_welfare(inst, w.outcome),
                                        rel=1e-9, abs=1e-9)
    r = efo_revenue(inst)
    assert feasible(inst.env, r.outcome.alloc, tol=1e-7)
    assert is_envy_free(inst.values, r.outcome, tol=1e-6)
    assert r.objective == pytest.approx(outcome_revenue(r.outcome),
                                        rel=1e-9, abs=1e-9)
    if math.isfinite(inst.budget):
        scale = 1e-8 * (1.0 + inst.budget)
        assert all(p <= inst.budget + scale for p in w.outcome.pay)
        assert all(p <= inst.budget + scale for p in r.outcome.pay)
