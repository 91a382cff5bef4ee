import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clinchbench.clinching import (
    ClinchingStructure,
    closed_form,
    gradual_phase,
    run_clock,
    structure_check,
)
from clinchbench.core import Outcome, normalize, outcome_revenue
from clinchbench.envyfree import is_envy_free, min_payments
from conftest import draw_instance

EQ_TOL = 1e-8


# ----------------------------------------------------------------------
# Step primitives
# ----------------------------------------------------------------------


def test_gradual_phase_fixture():
    clinch, payment, remaining = gradual_phase(2.0, 3, 1.0, 2.0)
    assert clinch == pytest.approx(7 / 12)
    assert payment == pytest.approx(3 / 4)
    assert remaining == pytest.approx(1 / 4)


def test_gradual_phase_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gradual_phase(2.0, 0, 1.0, 2.0)
    with pytest.raises(ValueError):
        gradual_phase(2.0, 3, 0.0, 2.0)
    with pytest.raises(ValueError):
        gradual_phase(2.0, 3, 2.0, 1.0)


def test_gradual_phase_stationary_clock_is_a_noop():
    assert gradual_phase(2.0, 3, 1.5, 1.5) == (0.0, 0.0, 2.0)


@settings(max_examples=80, deadline=None)
@given(
    s=st.floats(0.0, 10.0),
    i=st.integers(1, 8),
    p0=st.floats(0.01, 5.0),
    stretch=st.floats(1.0, 10.0),
)
def test_gradual_phase_conserves_supply(s, i, p0, stretch):
    p1 = p0 * stretch
    clinch, payment, remaining = gradual_phase(s, i, p0, p1)
    assert i * clinch + remaining == pytest.approx(s, abs=1e-9)
    # payment is the price integral of the clinch, so it sits in the band
    assert payment >= p0 * clinch - 1e-9
    assert payment <= p1 * clinch + 1e-9


# ----------------------------------------------------------------------
# Worked fixture
# ----------------------------------------------------------------------


def test_worked_closed_form(worked):
    outcome, structure = closed_form(worked)
    assert outcome.alloc == pytest.approx((17 / 24, 17 / 24, 7 / 12))
    assert outcome.pay == pytest.approx((1.0, 1.0, 3 / 4))
    assert structure == ClinchingStructure(3, pytest.approx(0.125), pytest.approx(1.0))
    assert outcome_revenue(outcome) == pytest.approx(2.75)


def test_worked_clock_trace(worked):
    outcome, trace = run_clock(worked)
    closed, _ = closed_form(worked)
    assert outcome.alloc == pytest.approx(closed.alloc, abs=EQ_TOL)
    assert outcome.pay == pytest.approx(closed.pay, abs=EQ_TOL)
    kinds = [ev.kind for ev in trace.events]
    assert kinds == ["gradual-phase", "final-split"]
    grad, split = trace.events
    assert grad.active_count == 3
    assert grad.per_agent_clinch == pytest.approx(7 / 12)
    assert grad.per_agent_payment == pytest.approx(3 / 4)
    assert split.active_count == 2
    assert split.per_agent_clinch == pytest.approx(1 / 8)


def test_single_item_fixture():
    inst = normalize((5.0, 3.0), (1.0, 0.0), 2.0)
    outcome, structure = closed_form(inst)
    assert outcome.alloc == pytest.approx((13 / 18, 5 / 18))
    assert outcome.pay == pytest.approx((2.0, 2 / 3))
    assert structure.k == 2
    assert structure.delta == pytest.approx(4 / 9)
    assert structure.phase2_start == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Pivot
# ----------------------------------------------------------------------


def test_pivot_worked_fixture(worked):
    # ironed top payments (2, 2, 0): the pivot k is the first rank whose
    # threshold falls strictly below the budget
    for budget, k in ((2.5, 1), (2.0, 3), (1.0, 3)):
        inst = normalize(worked.values, worked.weights, budget)
        assert closed_form(inst)[1].k == k, budget
    slack, _ = closed_form(normalize(worked.values, worked.weights, 2.5))
    assert slack.alloc == worked.weights
    assert slack.pay == (2.0, 2.0, 0.0)


def test_pivot_never_rises_with_budget():
    rng = np.random.default_rng(21)
    for _ in range(80):
        inst = draw_instance(rng, 9, allow_inf=False)
        budgets = sorted(rng.uniform(0.0, 3.0, 12).tolist()) + [math.inf]
        ks = [closed_form(normalize(inst.values, inst.weights, b))[1].k
              for b in budgets]
        assert all(a >= b for a, b in zip(ks, ks[1:])), (inst, ks)
        assert ks[-1] == 1


# ----------------------------------------------------------------------
# Edge regimes
# ----------------------------------------------------------------------


def test_zero_budget_splits_the_last_weight():
    inst = normalize((4.0, 3.0, 2.0), (1.0, 1.0, 0.5), 0.0)
    outcome, structure = closed_form(inst)
    assert outcome.alloc == pytest.approx((0.5, 0.5, 0.5))
    assert outcome.pay == (0.0, 0.0, 0.0)
    assert structure.k == 3
    clock_outcome, _ = run_clock(inst)
    assert clock_outcome.alloc == pytest.approx(outcome.alloc)


def test_unconstrained_budget_is_assortative(worked):
    inst = normalize(worked.values, worked.weights, float("inf"))
    outcome, structure = closed_form(inst)
    assert structure.k == 1
    assert outcome.alloc == pytest.approx(inst.weights)
    assert outcome.pay == pytest.approx(min_payments(inst.values, inst.weights))
    clock_outcome, _ = run_clock(inst)
    assert clock_outcome.alloc == pytest.approx(outcome.alloc, abs=EQ_TOL)
    assert clock_outcome.pay == pytest.approx(outcome.pay, abs=EQ_TOL)


def test_trivial_sizes():
    empty = normalize((), (), 1.0)
    assert closed_form(empty)[0] == Outcome((), ())
    assert run_clock(empty)[0] == Outcome((), ())
    solo = normalize((10.0,), (1.0,), 3.0)
    outcome, structure = closed_form(solo)
    assert outcome.alloc == (1.0,)
    assert outcome.pay == (0.0,)
    assert structure.k == 1


def test_tied_values_agree_between_routes():
    # boundary of the hard family: the last two drop-outs collide
    inst = normalize((27.0, 3.0, 3.0, 3.0), (1.0, 0.0, 0.0, 0.0), 1.0)
    closed, _ = closed_form(inst)
    clock, _ = run_clock(inst)
    assert clock.alloc == pytest.approx(closed.alloc, abs=EQ_TOL)
    assert clock.pay == pytest.approx(closed.pay, abs=EQ_TOL)
    assert structure_check(inst, closed) == []


def test_routes_agree_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(120):
        inst = draw_instance(rng, 9)
        closed, _ = closed_form(inst)
        clock, trace = run_clock(inst)
        assert clock.alloc == pytest.approx(closed.alloc, abs=EQ_TOL), inst
        assert clock.pay == pytest.approx(closed.pay, abs=EQ_TOL), inst
        assert structure_check(inst, closed) == [], inst
        _check_trace(inst, clock, trace)


def _check_trace(inst, outcome, trace):
    prices = [ev.price for ev in trace.events]
    assert all(a <= b + 1e-12 for a, b in zip(prices, prices[1:]))
    total_alloc = total_pay = 0.0
    for ev in trace.events:
        assert ev.kind in {"drop-out", "demand-bind", "gradual-phase", "final-split"}
        assert 1 <= ev.active_count <= inst.n
        assert ev.per_agent_clinch >= -1e-12
        assert ev.per_agent_payment >= -1e-12
        total_alloc += ev.active_count * ev.per_agent_clinch
        total_pay += ev.active_count * ev.per_agent_payment
    assert total_alloc == pytest.approx(sum(outcome.alloc), abs=1e-8)
    assert total_pay == pytest.approx(sum(outcome.pay), abs=1e-8)
    if math.isfinite(inst.budget):
        assert max(outcome.pay, default=0.0) <= inst.budget + 1e-9


# ----------------------------------------------------------------------
# Structure checker
# ----------------------------------------------------------------------


def test_structure_check_flags_size_mismatch(worked):
    report = structure_check(worked, Outcome((1.0,), (0.0,)))
    assert report == ["outcome size does not match the instance"]


def test_structure_check_flags_overpayment(worked):
    outcome, _ = closed_form(worked)
    bad = Outcome(outcome.alloc, (outcome.pay[0] + 0.1,) + outcome.pay[1:])
    report = structure_check(worked, bad)
    assert any("beyond the budget" in line for line in report)


def test_structure_check_flags_over_allocation(worked):
    # equal shares, everyone paying the budget: envy free, but 4.5 units
    # handed out against a supply of 2
    report = structure_check(worked, Outcome((1.5, 1.5, 1.5), (1.0, 1.0, 1.0)))
    assert report == ["allocation exceeds the supply"]


def test_structure_check_flags_unequal_prefix(worked):
    outcome, _ = closed_form(worked)
    bad = Outcome((outcome.alloc[0] + 0.2,) + outcome.alloc[1:], outcome.pay)
    assert structure_check(worked, bad) != []


def test_structure_check_flags_weight_deviation():
    inst = normalize((4.0, 3.0, 2.0), (1.0, 1.0, 0.0), float("inf"))
    outcome, _ = closed_form(inst)
    bad = Outcome(outcome.alloc[:2] + (0.4,), outcome.pay)
    report = structure_check(inst, bad)
    assert any("deviates from her weight" in line for line in report)


def test_structure_check_flags_envy(worked):
    outcome, _ = closed_form(worked)
    bad = Outcome(outcome.alloc, outcome.pay[:2] + (outcome.pay[2] + 0.6,))
    report = structure_check(worked, bad)
    assert any("envy" in line for line in report)
    assert not is_envy_free(worked.values, bad)
