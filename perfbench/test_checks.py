"""Self-tests of the benchmark's checks: every check that gates an op
passes the true output and rejects a deliberately corrupted one.

    python3 -m pytest perfbench/test_checks.py
"""
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import referee  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from clinchbench import clinching, core, envyfree, oracle, profit  # noqa: E402


def plain(name, size, fn, *args):
    return fn(*args)


def swapped(outcome, i, j):
    alloc = list(outcome.alloc)
    alloc[i], alloc[j] = alloc[j], alloc[i]
    return core.Outcome(tuple(alloc), outcome.pay)


def with_pay(outcome, i, value):
    pay = list(outcome.pay)
    pay[i] = value
    return core.Outcome(outcome.alloc, tuple(pay))


def test_benchmark_file_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_same_inputs(name):
    wl = workloads.WORKLOADS[name]
    first = [op.run(plain) for op in wl.round(wl.setup(5), 5, 0) if op.size <= 16]
    again = [op.run(plain) for op in wl.round(wl.setup(5), 5, 0) if op.size <= 16]
    assert repr(first) == repr(again)


# ----------------------------------------------------------------------
# efo-sweep
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep():
    op = workloads._sweep_op(seed=1, t=3)  # n = 8, binding stratum
    out = op.run(plain)
    assert op.size == 8 and op.props["welfare_binding"]
    return op, out


def test_sweep_op_passes(sweep):
    op, out = sweep
    assert op.check(out) == []


def test_sweep_lp_checks_reject_an_objective_off_by_1e3(sweep):
    op, (w, r, closed) = sweep
    v, ws, b = op_instance(op)
    assert referee.lp_agreement("w", w.objective + 1e-3, referee.lp_welfare(v, ws, b))
    assert referee.lp_agreement("r", r.objective - 1e-3, referee.lp_revenue(v, ws, b))
    assert op.check((dataclasses.replace(w, objective=w.objective + 1e-3), r, closed))


def test_sweep_benchmark_checks_reject_corrupted_outcomes(sweep):
    op, (w, r, closed) = sweep
    v, ws, b = op_instance(op)
    over = dataclasses.replace(w, outcome=with_pay(w.outcome, 0, b + 1e-3))
    assert referee.benchmark_problems("w", v, ws, b, over, "welfare")
    assert w.outcome.alloc[0] > w.outcome.alloc[-1]
    turned = dataclasses.replace(r, outcome=swapped(r.outcome, 0, len(v) - 1))
    assert referee.benchmark_problems("r", v, ws, b, turned, "revenue")
    assert op.check((w, turned, closed))


def test_sweep_route_check_rejects_a_swapped_allocation(sweep):
    op, (w, r, closed) = sweep
    assert closed.alloc[0] > closed.alloc[-1]
    assert op.check((w, r, swapped(closed, 0, len(closed.alloc) - 1)))


def test_welfare_gap_check_rejects_more_than_twice():
    assert referee.welfare_gap_problems(2.0, 1.0) == []
    assert referee.welfare_gap_problems(2.001, 1.0)


def op_instance(op):
    return op.inst.values, op.inst.weights, op.inst.budget


# ----------------------------------------------------------------------
# sampling-revenue
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sampling():
    state = workloads._sampling_setup(1)
    ops = workloads._sampling_round(state, 1, 0)
    return state, ops


def test_sampling_ops_pass(sampling):
    _, ops = sampling
    for op in ops:
        assert op.check(op.run(plain)) == [], op.kind


def test_outcome_check_rejects_budget_rationality_and_supply(sampling):
    state, ops = sampling
    inst = state[8, 0]
    v, ws, b = inst.values, inst.weights, inst.budget
    served = next(out for out in (op.run(plain) for op in ops
                                  if op.kind == "profit.bspe_budget" and op.size == 8)
                  if any(a > 0 for a in out.alloc))
    assert referee.outcome_problems("b", v, ws, b, served.alloc, served.pay) == []
    i = next(k for k, a in enumerate(served.alloc) if a > 0)
    bad = with_pay(served, i, b + 1e-3)
    assert referee.outcome_problems("b", v, ws, b, bad.alloc, bad.pay)
    j = next(k for k, a in enumerate(served.alloc) if a == 0)
    bad = with_pay(served, j, 1e-3)  # pays for nothing
    assert referee.outcome_problems("b", v, ws, b, bad.alloc, bad.pay)
    bad = core.Outcome((1.0,) * inst.n, (0.0,) * inst.n)  # n units, n/2 slots
    assert referee.outcome_problems("b", v, ws, b, bad.alloc, bad.pay)


def test_walk_check_rejects_each_corrupted_statistic(sampling):
    _, ops = sampling
    walk = ops[-1]
    ks, pointwise, top = walk.run(plain)
    assert walk.check((ks, pointwise, top)) == []
    for field in range(3):
        stats = [ks.copy(), pointwise.copy(), top.copy()]
        stats[field][0] = stats[field][0] + 1 if field == 0 else not stats[field][0]
        assert walk.check(tuple(stats)), field


# ----------------------------------------------------------------------
# auction-referee
# ----------------------------------------------------------------------


def referee_op(n, seed=1, spread=0.0):
    """The first op of size n whose welfare budget binds and whose
    exact allocation falls by more than ``spread`` from first to last."""
    for t in range(256):
        op = workloads._referee_op(seed, t)
        if op.size != n or not op.props["welfare_binding"]:
            continue
        out = op.run(plain)
        if out[0].alloc[0] - out[0].alloc[-1] > spread:
            return op, out
    raise LookupError(f"no binding op of size {n} in the first rounds")


def test_referee_ops_pass():
    for n in workloads.REFEREE_SIZES[:3]:
        op, out = referee_op(n)
        assert op.check(out) == [], n


def test_referee_checks_reject_corrupted_outputs():
    # a swap of agents 0 and n-1 must move the allocation by more than
    # the tick clock's tolerance
    op, out = referee_op(8, spread=0.1)
    closed, clock, trace, flags, ticked, lp = out
    v, ws, b = op_instance(op)
    assert closed.alloc[0] - closed.alloc[-1] > referee.tick_tolerance(v, ws, b, 1e-4)
    corrupted = {
        "payment above the budget": (with_pay(closed, 0, b + 1e-3), clock, ticked, lp),
        "swapped allocation": (swapped(closed, 0, len(v) - 1), clock, ticked, lp),
        "tick clock off": (closed, clock, swapped(ticked, 0, len(v) - 1), lp),
        "LP value off by 1e-3": (closed, clock, ticked, lp + 1e-3),
    }
    for what, (c, k, t, value) in corrupted.items():
        assert op.check((c, k, trace, flags, t, value)), what


def test_tick_tolerance_covers_first_order_error_at_n1000():
    # error 3.0e-2 at step 1e-4 here, so a fixed tolerance such as the
    # acceptance suite's 5e-4 would flag a correct outcome
    values, weights, budget = workloads.sampled_instance(profit.trial_rng(1200, 2), 1000)
    inst = core.normalize(values, weights, budget)
    closed, _ = clinching.closed_form(inst)
    ticked = oracle.simulate_clock(inst, 1e-4)
    gap = max(abs(a - c) for a, c in zip(ticked.alloc, closed.alloc))
    assert gap > 5e-4
    assert referee.tick_problems(inst.values, inst.weights, inst.budget, 1e-4,
                                 ticked, closed) == []


def test_structure_check_flags_an_outcome_every_route_confirms():
    # why the structure checker's verdict is counted, not gated
    values, weights, budget = workloads.sampled_instance(profit.trial_rng(300, 19), 100)
    inst = core.normalize(values, weights, budget)
    closed, _ = clinching.closed_form(inst)
    clock, _ = clinching.run_clock(inst)
    ticked = oracle.simulate_clock(inst, 1e-4)
    assert clinching.structure_check(inst, closed)
    assert referee.exact_route_problems(inst.values, closed, clock) == []
    assert referee.tick_problems(inst.values, inst.weights, inst.budget, 1e-4,
                                 ticked, closed) == []


def test_lp_referee_agrees_where_the_in_house_revenue_lp_does_not():
    # trial_rng(7, 218) at n = 8: the in-house simplex gives 1.704 for a
    # revenue optimum of 2.120, so it cannot gate; HiGHS is the referee
    values, weights, budget = workloads.sampled_instance(profit.trial_rng(7, 218), 8)
    inst = core.normalize(values, weights, budget)
    truth = envyfree.efo_revenue(inst).objective
    assert referee.lp_agreement("r", truth, referee.lp_revenue(
        inst.values, inst.weights, inst.budget)) == []
    assert referee.lp_agreement("r", oracle.lp_efo_revenue(inst), truth)
    assert np.isclose(truth, 2.120, atol=1e-3)
