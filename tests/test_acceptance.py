"""End-to-end acceptance checks, one test per shipping criterion.

Each test is self-contained and uses its own seeded instance stream, so a
failure pins down a criterion without disturbing the others.  Monte Carlo
bounds are one-sided guarantees checked to three standard errors; the walk
statistics are two-sided.
"""
import math
import time

import numpy as np
import pytest

from clinchbench import oracle, profit
from clinchbench.cli import entry, tight_instance, tight_ratio_formula
from clinchbench.clinching import closed_form, run_clock, structure_check
from clinchbench.core import normalize, outcome_revenue, outcome_welfare
from clinchbench.envyfree import efo2_revenue, efo_revenue, efo_welfare
from clinchbench.profit import trial_rng
from conftest import draw_instance

REL_TOL = 1e-6
EQ_TOL = 1e-8
CLOCK_TOL = 5e-4


def _mean_se(xs):
    xs = np.asarray(xs, dtype=float)
    return float(xs.mean()), float(xs.std(ddof=1) / np.sqrt(xs.size))


def _family_instance(seed=3, n=8):
    rng = np.random.default_rng(seed)
    values = tuple(sorted((float(v) for v in rng.uniform(1.0, 2.0, n)), reverse=True))
    weights = (1.0,) * (n // 2) + (0.0,) * (n - n // 2)
    return normalize(values, weights, 0.8)


def test_c01_welfare_benchmark_matches_lp():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(200):
        inst = draw_instance(rng, 8)
        ours = efo_welfare(inst).objective
        ref = oracle.lp_efo_welfare(inst)
        assert abs(ours - ref) <= REL_TOL * max(1.0, abs(ref)), inst
    assert time.monotonic() - start < 60.0


def test_c02_clinching_routes_agree():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    for _ in range(100):
        inst = draw_instance(rng, 12)
        closed, _ = closed_form(inst)
        clock, _ = run_clock(inst)
        assert clock.alloc == pytest.approx(closed.alloc, abs=EQ_TOL), inst
        assert clock.pay == pytest.approx(closed.pay, abs=EQ_TOL), inst
        ticked = oracle.simulate_clock(inst, 1e-5)
        for out in (closed, clock):
            assert ticked.alloc == pytest.approx(out.alloc, abs=CLOCK_TOL), inst
            assert ticked.pay == pytest.approx(out.pay, abs=CLOCK_TOL), inst
    assert time.monotonic() - start < 120.0


def test_c03_worked_fixture(worked):
    outcome, _ = closed_form(worked)
    assert outcome.alloc == pytest.approx((17 / 24, 17 / 24, 7 / 12), abs=1e-9)
    assert outcome.pay == pytest.approx((1.0, 1.0, 3 / 4), abs=1e-9)
    welfare = outcome_welfare(worked, outcome)
    assert welfare == pytest.approx(6.125, abs=1e-9)
    benchmark = efo_welfare(worked).objective
    assert benchmark == pytest.approx(6.5, rel=REL_TOL)
    ratio = benchmark / welfare
    assert ratio == pytest.approx(1.0612, abs=1e-4)
    assert ratio <= 2.0


def test_c04_two_approximation_and_tight_family():
    rng = np.random.default_rng(404)
    for _ in range(150):
        inst = draw_instance(rng, 10)
        outcome, _ = closed_form(inst)
        auction = outcome_welfare(inst, outcome)
        assert efo_welfare(inst).objective <= 2.0 * auction + 1e-6, inst
    ratio = 0.0
    for N in range(3, 401):
        inst = tight_instance(N)
        outcome, _ = closed_form(inst)
        auction = outcome_welfare(inst, outcome)
        benchmark = efo_welfare(inst).objective
        assert benchmark <= 2.0 * auction + 1e-6, N
        ratio = benchmark / auction
        assert ratio == pytest.approx(tight_ratio_formula(N), abs=1e-5), N
    assert ratio > 1.99


def test_c05_structure_and_own_bid_monotonicity():
    rng = np.random.default_rng(505)
    checked = 0
    while checked < 1000:
        inst = draw_instance(rng, 8)
        if inst.n == 0:
            continue
        base, _ = closed_form(inst)
        assert structure_check(inst, base) == [], inst
        caller_values = [inst.values[inst.order.index(j)] for j in range(inst.n)]
        for _ in range(5):
            j = int(rng.integers(0, inst.n))
            bumped = list(caller_values)
            bumped[j] += float(rng.uniform(0.0, 0.6))
            alt = normalize(bumped, inst.weights, inst.budget)
            outcome, _ = closed_form(alt)
            assert structure_check(alt, outcome) == [], alt
            before = base.alloc[inst.order.index(j)]
            after = outcome.alloc[alt.order.index(j)]
            assert after >= before - 1e-9, (inst, j, bumped)
            checked += 1


def _pair(rng):
    n = int(rng.integers(1, 7))
    k = int(rng.integers(1, 7))
    actual = tuple(np.sort(rng.uniform(0.2, 3.0, n))[::-1])
    estimate = tuple(np.sort(rng.uniform(0.2, 3.0, k))[::-1])
    m = int(rng.integers(1, n + k + 1))
    from clinchbench.core import PositionEnvironment

    env = PositionEnvironment(tuple(np.sort(rng.uniform(0.0, 1.0, m))[::-1]))
    return estimate, actual, env


def _estimate_reference(estimate, env, budget):
    weights = (env.weights + (0.0,) * len(estimate))[: len(estimate)]
    return efo_revenue(normalize(estimate, weights, budget)).outcome.pay


def test_c06_extractor_payment_floors():
    rng = np.random.default_rng(606)
    for _ in range(500):
        estimate, actual, env = _pair(rng)
        budget = float(rng.uniform(0.2, 3.0)) if rng.random() < 0.7 else math.inf
        d = profit.one_ahead_index(actual, estimate)
        out = profit.clinching_profit_extractor(estimate, actual, budget, env)
        ref = _estimate_reference(estimate, env, budget)
        for i in range(d, len(actual)):
            floor = ref[i] if i < len(ref) else 0.0
            assert out.pay[i] >= floor - 1e-8, (estimate, actual, env, budget, i)
    rng = np.random.default_rng(607)
    for _ in range(500):
        _, actual, env = _pair(rng)
        shrink = rng.uniform(0.3, 1.0, len(actual))
        estimate = tuple(np.sort(np.array(actual) * shrink)[::-1])
        out = profit.per_profit_extractor(estimate, actual, env)
        ref = _estimate_reference(estimate, env, math.inf)
        for i, floor in enumerate(ref):
            assert out.pay[i] >= floor - 1e-8, (estimate, actual, env, i)


def test_c07_walk_statistics():
    start = time.monotonic()
    q, n, trials, seed = 0.25, 200, 100_000, 20260823
    ks, pointwise, top = profit.walk_trials(n, q, trials, seed)
    fail_limit, cond_limit, mean_limit = profit.walk_closed_forms(q)

    rate, se = _mean_se(pointwise)
    assert abs(rate - fail_limit) <= 3.0 * se
    cond_rate, se = _mean_se(pointwise[top])
    assert abs(cond_rate - cond_limit) <= 3.0 * se
    mean_k, se = _mean_se(ks[top])
    assert abs(mean_k - mean_limit) <= 3.0 * se

    law = profit.walk_pmf(q)
    in_market = ks[top]
    draws = in_market.size
    for i in range(1, 11):
        observed = float(np.count_nonzero(in_market == i)) / draws
        expected = law.pmf[i - 1]
        sigma = math.sqrt(expected * (1.0 - expected) / draws)
        assert abs(observed - expected) <= 3.0 * sigma, i
    assert time.monotonic() - start < 180.0


def test_c08_sampling_revenue_bounds():
    q = 0.25
    inst = _family_instance()
    rhs = profit.bspe_guarantee(inst, q)
    revenues = [
        outcome_revenue(profit.bspe_budget(inst, q, trial_rng(11, t)))
        for t in range(10_000)
    ]
    mean, se = _mean_se(revenues)
    assert mean >= rhs - 3.0 * se

    factor = profit.combined_factor(0.211)
    assert factor == pytest.approx(10.0, abs=1e-3)
    assert 1.0 / profit.nobudget_factor(0.268) == pytest.approx(7.47, abs=0.01)

    revenues = [
        outcome_revenue(profit.combined_mechanism(inst, 0.211, trial_rng(13, t)))
        for t in range(4000)
    ]
    mean, se = _mean_se(revenues)
    assert mean >= efo2_revenue(inst) / factor - 3.0 * se

    unlimited = normalize(inst.values, inst.weights, math.inf)
    revenues = [
        outcome_revenue(profit.bspe_nobudget(unlimited, 0.268, trial_rng(17, t)))
        for t in range(1000)
    ]
    mean, se = _mean_se(revenues)
    bound = profit.nobudget_factor(0.268) * efo2_revenue(unlimited)
    assert mean >= bound - 3.0 * se


def test_c09_revenue_subadditivity():
    rng = np.random.default_rng(909)
    done = 0
    while done < 200:
        inst = draw_instance(rng, 10)
        if inst.n < 2:
            continue
        mask = rng.random(inst.n) < rng.uniform(0.2, 0.8)
        left = tuple(v for v, m in zip(inst.values, mask) if m)
        right = tuple(v for v, m in zip(inst.values, mask) if not m)
        whole = efo_revenue(inst).objective
        parts = 0.0
        for side in (left, right):
            if side:
                parts += efo_revenue(
                    normalize(side, inst.weights[: len(side)], inst.budget)
                ).objective
        assert whole <= parts + 1e-6, (inst, mask)
        done += 1


def test_c10_csv_determinism(tmp_path):
    commands = {
        "walk": ["experiment", "dominance-walk", "--trials", "60", "--n", "40",
                 "--q", "0.25", "--seed", "3"],
        "welfare": ["experiment", "welfare-approx", "--trials", "6", "--n", "5",
                    "--seed", "3"],
        "bspe": ["experiment", "bspe-revenue", "--trials", "120", "--n", "8",
                 "--q", "0.25", "--seed", "3"],
    }
    for name, argv in commands.items():
        first = tmp_path / f"{name}_a.csv"
        second = tmp_path / f"{name}_b.csv"
        assert entry(argv + ["--out", str(first)]) == 0
        assert entry(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name
