"""The benchmark's three workloads: seeded inputs, the timed calls of one
op, and the check each op's output must pass.

Inputs are generated here, not by the package's CLI, so a change to the
CLI cannot change the workload.  A workload is a sequence of rounds; a
round is a fixed list of ops, so every seed sends the same mix of size
classes and op types.

An op's ``run(call)`` makes its timed calls, each as
``call(name, size, fn, *args)`` so the runner can time and trace it, and
returns their outputs; the op's latency is the time spent in those calls.
``check(outputs)`` runs afterwards, untimed, and returns a list of
problems.  ``props`` holds the op's input properties for the report;
``check`` adds what it learns from the outputs.  ``inst`` is the op's
instance, if it has one.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import referee
from clinchbench import clinching, core, envyfree, oracle, profit

INF = math.inf


@dataclass
class Op:
    kind: str
    size: int
    run: Callable
    check: Callable
    props: dict = field(default_factory=dict)
    inst: core.BudgetedInstance | None = None

    def record(self) -> "Op":
        """The op without its input and closures, kept for the report."""
        return Op(self.kind, self.size, None, None, self.props)


@dataclass
class Workload:
    name: str
    setup: Callable      # seed -> state shared by all rounds (fixed inputs)
    round: Callable      # (state, seed, r) -> list[Op]
    summarize: Callable  # (state, list[Op]) -> dict for the report


def schedule_point(i: int, dims: int) -> tuple[float, ...]:
    """Point i of the ``dims``-dimensional R-sequence (Roberts' generalised
    golden ratio): consecutive points cover [0, 1)^dims evenly."""
    g = 2.0
    for _ in range(64):  # g is the root of g^(dims+1) = g + 1
        g = (1.0 + g) ** (1.0 / (dims + 1))
    return tuple((0.5 + i / g ** (k + 1)) % 1.0 for k in range(dims))


def sampled_instance(rng: np.random.Generator, n: int, point=None):
    """Values, weights and budget drawn like the CLI's sampled family:
    values U(0.1, 1) sorted, unit-block, tied or smooth weights, budget
    U(0.05, 2) and infinite about one time in ten.

    ``point``, four numbers in [0, 1), stands in for the CLI's uniform
    draws of the weights' shape, the number of unit slots, the budget and
    whether it is infinite; each maps to its draw as the CLI maps it.
    The values and smooth weights always come from ``rng``."""
    values = np.sort(rng.uniform(0.1, 1.0, n))[::-1]
    shape = rng.random() if point is None else point[0]
    if shape < 0.3:
        k = int(rng.integers(1, n + 1)) if point is None else 1 + int(point[1] * n)
        weights = [1.0] * k + [0.0] * (n - k)
    else:
        drawn = np.sort(rng.random(n))[::-1]
        if shape < 0.5:
            drawn = np.round(drawn, 1)
        weights = [float(w) for w in drawn]
    budget = float(rng.uniform(0.05, 2.0)) if point is None else 0.05 + 1.95 * point[2]
    if (rng.random() if point is None else point[3]) < 0.1:
        budget = INF
    return [float(v) for v in values], weights, budget


def top_min_payment(values, weights) -> float:
    """Minimum envy-free payment of the top agent when everyone keeps her
    position weight (sorted values and weights).  The welfare budget binds
    when the budget is below it."""
    p = 0.0
    for i in range(len(values) - 1, 0, -1):
        p += (weights[i - 1] - weights[i]) * values[i]
    return p


def welfare(inst, outcome) -> float:
    return sum(v * x for v, x in zip(inst.values, outcome.alloc))


def input_report(ops) -> dict:
    """Share of ops per size class, and share of instances whose welfare
    budget binds."""
    sizes = Counter(op.size for op in ops)
    total = max(1, len(ops))
    binding = [op.props["welfare_binding"] for op in ops
               if "welfare_binding" in op.props]
    return {
        "size_share": {f"n{n}": c / total for n, c in sorted(sizes.items())},
        "welfare_binding_share": sum(binding) / max(1, len(binding)),
    }


# ----------------------------------------------------------------------
# efo-sweep: the envy-free benchmarks at n = 8, 100, 1000
# ----------------------------------------------------------------------

SWEEP_SIZES = (8, 100, 1000)


def _sweep_op(seed: int, t: int) -> Op:
    """Trial t of the sweep.  Each round sends every size class once in
    each of two strata.  In the binding stratum the budget is u * P, below
    the top agent's minimum payment P, so the welfare budget binds; in the
    slack stratum a drawn budget below P is raised to P / u, so it does
    not.

    A bound call's cost depends steeply on u, the weights' shape and the
    number of unit slots: at n = 1000 most take 0.3 to 0.5 s, and unit
    weights with nearly every slot filled and u near 0.75 over 3 s.  So
    round r takes these draws, and the budget's, from point r of a fixed
    low-discrepancy schedule, u ~ U(0.05, 0.95) included; the seed draws
    the values and the smooth weights.  Every run then sends the same
    spread of costs, whatever its seed."""
    rng = profit.trial_rng(seed, t)
    r, j = divmod(t, 2 * len(SWEEP_SIZES))
    point = schedule_point(r, 5)
    u = 0.05 + 0.9 * point[4]
    n = SWEEP_SIZES[j % len(SWEEP_SIZES)]
    values, weights, budget = sampled_instance(rng, n, point[:4])
    top = top_min_payment(values, weights)
    if j >= len(SWEEP_SIZES) and top > 0.0:
        budget = u * top
    elif budget < top:
        budget = top / u
    inst = core.normalize(values, weights, budget)
    props = {"welfare_binding": budget < top}

    def run(call):
        return (call("envyfree.efo_welfare", n, envyfree.efo_welfare, inst),
                call("envyfree.efo_revenue", n, envyfree.efo_revenue, inst),
                call("clinching.closed_form", n, clinching.closed_form, inst)[0])

    def check(out):
        w, rev, closed = out
        v, ws, b = inst.values, inst.weights, inst.budget
        props["welfare_multiplier_positive"] = w.multiplier > 0.0
        props["revenue_multiplier_positive"] = rev.multiplier > 0.0
        auction = welfare(inst, closed)
        props["welfare_ratio"] = w.objective / auction if auction > 0.0 else INF
        clock, _ = clinching.run_clock(inst)
        return (referee.lp_agreement("efo_welfare", w.objective,
                                     referee.lp_welfare(v, ws, b))
                + referee.lp_agreement("efo_revenue", rev.objective,
                                       referee.lp_revenue(v, ws, b))
                + referee.benchmark_problems("efo_welfare", v, ws, b, w, "welfare")
                + referee.benchmark_problems("efo_revenue", v, ws, b, rev, "revenue")
                + referee.exact_route_problems(v, closed, clock)
                + referee.welfare_gap_problems(w.objective, auction))

    return Op("efo", n, run, check, props, inst)


def _sweep_round(state, seed: int, r: int) -> list[Op]:
    per = 2 * len(SWEEP_SIZES)
    return [_sweep_op(seed, r * per + j) for j in range(per)]


def _sweep_summary(state, ops) -> dict:
    report = input_report(ops)
    total = max(1, len(ops))
    report["revenue_binding_share"] = sum(
        op.props.get("revenue_multiplier_positive", False) for op in ops) / total
    ratios = [op.props["welfare_ratio"] for op in ops if "welfare_ratio" in op.props]
    report["max_welfare_ratio"] = max(ratios, default=0.0)
    return {"inputs": report}


# ----------------------------------------------------------------------
# sampling-revenue: the sampling profit extractors on the c08 family
# ----------------------------------------------------------------------

# Three n = 8 blocks per n = 32 block; each block interleaves c08's
# 10 : 4 : 1 mix of bspe_budget, combined_mechanism and bspe_nobudget.
SAMPLING_BLOCKS = (8, 8, 8, 32)
BLOCK = "bbcbbcbbcbbcbbn"
MECHANISMS = {
    "b": ("profit.bspe_budget", profit.bspe_budget, 0.25),
    "c": ("profit.combined_mechanism", profit.combined_mechanism, 0.211),
    "n": ("profit.bspe_nobudget", profit.bspe_nobudget, 0.268),
}
C08_BUDGET = 0.8
# Instances per size.  The cost of a call depends on the instance, so a
# run that drew one instance per size would be as fast or as slow as that
# draw; blocks cycle through a pool of them instead.
SAMPLING_POOL = 8
WALK_N, WALK_Q, WALKS_PER_OP = 200, 0.25, 200


def c08_instance(seed, n: int, budget: float):
    """The bspe-revenue family: values U(1, 2) sorted, n // 2 unit slots,
    drawn from ``default_rng(seed)`` as the CLI experiment draws them."""
    rng = np.random.default_rng(seed)
    values = [float(v) for v in np.sort(rng.uniform(1.0, 2.0, n))[::-1]]
    k = max(1, n // 2)
    return core.normalize(values, [1.0] * k + [0.0] * (n - k), budget)


def _sampling_setup(seed: int) -> dict:
    """Instance m of each size: instance 0 is the CLI's draw for the seed,
    instance m > 0 the draw for the seed sequence [seed, m]."""
    state = {}
    for n in set(SAMPLING_BLOCKS):
        for m in range(SAMPLING_POOL):
            entropy = seed if m == 0 else [seed, m]
            state[n, m] = c08_instance(entropy, n, C08_BUDGET)
            state[n, m, INF] = c08_instance(entropy, n, INF)
    return state


def _mechanism_op(state, seed: int, t: int, n: int, m: int, code: str) -> Op:
    name, fn, q = MECHANISMS[code]
    inst = state[n, m, INF] if code == "n" else state[n, m]
    props = {"welfare_binding": inst.budget < top_min_payment(inst.values,
                                                              inst.weights),
             "instance": m}

    def run(call):
        # trial t's coin flips come from trial_rng(seed, t), as in c08
        return call(name, n, fn, inst, q, profit.trial_rng(seed, t))

    def check(out):
        props["revenue"] = sum(out.pay)
        return referee.outcome_problems(name, inst.values, inst.weights,
                                        inst.budget, out.alloc, out.pay)

    return Op(name, n, run, check, props, inst)


def _walk_op(seed: int, t: int) -> Op:
    walk_seed = (seed << 32) + t
    props = {}

    def run(call):
        return call("profit.walk_trials", WALK_N, profit.walk_trials,
                    WALK_N, WALK_Q, WALKS_PER_OP, walk_seed)

    def check(out):
        ks, pointwise, top = out
        props.update(walks=len(ks), fails=int(pointwise.sum()),
                     top=int(top.sum()), top_fails=int(pointwise[top].sum()),
                     top_index_sum=int(ks[top].sum()))
        return referee.walk_problems(profit.one_ahead_index, WALK_N, WALK_Q,
                                     walk_seed, profit.trial_rng, *out)

    return Op("profit.walk_trials", WALK_N, run, check, props)


def _sampling_round(state, seed: int, r: int) -> list[Op]:
    per = len(SAMPLING_BLOCKS) * len(BLOCK) + 1
    t = r * per
    ops = []
    for b, n in enumerate(SAMPLING_BLOCKS):
        m = (r * SAMPLING_BLOCKS.count(n) + SAMPLING_BLOCKS[:b].count(n)) % SAMPLING_POOL
        for code in BLOCK:
            ops.append(_mechanism_op(state, seed, t, n, m, code))
            t += 1
    ops.append(_walk_op(seed, t))
    return ops


def _three_sigma(revenues, guarantee) -> dict:
    xs = np.asarray(revenues, dtype=float)
    mean = float(xs.mean()) if xs.size else 0.0
    se = float(xs.std(ddof=1) / math.sqrt(xs.size)) if xs.size > 1 else 0.0
    return {"trials": int(xs.size), "mean_revenue": mean, "se": se,
            "guarantee": guarantee, "holds_3sigma": mean >= guarantee - 3.0 * se}


def _sampling_summary(state, ops) -> dict:
    """Monte Carlo guarantees of c07 and c08, reported but not gated: over
    many runs a 3-sigma check fails now and then by chance."""
    bounds = {}  # (code, n, m) -> the mechanism's guarantee on instance m
    for n in sorted(set(SAMPLING_BLOCKS)):
        for m in range(SAMPLING_POOL):
            inst, twin = state[n, m], state[n, m, INF]
            dropped = core.normalize(inst.values[1:], inst.weights[:n - 1], inst.budget)
            single = core.normalize((inst.values[1],), (inst.weights[0],), inst.budget)
            q = MECHANISMS["b"][2]
            bounds["b", n, m] = ((1.0 - q) * q * envyfree.efo_revenue(dropped).objective
                                 - q * (1.0 - q) / (1.0 - 2.0 * q) ** 2
                                 * envyfree.efo_revenue(single).objective)
            bounds["c", n, m] = (envyfree.efo2_revenue(inst)
                                 / profit.combined_factor(MECHANISMS["c"][2]))
            bounds["n", n, m] = (profit.nobudget_factor(MECHANISMS["n"][2])
                                 * envyfree.efo2_revenue(twin))
    guarantees = {}
    for n in sorted(set(SAMPLING_BLOCKS)):
        for code, (name, _, _) in MECHANISMS.items():
            trials = [op.props for op in ops
                      if op.kind == name and op.size == n and "revenue" in op.props]
            # each trial's expected revenue is at least its instance's bound,
            # so the trials' mean revenue is at least their bounds' mean
            bound = (sum(bounds[code, n, t["instance"]] for t in trials) / len(trials)
                     if trials else 0.0)
            guarantees[f"{name}.n{n}"] = _three_sigma([t["revenue"] for t in trials],
                                                      bound)
    walks = [op.props for op in ops if "walks" in op.props]
    total = sum(p["walks"] for p in walks)
    top = sum(p["top"] for p in walks)
    if total and top:
        r, r2, mean_limit = profit.walk_closed_forms(WALK_Q)
        guarantees["profit.walk_trials"] = {
            "walks": total,
            "fail_rate": sum(p["fails"] for p in walks) / total, "fail_limit": r,
            "top_fail_rate": sum(p["top_fails"] for p in walks) / top,
            "top_fail_limit": r2,
            "mean_index": sum(p["top_index_sum"] for p in walks) / top,
            "mean_index_limit": mean_limit,
        }
    return {"inputs": input_report(ops), "guarantees_not_gated": guarantees}


# ----------------------------------------------------------------------
# auction-referee: the clinching auction and its referees
# ----------------------------------------------------------------------

# n = 100 twice per round: the median op then falls inside the n = 100
# class, not on the edge between two classes, where it would jump.
REFEREE_SIZES = (8, 16, 100, 100, 1000)
TICK_STEP = 1e-4  # the CLI's default --step
LP_MAX_N = 16


def _referee_op(seed: int, t: int) -> Op:
    """Trial t: a sampled instance whose shape, unit slots and budget come
    from its size class's next point of a fixed low-discrepancy schedule,
    as in efo-sweep, so that every run sends the same spread of costs."""
    rng = profit.trial_rng(seed, t)
    r, j = divmod(t, len(REFEREE_SIZES))
    n = REFEREE_SIZES[j]
    i = r * REFEREE_SIZES.count(n) + REFEREE_SIZES[:j].count(n)
    values, weights, budget = sampled_instance(rng, n, schedule_point(i, 4))
    inst = core.normalize(values, weights, budget)
    props = {"welfare_binding": budget < top_min_payment(values, weights)}

    def run(call):
        closed, _ = call("clinching.closed_form", n, clinching.closed_form, inst)
        clock, trace = call("clinching.run_clock", n, clinching.run_clock, inst)
        flags = call("clinching.structure_check", n, clinching.structure_check,
                     inst, closed)
        ticked = call("oracle.simulate_clock", n, oracle.simulate_clock, inst,
                      TICK_STEP)
        lp = (call("oracle.lp_efo_welfare", n, oracle.lp_efo_welfare, inst)
              if n <= LP_MAX_N else None)
        return closed, clock, trace, flags, ticked, lp

    def check(out):
        closed, clock, trace, flags, ticked, lp = out
        v, ws, b = inst.values, inst.weights, inst.budget
        props["events"] = len(trace.events)
        props["flagged"] = bool(flags)
        problems = (referee.outcome_problems("closed_form", v, ws, b,
                                             closed.alloc, closed.pay)
                    + referee.exact_route_problems(v, closed, clock)
                    + referee.tick_problems(v, ws, b, TICK_STEP, ticked, closed)
                    + referee.tick_problems(v, ws, b, TICK_STEP, ticked, clock))
        if lp is not None:
            # the characterization is computed here, outside the timed calls
            problems += referee.lp_agreement("lp_efo_welfare", lp,
                                             referee.lp_welfare(v, ws, b))
            problems += referee.lp_agreement("efo_welfare",
                                             envyfree.efo_welfare(inst).objective,
                                             lp)
        return problems

    return Op("clinching", n, run, check, props, inst)


def _referee_round(state, seed: int, r: int) -> list[Op]:
    per = len(REFEREE_SIZES)
    return [_referee_op(seed, r * per + j) for j in range(per)]


def _referee_summary(state, ops) -> dict:
    report = input_report(ops)
    report["structure_check_flag_share"] = (
        sum(op.props.get("flagged", False) for op in ops) / max(1, len(ops)))
    return {"inputs": report}


WORKLOADS = {
    w.name: w for w in (
        Workload("efo-sweep", lambda seed: None, _sweep_round, _sweep_summary),
        Workload("sampling-revenue", _sampling_setup, _sampling_round,
                 _sampling_summary),
        Workload("auction-referee", lambda seed: None, _referee_round,
                 _referee_summary),
    )
}
