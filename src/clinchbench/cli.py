"""Command line driver: instance generators, mechanism runs with optional
oracle cross-checks, and seeded Monte Carlo experiments emitting CSV.

Every experiment row carries the master seed and its trial index, and
trial t draws from the stream ``trial_rng(seed, t)``, so any row can be
reproduced in isolation and repeated invocations are byte-identical.
A failed guarantee check exits with status 1; usage and configuration
errors exit with status 2.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import clinching, envyfree, oracle, profit
from .core import (
    BudgetedInstance,
    InstanceError,
    normalize,
    outcome_revenue,
    outcome_welfare,
    parse_instance,
    serialize_instance,
    serialize_outcome,
)

MECHANISMS = (
    "clinching",
    "efo-welfare",
    "efo-revenue",
    "bspe",
    "bspe-nobudget",
    "pseudo-vickrey",
    "combined",
)

EXPERIMENTS = (
    "welfare-approx",
    "bspe-revenue",
    "dominance-walk",
    "tight-ratio",
    "oracle-agreement",
)

# Slack on the factor-2 welfare guarantee.
WELFARE_GAP_TOL = 1e-6
# How closely the tight-family gap must track its closed formula.
TIGHT_FORMULA_TOL = 1e-5
# Relative agreement demanded between the benchmark and its LP twin.
LP_AGREEMENT_TOL = 1e-6


# ----------------------------------------------------------------------
# Instance generators
# ----------------------------------------------------------------------


def tight_instance(N: int, eps: float = 1e-6) -> BudgetedInstance:
    """Single-item family driving the welfare gap toward its limit of 2.

    One agent of value N^3, N - 1 agents of value N and one of N - eps
    compete for one unit under a common budget of 1.
    """
    if N < 2:
        raise ValueError("tight family needs N >= 2")
    if not 0.0 <= eps < float(N):
        raise ValueError("eps must lie in [0, N)")
    values = [float(N) ** 3] + [float(N)] * (N - 1) + [float(N) - eps]
    weights = [1.0] + [0.0] * N
    return normalize(values, weights, 1.0)


def tight_ratio_formula(N: int) -> float:
    """Welfare gap of the tight family at eps = 0."""
    return (2.0 * N * N - N) / (N * N + N - 1.0)


def sampled_instance(rng: np.random.Generator, n: int,
                     dist: str = "uniform") -> BudgetedInstance:
    """Random n-agent instance mixing unit-supply, tied and smooth position
    weights; roughly one budget in ten is infinite."""
    if n <= 0:
        return normalize((), (), 1.0)
    if dist == "exponential":
        values = np.sort(rng.exponential(1.0, n))[::-1] + 0.05
    else:
        values = np.sort(rng.uniform(0.1, 1.0, n))[::-1]
    shape = rng.random()
    if shape < 0.3:
        k = int(rng.integers(1, n + 1))
        weights = [1.0] * k + [0.0] * (n - k)
    else:
        drawn = np.sort(rng.random(n))[::-1]
        if shape < 0.5:
            drawn = np.round(drawn, 1)
        weights = [float(w) for w in drawn]
    budget = float(rng.uniform(0.05, 2.0))
    if rng.random() < 0.1:
        budget = math.inf
    return normalize([float(v) for v in values], weights, budget)


# ----------------------------------------------------------------------
# Output plumbing
# ----------------------------------------------------------------------


def _write_text(path: str | None, text: str) -> None:
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cell(x) -> str:
    # repr(float) round-trips and is stable across runs; numpy scalars
    # are coerced first so their own repr never leaks into the CSV.
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _write_csv(path: str | None, header, rows, summary) -> None:
    def render(f):
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(c) for c in row])
        w.writerow(["#summary"] + [f"{k}={_cell(v)}" for k, v in summary])

    if path:
        with open(path, "w", newline="") as f:
            render(f)
    else:
        render(sys.stdout)


def _mean_se(xs) -> tuple[float, float]:
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        return 0.0, 0.0
    mean = float(np.mean(xs))
    if xs.size < 2:
        return mean, 0.0
    return mean, float(np.std(xs, ddof=1) / math.sqrt(xs.size))


# ----------------------------------------------------------------------
# gen
# ----------------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.kind == "tight":
        if args.N is None:
            raise ValueError("tight family needs --N")
        inst = tight_instance(args.N, args.eps)
    else:
        rng = np.random.default_rng(args.seed)
        inst = sampled_instance(rng, args.n, args.kind)
    _write_text(args.out, serialize_instance(inst) + "\n")
    return 0


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------


def _load_instance(path: str) -> BudgetedInstance:
    if path == "-":
        return parse_instance(sys.stdin.read())
    with open(path) as f:
        return parse_instance(f.read())


def _event_doc(ev) -> dict:
    return {
        "price": ev.price,
        "active": ev.active_count,
        "clinch": ev.per_agent_clinch,
        "payment": ev.per_agent_payment,
        "kind": ev.kind,
    }


def _clock_doc(out, sim, step: float) -> dict:
    da = max((abs(a - b) for a, b in zip(out.alloc, sim.alloc)), default=0.0)
    dp = max((abs(a - b) for a, b in zip(out.pay, sim.pay)), default=0.0)
    return {
        "kind": "clock",
        "step": step,
        "max_alloc_delta": da,
        "max_pay_delta": dp,
    }


def cmd_run(args) -> int:
    inst = _load_instance(args.instance)
    mech = args.mechanism
    doc: dict = {"mechanism": mech}
    if mech == "clinching":
        out, structure = clinching.closed_form(inst)
        doc["structure"] = {
            "k": structure.k,
            "delta": structure.delta,
            "phase2_start": structure.phase2_start,
        }
        doc["check"] = clinching.structure_check(inst, out)
        if args.trace:
            _, tr = clinching.run_clock(inst)
            doc["trace"] = [_event_doc(ev) for ev in tr.events]
        if args.oracle:
            sim = oracle.simulate_clock(inst, args.step)
            doc["oracle"] = _clock_doc(out, sim, args.step)
    elif mech in ("efo-welfare", "efo-revenue"):
        bench = envyfree.efo_welfare if mech == "efo-welfare" else envyfree.efo_revenue
        res = bench(inst)
        out = res.outcome
        doc["objective"] = res.objective
        doc["multiplier"] = res.multiplier
        doc["mix"] = res.mix
        if args.oracle:
            twin = (oracle.lp_efo_welfare if mech == "efo-welfare"
                    else oracle.lp_efo_revenue)
            lp = twin(inst)
            doc["oracle"] = {"kind": "lp", "value": lp,
                             "delta": res.objective - lp}
    elif mech == "bspe":
        out = profit.bspe_budget(inst, args.q, args.seed)
    elif mech == "bspe-nobudget":
        record: dict = {}
        out = profit.bspe_nobudget(inst, args.q, args.seed, record=record)
        doc["events"] = record
    elif mech == "pseudo-vickrey":
        out = profit.pseudo_vickrey(inst)
        if args.oracle and inst.n:
            sim = oracle.simulate_clock(profit.top_slot_instance(inst), args.step)
            doc["oracle"] = _clock_doc(out, sim, args.step)
    else:
        out = profit.combined_mechanism(inst, args.q, args.seed)
    doc["outcome"] = json.loads(serialize_outcome(inst, out))
    _write_text(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


# ----------------------------------------------------------------------
# experiment
# ----------------------------------------------------------------------


def _exp_welfare(args) -> int:
    rows = []
    worst = 0.0
    ok = True
    for t in range(args.trials):
        rng = profit.trial_rng(args.seed, t)
        n = int(rng.integers(1, args.n + 1))
        inst = sampled_instance(rng, n)
        ef = envyfree.efo_welfare(inst).objective
        out, _ = clinching.closed_form(inst)
        cl = outcome_welfare(inst, out)
        if cl > 0.0:
            ratio = ef / cl
        else:
            ratio = 1.0 if ef <= WELFARE_GAP_TOL else math.inf
        if ef > 2.0 * cl + WELFARE_GAP_TOL:
            ok = False
        worst = max(worst, ratio)
        rows.append((t, args.seed, n, inst.budget, ef, cl, ratio))
    mean, se = _mean_se([r[-1] for r in rows])
    header = ["trial", "seed", "n", "budget",
              "efo_welfare", "clinch_welfare", "ratio"]
    summary = [("trials", args.trials), ("mean_ratio", mean),
               ("se_ratio", se), ("max_ratio", worst),
               ("bound", 2.0), ("ok", ok)]
    _write_csv(args.out, header, rows, summary)
    return 0 if ok else 1


def _exp_bspe(args) -> int:
    # One fixed instance, randomness only in the sampling coin flips: the
    # guarantee being checked is an expectation over splits.
    rng = np.random.default_rng(args.seed)
    n = args.n
    values = [float(v) for v in np.sort(rng.uniform(1.0, 2.0, n))[::-1]]
    k = max(1, n // 2)
    weights = [1.0] * k + [0.0] * (n - k)
    inst = normalize(values, weights, 0.8)
    q = args.q
    rhs = profit.bspe_guarantee(inst, q)
    revs = np.empty(args.trials)
    rows = []
    for t in range(args.trials):
        out = profit.bspe_budget(inst, q, profit.trial_rng(args.seed, t))
        revs[t] = outcome_revenue(out)
        rows.append((t, args.seed, q, float(revs[t])))
    mean, se = _mean_se(revs)
    ok = mean >= rhs - 3.0 * se
    header = ["trial", "seed", "q", "revenue"]
    summary = [("trials", args.trials), ("n", n), ("q", q),
               ("mean_revenue", mean), ("se", se),
               ("guarantee", rhs), ("ok", ok)]
    _write_csv(args.out, header, rows, summary)
    return 0 if ok else 1


def _exp_walk(args) -> int:
    ks, pw, top = profit.walk_trials(args.n, args.q, args.trials, args.seed)
    rows = [(t, args.seed, int(ks[t]), int(pw[t]), int(top[t]))
            for t in range(args.trials)]
    r, r2, mean_limit = profit.walk_closed_forms(args.q)
    p_all, se_all = _mean_se(pw)
    checks = [p_all <= r + 3.0 * se_all]
    p_top = se_top = mean_k = se_k = 0.0
    if int(np.count_nonzero(top)) >= 2:
        p_top, se_top = _mean_se(pw[top])
        mean_k, se_k = _mean_se(ks[top])
        checks.append(p_top <= r2 + 3.0 * se_top)
        checks.append(mean_k <= mean_limit + 3.0 * se_k)
    ok = all(checks)
    header = ["trial", "seed", "k", "pointwise_fail", "top_in_market"]
    summary = [("trials", args.trials), ("n", args.n), ("q", args.q),
               ("fail_rate", p_all), ("fail_se", se_all),
               ("fail_limit", r),
               ("top_fail_rate", p_top), ("top_fail_se", se_top),
               ("top_fail_limit", r2),
               ("mean_index", mean_k), ("mean_index_se", se_k),
               ("mean_index_limit", mean_limit), ("ok", ok)]
    _write_csv(args.out, header, rows, summary)
    return 0 if ok else 1


def _parse_span(text: str) -> tuple[int, int]:
    if ".." in text:
        a, b = text.split("..", 1)
    else:
        a = b = text
    try:
        lo, hi = int(a), int(b)
    except ValueError:
        raise ValueError(f"bad range {text!r}; expected e.g. 3..400") from None
    if lo < 2 or hi < lo:
        raise ValueError("range must satisfy 2 <= first <= last")
    return lo, hi


def _exp_tight(args) -> int:
    lo, hi = _parse_span(args.N)
    rows = []
    worst = 0.0
    last = 0.0
    for t, size in enumerate(range(lo, hi + 1)):
        inst = tight_instance(size)
        ef = envyfree.efo_welfare(inst).objective
        out, _ = clinching.closed_form(inst)
        cl = outcome_welfare(inst, out)
        ratio = ef / cl
        formula = tight_ratio_formula(size)
        delta = ratio - formula
        worst = max(worst, abs(delta))
        last = ratio
        rows.append((t, args.seed, size, ef, cl, ratio, formula, delta))
    ok = worst <= TIGHT_FORMULA_TOL
    header = ["trial", "seed", "N", "efo_welfare", "clinch_welfare",
              "ratio", "formula", "delta"]
    summary = [("count", len(rows)), ("max_abs_delta", worst),
               ("last_ratio", last), ("ok", ok)]
    _write_csv(args.out, header, rows, summary)
    return 0 if ok else 1


def _exp_oracle(args) -> int:
    cap = min(args.n, oracle.LP_AGENT_CAP)
    rows = []
    worst = 0.0
    for t in range(args.trials):
        rng = profit.trial_rng(args.seed, t)
        n = int(rng.integers(1, cap + 1))
        inst = sampled_instance(rng, n)
        ef = envyfree.efo_welfare(inst).objective
        lp = oracle.lp_efo_welfare(inst)
        delta = abs(ef - lp) / max(1.0, abs(lp))
        worst = max(worst, delta)
        rows.append((t, args.seed, n, ef, lp, delta))
    ok = worst <= LP_AGREEMENT_TOL
    header = ["trial", "seed", "n", "efo_welfare", "lp_welfare", "delta"]
    summary = [("trials", args.trials), ("max_delta", worst),
               ("tolerance", LP_AGREEMENT_TOL), ("ok", ok)]
    _write_csv(args.out, header, rows, summary)
    return 0 if ok else 1


def cmd_experiment(args) -> int:
    if args.kind != "tight-ratio" and args.trials < 1:
        raise ValueError("need at least one trial")
    runner = {
        "welfare-approx": _exp_welfare,
        "bspe-revenue": _exp_bspe,
        "dominance-walk": _exp_walk,
        "tight-ratio": _exp_tight,
        "oracle-agreement": _exp_oracle,
    }[args.kind]
    return runner(args)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clinchbench",
        description="Clinching auctions and envy-free benchmarks for "
                    "position environments with a common budget.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "gen", help="write an instance as JSON",
        description="Generate an instance.  'tight' builds the single-item "
                    "family whose welfare gap approaches 2; 'uniform' and "
                    "'exponential' draw seeded random instances.")
    gen.add_argument("kind", choices=("tight", "uniform", "exponential"))
    gen.add_argument("--N", type=int, default=None,
                     help="size of the tight family (N >= 2)")
    gen.add_argument("--eps", type=float, default=1e-6,
                     help="value perturbation of the last tight agent")
    gen.add_argument("--n", type=int, default=8,
                     help="number of agents for the random kinds")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None,
                     help="output path (default stdout)")
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser(
        "run", help="run one mechanism on an instance file",
        description="Run a mechanism and print the outcome as JSON.  Pass "
                    "'-' to read the instance from stdin.  --oracle adds a "
                    "cross-check block for the deterministic mechanisms: a "
                    "small LP for the envy-free benchmarks, a discretized "
                    "price clock for the clinching ones.")
    run.add_argument("mechanism", choices=MECHANISMS)
    run.add_argument("instance")
    run.add_argument("--q", type=float, default=0.25,
                     help="sampling coin for the randomized mechanisms")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trace", action="store_true",
                     help="include the price-clock event list")
    run.add_argument("--oracle", action="store_true",
                     help="include an independent cross-check")
    run.add_argument("--step", type=float, default=1e-4,
                     help="price increment of the clock cross-check")
    run.add_argument("--out", default=None)
    run.set_defaults(func=cmd_run)

    exp = sub.add_parser(
        "experiment", help="seeded Monte Carlo experiment, CSV output",
        description="Write one CSV row per trial plus a trailing '#summary' "
                    "row.  Exit status is 1 when the checked guarantee "
                    "fails beyond three standard errors, 0 otherwise.")
    exp.add_argument("kind", choices=EXPERIMENTS)
    exp.add_argument("--trials", type=int, default=1000)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--q", type=float, default=0.25)
    exp.add_argument("--n", type=int, default=8,
                     help="agent cap for random instances, walk length, or "
                          "population size of the bspe-revenue family")
    exp.add_argument("--N", default="3..40",
                     help="tight-ratio size range, e.g. 3..400")
    exp.add_argument("--out", default=None)
    exp.set_defaults(func=cmd_experiment)
    return parser


def entry(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entry())
