import math

import numpy as np
import pytest

from clinchbench.core import (
    InstanceError,
    Outcome,
    PositionEnvironment,
    normalize,
    outcome_revenue,
)
from clinchbench.envyfree import efo_revenue
from clinchbench.oracle import padded_nobudget_reference
from clinchbench.profit import (
    SamplingSplit,
    WalkPmf,
    _tail_maximum,
    biased_sample,
    bspe_budget,
    bspe_nobudget,
    clinching_profit_extractor,
    combined_factor,
    combined_hat,
    combined_mechanism,
    group_sample,
    nobudget_factor,
    one_ahead_index,
    per_profit_extractor,
    pseudo_vickrey,
    trial_rng,
    walk_closed_forms,
    walk_pmf,
    walk_trials,
)

SINGLE_ITEM = PositionEnvironment((1.0, 0.0))


def _estimate_payments(estimate, env, budget):
    k = len(estimate)
    weights = (env.weights + (0.0,) * k)[:k]
    return efo_revenue(normalize(estimate, weights, budget)).outcome.pay


# ----------------------------------------------------------------------
# Dominance index and padding order
# ----------------------------------------------------------------------


def test_one_ahead_fixtures():
    assert one_ahead_index((5.0, 4.0, 3.0), (4.0, 2.0)) == 0
    assert one_ahead_index((5.0, 3.0, 1.0), (4.0, 2.0)) == 2
    assert one_ahead_index((5.0, 3.0), ()) == 0
    # short market against a long sample: zero-padding decides
    assert one_ahead_index((3.0,), (1.0, 1.0)) == 2


def test_split_validation():
    with pytest.raises(ValueError):
        SamplingSplit((0, 1), (1,), 0.25)
    with pytest.raises(ValueError):
        SamplingSplit((0, 3), (1,), 0.25)
    with pytest.raises(ValueError):
        SamplingSplit((0,), (1,), 0.6)


def test_biased_sample_reproducible_partition():
    a = biased_sample(40, 0.25, 99)
    b = biased_sample(40, 0.25, 99)
    assert a == b
    assert sorted(a.market + a.sample) == list(range(40))
    assert a.groups is None


def test_biased_sample_rate():
    rng = np.random.default_rng(1)
    drawn = sum(len(biased_sample(100, 0.25, rng).sample) for _ in range(200))
    assert drawn / 20_000 == pytest.approx(0.25, abs=0.02)


def test_group_sample_swap_keeps_best_in_market():
    for seed in range(60):
        split = group_sample(30, 0.3, seed)
        a, b, c = split.groups
        assert sorted(a + b + c) == list(range(30))
        assert split.market == tuple(sorted(a + c))
        assert split.sample == b
        if a or b:
            assert min(a + b) in split.market


# ----------------------------------------------------------------------
# Profit extraction
# ----------------------------------------------------------------------


def test_clinching_extractor_fixture():
    out = clinching_profit_extractor((3.0, 2.0), (4.0, 3.0), math.inf, SINGLE_ITEM)
    assert out.alloc == pytest.approx((1.0, 0.0))
    assert out.pay == pytest.approx((3.0, 0.0))


def test_extractors_ignore_zero_estimate():
    zero = Outcome((0.0, 0.0), (0.0, 0.0))
    assert clinching_profit_extractor((0.0, 0.0), (4.0, 3.0), math.inf, SINGLE_ITEM) == zero
    assert per_profit_extractor((0.0, 0.0), (4.0, 3.0), SINGLE_ITEM) == zero
    assert clinching_profit_extractor((3.0,), (), 1.0, SINGLE_ITEM) == Outcome((), ())


def test_rejection_extractor_fixture():
    out = per_profit_extractor((3.0, 2.0), (4.0, 3.0), SINGLE_ITEM)
    assert out.alloc == pytest.approx((1.0, 0.0))
    assert out.pay == pytest.approx((3.0, 0.0))


def test_rejection_extractor_rejects():
    out = per_profit_extractor((3.0, 2.0), (2.5, 1.0), SINGLE_ITEM)
    assert out == Outcome((0.0, 0.0), (0.0, 0.0))
    # an estimate longer than the bid list rejects through the zero padding
    out = per_profit_extractor((3.0, 2.0, 1.0), (4.0, 3.0), SINGLE_ITEM)
    assert out == Outcome((0.0, 0.0), (0.0, 0.0))


def _random_pair(rng):
    n = int(rng.integers(1, 6))
    k = int(rng.integers(1, 6))
    actual = tuple(np.sort(rng.uniform(0.2, 3.0, n))[::-1])
    estimate = tuple(np.sort(rng.uniform(0.2, 3.0, k))[::-1])
    m = int(rng.integers(1, n + k + 1))
    weights = tuple(
        np.sort(np.minimum(rng.uniform(0.0, 1.0, m), 1.0))[::-1]
    )
    return estimate, actual, PositionEnvironment(weights)


def test_clinching_extractor_payment_floor():
    """Market agents past the dominance index each pay at least the matching
    envy-free optimal payment of the estimate, so a dominating market pays
    at least the estimate's whole optimum."""
    rng = np.random.default_rng(41)
    for _ in range(80):
        estimate, actual, env = _random_pair(rng)
        budget = float(rng.uniform(0.2, 3.0)) if rng.random() < 0.7 else math.inf
        d = one_ahead_index(actual, estimate)
        out = clinching_profit_extractor(estimate, actual, budget, env)
        ref = _estimate_payments(estimate, env, budget)
        for i in range(d, len(actual)):
            floor = ref[i] if i < len(ref) else 0.0
            assert out.pay[i] >= floor - 1e-8, (estimate, actual, env, budget, i)
        if d == 0:
            assert outcome_revenue(out) >= sum(ref) - 1e-8


def test_rejection_extractor_payment_floor():
    rng = np.random.default_rng(43)
    for _ in range(80):
        _, actual, env = _random_pair(rng)
        # dominated estimate: shrink each value, sorting keeps the dominance
        shrink = rng.uniform(0.3, 1.0, len(actual))
        estimate = tuple(np.sort(np.array(actual) * shrink)[::-1])
        out = per_profit_extractor(estimate, actual, env)
        ref = _estimate_payments(estimate, env, math.inf)
        for i, floor in enumerate(ref):
            assert out.pay[i] >= floor - 1e-8, (estimate, actual, env, i)


def test_rejection_extractor_self_estimate():
    rng = np.random.default_rng(47)
    for _ in range(40):
        _, actual, env = _random_pair(rng)
        out = per_profit_extractor(actual, actual, env)
        ref = efo_revenue(
            normalize(
                actual, (env.weights + (0.0,) * len(actual))[: len(actual)], math.inf
            )
        ).objective
        assert outcome_revenue(out) >= ref - 1e-8


def test_rejection_extractor_own_bid_monotone():
    rng = np.random.default_rng(53)
    for _ in range(50):
        estimate, actual, env = _random_pair(rng)
        i = int(rng.integers(0, len(actual)))
        lo = actual[i + 1] if i + 1 < len(actual) else 0.0
        hi = actual[i - 1] if i > 0 else actual[0] + 1.0
        if hi - lo < 1e-6:
            continue
        bumped = list(actual)
        bumped[i] = float(lo + (actual[i] - lo) * 0.5)
        low_out = per_profit_extractor(estimate, tuple(bumped), env)
        high = list(actual)
        high[i] = float(actual[i] + (hi - actual[i]) * 0.5)
        high_out = per_profit_extractor(estimate, tuple(high), env)
        assert high_out.alloc[i] >= low_out.alloc[i] - 1e-12


# ----------------------------------------------------------------------
# Sampling mechanisms
# ----------------------------------------------------------------------


def test_bspe_budget_shape_and_caps():
    inst = normalize((4.0, 3.0, 2.5, 2.0), (1.0, 0.7, 0.3, 0.0), 1.5)
    for seed in range(30):
        out = bspe_budget(inst, 0.3, seed)
        split = biased_sample(inst.n, 0.3, seed)
        for idx in split.sample:
            assert out.alloc[idx] == 0.0
            assert out.pay[idx] == 0.0
        assert max(out.pay) <= inst.budget + 1e-9
    assert bspe_budget(inst, 0.3, 7) == bspe_budget(inst, 0.3, 7)


def test_bspe_budget_single_agent_is_silent():
    inst = normalize((5.0,), (1.0,), 2.0)
    for seed in range(10):
        assert bspe_budget(inst, 0.3, seed) == Outcome((0.0,), (0.0,))


def test_bspe_nobudget_needs_positive_values():
    inst = normalize((3.0, 0.0), (1.0, 0.0), float("inf"))
    with pytest.raises(InstanceError):
        bspe_nobudget(inst, 0.3, 0)


def test_bspe_nobudget_clauses_fire():
    inst = normalize(
        (4.0, 3.0, 2.5, 2.0, 1.5), (1.0, 0.8, 0.5, 0.2, 0.0), float("inf")
    )
    seen = set()
    for seed in range(120):
        rec = {}
        out = bspe_nobudget(inst, 0.4, seed, record=rec)
        seen.update(k for k, v in rec.items() if v)
        if rec["fallback"]:
            assert out.alloc[0] == inst.weights[0]
            assert out.pay[0] == pytest.approx(inst.values[1] * inst.weights[0])
            assert out.alloc[1:] == (0.0,) * (inst.n - 1)
    assert seen == {"rejected", "fallback", "bump"}


PADDED = normalize((4.0, 3.0, 2.5, 2.0), (1.0, 0.7, 0.3, 0.0), float("inf"))


@pytest.fixture(scope="module")
def padded_pairs():
    """Per coin, seeds 0..999 of the exact tail against 512 written-out
    placeholders: (outcome, rejected) from each side.  Both sides label the
    reals with the same first n uniforms, so only the tail differs."""

    def levels(estimate):
        return efo_revenue(normalize(
            estimate, PADDED.weights[:len(estimate)], float("inf"))).outcome.alloc

    pairs = {}
    for q in (0.3, 0.4):
        rows = []
        for seed in range(1000):
            rec = {}
            exact = bspe_nobudget(PADDED, q, seed, record=rec)
            rows.append(((exact, rec["rejected"]),
                         padded_nobudget_reference(PADDED, q, seed, 512, levels)))
        pairs[q] = rows
    return pairs


def test_bspe_nobudget_matches_written_out_padding(padded_pairs):
    for q, rows in padded_pairs.items():
        agreed = 0
        for (exact, rejected), (ref, ref_rejected) in rows[:200]:
            if rejected == ref_rejected:
                agreed += 1
                assert exact.alloc == pytest.approx(ref.alloc, abs=1e-12)
                assert exact.pay == pytest.approx(ref.pay, abs=1e-12)
        assert agreed >= 100, q


def test_bspe_nobudget_rates_match_written_out_padding(padded_pairs):
    """Paired over seeds: the rejection rate and the mean revenue of the
    exact tail stay within 4 sigma of the written-out padding."""
    for q, rows in padded_pairs.items():
        for stat in (lambda side: float(side[1]),
                     lambda side: outcome_revenue(side[0])):
            diff = np.array([stat(exact) - stat(ref) for exact, ref in rows])
            sigma = diff.std(ddof=1) / math.sqrt(diff.size)
            assert abs(diff.mean()) <= 4.0 * sigma + 1e-12, q


def _written_out_tail_maxima(q, forced_down, walks, length, rng):
    u = rng.random((walks, length))
    group_b = (u >= q) & (u < 2.0 * q)
    if forced_down:
        # the swap hands the first member of A or B to A
        first = np.argmax(u < 2.0 * q, axis=1)
        swap = group_b[np.arange(walks), first]
        group_b[swap] = (u[swap] < q)
    walk = np.cumsum(np.where(group_b, 1, -1), axis=1)
    return np.maximum(walk.max(axis=1), 0)


def test_tail_maximum_law():
    """P(M >= m) = r^m, and r^m * 2qr / (1 - (1-2q) r) for m >= 1 when the
    first tail member of A or B is forced down; both against walks written
    out over 200 placeholders."""
    walks = 10_000
    for q in (0.268, 0.4):
        r = q / (1.0 - q)
        for forced_down in (False, True):
            rng = np.random.default_rng(7)
            drawn = np.array([_tail_maximum(q, forced_down, rng)
                              for _ in range(walks)])
            written = _written_out_tail_maxima(q, forced_down, walks, 200, rng)
            for m in range(4):
                law = r ** m
                if forced_down and m >= 1:
                    law *= 2.0 * q * r / (1.0 - (1.0 - 2.0 * q) * r)
                sigma = math.sqrt(law * (1.0 - law) / walks)
                for sample in (drawn, written):
                    assert abs(np.mean(sample >= m) - law) <= 4.0 * sigma, (q, m)


def test_bspe_nobudget_empty_instance():
    inst = normalize((), (), float("inf"))
    assert bspe_nobudget(inst, 0.3, 0) == Outcome((), ())


def test_pseudo_vickrey_fixtures():
    unlimited = normalize((5.0, 3.0), (1.0, 0.0), float("inf"))
    assert pseudo_vickrey(unlimited) == Outcome((1.0, 0.0), (3.0, 0.0))
    capped = normalize((5.0, 3.0), (1.0, 0.0), 2.0)
    out = pseudo_vickrey(capped)
    assert out.alloc == pytest.approx((13 / 18, 5 / 18))
    assert out.pay == pytest.approx((2.0, 2 / 3))
    shared = normalize((4.0, 3.0, 2.0), (1.0, 1.0, 0.0), 1.0)
    out = pseudo_vickrey(shared)
    assert out.alloc == pytest.approx((0.5, 0.5, 0.0))
    assert out.pay == pytest.approx((1.0, 1.0, 0.0))


def test_pseudo_vickrey_zero_top_weight():
    inst = normalize((5.0, 3.0), (0.0, 0.0), 2.0)
    assert pseudo_vickrey(inst) == Outcome((0.0, 0.0), (0.0, 0.0))


def test_combined_mechanism_contract():
    """The mix draws one coin from the seeded stream and hands the same
    stream to the sampling branch, so both branches replay exactly."""
    inst = normalize((4.0, 3.0, 2.5, 2.0, 1.5), (1.0, 0.8, 0.5, 0.2, 0.0), 1.2)
    q = 0.211
    hat = combined_hat(q)
    for seed in range(40):
        out = combined_mechanism(inst, q, seed)
        rng = np.random.default_rng(seed)
        if rng.random() < hat / (1.0 + hat):
            expected = pseudo_vickrey(inst)
        else:
            expected = bspe_budget(inst, q, rng)
        assert out == expected


# ----------------------------------------------------------------------
# Constants
# ----------------------------------------------------------------------


def test_factor_fixtures():
    assert combined_factor(0.211) == pytest.approx(10.000022796157332, rel=1e-12)
    assert combined_hat(0.211) == pytest.approx(0.6647937950814763, rel=1e-12)
    assert nobudget_factor(0.268) == pytest.approx(0.13395598554749322, rel=1e-12)
    assert 1.0 / nobudget_factor(0.268) == pytest.approx(7.47, abs=0.005)


def test_factor_identity():
    for q in (0.05, 0.211, 0.3, 0.45):
        hat = combined_hat(q)
        assert combined_factor(q) == pytest.approx(
            (1.0 + hat) / ((1.0 - q) * q), rel=1e-12
        )


@pytest.mark.parametrize("q", [0.0, 0.5, -0.1, 0.7])
def test_coin_domain(q):
    inst = normalize((2.0, 1.0), (1.0, 0.0), 1.0)
    for call in (
        lambda: combined_factor(q),
        lambda: combined_hat(q),
        lambda: nobudget_factor(q),
        lambda: walk_closed_forms(q),
        lambda: walk_pmf(q),
        lambda: biased_sample(4, q, 0),
        lambda: bspe_budget(inst, q, 0),
        lambda: walk_trials(4, q, 1, 0),
    ):
        with pytest.raises(ValueError):
            call()


# ----------------------------------------------------------------------
# Walk law
# ----------------------------------------------------------------------


def test_walk_pmf_quarter_coin():
    law = walk_pmf(0.25)
    assert law.pmf[0] == pytest.approx(0.125, rel=1e-12)
    assert law.tail_bound < 1e-60
    r, _, mean = walk_closed_forms(0.25)
    assert law.total() == pytest.approx(r, abs=1e-12)
    assert law.index_mean() == pytest.approx(mean, abs=1e-12)


def test_walk_pmf_matches_binomial_formula():
    for q in (0.1, 0.25, 0.4):
        law = walk_pmf(q, i_max=8)
        z = q * (1.0 - q)
        for i, p in enumerate(law.pmf, start=1):
            direct = math.comb(2 * i, i) * z**i * (1.0 - 2.0 * q) / (2.0 * (1.0 - q))
            assert p == pytest.approx(direct, rel=1e-12)


def test_walk_pmf_needs_terms():
    with pytest.raises(ValueError):
        walk_pmf(0.25, i_max=0)


def test_walk_closed_forms_quarter_coin():
    r, r2, mean = walk_closed_forms(0.25)
    assert r == pytest.approx(1 / 3)
    assert r2 == pytest.approx(1 / 9)
    assert mean == pytest.approx(1.0)


def _pointwise_dominates(market, sample):
    length = max(len(market), len(sample))
    m = list(market) + [0.0] * (length - len(market))
    s = list(sample) + [0.0] * (length - len(sample))
    return all(a >= b for a, b in zip(m, s))


def test_walk_trials_agree_with_direct_scan():
    """Each trial's walk statistics must equal the definition applied to a
    materialized strictly decreasing value list under the same coin draws."""
    n, q, seed = 60, 0.3, 1234
    ks, pw, top = walk_trials(n, q, 200, seed)
    values = [float(n - i) for i in range(n)]
    for t in range(200):
        drawn = trial_rng(seed, t).random(n) < q
        sample = [values[i] for i in range(n) if drawn[i]]
        market = [values[i] for i in range(n) if not drawn[i]]
        assert ks[t] == one_ahead_index(market, sample)
        assert pw[t] == (not _pointwise_dominates(market, sample))
        assert top[t] == (not drawn[0])


def test_walk_trials_needs_agents():
    with pytest.raises(ValueError):
        walk_trials(0, 0.25, 1, 0)


def test_trial_rng_streams():
    assert np.array_equal(trial_rng(5, 3).random(4), trial_rng(5, 3).random(4))
    assert not np.array_equal(trial_rng(5, 3).random(4), trial_rng(5, 4).random(4))
    assert not np.array_equal(
        trial_rng(5, 0).random(4), np.random.default_rng(5).random(4)
    )
