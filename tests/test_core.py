import json
import math

import pytest
from hypothesis import given, strategies as st

from clinchbench.core import (
    InstanceError,
    Outcome,
    PositionEnvironment,
    ValuationProfile,
    feasible,
    normalize,
    outcome_revenue,
    outcome_welfare,
    parse_instance,
    serialize_instance,
    serialize_outcome,
    zero_outcome,
)

TOL = 1e-9


class TestPositionEnvironment:
    def test_rejects_negative_weight(self):
        with pytest.raises(InstanceError):
            PositionEnvironment((0.5, -0.1))

    def test_rejects_weight_above_one(self):
        with pytest.raises(InstanceError):
            PositionEnvironment((1.2,))

    def test_rejects_increasing_weights(self):
        with pytest.raises(InstanceError):
            PositionEnvironment((0.3, 0.7))

    def test_cumulative_supply_is_concave(self):
        env = PositionEnvironment((1.0, 0.6, 0.6, 0.1))
        supply = env.cumulative_supply()
        assert supply == pytest.approx((1.0, 1.6, 2.2, 2.3))
        gaps = [b - a for a, b in zip((0.0,) + supply, supply)]
        assert all(g1 >= g2 - TOL for g1, g2 in zip(gaps, gaps[1:]))


class TestValuationProfile:
    def test_rejects_negative_value(self):
        with pytest.raises(InstanceError):
            ValuationProfile((3.0, -1.0), 1.0)

    def test_rejects_increasing_values(self):
        with pytest.raises(InstanceError):
            ValuationProfile((1.0, 2.0), 1.0)

    def test_rejects_nan(self):
        with pytest.raises(InstanceError):
            ValuationProfile((float("nan"),), 1.0)

    def test_rejects_negative_budget(self):
        with pytest.raises(InstanceError):
            ValuationProfile((1.0,), -0.5)

    def test_accepts_zero_and_infinite_budget(self):
        assert ValuationProfile((1.0,), 0.0).budget == 0.0
        assert math.isinf(ValuationProfile((1.0,), float("inf")).budget)


def test_outcome_rejects_length_mismatch():
    with pytest.raises(InstanceError):
        Outcome((0.5,), (0.1, 0.2))


def test_zero_outcome():
    out = zero_outcome(3)
    assert out.alloc == (0.0, 0.0, 0.0)
    assert out.pay == (0.0, 0.0, 0.0)


class TestNormalize:
    def test_sorts_values_and_keeps_order_map(self):
        inst = normalize((2.0, 5.0, 3.0), (1.0, 0.5, 0.2), 1.0)
        assert inst.values == (5.0, 3.0, 2.0)
        assert inst.order == (1, 2, 0)

    def test_ties_break_by_original_index(self):
        inst = normalize((2.0, 2.0, 3.0), (1.0,), 1.0)
        assert inst.order == (2, 0, 1)

    def test_pads_short_weights(self):
        inst = normalize((3.0, 2.0, 1.0), (0.8,), 1.0)
        assert inst.weights == (0.8, 0.0, 0.0)

    def test_sorts_weights(self):
        inst = normalize((3.0, 2.0), (0.2, 0.9), 1.0)
        assert inst.weights == (0.9, 0.2)

    def test_rejects_excess_weights(self):
        with pytest.raises(InstanceError):
            normalize((3.0,), (0.5, 0.5), 1.0)


class TestFeasible:
    def test_weights_are_feasible(self):
        env = PositionEnvironment((1.0, 0.4, 0.2))
        assert feasible(env, env.weights)

    def test_average_prefix_is_feasible(self):
        env = PositionEnvironment((1.0, 0.4, 0.2))
        assert feasible(env, (0.7, 0.7, 0.2))

    def test_rejects_oversupply(self):
        env = PositionEnvironment((1.0, 0.4))
        assert not feasible(env, (1.0, 0.5))

    def test_rejects_increasing_allocation(self):
        env = PositionEnvironment((1.0, 1.0))
        assert not feasible(env, (0.2, 0.6))

    def test_rejects_negative_entry(self):
        env = PositionEnvironment((1.0,))
        assert not feasible(env, (-0.2,))


def test_outcome_statistics(worked):
    out = Outcome((0.5, 0.5, 0.0), (1.0, 0.75, 0.0))
    assert outcome_welfare(worked, out) == pytest.approx(3.5)
    assert outcome_revenue(out) == pytest.approx(1.75)


class TestSerialization:
    def test_round_trip(self):
        inst = normalize((3.0, 2.0, 1.5), (1.0, 0.3), 0.7)
        back = parse_instance(serialize_instance(inst))
        assert back.values == inst.values
        assert back.weights == inst.weights
        assert back.budget == inst.budget

    def test_infinite_budget_round_trip(self):
        inst = normalize((2.0,), (1.0,), float("inf"))
        text = serialize_instance(inst)
        assert '"inf"' in text
        assert math.isinf(parse_instance(text).budget)

    def test_parse_rejects_malformed(self):
        with pytest.raises(InstanceError):
            parse_instance("{not json")
        with pytest.raises(InstanceError):
            parse_instance(json.dumps([1, 2]))
        with pytest.raises(InstanceError):
            parse_instance(json.dumps({"values": [1], "weights": [1]}))
        with pytest.raises(InstanceError):
            parse_instance(json.dumps(
                {"values": [1], "weights": [1], "budget": "lots"}))

    def test_outcome_reported_in_caller_order(self):
        inst = normalize((2.0, 5.0), (1.0, 0.0), 1.0)
        doc = json.loads(serialize_outcome(inst, Outcome((0.9, 0.1), (1.0, 0.2))))
        # sorted rank 0 is the original agent 1
        assert doc["alloc"] == [0.1, 0.9]
        assert doc["pay"] == [0.2, 1.0]
        assert doc["welfare"] == pytest.approx(2.0 * 0.1 + 5.0 * 0.9)

    def test_outcome_size_checked(self):
        inst = normalize((2.0, 1.0), (1.0,), 1.0)
        with pytest.raises(InstanceError):
            serialize_outcome(inst, Outcome((1.0,), (0.0,)))


@given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=10),
       st.floats(0.0, 5.0))
def test_normalize_always_sorted(values, budget):
    inst = normalize(values, [], budget)
    assert all(a >= b for a, b in zip(inst.values, inst.values[1:]))
    assert len(inst.order) == len(values)
    assert sorted(inst.order) == list(range(len(values)))


@given(st.integers(0, 8))
def test_zero_outcome_sizes(n):
    out = zero_outcome(n)
    assert len(out.alloc) == n and len(out.pay) == n
