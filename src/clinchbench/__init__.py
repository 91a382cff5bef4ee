"""Budgeted clinching auctions for position environments, together with
the envy-free benchmarks they approximate and sampling-based profit
extraction built on top of them."""

from .clinching import (
    ClinchingStructure,
    ClinchingTrace,
    closed_form,
    run_clock,
    structure_check,
)
from .core import (
    BudgetedInstance,
    InstanceError,
    Outcome,
    PositionEnvironment,
    ValuationProfile,
    outcome_revenue,
    outcome_welfare,
    parse_instance,
    serialize_instance,
    serialize_outcome,
)
from .envyfree import (
    BenchmarkResult,
    IroningResult,
    efo2_revenue,
    efo_revenue,
    efo_welfare,
    iron,
    is_envy_free,
    max_payments,
    min_payments,
)
from .profit import (
    bspe_budget,
    bspe_nobudget,
    clinching_profit_extractor,
    combined_factor,
    combined_mechanism,
    nobudget_factor,
    one_ahead_index,
    per_profit_extractor,
    pseudo_vickrey,
    walk_closed_forms,
    walk_pmf,
    walk_trials,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkResult",
    "BudgetedInstance",
    "ClinchingStructure",
    "ClinchingTrace",
    "InstanceError",
    "IroningResult",
    "Outcome",
    "PositionEnvironment",
    "ValuationProfile",
    "bspe_budget",
    "bspe_nobudget",
    "clinching_profit_extractor",
    "closed_form",
    "combined_factor",
    "combined_mechanism",
    "efo2_revenue",
    "efo_revenue",
    "efo_welfare",
    "iron",
    "is_envy_free",
    "max_payments",
    "min_payments",
    "nobudget_factor",
    "one_ahead_index",
    "outcome_revenue",
    "outcome_welfare",
    "parse_instance",
    "per_profit_extractor",
    "pseudo_vickrey",
    "run_clock",
    "serialize_instance",
    "serialize_outcome",
    "structure_check",
    "walk_closed_forms",
    "walk_pmf",
    "walk_trials",
]
