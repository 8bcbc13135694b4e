"""menuforge: lottery-menu pricing for a single unit-demand buyer.

Compute revenue-optimal menus by linear programming on sampled
valuations, regularize them by rounding into lottery epsilon-covers, and
reproduce the standard constructions (item-pricing baselines, the
overfitting product family, equal-revenue lower bounds, hitting-set
reductions) at desk scale.
"""

from .core import (
    TIE_TOL,
    DimensionMismatchError,
    Menu,
    ValidationError,
    choose_batch,
    estimate_revenue,
    expected_revenue,
    from_tail_form,
    load_menu,
    revenue_batch,
    save_menu,
    to_tail_form,
)
from .covers import (
    CoverEnumeration,
    CoverSpec,
    enumerate_cover,
    paper_count_envelope,
    round_lottery,
)
from .distributions import (
    EqualRevenueSpreadParams,
    EqualRevenueSpreadSampler,
    ExplicitDistribution,
    ExplicitSampler,
    HittingSetInstance,
    IntersectionPropertyError,
    MonotoneUniformSampler,
    OverfitProductParams,
    OverfitProductSampler,
    Sampler,
    distribution_from_json,
    expected_max_value,
    explicit_from_samples,
    hitting_set_valuations,
    load_distribution,
    load_hitting_set,
    sparse_subsample,
    spread_sets_and_scales,
)
from .lp import (
    BudgetExceededError,
    LPError,
    LPSolution,
    MenuLP,
    brute_force_optimal,
    build_lp,
    extract_menu,
    solve_lp,
)
from .maxrev import KMenuProblem, brute_force_k_menu, greedy_k_item_menu, reduce_hitting_set
from .pipeline import (
    LowerBoundReport,
    OverfitReport,
    PipelineConfig,
    doubling_prices,
    item_pricing_baseline,
    item_pricing_from_samples,
    lower_bound_experiment,
    lower_bound_menu,
    naive_overfit_menu,
    overfit_experiment,
    sample_and_round,
    uniform_price_menu,
)
from .rounding import RoundingParams, guarantee_bound, round_menu, sample_size_for_cover

__version__ = "0.1.0"
