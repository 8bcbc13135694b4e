"""End-to-end pricing pipelines and the two headline desk-scale experiments.

The sample-and-round pipeline draws t valuations from a black box, solves
the menu LP on the empirical distribution, and pushes the optimal menu
through the level-rounding transform so that the output lives in a small
cover family.  On the overfitting family (m=64, delta=0.1, 200 sampled
types, seeds 0-4, 100k fresh draws from the stream [seed, 1]) the LP
menu, 51.0 entries on average, earns 1.090 per buyer on its sample and
0.981 on fresh draws, where the price-1 menu earns 0.999.  Rounded
through the multiplicative cover at H=2 it keeps all its entries and
earns 0.514 fresh at epsilon 0.1 and 0.881 at epsilon 0.01: the
rounding does not guard against memorizing this family, whose zero
values lie outside the cover's certified class [1, H]^m.

Baselines and experiments:

* item-pricing baseline: the best of the doubling uniform-price menus
  M^1, M^2, M^4, ..., guaranteed a 1/(2 ceil(log2 H)) fraction of the
  expected maximum item value of the buyers whose largest value is at
  least 1, H the support's own largest value;
* overfitting experiment: the product family on which the sample-optimal
  menu (items at 2 plus one support lottery per sampled type) earns its
  full sample surplus but collapses on fresh draws while the trivial
  price-1 menu keeps earning about 1;
* lower-bound experiment: the spread equal-revenue family, where a menu
  with one entry per support point (uniform lottery on the point's set at
  price 2^(z-1)) extracts about half the expected maximum value once the
  sets are pairwise sparse; in the paper's asymptotic regime that beats
  every small item-pricing menu.  Here it is measured only against the
  doubling baseline above.  At the CLI defaults (m=30, H=8, K=20) it
  loses: over seeds 0:200 it earns 0.64 to 1.00 times the doubling
  baseline, 0.85 on average, and 0.71 to 0.95 over seeds 0:5.  Past the
  flip, at m=90, H=64, K=128, seeds 0:5 give 1.36 to 1.60.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Menu, ValidationError, expected_revenue, revenue_batch, weighted_sum
from .distributions import (
    EqualRevenueSpreadParams,
    ExplicitDistribution,
    OverfitProductParams,
    OverfitProductSampler,
    Sampler,
    explicit_from_samples,
    row_maxima,
    sparse_subsample,
    spread_sets_and_scales,
)
from .lp import build_lp, extract_menu, solve_lp
from .rounding import CERTIFIED_TAGS, RoundingParams, round_menu

PIPELINE_MODES = ("naive", "sample_and_round")


@dataclass(frozen=True)
class PipelineConfig:
    """What one pipeline run does: sample size, accuracy target, cover kind."""

    t: int
    epsilon: float
    H: float
    cover_kind: str = "multiplicative"
    seed: int = 0
    mode: str = "sample_and_round"

    def __post_init__(self):
        if self.t < 1:
            raise ValidationError("t must be at least 1")
        if not (0.0 < self.epsilon < 1.0):
            raise ValidationError("epsilon must lie in (0, 1)")
        if not math.isfinite(self.H):
            raise ValidationError(f"H must be finite, not {self.H}")
        if self.H < 1:
            raise ValidationError(f"H must be at least 1, not {self.H}")
        if self.mode not in PIPELINE_MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.cover_kind not in CERTIFIED_TAGS:
            raise ValidationError("pipeline covers are multiplicative or monotone_tail")

    def rounding_params(self) -> RoundingParams:
        """Rounding resolution for an overall epsilon-grade guarantee.

        The level construction loses O(log H sqrt(eps_round)), so hitting
        an overall target epsilon takes eps_round = (epsilon / ceil(log2
        H))^2, the constant-1 instantiation of that composition.
        """
        eps_round = (self.epsilon / max(1, doubling_bands(self.H))) ** 2
        try:
            return RoundingParams(epsilon=eps_round, H=self.H, cover_kind=self.cover_kind)
        except ValidationError as exc:
            raise ValidationError(f"the pipeline's epsilon={self.epsilon} and H={self.H} give the rounding "
                                  f"resolution (epsilon / ceil(log2 H))^2 = {eps_round}: {exc}") from None

    def validate_sampler(self, sampler: Sampler) -> None:
        """Reject, before any draw, a sampler whose values may exceed H or,
        when the run rounds, whose tag or rounding resolution the cover cannot take."""
        if sampler.H > self.H:
            raise ValidationError(f"the sampler's H={sampler.H} exceeds the pipeline's H={self.H}")
        if self.mode == "naive":
            return
        certified = CERTIFIED_TAGS[self.cover_kind]
        if sampler.tag not in certified:
            raise ValidationError(
                f"{self.cover_kind} covers are only certified for {' or '.join(certified)} valuations; "
                f"sampler is tagged {sampler.tag!r}"
            )
        self.rounding_params()


def sample_and_round(sampler: Sampler, cfg: PipelineConfig) -> Menu:
    """Draw t samples, fit the optimal menu by LP, round it into the cover.

    Deterministic for a fixed config: the draw stream is seeded with
    cfg.seed and the LP and rounding are deterministic.  In "naive" mode
    the fitted menu is returned unrounded (the overfitting-prone variant).
    """
    cfg.validate_sampler(sampler)
    rng = np.random.default_rng(cfg.seed)
    empirical = explicit_from_samples(sampler.draw(cfg.t, rng), tag=sampler.tag, H=sampler.H)
    sol = solve_lp(build_lp(empirical))
    menu = extract_menu(sol)
    if cfg.mode == "naive":
        return menu
    return round_menu(menu, cfg.rounding_params())


def doubling_bands(H: float) -> int:
    """ceil(log2 H) for H >= 1, the number of doubling bands [2^(j-1), 2^j]
    that cover [1, H]; 0 at H = 1.  An H whose log2 lies at most 1e-12
    above an integer k counts as 2^k, so float noise adds no band."""
    return math.ceil(math.log2(H) - 1e-12)


def doubling_prices(H: float) -> list[float]:
    """1, 2, 4, ..., 2^ceil(log2 H)."""
    return [float(2 ** j) for j in range(doubling_bands(H) + 1)]


def uniform_price_menu(m: int, price: float) -> Menu:
    """Every item offered at one common price."""
    return Menu(np.eye(m), np.full(m, float(price)))


def support_bound(dist: ExplicitDistribution) -> float:
    """H of a distribution: its largest value, or 1, the lowest doubling
    price, when every value lies below 1."""
    return max(1.0, float(dist.top_values.max()))


def item_pricing_baseline(dist: ExplicitDistribution) -> tuple[Menu, float]:
    """Exact best of the doubling uniform-price menus on an explicit
    distribution, at the prices 1, 2, ..., 2^ceil(log2 H) of its own
    bound H = :func:`support_bound` (a higher price sells to no one).

    A buyer facing every item at price p has the best utility
    max_l(v_l - p), which rounds to exactly top - p for its top value, so
    each price is scored as the one-item menu at p on the (n, 1) top
    values, through the same choice kernel.  The winner, the earliest
    price of the highest revenue, earns at least
    :func:`item_pricing_guarantee`.
    """
    top = dist.top_values[:, None]
    best_price, best_rev = None, -1.0
    for p in doubling_prices(support_bound(dist)):
        rev = weighted_sum(dist.weights, revenue_batch(Menu([[1.0]], [p]), top))
        if rev > best_rev + 1e-15:
            best_price, best_rev = p, rev
    return uniform_price_menu(dist.m, best_price), best_rev


def item_pricing_guarantee(dist: ExplicitDistribution) -> float:
    """E[max v * 1{max v >= 1}] / (2 max(1, ceil(log2 H))), H = :func:`support_bound`:
    the revenue :func:`item_pricing_baseline` is guaranteed.

    A buyer whose largest value lies in the doubling band [2^(j-1), 2^j]
    pays at least half of it to the menu priced 2^(j-1), so the band
    menus' revenues add up to at least half the expected largest value of
    the buyers in [1, H], and the best of the ceil(log2 H) band menus
    earns at least their mean.  A buyer whose largest value lies below 1,
    the lowest doubling price, buys nothing and counts 0.
    """
    top = dist.top_values
    covered = weighted_sum(dist.weights, np.where(top >= 1.0, top, 0.0))
    return covered / (2.0 * max(1, doubling_bands(support_bound(dist))))


def item_pricing_from_samples(sampler: Sampler, n: int, seed: int) -> Menu:
    """Empirical winner among the doubling menus on n fresh draws."""
    V = sampler.draw(n, np.random.default_rng(seed))
    return item_pricing_baseline(explicit_from_samples(V))[0]


def naive_overfit_menu(samples) -> Menu:
    """The sample-optimal menu of the overfitting construction.

    Every item is sold at price 2; every sampled type with no 2-valued
    item contributes a uniform lottery over its 1-valued support at price
    1.  On its own sample each type then pays exactly its maximum item
    value; on fresh draws the lotteries are worthless unless a draw's
    support swallows a sampled support.
    """
    V = np.asarray(samples, dtype=float)
    if V.ndim == 1:
        V = V[None, :]
    m = V.shape[1]
    support = V[V.max(axis=1) < 2.0] == 1.0  # the types with no 2-valued item
    count = support.sum(axis=1)
    lotteries = support[count > 0] / count[count > 0, None]
    prices = np.concatenate((np.full(m, 2.0), np.ones(len(lotteries))))
    return Menu(np.vstack((np.eye(m), lotteries)), prices)


@dataclass(frozen=True)
class OverfitReport:
    """The four revenue figures of the overfitting demonstration."""

    naive_on_sample: float
    naive_on_fresh: float
    price1_on_fresh: float
    lp_on_sample: float


def overfit_experiment(
    m: int,
    delta: float,
    sample_n: int,
    eval_n: int,
    seed: int,
    include_lp: bool = True,
) -> OverfitReport:
    """Fit the naive menu to a sample, evaluate it on fresh draws.

    The fitting stream is seeded with ``seed``; fresh evaluation draws
    come from the stream keyed ``[seed, 1]``, which is no seed's fitting
    stream, so in a seed sweep no run evaluates on another run's sample.
    ``lp_on_sample`` is the LP optimum on the whole sample (NaN when
    disabled): the LP fits the sample at least as well as the closed-form
    naive menu.
    """
    for name, n in (("sample_n", sample_n), ("eval_n", eval_n)):
        if n < 1:
            raise ValidationError(f"{name} must be at least 1, not {n}")
    params = OverfitProductParams(m=m, delta=delta)
    sampler = OverfitProductSampler(params, seed)
    S = sampler.draw(sample_n, np.random.default_rng(seed))
    F = sampler.draw(eval_n, np.random.default_rng([seed, 1]))

    naive = naive_overfit_menu(S)
    naive_on_sample = float(revenue_batch(naive, S).mean())
    naive_on_fresh = float(revenue_batch(naive, F).mean())
    # the price-1 item menu, scored as the one-item menu on the top values (see item_pricing_baseline)
    price1_on_fresh = float(revenue_batch(Menu([[1.0]], [1.0]), row_maxima(F)[:, None]).mean())

    lp_on_sample = float("nan")
    if include_lp:
        lp_on_sample = solve_lp(build_lp(explicit_from_samples(S))).objective
    return OverfitReport(naive_on_sample, naive_on_fresh, price1_on_fresh, lp_on_sample)


def lower_bound_menu(dist: ExplicitDistribution) -> Menu:
    """One entry per support point: uniform lottery on the point's set S at
    price 2^(z-1).

    Reads each point's set and scale off its values with
    :func:`~menuforge.distributions.spread_sets_and_scales`, which raises
    :class:`ValidationError` unless every support point is a spread point.
    A buyer facing its own entry nets exactly 2^(z-1); when all pairwise
    set overlaps stay below half a set, as :func:`sparse_subsample`
    ensures, no foreign entry beats that, so every support point pays
    2^(z-1).
    """
    sets, z = spread_sets_and_scales(dist.values)
    L = np.zeros((dist.n, dist.m))
    L[np.arange(dist.n)[:, None], sets] = 1.0 / sets.shape[1]
    return Menu(L, 2.0 ** (z - 1.0))


@dataclass(frozen=True)
class LowerBoundReport:
    lb_menu_revenue: float
    item_baseline_revenue: float
    ratio: float


def lower_bound_experiment(m: int, H: float, K: int, seed: int) -> LowerBoundReport:
    """Exact revenues of the lower-bound menu versus the doubling baseline
    on a sparsity-checked subsample of the spread family.

    Parameters are desk-scale configuration, not asymptotic claims; the
    construction errors out when the sparsity property cannot be achieved
    (see :func:`menuforge.distributions.sparse_subsample`).
    """
    params = EqualRevenueSpreadParams(m=m, H=H)
    dist = sparse_subsample(params, K, seed)
    lb = expected_revenue(lower_bound_menu(dist), dist)
    _, base = item_pricing_baseline(dist)
    return LowerBoundReport(lb, base, lb / base)
