"""End-to-end pricing pipelines and the two headline desk-scale experiments.

The sample-and-round pipeline draws t valuations from a black box, solves
the menu LP on the empirical distribution, and pushes the optimal menu
through the level-rounding transform so that the output lives in a small
cover family.  Fitting the sample exactly and then projecting onto the
cover is what prevents the fitted menu from memorizing the sample.

Baselines and experiments:

* item-pricing baseline: the best of the doubling uniform-price menus
  M^1, M^2, M^4, ..., guaranteed a 1/(2 ceil(log2 H)) fraction of the
  expected maximum item value;
* overfitting experiment: the product family on which the sample-optimal
  menu (items at 2 plus one support lottery per sampled type) earns its
  full sample surplus but collapses on fresh draws while the trivial
  price-1 menu keeps earning about 1;
* lower-bound experiment: the spread equal-revenue family, where a menu
  with one entry per support point (uniform lottery on the point's set at
  price 2^(z-1)) extracts about half the expected maximum value once the
  sets are pairwise sparse; in the paper's asymptotic regime that beats
  every small item-pricing menu.  At desk scale it does not: at the CLI
  defaults (m=30, H=8, K=20, seeds 0:200) it earns 0.64 to 1.00 times the
  doubling item-pricing baseline, 0.85 on average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Menu, ValidationError, expected_revenue, revenue_batch
from .distributions import (
    EqualRevenueSpreadParams,
    ExplicitDistribution,
    OverfitProductParams,
    OverfitProductSampler,
    Sampler,
    expected_max_value,
    explicit_from_samples,
    sparse_subsample,
)
from .lp import build_lp, extract_menu, solve_lp
from .rounding import RoundingParams, round_menu

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
        if self.mode not in PIPELINE_MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.cover_kind not in ("multiplicative", "monotone_tail"):
            raise ValidationError("pipeline covers are multiplicative or monotone_tail")

    def rounding_params(self) -> RoundingParams:
        """Rounding resolution for an overall epsilon-grade guarantee.

        The level construction loses O(log H sqrt(eps_round)), so hitting
        an overall target epsilon takes eps_round = (epsilon / ceil(log2
        H))^2, the constant-1 instantiation of that composition.
        """
        levels = max(1, math.ceil(math.log2(max(self.H, 2.0))))
        eps_round = (self.epsilon / levels) ** 2
        return RoundingParams(epsilon=eps_round, H=self.H, cover_kind=self.cover_kind)

    def validate_sampler(self, sampler: Sampler) -> None:
        if self.cover_kind == "monotone_tail" and sampler.tag != "monotone":
            raise ValidationError(
                "monotone_tail covers are only certified for monotone valuations; "
                f"sampler is tagged {sampler.tag!r}"
            )


def sample_and_round(sampler: Sampler, cfg: PipelineConfig) -> Menu:
    """Draw t samples, fit the optimal menu by LP, round it into the cover.

    Deterministic for a fixed config: the draw stream is seeded with
    cfg.seed and the LP and rounding are deterministic.  In "naive" mode
    the fitted menu is returned unrounded (the overfitting-prone variant).
    """
    cfg.validate_sampler(sampler)
    rng = np.random.default_rng(cfg.seed)
    samples = sampler.draw(cfg.t, rng)
    empirical = explicit_from_samples(samples, tag=sampler.tag, H=sampler.H)
    # duplicate support rows only add vacuous IC constraints; merging them
    # is exact and keeps the LP within its size contract
    sol = solve_lp(build_lp(empirical.consolidated()))
    menu = extract_menu(sol)
    if cfg.mode == "naive":
        return menu
    return round_menu(menu, cfg.rounding_params())


def doubling_prices(H: float) -> list[float]:
    """1, 2, 4, ..., 2^ceil(log2 H)."""
    top = max(0, math.ceil(math.log2(H) - 1e-12))
    return [float(2 ** j) for j in range(top + 1)]


def uniform_price_menu(m: int, price: float) -> Menu:
    """Every item offered at one common price."""
    return Menu(np.eye(m), np.full(m, float(price)))


def item_pricing_baseline(dist: ExplicitDistribution, H: float) -> tuple[Menu, float]:
    """Exact best of the doubling uniform-price menus on an explicit
    distribution.

    For supports in [1, H] the winner extracts at least
    expected_max_value / (2 ceil(log2 H)): the doubling prices cut [1, H]
    into ceil(log2 H) bands and the band menus' revenues add up to at
    least half the expected maximum value.
    """
    best_menu, best_rev = None, -1.0
    for p in doubling_prices(H):
        menu = uniform_price_menu(dist.m, p)
        rev = expected_revenue(menu, dist)
        if rev > best_rev + 1e-15:
            best_menu, best_rev = menu, rev
    return best_menu, best_rev


def item_pricing_from_samples(sampler: Sampler, H: float, n: int, seed: int) -> Menu:
    """Empirical winner among the doubling menus on n fresh draws."""
    if n < 1:
        raise ValidationError("n must be at least 1")
    V = sampler.draw(n, np.random.default_rng(seed))
    return item_pricing_baseline(explicit_from_samples(V), H)[0]


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
    params = OverfitProductParams(m=m, delta=delta)
    sampler = OverfitProductSampler(params, seed)
    S = sampler.draw(sample_n, np.random.default_rng(seed))
    F = sampler.draw(eval_n, np.random.default_rng([seed, 1]))

    naive = naive_overfit_menu(S)
    naive_on_sample = float(revenue_batch(naive, S).mean())
    naive_on_fresh = float(revenue_batch(naive, F).mean())
    price1 = uniform_price_menu(m, 1.0)
    price1_on_fresh = float(revenue_batch(price1, F).mean())

    lp_on_sample = float("nan")
    if include_lp:
        lp_on_sample = solve_lp(build_lp(explicit_from_samples(S).consolidated())).objective
    return OverfitReport(naive_on_sample, naive_on_fresh, price1_on_fresh, lp_on_sample)


def lower_bound_menu(dist: ExplicitDistribution) -> Menu:
    """One entry per support point: uniform lottery on the point's set S at
    price 2^(z-1).

    Needs the per-point (set, scale) metadata of :func:`sparse_subsample`.
    A buyer facing its own entry nets exactly 2^(z-1); when all pairwise
    set overlaps stay below half a set, no foreign entry beats that, so
    every support point pays 2^(z-1).
    """
    if "sets" not in dist.meta or "z" not in dist.meta:
        raise ValidationError("distribution lacks per-point (set, scale) metadata")
    sets = dist.meta["sets"]
    z = dist.meta["z"]
    n = dist.n
    L = np.zeros((n, dist.m))
    P = np.empty(n)
    k = sets.shape[1]
    for i in range(n):
        L[i, sets[i]] = 1.0 / k
        P[i] = 2.0 ** (int(z[i]) - 1)
    return Menu(L, P)


@dataclass(frozen=True)
class LowerBoundReport:
    lb_menu_revenue: float
    item_baseline_revenue: float
    ratio: float
    K: int
    m: int
    H: float


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
    _, base = item_pricing_baseline(dist, H=H)
    return LowerBoundReport(
        lb_menu_revenue=lb,
        item_baseline_revenue=base,
        ratio=lb / base if base > 0 else float("inf"),
        K=K,
        m=m,
        H=H,
    )
