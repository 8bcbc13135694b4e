"""Rounding whole menus through a lottery cover with a one-sided revenue
guarantee.

Naively snapping every menu entry to a grid can destroy revenue: a tiny
allocation loss or price increase chases away buyers making knife's-edge
choices.  The transform here therefore discounts prices more, and scales
allocations down less, the higher the entry's price level.  It runs at one
resolution eps in (0, 1), with level width delta = sqrt(eps):

* entries are split into price levels k = 1..K, level k holding prices in
  ((1+delta)^(k-1), (1+delta)^k], with K the smallest integer such that
  (1+delta)^K >= H;
* a level-k entry (x, p) becomes (x', p') with
  x' = xi((1-eps)^(K-k) x)  and  p' = floor((1-eps)^K p / eps) * eps - 2 k eps,
  where xi is the cover's round-down map.

Because cheaper entries lose relatively more allocation and keep
relatively more price, no buyer migrates to a lower price level, and the
per-buyer payment obeys

    Rev(rounded, v) >= (1-delta) (1-eps)^K Rev(original, v) - (2K+1) eps

for every valuation in the cover's certified class (``CERTIFIED_TAGS``).
Entries whose adjusted price drops to zero or below are dropped; their
original price was already inside the additive loss budget.

Precondition: the levels partition (1, H], so the bound is proved only
for menus whose prices are at least 1.  ``RoundingParams.level`` puts
every price up to 1+delta into level 1, an LP entry priced below 1
included, and for such menus the bound is not proved and can fail: in
the strict xfail
``tests/test_rounding.py::test_round_menu_keeps_the_guarantee_on_a_pinned_lp_tie``
a buyer tied between an entry at 0.6528 and one at 0.0630 moves to the
cheaper one and pays 0.0556 against a bound of 0.4444.  The benchmark's
``fit_large`` workload counts such buyers on LP menus as
``rounding.guarantee_violations``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Menu, ValidationError
from .covers import CoverSpec, round_lottery

# the covers a menu is rounded into, each with the value-range tags of the
# valuations its guarantee is certified for: [1, H]^m, and monotone ones
CERTIFIED_TAGS = {"multiplicative": ("bounded", "monotone"), "monotone_tail": ("monotone",)}


@dataclass(frozen=True)
class RoundingParams:
    """The resolution of the level construction.

    epsilon lies in (0, 1) and sets the level width delta = sqrt(epsilon),
    the balance point between the multiplicative level loss and the number
    of levels.  The cover is the ``cover_kind`` grid at the same epsilon
    and H: the multiplicative grid by default, or monotone_tail when every
    valuation to be served is monotone.  The (epsilon, H, cover_kind)
    checks are :class:`CoverSpec`'s, and the cover must be a key of
    ``CERTIFIED_TAGS``: the guarantee is stated for no other.
    """

    epsilon: float
    H: float
    cover_kind: str = "multiplicative"

    def __post_init__(self):
        self.cover_spec(1)
        if self.cover_kind not in CERTIFIED_TAGS:
            raise ValidationError(
                f"menus round into the {' or '.join(CERTIFIED_TAGS)} cover, not {self.cover_kind!r}"
            )

    @property
    def delta(self) -> float:
        return math.sqrt(self.epsilon)

    @property
    def K(self) -> int:
        """Smallest integer with (1+delta)^K >= H."""
        if self.H <= 1.0:
            return 0
        return max(1, math.ceil(math.log(self.H) / math.log1p(self.delta) - 1e-12))

    def level(self, price):
        """Smallest k >= 1 with price <= (1+delta)^k, elementwise, for prices in (0, H].

        Returns an int array of the prices' shape, 0-d for a scalar price.
        Degenerate H <= 1 has a single level 0 (no level scaling at all).
        """
        p = np.asarray(price, dtype=float)
        if not np.all(p > 0):
            raise ValidationError("level is defined for positive prices")
        if np.any(p > self.H * (1.0 + 1e-9)):
            raise ValidationError(f"price {p.max()} exceeds H={self.H}")
        K = self.K
        if K == 0:
            return np.zeros(p.shape, dtype=int)
        return np.clip(np.ceil(np.log(p) / math.log1p(self.delta) - 1e-12), 1, K).astype(int)

    def cover_spec(self, m: int) -> CoverSpec:
        return CoverSpec(self.cover_kind, self.epsilon, m, self.H)


def guarantee_bound(params: RoundingParams) -> tuple[float, float]:
    """The exact constants of the per-valuation guarantee.

    Returns (multiplicative, additive) such that the rounded menu earns at
    least multiplicative * Rev(M, v) - additive for every certified v,
    provided every price of M is at least 1 (see the module docstring: the
    bound is not proved for a menu with cheaper entries). No asymptotics:
    multiplicative = (1-delta)(1-eps)^K, additive = (2K+1) eps.
    """
    K = params.K
    mult = (1.0 - params.delta) * (1.0 - params.epsilon) ** K
    add = (2 * K + 1) * params.epsilon
    return mult, add


def round_menu(menu: Menu, params: RoundingParams) -> Menu:
    """Map a menu into the cover-restricted family, all entries at once.

    Requires every price at most H; the lotteries are valid, as the
    :class:`Menu` constructor checks them.  The per-valuation bound of
    :func:`guarantee_bound` holds for every certified valuation when every
    price is at least 1; entries priced below 1 land in level 1 and void
    the proof (see the module docstring).  Price-0 entries are dropped
    first: a :class:`Menu` gives them the zero lottery, so they repeat the
    implicit zero entry.  Entries whose adjusted price is not positive are
    dropped too (the implicit zero entry replaces them); all surviving
    lotteries are level-scaled cover points.
    """
    sold = menu.prices > 0
    L, P = menu.lotteries[sold], menu.prices[sold]
    k = params.level(P)
    eps = params.epsilon
    K = params.K
    # Python's float powers, as guarantee_bound takes them (np.power differs in
    # the last ulp on some), for the levels present only: K can run to millions
    levels, at = np.unique(k, return_inverse=True)
    shrink = np.array([(1.0 - eps) ** (K - j) for j in levels.tolist()])
    lotteries = round_lottery(shrink[at, None] * L, params.cover_spec(menu.m))
    prices = np.floor((1.0 - eps) ** K * P / eps) * eps - 2 * k * eps
    keep = prices > 0
    return Menu(lotteries[keep], prices[keep])


def sample_size_for_cover(cover_count_log: float, H: float, epsilon: float, failure_prob: float) -> int:
    """Hoeffding-plus-union-bound sample count for uniform revenue estimates.

    For a finite menu family N, revenues lie in [0, H], so t samples
    estimate every Rev(N, D) within epsilon except with probability
    2 |N| exp(-2 t eps^2 / H^2).  Solving for failure probability
    ``failure_prob`` gives

        t = ceil( H^2 / (2 eps^2) * (log|N| + ln(2 / failure_prob)) )

    with ``cover_count_log`` = log|N| (natural log) and ``failure_prob``
    in (0, 1).
    """
    if cover_count_log < 0 or epsilon <= 0 or H <= 0:
        raise ValidationError("inputs must be positive (cover_count_log >= 0)")
    if not (0 < failure_prob < 1):
        raise ValidationError("failure_prob must lie in (0, 1)")
    raw = (H * H) / (2.0 * epsilon * epsilon) * (cover_count_log + math.log(2.0 / failure_prob))
    return int(math.ceil(raw - 1e-12))
