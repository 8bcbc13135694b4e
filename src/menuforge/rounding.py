"""Rounding whole menus through a lottery cover with a one-sided revenue
guarantee.

Naively snapping every menu entry to a grid can destroy revenue: a tiny
allocation loss or price increase chases away buyers making knife's-edge
choices.  The transform here therefore discounts prices more, and scales
allocations down less, the higher the entry's price level:

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

for every valuation in the cover's certified class.  Entries whose
adjusted price drops to zero or below are dropped; their original price
was already inside the additive loss budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Menu, ValidationError, check_lotteries
from .covers import CoverSpec, round_lottery


@dataclass(frozen=True)
class RoundingParams:
    """Knobs of the level construction.

    delta defaults to sqrt(epsilon), the balance point between the
    multiplicative level loss and the number of levels.  The cover is the
    ``cover_kind`` grid at the same epsilon and H: the multiplicative grid
    by default, or monotone_tail when every valuation to be served is
    monotone.
    """

    epsilon: float
    H: float
    delta: float | None = None
    cover_kind: str = "multiplicative"

    def __post_init__(self):
        if not (0.0 <= self.epsilon < 1.0):
            raise ValidationError("epsilon must lie in [0, 1)")
        d = self.resolved_delta
        if not (0.0 <= d < 1.0):
            raise ValidationError("delta must lie in [0, 1)")
        if self.H > 1.0 and d == 0.0:
            raise ValidationError("delta = 0 needs H <= 1 (no finite level count otherwise)")
        if self.H < 1.0:
            raise ValidationError("H must be at least 1")

    @property
    def resolved_delta(self) -> float:
        return math.sqrt(self.epsilon) if self.delta is None else self.delta

    @property
    def K(self) -> int:
        """Smallest integer with (1+delta)^K >= H."""
        if self.H <= 1.0:
            return 0
        return max(1, math.ceil(math.log(self.H) / math.log1p(self.resolved_delta) - 1e-12))

    def level(self, price):
        """Smallest k >= 1 with price <= (1+delta)^k, elementwise, for prices in (0, H].

        A scalar price gives a Python int, an array of prices an int array.
        Degenerate H <= 1 has a single level 0 (no level scaling at all).
        """
        p = np.asarray(price, dtype=float)
        if not np.all(p > 0):
            raise ValidationError("level is defined for positive prices")
        if np.any(p > self.H * (1.0 + 1e-9)):
            raise ValidationError(f"price {p.max()} exceeds H={self.H}")
        K = self.K
        if K == 0:
            k = np.zeros(p.shape, dtype=int)
        else:
            k = np.clip(np.ceil(np.log(p) / math.log1p(self.resolved_delta) - 1e-12), 1, K).astype(int)
        return int(k) if k.ndim == 0 else k

    def cover_spec(self, m: int) -> CoverSpec:
        return CoverSpec(self.cover_kind, self.epsilon, m, self.H)


def guarantee_bound(params: RoundingParams) -> tuple[float, float]:
    """The exact constants of the per-valuation guarantee.

    Returns (multiplicative, additive) such that the rounded menu earns at
    least multiplicative * Rev(M, v) - additive for every certified v. No
    asymptotics: multiplicative = (1-delta)(1-eps)^K, additive = (2K+1) eps.
    """
    K = params.K
    mult = (1.0 - params.resolved_delta) * (1.0 - params.epsilon) ** K
    add = (2 * K + 1) * params.epsilon
    return mult, add


def round_menu(menu: Menu, params: RoundingParams) -> Menu:
    """Map a menu into the cover-restricted family, all entries at once.

    Requires every price in (0, H] and every lottery to pass
    :func:`check_lotteries`; the check runs here, before scaling, because
    shrinking can bring a mass above 1 under the limit.  Entries whose
    adjusted price is not positive are dropped (the implicit zero entry
    replaces them); all surviving lotteries are level-scaled cover points.
    """
    check_lotteries(menu.lotteries)
    if params.epsilon == 0.0:
        return menu
    eps = params.epsilon
    K = params.K
    k = params.level(menu.prices)
    # Python's float powers, as guarantee_bound takes them (np.power differs in
    # the last ulp on some), for the levels present only: K can run to millions
    levels, at = np.unique(k, return_inverse=True)
    shrink = np.array([(1.0 - eps) ** (K - j) for j in levels.tolist()])
    lotteries = round_lottery(shrink[at, None] * menu.lotteries, params.cover_spec(menu.m))
    prices = np.floor((1.0 - eps) ** K * menu.prices / eps) * eps - 2 * k * eps
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
