"""Menu-size-constrained revenue maximization on two-leveled valuations.

MAXREV asks for the best menu of at most k entries for an explicit sample
of valuations.  For two-leveled valuations (every coordinate equal to a
common low or high value) the problem is max coverage in disguise: a
valuation is worth chasing exactly when some offered item hits its
high-value set.  This module makes the equivalence executable:

* hitting-set instances reduce to {1,H}-valued MAXREV instances;
* greedy item selection achieves the classic (1 - 1/e) coverage factor;
* lottery menus derandomize to item sets by conditional expectations;
* an exact coverage upper bound dominates the revenue of every menu.

Hit-count accounting: a size-k item set T hitting a weight fraction f of
the valuations scores low + (high - low) * f.  In the {0,1} convention
(low 0, high 1, items priced at 1) this equals the menu's true expected
revenue and the paper's optimality argument makes brute force over item
sets the exact k-menu optimum.  In the {1,H} convention it is the
coverage objective of the hardness reduction: it coincides with true
revenue at full coverage and upper-bounds it below full coverage.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Menu, ValidationError, weighted_sum
from .distributions import ExplicitDistribution, HittingSetInstance, hitting_set_valuations
from .lp import BudgetExceededError


@dataclass(frozen=True)
class KMenuProblem:
    """A two-leveled explicit distribution plus a menu-size budget k."""

    dist: ExplicitDistribution
    k: int
    low: float
    high: float

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("k must be at least 1")
        if not (self.high > self.low >= 0):
            raise ValidationError("need high > low >= 0")
        V = self.dist.values
        on_levels = np.isclose(V, self.low) | np.isclose(V, self.high)
        if not np.all(on_levels):
            raise ValidationError("valuations are not two-leveled at (low, high)")

    @property
    def sets(self) -> np.ndarray:
        """(n, m) boolean matrix of high-valued coordinates."""
        return np.isclose(self.dist.values, self.high)

    @property
    def m(self) -> int:
        return self.dist.m

    @classmethod
    def from_distribution(cls, dist: ExplicitDistribution, k: int) -> "KMenuProblem":
        vals = np.unique(dist.values)
        if len(vals) > 2:
            raise ValidationError("more than two distinct values in the sample")
        high = float(vals[-1])
        if high <= 0:
            raise ValidationError("sample has no positive values")
        low = float(vals[0]) if len(vals) == 2 else 0.0
        return cls(dist, k, low, high)


def reduce_hitting_set(inst: HittingSetInstance, k: int) -> KMenuProblem:
    """The hardness reduction: one {1,H} valuation per set, C = k."""
    return KMenuProblem(hitting_set_valuations(inst), k=k, low=1.0, high=inst.H)


def _score(problem: KMenuProblem, hit_fraction: float) -> float:
    return problem.low + (problem.high - problem.low) * hit_fraction


def _weighted_column_sums(w, hits) -> np.ndarray:
    """``w @ hits`` for an (n, c) ``hits``, each column added up as
    :func:`weighted_sum` adds it, so no sum depends on the BLAS thread count."""
    return np.multiply(hits.T, w, order="C").sum(axis=1)


def _item_menu(problem: KMenuProblem, items) -> Menu:
    items = sorted(int(j) for j in items)
    m = problem.m
    L = np.zeros((len(items), m))
    for r, j in enumerate(items):
        L[r, j] = 1.0
    # {0,1} instances price at 1 (= high); {1,H} instances price at H (= high)
    price = problem.high if problem.low > 0 else 1.0
    return Menu(L, np.full(len(items), price))


def greedy_k_item_menu(problem: KMenuProblem) -> tuple[Menu, float]:
    """Greedy max coverage: k items, each maximizing the newly hit weight.

    Ties break toward the lowest item index.  Returns the item-pricing
    menu over the picked items and its hit-count score; the score is
    within a (1 - 1/e) factor of the best achievable by any size-k item
    set, by the standard coverage argument.
    """
    S = problem.sets
    w = problem.dist.weights
    n, m = S.shape
    unhit = np.ones(n, dtype=bool)
    picked: list[int] = []
    for _ in range(min(problem.k, m)):
        gains = _weighted_column_sums(w, S & unhit[:, None])  # (m,)
        j = int(np.argmax(gains))  # argmax takes the lowest index on ties
        if gains[j] <= 0 and picked:
            break
        picked.append(j)
        unhit &= ~S[:, j]
    frac = weighted_sum(w, ~unhit)
    return _item_menu(problem, picked), _score(problem, frac)


def brute_force_k_menu(problem: KMenuProblem, budget: int = 1_000_000) -> tuple[tuple[int, ...], float]:
    """Exhaustive search over size-k item sets, scored by hit count.

    For {0,1} valuations this is the true optimum over all k-entry lottery
    menus (an optimal k-menu may be taken deterministic); for {1,H} it is
    the coverage comparator the greedy guarantee is stated against.
    Ties resolve to the lexicographically smallest item set: in that
    order, a set replaces the best so far only if it hits more than 1e-15
    more weight.
    """
    S = problem.sets
    w = problem.dist.weights
    n, m = S.shape
    k = min(problem.k, m)
    count = math.comb(m, k)
    if count > budget:
        raise BudgetExceededError(f"C({m},{k}) exceeds budget {budget}")
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(m), k)), dtype=np.intp, count=count * k
    ).reshape(count, k)
    # hit fractions of all sets, scored in blocks of about 4 MB of (n, k) hits
    step = max(1, (1 << 22) // max(1, n * k))
    fracs = np.concatenate([
        _weighted_column_sums(w, S[:, combos[s : s + step]].any(axis=2)) for s in range(0, len(combos), step)
    ])
    # only a set within 1e-9 of the top can end the scan as the best
    near = fracs >= fracs.max() - 1e-9
    best_frac = -1.0
    best: tuple[int, ...] = ()
    for combo, frac in zip(combos[near], fracs[near].tolist()):
        if frac > best_frac + 1e-15:
            best_frac = frac
            best = tuple(int(j) for j in combo)
    return best, _score(problem, best_frac)


def derandomize_lotteries(menu: Menu, problem: KMenuProblem) -> np.ndarray:
    """Fix one item (or the null outcome) per lottery by conditional
    expectations, never decreasing the expected hit weight.

    Drawing an item j_t from each lottery x_t hits valuation i with
    probability 1 - prod_t (1 - x_t(S_i)).  Processing lotteries in order
    and choosing the conditional-expectation-maximizing item keeps the
    running expectation nondecreasing, so the returned item set hits at
    least the initial expectation.  Null draws (the partial-lottery
    residual) are allowed and simply skipped.
    """
    S = problem.sets
    w = problem.dist.weights
    n, m = S.shape
    X = np.atleast_2d(menu.lotteries)
    hit_mass = np.clip(X @ S.T, 0.0, 1.0)     # (k, n): x_t(S_i)
    k = X.shape[0]
    hit = np.zeros(n, dtype=bool)
    # suffix[t, i] = prod_{s >= t} (1 - x_s(S_i))
    suffix = np.ones((k + 1, n))
    for t in range(k - 1, -1, -1):
        suffix[t] = suffix[t + 1] * (1.0 - hit_mass[t])
    chosen: list[int] = []
    for t in range(k):
        tail = suffix[t + 1]
        base = weighted_sum(w, np.where(hit, 1.0, 1.0 - tail))  # choosing null
        best_val, best_j = base, None
        support = np.flatnonzero(X[t] > 0)
        for j in support:
            new_hit = hit | S[:, j]
            val = weighted_sum(w, np.where(new_hit, 1.0, 1.0 - tail))
            if val > best_val + 1e-15:
                best_val, best_j = val, int(j)
        if best_j is not None:
            chosen.append(best_j)
            hit = hit | S[:, best_j]
    return np.array(sorted(set(chosen)), dtype=int)


def expected_hit_fraction(menu: Menu, problem: KMenuProblem) -> float:
    """Hit probability under independent draws, one item per lottery."""
    X = np.atleast_2d(menu.lotteries)
    hm = np.clip(X @ problem.sets.T, 0.0, 1.0)
    return weighted_sum(problem.dist.weights, 1.0 - np.prod(1.0 - hm, axis=0))


def hit_fraction(items, problem: KMenuProblem) -> float:
    items = np.asarray(list(items), dtype=int)
    if items.size == 0:
        return 0.0
    return weighted_sum(problem.dist.weights, problem.sets[:, items].any(axis=1))


def revenue_upper_bound(menu: Menu, problem: KMenuProblem) -> float:
    """low + (high - low) * avg_i max_t x_t(S_i): dominates the revenue of
    every menu on a two-leveled instance.

    Per buyer, individual rationality caps the payment by the value of the
    chosen lottery, which is at most low + (high - low) x_t(S_i) because
    total lottery mass is at most 1.
    """
    if menu.size == 0:
        best = np.zeros(problem.dist.n)
    else:
        best = np.max(np.clip(menu.lotteries @ problem.sets.T, 0.0, 1.0), axis=0)
    return float(problem.low + (problem.high - problem.low) * weighted_sum(problem.dist.weights, best))
