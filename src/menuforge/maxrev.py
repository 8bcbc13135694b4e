"""Menu-size-constrained revenue maximization on two-leveled valuations.

MAXREV asks for the best menu of at most k entries for an explicit sample
of valuations.  For two-leveled valuations (every coordinate equal to a
common low or high value) the problem is max coverage in disguise: a
valuation is worth chasing exactly when some offered item hits its
high-value set.  This module runs the equivalence for ``experiment
greedy-vs-opt``:

* hitting-set instances reduce to {1,H}-valued MAXREV instances;
* greedy item selection achieves the classic (1 - 1/e) coverage factor;
* brute force over size-k item sets gives the exact coverage optimum.

The lottery half of the soundness argument (derandomizing a lottery menu
into an item set, and the coverage bound on any menu's revenue) lives in
``tests/oracles.py``, beside the tests that check it.

Hit-count accounting: a size-k item set T hitting a weight fraction f of
the valuations scores low + (high - low) * f, and its item menu prices
every item at high.  In the {0,h} convention (low 0; {0,1} is the usual
case) the score equals the menu's true expected revenue and the paper's
optimality argument makes brute force over item sets the exact k-menu
optimum.  In the {1,H} convention it is the coverage objective of the
hardness reduction: it coincides with true revenue at full coverage and
upper-bounds it below full coverage.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Menu, ValidationError, weighted_sum
from .distributions import ExplicitDistribution, HittingSetInstance, hitting_set_valuations
from .lp import BudgetExceededError

# most item sets brute_force_k_menu will score
BRUTE_FORCE_BUDGET = 1_000_000


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
        if np.isclose(self.low, self.high):
            # every value close to high would read as high, low ones too
            raise ValidationError(f"levels low={self.low} and high={self.high} are too close to tell apart")
        if not np.all(self.sets | np.isclose(self.dist.values, self.low)):
            raise ValidationError("valuations are not two-leveled at (low, high)")

    @functools.cached_property
    def sets(self) -> np.ndarray:
        """(n, m) boolean matrix of high-valued coordinates."""
        return np.isclose(self.dist.values, self.high)

    @property
    def m(self) -> int:
        return self.dist.m


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
    # every item at the high value, the price the hit-count score assumes
    return Menu(np.eye(problem.m)[items], np.full(len(items), problem.high))


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


def brute_force_k_menu(problem: KMenuProblem) -> tuple[tuple[int, ...], float]:
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
    if count > BRUTE_FORCE_BUDGET:
        raise BudgetExceededError(f"C({m},{k}) exceeds budget {BRUTE_FORCE_BUDGET}")
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
