"""The lottery half of the k-menu MAXREV soundness argument, as test oracles.

:mod:`menuforge.maxrev` runs the hitting-set reduction and scores item
sets; the functions here bound what a lottery menu can earn on the same
two-leveled instance.  For a menu M of at most k lotteries they form the
chain

    Rev(M) <= revenue_upper_bound(M)
           <= low + (high - low) * expected_hit_fraction(M)
           <= low + (high - low) * hit_fraction(derandomize_lotteries(M))
           <= the brute-force score of :func:`menuforge.maxrev.brute_force_k_menu`,

so no k-lottery menu beats the best size-k item set's score.  Each link
has a fuzz test in ``test_maxrev.py``.
"""

import numpy as np

from menuforge.core import Menu, weighted_sum
from menuforge.maxrev import KMenuProblem


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
    X = menu.lotteries
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
    hm = np.clip(menu.lotteries @ problem.sets.T, 0.0, 1.0)
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
    best = np.max(np.clip(menu.lotteries @ problem.sets.T, 0.0, 1.0), axis=0, initial=0.0)
    return float(problem.low + (problem.high - problem.low) * weighted_sum(problem.dist.weights, best))
