"""Reference computations the benchmark checks menuforge's outputs against.

Everything here is written apart from the program: buyer choice, revenue,
the item-pricing baseline and a dense form of the menu LP.  The tie rule is
the one the ``menuforge.core`` docstring states: among entries within the
tie tolerance of the best utility (the implicit zero entry counting with
utility 0), the highest price wins; among equal prices the earliest entry
wins, and the zero entry comes after every explicit entry.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

TIE_TOL = 1e-9


def choice_loop(lotteries, prices, v, tie_tol=TIE_TOL):
    """(chosen index, payment) for one buyer, by a plain loop over entries."""
    utilities = [float(np.dot(v, x)) - float(p) for x, p in zip(lotteries, prices)]
    best = max([0.0] + utilities)
    chosen, chosen_price = -1, None
    for j, (u, p) in enumerate(zip(utilities, prices)):
        if u >= best - tie_tol and (chosen_price is None or p > chosen_price):
            chosen, chosen_price = j, float(p)
    return chosen, (0.0 if chosen < 0 else chosen_price)


def payments(lotteries, prices, V, tie_tol=TIE_TOL):
    """Per-buyer payment for a batch, vectorized; the same rule as choice_loop."""
    V = np.atleast_2d(V)
    if len(prices) == 0:
        return np.zeros(V.shape[0])
    U = V @ np.asarray(lotteries).T - np.asarray(prices)
    best = np.maximum(U.max(axis=1), 0.0)
    offered = U >= (best - tie_tol)[:, None]
    top = np.where(offered, prices, -np.inf).max(axis=1)
    return np.where(np.isfinite(top), top, 0.0)


def mean_and_se(pay):
    """Mean payment of a batch and its standard error."""
    return float(pay.mean()), float(pay.std(ddof=1) / math.sqrt(len(pay)))


def pooled(estimates, shared_draws):
    """(mean, standard error) of the average of several (mean, se) estimates.

    Menus scored on the same fresh draws are positively correlated, so their
    standard errors are averaged, an upper bound; independent batches add in
    quadrature.
    """
    means, ses = zip(*estimates)
    if shared_draws:
        se = sum(ses) / len(ses)
    else:
        se = math.sqrt(sum(x * x for x in ses)) / len(ses)
    return sum(means) / len(means), se


def doubling_item_revenue(V, w, H):
    """Best revenue over the menus selling every item at one price 1, 2, 4, ..."""
    top = V.max(axis=1)
    levels = max(0, math.ceil(math.log2(H) - 1e-12))
    return max(float(w @ (p * (top >= p - TIE_TOL))) for p in (2.0 ** j for j in range(levels + 1)))


def dense_lp_objective(V, w):
    """Optimal revenue of the truthful menu LP, written out densely.

    Variables per type i: lottery x_i (m entries in [0, 1]) and payment
    p_i >= 0.  Rows: incentive compatibility for every ordered pair,
    individual rationality, and lottery mass at most 1.
    """
    n, m = V.shape
    width = m + 1
    rows, rhs = [], []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            r = np.zeros(n * width)
            r[i * width : i * width + m] -= V[i]
            r[i * width + m] += 1.0
            r[j * width : j * width + m] += V[i]
            r[j * width + m] -= 1.0
            rows.append(r)
            rhs.append(0.0)
    for i in range(n):
        r = np.zeros(n * width)
        r[i * width : i * width + m] = -V[i]
        r[i * width + m] = 1.0
        rows.append(r)
        rhs.append(0.0)
        r = np.zeros(n * width)
        r[i * width : i * width + m] = 1.0
        rows.append(r)
        rhs.append(1.0)
    c = np.zeros(n * width)
    c[m::width] = -np.asarray(w)
    bounds = [(0.0, 1.0) if col % width < m else (0.0, None) for col in range(n * width)]
    res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -float(res.fun)


def ipm_objective(menu_lp):
    """Interior-point re-solve of the program's own LP arrays."""
    res = linprog(
        -menu_lp.objective,
        A_ub=menu_lp.A_ub,
        b_ub=menu_lp.b_ub,
        bounds=np.column_stack([menu_lp.lower, menu_lp.upper]),
        method="highs-ipm",
    )
    if res.status != 0:
        raise RuntimeError(f"interior-point re-solve failed: {res.message}")
    return -float(res.fun)


def price1_overfit_revenue(m, delta):
    """Exact revenue of the price-1 item menu on the overfitting family."""
    return 1.0 - (1.0 - delta - delta / m) ** m


def price1_check(observed, n_draws, m, delta, what):
    """Pooled Monte Carlo mean against the exact value, within 4 standard errors.

    Returns a problem string, or None when the check holds.
    """
    exact = price1_overfit_revenue(m, delta)
    se = math.sqrt(exact * (1.0 - exact) / n_draws)
    if abs(observed - exact) > 4.0 * se:
        return f"{what}: price-1 revenue {observed:.6f} is more than 4 SE ({se:.2e}) from {exact:.6f}"
    return None


class Checks:
    """Collects failed checks; a run is correct when none failed."""

    def __init__(self):
        self.problems = []
        self.made = 0

    def expect(self, ok, message):
        self.made += 1
        if not ok:
            self.problems.append(message)

    def add(self, problem):
        self.made += 1
        if problem is not None:
            self.problems.append(problem)
