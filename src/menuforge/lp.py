"""The optimal-menu linear program for an explicitly supported distribution.

The program's types are the distribution's distinct support points: type
i is the i-th of them in lexicographic order, v_i, with weight w_i, the
sum of the weights of the rows equal to it
(:meth:`~menuforge.distributions.ExplicitDistribution.consolidated`).
With types v_1..v_n the truthful revenue-maximization problem is linear:
variables are a lottery x_i and a payment p_i per type, the objective is
sum_i w_i p_i, and the constraints are incentive compatibility (no type
prefers another type's pair), individual rationality, and lottery
feasibility.  :func:`extract_menu` makes the menu by the package's one
choice rule: the types choose among the optimal per-type pairs, and the
pairs chosen are the entries.

The n(n-1) IC rows dominate the program, but almost all of them are slack
at the optimum.  :class:`MenuLP` therefore stores only the IR and mass
rows and builds IC rows on demand, and :func:`solve_lp` solves by row
generation: it starts from the IR and mass rows plus each type's IC rows
against its nearest neighbours and against the nearest types it dominates
componentwise, and adds the most violated IC rows until none outside the
model is violated.  The dominated rows follow the screening intuition that
binding IC constraints run downward, from a type to types below it
(Rochet and Choné, 1998).  Each round reads every IC slack off one
dense n x n utility matrix, whose cell i*n + j is IC row (i, j), so the
IC block is never assembled.  A
solution that is optimal for a relaxation and feasible for the full
program is optimal for the full program, so the loop ends with a
certificate, not a heuristic stop.  The loop also deletes IC rows that
have been slack by more than PURGE_SLACK for PURGE_ROUNDS solves in a
row, and never a row added in the last PURGE_ROUNDS rounds, since the
cost of each simplex iteration grows with the row count.  A deleted row
goes back to the pool and can be separated again, so the certificate
still covers every IC row.  The relaxation lives in one HiGHS model
(scipy's bundled handle), so every round warm-starts from the previous
basis.  The accuracy is fixed: HiGHS feasibility tolerances of 1e-9
(FEAS_TOL) and an objective within 1e-7 of the optimum.  For a cross-check
by a second solver, :class:`MenuLP` also gives the whole program in
``scipy.optimize.linprog``'s form; there is no other export.

:func:`brute_force_optimal` is an independent grid-search oracle: it
enumerates small menus whose entries come from finite price and lottery
grids and scores them by simulated buyer choice.  It lower-bounds the LP
optimum and converges to it as the grids refine.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core as _highs  # private scipy API, shipped since 1.15

from .core import TIE_TOL, Menu, choose_batch, weighted_sum
from .distributions import ExplicitDistribution

# IC rows per type in the first relaxation: those against its nearest types
SEED_NEIGHBOURS = 5
# and those against its nearest types that it dominates componentwise
DOWN_NEIGHBOURS = 2
# most violated IC rows added per truthful type in each round
ROWS_PER_TYPE = 5
# an IC row slack by more than PURGE_SLACK in PURGE_ROUNDS solves in a row
# leaves the relaxation
PURGE_SLACK = 1e-6
PURGE_ROUNDS = 2
# candidate menus scored per block in brute_force_optimal
_GRID_CHUNK = 200_000
# most candidate menus brute_force_optimal will score
BRUTE_FORCE_BUDGET = 5_000_000
# HiGHS primal and dual feasibility tolerance; solve_lp also stops when no
# IC row outside the model is violated by more than this
FEAS_TOL = 1e-9


class LPError(RuntimeError):
    """Solver-level failure, with status diagnostics attached."""


class BudgetExceededError(RuntimeError):
    """A brute-force enumeration would exceed its combinatorial budget."""


@dataclass(frozen=True)
class MenuLP:
    """The revenue LP in scipy's A_ub x <= b_ub form, IC rows built on demand.

    Type i is the i-th distinct support point in lexicographic order,
    ``values[i]``.  Variable layout: for type i, columns
    i*(m+1) .. i*(m+1)+m-1 are the allocation x_i and column i*(m+1)+m is
    the payment p_i.
    IC row (i, j), i truthful vs reporting j, has id i*n + j, its cell in
    the utility matrix of :meth:`ic_violations`.  Row order: the n(n-1)
    IC rows in id order, then n IR rows, then n lottery-mass rows.
    A lottery column has no upper bound of its own: x_il >= 0 and the
    mass row sum_l x_il <= 1 imply x_il <= 1, so a weak-duality bound
    may take u = 1 on it.  A payment has the upper bound sum_l v_il,
    which its IR and mass rows imply as well; it stays because, at that
    bound, the positively priced payments give HiGHS's dual simplex a
    dual-feasible start.

    Only the IR and mass rows are stored (``fixed``, right-hand sides
    ``b_fixed``).  :meth:`ic_rows` builds any IC rows from ``values`` and
    :meth:`ic_violations` evaluates all of them at a point; ``A_ub`` and
    ``b_ub`` assemble the whole program on first read and keep it, in
    the form a second solver such as ``scipy.optimize.linprog`` takes;
    :func:`solve_lp` reads neither.
    """

    n: int
    m: int
    objective: np.ndarray      # coefficients of the maximization objective
    lower: np.ndarray
    upper: np.ndarray
    values: np.ndarray         # (n, m) distinct support points, one row per type
    fixed: sp.csr_matrix       # the n IR rows, then the n lottery-mass rows
    b_fixed: np.ndarray

    @property
    def num_variables(self) -> int:
        return self.n * (self.m + 1)

    @property
    def num_ic_rows(self) -> int:
        return self.n * (self.n - 1)

    def ic_rows(self, ids) -> sp.csr_matrix:
        """The IC rows with the given ids, in that order; each has
        right-hand side 0.

        Row (i, j) is -(v_i . x_i) + p_i + (v_i . x_j) - p_j <= 0.  It holds
        the (x, p) block of i and of j, written lower type index first so
        the column indices come out sorted.
        """
        ids = np.asarray(ids, dtype=np.int64)
        I, J = np.divmod(ids, self.n)
        m = self.m
        width = m + 1
        block = np.arange(width)
        cols = np.empty((ids.size, 2, width), dtype=np.int64)
        cols[:, 0] = np.minimum(I, J)[:, None] * width + block
        cols[:, 1] = np.maximum(I, J)[:, None] * width + block
        data = np.empty((ids.size, 2, width))
        data[:, 0, :m] = self.values[I]
        data[:, 0, m] = -1.0
        data[:, 0] *= np.where(I < J, -1.0, 1.0)[:, None]
        data[:, 1] = -data[:, 0]
        indptr = np.arange(ids.size + 1) * 2 * width
        return sp.csr_matrix((data.ravel(), cols.ravel(), indptr), shape=(ids.size, self.num_variables))

    def ic_violations(self, x: np.ndarray) -> np.ndarray:
        """The (n, n) matrix whose cell i*n + j is IC row (i, j)'s
        ``A_ub @ x - b_ub``, computed without the IC block.

        With U[i, j] = v_i . x_j - p_j, the utility of type i for pair j,
        row (i, j) reads U[i, j] - U[i, i], so the diagonal is 0.
        """
        sol = x.reshape(self.n, self.m + 1)
        U = self.values @ sol[:, : self.m].T - sol[:, self.m]
        return U - np.diag(U)[:, None]

    @functools.cached_property
    def A_ub(self) -> sp.csr_matrix:
        return sp.vstack([self.ic_rows(np.flatnonzero(~np.eye(self.n, dtype=bool))), self.fixed], format="csr")

    @functools.cached_property
    def b_ub(self) -> np.ndarray:
        return np.concatenate([np.zeros(self.num_ic_rows), self.b_fixed])


def build_lp(dist: ExplicitDistribution) -> MenuLP:
    """Assemble the revenue LP for an explicit distribution.

    Type i is the i-th distinct support point in lexicographic order, with
    the summed weight of its repeats: repeated rows are one valuation, and
    as separate types they would only multiply the IC rows.
    """
    dist = dist.consolidated()
    V = dist.values
    w = dist.weights
    n, m = V.shape
    width = m + 1
    nv = n * width

    c = np.zeros(nv)
    c[np.arange(n) * width + m] = w

    # IR rows: -(v_i . x_i) + p_i <= 0
    rows = np.repeat(np.arange(n), width)
    cols = (np.arange(n) * width)[:, None] + np.arange(width)[None, :]
    data = np.hstack([-V, np.ones((n, 1))])
    ir = sp.csr_matrix((data.ravel(), (rows, cols.ravel())), shape=(n, nv))

    # lottery mass rows: sum_l x_il <= 1
    rows = np.repeat(np.arange(n), m)
    cols = (np.arange(n) * width)[:, None] + np.arange(m)[None, :]
    mass = sp.csr_matrix((np.ones(n * m), (rows, cols.ravel())), shape=(n, nv))

    # x_il <= 1 follows from x >= 0 and the mass rows, so lottery columns
    # have no upper bound of their own
    lower = np.zeros(nv)
    upper = np.full(nv, np.inf)
    upper[np.arange(n) * width + m] = V.sum(axis=1)
    return MenuLP(
        n=n, m=m, objective=c, lower=lower, upper=upper, values=V,
        fixed=sp.vstack([ir, mass], format="csr"), b_fixed=np.concatenate([np.zeros(n), np.ones(n)]),
    )


@dataclass(frozen=True)
class LPSolution:
    values: np.ndarray        # (n, m) types the program was built on, MenuLP.values
    lotteries: np.ndarray     # (n, m) optimal allocation per type
    payments: np.ndarray      # (n,)
    objective: float
    rounds: int               # relaxations solved by the row-generation loop
    ic_rows_kept: int         # IC rows in the final relaxation
    ic_rows_purged: int       # IC row deletions over the loop; a row can go twice


def _fail(lp: MenuLP, status, message) -> LPError:
    # IC rows hold +-v_il and +-1, which the IR rows hold too, so the
    # fixed rows carry the coefficient range of the whole program
    coeffs = np.abs(lp.fixed.data)
    return LPError(
        f"LP solve failed: status={status} message={message!r} "
        f"coeff range [{coeffs.min():.3g}, {coeffs.max():.3g}]"
    )


class _WarmHighs:
    """The relaxation in one HiGHS model, IR and mass rows first: added
    rows keep the basis, so each run warm-starts from the previous optimum."""

    def __init__(self, lp: MenuLP):
        self.lp = lp
        self.highs = _highs._Highs()
        for name, value in (
            ("output_flag", False),
            ("primal_feasibility_tolerance", FEAS_TOL),
            ("dual_feasibility_tolerance", FEAS_TOL),
        ):
            if self.highs.setOptionValue(name, value) == _highs.HighsStatus.kError:
                raise _fail(lp, "option rejected", name)
        none = np.zeros(0, dtype=np.int32)
        status = self.highs.addCols(lp.num_variables, lp.objective, lp.lower, lp.upper, 0, none, none, np.zeros(0))
        if status == _highs.HighsStatus.kError:
            raise _fail(lp, "columns rejected", "addCols")
        if self.highs.changeObjectiveSense(_highs.ObjSense.kMaximize) == _highs.HighsStatus.kError:
            raise _fail(lp, "sense rejected", "changeObjectiveSense")
        self.add(lp.fixed, lp.b_fixed)

    def add(self, A: sp.csr_matrix, b: np.ndarray) -> None:
        status = self.highs.addRows(
            A.shape[0], np.full(A.shape[0], -np.inf), b, A.nnz,
            A.indptr[:-1].astype(np.int32), A.indices.astype(np.int32), A.data,
        )
        if status == _highs.HighsStatus.kError:
            raise _fail(self.lp, "rows rejected", "addRows")

    def delete(self, positions: np.ndarray) -> None:
        """Delete rows by model position; HiGHS closes the gaps in order."""
        status = self.highs.deleteRows(positions.size, positions.astype(np.int32))
        if status == _highs.HighsStatus.kError:
            raise _fail(self.lp, "rows rejected", "deleteRows")

    def solve(self) -> np.ndarray:
        self.highs.run()
        status = self.highs.getModelStatus()
        if status != _highs.HighsModelStatus.kOptimal:
            raise _fail(self.lp, status, self.highs.modelStatusToString(status))
        return np.array(self.highs.getSolution().col_value)


def _nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Cell ids i*n + j of the k smallest finite entries of each row i of
    the (n, n) ``dist``, ties to the lower j by a stable sort, which no
    SIMD path reorders; a row with fewer finite entries gives them all."""
    J = np.argsort(dist, axis=1, kind="stable")[:, :k]
    hit = np.isfinite(np.take_along_axis(dist, J, axis=1))
    return (J + dist.shape[1] * np.arange(dist.shape[0])[:, None])[hit]


def _neighbour_ic_rows(lp: MenuLP) -> np.ndarray:
    """IC rows of each type i against its SEED_NEIGHBOURS nearest types and
    against its DOWN_NEIGHBOURS nearest dominated types, those j with
    v_j <= v_i in every coordinate; a row can appear twice.

    Nearest is in squared Euclidean distance, ties to the lower index.
    The dominance mask is built one coordinate at a time, so no (n, n, m)
    array is built.
    """
    V = lp.values
    sq = np.einsum("ij,ij->i", V, V)
    dist = sq[:, None] + sq[None, :] - 2.0 * (V @ V.T)
    np.fill_diagonal(dist, np.inf)
    dominated = np.ones_like(dist, dtype=bool)
    for col in V.T.copy():  # contiguous columns: about half the time at m=64
        dominated &= col[None, :] <= col[:, None]
    below = np.where(dominated, dist, np.inf)
    return np.concatenate([_nearest(dist, SEED_NEIGHBOURS), _nearest(below, DOWN_NEIGHBOURS)])


def _purge(streak: np.ndarray, slack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Advance each model IC row's run of slack solves; pick rows to delete.

    ``streak`` counts, per model row, the solves in a row that left it
    slack by more than PURGE_SLACK; ``slack`` is its slack after the
    latest solve.  Returns the new counts and the rows whose count reached
    PURGE_ROUNDS.  A row enters the model with a count of 0 and the count
    moves once per solve, so no row is deleted within PURGE_ROUNDS rounds
    of being added.  That age guard is the anti-cycling rule: a row that
    left as soon as it was separated could be separated again the next
    round, and so on without end.
    """
    streak = np.where(slack > PURGE_SLACK, streak + 1, 0)
    return streak, streak >= PURGE_ROUNDS


def solve_lp(lp: MenuLP) -> LPSolution:
    """Solve to an optimal basic solution within 1e-7 of the optimum.

    The accuracy is fixed: row generation over the IC rows, with HiGHS
    feasibility tolerances FEAS_TOL = 1e-9.  The first relaxation holds
    every column and bound, the IR and mass rows, and each type's IC rows
    against its SEED_NEIGHBOURS nearest types in value space and against
    its DOWN_NEIGHBOURS nearest types among those it dominates
    componentwise (:func:`_neighbour_ic_rows`).  The seed only sets where
    the loop starts: the optimum and the stopping test do not depend on
    it.  Each round solves the relaxation, reads all n(n-1) IC slacks off
    one n x n utility matrix (:meth:`MenuLP.ic_violations`), and adds up
    to ROWS_PER_TYPE of the most violated rows per truthful type, ties to
    the lower reported type (:func:`_nearest`, the seed's rule), built by
    :meth:`MenuLP.ic_rows`; the IC block itself is never assembled.
    Only rows not yet in the model are separated: HiGHS holds its own
    rows only to FEAS_TOL, so a model row can read as violated and must
    not be added again.  The loop stops
    when no row outside the model is violated by more than FEAS_TOL.  The
    solution is then optimal for a relaxation and feasible for the full
    LP, which certifies it optimal for the full LP.

    Before adding rows, a round deletes the model IC rows that the same
    matrix shows slack by more than PURGE_SLACK in PURGE_ROUNDS solves in
    a row (see :func:`_purge`); a row added in the last PURGE_ROUNDS
    rounds is never deleted.  Deleting rows that are slack at the current
    optimum leaves that point optimal, and a deleted row returns to the
    pool of rows outside the model, so the stopping test above still
    checks it: the certificate is unchanged.

    The relaxation is one HiGHS model through scipy's bundled handle, so
    each round warm-starts from the last basis.  The IR and mass rows are
    fixed rows that no round deletes, and with x >= 0 they bound every
    column, so no relaxation is unbounded; any non-optimal status raises
    :class:`LPError`.
    """
    n_fixed = lp.b_fixed.size                   # IR and mass rows, first and never deleted
    model = np.unique(_neighbour_ic_rows(lp))   # IC row id at each model position after them
    relaxation = _WarmHighs(lp)
    relaxation.add(lp.ic_rows(model), np.zeros(model.size))
    streak = np.zeros(model.size, dtype=np.int64)
    rounds = purged = 0
    while True:
        x = relaxation.solve()
        rounds += 1
        violation = lp.ic_violations(x)
        streak, drop = _purge(streak, -violation.flat[model])
        violation.flat[model] = -np.inf
        rows = _nearest(np.where(violation > FEAS_TOL, -violation, np.inf), ROWS_PER_TYPE)
        if rows.size == 0:
            break
        if drop.any():
            relaxation.delete(n_fixed + np.flatnonzero(drop))
            purged += int(drop.sum())
            model, streak = model[~drop], streak[~drop]
        relaxation.add(lp.ic_rows(rows), np.zeros(rows.size))
        model = np.concatenate([model, rows])
        streak = np.concatenate([streak, np.zeros(rows.size, dtype=np.int64)])
    width = lp.m + 1
    sol = x.reshape(lp.n, width)
    return LPSolution(
        values=lp.values,
        lotteries=sol[:, : lp.m].copy(),
        payments=sol[:, lp.m].copy(),
        objective=weighted_sum(lp.objective, x),
        rounds=rounds,
        ic_rows_kept=int(model.size),
        ic_rows_purged=purged,
    )


def extract_menu(sol: LPSolution) -> Menu:
    """The per-type pairs of an optimal solution that its support buys.

    Tiny solver negatives are clipped to 0 and every pair with a positive
    price is offered; the implicit zero entry stands for the rest.  Each
    type chooses among the offers by :func:`choose_batch`, and
    the pairs chosen, in type order, are the menu.  Pooled types buy the
    pool's dearest pair, so a pool is one entry; a pair no type buys is
    left out.
    """
    pairs = np.clip(np.column_stack([sol.lotteries, sol.payments]), 0.0, None)  # (n, m+1)
    offered = pairs[pairs[:, -1] > 0]
    chosen = np.unique(choose_batch(Menu(offered[:, :-1], offered[:, -1]), sol.values))
    chosen = chosen[chosen >= 0]
    return Menu(offered[chosen, :-1], offered[chosen, -1])


def _grid_pairs(m: int, price_grid, lottery_grid) -> tuple[np.ndarray, np.ndarray]:
    """All (lottery, price) pairs with entries on the grids and mass <= 1."""
    levels = np.asarray(lottery_grid, dtype=float)
    prices = np.asarray(price_grid, dtype=float)
    combos = np.array(list(itertools.product(levels, repeat=m)))
    combos = combos[combos.sum(axis=1) <= 1.0 + 1e-12]
    L = np.repeat(combos, len(prices), axis=0)
    P = np.tile(prices, len(combos))
    keep = ~((P == 0) & np.any(L != 0, axis=1))  # zero price only on the zero lottery
    return L[keep], P[keep]


def brute_force_optimal(dist: ExplicitDistribution, price_grid, lottery_grid) -> tuple[Menu, float]:
    """Best grid-restricted menu of at most n entries, by exhaustive search.

    Menus are subsets of the grid pair set; each candidate is scored by
    exact buyer simulation (choice with tie-breaking) on the distribution,
    so incentive compatibility and rationality hold by construction.  The
    scoring restates the revenue half of the choice rule in
    :mod:`menuforge.core` rather than calling its kernel, which keeps the
    oracle independent of the code it checks.  The
    result lower-bounds the LP optimum and approaches it as grids refine.
    """
    V, w = dist.values, dist.weights
    n, m = V.shape
    L, P = _grid_pairs(m, price_grid, lottery_grid)
    npairs = len(P)
    total = sum(math.comb(npairs, s) for s in range(1, n + 1))
    if total > BRUTE_FORCE_BUDGET:
        raise BudgetExceededError(f"{total} candidate menus exceed budget {BRUTE_FORCE_BUDGET}")

    U = V @ L.T - P          # (n, npairs) utility of each pair for each type
    best_rev = 0.0
    best_idx: tuple[int, ...] = ()
    for s in range(1, n + 1):
        it = itertools.combinations(range(npairs), s)
        while True:
            block = np.fromiter(itertools.chain.from_iterable(itertools.islice(it, _GRID_CHUNK)), dtype=np.int64)
            if block.size == 0:
                break
            idx = block.reshape(-1, s)                   # (B, s)
            u = U[:, idx]                                # (n, B, s)
            topu = np.maximum(u.max(axis=2), 0.0)        # (n, B)
            cand = u >= topu[:, :, None] - TIE_TOL
            pr = np.where(cand, P[idx][None, :, :], -np.inf).max(axis=2)
            rev = w @ np.maximum(pr, 0.0)                # (B,)
            b = int(np.argmax(rev))
            if rev[b] > best_rev:
                best_rev = float(rev[b])
                best_idx = tuple(int(t) for t in idx[b])
    menu = Menu(L[list(best_idx)], P[list(best_idx)]) if best_idx else Menu.empty(m)
    return menu, best_rev
