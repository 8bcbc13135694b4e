"""The optimal-menu linear program for an explicitly supported distribution.

With support v_1..v_n (weights w_i) the truthful revenue-maximization
problem is linear: variables are a lottery x_i and a payment p_i per
support point, the objective is sum_i w_i p_i, and the constraints are
incentive compatibility (no type prefers another type's pair), individual
rationality, and lottery feasibility.  The optimal basic solution pools
types onto at most n distinct pairs, which :func:`extract_menu` turns
into an explicit menu.

The n(n-1) IC rows dominate the program, but almost all of them are slack
at the optimum.  :class:`MenuLP` therefore stores only the IR and mass
rows and builds IC rows on demand, and :func:`solve_lp` solves by row
generation: it starts from the IR and mass rows plus each type's nearest
neighbours' IC rows, and adds the most violated IC rows until none
outside the model is violated.  Each round reads every IC slack off one
dense n x n utility matrix, so the IC block is never assembled.  A
solution that is optimal for a relaxation and feasible for the full
program is optimal for the full program, so the loop ends with a
certificate, not a heuristic stop.  The loop also deletes IC rows that
have been slack by more than PURGE_SLACK for PURGE_ROUNDS solves in a
row, and never a row added in the last PURGE_ROUNDS rounds, since the
cost of each simplex iteration grows with the row count.  A deleted row
goes back to the pool and can be separated again, so the certificate
still covers every IC row.  The relaxation lives in one HiGHS model
(scipy's bundled handle), so every round warm-starts from the previous
basis.

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
from typing import TextIO

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core as _highs  # private scipy API, shipped since 1.15

from .core import TIE_TOL, Menu, ValidationError, weighted_sum
from .distributions import ExplicitDistribution

# IC rows per type in the first relaxation: those against its nearest types
SEED_NEIGHBOURS = 5
# most violated IC rows added per truthful type in each round
ROWS_PER_TYPE = 5
# an IC row slack by more than PURGE_SLACK in PURGE_ROUNDS solves in a row
# leaves the relaxation
PURGE_SLACK = 1e-6
PURGE_ROUNDS = 2
# per-type pairs closer than this (max over coordinates and price) are one
# menu entry in extract_menu
DEDUP_TOL = 1e-7
# candidate menus scored per block in brute_force_optimal
_GRID_CHUNK = 200_000
# the smallest primal and dual feasibility tolerance HiGHS accepts
_HIGHS_MIN_FEAS = 1e-10


class LPError(RuntimeError):
    """Solver-level failure, with status diagnostics attached."""


class LPUnboundedError(LPError):
    pass


class BudgetExceededError(RuntimeError):
    """A brute-force enumeration would exceed its combinatorial budget."""


@dataclass(frozen=True)
class MenuLP:
    """The revenue LP in scipy's A_ub x <= b_ub form, IC rows built on demand.

    Variable layout: for support point i, columns i*(m+1) .. i*(m+1)+m-1
    are the allocation x_i and column i*(m+1)+m is the payment p_i.
    Row order: the n(n-1) IC rows (i truthful vs reporting j, row id
    i*(n-1) + j - (j > i)), then n IR rows, then n lottery-mass rows.
    Payments carry the explicit upper bound sum_l v_il, which keeps the
    program bounded.

    Only the IR and mass rows are stored (``fixed``, right-hand sides
    ``b_fixed``).  :meth:`ic_rows` builds any IC rows from ``values`` and
    :meth:`ic_violations` evaluates all of them at a point; ``A_ub`` and
    ``b_ub`` assemble the whole program on first read and keep it.
    :func:`solve_lp` and :func:`dump_lp` read neither.
    """

    n: int
    m: int
    objective: np.ndarray      # coefficients of the maximization objective
    lower: np.ndarray
    upper: np.ndarray
    values: np.ndarray         # (n, m) support valuations, one row per type
    fixed: sp.csr_matrix       # the n IR rows, then the n lottery-mass rows
    b_fixed: np.ndarray

    @property
    def num_variables(self) -> int:
        return self.n * (self.m + 1)

    @property
    def num_ic_rows(self) -> int:
        return self.n * (self.n - 1)

    @property
    def num_ir_rows(self) -> int:
        return self.n

    def ic_rows(self, ids) -> sp.csr_matrix:
        """The IC rows with the given ids, in that order; each has
        right-hand side 0.

        Row (i, j) is -(v_i . x_i) + p_i + (v_i . x_j) - p_j <= 0.  It holds
        the (x, p) block of i and of j, written lower type index first so
        the column indices come out sorted.
        """
        ids = np.asarray(ids, dtype=np.int64)
        I, r = np.divmod(ids, self.n - 1)   # the inverse of _ic_row
        J = r + (r >= I)
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
        """``(A_ub @ x - b_ub)[:num_ic_rows]`` without the IC block.

        With U[i, j] = v_i . x_j - p_j, the utility of type i for pair j,
        row (i, j) reads U[i, j] - U[i, i]; dropping the diagonal leaves
        the rows in id order.
        """
        sol = x.reshape(self.n, self.m + 1)
        U = self.values @ sol[:, : self.m].T - sol[:, self.m]
        return (U - np.diag(U)[:, None])[~np.eye(self.n, dtype=bool)]

    @functools.cached_property
    def A_ub(self) -> sp.csr_matrix:
        return sp.vstack([self.ic_rows(np.arange(self.num_ic_rows)), self.fixed], format="csr")

    @functools.cached_property
    def b_ub(self) -> np.ndarray:
        return np.concatenate([np.zeros(self.num_ic_rows), self.b_fixed])


def build_lp(dist: ExplicitDistribution) -> MenuLP:
    """Assemble the revenue LP for an explicit distribution."""
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

    lower = np.zeros(nv)
    upper = np.ones(nv)
    upper[np.arange(n) * width + m] = V.sum(axis=1)
    return MenuLP(
        n=n, m=m, objective=c, lower=lower, upper=upper, values=V,
        fixed=sp.vstack([ir, mass], format="csr"), b_fixed=np.concatenate([np.zeros(n), np.ones(n)]),
    )


@dataclass(frozen=True)
class LPSolution:
    lotteries: np.ndarray     # (n, m) optimal allocation per support point
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
    """The relaxation held in one HiGHS model: added rows keep the basis,
    so each run warm-starts from the previous optimum."""

    def __init__(self, lp: MenuLP, A: sp.csr_matrix, b: np.ndarray, feas: float):
        self.lp = lp
        self.highs = _highs._Highs()
        for name, value in (
            ("output_flag", False),
            ("primal_feasibility_tolerance", feas),
            ("dual_feasibility_tolerance", feas),
        ):
            if self.highs.setOptionValue(name, value) == _highs.HighsStatus.kError:
                raise _fail(lp, "option rejected", name)
        none = np.zeros(0, dtype=np.int32)
        status = self.highs.addCols(lp.num_variables, lp.objective, lp.lower, lp.upper, 0, none, none, np.zeros(0))
        if status == _highs.HighsStatus.kError:
            raise _fail(lp, "columns rejected", "addCols")
        if self.highs.changeObjectiveSense(_highs.ObjSense.kMaximize) == _highs.HighsStatus.kError:
            raise _fail(lp, "sense rejected", "changeObjectiveSense")
        self.add(A, b)  # the first rows go in as every later round's do

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
        if status == _highs.HighsModelStatus.kUnbounded:
            raise LPUnboundedError("LP reported unbounded despite payment bounds")
        if status != _highs.HighsModelStatus.kOptimal:
            raise _fail(self.lp, status, self.highs.modelStatusToString(status))
        return np.array(self.highs.getSolution().col_value)


def _ic_row(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Row index of the IC row "type i does not prefer type j's pair"."""
    return i * (n - 1) + j - (j > i)


def _neighbour_ic_rows(lp: MenuLP) -> np.ndarray:
    """IC rows of each type against its SEED_NEIGHBOURS nearest types."""
    n = lp.n
    k = min(SEED_NEIGHBOURS, n - 1)
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    V = lp.values
    sq = np.einsum("ij,ij->i", V, V)
    dist = sq[:, None] + sq[None, :] - 2.0 * (V @ V.T)
    np.fill_diagonal(dist, np.inf)
    nearest = np.argpartition(dist, k - 1, axis=1)[:, :k]
    return _ic_row(n, np.arange(n)[:, None], nearest).ravel()


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


def solve_lp(lp: MenuLP, tol: float = 1e-7) -> LPSolution:
    """Solve to an optimal basic solution within ``tol`` of the optimum.

    Row generation over the IC rows, with HiGHS feasibility tolerances
    ``feas = min(tol * 1e-2, 1e-9)``.  The first relaxation holds every
    column and bound, the IR and mass rows, and each type's IC rows
    against its SEED_NEIGHBOURS nearest types in value space.  Each round
    solves the relaxation, reads all n(n-1) IC slacks off one n x n
    utility matrix (:meth:`MenuLP.ic_violations`), and adds up to
    ROWS_PER_TYPE of the most violated rows per truthful type, built by
    :meth:`MenuLP.ic_rows`; the IC block itself is never assembled.
    Only rows not yet in the model are separated: HiGHS holds its own
    rows only to ``feas``, so a model row can read as violated and must
    not be added again.  The loop stops
    when no row outside the model is violated by more than ``feas``.  The
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
    each round warm-starts from the last basis.  Unboundedness cannot
    occur with the payment bounds in place but is still mapped to
    :class:`LPUnboundedError`; any other non-optimal status raises
    :class:`LPError`.  A ``tol`` that is NaN, infinite or
    under 1e-8, where ``feas`` would fall below ``_HIGHS_MIN_FEAS``, the
    least HiGHS accepts, raises :class:`ValidationError` before anything
    is solved.
    """
    n_ic = lp.num_ic_rows
    feas = min(tol * 1e-2, 1e-9)
    if not (math.isfinite(tol) and feas >= _HIGHS_MIN_FEAS):
        raise ValidationError(f"tol={tol!r} must be a finite number of at least {_HIGHS_MIN_FEAS * 1e2:g}")
    n_fixed = lp.b_fixed.size                   # IR and mass rows, first and never deleted
    model = np.unique(_neighbour_ic_rows(lp))   # IC row id at each model position after them
    relaxation = _WarmHighs(
        lp, sp.vstack([lp.fixed, lp.ic_rows(model)], format="csr"),
        np.concatenate([lp.b_fixed, np.zeros(model.size)]), feas,
    )
    streak = np.zeros(model.size, dtype=np.int64)
    k = min(ROWS_PER_TYPE, lp.n - 1)
    rounds = purged = 0
    while True:
        x = relaxation.solve()
        rounds += 1
        if n_ic == 0:
            break
        violation = lp.ic_violations(x)
        streak, drop = _purge(streak, -violation[model])
        violation[model] = -np.inf
        violation = violation.reshape(lp.n, lp.n - 1)
        worst = np.argpartition(-violation, k - 1, axis=1)[:, :k]
        violated = np.take_along_axis(violation, worst, axis=1) > feas
        rows = (np.arange(lp.n)[:, None] * (lp.n - 1) + worst)[violated]
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
        lotteries=sol[:, : lp.m].copy(),
        payments=sol[:, lp.m].copy(),
        objective=weighted_sum(lp.objective, x),
        rounds=rounds,
        ic_rows_kept=int(model.size),
        ic_rows_purged=purged,
    )


def extract_menu(sol: LPSolution) -> Menu:
    """Deduplicate the per-type pairs of an optimal solution into a menu.

    Pairs equal within ``DEDUP_TOL`` (max over coordinates and price)
    collapse to one entry; the all-zero pair is dropped since the implicit
    zero entry covers it.  Tiny solver negatives are clipped to keep the
    menu valid.
    """
    entries: list[tuple[np.ndarray, float]] = []
    for x, p in zip(sol.lotteries, sol.payments):
        x = np.clip(x, 0.0, None)
        p = max(float(p), 0.0)
        if p <= DEDUP_TOL and np.all(x <= DEDUP_TOL):
            continue
        if any(abs(p - q) <= DEDUP_TOL and np.max(np.abs(x - y)) <= DEDUP_TOL for y, q in entries):
            continue
        entries.append((x, p))
    if not entries:
        return Menu.empty(sol.lotteries.shape[1])
    return Menu(np.array([e[0] for e in entries]), np.array([e[1] for e in entries]))


def dump_lp(lp: MenuLP, out: TextIO) -> None:
    """Write the LP in sparse text form to the text stream ``out``.

    The form is for cross-checking against external solvers.  First line:
    "maximize" and the objective coefficients.  Then one line per
    constraint row of ``A_ub``, "col:value ... <= b" over the row's stored
    entries (0-based column indices), then "bounds" and the variable
    bounds.  Each line is written as it is made, and the IC rows are built
    one truthful type at a time, so neither the text nor ``A_ub`` is ever
    held whole.
    """
    out.write("maximize " + " ".join(f"{v:.17g}" for v in lp.objective) + "\n")

    def emit(A: sp.csr_matrix, b: np.ndarray) -> None:
        for r in range(A.shape[0]):
            row = slice(A.indptr[r], A.indptr[r + 1])
            terms = [f"{c}:{v:.17g}" for c, v in zip(A.indices[row], A.data[row])]
            out.write(" ".join(terms + ["<=", f"{b[r]:.17g}"]) + "\n")

    for i in range(lp.n):
        emit(lp.ic_rows(np.arange(i * (lp.n - 1), (i + 1) * (lp.n - 1))), np.zeros(lp.n - 1))
    emit(lp.fixed, lp.b_fixed)
    out.write("bounds " + " ".join(f"[{lo:.17g},{hi:.17g}]" for lo, hi in zip(lp.lower, lp.upper)) + "\n")


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


def brute_force_optimal(
    dist: ExplicitDistribution,
    price_grid,
    lottery_grid,
    budget: int = 5_000_000,
) -> tuple[Menu, float]:
    """Best grid-restricted menu of at most n entries, by exhaustive search.

    Menus are subsets of the grid pair set; each candidate is scored by
    exact buyer simulation (choice with tie-breaking) on the distribution,
    so incentive compatibility and rationality hold by construction.  The
    result lower-bounds the LP optimum and approaches it as grids refine.
    """
    V, w = dist.values, dist.weights
    n, m = V.shape
    L, P = _grid_pairs(m, price_grid, lottery_grid)
    npairs = len(P)
    total = sum(math.comb(npairs, s) for s in range(1, n + 1))
    if total > budget:
        raise BudgetExceededError(f"{total} candidate menus exceed budget {budget}")

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
