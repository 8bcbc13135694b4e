"""Menus and buyer choice for single-buyer unit-demand pricing, as arrays.

A mechanism for one unit-demand buyer over m items is a menu of
(lottery, price) pairs, held as a (K, m) lottery matrix ``L`` and a (K,)
price vector ``P`` in a :class:`Menu`.  Buyers are the rows of an (n, m)
value matrix ``V``: buyer i's utility for entry j is ``(V @ L.T - P)[i, j]``,
the buyer picks a utility-maximizing entry, and the seller's revenue is
its price.  The empty outcome (zero lottery, zero price) is always
available, so participation is individually rational by construction.
There is no per-buyer or per-entry object; one buyer is a one-row ``V``.

Conventions used throughout the package:

* a lottery is a nonnegative row with total mass at most 1 (partial
  lotteries model "no sale" residual probability), and only the zero
  lottery may carry a zero price; the :class:`Menu` constructor checks both;
* utility ties within ``TIE_TOL`` are resolved in favor of the higher
  price, then in favor of the earlier menu entry, with the implicit
  zero entry losing ties against explicit entries of equal price;
* every program path applies that rule through one choice kernel,
  ``_choose``, behind :func:`choose_batch` and :func:`revenue_batch`.
  Only the grid-search oracle :func:`menuforge.lp.brute_force_optimal`
  restates the rule's revenue half, on its own, so that tests can check
  one copy against the other.  The kernel scores buyers in blocks,
  entry-major, with one arithmetic for every menu: the prices are folded
  into the product, so a block's utilities net of price are the (K, rows)
  matrix ``[L | -P] @ [V_block | 1].T``, one BLAS call per block, and the
  first candidate in price order is the one with the largest rank weight,
  so every reduction runs across buyers.  Which threads score the blocks,
  and the memory they use, is stated once, in ``_choose``'s docstring;
* value types copy their array inputs and freeze the copies (a
  :class:`Menu` its lotteries and prices, an ``ExplicitDistribution`` its
  values and weights), so the caller's arrays stay writable and cannot
  change those copies;
* all evaluation routines are pure and operate on immutable inputs;
* JSON enters through :func:`read_json` and :func:`json_object` and
  leaves through :func:`write_json`; a file's reader names the file in
  its errors once, through :func:`naming_file`.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

TIE_TOL = 1e-9
LOTTERY_MASS_SLACK = 1e-9
_BLOCK_CELLS = 2**17  # utilities per block of the choice kernel: about 1 MB of float64


class ValidationError(ValueError):
    """An object violates one of its declared invariants."""


class DimensionMismatchError(ValidationError):
    """Two objects that must share the item count m do not."""


def json_object(d, where: str, fields: dict, optional=()) -> dict:
    """The fields of the parsed JSON object ``d``, each read by its reader in the
    dict ``fields``; an absent field that ``optional`` names is left out.  Raises
    :class:`ValidationError` naming the first fault: ``d`` is not an object, has
    an unknown field, lacks a field, or holds a value its reader rejects."""
    if not isinstance(d, dict):
        raise ValidationError(f"{where} must be a JSON object")
    for key in d:
        if key not in fields:
            raise ValidationError(f'{where} has the unknown field "{key}"')
    for key in fields:
        if key not in d and key not in optional:
            raise ValidationError(f'{where} lacks the field "{key}"')
    out = {}
    for key, read in fields.items():
        if key in d:
            try:
                out[key] = read(d[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f'{where} field "{key}": {exc}') from None
    return out


def read_json(path):
    """The parsed contents of the JSON file at ``path``."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


@contextlib.contextmanager
def naming_file(path):
    """Within the block, a ValueError, a malformed JSON file's included,
    becomes a :class:`ValidationError` whose message starts with ``path``."""
    try:
        yield
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def write_json(path, obj) -> None:
    """``obj`` as JSON in ``path``: sorted keys on one line, then a newline.
    An object that cannot be written leaves no file."""
    Path(path).write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")


def json_value(value):
    """A JSON value as it was parsed, for a field its owner checks."""
    return value


def json_int(value) -> int:
    """A count read from JSON: an integral number, as an int.

    Booleans, strings and numbers with a fractional part are rejected, so
    ``2.7`` is an error rather than 2; ``2.0`` reads as 2.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{value!r} is not an integer")


def json_seed(value) -> int:
    """A seed read from JSON or the command line: an integral number of at
    least 0, the seeds NumPy's generators take, as an int.  Read as by
    :func:`json_int`, then a negative seed is rejected."""
    seed = json_int(value)
    if seed < 0:
        raise ValueError(f"{seed} is not a nonnegative integer")
    return seed


def sample_count(n) -> int:
    """A number of draws: an integral number of at least 1, as an int.

    Read as by :func:`json_int`, so a boolean or a number with a
    fractional part raises :class:`ValidationError` rather than being
    truncated; a NumPy scalar is read as its Python value.
    """
    try:
        count = json_int(n.item() if isinstance(n, np.generic) else n)
    except ValueError as exc:
        raise ValidationError(f"number of draws: {exc}") from None
    if count < 1:
        raise ValidationError("n must be at least 1")
    return count


def json_float(value) -> float:
    """A real number read from JSON: a finite int or float, as a float.

    Booleans and strings are rejected, so ``true`` is an error rather than
    1.0 and ``"2.5"`` an error rather than 2.5; so are the non-finite
    ``NaN`` and ``Infinity`` that Python's JSON reader accepts.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is non-finite")
    return float(value)


def json_floats(value) -> np.ndarray:
    """A list, or nested lists, of JSON numbers as a float array; every
    element is checked as by :func:`json_float`, in one pass over their
    types rather than one call per element."""
    a = np.asarray(value, dtype=float)
    items = [value]
    for _ in range(a.ndim):
        items = chain.from_iterable(items)
    bad = set(map(type, items)) - {int, float}
    if bad:
        raise ValueError(f"a {bad.pop().__name__} is not a number")
    if not np.all(np.isfinite(a)):
        raise ValueError("an element is non-finite")
    return a


def to_tail_form(probs) -> np.ndarray:
    """Cumulative-from-the-right sums of a lottery vector."""
    p = np.asarray(probs, dtype=float)
    return np.cumsum(p[..., ::-1], axis=-1)[..., ::-1]


def from_tail_form(tails) -> np.ndarray:
    """Reconstruct a lottery from tails: probs[i] = tails[i] - tails[i+1]."""
    t = np.asarray(tails, dtype=float)
    if np.any(np.diff(t, axis=-1) > 1e-12):
        raise ValidationError("tails must be nonincreasing")
    out = np.empty_like(t)
    out[..., :-1] = t[..., :-1] - t[..., 1:]
    out[..., -1] = t[..., -1]
    return out


def check_lotteries(L) -> None:
    """Raise :class:`ValidationError` unless every row of ``L`` is a
    lottery: finite, no negative probability, and mass at most
    1 + ``LOTTERY_MASS_SLACK``."""
    L = np.atleast_2d(L)
    if not np.all(np.isfinite(L)):
        raise ValidationError("lottery has a non-finite probability")
    if np.any(L < 0):
        raise ValidationError("lottery has negative probabilities")
    mass = L.sum(axis=1)
    if np.any(mass > 1.0 + LOTTERY_MASS_SLACK):
        raise ValidationError(f"lottery mass {mass.max()} exceeds 1")


class Menu:
    """An ordered menu: a (K, m) lottery matrix and a (K,) price vector.

    The implicit zero entry is never stored; choice routines inject it.
    ``size`` is the menu complexity (number of explicit entries).  The
    constructor copies its inputs, checks every entry (a finite,
    nonnegative price, a lottery that passes :func:`check_lotteries`, and
    a zero price only on the zero lottery, so "free" allocations cannot
    occur) and freezes the copies.
    """

    __slots__ = ("lotteries", "prices")

    def __init__(self, lotteries, prices):
        L = np.array(lotteries, dtype=float)
        P = np.array(prices, dtype=float)
        if L.ndim != 2 or P.shape != (L.shape[0],):
            raise ValidationError(
                "a menu needs a (K, m) lottery array and K prices; use Menu.empty(m) for an empty menu"
            )
        if not np.all(np.isfinite(P)):
            raise ValidationError("menu has a non-finite price")
        if np.any(P < 0):
            raise ValidationError("negative price")
        check_lotteries(L)
        if np.any((P == 0) & np.any(L != 0, axis=1)):
            raise ValidationError("zero price on a non-zero lottery")
        L.setflags(write=False)
        P.setflags(write=False)
        self.lotteries = L
        self.prices = P

    @classmethod
    def empty(cls, m: int) -> "Menu":
        return cls(np.zeros((0, m)), np.zeros(0))

    @property
    def m(self) -> int:
        return self.lotteries.shape[1]

    @property
    def size(self) -> int:
        return self.lotteries.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Menu)
            and self.lotteries.shape == other.lotteries.shape
            and np.array_equal(self.lotteries, other.lotteries)
            and np.array_equal(self.prices, other.prices)
        )

    def __repr__(self) -> str:
        return f"Menu(size={self.size}, m={self.m})"

    def to_json_dict(self) -> dict:
        pairs = zip(self.lotteries.tolist(), self.prices.tolist())
        return {"m": self.m, "entries": [{"lottery": lottery, "price": price} for lottery, price in pairs]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Menu":
        d = json_object(d, "menu", {"m": json_int, "entries": json_value})
        m, ents = d["m"], d["entries"]
        if m < 1:
            raise ValidationError(f'menu field "m" is {m}; a menu needs at least one item')
        if m > np.iinfo(np.intp).max // 8:
            raise ValidationError(f'menu field "m" is {m}, more items than a NumPy array can hold')
        if not isinstance(ents, list):
            raise ValidationError('menu field "entries" must be a list')
        lotteries, prices = [], []  # the arrays are built from these, not from the declared m
        for i, e in enumerate(ents):
            e = json_object(e, f"menu entry {i}", {"lottery": json_floats, "price": json_float})
            x = e["lottery"]
            if x.shape != (m,):
                raise DimensionMismatchError(f"entry {i} has a lottery of shape {x.shape}, menu declares m={m}")
            lotteries.append(x)
            prices.append(e["price"])
        return cls(lotteries, prices) if lotteries else cls.empty(m)


def save_menu(menu: Menu, path) -> None:
    write_json(path, menu.to_json_dict())


def load_menu(path) -> Menu:
    with naming_file(path):
        return Menu.from_json_dict(read_json(path))


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _blas_runs_one_thread() -> bool:
    """Whether the environment pins OpenBLAS, the BLAS of NumPy's wheels, to
    one thread per call: ``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``,
    is 1 (OpenBLAS's own order; unset, 0 or not a number passes to the next)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads == 1
    return False


# Workers per kernel call: the calling thread and one helper thread, the widest
# count that has been timed; each worker holds its own block buffers.  Every
# block's product ``L @ V_block.T`` is a BLAS call, and a multi-threaded BLAS
# under two workers oversubscribes the CPUs (at OpenBLAS's default of one
# thread per CPU, 2 vCPUs, K=1000: 85 ms a call inline, 130-147 ms on two
# workers), so a helper is started only where BLAS runs one thread per call.
# The variables are read once: OpenBLAS reads them when NumPy loads it.
_MAX_WORKERS = 2 if _blas_runs_one_thread() else 1


def _block_buffers(K: int, rows: int, wtype, m: int) -> tuple:
    """One worker's scratch for a block of up to ``rows`` rows: the utility,
    mask and rank-weight matrices (flat, so any row count reshapes them
    contiguously), the per-row best utility and top weight, and the
    (rows, m+1) value block whose last column is ones and whose first m
    the worker overwrites with each block's values."""
    return (
        np.empty(K * rows),
        np.empty(K * rows, dtype=bool),
        np.empty(K * rows, dtype=wtype),
        np.empty(rows),
        np.empty(rows, dtype=wtype),
        np.ones((rows, m + 1)),
    )


def _score_blocks(blocks, L, w, pick, V, idx, rows, buffers) -> None:
    """Score the blocks this worker claims from ``blocks`` into ``idx``.

    ``L`` is the sorted (K, m+1) matrix ``[L | -P]``.  Runs on the calling
    thread and on the call's helper threads, so it calls NumPy only, and
    writes only into its own ``buffers`` and the claimed slices of
    ``idx``.  ``next`` on the shared range iterator is one call into C, so
    under the interpreter lock no two workers claim the same block.
    """
    U_flat, mask_flat, weight_flat, best_buf, top_buf, X = buffers
    K = L.shape[0]
    for s in blocks:
        Vb = V[s : s + rows]
        r = Vb.shape[0]
        U = U_flat[: K * r].reshape(K, r)
        Xb = X[:r]
        Xb[:, :-1] = Vb
        np.matmul(L, Xb.T, out=U)
        best = U.max(axis=0, out=best_buf[:r])
        np.maximum(best, 0.0, out=best)
        best -= TIE_TOL
        mask = np.greater_equal(U, best, out=mask_flat[: K * r].reshape(K, r))
        weight = np.multiply(mask, w, out=weight_flat[: K * r].reshape(K, r))
        np.take(pick, weight.max(axis=0, out=top_buf[:r]), out=idx[s : s + r], mode="clip")


def _choose(menu: Menu, V) -> np.ndarray:
    """The one choice kernel: chosen entry index per valuation row, -1 for the zero entry.

    The entries are sorted once by price, highest first, with a stable
    sort, so among a row's candidates (the entries within ``TIE_TOL`` of
    its best utility, the zero entry counting with utility 0) the first
    in sorted order has the highest price and, among equal prices, the
    earliest index.  Rows are scored in blocks, entry-major, and every
    menu by one arithmetic: the (K, m+1) matrix ``[L | -P]`` is built once
    in price order, each worker copies a block's values into a (rows, m+1)
    value block whose last column is ones, and one BLAS product of the two
    is the block's (K, rows) utilities net of price, so every reduction
    runs across buyers.  A block holds
    ``max(1, _BLOCK_CELLS // max(K, m + 1))`` rows, so neither the
    utilities nor the value block outgrow ``_BLOCK_CELLS`` cells.

    The sorted entries carry the rank weights K, K-1, ..., 1, and each
    buyer's largest weight among its candidates names the first
    candidate; weight 0, no explicit candidate, names the zero entry.
    Prices are never negative, so an explicit candidate always wins the
    price tie-break against the zero entry.

    Threads: at most ``_MAX_WORKERS`` workers score the blocks, each
    claiming its next block from one shared iterator.  That is two where
    BLAS runs one thread per call (``OPENBLAS_NUM_THREADS=1``), else one.
    A call with one block, in a process whose affinity mask holds one CPU
    (``taskset`` sets it), or where BLAS may run several threads per call,
    runs in the calling thread alone.  Otherwise the calling thread is one
    worker and the rest run in a ``ThreadPoolExecutor`` that lives for
    this call only: leaving its block joins them, so no thread outlives
    the call, and an exception raised in a helper is raised again here.
    Block boundaries and each block's arithmetic do not depend on the
    worker count, so neither does the result.

    Memory: every worker's buffers are allocated here, in the calling
    thread, before any block is scored, and the workers write into them
    and into disjoint slices of the result, so the working memory is
    O(workers * block * max(K, m + 1)), independent of the number of rows
    n and of the host's CPU count.  Letting each worker allocate its own scratch
    would delete ``_block_buffers``, but that variant read 1.0-2.8 MB
    more peak RSS on the ``sweep`` benchmark in 8 of 8 run pairs (2
    vCPUs, one BLAS thread), for a cause not isolated (a 100k-row K=5
    loop alone showed no difference), so the calling thread keeps
    allocating it.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    n, K, m = V.shape[0], menu.size, menu.m
    if V.shape[1] != m:
        raise DimensionMismatchError(f"valuations have m={V.shape[1]}, menu has m={m}")
    idx = np.full(n, -1, dtype=int)
    if K == 0:
        return idx
    order = np.argsort(-menu.prices, kind="stable")
    L = np.hstack((menu.lotteries[order], -menu.prices[order, None]))
    w = np.arange(K, 0, -1, dtype=np.min_scalar_type(K))[:, None]
    pick = np.concatenate(([-1], order[::-1]))  # pick[K - j] = order[j]
    rows = max(1, min(n, _BLOCK_CELLS // max(K, m + 1)))  # fewer rows than a block make one block
    blocks = range(0, n, rows)
    workers = max(1, min(len(blocks), _cpus(), _MAX_WORKERS))
    buffers = [_block_buffers(K, rows, w.dtype, m) for _ in range(workers)]
    score = partial(_score_blocks, iter(blocks), L, w, pick, V, idx, rows)
    if workers == 1:
        score(buffers[0])
        return idx
    with ThreadPoolExecutor(workers - 1, thread_name_prefix="menuforge-kernel") as pool:
        helpers = [pool.submit(score, b) for b in buffers[1:]]
        score(buffers[0])
    for f in helpers:
        f.result()
    return idx


def choose_batch(menu: Menu, V) -> np.ndarray:
    """Chosen entry index per valuation row; -1 means the implicit zero entry.

    Among entries within ``TIE_TOL`` of the maximum utility (the zero
    entry counts with utility 0), the highest-priced one wins; among
    equal prices the earliest wins, with the implicit zero entry placed
    after all explicit entries.

    A buyer within a few ulps of the edge of the ``TIE_TOL`` window can be
    picked differently in calls that score different numbers of rows: BLAS
    orders a block's sums by the block's shape, so its utilities can move
    in the last digits.  At m=64, K=65, 60k buyers built on that edge took
    entry 0 24,482 times in 2-row calls and 27,126 times in one call.
    """
    return _choose(menu, V)


def revenue_batch(menu: Menu, V) -> np.ndarray:
    """Per-valuation payment: the price of the entry :func:`choose_batch`
    picks under ``TIE_TOL``, 0 for the zero entry.

    As there, a buyer within a few ulps of the ``TIE_TOL`` window's edge
    can pay differently in calls that score different numbers of rows.
    """
    # index -1, the zero entry, reads the appended price 0
    return np.append(menu.prices, 0.0)[_choose(menu, V)]


def weighted_sum(w, x) -> float:
    """``sum(w * x)``, added up the same way whatever BLAS runs.

    NumPy's pairwise sum of the products, not a BLAS dot product: OpenBLAS
    splits a dot product of more than 10,000 elements across its threads,
    and the split moves the last digits with the thread count.
    """
    return float(np.sum(np.multiply(w, x)))


def expected_revenue(menu: Menu, dist) -> float:
    """Exact expected revenue over an explicit distribution."""
    return weighted_sum(dist.weights, revenue_batch(menu, dist.values))


def estimate_revenue(menu: Menu, sampler, n: int, seed: int) -> tuple[float, float]:
    """Monte Carlo revenue over n i.i.d. draws: (mean, standard error).

    Deterministic for a fixed seed; the sampler's own stream is untouched.
    By convention the standard error is 0 when n == 1.
    """
    r = revenue_batch(menu, sampler.draw(n, np.random.default_rng(seed)))
    mean = float(r.mean())
    stderr = 0.0 if r.size == 1 else float(r.std(ddof=1) / np.sqrt(r.size))
    return mean, stderr
