"""Menus, valuations, and buyer choice for single-buyer unit-demand pricing.

A mechanism for one unit-demand buyer over m items is a menu of
(lottery, price) pairs.  The buyer picks the pair maximizing
``v . x - p``; the seller's revenue is the price of the chosen pair.
The empty outcome (zero lottery, zero price) is always available, so
participation is individually rational by construction.

Conventions used throughout the package:

* a lottery is a nonnegative vector with total mass at most 1
  (partial lotteries model "no sale" residual probability);
* utility ties within ``TIE_TOL`` are resolved in favor of the higher
  price, then in favor of the earlier menu entry, with the implicit
  zero entry losing ties against explicit entries of equal price;
* that rule is written once, in the blocked choice kernel ``_choose``
  behind :func:`choose_batch` and :func:`revenue_batch`;
* all evaluation routines are pure and operate on immutable inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

TIE_TOL = 1e-9
LOTTERY_MASS_SLACK = 1e-9
_BLOCK_CELLS = 2**17  # utilities per block of the choice kernel: about 1 MB of float64

VALUE_RANGE_TAGS = ("unit_interval", "bounded", "monotone", "nonneg")


class ValidationError(ValueError):
    """An object violates one of its declared invariants."""


class DimensionMismatchError(ValidationError):
    """Two objects that must share the item count m do not."""


def _as_vector(values, name: str) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.ndim != 1 or a.size < 1:
        raise ValidationError(f"{name} must be a 1-D vector with at least one entry")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} contains non-finite entries")
    return a


def _check_dims(m_a: int, m_b: int) -> None:
    if m_a != m_b:
        raise DimensionMismatchError(f"item counts differ: {m_a} vs {m_b}")


@dataclass(frozen=True)
class Valuation:
    """A buyer type: per-item values plus the assumed value-range class.

    The tag records which class the valuation is supposed to live in
    ("unit_interval" for [0,1]^m, "bounded" for [1,H]^m, "monotone" for
    nondecreasing values in [1,H]^m, "nonneg" for anything nonnegative).
    Range checks run in :meth:`validate`, not in the constructor, so
    intermediate data (e.g. 0-valued coordinates of the overfitting
    family) stays representable.
    """

    values: np.ndarray
    tag: str = "nonneg"
    H: float = float("inf")

    def __post_init__(self):
        v = _as_vector(self.values, "values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return self.values.size

    def validate(self) -> "Valuation":
        if self.tag not in VALUE_RANGE_TAGS:
            raise ValidationError(f"unknown value range tag {self.tag!r}")
        v = self.values
        if np.any(v < 0):
            raise ValidationError("valuation has negative entries")
        if self.tag == "unit_interval" and np.any(v > 1 + 1e-12):
            raise ValidationError("unit_interval valuation exceeds 1")
        if self.tag in ("bounded", "monotone"):
            if np.any(v < 1 - 1e-12) or np.any(v > self.H * (1 + 1e-12)):
                raise ValidationError(f"{self.tag} valuation leaves [1, H]")
        if self.tag == "monotone" and np.any(np.diff(v) < 0):
            raise ValidationError("monotone valuation decreases")
        return self

    def to_json_dict(self) -> dict:
        return {"values": [float(x) for x in self.values]}

    @classmethod
    def from_json_dict(cls, d: dict, tag: str = "nonneg", H: float = float("inf")) -> "Valuation":
        return cls(_as_vector(d["values"], "values"), tag=tag, H=H).validate()


@dataclass(frozen=True)
class Lottery:
    """A partial probability vector over items: entries >= 0, sum <= 1."""

    probs: np.ndarray

    def __post_init__(self):
        p = _as_vector(self.probs, "probs")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def m(self) -> int:
        return self.probs.size

    def validate(self) -> "Lottery":
        p = self.probs
        if np.any(p < 0):
            raise ValidationError("lottery has negative probabilities")
        if p.sum() > 1.0 + LOTTERY_MASS_SLACK:
            raise ValidationError(f"lottery mass {p.sum()} exceeds 1")
        return self


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


@dataclass(frozen=True)
class MenuEntry:
    """One menu line: a lottery and its price.

    Invariant (checked by :meth:`validate`): a zero price is only allowed
    on the all-zero lottery, so "free" allocations cannot occur.
    """

    lottery: np.ndarray
    price: float

    def __post_init__(self):
        x = _as_vector(self.lottery, "lottery")
        x.setflags(write=False)
        object.__setattr__(self, "lottery", x)
        object.__setattr__(self, "price", float(self.price))

    @property
    def m(self) -> int:
        return self.lottery.size

    def validate(self) -> "MenuEntry":
        Lottery(self.lottery).validate()
        if self.price < 0:
            raise ValidationError("negative price")
        if self.price == 0 and np.any(self.lottery != 0):
            raise ValidationError("zero price on a non-zero lottery")
        return self


class Menu:
    """An ordered list of menu entries, stored as arrays for fast evaluation.

    The implicit zero entry is never stored; choice routines inject it.
    ``size`` is the menu complexity (number of explicit entries).  Prices
    are nonnegative: the constructor rejects a negative one.
    """

    __slots__ = ("lotteries", "prices")

    def __init__(self, lotteries, prices):
        L = np.asarray(lotteries, dtype=float)
        P = np.asarray(prices, dtype=float)
        if L.ndim != 2:
            L = L.reshape(len(P), -1)
        if L.shape[0] != P.shape[0]:
            raise ValidationError("lottery rows and prices disagree in length")
        if np.any(P < 0):
            raise ValidationError("negative price")
        L.setflags(write=False)
        P.setflags(write=False)
        self.lotteries = L
        self.prices = P

    @classmethod
    def from_entries(cls, entries: Iterable[MenuEntry | tuple]) -> "Menu":
        ents = [e if isinstance(e, MenuEntry) else MenuEntry(e[0], e[1]) for e in entries]
        if not ents:
            # the item count cannot be read off no entries
            raise ValidationError("no menu entries; use Menu.empty(m) for an empty menu")
        return cls(np.array([e.lottery for e in ents]), np.array([e.price for e in ents]))

    @classmethod
    def empty(cls, m: int) -> "Menu":
        return cls(np.zeros((0, m)), np.zeros(0))

    @property
    def m(self) -> int:
        return self.lotteries.shape[1]

    @property
    def size(self) -> int:
        return self.lotteries.shape[0]

    @property
    def entries(self) -> list[MenuEntry]:
        return [MenuEntry(self.lotteries[i], self.prices[i]) for i in range(self.size)]

    def validate(self) -> "Menu":
        for e in self.entries:
            e.validate()
        return self

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
        return {
            "m": self.m,
            "entries": [
                {"lottery": [float(x) for x in self.lotteries[i]], "price": float(self.prices[i])}
                for i in range(self.size)
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Menu":
        m = int(d["m"])
        ents = d.get("entries", [])
        L = np.zeros((len(ents), m))
        P = np.zeros(len(ents))
        for i, e in enumerate(ents):
            x = _as_vector(e["lottery"], "lottery")
            if x.size != m:
                raise DimensionMismatchError(f"entry {i} has {x.size} coordinates, menu declares m={m}")
            L[i] = x
            P[i] = float(e["price"])
        menu = cls(L, P)
        menu.validate()
        return menu


def save_menu(menu: Menu, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(menu.to_json_dict(), fh, sort_keys=True)
        fh.write("\n")


def load_menu(path) -> Menu:
    with open(path, "r", encoding="utf-8") as fh:
        return Menu.from_json_dict(json.load(fh))


class Choice(NamedTuple):
    """Outcome of a buyer's choice. index is -1 for the implicit zero entry."""

    index: int
    lottery: np.ndarray
    price: float
    utility: float


def utility(v, entry) -> float:
    """Buyer utility ``v . x - p`` of a single entry."""
    values = v.values if isinstance(v, Valuation) else np.asarray(v, dtype=float)
    if isinstance(entry, MenuEntry):
        x, p = entry.lottery, entry.price
    else:
        x, p = np.asarray(entry[0], dtype=float), float(entry[1])
    _check_dims(values.size, x.size)
    return float(values @ x - p)


def _choose(menu: Menu, V, tie_tol: float) -> np.ndarray:
    """The one choice kernel: chosen entry index per valuation row, -1 for the zero entry.

    The entries are sorted once by price, highest first, with a stable
    sort, so among a row's candidates (the entries within ``tie_tol`` of
    its best utility, the zero entry counting with utility 0) the first
    in sorted order has the highest price and, among equal prices, the
    earliest index.  A row takes the zero entry when no explicit entry
    is a candidate; prices are never negative, so an explicit candidate
    always wins the price tie-break against it.  Rows are evaluated in
    blocks of ``max(1, _BLOCK_CELLS // K)`` for K entries, so the working
    memory is O(block * K), independent of the number of rows n.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    idx = np.full(V.shape[0], -1, dtype=int)
    if menu.size == 0:
        return idx
    if V.shape[1] != menu.m:
        raise DimensionMismatchError(f"valuations have m={V.shape[1]}, menu has m={menu.m}")
    order = np.argsort(-menu.prices, kind="stable")
    L, P = menu.lotteries[order], menu.prices[order]
    rows = max(1, _BLOCK_CELLS // menu.size)
    for s in range(0, V.shape[0], rows):
        U = V[s : s + rows] @ L.T
        U -= P
        top = U.max(axis=1)
        best = np.maximum(top, 0.0) - tie_tol
        first = (U >= best[:, None]).argmax(axis=1)
        idx[s : s + rows] = np.where(top >= best, order[first], -1)
    return idx


def choose_batch(menu: Menu, V, tie_tol: float = TIE_TOL) -> np.ndarray:
    """Chosen entry index per valuation row; -1 means the implicit zero entry.

    Among entries within ``tie_tol`` of the maximum utility (the zero
    entry counts with utility 0), the highest-priced one wins; among
    equal prices the earliest wins, with the implicit zero entry placed
    after all explicit entries.
    """
    return _choose(menu, V, tie_tol)


def choose(menu: Menu, v, tie_tol: float = TIE_TOL) -> Choice:
    """The utility-maximizing entry for one valuation (taxation principle)."""
    values = v.values if isinstance(v, Valuation) else np.asarray(v, dtype=float)
    i = int(choose_batch(menu, values[None, :], tie_tol)[0])
    if i < 0:
        return Choice(-1, np.zeros(menu.m), 0.0, 0.0)
    x = menu.lotteries[i]
    p = float(menu.prices[i])
    return Choice(i, x, p, float(values @ x - p))


def revenue_batch(menu: Menu, V, tie_tol: float = TIE_TOL) -> np.ndarray:
    """Per-valuation payment: the price of the chosen entry, 0 for the zero entry."""
    # index -1, the zero entry, reads the appended price 0
    return np.append(menu.prices, 0.0)[_choose(menu, V, tie_tol)]


def revenue(menu: Menu, v, tie_tol: float = TIE_TOL) -> float:
    values = v.values if isinstance(v, Valuation) else np.asarray(v, dtype=float)
    return float(revenue_batch(menu, values[None, :], tie_tol)[0])


def expected_revenue(menu: Menu, dist, tie_tol: float = TIE_TOL) -> float:
    """Exact expected revenue over an explicit distribution."""
    w = np.asarray(dist.weights, dtype=float)
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValidationError(f"weights sum to {w.sum()}, expected 1")
    return float(w @ revenue_batch(menu, dist.values, tie_tol))


def estimate_revenue(menu: Menu, sampler, n: int, seed: int, tie_tol: float = TIE_TOL) -> tuple[float, float]:
    """Monte Carlo revenue over n i.i.d. draws: (mean, standard error).

    Deterministic for a fixed seed; the sampler's own stream is untouched.
    By convention the standard error is 0 when n == 1.
    """
    if n < 1:
        raise ValidationError("n must be at least 1")
    rng = np.random.default_rng(seed)
    V = sampler.draw(n, rng)
    r = revenue_batch(menu, V, tie_tol)
    mean = float(r.mean())
    stderr = 0.0 if n == 1 else float(r.std(ddof=1) / np.sqrt(n))
    return mean, stderr
