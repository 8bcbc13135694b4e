"""Lottery epsilon-covers: finite grids of lotteries with round-down maps.

Three grids are implemented, each certified for a valuation class:

* additive: every coordinate a multiple of eps/m.  For v in [0,1]^m the
  rounded lottery satisfies |v.x - v.x'| <= eps.
* multiplicative: every non-zero coordinate an integer power of (1-eps)
  in [eps/(H m), 1], zero below.  For v in [1,H]^m the rounded lottery
  x~ satisfies  v.x >= v.x~ >= (1-eps) v.x - eps.
* monotone_tail: the tail-probability form of the lottery is rounded
  down into powers of (1-eps) in [eps/H, 1].  The same two-sided bound
  holds for all monotone v in [1,H]^m.

Grid membership is decided in exponent space (store t, compare logs), so
round-down is idempotent and exact on grid points despite float powers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import ValidationError, check_lotteries, from_tail_form, to_tail_form

COVER_KINDS = ("additive", "multiplicative", "monotone_tail")


@dataclass(frozen=True)
class CoverSpec:
    """Which grid, at which resolution.  H is ignored by the additive kind."""

    kind: str
    epsilon: float
    m: int
    H: float = 1.0

    def __post_init__(self):
        if self.kind not in COVER_KINDS:
            raise ValidationError(f"unknown cover kind {self.kind!r}")
        if not (0.0 < self.epsilon < 1.0):
            raise ValidationError("epsilon must lie in (0, 1)")
        if self.m < 1:
            raise ValidationError("m must be at least 1")
        if self.H < 1.0:
            raise ValidationError("H must be at least 1")


def _geometric_floor(spec: CoverSpec) -> float:
    if spec.kind == "multiplicative":
        return spec.epsilon / (spec.H * spec.m)
    if spec.kind == "monotone_tail":
        return spec.epsilon / spec.H
    raise ValidationError(f"{spec.kind} has no geometric grid")


def _t_max(spec: CoverSpec) -> int:
    # largest t with (1-eps)^t >= floor value
    return int(math.floor(math.log(_geometric_floor(spec)) / math.log(1.0 - spec.epsilon) + 1e-9))


def _floor_to_multiples(x: np.ndarray, step: float) -> np.ndarray:
    """Largest multiple of step that is <= x, exactly, with grid fixed points."""
    q = np.floor(x / step)
    q = np.where(q * step > x, q - 1.0, q)
    q = np.where((q + 1.0) * step <= x, q + 1.0, q)
    return q * step


def _floor_to_powers(x: np.ndarray, spec: CoverSpec) -> np.ndarray:
    """Largest (1-eps)^t <= x with t in [0, t_max]; below the range maps to 0.

    The level t is decided in log space with a 1e-11 snap window, so a
    value within a hair of a grid point (log/power noise, or cumsum
    recomposition noise in the tail-form round trip) counts as on it.
    That keeps round-down closed on grid points and bitwise idempotent.
    """
    eps = spec.epsilon
    base = 1.0 - eps
    logb = math.log(base)
    tmax = _t_max(spec)
    pos = x > 0
    with np.errstate(divide="ignore"):
        t = np.ceil(np.log(np.where(pos, x, 1.0)) / logb - 1e-11)
    t = np.maximum(t, 0.0)
    val = np.power(base, t)
    return np.where(pos & (t <= tmax), val, 0.0)


def round_lottery(x, spec: CoverSpec) -> np.ndarray:
    """Round lotteries down into the spec's grid.

    Raises :class:`ValidationError` unless ``x`` holds lotteries, as
    :func:`check_lotteries` defines them.
    """
    check_lotteries(x)
    x = np.asarray(x, dtype=float)
    if spec.kind == "additive":
        return _floor_to_multiples(x, spec.epsilon / spec.m)
    if spec.kind == "multiplicative":
        return _floor_to_powers(x, spec)
    # round-down keeps the nonincreasing tails nonincreasing, so they rebuild a lottery
    return from_tail_form(_floor_to_powers(to_tail_form(x), spec))


def grid_values(spec: CoverSpec) -> np.ndarray:
    """The per-coordinate (additive, multiplicative) or per-tail (monotone)
    value set of the grid, descending, including 0."""
    if spec.kind == "additive":
        g = int(math.floor(spec.m / spec.epsilon + 1e-9))
        step = spec.epsilon / spec.m
        vals = np.arange(g, -1, -1, dtype=float) * step
        return vals[vals <= 1.0 + 1e-12]
    base = 1.0 - spec.epsilon
    vals = np.power(base, np.arange(0, _t_max(spec) + 1, dtype=float))
    return np.concatenate([vals, [0.0]])


@dataclass(frozen=True)
class CoverEnumeration:
    count: int
    lotteries: np.ndarray | None   # None when only the count was computed
    exact_count: bool              # False when count is a combinatorial upper bound


def _predicted_count(spec: CoverSpec) -> tuple[int, bool]:
    vals = grid_values(spec)
    if spec.kind == "additive":
        g = len(vals) - 1
        return math.comb(g + spec.m, spec.m), True
    if spec.kind == "monotone_tail":
        return math.comb(len(vals) + spec.m - 1, spec.m), True
    return len(vals) ** spec.m, False


def enumerate_cover(spec: CoverSpec, budget: int = 1_000_000) -> CoverEnumeration:
    """All valid lotteries on the grid, or the count alone past the budget.

    Counts are exact for the additive grid (lattice points of a scaled
    simplex) and the monotone grid (nonincreasing tail tuples); for the
    multiplicative grid the budget check and the count-only fallback use
    the (#values)^m upper bound since the mass constraint has no closed
    form.
    """
    predicted, exact = _predicted_count(spec)
    if predicted > budget:
        return CoverEnumeration(count=predicted, lotteries=None, exact_count=exact)
    vals = grid_values(spec)
    out: list[np.ndarray] = []
    if spec.kind == "monotone_tail":
        for tails in itertools.combinations_with_replacement(vals, spec.m):
            out.append(from_tail_form(np.array(tails)))
        return CoverEnumeration(count=len(out), lotteries=np.array(out), exact_count=True)
    for combo in itertools.product(vals, repeat=spec.m):
        x = np.array(combo)
        if x.sum() <= 1.0 + 1e-12:
            out.append(x)
    return CoverEnumeration(count=len(out), lotteries=np.array(out), exact_count=True)


def paper_count_envelope(spec: CoverSpec) -> float:
    """The stated asymptotic cover sizes instantiated with constant 1 and
    ceil(log2) conventions.  A sanity envelope for m >= 2, not a theorem:
    the m = 1 instantiations degenerate (m^c = 1) and are excluded.
    """
    if spec.m < 2:
        raise ValidationError("envelope is only meaningful for m >= 2")
    eps, m, H = spec.epsilon, spec.m, spec.H
    lg = lambda v: math.ceil(math.log2(v)) if v > 1 else 0
    if spec.kind == "additive":
        return float((math.floor(m / eps) + 1) ** m)
    if spec.kind == "multiplicative":
        return float(((lg(m) + lg(H) + lg(1.0 / eps)) / eps) ** m)
    return float(m ** math.ceil((lg(H) + lg(1.0 / eps)) / eps))
