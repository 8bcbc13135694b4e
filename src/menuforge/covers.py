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
The powers (1-eps)^t come from one builder, :func:`float_powers`, which
takes Python's float powers, not ``np.power``'s, whose last ulp depends
on the CPU's SIMD path, so every host rounds alike.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import ValidationError, check_lotteries, from_tail_form, to_tail_form

COVER_KINDS = ("additive", "multiplicative", "monotone_tail")
ENUMERATION_BUDGET = 1_000_000  # most predicted lotteries enumerate_cover lists one by one
# most decimal digits of a count enumerate_cover computes: Python's default
# limit on converting an int to a string
MAX_COUNT_DIGITS = 4300


@dataclass(frozen=True)
class CoverSpec:
    """Which grid, at which resolution.  H is ignored by the additive kind."""

    kind: str
    epsilon: float
    m: int
    H: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.H):
            raise ValidationError(f"H must be finite, not {self.H}")
        if self.kind not in COVER_KINDS:
            raise ValidationError(f"unknown cover kind {self.kind!r}")
        if not (0.0 < self.epsilon < 1.0):
            raise ValidationError("epsilon must lie in (0, 1)")
        if 1.0 - self.epsilon == 1.0:  # the grid's ratio 1 - epsilon would be 1, its levels endless
            raise ValidationError(f"epsilon={self.epsilon} is too small: 1 - epsilon rounds to 1")
        if self.m < 1:
            raise ValidationError("m must be at least 1")
        if self.H < 1.0:
            raise ValidationError("H must be at least 1")


def float_powers(base: float, exponents) -> np.ndarray:
    """``base ** t`` for each exponent t, as a float array.

    Each power is Python's float pow, which, unlike ``np.power``, does not
    depend on NumPy's SIMD dispatch; an integer exponent and the same
    value as a float give the same bits, so every caller gets one table."""
    base = float(base)
    return np.array([base ** float(t) for t in exponents], dtype=float)


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
    exps, at = np.unique(t, return_inverse=True)  # the powers of the exponents present
    val = float_powers(base, exps)[at.reshape(t.shape)]
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


def _additive_steps(spec: CoverSpec) -> int:
    """g, the largest multiple of the additive step eps/m on the grid."""
    return int(math.floor(spec.m / spec.epsilon + 1e-9))


def grid_values(spec: CoverSpec) -> np.ndarray:
    """The per-coordinate (additive, multiplicative) or per-tail (monotone)
    value set of the grid, descending, including 0."""
    if spec.kind == "additive":
        vals = np.arange(_additive_steps(spec), -1, -1, dtype=float) * (spec.epsilon / spec.m)
        return vals[vals <= 1.0 + 1e-12]
    return np.concatenate([float_powers(1.0 - spec.epsilon, range(_t_max(spec) + 1)), [0.0]])


def _grid_size(spec: CoverSpec) -> int:
    """``len(grid_values(spec))``, without building the grid: only the
    additive grid's largest step can exceed 1 + 1e-12."""
    if spec.kind == "additive":
        g = _additive_steps(spec)
        return g + 1 if float(g) * (spec.epsilon / spec.m) <= 1.0 + 1e-12 else g
    return _t_max(spec) + 2


@dataclass(frozen=True)
class CoverEnumeration:
    count: int
    lotteries: np.ndarray | None   # None when only the count was computed
    exact_count: bool              # False when count is a combinatorial upper bound


def _count_digits(spec: CoverSpec, size: int) -> int:
    """Decimal digits of the lottery count, from logs, without the count.

    The exact kinds count comb(n, k), n = size + m - 1, with k the smaller
    of m and size - 1: m values from the grid as a multiset (monotone
    tails), or as the step counts of an additive lottery, which add up to
    at most size - 1.  For k up to MAX_COUNT_DIGITS / log10(2) the log is
    the sum over i < k of log10((n - i) / (i + 1)), precise for any n.
    Past that, n >= 2k makes the count at least 2^k, beyond the limit,
    and lgamma gives its size.
    """
    if spec.kind == "multiplicative":
        log10_count = spec.m * math.log10(size)
    else:
        n, k = size + spec.m - 1, min(spec.m, size - 1)
        if k * math.log10(2.0) <= MAX_COUNT_DIGITS:
            log10_count = math.fsum(math.log10(n - i) - math.log10(i + 1) for i in range(k))
        else:
            log10_count = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(10.0)
    return math.floor(log10_count) + 1


def _predicted_count(spec: CoverSpec) -> tuple[int, bool]:
    """The count and whether it is exact; :class:`ValidationError` for a
    count of more than MAX_COUNT_DIGITS digits.

    The count is computed only when its log puts it within one digit of
    the limit, and then compared with the limit exactly.
    """
    size = _grid_size(spec)
    digits = _count_digits(spec, size)
    if digits <= MAX_COUNT_DIGITS + 1:
        exact = spec.kind != "multiplicative"
        count = math.comb(size + spec.m - 1, spec.m) if exact else size ** spec.m
        if count < 10 ** MAX_COUNT_DIGITS:
            return count, exact
    raise ValidationError(
        f"counting the {spec.kind} cover at epsilon={spec.epsilon}, m={spec.m} gives a number of "
        f"about {max(digits, MAX_COUNT_DIGITS + 1)} digits, more than the {MAX_COUNT_DIGITS} that can be printed"
    )


def enumerate_cover(spec: CoverSpec) -> CoverEnumeration:
    """All valid lotteries on the grid, or the count alone past
    ``ENUMERATION_BUDGET``; :class:`ValidationError` for a count of more
    than ``MAX_COUNT_DIGITS`` digits.

    Counts are exact for the additive grid (lattice points of a scaled
    simplex) and the monotone grid (nonincreasing tail tuples); for the
    multiplicative grid the budget check and the count-only fallback use
    the (#values)^m upper bound since the mass constraint has no closed
    form.  Counting reads the grid's size without building the grid.

    The additive and multiplicative lists are the coordinate products
    with mass at most 1 + 1e-12, in product order.  They are built one
    coordinate at a time, and a prefix whose mass already exceeds
    1 + 1e-9 is dropped, since no nonnegative coordinate brings it back.
    """
    predicted, exact = _predicted_count(spec)
    if predicted > ENUMERATION_BUDGET:
        return CoverEnumeration(count=predicted, lotteries=None, exact_count=exact)
    vals = grid_values(spec)
    if spec.kind == "monotone_tail":
        out = from_tail_form(np.array(list(itertools.combinations_with_replacement(vals, spec.m))))
        return CoverEnumeration(count=len(out), lotteries=out, exact_count=True)
    out = np.zeros((1, 0))
    for _ in range(spec.m):
        out = np.column_stack([np.repeat(out, len(vals), axis=0), np.tile(vals, len(out))])
        out = out[out.sum(axis=1) <= 1.0 + 1e-9]
    out = out[out.sum(axis=1) <= 1.0 + 1e-12]
    return CoverEnumeration(count=len(out), lotteries=out, exact_count=True)


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
