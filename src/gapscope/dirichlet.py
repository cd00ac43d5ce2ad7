"""Dirichlet polynomials on the line Re(s) = c: evaluation, unit-interval
sups, large-value classification, and the R / R* counting machinery.

A factor is one short polynomial S(s) = sum_{N < n <= 2N} a_n n^{-s} with
unit, log, or Moebius coefficients (or the singleton constant 1).

Every factor value is built from the phase rows a_n n^(-c) e^(-it log n) of
`_phase_rows`.  `eval_factor_lattice` evaluates on a lattice t = base +
offset as one matrix product per chunk of bases; `eval_factor_grid` sums
each row on its own, so a point's value does not depend on the batch it is
evaluated in.

The sup over a unit interval is approximated by G + 1 equally spaced
samples (both ends included) plus golden-section refinement around the best
sample.  For one factor the samples also prove a ceiling: P(t) = |S(c+it)|^2
has frequencies log(n/m) in (-log 2, log 2), so Bernstein's inequality for
bounded functions of exponential type (Boas, Entire Functions, 1954, ch. 11)
gives |P''| <= (A log 2)^2 with A = sum |a_n| n^(-c).  P' vanishes at an
interior maximum and some sample lies within h/2 = 1/(2G) of it, so the sup
is at most U = sqrt(s^2 + (h A log 2)^2 / 8), s the best sample
(`_sup_ceiling`, padded for float error).

Large-value classification (`classify_profile`) bins each unit interval
[m, m+1] of [T, 2T] by the dyadic band N^(1-c) 2^(-b) of every factor's sup;
below the 1/x floor it falls into the leftover class S0.  One rule bands
every active factor, alone or in a product: its sample lattice is built
once and bracketed, and its best sample s and ceiling U fix the band
wherever they share one, since s <= refined peak <= sup <= U; `_golden`
refines the factor's own bracket only for the members left in doubt.  The
lattice is then folded into the product lattice and freed.  The only product
value reported is each cell's floor V, the least refined product sup over its
members (`_cell_floors`).  A refined peak is never below its best sample, so
only members whose best sample is at most the refined sup of their cell's
lowest-sampled member can hold V, and only those are refined.  Each golden
step sends both points of every bracket to one `eval_factor_grid` call per
factor.
Bands come from numpy logs, the scalar `band_index` redoing any sup within
1e-9 of a band edge, and cells take the band rows in order of first
appearance, each with its sigmas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError
from .identity import CoefficientClass, block_support

EVAL_BUDGET = 10**7
GOLDEN = (math.sqrt(5) - 1) / 2


# ---------------------------------------------------------------------------
# Factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyFactor:
    cls: CoefficientClass
    N: Fraction
    mobius_cutoff: int | None = None  # optional truncation of the top block

    def __post_init__(self):
        if self.cls is CoefficientClass.SINGLETON:
            if self.N != Fraction(1, 2):
                raise ValueError("singleton factors have N = 1/2")
        elif self.N < 1 or self.N.denominator != 1:
            raise ValueError("non-singleton factors need integer dyadic N >= 1")
        if self.N > EVAL_BUDGET:
            raise CapacityError(f"factor length {self.N} over direct-summation budget")
        n = self.N.numerator
        if self.cls is not CoefficientClass.SINGLETON and n & (n - 1):
            raise ValueError(f"factor length N = {n} is not a power of two")

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, coefficients) of the factor, ascending and read-only."""
        return block_support(self.cls, self.N, self.mobius_cutoff)


def unit_factor(N) -> PolyFactor:
    return PolyFactor(CoefficientClass.UNIT, Fraction(N))


def log_factor(N) -> PolyFactor:
    return PolyFactor(CoefficientClass.LOG, Fraction(N))


def mobius_factor(N, cutoff: int | None = None) -> PolyFactor:
    return PolyFactor(CoefficientClass.MOBIUS, Fraction(N), cutoff)


def singleton_factor() -> PolyFactor:
    return PolyFactor(CoefficientClass.SINGLETON, Fraction(1, 2))


#: The constructor of each factor kind that takes a length N.
FACTOR_KINDS = {"unit": unit_factor, "log": log_factor, "mobius": mobius_factor}


def _phase_rows(ts: np.ndarray, logs: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """Rows mags * e^(-i t log n), one per t in ts."""
    rows = -1j * np.outer(ts, logs)
    np.exp(rows, out=rows)
    rows *= mags
    return rows


def eval_factor_lattice(
    f: PolyFactor, c: float, bases: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Factor values at t = bases[k] + offsets[j], shape (len(bases), len(offsets)).

    The phase factors as n^(-it) = n^(-i base) n^(-i offset): the offset
    phases are built once, and each chunk of bases costs N exponentials per
    base plus one matrix product.  A chunk of bases holds at most
    EVAL_BUDGET // max(N, len(offsets)) rows, and the offset phases are
    built EVAL_BUDGET // N offsets at a time.
    """
    bases = np.asarray(bases, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    ns, an = f.support()
    if len(ns) == 0:
        return np.zeros((len(bases), len(offsets)), dtype=complex)
    logs = np.log(ns.astype(np.float64))
    mags = an * np.exp(-c * logs)
    out = np.empty((len(bases), len(offsets)), dtype=complex)
    step = max(1, EVAL_BUDGET // max(len(ns), len(offsets)))
    width = max(1, EVAL_BUDGET // len(ns))
    for b in range(0, len(offsets), width):
        shifts = np.exp(-1j * np.outer(logs, offsets[b : b + width]))
        for a in range(0, len(bases), step):
            out[a : a + step, b : b + width] = _phase_rows(bases[a : a + step], logs, mags) @ shifts
    return out


def eval_factor_grid(f: PolyFactor, c: float, ts: np.ndarray) -> np.ndarray:
    """Factor values on an array of t, each the row sum of its own phase row.

    A value depends only on its t, never on the batch: numpy sums each row
    alone (pairwise), where a matrix-vector product takes a different path
    for a single row.  Rows are built EVAL_BUDGET // N at a time.
    """
    ts = np.asarray(ts, dtype=np.float64)
    ns, an = f.support()
    if len(ns) == 0:
        return np.zeros(len(ts), dtype=complex)
    logs = np.log(ns.astype(np.float64))
    mags = an * np.exp(-c * logs)
    out = np.empty(len(ts), dtype=complex)
    step = max(1, EVAL_BUDGET // len(ns))
    for a in range(0, len(ts), step):
        out[a : a + step] = _phase_rows(ts[a : a + step], logs, mags).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# Unit-interval sups
# ---------------------------------------------------------------------------

def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_sampling(c: float, samples: int, refine_iters: int, intervals: int) -> None:
    """Refuse a sup grid with bad parameters, or one over EVAL_BUDGET samples."""
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    for name, value, least in (("samples", samples, 1), ("refine_iters", refine_iters, 0)):
        if not _is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    if intervals * (samples + 1) > EVAL_BUDGET:
        raise CapacityError(f"{intervals} unit intervals of {samples + 1} samples "
                            "are over the evaluation budget")


def _bracket(vals: np.ndarray, ms: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Rows lo, hi, peak of sampled |values|: the best sample and its neighbours."""
    best = np.argmax(vals, axis=1)
    nearby = offsets[np.clip([best - 1, best + 1], 0, len(offsets) - 1)]
    return np.vstack((ms + nearby, vals[np.arange(len(ms)), best]))


def _golden(fs: Sequence[PolyFactor], c: float, lo: np.ndarray, hi: np.ndarray,
            peak: np.ndarray, refine_iters: int) -> np.ndarray:
    """Golden-section refinement of |prod fs| on every bracket [lo, hi] at once.

    Each step keeps the side of the larger point, ties going left, and
    returns the best of peak and every value met.  Both points of every
    bracket go to one eval_factor_grid call per factor, whose values do not
    depend on the batch.
    """
    for _ in range(refine_iters):
        new = np.array((hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)))
        z = np.ones(new.size, dtype=complex)
        for f in fs:
            z *= eval_factor_grid(f, c, new.ravel())
        v = np.abs(z).reshape(new.shape)
        peak = np.maximum(peak, np.maximum(v[0], v[1]))
        take_left = v[0] >= v[1]
        lo, hi = np.where(take_left, lo, new[0]), np.where(take_left, new[1], hi)
    return peak


def _sup_ceiling(f: PolyFactor, c: float, s: np.ndarray, samples: int, t_top: float) -> np.ndarray:
    """Bernstein ceiling U >= sup |f| over unit intervals whose best sample is s.

    Padded for float error by a relative 1e-12 (the square root) and
    8 A eps (len(support) + t_top log 2N): half of that bounds the rounding
    of one computed value at t <= t_top (its sum of len(support) terms and
    its phases t log n), and both s and a refined peak carry it.
    """
    ns, an = f.support()
    nf = ns.astype(np.float64)
    A = float(np.sum(np.abs(an) * nf ** -c))
    slack = 8 * A * np.finfo(np.float64).eps * (len(ns) + t_top * math.log(2 * float(f.N)))
    return np.sqrt(s * s + (A * math.log(2) / samples) ** 2 / 8) * (1 + 1e-12) + slack


# ---------------------------------------------------------------------------
# Large-value classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LargeValueProfile:
    """One magnitude cell: per-factor dyadic band indices b_i >= 0 and sigmas.

    Band b holds sups in [N^(1-c) 2^(-b), N^(1-c) 2^(1-b)), b = 0 (the top
    cell, sigma_i = 1) also holding every larger sup; sigma_i = 1 -
    b log 2 / log N_i whenever log N_i > 0, and 1 otherwise.  Singleton
    factors sit in the top cell by convention.
    """

    band_indices: tuple[int, ...]
    sigmas: tuple[float, ...]


@dataclass
class Classification:
    factors: tuple[PolyFactor, ...]
    c: float
    T: float
    cells: dict[LargeValueProfile, list[int]]
    s0: list[int]
    #: V per cell: the least refined product sup over its members (1.0 with
    #: no active factor), in the order of `cells`
    floors: dict[LargeValueProfile, float] = field(default_factory=dict)

    def total(self) -> int:
        return sum(len(v) for v in self.cells.values()) + len(self.s0)


def band_index(sup: float, N: Fraction, c: float, floor_x: float) -> int | None:
    """Dyadic band of a factor sup; None marks the S0 leftover class.

    b is the least b >= 0 with N^(1-c) 2^(-b) <= sup; sups below
    N^(1-c)/floor_x fall into S0.
    """
    top = float(N) ** (1.0 - c)
    if sup <= 0.0:
        return None
    b = max(0, math.ceil(math.log2(top / sup) - 1e-12))
    b_max = math.floor(math.log2(float(N) * floor_x) + 1e-12)
    if b > b_max:
        return None
    return b


def _bands(sups: np.ndarray, N: Fraction, c: float, floor_x: float) -> np.ndarray:
    """band_index of every sup as int64, -1 for S0; np.log2 may differ from math.log2
    in the last ulp, so sups within 1e-9 of a band edge take the scalar band_index."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.log2(float(N) ** (1.0 - c) / sups) - 1e-12
        b = np.maximum(np.ceil(x), 0.0)
        for i in np.flatnonzero(np.abs(x - np.rint(x)) < 1e-9):
            edge = band_index(float(sups[i]), N, c, floor_x)
            b[i] = np.nan if edge is None else edge
        b[~(b <= math.floor(math.log2(float(N) * floor_x) + 1e-12))] = -1
    return b.astype(np.int64)


def _cell_floors(fs: Sequence[PolyFactor], c: float, lo: np.ndarray, hi: np.ndarray,
                 s: np.ndarray, cell: np.ndarray, refine_iters: int) -> np.ndarray:
    """Least refined product sup of each cell 0, 1, ... over its members.

    A refined peak is never below its best sample s, so a member whose s is
    above the refined sup g1 of its cell's lowest-sampled member cannot hold
    the minimum: `_golden` refines those lowest members, then the members
    with s <= g1.  Its columns are independent and eval_factor_grid does not
    depend on the batch, so each floor is bitwise the minimum of the full
    refinement.
    """
    order = np.lexsort((s, cell))
    first = order[np.r_[True, cell[order[1:]] != cell[order[:-1]]]]
    floors = _golden(fs, c, lo[first], hi[first], s[first], refine_iters)
    rest = s <= floors[cell]
    rest[first] = False
    rest = np.flatnonzero(rest)
    if len(rest):
        np.minimum.at(floors, cell[rest],
                      _golden(fs, c, lo[rest], hi[rest], s[rest], refine_iters))
    return floors


def classify_profile(
    factors: Sequence[PolyFactor],
    c: float,
    T: float,
    floor_x: float | None = None,
    samples: int = 32,
    refine_iters: int = 3,
) -> Classification:
    """Assign every integer m in [T, 2T] to one profile cell or S0."""
    if not (math.isfinite(T) and T >= 1):
        raise ValueError(f"T must be finite and >= 1, got {T}")
    if floor_x is not None and not (math.isfinite(floor_x) and floor_x > 0):
        raise ValueError(f"floor_x must be finite and > 0, got {floor_x}")
    _check_sampling(c, samples, refine_iters, math.floor(2 * T) - math.ceil(T) + 1)
    fs = tuple(factors)
    ms = np.arange(math.ceil(T), math.floor(2 * T) + 1, dtype=np.int64)
    if floor_x is None:
        floor_x = max(2.0, float(math.prod(f.N for f in fs)))
    actives = [(i, f) for i, f in enumerate(fs) if f.cls is not CoefficientClass.SINGLETON]
    grid, offsets = ms.astype(np.float64), np.linspace(0.0, 1.0, samples + 1)
    bands = np.zeros((len(ms), len(fs)), dtype=np.int64)  # singletons sit in the top cell
    prod = None
    for i, f in actives:
        # s <= sup <= U: refine only members whose band [s, U] leaves in doubt,
        # then fold the lattice into the product (singletons are exactly 1)
        lattice = eval_factor_lattice(f, c, grid, offsets)
        lo, hi, s = _bracket(np.abs(lattice), grid, offsets)
        ceiling = _sup_ceiling(f, c, s, samples, float(ms[-1] + 1))
        bands[:, i], upper = _bands(np.concatenate((s, ceiling)), f.N, c, floor_x).reshape(2, -1)
        doubt = np.flatnonzero(bands[:, i] != upper)
        if len(doubt):
            peak = _golden([f], c, lo[doubt], hi[doubt], s[doubt], refine_iters)
            bands[doubt, i] = _bands(peak, f.N, c, floor_x)
        prod = lattice if prod is None else np.multiply(prod, lattice, out=prod)
        del lattice
    dead = (bands < 0).any(axis=1)
    live = np.flatnonzero(~dead)
    ids = {}  # band row -> cell id, in order of first appearance
    cell = np.array([ids.setdefault(tuple(row), len(ids)) for row in bands[live].tolist()],
                    dtype=np.int64)
    floors = np.ones(len(ids))
    if actives and len(live):
        lo, hi, s = _bracket(np.abs(prod), grid, offsets)[:, live]
        floors = _cell_floors([f for _, f in actives], c, lo, hi, s, cell, refine_iters)
    del prod
    members = [[] for _ in ids]
    for m, k in zip(ms[live].tolist(), cell.tolist()):
        members[k].append(m)
    logs = [math.log(float(f.N)) for f in fs]
    cells = {LargeValueProfile(row, tuple(1.0 - b * math.log(2.0) / L if L > 0 else 1.0
                                          for b, L in zip(row, logs))): group
             for row, group in zip(ids, members)}
    return Classification(fs, c, float(T), cells, ms[dead].tolist(),
                          dict(zip(cells, floors.tolist())))


# ---------------------------------------------------------------------------
# R / R* counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LargeValueCounts:
    T: float
    R: int
    R_star: int


def count_R_Rstar(members: Iterable[int], T: float) -> LargeValueCounts:
    """R = |members|, R* = #{(m1,m2,m3,m4): m1+m2 = m3+m4}.

    R* is the additive energy sum_s r(s)^2, with r(s) the number of ordered
    pairs summing to s, counted in int64 by bincounts of the pair sums,
    EVAL_BUDGET pairs at a time: O(R^2) time and O(max - min) memory, so the
    spread of the members is held to the budget.  The squares are summed by
    an int64 dot while R < 2^21 (then R* <= R^3 < 2^63) and as Python
    integers above that.
    """
    ms = sorted(members)
    if ms and not (T <= ms[0] and ms[-1] <= 2 * T):
        raise ValueError("member set must sit inside [T, 2T]")
    r_star = 0
    if ms:
        if 2 * (ms[-1] - ms[0]) >= EVAL_BUDGET:
            raise CapacityError("member spread over the R* counting budget")
        a = np.asarray(ms, dtype=np.int64) - ms[0]
        r = np.zeros(2 * int(a[-1]) + 1, dtype=np.int64)
        step = max(1, EVAL_BUDGET // len(a))
        for i in range(0, len(a), step):
            r += np.bincount((a[i : i + step, None] + a).ravel(), minlength=len(r))
        r_star = int(r @ r) if len(a) < 2**21 else sum(v * v for v in r.tolist())
    return LargeValueCounts(float(T), len(ms), r_star)


# ---------------------------------------------------------------------------
# Published-bound comparison formulas (constants set to 1; monitored)
# ---------------------------------------------------------------------------

def _log_scale(N: float, T: float) -> float:
    return max(1.0, math.log(max(N, T)))


def montgomery_rhs(N: float, sigma_prime: float, T: float, mean_sq: float) -> float:
    """Mean-value comparison value log * (N^(2-2s') + T N^(1-2s')) * mean_sq."""
    if N < 1 or not (sigma_prime <= 2.0):
        raise ValueError("need N >= 1 and sigma' <= 2")
    return _log_scale(N, T) * (N ** (2 - 2 * sigma_prime) + T * N ** (1 - 2 * sigma_prime)) * mean_sq


def huxley_rhs(N: float, sigma: float, T: float, mean_sq: float) -> float:
    """Large-values comparison log^2 * (N^(2-2s) + T N^(4-6s)) * (1+mean_sq)^3."""
    if N < 1:
        raise ValueError("need N >= 1")
    return (
        _log_scale(N, T) ** 2
        * (N ** (2 - 2 * sigma) + T * N ** (4 - 6 * sigma))
        * (1 + mean_sq) ** 3
    )


def hb_rstar_rhs(R: int, R_star: int, N: float, sigma_prime: float, T: float) -> float:
    """Implicit R* comparison value; zero iff R = 0."""
    if R == 0:
        return 0.0
    first = R * N + R**2 + R ** 1.25 * math.sqrt(T)
    second = R_star * N + R**4 + R * R_star**0.75 * math.sqrt(T)
    return N ** (1 - 2 * sigma_prime) * math.sqrt(first) * math.sqrt(second)
