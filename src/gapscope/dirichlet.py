"""Dirichlet polynomials on the line Re(s) = c: evaluation, unit-interval
sups, large-value classification, and the R / R* counting machinery.

A factor is one short polynomial S(s) = sum_{N < n <= 2N} a_n n^{-s} with
unit, log, or Moebius coefficients (or the singleton constant 1).

Every factor value is built from the phase rows a_n n^(-c) e^(-it log n) of
`_phase_rows`; c is a scalar or one value per point.  `eval_factor_lattice`
evaluates on a lattice t = base + offset as one matrix product per chunk of
bases, a lone base padded to two rows; `eval_factor_grid` sums each row on
its own.  Either way a value does not depend on the batch it is evaluated in.

The sup over a unit interval is approximated by G + 1 equally spaced
samples (both ends included) plus golden-section refinement around the best
sample.  For one factor the samples also prove a ceiling: P(t) = |S(c+it)|^2
has frequencies log(n/m) in (-log 2, log 2), so Bernstein's inequality for
bounded functions of exponential type (Boas, Entire Functions, 1954, ch. 11)
gives |P''| <= (A log 2)^2 with A = sum |a_n| n^(-c).  P' vanishes at an
interior maximum and some sample lies within h/2 = 1/(2G) of it, so the sup
is at most U = sqrt(s^2 + (h A log 2)^2 / 8), s the best sample
(`_sup_ceiling`, padded for float error).

Large-value classification bins each unit interval [m, m+1] of [T, 2T] by
the dyadic band N^(1-c) 2^(-b) of every factor's sup; below the 1/x floor it
falls into the leftover class S0.  `classify_profiles` classifies a batch of
(factors, c, T) problems as one array program, and `classify_profile` is its
one-problem call; each problem's result is bitwise the same either way,
since every element comes from the same IEEE operations on the same inputs
and per-problem scalars are computed as for the problem alone.  The batch
is one table of problems: `fids` holds each problem's active factor ids in
product order and `cols` their band columns.  Position by position, each
distinct factor's sample lattice is built over the unit intervals of the
problems holding it there, with c per row, ROW_CHUNK rows at a time; each
chunk is bracketed and folded into its problems' products at once, so only
the products are held whole.  One rule bands every distinct factor: its
best sample s and ceiling U fix the band wherever they share one, since
s <= refined peak <= sup <= U, and `_golden` refines the factor's own
bracket only for the members left in doubt.  The only product
value reported is each cell's floor V, the least refined product sup over its
members (`_cell_floors`).  A refined peak is never below its best sample, so
only members whose best sample is at most the refined sup of their cell's
lowest-sampled member can hold V, and only those are refined.  Each golden
step sends both points of every bracket to one `eval_factor_grid` call per
distinct factor.  Bands come from numpy logs, the scalar `band_index`
redoing any sup within 1e-9 of a band edge, and cells take the band rows in
order of first appearance, each with its sigmas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import CapacityError
from .identity import CoefficientClass, block_support

EVAL_BUDGET = 10**7
GOLDEN = (math.sqrt(5) - 1) / 2
#: Unit intervals whose factor lattice a classification builds at once.
ROW_CHUNK = 1024
#: Pair sums that count_R_Rstar builds at once (512 KB of int64).
PAIR_BLOCK = 2**16


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


def _magnitudes(an: np.ndarray, logs: np.ndarray, c, points: int) -> np.ndarray:
    """Rows a_n n^(-c), one per point: c is a scalar or one value per point.
    A run of equal c is computed once."""
    if np.ndim(c) == 0:
        return np.broadcast_to(an * np.exp(-c * logs), (points, len(logs)))
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (points,):
        raise ValueError(f"c must be a scalar or one value per point, got shape {c.shape}")
    runs = np.flatnonzero(c[1:] != c[:-1]) + 1
    if not len(runs):
        return np.broadcast_to(an * np.exp(-c[:1, None] * logs), (points, len(logs)))
    runs = np.concatenate(([0], runs))
    return np.repeat(an * np.exp(-c[runs, None] * logs), np.diff(runs, append=points), axis=0)


def eval_factor_lattice(f: PolyFactor, c, bases: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Factor values at t = bases[k] + offsets[j], shape (len(bases), len(offsets)).

    c is a scalar or one value per base.  The phase factors as n^(-it) =
    n^(-i base) n^(-i offset): the offset phases are built once, and each
    chunk of bases costs N exponentials per base plus one matrix product,
    written in place.  A chunk of bases holds at most
    EVAL_BUDGET // max(N, len(offsets)) rows, and the offset phases are built
    EVAL_BUDGET // N offsets at a time.  A row's values do not depend on the
    batch: numpy multiplies a single row by another path, so a lone row is
    multiplied as a stack of two.
    """
    bases = np.asarray(bases, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    ns, an = f.support()
    if len(ns) == 0:
        return np.zeros((len(bases), len(offsets)), dtype=complex)
    logs = np.log(ns.astype(np.float64))
    mags = _magnitudes(an, logs, c, len(bases))
    out = np.empty((len(bases), len(offsets)), dtype=complex)
    step = max(1, EVAL_BUDGET // max(len(ns), len(offsets)))
    width = max(1, EVAL_BUDGET // len(ns))
    for b in range(0, len(offsets), width):
        shifts = np.exp(-1j * np.outer(logs, offsets[b : b + width]))
        for a in range(0, len(bases), step):
            rows = _phase_rows(bases[a : a + step], logs, mags[a : a + step])
            if len(rows) == 1:
                out[a, b : b + width] = np.matmul(np.vstack((rows, rows)), shifts)[0]
            else:
                np.matmul(rows, shifts, out=out[a : a + step, b : b + width])
    return out


def eval_factor_grid(f: PolyFactor, c, ts: np.ndarray) -> np.ndarray:
    """Factor values on an array of t, each the row sum of its own phase row.

    c is a scalar or one value per t.  A value depends only on its t and c,
    never on the batch: numpy sums each row alone (pairwise), where a
    matrix-vector product takes a different path for a single row.  Rows
    are built EVAL_BUDGET // N at a time.
    """
    ts = np.asarray(ts, dtype=np.float64)
    ns, an = f.support()
    if len(ns) == 0:
        return np.zeros(len(ts), dtype=complex)
    logs = np.log(ns.astype(np.float64))
    mags = _magnitudes(an, logs, c, len(ts))
    out = np.empty(len(ts), dtype=complex)
    step = max(1, EVAL_BUDGET // len(ns))
    for a in range(0, len(ts), step):
        out[a : a + step] = _phase_rows(ts[a : a + step], logs, mags[a : a + step]).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# Unit-interval sups
# ---------------------------------------------------------------------------

def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _check_counts(samples: int, refine_iters: int) -> None:
    """Refuse a sample count below 1 or a negative refinement count."""
    for name, value, least in (("samples", samples, 1), ("refine_iters", refine_iters, 0)):
        if not _is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


def _check_sampling(c: float, samples: int, refine_iters: int, intervals: int) -> None:
    """Refuse a sup grid with bad parameters, or one over EVAL_BUDGET samples."""
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    _check_counts(samples, refine_iters)
    if intervals * (samples + 1) > EVAL_BUDGET:
        raise CapacityError(f"{intervals} unit intervals of {samples + 1} samples "
                            "are over the evaluation budget")


def _bracket(vals: np.ndarray, ms: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Rows lo, hi, peak of sampled |values|: the best sample and its neighbours."""
    best = np.argmax(vals, axis=1)
    out = np.empty((3, len(ms)))
    np.add(ms, offsets[np.maximum(best - 1, 0)], out=out[0])
    np.add(ms, offsets[np.minimum(best + 1, len(offsets) - 1)], out=out[1])
    out[2] = vals[np.arange(len(ms)), best]
    return out


def _golden(table: Sequence[PolyFactor], fids: np.ndarray, c: np.ndarray, lo: np.ndarray,
            hi: np.ndarray, peak: np.ndarray, refine_iters: int) -> np.ndarray:
    """Golden-section refinement of every bracket [lo, hi] at once.

    Bracket r refines |prod_j table[fids[r, j]]| at c[r]; a row of fids lists
    its product's factors in order, then -1s.  Each step keeps the side of
    the larger point, ties going left, and returns the best of peak and every
    value met.  A step evaluates each factor in one eval_factor_grid call, at
    both points of every bracket whose product holds it (values do not depend
    on the batch), and multiplies the values in product order; a row with
    fewer factors is multiplied by an exact 1, which leaves |z| as it is.
    """
    depth, n = fids.shape[1], len(fids)
    plan = []  # per factor: the brackets whose product holds it, and their c twice
    pick = np.full((depth, 2, n), -1)  # where a step's values hold each factor value; -1 is 1
    size = 0
    for g in np.unique(fids[fids >= 0]).tolist():
        held = fids == g
        holds = held.any(axis=1)
        rows = np.flatnonzero(holds)
        spot = np.cumsum(holds) + (size - 1)  # row r's first point among the values
        at, r = np.nonzero(held.T)
        pick[at, 0, r] = spot[r]
        pick[at, 1, r] = spot[r] + len(rows)
        plan.append((table[g], rows, np.concatenate((c[rows], c[rows]))))
        size += 2 * len(rows)
    for _ in range(refine_iters):
        new = np.array((hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)))
        values = np.concatenate([eval_factor_grid(f, cs, new[:, rows].ravel())
                                 for f, rows, cs in plan] + [np.ones(1, dtype=complex)])
        z = np.ones(new.shape, dtype=complex)
        for j in range(depth):
            z *= values[pick[j]]
        v = np.abs(z)
        peak = np.maximum(peak, np.maximum(v[0], v[1]))
        take_left = v[0] >= v[1]
        lo, hi = np.where(take_left, lo, new[0]), np.where(take_left, new[1], hi)
    return peak


def _sup_ceiling(f: PolyFactor, c, s: np.ndarray, samples: int, t_top, owner) -> np.ndarray:
    """Bernstein ceiling U >= sup |f| over unit intervals whose best sample is s.

    c and t_top list one value per problem, and s[i] belongs to problem
    owner[i].  Padded for float error by a relative 1e-12 (the square root)
    and 8 A eps (len(support) + t_top log 2N): half of that bounds the
    rounding of one computed value at t <= t_top (its sum of len(support)
    terms and its phases t log n), and both s and a refined peak carry it.
    Each problem's terms are computed as for it alone.
    """
    ns, an = f.support()
    nf, size, log_2N = ns.astype(np.float64), np.abs(an), math.log(2 * float(f.N))
    A = np.sum(size * nf ** -np.asarray(c)[:, None], axis=1)
    width = (A * math.log(2) / samples) ** 2 / 8
    slack = 8 * A * np.finfo(np.float64).eps * (len(ns) + np.asarray(t_top) * log_2N)
    return np.sqrt(s * s + width[owner]) * (1 + 1e-12) + slack[owner]


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


def _bands(sups: np.ndarray, N: Fraction, c, floor_x, owner) -> np.ndarray:
    """band_index of every sup as int64, -1 for S0; np.log2 may differ from math.log2
    in the last ulp, so sups within 1e-9 of a band edge take the scalar band_index.

    c and floor_x list one value per problem, and sups[i] belongs to problem
    owner[i]; each problem's edges are computed as band_index does.
    """
    n = float(N)
    top = np.array([n ** (1.0 - ck) for ck in c])[owner]
    b_max = np.array([math.floor(math.log2(n * xk) + 1e-12) for xk in floor_x])[owner]
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.log2(top / sups) - 1e-12
        b = np.maximum(np.ceil(x), 0.0)
        for i in np.flatnonzero(np.abs(x - np.rint(x)) < 1e-9).tolist():
            edge = band_index(float(sups[i]), N, c[owner[i]], floor_x[owner[i]])
            b[i] = np.nan if edge is None else edge
        b[~(b <= b_max)] = -1
    return b.astype(np.int64)


def _cell_floors(table: Sequence[PolyFactor], fids: np.ndarray, c: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, s: np.ndarray, cell: np.ndarray, refine_iters: int) -> np.ndarray:
    """Least refined product sup of each cell 0, 1, ... over its members.

    A refined peak is never below its best sample s, so a member whose s is
    above the refined sup g1 of its cell's lowest-sampled member cannot hold
    the minimum: `_golden` refines those lowest members, then the members
    with s <= g1.  Its columns are independent and eval_factor_grid does not
    depend on the batch, so each floor is bitwise the minimum of the full
    refinement.
    """
    order = np.lexsort((s, cell))
    first = order[np.concatenate(([True], cell[order[1:]] != cell[order[:-1]]))]
    floors = _golden(table, fids[first], c[first], lo[first], hi[first], s[first], refine_iters)
    rest = s <= floors[cell]
    rest[first] = False
    rest = np.flatnonzero(rest)
    if len(rest):
        np.minimum.at(floors, cell[rest], _golden(table, fids[rest], c[rest], lo[rest],
                                                  hi[rest], s[rest], refine_iters))
    return floors


class _Problem(NamedTuple):
    fs: tuple[PolyFactor, ...]
    c: float
    T: float
    floor_x: float
    ms: np.ndarray  # the integers of [T, 2T]


def _read_problem(problem, samples: int, refine_iters: int) -> _Problem:
    """One (factors, c, T[, floor_x]) problem, checked."""
    if not (isinstance(problem, (tuple, list)) and len(problem) in (3, 4)):
        raise ValueError("a problem is (factors, c, T) or (factors, c, T, floor_x)")
    factors, c, T, floor_x = (*problem, None)[:4]
    fs = tuple(factors) if isinstance(factors, Iterable) else None
    if fs is None or not all(isinstance(f, PolyFactor) for f in fs):
        raise ValueError(f"factors must be PolyFactor values, got {factors!r}")
    for name, value in (("c", c), ("T", T), ("floor_x", floor_x)):
        if value is not None and not _is_real(value):
            raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        if not (math.isfinite(T) and T >= 1):
            raise ValueError(f"T must be finite and >= 1, got {T}")
        if floor_x is not None and not (math.isfinite(floor_x) and floor_x > 0):
            raise ValueError(f"floor_x must be finite and > 0, got {floor_x}")
        _check_sampling(c, samples, refine_iters, math.floor(2 * T) - math.ceil(T) + 1)
        floor_x = max(2.0, float(math.prod(f.N for f in fs))) if floor_x is None else floor_x
        active = [f for f in fs if f.cls is not CoefficientClass.SINGLETON]
        for n in {float(f.N) for f in active}:
            n ** (1.0 - float(c)), math.floor(math.log2(n * floor_x))  # the band edges of _bands
    except OverflowError:
        raise ValueError("c, T and floor_x (by default the product of the N) must keep every "
                         "band edge N^(1-c) and N floor_x in the float range") from None
    with np.errstate(over="ignore"):  # the size A = sum |a_n| n^(-c) of each factor
        sizes = [float(np.abs(an) @ ns ** -float(c)) for ns, an in (f.support() for f in active)]
    if not math.isfinite(math.prod(sizes)):  # inf, or nan if one A is inf and another 0
        raise ValueError("c must keep every factor's size A = sum |a_n| n^(-c), and the "
                         "product of the sizes, in the float range")
    ms = np.arange(math.ceil(T), math.floor(2 * T) + 1, dtype=np.int64)
    return _Problem(fs, float(c), float(T), float(floor_x), ms)


def classify_profiles(problems: Iterable, samples: int = 32,
                      refine_iters: int = 3) -> list[Classification]:
    """Classify each (factors, c, T[, floor_x]) problem, all in one array program.

    Each problem's classification is bitwise the one it gets alone.  Position
    by position in the products, each distinct active factor is evaluated
    over the unit intervals of every problem holding it there, with c given
    per row and ROW_CHUNK rows at a time; each chunk is bracketed and folded
    into its problems' products at once, so only the products are held
    whole.  Each distinct factor is then banded once, and golden steps
    evaluate it once.  Every problem is checked before any work, and a bad
    one is named by its index.
    """
    _check_counts(samples, refine_iters)
    read = []
    for k, problem in enumerate(problems):
        try:
            read.append(_read_problem(problem, samples, refine_iters))
        except (ValueError, CapacityError) as e:
            raise type(e)(f"problem {k}: {e}") from None
    intervals = sum(len(p.ms) for p in read)
    if intervals * (samples + 1) > EVAL_BUDGET:
        raise CapacityError(f"{intervals} unit intervals of {samples + 1} samples "
                            "are over the evaluation budget")
    if not read:
        return []
    sizes = np.array([len(p.ms) for p in read])
    owner = np.repeat(np.arange(len(read)), sizes)
    ms = np.concatenate([p.ms for p in read])
    grid, offsets = ms.astype(np.float64), np.linspace(0.0, 1.0, samples + 1)
    # c, floor_x and the top of the [T, 2T] grid plus 1, per problem
    scalars = np.array([(p.c, p.floor_x, float(p.ms[-1] + 1)) for p in read]).T
    c_row = scalars[0][owner]
    # each problem's active factors in product order: their ids and band columns
    actives = [[(i, f) for i, f in enumerate(p.fs) if f.cls is not CoefficientClass.SINGLETON]
               for p in read]
    ids: dict[PolyFactor, int] = {}
    fids = np.full((len(read), max(1, *map(len, actives))), -1)
    cols = fids.copy()
    for k, active in enumerate(actives):
        for pos, (i, f) in enumerate(active):
            fids[k, pos], cols[k, pos] = ids.setdefault(f, len(ids)), i
    table = tuple(ids)
    # each product, in factor order (1 with no active factor); whole chunks of
    # rows, so that successive classifications ask for few sizes and reuse
    # each other's freed memory
    prod = np.empty((-(-len(ms) // ROW_CHUNK) * ROW_CHUNK, samples + 1), dtype=complex)[: len(ms)]
    prod[:] = 1
    parts = [[] for _ in table]  # per factor: the problems, columns, rows and bracket of a position
    for pos in range(fids.shape[1]):
        held = fids[owner, pos]
        for g in np.unique(fids[fids[:, pos] >= 0, pos]).tolist():
            f, ks, rows = table[g], np.flatnonzero(fids[:, pos] == g), np.flatnonzero(held == g)
            bracket = np.empty((3, len(rows)))
            for at in range(0, len(rows), ROW_CHUNK):
                chunk = rows[at : at + ROW_CHUNK]
                values = eval_factor_lattice(f, c_row[chunk], grid[chunk], offsets)
                bracket[:, at : at + ROW_CHUNK] = _bracket(np.abs(values), grid[chunk], offsets)
                # a chunk runs in slots of consecutive batch rows, one per problem
                cuts = [0, *(np.flatnonzero(np.diff(chunk) != 1) + 1).tolist(), len(chunk)]
                for i0, i1 in zip(cuts, cuts[1:]):
                    head = prod[chunk[i0] : chunk[i0] + i1 - i0]
                    np.multiply(head, values[i0:i1], out=head)
            parts[g].append((ks, cols[owner[rows], pos], rows, bracket))
    bands = np.zeros((len(ms), max(len(p.fs) for p in read)), dtype=np.int64)
    doubts = []
    for f, part in zip(table, parts):
        # one slot per (problem, position) holding f, in order of position
        ks, col, rows, bracket = (np.concatenate(x, axis=-1) for x in zip(*part))
        slot = np.repeat(np.arange(len(ks)), sizes[ks])
        cs, xs, tops = scalars[:, ks].tolist()
        # s <= sup <= U: refine only members whose band [s, U] leaves in doubt
        ceiling = _sup_ceiling(f, cs, bracket[2], samples, tops, slot)
        band, upper = _bands(np.concatenate((bracket[2], ceiling)), f.N, cs, xs,
                             np.concatenate((slot, slot))).reshape(2, -1)
        bands[rows, col] = band  # singletons sit in the top cell
        doubt = np.flatnonzero(band != upper)
        doubts.append((rows[doubt], col[doubt], slot[doubt], cs, xs, bracket[:, doubt]))
    count = [len(d[0]) for d in doubts]
    if sum(count):
        peaks = _golden(table, np.repeat(np.arange(len(table)), count)[:, None],
                        c_row[np.concatenate([d[0] for d in doubts])],
                        *np.hstack([d[5] for d in doubts]), refine_iters)
        for f, (rows, col, slot, cs, xs, _), peak in zip(table, doubts,
                                                          np.split(peaks, np.cumsum(count))):
            bands[rows, col] = _bands(peak, f.N, cs, xs, slot)
    # cells: (problem, band row) groups, numbered in order of first appearance
    live = np.flatnonzero((bands >= 0).all(axis=1))
    keys = np.column_stack((owner[live], bands[live]))
    order = np.lexsort(keys.T[::-1])  # stable: each group's first row leads it
    opens = np.ones(len(live), dtype=bool)
    opens[1:] = (keys[order[1:]] != keys[order[:-1]]).any(axis=1)
    first = order[opens]
    rank = np.argsort(np.argsort(first))  # of each group, by its first row
    cell = np.full(len(ms), -1)  # -1 for S0
    cell[live[order]] = rank[np.cumsum(opens) - 1]
    bracket = np.hstack([_bracket(np.abs(prod[at : at + ROW_CHUNK]), grid[at : at + ROW_CHUNK],
                                  offsets) for at in range(0, len(ms), ROW_CHUNK)])
    del prod
    floors = _cell_floors(table, fids[owner[live]], c_row[live], *bracket[:, live],
                          cell[live], refine_iters) if len(live) else np.ones(0)
    return _assemble(read, owner, ms, cell, live[np.sort(first)], bands, floors)


def _assemble(read, owner, ms, cell, firsts, bands, floors) -> list[Classification]:
    """Per-problem Classifications from the batch's cell ids, in order of first appearance."""
    live = np.flatnonzero(cell >= 0)
    members = ms[live][np.argsort(cell[live], kind="stable")].tolist()
    ends = np.cumsum(np.bincount(cell[live], minlength=len(floors))).tolist()
    rows = bands[firsts]
    logs = np.ones((len(read), rows.shape[1]))
    for k, p in enumerate(read):
        logs[k, : len(p.fs)] = [math.log(float(f.N)) for f in p.fs]
    logs = logs[owner[firsts]]
    with np.errstate(divide="ignore", invalid="ignore"):  # the IEEE steps of 1 - b log 2 / L
        sigmas = np.where(logs > 0, 1.0 - rows * math.log(2.0) / logs, 1.0)
    cells = [{} for _ in read]
    cell_floors = [{} for _ in read]
    a = 0
    for k, row, sigma, end, floor in zip(owner[firsts].tolist(), rows.tolist(), sigmas.tolist(),
                                         ends, floors.tolist()):
        width = len(read[k].fs)
        profile = LargeValueProfile(tuple(row[:width]), tuple(sigma[:width]))
        cells[k][profile], cell_floors[k][profile], a = members[a:end], floor, end
    dead = np.flatnonzero(cell < 0)
    cut = np.searchsorted(owner[dead], np.arange(len(read) + 1)).tolist()
    s0 = ms[dead].tolist()
    return [Classification(p.fs, p.c, p.T, cells[k], s0[cut[k] : cut[k + 1]], cell_floors[k])
            for k, p in enumerate(read)]


def classify_profile(
    factors: Sequence[PolyFactor],
    c: float,
    T: float,
    floor_x: float | None = None,
    samples: int = 32,
    refine_iters: int = 3,
) -> Classification:
    """Assign every integer m in [T, 2T] to one profile cell or S0."""
    return classify_profiles([(factors, c, T, floor_x)], samples, refine_iters)[0]


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
    about PAIR_BLOCK pairs at a time: O(R^2) time and O(max - min) memory, so
    the spread of the members is held to EVAL_BUDGET.  The squares are summed by
    an int64 dot while R < 2^21 (then R* <= R^3 < 2^63) and as Python
    integers above that.  Members are integers (Python or numpy, not bool).
    """
    ms = list(members)
    for kind in set(map(type, ms)):
        if not issubclass(kind, (int, np.integer)) or issubclass(kind, bool):
            bad = next(m for m in ms if type(m) is kind)
            raise ValueError(f"members must be integers, got {bad!r}")
    ms.sort()
    if ms and not (T <= ms[0] and ms[-1] <= 2 * T):
        raise ValueError("member set must sit inside [T, 2T]")
    r_star = 0
    if ms:
        if 2 * (ms[-1] - ms[0]) >= EVAL_BUDGET:
            raise CapacityError("member spread over the R* counting budget")
        a = np.asarray(ms, dtype=np.int64) - ms[0]
        r = np.zeros(2 * int(a[-1]) + 1, dtype=np.int64)
        step = max(1, PAIR_BLOCK // len(a))
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
