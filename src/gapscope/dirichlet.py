"""Dirichlet polynomials on the line Re(s) = c: evaluation, unit-interval
sups, large-value classification, and the R / R* counting machinery.

A factor is one short polynomial S(s) = sum_{N < n <= 2N} a_n n^{-s} with
unit, log, or Moebius coefficients (or the singleton constant 1).

Every factor value is built from the phase rows a_n n^(-c) e^(-it log n) of
`_phase_rows`.  `eval_factor_lattice` evaluates on a lattice t = base +
offset as one matrix product per chunk of bases; `eval_factor_grid` sums
each row on its own, so a point's value does not depend on the batch it is
evaluated in; `eval_factor` is the compensated pointwise oracle.

The sup over a unit interval is approximated by G equally spaced samples
plus golden-section refinement around the best sample; this underestimates
the true sup by at most a Lipschitz factor |S'| <= sum |a_n| log(n) n^{-c},
which callers can query via `lipschitz_bound`.

Large-value classification (`classify_profile`) bins each unit interval
[m, m+1] of [T, 2T] by the dyadic band N^(1-c) 2^(-b) of every factor's sup;
below the 1/x floor it falls into the leftover class S0.  Each active
factor's sample lattice is built once, bracketed, folded into the product
lattice and freed.  At each golden step every active factor needs its own
bracket's two points and the product's two; a point bitwise equal to one
the factor met in this step or the last (the carried golden point, or a
product bracket equal to the factor's) reuses that value, and the rest go
to one `eval_factor_grid` call per factor.  The product multiplies the
factor values.  Bands come from numpy logs, the scalar `band_index` redoing
any sup within 1e-9 of a band edge, and `np.unique` groups the band rows
into cells.
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


def eval_factor(f: PolyFactor, c: float, t: float) -> complex:
    """sum a_n n^(-c-it) by direct compensated summation."""
    ns, an = f.support()
    if len(ns) == 0:
        return 0.0 + 0.0j
    mags = an * ns.astype(np.float64) ** (-c)
    phases = -t * np.log(ns.astype(np.float64))
    re = math.fsum((mags * np.cos(phases)).tolist())
    im = math.fsum((mags * np.sin(phases)).tolist())
    return complex(re, im)


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


def eval_product_grid(factors: Sequence[PolyFactor], c: float, ts: np.ndarray) -> np.ndarray:
    out = np.ones(len(ts), dtype=complex)
    for f in factors:
        out *= eval_factor_grid(f, c, ts)
    return out


def lipschitz_bound(f: PolyFactor, c: float) -> float:
    """|S'(c+it)| <= sum |a_n| log(n) n^(-c), the documented sup padding."""
    ns, an = f.support()
    if len(ns) == 0:
        return 0.0
    nf = ns.astype(np.float64)
    return float(np.sum(np.abs(an) * np.log(np.maximum(nf, 2.0)) * nf**-c))


# ---------------------------------------------------------------------------
# Unit-interval sups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupEstimate:
    value: float
    samples: int


def sup_on_unit_interval(
    factors: Sequence[PolyFactor] | PolyFactor,
    c: float,
    m: int,
    samples: int = 32,
    refine_iters: int = 3,
) -> SupEstimate:
    """Approximate sup over [m, m+1] of |prod S_i(c+it)|."""
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise ValueError(f"m must be an integer >= 1, got {m!r}")
    _check_sampling(c, samples, refine_iters, 1)
    fs = [factors] if isinstance(factors, PolyFactor) else list(factors)
    ts = m + np.linspace(0.0, 1.0, samples + 1)
    vals = np.abs(eval_product_grid(fs, c, ts))
    best = int(np.argmax(vals))
    peak = float(vals[best])
    used = len(ts)
    lo = ts[max(0, best - 1)]
    hi = ts[min(len(ts) - 1, best + 1)]
    for _ in range(refine_iters):
        t1 = hi - GOLDEN * (hi - lo)
        t2 = lo + GOLDEN * (hi - lo)
        v = np.abs(eval_product_grid(fs, c, np.array([t1, t2])))
        used += 2
        peak = max(peak, float(v.max()))
        if v[0] >= v[1]:
            hi = t2
        else:
            lo = t1
    return SupEstimate(peak, used)


def _check_sampling(c: float, samples: int, refine_iters: int, intervals: int) -> None:
    """Refuse a sup grid with bad parameters, or one over EVAL_BUDGET samples."""
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if refine_iters < 0:
        raise ValueError(f"refine_iters must be >= 0, got {refine_iters}")
    if intervals * (samples + 1) > EVAL_BUDGET:
        raise CapacityError(f"{intervals} unit intervals of {samples + 1} samples "
                            "are over the evaluation budget")


def _bracket(vals: np.ndarray, ms: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Rows lo, hi, peak of sampled |values|: the best sample and its neighbours."""
    best = np.argmax(vals, axis=1)
    nearby = offsets[np.clip([best - 1, best + 1], 0, len(offsets) - 1)]
    return np.vstack((ms + nearby, vals[np.arange(len(ms)), best]))


def _eval_once(f: PolyFactor, c: float, want: np.ndarray,
               known: np.ndarray, known_vals: np.ndarray) -> np.ndarray:
    """Values of f at the points want (rows of points, one column per member).

    A point bitwise equal to a known point or to an earlier row's point in
    the same column takes that value; the rest go to one eval_factor_grid
    call, whose values do not depend on the batch.
    """
    # first[r, m]: the first source row (the known rows, then want's) whose
    # point in column m equals want[r, m], or row r itself: source s weighs
    # j - s up to row r's own slot and 0 after it
    k, j = len(want), len(known) + len(want)
    weights = np.tri(k, j, len(known), dtype=np.int8) * np.arange(j, 0, -1, dtype=np.int8)
    same = want[:, None] == np.concatenate((known, want))
    first = j - (same * weights[:, :, None]).max(axis=1)
    miss = first == len(known) + np.arange(k)[:, None]
    out = np.empty(want.shape, dtype=complex)
    out[miss] = eval_factor_grid(f, c, want[miss])
    # a hit's first match is known or a miss of this call, whose value is set
    return np.concatenate((known_vals, out))[first, np.arange(want.shape[1])]


# ---------------------------------------------------------------------------
# Large-value classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LargeValueProfile:
    """One magnitude cell: per-factor dyadic band indices b_i >= 0.

    Band b corresponds to sup in [N^(1-c) 2^(-b-1), N^(1-c) 2^(-b)) shifted
    so that b = 0 is the top cell sigma_i = 1; sigma_i = 1 - b log2 / log N_i
    whenever log N_i > 0.  Singleton factors sit in the top cell by
    convention.
    """

    band_indices: tuple[int, ...]
    c: float
    lengths: tuple[Fraction, ...]

    @property
    def sigmas(self) -> tuple[float, ...]:
        logs = (math.log(float(N)) for N in self.lengths)
        return tuple(1.0 - b * math.log(2.0) / L if L > 0 else 1.0
                     for b, L in zip(self.band_indices, logs))

    def aggregate_sigma(self) -> float:
        """sigma with x1^sigma = prod N_i^(sigma_i), i.e. x1 2^(-sum b)."""
        x1 = float(math.prod(self.lengths))
        return 1.0 - sum(self.band_indices) * math.log(2.0) / math.log(x1)


@dataclass
class Classification:
    factors: tuple[PolyFactor, ...]
    c: float
    T: float
    cells: dict[LargeValueProfile, list[int]]
    s0: list[int]
    sups: dict[int, float] = field(default_factory=dict)  # product sup per m

    def total(self) -> int:
        return sum(len(v) for v in self.cells.values()) + len(self.s0)


def band_index(sup: float, N: Fraction, c: float, floor_x: float) -> int | None:
    """Dyadic band of a factor sup; None marks the S0 leftover class.

    b is the largest grid step with N^(1-c) 2^(-b) <= sup (clamped at the top
    cell b = 0); sups below N^(1-c)/floor_x fall into S0.
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
    actives = [f for f in fs if f.cls is not CoefficientClass.SINGLETON]
    grid, offsets = ms.astype(np.float64), np.linspace(0.0, 1.0, samples + 1)
    # Each active factor's lattice is bracketed, folded into the product and
    # freed; singletons are exactly 1, so the product (of 2+ factors) skips them.
    groups, prod = [], None
    for f in actives:
        lattice = eval_factor_lattice(f, c, grid, offsets)
        groups.append(_bracket(np.abs(lattice), grid, offsets))
        prod = lattice if prod is None else np.multiply(prod, lattice, out=prod)
        del lattice
    if len(actives) > 1:
        groups.append(_bracket(np.abs(prod), grid, offsets))
    # one row per group: golden steps on every bracket at once, ties going left
    lo, hi, peak = np.moveaxis(np.reshape(groups, (len(groups), 3, len(ms))), 1, 0)
    # per active factor, the points and values of its last golden step
    has_prod, empty = len(groups) > len(actives), np.empty((0, len(ms)))
    seen = [(empty, empty.astype(complex))] * len(actives)
    for _ in range(refine_iters):
        t1, t2 = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
        vals, prod = [], np.ones((2, len(ms)), dtype=complex)
        for i, f in enumerate(actives):
            # the factor's own points, then the product's (the last group)
            want = np.array((t1[i], t2[i], t1[-1], t2[-1]) if has_prod else (t1[i], t2[i]))
            z = _eval_once(f, c, want, *seen[i])
            seen[i] = want, z
            vals.append(np.abs(z[:2]))
            if has_prod:
                prod *= z[2:]
        if has_prod:
            vals.append(np.abs(prod))
        v1, v2 = np.moveaxis(np.reshape(vals, (len(groups), 2, len(ms))), 1, 0)
        peak = np.maximum(peak, np.maximum(v1, v2))
        take_left = v1 >= v2
        lo, hi = np.where(take_left, lo, t1), np.where(take_left, t2, hi)
    prod_sup = peak[-1] if actives else np.ones(len(ms))

    sups = iter(peak)  # singleton factors occupy the top cell by convention
    bands = np.reshape([np.zeros(len(ms), np.int64) if f.cls is CoefficientClass.SINGLETON
                        else _bands(next(sups), f.N, c, floor_x) for f in fs], (len(fs), len(ms))).T
    dead = (bands < 0).any(axis=1)
    live, lengths = ms[~dead], tuple(f.N for f in fs)
    rows, first, inverse = np.unique(bands[~dead], axis=0, return_index=True, return_inverse=True)
    cells = {LargeValueProfile(tuple(rows[k].tolist()), c, lengths):
             live[inverse.reshape(-1) == k].tolist() for k in np.argsort(first)}
    return Classification(fs, c, float(T), cells, ms[dead].tolist(),
                          dict(zip(ms.tolist(), prod_sup.tolist())))


# ---------------------------------------------------------------------------
# R / R* counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LargeValueCounts:
    T: float
    R: int
    R_star: int
    profile: LargeValueProfile | None = None
    x1: float | None = None
    sigma_agg: float | None = None
    mu: float | None = None


def count_R_Rstar(
    members: Iterable[int],
    T: float,
    profile: LargeValueProfile | None = None,
    T0: float | None = None,
) -> LargeValueCounts:
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
    x1 = sigma = mu = None
    if profile is not None:
        x1 = float(math.prod(profile.lengths))
        sigma = profile.aggregate_sigma()
        if T0 is not None and T0 > 1:
            mu = math.log(x1) / math.log(T0)
    return LargeValueCounts(float(T), len(ms), r_star, profile, x1, sigma, mu)


def rstar_bruteforce(members: Sequence[int]) -> int:
    """O(R^4) quadruple enumeration (the oracle for count_R_Rstar)."""
    ms = np.asarray(sorted(members), dtype=np.int64)
    if len(ms) == 0:
        return 0
    sums = (ms[:, None] + ms[None, :]).ravel()
    return int(np.count_nonzero(sums[:, None] == sums[None, :]))


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


def hb_rstar_check(counts: LargeValueCounts, N: float, sigma_prime: float, T: float) -> dict:
    rhs = hb_rstar_rhs(counts.R, counts.R_star, N, sigma_prime, T)
    ratio = float("nan") if rhs == 0 else counts.R_star / rhs
    return {
        "R": counts.R,
        "R_star": counts.R_star,
        "rhs": rhs,
        "ratio": ratio,
        "vacuous": counts.R == 0,
    }
