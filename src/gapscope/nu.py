"""Exponent calculus: the least nu proving sum d_n^2 << x^(1+nu) pointwise.

At a grid point (s, mu) — s the aggregate magnitude exponent, mu the ratio
log x1 / log T0 — each available estimate bounds R, R*, or the product R R*
by a power T0^(p + mu q(s)).  Against the targets

    (ii)  R  <= T0 * x1^(1 + nu - 2s)
    (iii) R* <= T0 * x1^(3 + nu - 4s)

such a bound demands nu >= (p-1)/mu + q(s) - 1 + 2s (for R), the analogous
form with -3 + 4s (for R*), or the averaged form (for R R*).  An R-bound
whose exponent is at most mu(1-s) instead lands in the negligible regime
(condition "R << x1^(1-s)") and demands nothing.

Routes:
  * the published large-value estimates (the `BoundCatalog`), each a single
    exponent valid on a sigma range;
  * the combination derivations (`ROUTES`), which split the product
    polynomial into two halves M <= N with a guaranteed floor on M and
    case-split on which term of the governing mean-value estimate dominates.
    A combination route is adversarial over its internal cases, so it
    contributes the max of its case demands; the overall demand at (s, mu)
    is the min over routes.

Each exponent, route piece end and case exponent is one `MuLinear` value
in s, written once here and read also by the builtin ledger.  At fixed s =
p/q every table value is an integer pair (A(s) and D(s) by Horner in p and
q), and every demand is a/mu + b with rational a and b: `_row` builds the
row of one sigma in integers, with the demands, the negligible-regime
thresholds e <= mu(1-s) of the R-bounds and the mu-piece ends all over one
common denominator.  `_row_values` evaluates a row at each mu = n/d with
integer multiply-adds and cross-multiplied compares; the only Fraction a
cell makes is its value.  `required_nu` is that kernel at a single mu, and
`optimize_nu` builds each row once and evaluates it across the mu grid.

All arithmetic is exact (integers and Fractions); epsilon refinements are
dropped and the log-power savings of the negligible regime are treated as
free, so boundary comparisons are non-strict.  The polynomial-structure
reduction (every factor short except at most one of length <= x1^(3/5)) is
assumed here; its inequality chains are certified separately in the builtin
ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional

from .algebra import MuLinear, _horner, frac, ml, sign_on_interval
from .claims import MU_RANGE
from .errors import CapacityError

Q = Fraction

SIGMA_RANGE = (Q(1, 2), Q(1))
#: Largest sigma x mu grid `optimize_nu` evaluates, at about 3 us a cell (0.28 s
#: for res = 1/512, Python 3.11 on a shared 2-vCPU host); it admits res = 1/512
#: (102800 cells), 60 times the default 1/64 grid.
MAX_GRID_CELLS = 2**17
NU_FLOOR = Q(29, 120)  # configured floor; flagged if the optimum dips below


# ---------------------------------------------------------------------------
# Published bound catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """R or R* bounded by T0^exponent(s) on [s_lo, s_hi], where the
    exponent's denominator does not vanish."""

    name: str
    kind: str  # "R" or "Rstar"
    exponent: MuLinear  # a function of s alone
    s_lo: Fraction
    s_hi: Fraction

    def applies(self, s: Fraction) -> bool:
        return self.s_lo <= s <= self.s_hi and sign_on_interval(self.exponent.D, s, s) != 0


@dataclass(frozen=True)
class BoundCatalog:
    entries: tuple[CatalogEntry, ...]


_BUILTIN_CATALOG = BoundCatalog((
    CatalogEntry("mean-value", "R", frac([3, -3], [2, -1]), Q(1, 2), Q(3, 4)),
    CatalogEntry("large-values", "R", frac([3, -3], [-1, 3]), Q(3, 4), Q(1)),
    CatalogEntry("r-short-range", "R", frac([3, -3], [-7, 10]), Q(7, 10), Q(25, 28)),
    CatalogEntry("r-near-one", "R", frac([4, -4], [-1, 4]), Q(25, 28), Q(1)),
    CatalogEntry("trivial", "R", ml(1), Q(1, 2), Q(1)),
    CatalogEntry("rstar-low", "Rstar", frac(["15/2", -8]), Q(1, 2), Q(3, 4)),
    CatalogEntry("rstar-high", "Rstar", frac([12, -12], [-1, 4]), Q(3, 4), Q(1)),
))


def builtin_catalog() -> BoundCatalog:
    return _BUILTIN_CATALOG


# ---------------------------------------------------------------------------
# Demand of a single bound against the targets
# ---------------------------------------------------------------------------

Pair = tuple[int, int]  # the rational num/den, den > 0
_NEVER = (1, 1), (0, 1)  # p = 1, c = 0: p <= mu c never holds


def _demand_coeffs(kind: str, p: Pair, q: Pair, s: Pair) -> tuple[Pair, Pair, Pair, Pair]:
    """(a, b, p, c) for a bound T0^(p + mu q) on `kind` at sigma s.

    The bound demands nu >= a/mu + b, unless p <= mu c: an R-bound whose
    exponent is at most mu(1 - s) lands in condition (i) and demands
    nothing.  Other kinds are never negligible (`_NEVER`).
    """
    (pn, pd), (qn, qd), (sn, sd) = p, q, s
    if kind == "R":  # b = q - 1 + 2s, c = 1 - s - q
        return ((pn - pd, pd), (qn * sd + (2 * sn - sd) * qd, qd * sd),
                p, ((sd - sn) * qd - qn * sd, qd * sd))
    if kind == "Rstar":  # b = q - 3 + 4s
        return (pn - pd, pd), (qn * sd + (4 * sn - 3 * sd) * qd, qd * sd), *_NEVER
    if kind == "RRstar":  # a = (p - 2)/2, b = (q - 4 + 6s)/2
        return (pn - 2 * pd, 2 * pd), (qn * sd + (6 * sn - 4 * sd) * qd, 2 * qd * sd), *_NEVER
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# Combination routes
# ---------------------------------------------------------------------------

Case = tuple[str, MuLinear, MuLinear]  # (kind, p(s), q(s)): bound T0^(p + mu q)


class Piece(NamedTuple):
    """A route's cases, which govern mu in [mu_lo(s), mu_hi(s)] for s in
    [s_lo, s_hi]."""

    s_lo: Fraction
    s_hi: Fraction
    mu_lo: MuLinear
    mu_hi: MuLinear
    cases: tuple[Case, ...]


#: mu = 4/(4s - 1): the large-values split ends and the raised polynomials start
MU_RAISED = frac([4], [-1, 4])

#: Exponents of the raised-polynomial R* bounds on 13/16 <= s <= 25/28: the
#: first three in the middle range, all six in the short range.
RAISED_RSTAR = (
    frac([7, -7], [-1, 3]),
    frac([18, -19], [-2, 6]),
    frac([34, -34], [-5, 15]),
    frac([69, -73], [-8, 24]),
    frac([31, -31], [-5, 15]),
    frac([128, -124], [-15, 60]),
)

_ZERO = ml(0)
_RRSTAR: Case = ("RRstar", _ZERO, frac([4, -4]))
_SHORT: tuple[Case, ...] = (("R", ml(1), frac(["1/2", -1])),)  # both halves short


def _high_cases(g: Fraction, h: Fraction) -> tuple[Case, ...]:
    """Large-values split cases when M >= x1^g T0^h."""
    return (
        ("R", ml(1), frac([2, -3])),
        ("R", ml(Q(1, 2)), frac([Q(3, 2), -2])),
        ("R", _ZERO, frac([1, -1])),
        _RRSTAR,
        ("Rstar", ml(Q(3, 8) - Q(5, 4) * h), frac([Q(17, 4) - Q(5, 4) * g, Q(-17, 4)])),
        ("Rstar", ml(Q(2, 5) - Q(4, 5) * h), frac([Q(16, 5) - Q(4, 5) * g, Q(-16, 5)])),
    )


#: The combination routes.  At fixed s a route's pieces are those whose
#: sigma range holds s, in order: the first whose mu range holds mu governs,
#: and a mu outside every piece leaves the route unavailable.
ROUTES: dict[str, tuple[Piece, ...]] = {
    # the mean-value estimate on both halves
    "split-low": (
        # up to mu = 5/3 the split can always keep both halves below T0
        Piece(SIGMA_RANGE[0], Q(3, 4), ml(MU_RANGE[0]), ml(Q(5, 3)), _SHORT),
        # the floor M >= x1^(2/5) is only certified from 7/10 on
        Piece(Q(7, 10), Q(3, 4), ml(Q(5, 3)), ml(2), _SHORT + (
            _RRSTAR,
            ("Rstar", ml(Q(3, 4)), frac([3, Q(-7, 2)])),  # 7/2 (1-s) - 5/4 * 2/5
            ("Rstar", ml(Q(2, 5)), frac([Q(72, 25), Q(-16, 5)])),  # 16/5 (1-s) - 4/5 * 2/5
        )),
    ),
    # the large-values estimate
    "split-high": (
        Piece(Q(3, 4), Q(13, 16), ml(Q(5, 3)), MU_RAISED, _high_cases(Q(2, 5), Q(0))),
        # below 5/3: M >= x1 / T0
        Piece(Q(3, 4), Q(13, 16), ml(Q(8, 5)), MU_RAISED, _high_cases(Q(1), Q(-1))),
    ),
    # raised polynomials at large mu
    "split-mid": (
        Piece(Q(13, 16), Q(25, 28), MU_RAISED, frac([3], [-7, 10]), (
            ("R", frac([4, -4], [-1, 4]), _ZERO),  # lands in the negligible regime
            *(("Rstar", p, _ZERO) for p in RAISED_RSTAR),
        )),
    ),
}


# ---------------------------------------------------------------------------
# The row kernel: every demand at one sigma, evaluated across mu
# ---------------------------------------------------------------------------

def _at(f: MuLinear, sn: int, sd: int) -> Pair:
    """f(sn/sd) for f a function of s alone; the den is 0 where f's vanishes."""
    k = len(f.D) - len(f.A)
    n = _horner(f.A, sn, sd) * sd ** max(0, k)
    d = _horner(f.D, sn, sd) * sd ** max(0, -k)
    return (n, d) if d >= 0 else (-n, -d)


def _row(cat: BoundCatalog, sn: int, sd: int) -> tuple:
    """The row of sigma = sn/sd (sd > 0), built in integers: (den, catalog,
    routes), with the (a, b, p, c) of each applicable catalog bound, and
    each route as its pieces (mu_lo, mu_hi, cases), all numerators over the
    common denominator den.  A demand a/mu + b at mu = n/d is then
    (A d + B n) / (den n), p <= mu c reads P d <= C n, and mu_lo <= mu reads
    LO d <= den n."""
    s = (sn, sd)

    def holds(lo: Fraction, hi: Fraction) -> bool:
        return lo.numerator * sd <= sn * lo.denominator and sn * hi.denominator <= hi.numerator * sd

    catalog = []
    for e in cat.entries:
        f = _at(e.exponent, sn, sd) if holds(e.s_lo, e.s_hi) else (0, 0)
        if f[1]:  # in range, and the exponent's denominator does not vanish
            catalog.append(_demand_coeffs(e.kind, f, (0, 1), s))
    routes = [
        [((_at(p.mu_lo, sn, sd), _at(p.mu_hi, sn, sd)),
          [_demand_coeffs(kind, _at(a, sn, sd), _at(b, sn, sd), s) for kind, a, b in p.cases])
         for p in pieces if holds(p.s_lo, p.s_hi)]
        for pieces in ROUTES.values()
    ]
    den = math.lcm(*(f[1] for t in catalog for f in t), *(
        f[1] for route in routes for ends, cases in route for t in (ends, *cases) for f in t))

    def up(t: tuple[Pair, ...]) -> tuple[int, ...]:
        return tuple([f[0] * (den // f[1]) for f in t])

    return den, [up(t) for t in catalog], [
        [(*up(ends), [up(t) for t in cases]) for ends, cases in route] for route in routes if route]


def _row_values(row: tuple, mus: Iterable[Pair]) -> list[Optional[int]]:
    """required_nu at each mu = n/d of mus from its sigma's row: the numerator
    over den * n, or None where condition (i) already holds.  The demand is
    the min over routes, a combination route being the max over its cases."""
    den, catalog, routes = row
    out: list[Optional[int]] = []
    for n, d in mus:
        for _, _, P, C in catalog:
            if P * d <= C * n:
                out.append(None)  # negligible: any nu is admissible
                break
        else:
            demands = [A * d + B * n for A, B, _, _ in catalog]
            dn = den * n
            for route in routes:
                for lo, hi, cases in route:
                    if lo * d <= dn <= hi * d:
                        # max(0, .) of a route is left to the max(0, .) of the min
                        demands.append(max([A * d + B * n for A, B, P, C in cases
                                            if P * d > C * n], default=0))
                        break
            out.append(max(0, min(demands)))
    return out


# ---------------------------------------------------------------------------
# required_nu and the grid optimizer
# ---------------------------------------------------------------------------

def _within(value, box: tuple[Fraction, Fraction], name: str) -> Fraction:
    v = Q(value)
    if not (box[0] <= v <= box[1]):
        raise ValueError(f"{name}={v} outside [{box[0]}, {box[1]}]")
    return v


def required_nu(
    sigma: Fraction, mu: Fraction, cat: BoundCatalog | None = None
) -> Optional[Fraction]:
    """Least nu provable at (sigma, mu); None when condition (i) already holds.

    Exact: the row of sigma evaluated at one mu.
    """
    s, mu = _within(sigma, SIGMA_RANGE, "sigma"), _within(mu, MU_RANGE, "mu")
    row = _row(cat or builtin_catalog(), s.numerator, s.denominator)
    (v,) = _row_values(row, [(mu.numerator, mu.denominator)])
    return None if v is None else Q(v, row[0] * mu.numerator)


def required_nu_value(sigma, mu, cat: BoundCatalog | None = None) -> Fraction:
    """required_nu with the negligible regime collapsed to 0."""
    d = required_nu(sigma, mu, cat)
    return Q(0) if d is None else d


@dataclass
class OptimizeResult:
    nu_star: Fraction
    argmax: tuple[Fraction, Fraction]
    maximizing_mu: list[Fraction]  # mu grid cells attaining nu_star at argmax sigma
    grid: list[tuple[Fraction, Fraction, Fraction]]
    below_floor: bool
    refinement_levels: int

    def as_dict(self) -> dict:
        return {
            "nu_star": str(self.nu_star),
            "nu_star_float": float(self.nu_star),
            "argmax_sigma": str(self.argmax[0]),
            "argmax_mu": str(self.argmax[1]),
            "maximizing_mu": [str(m) for m in self.maximizing_mu],
            "below_floor_29_120": self.below_floor,
            "refinement_levels": self.refinement_levels,
            "grid_cells": len(self.grid),
        }


def _grid_size(lo, hi, step: Fraction) -> int:
    """len(_grid(lo, hi, step)), counted without building it; step > 0."""
    lo, hi = Q(lo), Q(hi)
    multiples = max(0, hi // step + (-lo // step) + 1)  # ceil(lo/step) .. floor(hi/step)
    return multiples + (lo % step != 0) + (hi != lo and hi % step != 0)


def _grid(lo: Fraction, hi: Fraction, step: Fraction) -> list[Fraction]:
    """Multiples of step inside [lo, hi], plus both endpoints."""
    if step <= 0:
        raise ValueError(f"grid step {step} is not positive")
    n, d = step.numerator, step.denominator
    inner = [Q(k * n, d) for k in range(-(-lo // step), hi // step + 1)]
    if not inner:
        return sorted({lo, hi})
    return [lo] * (inner[0] != lo) + inner + [hi] * (inner[-1] != hi)


def optimize_nu(
    resolution: Fraction = Q(1, 64),
    cat: BoundCatalog | None = None,
    sigma_range: tuple[Fraction, Fraction] = SIGMA_RANGE,
    mu_range: tuple[Fraction, Fraction] = MU_RANGE,
    refine_levels: int = 6,
) -> OptimizeResult:
    """Grid supremum of required_nu with dyadic-midpoint refinement.

    The row of each grid sigma is built once and evaluated across the mu
    grid; values are compared as integer pairs (numerator, denominator).
    """
    resolution = Q(resolution)
    if not 0 < resolution <= Q(1, 64):
        raise ValueError(f"resolution must be in (0, 1/64], got {resolution}")
    for name, (lo, hi) in (("sigma_range", sigma_range), ("mu_range", mu_range)):
        if Q(lo) > Q(hi):
            raise ValueError(f"{name} ({Q(lo)}, {Q(hi)}) is reversed: lo > hi")
    cells = _grid_size(*sigma_range, resolution) * _grid_size(*mu_range, resolution)
    if cells > MAX_GRID_CELLS:
        raise CapacityError(f"resolution {resolution} makes {cells} grid cells, "
                            f"over the cap {MAX_GRID_CELLS}")
    cat = cat or builtin_catalog()
    s_lo, s_hi = (_within(s, SIGMA_RANGE, "sigma") for s in sigma_range)
    m_lo, m_hi = (_within(m, MU_RANGE, "mu") for m in mu_range)
    mus = _grid(m_lo, m_hi, resolution)
    pairs = [(m.numerator, m.denominator) for m in mus]
    grid: list[tuple[Fraction, Fraction, Fraction]] = []
    best, best_den, best_at, zero = 0, 1, 0, Q(0)
    for s in _grid(s_lo, s_hi, resolution):
        row = _row(cat, s.numerator, s.denominator)
        for m, (n, _), v in zip(mus, pairs, _row_values(row, pairs)):
            vd = row[0] * n
            if v and v * best_den > best * vd:
                best, best_den, best_at = v, vd, len(grid)
            grid.append((s, m, Q(v, vd) if v else zero))
    *argmax, nu_star = grid[best_at]
    first = best_at - best_at % len(mus)
    maximizing_mu = [m for _, m, v in grid[first:first + len(mus)] if v == nu_star]

    # local refinement: walk dyadic midpoints around the best cell, on the
    # multiples of 1/L, evaluating each (sigma, mu) once
    L = math.lcm(resolution.denominator << max(0, refine_levels),
                 *(f.denominator for f in (s_lo, s_hi, m_lo, m_hi)))
    rows, seen = {}, {}

    def value(S: int, M: int) -> Pair:
        if (S, M) not in seen:
            if S not in rows:
                rows[S] = _row(cat, S, L)
            (v,) = _row_values(rows[S], [(M, L)])
            seen[S, M] = (v, rows[S][0] * M) if v else (0, 1)
        return seen[S, M]

    S_lo, S_hi, M_lo, M_hi, best_s, best_m, step = (
        f.numerator * (L // f.denominator) for f in (s_lo, s_hi, m_lo, m_hi, *argmax, resolution))
    for _ in range(refine_levels):
        step //= 2
        improved = True
        while improved:
            improved = False
            for ds in (-step, 0, step):
                for dm in (-step, 0, step):
                    s2 = min(max(best_s + ds, S_lo), S_hi)
                    m2 = min(max(best_m + dm, M_lo), M_hi)
                    v2, d2 = value(s2, m2)
                    if v2 * best_den > best * d2:
                        best_s, best_m, best, best_den = s2, m2, v2, d2
                        improved = True
    nu_star = Q(best, best_den)
    return OptimizeResult(nu_star, (Q(best_s, L), Q(best_m, L)), maximizing_mu, grid,
                          nu_star < NU_FLOOR, refine_levels)


# ---------------------------------------------------------------------------
# Case-region coverage
# ---------------------------------------------------------------------------

SIGMA_NEAR_ONE = 1 - Q(1, 10**22)

REGIONS: tuple[tuple[str, Callable[[Fraction, Fraction], bool]], ...] = (
    ("low-sigma", lambda s, m: s <= Q(3, 4)),
    ("high-sigma-small-mu", lambda s, m: s >= Q(3, 4) and m <= MU_RAISED(s)),
    ("high-sigma-large-mu", lambda s, m: Q(3, 4) <= s <= SIGMA_NEAR_ONE and m >= MU_RAISED(s)),
    ("sigma-near-one", lambda s, m: s >= SIGMA_NEAR_ONE),
)


def coverage_check(
    resolution: Fraction = Q(1, 64),
    exclude: Iterable[str] = (),
) -> dict:
    """Check every grid cell of the (sigma, mu) box is claimed by a region."""
    resolution = Q(resolution)
    excluded = set(exclude)
    regions = [(n, f) for n, f in REGIONS if n not in excluded]
    uncovered: list[tuple[str, str]] = []
    doubly: int = 0
    cells = 0
    for s in _grid(*SIGMA_RANGE, resolution):
        for m in _grid(*MU_RANGE, resolution):
            cells += 1
            owners = [n for n, f in regions if f(s, m)]
            if not owners:
                uncovered.append((str(s), str(m)))
            if len(owners) > 1:
                doubly += 1
    return {
        "cells": cells,
        "uncovered": uncovered,
        "covered": not uncovered,
        "multiply_claimed": doubly,
        "excluded": sorted(excluded),
    }
