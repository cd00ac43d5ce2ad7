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
in s, written once here and read also by the builtin ledger.  At fixed s
every demand is a/mu + b with exact a and b: `_demand_terms` evaluates the
table at one sigma, together with the negligible-regime thresholds
e <= mu(1-s) of the R-bounds, over one common denominator, and a cell is
then integer multiply-adds and one Fraction.  `required_nu` is that kernel
at a single mu, and `optimize_nu` builds it once per sigma row and
evaluates it across the mu grid.

All arithmetic is exact (Fractions); epsilon refinements are dropped and the
log-power savings of the negligible regime are treated as free, so boundary
comparisons are non-strict.  The polynomial-structure reduction (every
factor short except at most one of length <= x1^(3/5)) is assumed here; its
inequality chains are certified separately in the builtin ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional

from .algebra import MuLinear, frac, ml, sign_on_interval
from .claims import MU_RANGE
from .errors import CapacityError

Q = Fraction

SIGMA_RANGE = (Q(1, 2), Q(1))
#: Largest sigma x mu grid `optimize_nu` evaluates, at about 10 us a cell;
#: it admits res = 1/512 (102800 cells), 60 times the default 1/64 grid.
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

    def applicable(self, s: Fraction, kind: str | None = None) -> list[CatalogEntry]:
        return [
            e for e in self.entries
            if e.applies(s) and (kind is None or e.kind == kind)
        ]


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

def _demand_coeffs(kind: str, p: Fraction, q: Fraction, s: Fraction):
    """(a, b, negligible) for a bound T0^(p + mu q) on `kind` at sigma s.

    The bound demands nu >= a/mu + b.  For an R-bound, negligible = (p, c):
    when p <= mu c its exponent is at most mu(1 - s), the bound lands in
    condition (i) and demands nothing.  Other kinds are never negligible.
    """
    if kind == "R":
        return p - 1, q - 1 + 2 * s, (p, 1 - s - q)
    if kind == "Rstar":
        return p - 1, q - 3 + 4 * s, None
    if kind == "RRstar":
        return (p - 2) / 2, (q - 4 + 6 * s) / 2, None
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

Term = tuple[int, int, Optional[tuple[int, int]]]  # (A, B, (P, C) or None)


class _Row(NamedTuple):
    den: int
    catalog: list[Term]
    routes: list[list[tuple[Fraction, Fraction, list[Term]]]]


def _demand_terms(s: Fraction, cat: BoundCatalog) -> _Row:
    """Every demand at sigma s, as integer terms over one common denominator.

    With every a, b, p, c of the row scaled by their common denominator D, a
    demand a/mu + b at mu = n/d has the value (A d + B n) / (D n), so all
    demands at one mu compare by their numerators alone, and a threshold
    p <= mu c reads P d <= C n.  A case shared by pieces is evaluated once.
    """
    demand: dict[Case, tuple] = {}

    def of(case: Case) -> tuple:
        if case not in demand:
            kind, p, q = case
            demand[case] = _demand_coeffs(kind, p(s), q(s), s)
        return demand[case]

    catalog = [_demand_coeffs(e.kind, e.exponent(s), Q(0), s) for e in cat.applicable(s)]
    routes = [
        [(p.mu_lo(s), p.mu_hi(s), [of(case) for case in p.cases])
         for p in pieces if p.s_lo <= s <= p.s_hi]
        for pieces in ROUTES.values()
    ]
    coeffs = catalog + list(demand.values())
    den = math.lcm(*(f.denominator for a, b, neg in coeffs for f in (a, b, *(neg or ()))))

    def scaled(a: Fraction, b: Fraction, neg) -> Term:
        def up(f: Fraction) -> int:
            return f.numerator * (den // f.denominator)
        return up(a), up(b), None if neg is None else (up(neg[0]), up(neg[1]))

    return _Row(
        den,
        [scaled(*t) for t in catalog],
        [[(lo, hi, [scaled(*t) for t in terms]) for lo, hi, terms in route] for route in routes],
    )


def _demand_at(row: _Row, mu: Fraction) -> Optional[Fraction]:
    """required_nu at mu from its sigma's row terms: min over routes, a
    combination route being the max over its internal cases."""
    n, d = mu.numerator, mu.denominator
    demands: list[int] = []
    for A, B, neg in row.catalog:
        if neg is not None and neg[0] * d <= neg[1] * n:
            return None  # negligible: any nu is admissible
        demands.append(A * d + B * n)
    for route in row.routes:
        for lo, hi, cases in route:
            if lo <= mu <= hi:
                demands.append(max(
                    0 if neg is not None and neg[0] * d <= neg[1] * n
                    else max(0, A * d + B * n)
                    for A, B, neg in cases
                ))
                break
    return Q(max(0, min(demands)), row.den * n)


# ---------------------------------------------------------------------------
# required_nu and the grid optimizer
# ---------------------------------------------------------------------------

def _sigma(sigma) -> Fraction:
    s = Q(sigma)
    if not (SIGMA_RANGE[0] <= s <= SIGMA_RANGE[1]):
        raise ValueError(f"sigma={s} outside [1/2, 1]")
    return s


def _mu(mu) -> Fraction:
    m = Q(mu)
    if not (MU_RANGE[0] <= m <= MU_RANGE[1]):
        raise ValueError(f"mu={m} outside [4/3, 19/9]")
    return m


def required_nu(
    sigma: Fraction, mu: Fraction, cat: BoundCatalog | None = None
) -> Optional[Fraction]:
    """Least nu provable at (sigma, mu); None when condition (i) already holds.

    Exact over Fractions: the row terms of sigma evaluated at one mu.
    """
    s, mu = _sigma(sigma), _mu(mu)
    return _demand_at(_demand_terms(s, cat or builtin_catalog()), mu)


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
    first = -((-lo) // step)  # ceil(lo/step)
    vals = {lo, hi}
    k = first
    while k * step <= hi:
        vals.add(k * step)
        k += 1
    return sorted(vals)


def optimize_nu(
    resolution: Fraction = Q(1, 64),
    cat: BoundCatalog | None = None,
    sigma_range: tuple[Fraction, Fraction] = SIGMA_RANGE,
    mu_range: tuple[Fraction, Fraction] = MU_RANGE,
    refine_levels: int = 6,
) -> OptimizeResult:
    """Grid supremum of required_nu with dyadic-midpoint refinement.

    The demand terms of a sigma are built once, for its grid row or when the
    refinement walk first visits it, and evaluated across mu.
    """
    resolution = Q(resolution)
    if not 0 < resolution <= Q(1, 64):
        raise ValueError(f"resolution must be in (0, 1/64], got {resolution}")
    cells = _grid_size(*sigma_range, resolution) * _grid_size(*mu_range, resolution)
    if cells > MAX_GRID_CELLS:
        raise CapacityError(f"resolution {resolution} makes {cells} grid cells, "
                            f"over the cap {MAX_GRID_CELLS}")
    cat = cat or builtin_catalog()
    sig = [_sigma(s) for s in _grid(Q(sigma_range[0]), Q(sigma_range[1]), resolution)]
    mus = [_mu(m) for m in _grid(Q(mu_range[0]), Q(mu_range[1]), resolution)]
    rows: dict[Fraction, _Row] = {}

    def value(s: Fraction, m: Fraction) -> Fraction:
        if s not in rows:
            rows[s] = _demand_terms(s, cat)
        d = _demand_at(rows[s], m)
        return Q(0) if d is None else d

    grid = [(s, m, value(s, m)) for s in sig for m in mus]

    nu_star = max(v for _, _, v in grid)
    argmax = next((s, m) for s, m, v in grid if v == nu_star)
    maximizing_mu = [m for s, m, v in grid if s == argmax[0] and v == nu_star]

    # local refinement: walk dyadic midpoints around the best cell
    best_s, best_m, best_v = argmax[0], argmax[1], nu_star
    step = resolution
    for _ in range(refine_levels):
        step = step / 2
        improved = True
        while improved:
            improved = False
            for ds in (-step, Q(0), step):
                for dm in (-step, Q(0), step):
                    s2 = min(max(best_s + ds, Q(sigma_range[0])), Q(sigma_range[1]))
                    m2 = min(max(best_m + dm, Q(mu_range[0])), Q(mu_range[1]))
                    v2 = value(s2, m2)
                    if v2 > best_v:
                        best_s, best_m, best_v = s2, m2, v2
                        improved = True
    return OptimizeResult(
        nu_star=best_v,
        argmax=(best_s, best_m),
        maximizing_mu=maximizing_mu,
        grid=grid,
        below_floor=best_v < NU_FLOOR,
        refinement_levels=refine_levels,
    )


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
