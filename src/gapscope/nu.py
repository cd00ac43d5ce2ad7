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
  * the combination derivations, which split the product polynomial into two
    halves M <= N with a guaranteed floor on M and case-split on which term
    of the governing mean-value estimate dominates.  A combination route is
    adversarial over its internal cases, so it contributes the max of its
    case demands; the overall demand at (s, mu) is the min over routes.

Every demand is affine in 1/mu at fixed s: a/mu + b, with exact a and b
that depend on s alone (and, for a combination route, on which mu-piece of
the route applies).  `_demand_terms` builds them once per sigma, together
with the negligible-regime thresholds e <= mu(1-s) of the R-bounds, over
one common denominator; a cell is then integer multiply-adds and one
Fraction.  `required_nu` is that kernel at a single mu, and `optimize_nu`
builds it once per sigma row and evaluates it across the mu grid.

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
    """R or R* bounded by T0^(num(s)/den(s)) on [s_lo, s_hi] (den > 0 there)."""

    name: str
    kind: str  # "R" or "Rstar"
    num: tuple[Fraction, Fraction]  # a + b s
    den: tuple[Fraction, Fraction]
    s_lo: Fraction
    s_hi: Fraction

    def applies(self, s: Fraction) -> bool:
        if not (self.s_lo <= s <= self.s_hi):
            return False
        return self._den(s) > 0

    def _den(self, s: Fraction) -> Fraction:
        return self.den[0] + self.den[1] * s

    def exponent(self, s: Fraction) -> Fraction:
        return (self.num[0] + self.num[1] * s) / self._den(s)


def _entry(name, kind, num, den, s_lo, s_hi) -> CatalogEntry:
    return CatalogEntry(
        name, kind,
        (Q(num[0]), Q(num[1])), (Q(den[0]), Q(den[1])),
        Q(s_lo), Q(s_hi),
    )


@dataclass(frozen=True)
class BoundCatalog:
    entries: tuple[CatalogEntry, ...]

    def applicable(self, s: Fraction, kind: str | None = None) -> list[CatalogEntry]:
        return [
            e for e in self.entries
            if e.applies(s) and (kind is None or e.kind == kind)
        ]


def builtin_catalog() -> BoundCatalog:
    return BoundCatalog((
        _entry("mean-value", "R", (3, -3), (2, -1), "1/2", "3/4"),
        _entry("large-values", "R", (3, -3), (-1, 3), "3/4", 1),
        _entry("r-short-range", "R", (3, -3), (-7, 10), "7/10", "25/28"),
        _entry("r-near-one", "R", (4, -4), (-1, 4), "25/28", 1),
        _entry("trivial", "R", (1, 0), (1, 0), "1/2", 1),
        _entry("rstar-low", "Rstar", ("15/2", -8), (1, 0), "1/2", "3/4"),
        _entry("rstar-high", "Rstar", (12, -12), (-1, 4), "3/4", 1),
    ))


# ---------------------------------------------------------------------------
# Demand of a single bound against the targets
# ---------------------------------------------------------------------------

Case = tuple[str, Fraction, Fraction]  # (kind, p, q): bound T0^(p + mu q)


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

# At fixed s a route is a list of pieces (lo, hi, cases): the cases govern
# mu in [lo, hi], the first piece containing mu wins, and a mu outside every
# piece leaves the route unavailable.
Piece = tuple[Fraction, Fraction, list[Case]]


def _comb_low_pieces(s: Fraction) -> list[Piece]:
    """Split routes for s <= 3/4 (mean-value estimate on both halves)."""
    if s > Q(3, 4):
        return []
    short: list[Case] = [("R", Q(1), Q(1, 2) - s)]  # both halves short
    # up to mu = 5/3 the split can always keep both halves below T0
    pieces = [(MU_RANGE[0], Q(5, 3), short)]
    if s >= Q(7, 10):  # the floor M >= x1^(2/5) is only certified from 7/10 on
        g = Q(2, 5)  # M >= x1^g
        pieces.append((Q(5, 3), Q(2), short + [
            ("RRstar", Q(0), 4 - 4 * s),
            ("Rstar", Q(3, 4), Q(7, 2) * (1 - s) - Q(5, 4) * g),
            ("Rstar", Q(2, 5), Q(16, 5) * (1 - s) - Q(4, 5) * g),
        ]))
    return pieces


def _comb_high_pieces(s: Fraction) -> list[Piece]:
    """Split routes for 3/4 <= s <= 13/16 (large-values estimate)."""
    if not (Q(3, 4) <= s <= Q(13, 16)):
        return []

    def cases(g: Fraction, h: Fraction) -> list[Case]:  # M >= x1^g T0^h
        return [
            ("R", Q(1), 2 - 3 * s),
            ("R", Q(1, 2), Q(3, 2) - 2 * s),
            ("R", Q(0), 1 - s),
            ("RRstar", Q(0), 4 - 4 * s),
            ("Rstar", Q(3, 8) - Q(5, 4) * h, Q(17, 4) * (1 - s) - Q(5, 4) * g),
            ("Rstar", Q(2, 5) - Q(4, 5) * h, Q(16, 5) * (1 - s) - Q(4, 5) * g),
        ]

    top = 4 / (4 * s - 1)
    return [
        (Q(5, 3), top, cases(Q(2, 5), Q(0))),  # M >= x1^(2/5)
        (Q(8, 5), top, cases(Q(1), Q(-1))),  # below 5/3: M >= x1 / T0
    ]


def _comb_mid_pieces(s: Fraction) -> list[Piece]:
    """Raised-polynomial routes for 13/16 <= s <= 25/28 at large mu."""
    if not (Q(13, 16) <= s <= Q(25, 28)):
        return []
    short = [
        (7 - 7 * s) / (3 * s - 1),
        (18 - 19 * s) / (6 * s - 2),
        (34 - 34 * s) / (15 * s - 5),
    ]
    long = short + [
        (69 - 73 * s) / (24 * s - 8),
        (31 - 31 * s) / (15 * s - 5),
        (128 - 124 * s) / (60 * s - 15),
    ]
    return [(4 / (4 * s - 1), 3 / (10 * s - 7), [
        ("R", (4 - 4 * s) / (4 * s - 1), Q(0)),  # lands in the negligible regime
        ("Rstar", max(short), Q(0)),
        ("Rstar", max(long), Q(0)),
    ])]


_COMBINATION_ROUTES: tuple[tuple[str, Callable[[Fraction], list[Piece]]], ...] = (
    ("split-low", _comb_low_pieces),
    ("split-high", _comb_high_pieces),
    ("split-mid", _comb_mid_pieces),
)


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
    p <= mu c reads P d <= C n.
    """
    catalog = [_demand_coeffs(e.kind, e.exponent(s), Q(0), s) for e in cat.applicable(s)]
    routes = [
        [(lo, hi, [_demand_coeffs(*case, s) for case in cases]) for lo, hi, cases in pieces(s)]
        for _name, pieces in _COMBINATION_ROUTES
    ]
    coeffs = catalog + [t for route in routes for _, _, terms in route for t in terms]
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
    ("high-sigma-small-mu", lambda s, m: s >= Q(3, 4) and m <= 4 / (4 * s - 1)),
    ("high-sigma-large-mu",
     lambda s, m: Q(3, 4) <= s <= SIGMA_NEAR_ONE and m >= 4 / (4 * s - 1)),
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
