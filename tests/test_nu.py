"""Exponent calculus: pointwise demands, the optimizer, region coverage."""

import math
import random
from fractions import Fraction as Q

import pytest

from gapscope.ledger import builtin_ledger
from gapscope.nu import (
    NU_FLOOR,
    REGIONS,
    ROUTES,
    SIGMA_RANGE,
    BoundCatalog,
    OptimizeResult,
    _grid,
    _grid_size,
    builtin_catalog,
    coverage_check,
    optimize_nu,
    required_nu,
    required_nu_value,
)
from gapscope.claims import MU_RANGE


def test_required_nu_spec_points():
    # sigma = 1: every exponent vanishes, condition (i) absorbs everything
    assert required_nu(Q(1), Q(5, 3)) is None
    assert required_nu_value(Q(1), Q(5, 3)) == 0
    # the critical point
    assert required_nu(Q(3, 4), Q(9, 5)) == Q(1, 4)
    # low corner
    assert required_nu_value(Q(1, 2), Q(4, 3)) <= Q(1, 4)


def test_required_nu_ridge_is_flat():
    for mu in (Q(8, 5), Q(103, 64), Q(7, 4), Q(9, 5), Q(2)):
        assert required_nu_value(Q(3, 4), mu) == Q(1, 4)


def test_required_nu_off_ridge_strictly_below():
    pts = [
        (Q(47, 64), Q(31, 16)), (Q(49, 64), Q(31, 16)), (Q(50, 64), Q(15, 8)),
        (Q(54, 64), Q(27, 16)), (Q(3, 4), Q(129, 64)), (Q(3, 4), Q(51, 32)),
        (Q(5, 8), Q(2)), (Q(7, 8), Q(5, 3)),
    ]
    for s, mu in pts:
        assert required_nu_value(s, mu) < Q(1, 4), (s, mu)


def test_required_nu_range_guards():
    with pytest.raises(ValueError):
        required_nu(Q(1, 4), Q(3, 2))
    with pytest.raises(ValueError):
        required_nu(Q(3, 4), Q(1))


def test_catalog_entries_decrease_in_sigma():
    cat = builtin_catalog()
    step = Q(1, 128)
    for e in cat.entries:
        if e.name == "trivial":
            continue
        s = e.s_lo
        prev = None
        while s <= e.s_hi:
            if e.applies(s):
                val = e.exponent(s)
                if prev is not None:
                    assert val <= prev, (e.name, s)
                prev = val
            s += step


def test_catalog_validity_windows():
    cat = builtin_catalog()
    names = {e.name for e in cat.entries}
    assert {"mean-value", "large-values", "r-short-range", "r-near-one",
            "rstar-low", "rstar-high", "trivial"} == names
    short = next(e for e in cat.entries if e.name == "r-short-range")
    assert not short.applies(Q(7, 10))  # denominator vanishes at the edge
    assert short.applies(Q(3, 4))


def test_optimizer_recovers_quarter():
    res = optimize_nu(Q(1, 64))
    assert res.nu_star == Q(1, 4)
    assert res.argmax[0] == Q(3, 4)
    assert any(Q(8, 5) <= m <= Q(20, 11) for m in res.maximizing_mu)
    assert not res.below_floor


def test_optimizer_restricted_sigma():
    res = optimize_nu(Q(1, 64), sigma_range=(Q(1, 2), Q(7, 10)))
    assert res.nu_star < Q(1, 4)


def test_optimizer_degenerate_cell():
    res = optimize_nu(Q(1, 64), sigma_range=(Q(3, 4), Q(3, 4)),
                      mu_range=(Q(9, 5), Q(9, 5)), refine_levels=0)
    assert res.nu_star == required_nu_value(Q(3, 4), Q(9, 5))


def test_optimizer_deterministic():
    a = optimize_nu(Q(1, 64), refine_levels=2)
    b = optimize_nu(Q(1, 64), refine_levels=2)
    assert a.nu_star == b.nu_star
    assert a.argmax == b.argmax
    assert a.grid == b.grid


def test_optimizer_resolution_guard():
    for bad in (Q(1, 32), Q(0), Q(-1, 64)):
        with pytest.raises(ValueError):
            optimize_nu(bad)
    with pytest.raises(ValueError):
        coverage_check(Q(0))


@pytest.mark.parametrize("kwargs, name", [
    ({"sigma_range": (Q(9, 10), Q(7, 10))}, "sigma_range"),
    ({"mu_range": (Q(2), Q(8, 5))}, "mu_range"),
    ({"sigma_range": (Q(3, 4), Q(3, 4)), "mu_range": (Q(9, 5), Q(17, 10))}, "mu_range"),
])
def test_optimizer_refuses_a_reversed_range(kwargs, name):
    # a reversed range would give a two-point grid and pin the walk to its hi end
    with pytest.raises(ValueError, match=f"^{name} .* is reversed"):
        optimize_nu(Q(1, 64), refine_levels=2, **kwargs)


def test_grid_size_counts_the_grid_without_building_it():
    import random

    rng = random.Random(7)
    for _ in range(3000):
        lo = Q(rng.randint(-50, 50), rng.randint(1, 20))
        hi = lo + Q(rng.randint(0, 60), rng.randint(1, 20)) * rng.randint(0, 1)
        step = Q(rng.randint(1, 10), rng.randint(1, 40))
        assert _grid_size(lo, hi, step) == len(_grid(lo, hi, step)), (lo, hi, step)


def test_coverage_full_box():
    cov = coverage_check()
    assert cov["covered"] and not cov["uncovered"]
    assert cov["cells"] > 1000


def test_coverage_boundary_shared():
    owners = [n for n, f in REGIONS if f(Q(3, 4), Q(2))]
    assert "high-sigma-small-mu" in owners and "high-sigma-large-mu" in owners


def test_coverage_mutation_detects_hole():
    cov = coverage_check(exclude=["high-sigma-large-mu"])
    assert not cov["covered"] and cov["uncovered"]


def test_required_nu_below_quarter_everywhere_on_grid():
    # the whole point: 1/4 suffices across the box
    step = Q(1, 32)
    s = SIGMA_RANGE[0]
    while s <= SIGMA_RANGE[1]:
        m = MU_RANGE[0]
        while m <= MU_RANGE[1]:
            assert required_nu_value(s, m) <= Q(1, 4), (s, m)
            m += step
        s += step


# ---------------------------------------------------------------------------
# Reference: the per-cell demand calculus, rebuilt at every (sigma, mu)
# ---------------------------------------------------------------------------

def _ref_demand(kind, e, s, mu):
    if kind == "R":
        if e <= mu * (1 - s):
            return None
        return (e - 1) / mu - 1 + 2 * s
    if kind == "Rstar":
        return (e - 1) / mu - 3 + 4 * s
    if kind == "RRstar":
        return ((e - 2) / mu - 4 + 6 * s) / 2
    raise ValueError(kind)


def _ref_case_demand(case, s, mu):
    kind, p, q = case
    d = _ref_demand(kind, p + mu * q, s, mu)
    return Q(0) if d is None else max(Q(0), d)


def _ref_low(s, mu):
    if s > Q(3, 4) or mu > 2:
        return None
    cases = [("R", Q(1), Q(1, 2) - s)]
    if mu <= Q(5, 3):
        return cases
    if s < Q(7, 10):
        return None
    g = Q(2, 5)
    return cases + [
        ("RRstar", Q(0), 4 - 4 * s),
        ("Rstar", Q(3, 4), Q(7, 2) * (1 - s) - Q(5, 4) * g),
        ("Rstar", Q(2, 5), Q(16, 5) * (1 - s) - Q(4, 5) * g),
    ]


def _ref_high(s, mu):
    if not (Q(3, 4) <= s <= Q(13, 16)):
        return None
    if not (Q(8, 5) <= mu <= 4 / (4 * s - 1)):
        return None
    g, h = (Q(2, 5), Q(0)) if mu >= Q(5, 3) else (Q(1), Q(-1))
    return [
        ("R", Q(1), 2 - 3 * s),
        ("R", Q(1, 2), Q(3, 2) - 2 * s),
        ("R", Q(0), 1 - s),
        ("RRstar", Q(0), 4 - 4 * s),
        ("Rstar", Q(3, 8) - Q(5, 4) * h, Q(17, 4) * (1 - s) - Q(5, 4) * g),
        ("Rstar", Q(2, 5) - Q(4, 5) * h, Q(16, 5) * (1 - s) - Q(4, 5) * g),
    ]


def _ref_mid(s, mu):
    if not (Q(13, 16) <= s <= Q(25, 28)):
        return None
    if not (4 / (4 * s - 1) <= mu <= 3 / (10 * s - 7)):
        return None
    short = [(7 - 7 * s) / (3 * s - 1), (18 - 19 * s) / (6 * s - 2),
             (34 - 34 * s) / (15 * s - 5)]
    long = short + [(69 - 73 * s) / (24 * s - 8), (31 - 31 * s) / (15 * s - 5),
                    (128 - 124 * s) / (60 * s - 15)]
    return [
        ("R", (4 - 4 * s) / (4 * s - 1), Q(0)),
        ("Rstar", max(short), Q(0)),
        ("Rstar", max(long), Q(0)),
    ]


def reference_required_nu(s, mu, cat):
    """required_nu as a per-cell loop: catalog exponents and route case lists
    rebuilt at every (s, mu), every demand a Fraction."""
    demands = []
    for entry in (e for e in cat.entries if e.applies(s)):
        d = _ref_demand(entry.kind, entry.exponent(s), s, mu)
        if d is None:
            return None
        demands.append(d)
    for route in (_ref_low, _ref_high, _ref_mid):
        cases = route(s, mu)
        if cases is not None:
            demands.append(max(_ref_case_demand(c, s, mu) for c in cases))
    return max(Q(0), min(demands))


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError:
        return ValueError


CELLS = [(s, m) for s in _grid(*SIGMA_RANGE, Q(1, 64)) for m in _grid(*MU_RANGE, Q(1, 64))]


def test_row_kernel_matches_reference_on_grid():
    cat = builtin_catalog()
    res = optimize_nu(Q(1, 64), refine_levels=0)
    assert [(s, m) for s, m, _ in res.grid] == CELLS
    for s, m, v in res.grid:
        ref = reference_required_nu(s, m, cat)
        assert v == (Q(0) if ref is None else ref), (s, m)
        assert required_nu(s, m) == ref, (s, m)


@pytest.mark.parametrize("drop", [
    {"trivial"},
    {"trivial", "large-values", "mean-value"},
    {"trivial", "rstar-low", "rstar-high"},
    {e.name for e in builtin_catalog().entries},
])
def test_row_kernel_matches_reference_on_reduced_catalog(drop):
    cat = BoundCatalog(tuple(e for e in builtin_catalog().entries if e.name not in drop))
    for s, m in CELLS:
        assert _outcome(required_nu, s, m, cat) == _outcome(reference_required_nu, s, m, cat), (s, m)


def _rational_in(rng, lo, hi, max_den=1024):
    """A random rational in [lo, hi] with denominator at most max_den."""
    while True:
        d = rng.randint(1, max_den)
        a, b = math.ceil(lo * d), math.floor(hi * d)
        if a <= b:
            return Q(rng.randint(a, b), d)


def _piece_mus(s):
    """Every mu-piece end of the routes at s that lies in the mu range."""
    ends = [Q(8, 5), Q(5, 3), Q(2), 4 / (4 * s - 1)]
    if 10 * s > 7:
        ends.append(3 / (10 * s - 7))
    return [m for m in ends if MU_RANGE[0] <= m <= MU_RANGE[1]]


def test_row_kernel_matches_reference_off_the_grid():
    # the table evaluated at random rationals and on every piece boundary
    rng = random.Random(20120116)
    cat = builtin_catalog()
    sigmas = [Q(7, 10), Q(3, 4), Q(13, 16), Q(25, 28)]
    sigmas += [_rational_in(rng, *SIGMA_RANGE) for _ in range(500)]
    for s in sigmas:
        mus = _piece_mus(s) + [_rational_in(rng, *MU_RANGE) for _ in range(3)]
        for m in mus:
            assert required_nu(s, m) == reference_required_nu(s, m, cat), (s, m)


def test_ledger_sides_are_the_table_values():
    # the builtin ledger certifies the exponents the optimizer evaluates
    by_id = {c.id: c for c in builtin_ledger()}
    published = {e.name: e.exponent for e in builtin_catalog().entries}
    (mid,) = ROUTES["split-mid"]
    raised = [p for kind, p, _ in mid.cases if kind == "Rstar"]
    assert by_id["pub-ext-mean-value"].rhs == published["mean-value"]
    assert by_id["pub-ext-large-values"].rhs == published["large-values"]
    assert by_id["pub-ext-tenth"].rhs == published["r-short-range"]
    assert by_id["pub-ext-rstar-low"].rhs == published["rstar-low"]
    assert by_id["hb4-boundary-identity"].lhs == [published["rstar-high"]]
    assert by_id["plugin-mean-value-at-34"].lhs == [published["mean-value"]]
    assert by_id["mu-case1b-max"].lhs == raised[:3]
    assert by_id["mu-case1c-max"].lhs == raised


# ---------------------------------------------------------------------------
# Reference optimizer: Fraction demands per point, the grid and the dyadic walk
# ---------------------------------------------------------------------------

def _ref_coeffs(kind, p, q, s):
    """(a, b, (p, c) or None): nu >= a/mu + b, unless p <= mu c (R-bounds)."""
    if kind == "R":
        return p - 1, q - 1 + 2 * s, (p, 1 - s - q)
    if kind == "Rstar":
        return p - 1, q - 3 + 4 * s, None
    return (p - 2) / 2, (q - 4 + 6 * s) / 2, None


def _ref_row(s, cat):
    catalog = [_ref_coeffs(e.kind, e.exponent(s), Q(0), s) for e in cat.entries if e.applies(s)]
    routes = [[(p.mu_lo(s), p.mu_hi(s), [_ref_coeffs(kind, a(s), b(s), s) for kind, a, b in p.cases])
               for p in pieces if p.s_lo <= s <= p.s_hi] for pieces in ROUTES.values()]
    return catalog, routes


def _ref_demand_at(row, mu):
    catalog, routes = row
    demands = []
    for a, b, neg in catalog:
        if neg is not None and neg[0] <= mu * neg[1]:
            return None
        demands.append(a / mu + b)
    for route in routes:
        for lo, hi, cases in route:
            if lo <= mu <= hi:
                demands.append(max(Q(0) if neg is not None and neg[0] <= mu * neg[1]
                                   else max(Q(0), a / mu + b) for a, b, neg in cases))
                break
    return max(Q(0), min(demands))


def reference_optimize_nu(resolution, cat=None, sigma_range=SIGMA_RANGE, mu_range=MU_RANGE,
                          refine_levels=6):
    """optimize_nu over Fractions: each sigma's row of Fraction demands, each
    cell a Fraction, nu* the max of the grid, then the dyadic-midpoint walk."""
    cat = cat or builtin_catalog()
    rows = {}

    def value(s, m):
        if s not in rows:
            rows[s] = _ref_row(s, cat)
        d = _ref_demand_at(rows[s], m)
        return Q(0) if d is None else d

    grid = [(s, m, value(s, m)) for s in _grid(*sigma_range, resolution)
            for m in _grid(*mu_range, resolution)]
    nu_star = max(v for _, _, v in grid)
    argmax = next((s, m) for s, m, v in grid if v == nu_star)
    maximizing_mu = [m for s, m, v in grid if s == argmax[0] and v == nu_star]
    (best_s, best_m), best_v = argmax, nu_star
    step = resolution
    for _ in range(refine_levels):
        step = step / 2
        improved = True
        while improved:
            improved = False
            for ds in (-step, Q(0), step):
                for dm in (-step, Q(0), step):
                    s2 = min(max(best_s + ds, sigma_range[0]), sigma_range[1])
                    m2 = min(max(best_m + dm, mu_range[0]), mu_range[1])
                    v2 = value(s2, m2)
                    if v2 > best_v:
                        best_s, best_m, best_v = s2, m2, v2
                        improved = True
    return OptimizeResult(best_v, (best_s, best_m), maximizing_mu, grid, best_v < NU_FLOOR,
                          refine_levels)


def _reduced(*drop):
    return BoundCatalog(tuple(e for e in builtin_catalog().entries if e.name not in drop))


@pytest.mark.parametrize("kwargs", [
    {"resolution": Q(1, 64)},
    {"resolution": Q(1, 128)},
    {"resolution": Q(1, 64), "refine_levels": 0},
    {"resolution": Q(1, 64), "refine_levels": 2},
    {"resolution": Q(1, 100), "refine_levels": 6, "sigma_range": (Q(1, 2), Q(7, 10))},
    {"resolution": Q(1, 64), "sigma_range": (Q(3, 4), Q(3, 4))},
    # the first mu of the argmax row attains nu*
    {"resolution": Q(1, 64), "sigma_range": (Q(7, 10), Q(9, 10)), "mu_range": (Q(8, 5), Q(2))},
    {"resolution": Q(3, 200), "sigma_range": (Q(13, 16), Q(25, 28)),
     "mu_range": (Q(17, 10), MU_RANGE[1])},
    {"resolution": Q(1, 64), "cat": _reduced("trivial", "rstar-low", "rstar-high")},
], ids=["res64", "res128", "levels0", "levels2", "low-sigma", "sigma-3/4", "box",
        "raised-box", "reduced-catalog"])
def test_optimizer_matches_the_fraction_reference(kwargs):
    assert optimize_nu(**kwargs) == reference_optimize_nu(**kwargs)


def test_optimizer_without_any_catalog_bound_refuses_like_the_reference():
    # with every published bound dropped, some cell has no route at all
    cat = _reduced(*(e.name for e in builtin_catalog().entries))
    with pytest.raises(ValueError):
        reference_optimize_nu(Q(1, 64), cat)
    with pytest.raises(ValueError):
        optimize_nu(Q(1, 64), cat)
