"""Builtin ledger: the displayed inequalities behind the d_n^2 case analysis.

Each claim is one inequality used when the large-value counts R, R* are
played against the target bounds R <= T0 x1^(5/4 - 2s) and
R* <= T0 x1^(13/4 - 4s) over the box (s, mu) in [1/2, 1] x [4/3, 19/9],
where s aggregates the per-factor magnitudes and mu = log x1 / log T0.

Conventions: claims state max(lhs_i) <= rhs with u = 1/mu.  Bounds of the
shape  T0^p * x1^q <= T0 * x1^target  are recorded after dividing the
exponent comparison by mu, which makes every claim linear in u.  Epsilon
slack is dropped throughout; ledger checks are non-strict, and the one
genuinely strict ordering (the quadratic crossing point against 53/68) is
carried as an algebraic comparison.

The expected-to-fail mutations (rhs shifted down by 1/100 on tight claims)
are produced by `specified_mutations`.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraicNumber, MuLinear, S, U, frac, ml, poly
from .claims import Claim
from .nu import RAISED_RSTAR, builtin_catalog

Q = Fraction

#: the published exponents, read from the optimizer's catalog
_PUBLISHED = {e.name: e.exponent for e in builtin_catalog().entries}


def _L(c0, c1=0) -> MuLinear:
    """Affine function of s as a MuLinear."""
    return frac([c0, c1])


def _frac(num0, num1, den0, den1) -> MuLinear:
    """(num0 + num1 s) / (den0 + den1 s)."""
    return frac([num0, num1], [den0, den1])


def _u_times(num0, num1, den0=1, den1=0) -> MuLinear:
    return U * _frac(num0, num1, den0, den1)


# The quadratic whose smaller root is (271 - sqrt(193))/336: substituting
# y = 271 - 336 x into y^2 = 193 gives 1176 x^2 - 1897 x + 763 = 0.
CROSSING_POLY = poly([763, -1897, 1176])
CROSSING_BRACKET = (Q(19, 25), Q(77, 100))


def builtin_ledger() -> list[Claim]:
    claims: list[Claim] = []
    add = claims.append

    # --- case-conclusion exponent comparisons -----------------------------
    add(Claim.box("ssmall-case1-exponent", _L("1/2", -1), _L("5/4", -2),
                  "1/2", "3/4",
                  source="short-split geometric mean against the R target, s <= 3/4"))
    add(Claim.box("slarge-case1-exponent", _L(2, -3), _L("5/4", -2),
                  "3/4", "1",
                  source="fourth-power split geometric mean against the R target, s >= 3/4"))
    add(Claim.box("trivial-region", S, _L("5/8"), "1/2", "5/8",
                  source="the trivial count R <= T0 meets the target iff s <= 5/8"))

    # --- published-bound sufficiency regions ------------------------------
    add(Claim.box("mont-covers-low", _u_times(1, -2, 2, -1), _L("5/4", -2),
                  "5/8", "7/10", mu=("4/3", 2),
                  source="mean-value estimate covers mu <= 2 on 5/8 <= s <= 7/10"))
    add(Claim.box("mont-covers-mid", _u_times(1, -2, 2, -1), _L("5/4", -2),
                  "7/10", "3/4", mu=("4/3", "8/5"),
                  source="mean-value estimate covers mu <= 8/5 on 7/10 <= s <= 3/4"))
    add(Claim.box("hb3-covers-mu2", _u_times("13/2", -8), _L("13/4", -4),
                  "1/2", "3/4", mu=(2, "19/9"),
                  source="fourth-moment R* bound covers mu >= 2 for s <= 3/4"))
    add(Claim.box("hux-covers-slarge", _u_times(4, -6, -1, 3), _L("5/4", -2),
                  "3/4", "13/16", mu=("4/3", "8/5"),
                  source="large-values estimate covers mu <= 8/5 on 3/4 <= s <= 13/16"))
    add(Claim.box("hux-mu-window", _frac(9, 0, 4, 2),
                  frac([-16, 24], [5, -23, 24]),
                  "53/68", "13/16",
                  source="large-values estimate swallows the residual mu window "
                         "8(3s-2)/((8s-5)(3s-1)) above 9/(4+2s)"))
    add(Claim.box("hb4-boundary-identity", _PUBLISHED["rstar-high"],
                  ml(1) + frac([13, -16], [-1, 4]), "3/4", "1",
                  source="R* bound matches the target exactly along mu = 4/(4s-1)"))

    # --- the two max-comparisons of the large-mu combination --------------
    rhs_1bc = _L(1) + frac([39, -48], [-28, 40])  # 1 + (3/(10s-7))(13-16s)/4
    add(Claim.box("mu-case1b-max", RAISED_RSTAR[:3], rhs_1bc, "13/16", "25/28",
                  source="three-term R* max in the raised-polynomial middle range"))
    add(Claim.box("mu-case1c-max", RAISED_RSTAR, rhs_1bc, "13/16", "25/28",
                  source="six-term R* max in the raised-polynomial short range"))

    # --- combination feasibility, s <= 3/4 (box mu in [5/3, 2]) -----------
    fbox = dict(mu=("5/3", 2))
    add(Claim.box("ssmall-feas-energy-sq", _L("2/9", "-2/9") + ml(0, "5/9"),
                  _L("2/5"), "7/10", "3/4", **fbox,
                  source="smaller half exceeds x1^(2(1-s)/9) T0^(5/9)"))
    add(Claim.box("ssmall-feas-energy-lin", _L("2/3", "-2/3") + ml(0, "1/3"),
                  _L("2/5"), "7/10", "3/4", **fbox,
                  source="smaller half exceeds x1^(2(1-s)/3) T0^(1/3)"))
    add(Claim.box("ssmall-feas-2b-listed", _L("1/2") - ml(0, "1/5"),
                  _L("2/5"), "7/10", "3/4", **fbox,
                  source="smaller half exceeds x1^(1/2) T0^(-1/5) (as instantiated)"))
    add(Claim.box("ssmall-feas-2b-derived", _L("1/5", "2/5") - ml(0, "1/5"),
                  _L("2/5"), "7/10", "3/4", **fbox,
                  source="smaller half exceeds x1^((2s+1)/5) T0^(-1/5) (stated threshold)"))
    add(Claim.box("ssmall-feas-2c-listed", _L("11/16") - ml(0, "3/4"),
                  _L("2/5"), "7/10", "3/4", **fbox,
                  source="smaller half exceeds x1^(11/16) T0^(-3/4) (as instantiated)"))
    add(Claim.box("ssmall-feas-2c-derived", _L("-1/16", 1) - ml(0, "3/4"),
                  _L("2/5"), "7/10", "3/4", **fbox,
                  source="smaller half exceeds x1^(s-1/16) T0^(-3/4) (stated threshold)"))

    # --- combination feasibility, s >= 3/4 (box mu in [8/5, 2]) -----------
    gbox = dict(mu=("8/5", 2))
    add(Claim.box("slarge-feas-energy-sq", _L(1, -1) + ml(0, "1/6"),
                  _L("2/5"), "3/4", "13/16", **gbox,
                  source="smaller half exceeds x1^(1-s) T0^(1/6)"))
    add(Claim.box("slarge-feas-energy-lin", _L("1/3", "-1/3") + ml(0, "1/2"),
                  _L("2/5"), "3/4", "13/16", **gbox,
                  source="smaller half exceeds x1^((1-s)/3) T0^(1/2)"))
    add(Claim.box("slarge-feas-2b", _L("4/5", "-1/5") - ml(0, "1/2"),
                  _L("2/5"), "3/4", "13/16", **gbox,
                  source="smaller half exceeds x1^((4-s)/5) T0^(-1/2)"))
    add(Claim.box("slarge-feas-2c", _L("-1/16", 1) - ml(0, "3/4"),
                  _L("2/5"), "3/4", "13/16", **gbox,
                  source="smaller half exceeds x1^(s-1/16) T0^(-3/4)"))
    add(Claim.box("slarge-feas-comp-energy", ml(0, "7/6"), S,
                  "3/4", "13/16", **gbox,
                  source="x1/T0 exceeds x1^(1-s) T0^(1/6)"))
    add(Claim.box("slarge-feas-comp-2b", _L("4/5", "-1/5") + ml(0, "1/2"),
                  _L(1), "3/4", "13/16", **gbox,
                  source="x1/T0 exceeds x1^((4-s)/5) T0^(-1/2)"))
    add(Claim.box("slarge-feas-comp-2c", _L("-1/16", 1) + ml(0, "1/4"),
                  _L(1), "3/4", "13/16", **gbox,
                  source="x1/T0 exceeds x1^(s-1/16) T0^(-3/4)"))
    add(Claim.box("slarge-mu-threshold-identity",
                  _L("1/3", "-1/3") + frac([6, 3], [9]),
                  _L(1), "3/4", "13/16",
                  source="worst-mu substitution of the mu >= 9/(4+2s) branch (an identity)"))
    add(Claim.box("slarge-window-floor", _frac(9, 0, 4, 2), _frac(2, 0, -5, 8),
                  "3/4", "53/68",
                  source="mu window 2/(8s-5) <= mu <= 9/(4+2s) is empty below s = 53/68"))

    # --- long-polynomial reduction -----------------------------------------
    add(Claim.box("longpoly-tail-a", _L("-1/20", "2/7"), ml(0, "5/7"),
                  "1/2", "1",
                  source="very long factor, first tail term against the R target"))
    add(Claim.box("longpoly-tail-b", S * _L("2/7") + ml(0, "1/7"), _L("11/28"),
                  "1/2", "1",
                  source="very long factor, second tail term against the R target"))

    # --- published-bound internal extensions -------------------------------
    add(Claim.box("pub-ext-mean-value", _frac(7, -8, 4, -2), _PUBLISHED["mean-value"],
                  "2/3", "3/4",
                  source="long-polynomial fallback stays below the mean-value exponent"))
    add(Claim.box("pub-ext-large-values", _frac(5, -6, -2, 6), _PUBLISHED["large-values"],
                  "3/4", "1",
                  source="long-polynomial fallback stays below the large-values exponent"))
    add(Claim.box("pub-ext-tenth", _frac(-19, 22, -14, 20), _PUBLISHED["r-short-range"],
                  "3/4", "25/28",
                  source="twelfth-moment fallback stays below the short-range R exponent"))
    add(Claim.box("pub-ext-rstar-low", _L(6, -6), _PUBLISHED["rstar-low"],
                  "1/2", "3/4",
                  source="cubed fallback stays below the low-range R* exponent"))

    # --- scale bookkeeping --------------------------------------------------
    add(Claim.box("identity-order-raise", _L("2/5"), U, "1/2", "1",
                  source="raising a short factor keeps length below T0^(1/16) when mu <= 5/2"))
    add(Claim.box("mu-range-consistency", _L("40/19"), _L("19/9"), "1/2", "1",
                  source="window exponent range translates into mu <= 19/9 (361 vs 360)"))
    add(Claim.box("near-one-length", _L(1), _L("-9/8", "9/4"), "17/18", "1",
                  source="raised length Y >= T0^(9/16) dominates T0 once s >= 17/18"))
    add(Claim.box("near-one-target", U * _L("5/4", "-5/4"), _L("15/16", "-15/16"),
                  "17/18", "1",
                  source="T0^(5(1-s)/4) sits under x1^(15(1-s)/16) for mu >= 4/3"))
    add(Claim.box("deep-cell-negative-b", _L(8, -10), _L(0), "13/16", "25/28",
                  source="exponent 8-10s is nonpositive in the middle range"))
    add(Claim.box("deep-cell-negative-c", _L("23/2", -17), _L(0), "13/16", "25/28",
                  source="exponent (23-34s)/2 is nonpositive in the middle range"))
    add(Claim.box("deep-cell-negative-d", _L("44/5", "-64/5"), _L(0), "13/16", "25/28",
                  source="exponent (44-64s)/5 is nonpositive in the middle range"))
    add(Claim.box("shallow-cell-positive", [_L(-7, 7), _L(-9, "19/2"), _L("-36/5", 8),
                                            _L("-71/8", "79/8")],
                  _L(0), "13/16", "25/28",
                  source="first four six-term exponents are nonnegative in the middle range"))
    add(Claim.box("plugin-mean-value-at-34", _PUBLISHED["mean-value"], _L(1),
                  "3/4", "3/4",
                  source="mean-value exponent at s = 3/4 is 3/5 <= 1"))
    add(Claim.box("nu-floor-arithmetic", _L("43/60") - U, _L("29/120"),
                  "1/2", "1", mu=("40/19", "40/19"),
                  source="exceptional-set term pins the configured floor 29/120"))

    # --- the algebraic crossing ---------------------------------------------
    claims.append(Claim.ordering(
        "crossing-point",
        AlgebraicNumber(CROSSING_POLY, *CROSSING_BRACKET),
        Q(53, 68),
        source="(271 - sqrt(193))/336 < 53/68; brackets the smaller quadratic root",
    ))
    return claims


#: ids of tight claims whose rhs - 1/100 mutation must fail (acceptance suite)
TIGHT_CLAIM_IDS = (
    "ssmall-case1-exponent",
    "hb3-covers-mu2",
    "slarge-mu-threshold-identity",
    "slarge-feas-2b",
    "hb4-boundary-identity",
)


def specified_mutations() -> list[Claim]:
    """The five rhs - 1/100 mutations of tight builtin claims."""
    by_id = {c.id: c for c in builtin_ledger()}
    out = []
    for cid in TIGHT_CLAIM_IDS:
        c = by_id[cid]
        out.append(Claim.box(
            c.id + "-mutated", list(c.lhs), c.rhs - ml(Q(1, 100)),
            c.sigma_interval[0], c.sigma_interval[1],
            mu=c.mu_interval, strict=c.strict,
            source=c.source + " [rhs - 1/100]",
        ))
    return out


def mutated_ledger() -> list[Claim]:
    """Builtin ledger with the five tight claims replaced by their mutations."""
    out = []
    mutated = {cid: m for cid, m in zip(TIGHT_CLAIM_IDS, specified_mutations())}
    for c in builtin_ledger():
        out.append(mutated.get(c.id, c))
    return out
