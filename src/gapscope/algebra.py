"""Exact univariate polynomial arithmetic over the rationals.

Polynomials are lists of Fractions, low degree first, normalized so the
leading coefficient is nonzero (the zero polynomial is the empty list).
Provides Sturm sequences, root counting and isolation, a decision procedure
for nonnegativity on a closed rational interval, and algebraic numbers
represented by (polynomial, isolating interval).

Everything here is exact; no floats enter any decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Q = Fraction
Poly = list[Fraction]


def poly(coeffs: Sequence) -> Poly:
    return trim([c if type(c) is Q else Q(c) for c in coeffs])


def trim(p: Sequence[Fraction]) -> Poly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p: Poly) -> int:
    return len(p) - 1  # -1 for the zero polynomial


def peval(p: Poly, x: Fraction) -> Fraction:
    acc = Q(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def padd(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def psub(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return []
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return trim(out)


def pscale(a: Poly, c: Fraction) -> Poly:
    return trim([x * c for x in a])


def pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Q(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b) and trim(r):
        r = trim(r)
        if len(r) < len(b):
            break
        coef = r[-1] / b[-1]
        shift = len(r) - len(b)
        q[shift] += coef
        for i, bi in enumerate(b):
            r[shift + i] -= coef * bi
        r = trim(r)
    return trim(q), trim(r)


def pderiv(p: Poly) -> Poly:
    return trim([p[i] * i for i in range(1, len(p))])


def monic(p: Poly) -> Poly:
    return pscale(p, 1 / p[-1]) if p else []


def pgcd(a: Poly, b: Poly) -> Poly:
    a, b = trim(a), trim(b)
    while b:
        a, b = b, pdivmod(a, b)[1]
    return monic(a)


def squarefree_part(p: Poly) -> Poly:
    if degree(p) <= 0:
        return monic(p) if p else []
    g = pgcd(p, pderiv(p))
    if degree(g) == 0:
        return monic(p)
    return monic(pdivmod(p, g)[0])


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [p, pderiv(p)]
    while chain[-1]:
        rem = pdivmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(pscale(rem, Q(-1)))
    return [c for c in chain if c]


def _sign_variations(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for c in chain:
        v = peval(c, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_halfopen(p_sf: Poly, a: Fraction, b: Fraction) -> int:
    """Distinct roots in (a, b] for square-free p with p(a) != 0."""
    if a >= b:
        return 0
    chain = sturm_chain(p_sf)
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def _deflate_root(p: Poly, r: Fraction) -> Poly:
    q, rem = pdivmod(p, [-r, Q(1)])
    assert not rem
    return q


def count_roots_open(p: Poly, a: Fraction, b: Fraction) -> int:
    """Distinct roots of p strictly inside (a, b)."""
    if not p or degree(p) == 0 or a >= b:
        return 0
    f = squarefree_part(p)
    while f and peval(f, a) == 0:
        f = _deflate_root(f, a)
    while f and peval(f, b) == 0:
        f = _deflate_root(f, b)
    if not f or degree(f) == 0:
        return 0
    return count_roots_halfopen(f, a, b) - (1 if peval(f, b) == 0 else 0)


def isolate_roots_open(p: Poly, a: Fraction, b: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Disjoint intervals, one per distinct root of p in (a, b).

    A rational root r is returned as the degenerate pair (r, r); otherwise the
    open interval (l, r) brackets exactly one root and l, r are not roots.
    """
    f = squarefree_part(p)
    if not f or degree(f) < 0:
        return []
    while f and peval(f, a) == 0:
        f = _deflate_root(f, a)
    while f and peval(f, b) == 0:
        f = _deflate_root(f, b)
    if not f or degree(f) == 0:
        return []

    out: list[tuple[Fraction, Fraction]] = []

    def rec(lo: Fraction, hi: Fraction, n: int) -> None:
        if n == 0:
            return
        if n == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if peval(f, mid) == 0:
            out.append((mid, mid))
            g = _deflate_root(f, mid)
            left = count_roots_open(g, lo, mid)
            rec_sub(g, lo, mid, left)
            rec_sub(g, mid, hi, n - 1 - left)
        else:
            left = count_roots_halfopen(f, lo, mid)
            rec(lo, mid, left)
            rec(mid, hi, n - left)

    def rec_sub(g: Poly, lo: Fraction, hi: Fraction, n: int) -> None:
        # after deflation the chain changes; recount with g
        if n <= 0:
            return
        sub = isolate_roots_open(g, lo, hi)
        out.extend(sub)

    total = count_roots_halfopen(f, a, b)  # f(b) != 0 so (a,b] == (a,b)
    rec(a, b, total)
    return sorted(out)


def refine_to_sign(
    target: Poly, bracket_poly: Poly, lo: Fraction, hi: Fraction
) -> tuple[int, Fraction]:
    """Sign of `target` at the unique root of `bracket_poly` in (lo, hi).

    Requires that root not be a root of `target`.  Returns (sign, witness)
    where witness is a rational point carrying that sign.
    """
    bp = squarefree_part(bracket_poly)
    while True:
        if count_roots_open(target, lo, hi) == 0:
            mid = (lo + hi) / 2
            v = peval(target, mid)
            assert v != 0
            return (1 if v > 0 else -1), mid
        mid = (lo + hi) / 2
        if peval(bp, mid) == 0:
            v = peval(target, mid)
            assert v != 0
            return (1 if v > 0 else -1), mid
        if count_roots_open(bp, lo, mid) > 0:
            hi = mid
        else:
            lo = mid


def nonneg_on_interval(
    h: Poly, a: Fraction, b: Fraction
) -> tuple[bool, dict]:
    """Exact decision of h(x) >= 0 for all x in [a, b], with certificate data.

    The minimum of a polynomial on [a, b] is attained at an endpoint or at an
    interior critical point, so checking h at those finitely many algebraic
    points is complete.  On failure the certificate carries a rational point
    where h < 0.
    """
    h = trim(h)
    if a > b:
        raise ValueError("empty interval")
    cert: dict = {"interval": [str(a), str(b)]}
    if not h:
        cert["kind"] = "zero-polynomial"
        return True, cert
    va, vb = peval(h, a), peval(h, b)
    cert["endpoint_values"] = [str(va), str(vb)]
    if va < 0:
        cert["counterexample"] = str(a)
        return False, cert
    if vb < 0:
        cert["counterexample"] = str(b)
        return False, cert
    if a == b or degree(h) <= 1:
        cert["kind"] = "endpoints-suffice"
        return True, cert

    hp = pderiv(h)
    g_sf = squarefree_part(pgcd(h, hp))
    crit = isolate_roots_open(hp, a, b)
    cert["critical_points"] = []
    for lo, hi in crit:
        entry: dict = {"bracket": [str(lo), str(hi)]}
        if lo == hi:
            v = peval(h, lo)
            entry["value"] = str(v)
            cert["critical_points"].append(entry)
            if v < 0:
                cert["counterexample"] = str(lo)
                return False, cert
            continue
        if count_roots_open(g_sf, lo, hi) > 0:
            entry["value"] = "0 (shared root of h and h')"
            cert["critical_points"].append(entry)
            continue
        sign, witness = refine_to_sign(h, hp, lo, hi)
        entry["sign"] = sign
        entry["witness"] = str(witness)
        cert["critical_points"].append(entry)
        if sign < 0:
            cert["counterexample"] = str(witness)
            return False, cert
    cert["kind"] = "sturm-critical-point-scan"
    return True, cert


# ---------------------------------------------------------------------------
# Algebraic numbers
# ---------------------------------------------------------------------------

@dataclass
class AlgebraicNumber:
    """A real algebraic number as (polynomial, isolating rational interval).

    The polynomial must change sign across [lo, hi] and contain exactly one
    root there; `refine` bisects the bracket, `cmp_fraction` decides order
    against any rational exactly.
    """

    coeffs: Poly
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        self.coeffs = poly(self.coeffs)
        self.lo, self.hi = Q(self.lo), Q(self.hi)
        if not self.coeffs or count_roots_open(self.coeffs, self.lo, self.hi) + (
            1 if peval(self.coeffs, self.lo) == 0 else 0
        ) != 1:
            raise ValueError("interval does not isolate exactly one root")

    def refine(self, bits: int = 1) -> None:
        f = squarefree_part(self.coeffs)
        for _ in range(bits):
            if peval(f, self.lo) == 0:
                self.hi = self.lo
                return
            mid = (self.lo + self.hi) / 2
            if peval(f, mid) == 0:
                self.lo = self.hi = mid
                return
            if count_roots_open(f, self.lo, mid) > 0:
                self.hi = mid
            else:
                self.lo = mid

    def cmp_fraction(self, q: Fraction) -> int:
        """-1, 0, +1 comparing this number with the rational q."""
        q = Q(q)
        if self.lo <= q <= self.hi and peval(self.coeffs, q) == 0:
            return 0  # q is the isolated root itself
        while self.lo < q < self.hi:
            self.refine()
            if self.lo == self.hi:
                break
        if self.lo == self.hi:
            r = self.lo
            return (r > q) - (r < q)
        # the root lies in [lo, hi] and differs from q
        return 1 if q <= self.lo else -1

    def to_float(self, digits: int = 12) -> float:
        f = AlgebraicNumber(self.coeffs, self.lo, self.hi)
        for _ in range(8 * digits):
            if f.hi - f.lo < Fraction(1, 10**digits):
                break
            f.refine()
        return float((f.lo + f.hi) / 2)
