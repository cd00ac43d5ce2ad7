"""Exact univariate polynomial arithmetic over the rationals.

At the interface a polynomial is a list of Fractions, low degree first, with
a nonzero leading coefficient (the zero polynomial is the empty list).
Inside, each function converts each input once to integers over one common
denominator, works in Python ints and builds one Fraction per returned
coefficient or value.

gcds, square-free parts and Sturm chains use primitive remainder sequences
over Z (Knuth, TAOCP Vol. 2, 4.6.1): each pseudo-remainder is divided by its
content, so coefficients do not swell as in Euclid over Q.  A Sturm chain
member is sign-corrected to a positive multiple of Euclid's member, so sign
variations are unchanged; the sign at p/q (q > 0) is that of
sum_i c_i p^i q^(d-i).  Each decision (root count, isolation, sign
refinement, nonnegativity on a closed interval, comparison of an algebraic
number given as (polynomial, isolating interval)) builds one square-free
part and one chain per polynomial and reuses them at every bisection step.

Everything here is exact; no floats enter any decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Q = Fraction
Poly = list[Fraction]


def poly(coeffs: Sequence) -> Poly:
    p = [c if type(c) is Q else Q(c) for c in coeffs]
    while p and not p[-1]:
        p.pop()
    return p


def trim(p: Sequence[Fraction]) -> Poly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p: Poly) -> int:
    return len(p) - 1  # -1 for the zero polynomial


# ---------------------------------------------------------------------------
# Integer polynomials (private): lists of ints, low degree first
# ---------------------------------------------------------------------------

def _ints(p: Sequence[Fraction]) -> tuple[list[int], int]:
    """(N, D) with p == N / D, D > 0 the lcm of the denominators."""
    d = 1
    for c in p:
        if c.denominator != 1:
            d = lcm(d, c.denominator)
    if d == 1:
        return [c.numerator for c in p], 1
    return [c.numerator * (d // c.denominator) for c in p], d


def _fractions(n: list[int], d: int) -> Poly:
    """The Fraction polynomial n / d, trimmed."""
    while n and not n[-1]:
        n.pop()
    if d == 1:
        return [Q(c) for c in n]
    return [Q(c, d) for c in n]


def _primitive(n: list[int]) -> list[int]:
    """n trimmed and divided by its (positive) content."""
    while n and not n[-1]:
        n.pop()
    g = gcd(*n)
    return [c // g for c in n] if g > 1 else n


def _deriv(n: list[int]) -> list[int]:
    return [i * n[i] for i in range(1, len(n))]


def _horner(n: list[int], x: Fraction) -> int:
    """sum_i n_i p^i q^(deg-i) at x = p/q, which is q^deg * n(x) with q > 0."""
    p, q = x.numerator, x.denominator
    acc, qk = 0, 1
    for c in reversed(n):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _sign(n: list[int], x: Fraction) -> int:
    h = _horner(n, x)
    return (h > 0) - (h < 0)


def _value(n: list[int], d: int, x: Fraction) -> Fraction:
    """(n / d)(x) as a Fraction."""
    return Q(_horner(n, x), d * x.denominator ** max(0, len(n) - 1))


def _pdivmod(a: list[int], b: list[int]) -> tuple[list[int], list[int], int]:
    """Pseudo-division (Knuth's Algorithm R): (q, r, m) with m*a == q*b + r,
    deg r < deg b and m = lc(b)^(deg a - deg b + 1); b must be trimmed."""
    n, lc = len(b) - 1, b[-1]
    u = list(a)
    if len(u) - 1 < n:
        return [], u, 1
    k_top = len(u) - 1 - n
    q = [0] * (k_top + 1)
    for k in range(k_top, -1, -1):
        top = u[n + k]
        q[k] = top * lc**k
        for j in range(n + k - 1, k - 1, -1):
            u[j] = lc * u[j] - top * b[j - k]
        for j in range(k - 1, -1, -1):
            u[j] *= lc
    return q, u[:n], lc ** (k_top + 1)


def _exact_div(a: list[int], b: list[int]) -> list[int]:
    """a / b for a b that divides a in Z[x]."""
    q, _, m = _pdivmod(a, b)
    return [c // m for c in q]


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two primitive polynomials by the primitive PRS."""
    while b:
        a, b = b, _primitive(_pdivmod(a, b)[1])
    return a


def _squarefree(f: list[int]) -> list[int]:
    """Square-free part of a primitive polynomial, up to a constant."""
    if len(f) <= 2:
        return f
    g = _gcd(f, _primitive(_deriv(f)))
    return f if len(g) == 1 else _exact_div(f, g)


def _chain(f: list[int]) -> list[list[int]]:
    """Sturm chain of f over Z; member k is a positive multiple of member k
    of Euclid's chain over Q (f, f', -rem, ...)."""
    chain = [f]
    nxt = _primitive(_deriv(f))
    while nxt:
        chain.append(nxt)
        _, r, m = _pdivmod(chain[-2], nxt)
        # -rem = -r/m: negate r unless the multiplier m is negative
        nxt = _primitive([-c for c in r] if m > 0 else r)
    return chain


class _Sturm:
    """A square-free integer polynomial and its Sturm chain, for one decision.

    Sign variations are kept per point for the life of the decision only.
    """

    __slots__ = ("f", "chain", "_seen")

    def __init__(self, f: list[int]):
        self.f = f
        self.chain = _chain(f) if len(f) > 1 else []
        self._seen: dict[tuple[int, int], tuple[int, bool]] = {}

    @staticmethod
    def of(p: Sequence[Fraction]) -> "_Sturm":
        return _Sturm(_squarefree(_primitive(_ints(p)[0])))

    def _at(self, x: Fraction) -> tuple[int, bool]:
        """(sign variations, whether f(x) == 0) at x."""
        key = (x.numerator, x.denominator)
        got = self._seen.get(key)
        if got is None:
            v, last, root = 0, 0, False
            for i, c in enumerate(self.chain):
                s = _sign(c, x)
                if s:
                    v += last == -s
                    last = s
                elif i == 0:
                    root = True
            got = self._seen[key] = (v, root)
        return got

    def is_root(self, x: Fraction) -> bool:
        return self._at(x)[1] if self.chain else not self.f

    def count_open(self, a: Fraction, b: Fraction) -> int:
        """Distinct roots strictly inside (a, b).

        For square-free f, V(a) - V(b) counts the roots in (a, b] even when
        a or b is a root (f and f' agree in sign just right of a root).
        """
        if a >= b or not self.chain:
            return 0
        vb, root_b = self._at(b)
        return self._at(a)[0] - vb - root_b


# ---------------------------------------------------------------------------
# Fraction polynomial kernels
# ---------------------------------------------------------------------------

def peval(p: Poly, x: Fraction) -> Fraction:
    return _value(*_ints(p), x)


def padd(a: Poly, b: Poly) -> Poly:
    return _combine(a, b, 1)


def psub(a: Poly, b: Poly) -> Poly:
    return _combine(a, b, -1)


def _combine(a: Poly, b: Poly, sign: int) -> Poly:
    (na, da), (nb, db) = _ints(a), _ints(b)
    d = lcm(da, db)
    fa, fb = d // da, sign * (d // db)
    n = max(len(na), len(nb))
    na += [0] * (n - len(na))
    nb += [0] * (n - len(nb))
    return _fractions([x * fa + y * fb for x, y in zip(na, nb)], d)


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return []
    (na, da), (nb, db) = _ints(a), _ints(b)
    out = [0] * (len(na) + len(nb) - 1)
    for i, x in enumerate(na):
        if x:
            for j, y in enumerate(nb):
                out[i + j] += x * y
    return _fractions(out, da * db)


def pscale(a: Poly, c: Fraction) -> Poly:
    na, d = _ints(a)
    p, q = c.numerator, c.denominator
    return _fractions([x * p for x in na], d * q)


def pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    (na, da), (nb, db) = _ints(a), _ints(b)
    q, r, m = _pdivmod(na, nb)
    # m*na = q*nb + r, so a = (q*db / (m*da)) * b + r / (m*da)
    return _fractions([c * db for c in q], m * da), _fractions(r, m * da)


def pderiv(p: Poly) -> Poly:
    return trim([p[i] * i for i in range(1, len(p))])


def _monic(n: list[int]) -> Poly:
    return [Q(c, n[-1]) for c in n]


def pgcd(a: Poly, b: Poly) -> Poly:
    return _monic(_gcd(_primitive(_ints(a)[0]), _primitive(_ints(b)[0])))


def squarefree_part(p: Poly) -> Poly:
    return _monic(_squarefree(_primitive(_ints(p)[0])))


def sturm_chain(p: Poly) -> list[Poly]:
    """[p, then positive multiples of p', -rem(p, p'), ...] as Fractions."""
    n = _primitive(_ints(p)[0])
    if not n:
        return []
    return [list(p)] + [[Q(c) for c in m] for m in _chain(n)[1:]]


# ---------------------------------------------------------------------------
# Decisions
# ---------------------------------------------------------------------------

def count_roots_halfopen(p_sf: Poly, a: Fraction, b: Fraction) -> int:
    """Distinct roots in (a, b] for square-free p with p(a) != 0."""
    if a >= b:
        return 0
    st = _Sturm(_primitive(_ints(p_sf)[0]))
    return st._at(a)[0] - st._at(b)[0]


def count_roots_open(p: Poly, a: Fraction, b: Fraction) -> int:
    """Distinct roots of p strictly inside (a, b)."""
    return _Sturm.of(p).count_open(a, b)


def sign_on_interval(p: Poly, a: Fraction, b: Fraction) -> int:
    """+1 or -1 when p has that sign at every point of [a, b]; 0 when p
    vanishes somewhere in it."""
    n = _ints(p)[0]
    sign = _sign(n, a)
    if a == b or not sign:
        return sign
    if _sign(n, b) != sign:
        return 0
    # the same sign at both ends leaves an even number of roots inside
    if len(n) > 2 and _Sturm(_squarefree(_primitive(n))).count_open(a, b):
        return 0
    return sign


def _isolate(st: _Sturm, a: Fraction, b: Fraction) -> list[tuple[Fraction, Fraction]]:
    out: list[tuple[Fraction, Fraction]] = []

    def rec(lo: Fraction, hi: Fraction, n: int) -> None:
        if n == 0:
            return
        if n == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        left = st.count_open(lo, mid)
        rec(lo, mid, left)
        if st.is_root(mid):
            out.append((mid, mid))
            n -= 1
        rec(mid, hi, n - left)

    rec(a, b, st.count_open(a, b))
    return sorted(out)


def isolate_roots_open(p: Poly, a: Fraction, b: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Disjoint intervals, one per distinct root of p in (a, b).

    A rational root r is returned as the degenerate pair (r, r); otherwise the
    open interval (l, r) brackets exactly one root and l, r are not roots.
    """
    return _isolate(_Sturm.of(p), a, b)


def _refine_to_sign(
    target: list[int], st: _Sturm, sb: _Sturm, lo: Fraction, hi: Fraction
) -> tuple[int, Fraction]:
    """refine_to_sign on prepared chains: st of the target, sb of the bracket."""
    while True:
        mid = (lo + hi) / 2
        if st.count_open(lo, hi) == 0 or sb.is_root(mid):
            sign = _sign(target, mid)
            assert sign != 0
            return sign, mid
        if sb.count_open(lo, mid) > 0:
            hi = mid
        else:
            lo = mid


def refine_to_sign(
    target: Poly, bracket_poly: Poly, lo: Fraction, hi: Fraction
) -> tuple[int, Fraction]:
    """Sign of `target` at the unique root of `bracket_poly` in (lo, hi).

    Requires that root not be a root of `target`.  Returns (sign, witness)
    where witness is a rational point carrying that sign.
    """
    return _refine_to_sign(
        _ints(target)[0], _Sturm.of(target), _Sturm.of(bracket_poly), lo, hi)


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
    n, d = _ints(h)
    va, vb = _value(n, d, a), _value(n, d, b)
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

    f = _primitive(n)
    fp = _primitive(_deriv(f))
    g = _gcd(f, fp)  # shared roots of h and h'
    shared = _Sturm(_squarefree(g)) if len(g) > 1 else None
    crit = _Sturm(_squarefree(fp))
    h_sturm = None  # built at the first irrational critical point
    cert["critical_points"] = []
    for lo, hi in _isolate(crit, a, b):
        entry: dict = {"bracket": [str(lo), str(hi)]}
        if lo == hi:
            v = _value(n, d, lo)
            entry["value"] = str(v)
            cert["critical_points"].append(entry)
            if v < 0:
                cert["counterexample"] = str(lo)
                return False, cert
            continue
        if shared is not None and shared.count_open(lo, hi) > 0:
            entry["value"] = "0 (shared root of h and h')"
            cert["critical_points"].append(entry)
            continue
        if h_sturm is None:
            h_sturm = _Sturm(f if len(g) == 1 else _exact_div(f, g))
        sign, witness = _refine_to_sign(f, h_sturm, crit, lo, hi)
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
        if not self.coeffs:
            raise ValueError("interval does not isolate exactly one root")
        st = _Sturm.of(self.coeffs)
        if st.count_open(self.lo, self.hi) + st.is_root(self.lo) != 1:
            raise ValueError("interval does not isolate exactly one root")

    def _bisect(self, st: _Sturm, bits: int) -> None:
        for _ in range(bits):
            if st.is_root(self.lo):
                self.hi = self.lo
                return
            mid = (self.lo + self.hi) / 2
            if st.is_root(mid):
                self.lo = self.hi = mid
                return
            if st.count_open(self.lo, mid) > 0:
                self.hi = mid
            else:
                self.lo = mid

    def refine(self, bits: int = 1) -> None:
        self._bisect(_Sturm.of(self.coeffs), bits)

    def cmp_fraction(self, q: Fraction) -> int:
        """-1, 0, +1 comparing this number with the rational q."""
        q = Q(q)
        if self.lo <= q <= self.hi:
            st = _Sturm.of(self.coeffs)
            if st.is_root(q):
                return 0  # q is the isolated root itself
            while self.lo < q < self.hi:
                self._bisect(st, 1)
                if self.lo == self.hi:
                    break
        if self.lo == self.hi:
            r = self.lo
            return (r > q) - (r < q)
        # the root lies in [lo, hi] and differs from q
        return 1 if q <= self.lo else -1

    def to_float(self, digits: int = 12) -> float:
        f = AlgebraicNumber(self.coeffs, self.lo, self.hi)
        st = _Sturm.of(self.coeffs)
        for _ in range(8 * digits):
            if f.hi - f.lo < Fraction(1, 10**digits):
                break
            f._bisect(st, 1)
        return float((f.lo + f.hi) / 2)
