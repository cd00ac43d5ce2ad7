"""Exact univariate polynomials and rational functions over the rationals.

Inside, a polynomial is a list of Python ints, low degree first, with a
nonzero leading coefficient (the zero polynomial is the empty list).
Fractions appear only at the edges: the coefficient sequences that
`RatFn.make`, the decisions and `AlgebraicNumber` take, each converted once
to integers over one common denominator (`_ints`), and the Fraction values,
coefficients and certificate strings they hand back.

`RatFn` holds a rational function as integer polynomials N, D over one
positive scale k: N/k and D/k are, coefficient for coefficient, the
numerator and denominator over Q in lowest terms (divided by their monic
gcd, D's leading coefficient positive).

gcds, square-free parts and Sturm chains use primitive remainder sequences
over Z (Knuth, TAOCP Vol. 2, 4.6.1): each pseudo-remainder is divided by its
content, so coefficients do not swell as in Euclid over Q.  A Sturm chain
member is sign-corrected to a positive multiple of Euclid's member, so sign
variations are unchanged; the sign at p/q (q > 0) is that of
sum_i c_i p^i q^(d-i).  Each decision (root isolation, sign on an interval,
nonnegativity on a closed interval, comparison of an algebraic number given
as (polynomial, isolating interval)) builds one square-free part and one
chain per polynomial and reuses them at every bisection step.

Everything here is exact; no floats enter any decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Sequence

Q = Fraction
Poly = list[Fraction]


def poly(coeffs: Sequence) -> Poly:
    p = [c if type(c) is Q else Q(c) for c in coeffs]
    while p and not p[-1]:
        p.pop()
    return p


# ---------------------------------------------------------------------------
# Integer polynomials (private): lists of ints, low degree first
# ---------------------------------------------------------------------------

def _ints(p: Sequence[Fraction]) -> tuple[list[int], int]:
    """(N, d) with p == N / d, N trimmed and d > 0 the lcm of the denominators."""
    d = 1
    for c in p:
        if c.denominator != 1:
            d = lcm(d, c.denominator)
    n = [c.numerator * (d // c.denominator) for c in p]
    while n and not n[-1]:
        n.pop()
    return n, d


def _primitive(n: list[int]) -> list[int]:
    """n trimmed and divided by its (positive) content."""
    while n and not n[-1]:
        n.pop()
    g = gcd(*n)
    return [c // g for c in n] if g > 1 else n


def _deriv(n: list[int]) -> list[int]:
    return [i * n[i] for i in range(1, len(n))]


def _add(a: Sequence[int], b: Sequence[int], sign: int = 1) -> list[int]:
    """a + sign * b, trimmed."""
    out = [x + sign * y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def _mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


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
# Rational functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatFn:
    """(N/k) / (D/k) for integer polynomials N, D and a scale k > 0.

    `num` and `den`, the Fraction coefficients N/k and D/k, are in lowest
    terms: divided by their monic gcd, with den's leading coefficient
    positive.  N, D and k have no common integer factor.
    """

    N: tuple[int, ...]
    D: tuple[int, ...]
    k: int = 1

    @staticmethod
    def make(num, den=(1,)) -> "RatFn":
        (n, a), (d, b) = _ints(poly(num)), _ints(poly(den))
        k = lcm(a, b)
        return RatFn._of([c * (k // a) for c in n], [c * (k // b) for c in d], k)

    @staticmethod
    def _of(n: list[int], d: list[int], k: int) -> "RatFn":
        """n/k over d/k in lowest terms, for trimmed n and d."""
        if not d:
            raise ZeroDivisionError("zero denominator")
        # a nonzero constant n or d has gcd 1 with the other side;
        # a zero n over a non-constant d still reduces (to d's leading term)
        if len(n) != 1 and len(d) > 1:
            g = _gcd(_primitive(n), _primitive(d))
            if len(g) > 1:  # divide by g / lc(g), the monic gcd over Q
                n = [c * g[-1] for c in _exact_div(n, g)]
                d = [c * g[-1] for c in _exact_div(d, g)]
        if d[-1] < 0:
            n, d = [-c for c in n], [-c for c in d]
        c = gcd(k, *n, *d)
        if c > 1:
            n, d, k = [x // c for x in n], [x // c for x in d], k // c
        return RatFn(tuple(n), tuple(d), k)

    @staticmethod
    def const(c) -> "RatFn":
        p, q = Q(c).as_integer_ratio()  # make([c]), without the gcds
        return RatFn((p,) if p else (), (q,), q)

    @property
    def num(self) -> tuple[Fraction, ...]:
        return tuple(Q(c, self.k) for c in self.N)

    @property
    def den(self) -> tuple[Fraction, ...]:
        return tuple(Q(c, self.k) for c in self.D)

    def __add__(self, o: "RatFn") -> "RatFn":
        return RatFn._of(_add(_mul(self.N, o.D), _mul(o.N, self.D)),
                         _mul(self.D, o.D), self.k * o.k)

    def __sub__(self, o: "RatFn") -> "RatFn":
        return RatFn._of(_add(_mul(self.N, o.D), _mul(o.N, self.D), -1),
                         _mul(self.D, o.D), self.k * o.k)

    def __mul__(self, o: "RatFn") -> "RatFn":
        return RatFn._of(_mul(self.N, o.N), _mul(self.D, o.D), self.k * o.k)

    def __truediv__(self, o: "RatFn") -> "RatFn":
        if not o.N:
            raise ZeroDivisionError
        return RatFn._of(_mul(self.N, o.D), _mul(self.D, o.N), self.k * o.k)

    def is_zero(self) -> bool:
        return not self.N

    def __call__(self, s: Fraction) -> Fraction:
        dv = _value(self.D, self.k, s)
        if dv == 0:
            raise ZeroDivisionError(f"denominator vanishes at s={s}")
        return _value(self.N, self.k, s) / dv


# ---------------------------------------------------------------------------
# Decisions
# ---------------------------------------------------------------------------

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
    """(sign, witness): the sign of `target` (chain `st`) at the unique root
    of the bracket polynomial (chain `sb`) in (lo, hi), which must not be a
    root of `target`, and a rational point carrying that sign."""
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


def nonneg_on_interval(
    h: Poly, a: Fraction, b: Fraction
) -> tuple[bool, dict]:
    """Exact decision of h(x) >= 0 for all x in [a, b], with certificate data.

    The minimum of a polynomial on [a, b] is attained at an endpoint or at an
    interior critical point, so checking h at those finitely many algebraic
    points is complete.  On failure the certificate carries a rational point
    where h < 0.
    """
    if a > b:
        raise ValueError("empty interval")
    cert: dict = {"interval": [str(a), str(b)]}
    n, d = _ints(h)
    if not n:
        cert["kind"] = "zero-polynomial"
        return True, cert
    va, vb = _value(n, d, a), _value(n, d, b)
    cert["endpoint_values"] = [str(va), str(vb)]
    if va < 0:
        cert["counterexample"] = str(a)
        return False, cert
    if vb < 0:
        cert["counterexample"] = str(b)
        return False, cert
    if a == b or len(n) <= 2:
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
    root there; `cmp_fraction` decides order against any rational exactly.
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

    def _bisect(self, st: _Sturm) -> None:
        """Halve the bracket, or close it on a rational root."""
        if st.is_root(self.lo):
            self.hi = self.lo
            return
        mid = (self.lo + self.hi) / 2
        if st.is_root(mid):
            self.lo = self.hi = mid
        elif st.count_open(self.lo, mid) > 0:
            self.hi = mid
        else:
            self.lo = mid

    def cmp_fraction(self, q: Fraction) -> int:
        """-1, 0, +1 comparing this number with the rational q."""
        q = Q(q)
        if self.lo <= q <= self.hi:
            st = _Sturm.of(self.coeffs)
            if st.is_root(q):
                return 0  # q is the isolated root itself
            while self.lo < q < self.hi:
                self._bisect(st)
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
            f._bisect(st)
        return float((f.lo + f.hi) / 2)
