"""Exact univariate polynomials over the rationals, and ledger values.

Inside, a polynomial is a list of Python ints, low degree first, with a
nonzero leading coefficient (the zero polynomial is the empty list).
Fractions appear only at the edges: the coefficient sequences that `frac`,
the decisions and `AlgebraicNumber` take, each converted once to integers
over one common denominator (`_ints`), and the Fraction values and
certificate strings they hand back.

`MuLinear` holds a value (A(s) + u*B(s)) / D(s), u = 1/mu, as three integer
polynomials in one canonical form, so equal values have equal fields.

gcds, square-free parts and Sturm chains use primitive remainder sequences
over Z (Knuth, TAOCP Vol. 2, 4.6.1): each pseudo-remainder is divided by its
content, so coefficients do not swell as in Euclid over Q.  A Sturm chain
member is sign-corrected to a positive multiple of Euclid's member, so sign
variations are unchanged; the sign at p/q (q > 0) is that of
sum_i c_i p^i q^(d-i).  Root isolation, the sign on an interval and
nonnegativity on a closed interval each build one square-free part and one
chain per polynomial and reuse them at every bisection step.  An algebraic
number, a polynomial with a closed isolating interval, is compared with a
rational by one Sturm count and never bisects, so its interval stays as
given.

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


def _horner(n: list[int], p: int, q: int) -> int:
    """sum_i n_i p^i q^(deg-i), which is q^deg * n(p/q) for q > 0."""
    acc, qk = 0, 1
    for c in reversed(n):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _sign(n: list[int], x: Fraction) -> int:
    h = _horner(n, x.numerator, x.denominator)
    return (h > 0) - (h < 0)


def _value(n: list[int], d: int, x: Fraction) -> Fraction:
    """(n / d)(x) as a Fraction."""
    return Q(_horner(n, x.numerator, x.denominator), d * x.denominator ** max(0, len(n) - 1))


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
# Values linear in u = 1/mu
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MuLinear:
    """(A(s) + u*B(s)) / D(s) with u = 1/mu, for integer polynomials A, B, D.

    The form is canonical, so equal values have equal fields: A, B and D have
    no common factor over Q[s] and no common integer factor, and D's leading
    coefficient is positive (zero is A = B = (), D = (1,)).
    """

    A: tuple[int, ...]
    B: tuple[int, ...] = ()
    D: tuple[int, ...] = (1,)

    @staticmethod
    def _of(a: list[int], b: list[int], d: list[int]) -> "MuLinear":
        """(a + u*b) / d in canonical form, for trimmed a, b and d."""
        if not d:
            raise ZeroDivisionError("zero denominator")
        if len(d) > 1:
            g = _primitive(d)
            for p in (a, b):
                if p and len(g) > 1:
                    g = _gcd(g, _primitive(p))
            if len(g) > 1:  # g divides d, a and b (all of d when a and b are zero)
                a, b, d = (_exact_div(p, g) if p else p for p in (a, b, d))
        c = gcd(*a, *b, *d) * (1 if d[-1] > 0 else -1)
        if c != 1:
            a, b, d = ([x // c for x in p] for p in (a, b, d))
        return MuLinear(tuple(a), tuple(b), tuple(d))

    def _plus(self, o: "MuLinear", sign: int) -> "MuLinear":
        if self.D == o.D:
            return MuLinear._of(_add(self.A, o.A, sign), _add(self.B, o.B, sign), list(self.D))
        return MuLinear._of(_add(_mul(self.A, o.D), _mul(o.A, self.D), sign),
                            _add(_mul(self.B, o.D), _mul(o.B, self.D), sign),
                            _mul(self.D, o.D))

    def __add__(self, o: "MuLinear") -> "MuLinear":
        return self._plus(o, 1)

    def __sub__(self, o: "MuLinear") -> "MuLinear":
        return self._plus(o, -1)

    def __neg__(self) -> "MuLinear":
        return MuLinear(tuple(-c for c in self.A), tuple(-c for c in self.B), self.D)

    def __mul__(self, o: "MuLinear") -> "MuLinear":
        if self.B and o.B:
            raise ValueError("product would be quadratic in 1/mu")
        return MuLinear._of(_mul(self.A, o.A), _add(_mul(self.A, o.B), _mul(self.B, o.A)),
                            _mul(self.D, o.D))

    def __truediv__(self, o: "MuLinear") -> "MuLinear":
        if o.B:
            raise ValueError("division by a u-dependent expression")
        if not o.A:
            raise ZeroDivisionError("division by zero")
        return MuLinear._of(_mul(self.A, o.D), _mul(self.B, o.D), _mul(self.D, o.A))

    def __pow__(self, e: int) -> "MuLinear":
        if e < 0:
            raise ValueError("negative powers not supported")
        if self.B and e > 1:
            raise ValueError("product would be quadratic in 1/mu")
        a, d = [1], [1]
        for _ in range(e):
            a, d = _mul(a, self.A), _mul(d, self.D)
        # A^e and D^e stay coprime with joint content 1: canonical as they are
        return MuLinear(tuple(a), self.B if e == 1 else (), tuple(d))

    def at_u(self, u: Fraction) -> "MuLinear":
        """The rational function of s that this value is at one u (B = ())."""
        p, q = u.numerator, u.denominator
        return MuLinear._of(_add([q * c for c in self.A], [p * c for c in self.B]), [],
                            [q * c for c in self.D])

    def __call__(self, s: Fraction, mu: Fraction | None = None) -> Fraction:
        """The value at (s, mu); a value with B = () needs no mu."""
        dv = _value(self.D, 1, s)
        if dv == 0:
            raise ZeroDivisionError(f"denominator vanishes at s={s}")
        a = _value(self.A, 1, s)
        return (a + _value(self.B, 1, s) / Q(mu) if self.B else a) / dv


U = MuLinear((), (1,))
S = MuLinear((0, 1))


def frac(num: Sequence, den: Sequence = (1,)) -> MuLinear:
    """num(s) / den(s) for rational coefficient sequences, low degree first."""
    (n, a), (d, b) = _ints(poly(num)), _ints(poly(den))
    return MuLinear._of([c * b for c in n], [], [c * a for c in d])


def ml(a=0, b=0) -> MuLinear:
    """a + u*b for rationals a and b."""
    (p, q), (r, t) = Q(a).as_integer_ratio(), Q(b).as_integer_ratio()
    return MuLinear._of([p * t] if p else [], [r * q] if r else [], [q * t])


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
    """Intervals, one per distinct root of p in (a, b), in increasing order.

    A root met at a bisection midpoint r is returned as the degenerate pair
    (r, r); otherwise the open interval (l, r) holds exactly one root, and the
    open intervals are disjoint.  An end l or r may itself be a root: a or b,
    or a midpoint root returned as its own pair.  On s - 3s^2 - 3s^3 over
    (-30, 30) the result is (-30, 0), (0, 0), (0, 30).
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

    The polynomial must have exactly one root in the closed interval
    [lo, hi], which may be either end.  `cmp_fraction` decides order against
    any rational exactly and leaves the interval as given.
    """

    coeffs: Poly
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        self.coeffs = poly(self.coeffs)
        self.lo, self.hi = Q(self.lo), Q(self.hi)
        if not self.coeffs or self.lo > self.hi:
            raise ValueError("interval does not isolate exactly one root")
        st = _Sturm.of(self.coeffs)
        ends = st.is_root(self.lo) + (self.lo < self.hi and st.is_root(self.hi))
        if st.count_open(self.lo, self.hi) + ends != 1:
            raise ValueError("interval does not isolate exactly one root")

    def cmp_fraction(self, q: Fraction) -> int:
        """-1, 0, +1 comparing this number with the rational q.

        Inside the interval one Sturm count decides: the root is below q
        exactly when [lo, q) holds a root.
        """
        q = Q(q)
        if not self.lo <= q <= self.hi:
            return 1 if q < self.lo else -1
        st = _Sturm.of(self.coeffs)
        if st.is_root(q):
            return 0
        return -1 if st.is_root(self.lo) or st.count_open(self.lo, q) else 1
