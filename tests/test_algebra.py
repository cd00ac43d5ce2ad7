"""Exact polynomial machinery: Sturm counts, nonnegativity, algebraic numbers."""

import copy
import functools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gapscope.algebra import (
    AlgebraicNumber,
    _Sturm,
    _add,
    _chain,
    _deriv,
    _gcd,
    _ints,
    _mul,
    _pdivmod,
    _primitive,
    _refine_to_sign,
    _squarefree,
    _value,
    isolate_roots_open,
    nonneg_on_interval,
    poly,
    sign_on_interval,
)
from gapscope.claims import MAX_COEFF_BITS, MAX_DEGREE


# ---------------------------------------------------------------------------
# Adapter: the integer kernels on Fraction lists, one conversion each way
# ---------------------------------------------------------------------------

def _fracs(n, d):
    return trim([Q(c, d) for c in n])


def _monic(n):
    return [Q(c, n[-1]) for c in n]


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p):
    return len(p) - 1  # -1 for the zero polynomial


def peval(p, x):
    return _value(*_ints(p), x)


def _combine(a, b, sign):
    (na, da), (nb, db) = _ints(a), _ints(b)
    return _fracs(_add([c * db for c in na], [c * da for c in nb], sign), da * db)


def padd(a, b):
    return _combine(a, b, 1)


def psub(a, b):
    return _combine(a, b, -1)


def pmul(a, b):
    (na, da), (nb, db) = _ints(a), _ints(b)
    return _fracs(_mul(na, nb), da * db)


def pscale(a, c):
    na, d = _ints(a)
    return _fracs([x * c.numerator for x in na], d * c.denominator)


def pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    (na, da), (nb, db) = _ints(a), _ints(b)
    q, r, m = _pdivmod(na, nb)  # m*na = q*nb + r
    return _fracs([c * db for c in q], m * da), _fracs(r, m * da)


def pderiv(p):
    n, d = _ints(p)
    return _fracs(_deriv(n), d)


def pgcd(a, b):
    return _monic(_gcd(_primitive(_ints(a)[0]), _primitive(_ints(b)[0])))


def squarefree_part(p):
    return _monic(_squarefree(_primitive(_ints(p)[0])))


def sturm_chain(p):
    n = _primitive(_ints(p)[0])
    return [list(p)] + [[Q(c) for c in m] for m in _chain(n)[1:]] if n else []


def count_roots_halfopen(p_sf, a, b):
    """Distinct roots in (a, b] for square-free p with p(a) != 0."""
    if a >= b:
        return 0
    st = _Sturm(_primitive(_ints(p_sf)[0]))
    return st._at(a)[0] - st._at(b)[0]


def count_roots_open(p, a, b):
    return _Sturm.of(p).count_open(a, b)


def refine_to_sign(target, bracket_poly, lo, hi):
    return _refine_to_sign(
        _ints(target)[0], _Sturm.of(target), _Sturm.of(bracket_poly), lo, hi)


def test_basic_ops():
    p = poly([1, -3, 2])  # (2x-1)(x-1)
    assert peval(p, Q(1)) == 0 and peval(p, Q(1, 2)) == 0
    q, r = pdivmod(p, poly([-1, 1]))
    assert r == [] and q == poly([-1, 2])
    assert pgcd(p, poly([-1, 1])) == poly([-1, 1])
    assert squarefree_part(pmul(p, p)) == [c / 2 for c in poly([1, -3, 2])]


def test_poly_keeps_fractions_and_converts_the_rest():
    class Sub(Q):
        pass

    half = Q(1, 2)
    p = poly([half, 3, 0.25, Sub(2), 0, Q(0)])
    assert p[0] is half  # an exact Fraction is not wrapped again
    assert p == [Q(1, 2), Q(3), Q(1, 4), Q(2)]
    assert all(type(c) is Q for c in p)


def test_root_counts_and_isolation():
    p = pmul(pmul(poly([-1, 1]), poly([-1, 1])), poly([-2, 1]))  # (x-1)^2 (x-2)
    assert count_roots_open(p, Q(0), Q(3)) == 2
    iso = isolate_roots_open(p, Q(0), Q(3))
    assert len(iso) == 2
    # each bracket contains the claimed root
    f = squarefree_part(p)
    for lo, hi in iso:
        if lo == hi:
            assert peval(f, lo) == 0
        else:
            assert peval(f, lo) * peval(f, hi) < 0


def test_root_at_endpoint_excluded():
    p = poly([-1, 1])  # root at 1
    assert count_roots_open(p, Q(1), Q(2)) == 0
    assert count_roots_open(p, Q(0), Q(1)) == 0
    assert count_roots_open(p, Q(0), Q(2)) == 1


def test_sturm_chain_sign_correction_across_a_degree_gap():
    # x^4 + x: the remainder -3x/4 skips two degrees below 4x^3 + 1 and has a
    # negative leading coefficient, so the next pseudo-remainder needs its sign fixed
    p = poly([0, 1, 0, 0, 1])
    got, want = sturm_chain(p), ref_sturm_chain(p)
    assert [degree(c) for c in got] == [4, 3, 1, 0]
    for g, w in zip(got, want):
        assert [c * (w[-1] / g[-1]) for c in g] == w and w[-1] / g[-1] > 0
    assert count_roots_open(p, Q(-2), Q(2)) == 2  # the real roots are -1 and 0
    for a, b in ((Q(-2), Q(2)), (Q(-2), Q(-1, 2)), (Q(-1), Q(0)), (Q(-1, 2), Q(3))):
        assert count_roots_open(p, a, b) == ref_count_roots_open(p, a, b)
        assert isolate_roots_open(p, a, b) == ref_isolate_roots_open(p, a, b)


def test_sturm_chain_sign_structure():
    p = poly([-2, 0, 1])
    chain = sturm_chain(p)
    assert chain[0] == p and len(chain) >= 2


def test_nonneg_decisions():
    assert nonneg_on_interval(poly([0, 0, 1]), Q(-2), Q(3))[0]
    assert nonneg_on_interval(poly([1, -2, 1]), Q(-5), Q(5))[0]  # (x-1)^2
    ok, cert = nonneg_on_interval(poly([-1, 0, 1]), Q(-2), Q(2))
    assert not ok
    w = Q(cert["counterexample"])
    assert peval(poly([-1, 0, 1]), w) < 0
    # triple root dips negative on the left
    p3 = pmul(pmul(poly([-1, 1]), poly([-1, 1])), poly([-1, 1]))
    ok, cert = nonneg_on_interval(p3, Q(0), Q(2))
    assert not ok and Q(cert["counterexample"]) < 1


def test_nonneg_randomized_against_dense_sampling():
    rng = random.Random(11)
    for _ in range(250):
        deg = rng.randint(0, 5)
        p = poly([Q(rng.randint(-5, 5)) for _ in range(deg + 1)])
        a, b = Q(rng.randint(-4, 0)), Q(rng.randint(1, 4))
        ok, cert = nonneg_on_interval(p, a, b)
        sampled_neg = any(
            peval(p, a + (b - a) * Q(i, 97)) < 0 for i in range(98)
        )
        if ok:
            assert not sampled_neg
        else:
            w = Q(cert["counterexample"])
            assert a <= w <= b and peval(p, w) < 0


def test_algebraic_sqrt193():
    s = AlgebraicNumber(poly([-193, 0, 1]), Q(13), Q(14))
    assert s.cmp_fraction(Q(139, 10)) == -1
    assert s.cmp_fraction(Q(138, 10)) == 1
    near = Q(193**0.5)
    assert s.cmp_fraction(near - Q(1, 10**9)) == 1
    assert s.cmp_fraction(near + Q(1, 10**9)) == -1
    assert (s.lo, s.hi) == (13, 14)  # comparisons leave the interval as given


def test_algebraic_rational_root():
    a = AlgebraicNumber(poly([-4, 0, 1]), Q(1), Q(3))
    assert a.cmp_fraction(Q(2)) == 0
    assert a.cmp_fraction(Q(3, 2)) == 1
    assert a.cmp_fraction(Q(5, 2)) == -1


def test_algebraic_isolation_required():
    with pytest.raises(ValueError):
        AlgebraicNumber(poly([-1, 0, 1]), Q(-2), Q(2))  # two roots inside
    with pytest.raises(ValueError):
        AlgebraicNumber(poly([-1, 0, 1]), Q(-1), Q(1))  # a root at each end
    with pytest.raises(ValueError):
        AlgebraicNumber(poly([-1, 1]), Q(1), Q(0))  # an empty interval


@pytest.mark.parametrize("root", [1, 2])
def test_algebraic_root_at_either_end(root):
    a = AlgebraicNumber(poly([-root, 1]), Q(1), Q(2))
    assert a.cmp_fraction(Q(root)) == 0
    assert a.cmp_fraction(Q(3, 2)) == (1 if root == 2 else -1)
    assert a.cmp_fraction(Q(3 - root)) == (1 if root == 2 else -1)
    b = AlgebraicNumber(poly([-root, 1]), Q(root), Q(root))  # the end counted once
    assert [b.cmp_fraction(Q(root) + d) for d in (-1, 0, 1)] == [1, 0, -1]


# ---------------------------------------------------------------------------
# Oracle: Euclid over Q on Fraction lists, the arithmetic the integer
# kernels replace.  Every result below must match it exactly.
# ---------------------------------------------------------------------------

def ref_peval(p, x):
    acc = Q(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def ref_pmul(a, b):
    if not a or not b:
        return []
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return trim(out)


def ref_pscale(a, c):
    return trim([x * c for x in a])


def ref_pdivmod(a, b):
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


def ref_monic(p):
    return ref_pscale(p, 1 / p[-1]) if p else []


def ref_pgcd(a, b):
    a, b = trim(a), trim(b)
    while b:
        a, b = b, ref_pdivmod(a, b)[1]
    return ref_monic(a)


def _cached_on_coefficients(fn):
    """fn, a pure oracle of one coefficient list, cached on the coefficient
    tuple; every call gets fresh lists."""
    on_tuple = functools.lru_cache(maxsize=4096)(lambda key: fn(list(key)))

    @functools.wraps(fn)
    def cached(p):
        return copy.deepcopy(on_tuple(tuple(p)))

    return cached


@_cached_on_coefficients
def ref_squarefree_part(p):
    if degree(p) <= 0:
        return ref_monic(p) if p else []
    g = ref_pgcd(p, pderiv(p))
    if degree(g) == 0:
        return ref_monic(p)
    return ref_monic(ref_pdivmod(p, g)[0])


@_cached_on_coefficients
def ref_sturm_chain(p):
    chain = [p, pderiv(p)]
    while chain[-1]:
        rem = ref_pdivmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(ref_pscale(rem, Q(-1)))
    return [c for c in chain if c]


def ref_sign_variations(chain, x):
    signs = []
    for c in chain:
        v = ref_peval(c, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def ref_count_roots_halfopen(p_sf, a, b):
    if a >= b:
        return 0
    chain = ref_sturm_chain(p_sf)
    return ref_sign_variations(chain, a) - ref_sign_variations(chain, b)


def ref_deflate_root(p, r):
    q, rem = ref_pdivmod(p, [-r, Q(1)])
    assert not rem
    return q


def ref_count_roots_open(p, a, b):
    if not p or degree(p) == 0 or a >= b:
        return 0
    f = ref_squarefree_part(p)
    while f and ref_peval(f, a) == 0:
        f = ref_deflate_root(f, a)
    while f and ref_peval(f, b) == 0:
        f = ref_deflate_root(f, b)
    if not f or degree(f) == 0:
        return 0
    return ref_count_roots_halfopen(f, a, b) - (1 if ref_peval(f, b) == 0 else 0)


def ref_isolate_roots_open(p, a, b):
    f = ref_squarefree_part(p)
    if not f or degree(f) < 0:
        return []
    while f and ref_peval(f, a) == 0:
        f = ref_deflate_root(f, a)
    while f and ref_peval(f, b) == 0:
        f = ref_deflate_root(f, b)
    if not f or degree(f) == 0:
        return []
    out = []

    def rec(lo, hi, n):
        if n == 0:
            return
        if n == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if ref_peval(f, mid) == 0:
            out.append((mid, mid))
            g = ref_deflate_root(f, mid)
            left = ref_count_roots_open(g, lo, mid)
            if left > 0:
                out.extend(ref_isolate_roots_open(g, lo, mid))
            if n - 1 - left > 0:
                out.extend(ref_isolate_roots_open(g, mid, hi))
        else:
            left = ref_count_roots_halfopen(f, lo, mid)
            rec(lo, mid, left)
            rec(mid, hi, n - left)

    rec(a, b, ref_count_roots_halfopen(f, a, b))
    return sorted(out)


def ref_refine_to_sign(target, bracket_poly, lo, hi):
    bp = ref_squarefree_part(bracket_poly)
    while True:
        mid = (lo + hi) / 2
        if ref_count_roots_open(target, lo, hi) == 0 or ref_peval(bp, mid) == 0:
            v = ref_peval(target, mid)
            assert v != 0
            return (1 if v > 0 else -1), mid
        if ref_count_roots_open(bp, lo, mid) > 0:
            hi = mid
        else:
            lo = mid


def ref_nonneg_on_interval(h, a, b):
    h = trim(h)
    if a > b:
        raise ValueError("empty interval")
    cert = {"interval": [str(a), str(b)]}
    if not h:
        cert["kind"] = "zero-polynomial"
        return True, cert
    va, vb = ref_peval(h, a), ref_peval(h, b)
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
    g_sf = ref_squarefree_part(ref_pgcd(h, hp))
    cert["critical_points"] = []
    for lo, hi in ref_isolate_roots_open(hp, a, b):
        entry = {"bracket": [str(lo), str(hi)]}
        if lo == hi:
            v = ref_peval(h, lo)
            entry["value"] = str(v)
            cert["critical_points"].append(entry)
            if v < 0:
                cert["counterexample"] = str(lo)
                return False, cert
            continue
        if ref_count_roots_open(g_sf, lo, hi) > 0:
            entry["value"] = "0 (shared root of h and h')"
            cert["critical_points"].append(entry)
            continue
        sign, witness = ref_refine_to_sign(h, hp, lo, hi)
        entry["sign"] = sign
        entry["witness"] = str(witness)
        cert["critical_points"].append(entry)
        if sign < 0:
            cert["counterexample"] = str(witness)
            return False, cert
    cert["kind"] = "sturm-critical-point-scan"
    return True, cert


# Polynomials of degree <= MAX_DEGREE whose coefficients the ledger parser
# admits, built to hit the cases a Sturm decision can get wrong: repeated
# roots, roots at the interval's endpoints and rational roots at the first
# bisection midpoints.
_CAP = 2**MAX_COEFF_BITS
_small_q = st.fractions(min_value=-3, max_value=3, max_denominator=8)
_wide_q = st.builds(Q, st.integers(-2**40, 2**40), st.integers(1, 2**20))


def _within_cap(p):
    return len(p) <= MAX_DEGREE + 1 and all(abs(c.numerator) * c.denominator < _CAP for c in p)


@st.composite
def _interval(draw):
    a, b = sorted((draw(_small_q), draw(_small_q)))
    return a, b if b > a else a + 1


@st.composite
def _structured(draw, a, b):
    mid = (a + b) / 2
    special = [a, b, mid, (a + mid) / 2, (mid + b) / 2]
    roots = draw(st.lists(st.one_of(st.sampled_from(special), _small_q), max_size=8))
    cofactor = draw(st.lists(
        st.builds(Q, st.integers(-2**16, 2**16), st.integers(1, 2**8)),
        min_size=1, max_size=MAX_DEGREE + 1 - len(roots)))
    p = poly(cofactor)
    for r in roots:
        p = ref_pmul(p, [-r, Q(1)])
    return p


def _sparse(terms):
    p = [Q(0)] * (MAX_DEGREE + 1)
    for k, c in terms:
        p[k] += c
    return poly(p)


@st.composite
def _cases(draw):
    a, b = draw(_interval())
    p = draw(st.one_of(
        _structured(a, b),
        st.lists(_wide_q, max_size=MAX_DEGREE + 1).map(poly),
        # few terms give remainder sequences that skip degrees
        st.lists(st.tuples(st.integers(0, MAX_DEGREE), _small_q), max_size=4).map(_sparse),
    ))
    assume(_within_cap(p))
    return p, a, b


@settings(max_examples=100, deadline=None)
@given(_cases(), st.lists(_wide_q, max_size=6).map(poly), _small_q)
def test_kernels_match_fraction_reference(case, q, x):
    p, a, b = case
    assert pmul(p, q) == ref_pmul(p, q)
    assert padd(p, q) == trim([u + v for u, v in zip(p + [0] * len(q), q + [0] * len(p))])
    assert psub(p, q) == trim([u - v for u, v in zip(p + [0] * len(q), q + [0] * len(p))])
    assert pscale(p, x) == ref_pscale(p, x)
    for point in (a, b, x, (a + b) / 2):
        assert peval(p, point) == ref_peval(p, point)
        assert type(peval(p, point)) is Q
    if q:
        assert pdivmod(p, q) == ref_pdivmod(p, q)
    assert pgcd(p, q) == ref_pgcd(p, q)
    assert squarefree_part(p) == ref_squarefree_part(p)
    got, want = sturm_chain(p), ref_sturm_chain(p)
    assert len(got) == len(want) and (not got or got[0] == p)
    for g, w in zip(got, want):  # each member a positive multiple of Euclid's
        assert len(g) == len(w) and [c * (w[-1] / g[-1]) for c in g] == w and w[-1] / g[-1] > 0
    sf = squarefree_part(p)
    if sf and ref_peval(sf, a) != 0:
        assert count_roots_halfopen(sf, a, b) == ref_count_roots_halfopen(sf, a, b)
    for result in (pmul(p, q), pscale(p, x), pgcd(p, q), *pdivmod(p, q or [Q(1)])):
        assert all(type(c) is Q for c in result)


@settings(max_examples=100, deadline=None)
@given(_cases())
def test_decisions_match_fraction_reference(case):
    p, a, b = case
    mid = (a + b) / 2
    for lo, hi in ((a, b), (a, mid), (mid, b)):
        assert count_roots_open(p, lo, hi) == ref_count_roots_open(p, lo, hi)
    assert isolate_roots_open(p, a, b) == ref_isolate_roots_open(p, a, b)
    ends = [ref_peval(p, a), ref_peval(p, b)]
    vanishes = 0 in ends or ref_count_roots_open(p, a, b) > 0
    assert sign_on_interval(p, a, b) == (0 if vanishes else 1 if ends[0] > 0 else -1)
    assert sign_on_interval(p, mid, mid) == (ref_peval(p, mid) > 0) - (ref_peval(p, mid) < 0)
    assert nonneg_on_interval(p, a, b) == ref_nonneg_on_interval(p, a, b)
    assert nonneg_on_interval(pscale(p, Q(-1)), a, b) == ref_nonneg_on_interval(
        ref_pscale(p, Q(-1)), a, b)
    hp = pderiv(p)
    shared = ref_pgcd(p, hp)
    for lo, hi in isolate_roots_open(hp, a, b):
        if lo < hi and ref_count_roots_open(shared, lo, hi) == 0:
            assert refine_to_sign(p, hp, lo, hi) == ref_refine_to_sign(p, hp, lo, hi)
            break  # nonneg_on_interval's certificate covers the rest


# ---------------------------------------------------------------------------
# Oracle: comparison by bisection, which halves the bracket until q falls
# outside it and reads the order off the bracket
# ---------------------------------------------------------------------------

def ref_cmp_fraction(p, lo, hi, q):
    if lo <= q <= hi:
        if ref_peval(p, q) == 0:
            return 0
        while lo < q < hi:
            if ref_peval(p, lo) == 0:
                hi = lo
                continue
            mid = (lo + hi) / 2
            if ref_peval(p, mid) == 0:
                lo = hi = mid
            elif ref_count_roots_open(p, lo, mid) > 0:
                hi = mid
            else:
                lo = mid
    if lo == hi:
        return (lo > q) - (lo < q)
    return 1 if q <= lo else -1


@settings(max_examples=200, deadline=None)
@given(_cases(), _small_q)
def test_algebraic_comparison_matches_bisection(case, x):
    p, a, b = case
    brackets = isolate_roots_open(p, a, b)
    roots = [lo for lo, hi in brackets if lo == hi]
    for lo, hi in brackets:
        try:
            v = AlgebraicNumber(p, lo, hi)
        except ValueError:  # an end of the open interval is a root too
            assert lo < hi and 0 in (ref_peval(p, lo), ref_peval(p, hi))
            continue
        for q in (lo, hi, (lo + hi) / 2, lo - 1, hi + 1, a, b, x, *roots):
            assert v.cmp_fraction(q) == ref_cmp_fraction(p, lo, hi, q)
        assert (v.lo, v.hi) == (lo, hi)
