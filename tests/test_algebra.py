"""Exact polynomial machinery: Sturm counts, nonnegativity, algebraic numbers."""

import random
from fractions import Fraction as Q

import pytest

from gapscope.algebra import (
    AlgebraicNumber,
    count_roots_open,
    isolate_roots_open,
    nonneg_on_interval,
    pdivmod,
    peval,
    pgcd,
    pmul,
    poly,
    squarefree_part,
    sturm_chain,
)


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
    assert abs(s.to_float() - 193**0.5) < 1e-9


def test_algebraic_rational_root():
    a = AlgebraicNumber(poly([-4, 0, 1]), Q(1), Q(3))
    assert a.cmp_fraction(Q(2)) == 0
    assert a.cmp_fraction(Q(3, 2)) == 1
    assert a.cmp_fraction(Q(5, 2)) == -1


def test_algebraic_isolation_required():
    with pytest.raises(ValueError):
        AlgebraicNumber(poly([-1, 0, 1]), Q(-2), Q(2))  # two roots inside
