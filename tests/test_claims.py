"""Claim verification: exact verdicts, certificates, the builtin ledger."""

import re
import time
from fractions import Fraction as Q
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gapscope.errors import CapacityError
from gapscope.algebra import AlgebraicNumber, frac, isolate_roots_open, poly
from gapscope.claims import (
    Claim,
    IllPosedClaimError,
    MAX_DEGREE,
    MU_RANGE,
    MuLinear,
    U,
    format_ledger,
    format_mulinear,
    ml,
    parse_expression,
    parse_ledger,
    parse_rational,
    recheck_verdict,
    verify_claim,
)
from gapscope.ledger import (
    CROSSING_BRACKET,
    CROSSING_POLY,
    TIGHT_CLAIM_IDS,
    builtin_ledger,
    mutated_ledger,
    specified_mutations,
)
from test_algebra import ref_pdivmod, ref_pgcd, ref_pmul, ref_pscale


def test_plugin_claim_mean_value_at_34():
    c = Claim.box("plug", parse_expression("(3 - 3*s)/(2 - s)"),
                  parse_expression("1"), Q(3, 4), Q(3, 4))
    v = verify_claim(c)
    assert v.holds and recheck_verdict(c, v)


def test_case_1b_three_term_max():
    lhs = [parse_expression(t) for t in (
        "(7 - 7*s)/(3*s - 1)",
        "(18 - 19*s)/(6*s - 2)",
        "(34 - 34*s)/(15*s - 5)",
    )]
    rhs = parse_expression("1 + (3/(10*s - 7))*((13 - 16*s)/4)")
    c = Claim.box("case1b", lhs, rhs, Q(13, 16), Q(25, 28))
    v = verify_claim(c)
    assert v.holds and recheck_verdict(c, v)
    # this max sits about 0.022 under the rhs, so 3/100 flips it
    cm = Claim.box("case1b-m", lhs, rhs - ml(Q(3, 100)), Q(13, 16), Q(25, 28))
    vm = verify_claim(cm)
    assert not vm.holds
    s, mu = vm.counterexample()
    worst = max(l(s, mu) for l in cm.lhs)
    assert worst > cm.rhs(s, mu)


def test_mu_linear_reduction_checks_both_endpoints():
    # u*(1) <= 1/2 holds iff mu >= 2: fails on [4/3, 2], holds on [2, 19/9]
    lhs = parse_expression("u")
    ok = Claim.box("mu-hi", lhs, ml(Q(1, 2)), Q(1, 2), Q(1), mu=(2, Q(19, 9)))
    bad = Claim.box("mu-lo", lhs, ml(Q(1, 2)), Q(1, 2), Q(1), mu=(Q(4, 3), 2))
    assert verify_claim(ok).holds
    v = verify_claim(bad)
    assert not v.holds and Q(v.certificate["counterexample"]["mu"]) == Q(4, 3)


def test_ill_posed_denominator_rejected():
    c = Claim.box("bad", parse_expression("1/(2*s - 1)"), ml(Q(10)), Q(0), Q(1))
    with pytest.raises(IllPosedClaimError) as exc:
        verify_claim(c)
    lo, hi = exc.value.root_interval
    assert lo <= Q(1, 2) <= hi


@pytest.mark.parametrize("den, s_lo, s_hi, message", [
    ("(2*s - 1)^2", Q(0), Q(1), "denominator sign change inside interval"),
    ("2*s - 1", Q(1, 2), Q(1), "denominator vanishes at endpoint 1/2"),
    ("2*s - 1", Q(0), Q(1, 2), "denominator vanishes at endpoint 1/2"),
    ("2*s - 1", Q(1, 2), Q(1, 2), "denominator vanishes at 1/2"),
], ids=["double-root", "left-endpoint", "right-endpoint", "point-box"])
def test_denominator_vanishing_anywhere_in_the_box_is_refused(den, s_lo, s_hi, message):
    c = Claim.box("bad", parse_expression(f"1/({den})"), ml(Q(10)), s_lo, s_hi)
    with pytest.raises(IllPosedClaimError, match=f"^{message}$") as exc:
        verify_claim(c)
    lo, hi = exc.value.root_interval
    assert lo <= Q(1, 2) <= hi


@pytest.mark.parametrize("lhs, rhs, s_hi, message", [
    ("1 + u/s", "u/s", Q(0), "denominator vanishes at 0"),
    ("1 + 1/s", "1/s", Q(1), "denominator vanishes at endpoint 0"),
    ("1/s", "1/s + 1", Q(1), "denominator vanishes at endpoint 0"),
    ("1/(2*s - 1)", "1/(2*s - 1) + 1", Q(1), "denominator sign change inside interval"),
], ids=["u-part-point-box", "failing", "holding", "inside"])
def test_a_side_with_a_pole_in_the_box_is_refused(lhs, rhs, s_hi, message):
    # rhs - lhs has no pole in the box, but a side does
    c = Claim.box("bad", parse_expression(lhs), parse_expression(rhs), Q(0), s_hi)
    with pytest.raises(IllPosedClaimError, match=f"^{message}$"):
        verify_claim(c)


def test_expression_parser_round_trip():
    texts = [
        "(3 - 3*s)/(2 - s)",
        "u*(13 - 16*s)/2",
        "5/4 - 2*s",
        "1 + (3/(10*s - 7))*((13 - 16*s)/4)",
        "s^2 - 1/4",
    ]
    for t in texts:
        v = parse_expression(t)
        assert v(Q(3, 4), Q(2)) is not None


def test_parser_rejects_nonlinear_mu():
    with pytest.raises(ValueError):
        parse_expression("u*u")
    with pytest.raises(ValueError):
        parse_expression("1/u")


def test_ledger_round_trip_and_size():
    claims = builtin_ledger()
    assert len(claims) >= 20
    text = format_ledger(claims)
    parsed = parse_ledger(text)
    assert [c.id for c in parsed] == [c.id for c in claims]
    for c in parsed[:8]:
        assert verify_claim(c).holds


def test_builtin_ledger_all_hold_with_rechecks():
    t0 = time.time()
    for c in builtin_ledger():
        v = verify_claim(c)
        assert v.holds, (c.id, v.certificate.get("counterexample"))
        assert recheck_verdict(c, v), c.id
    assert time.time() - t0 < 10.0


def _degree_cap_claim(rhs: MuLinear, s_lo: Q) -> Claim:
    """The worst case at MAX_DEGREE: every root of the lhs lies in the sigma box."""
    lhs = ml(1)
    for k in range(MAX_DEGREE):
        lhs = lhs * frac([-(MAX_DEGREE + k // 2), MAX_DEGREE + k])
    return Claim.box("degree-cap", lhs, rhs, s_lo, Q(1))


def test_degree_cap_worst_case_is_decided_quickly():
    t0 = time.perf_counter()
    c = _degree_cap_claim(ml(Q(10) ** 36) + U, Q(1, 2))
    v = verify_claim(c)
    assert v.holds and recheck_verdict(c, v)
    # on [3/4, 1] the lhs peaks near 0.838 at an irrational critical point
    # about s = 0.926, above 1/4 + u at mu = 19/9
    c = _degree_cap_claim(ml(Q(1, 4)) + U, Q(3, 4))
    v = verify_claim(c)
    assert not v.holds and recheck_verdict(c, v)
    s, mu = v.counterexample()
    assert Q(3, 4) < s < 1 and mu == MU_RANGE[1]
    assert time.perf_counter() - t0 < 1.0


def test_crossing_claim_algebraic():
    value = AlgebraicNumber(CROSSING_POLY, *CROSSING_BRACKET)
    c = Claim.ordering("crossing", value, Q(53, 68))
    v = verify_claim(c)
    assert v.holds and recheck_verdict(c, v)
    # and the quadratic really encodes (271 - sqrt(193))/336
    approx = Q((271 - 193**0.5) / 336)
    assert value.cmp_fraction(approx - Q(1, 10**9)) == 1
    assert value.cmp_fraction(approx + Q(1, 10**9)) == -1
    tight = Claim.ordering("crossing-tight", value, Q(76, 100), strict=True)
    assert not verify_claim(tight).holds


#: sqrt(2) cut to 4299 digits: the bound passes every literal cap and lies
#: within 10^-4298 below the root, so the claim fails.
SQRT2_DIGITS = str(isqrt(2 * 10**(2 * 4298)))
SQRT2_CLAIM = f"a | root(s^2 - 2; 1, 2) | 1.{SQRT2_DIGITS[1:]} | - | - | strict"


def test_verification_leaves_every_claim_as_parsed():
    near = parse_ledger(SQRT2_CLAIM + "\nb | root(s^2 - 2; 1, 2) | 141/100 | - | - | strict\n")
    for claims in (builtin_ledger(), mutated_ledger(), near):
        text = format_ledger(claims)
        for c in claims:
            assert recheck_verdict(c, verify_claim(c))
        assert format_ledger(claims) == text
    assert [verify_claim(c).holds for c in near] == [False, False]


def test_claims_sharing_a_value_verify_alike_twice():
    value = AlgebraicNumber(poly([-2, 0, 1]), Q(1), Q(2))
    a = Claim.ordering("a", value, Q(141, 100))
    b = Claim.ordering("b", value, Q(1415, 1000))
    first = verify_claim(a).certificate
    assert first["bracket"] == ["1", "2"] and not verify_claim(a).holds
    assert verify_claim(b).holds
    assert verify_claim(a).certificate == first


def test_specified_mutations_fail_with_rational_counterexamples():
    muts = specified_mutations()
    assert len(muts) == 5
    for m in muts:
        v = verify_claim(m)
        assert not v.holds, m.id
        assert recheck_verdict(m, v), m.id
        s, mu = v.counterexample()
        assert m.sigma_interval[0] <= s <= m.sigma_interval[1]
        assert m.mu_interval[0] <= mu <= m.mu_interval[1]


def test_mutated_ledger_flips_only_the_tight_claims():
    results = {c.id: verify_claim(c).holds for c in mutated_ledger()}
    for cid, holds in results.items():
        if cid.endswith("-mutated"):
            assert not holds
            assert cid[: -len("-mutated")] in TIGHT_CLAIM_IDS
        else:
            assert holds


def test_verdicts_deterministic_and_thread_safe():
    claims = builtin_ledger()
    a = [verify_claim(c).certificate for c in claims]
    b = [verify_claim(c).certificate for c in claims]
    assert a == b
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=4) as pool:
        c4 = [v.certificate for v in pool.map(verify_claim, claims)]
    assert c4 == a


def test_mu_all_is_global_range():
    c = Claim.box("r", parse_expression("u"), ml(Q(3, 4)), Q(1, 2), Q(1))
    assert c.mu_interval == MU_RANGE
    assert verify_claim(c).holds  # u <= 3/4 for mu >= 4/3


def make_by_gcd(num, den) -> tuple[list[Q], list[Q]]:
    """num/den in lowest terms by Euclid over Q, den's leading coefficient
    positive."""
    n, d = poly(num), poly(den)
    g = ref_pgcd(n, d)
    if len(g) > 1:
        n = ref_pdivmod(n, g)[0]
        d = ref_pdivmod(d, g)[0]
    if d and d[-1] < 0:
        n, d = ref_pscale(n, Q(-1)), ref_pscale(d, Q(-1))
    return n, d


small_q = st.fractions(min_value=-4, max_value=4, max_denominator=6)
polys = st.lists(small_q, max_size=4)


@settings(max_examples=300, deadline=None)
@given(polys, polys, polys)
def test_frac_equals_gcd_path(a, b, c):
    # a shared factor c gives the gcd path something to cancel
    shared = poly(c) or [Q(1)]
    num, den = ref_pmul(poly(a), shared), ref_pmul(poly(b), shared) or [Q(1)]
    v = frac(num, den)
    n, d = make_by_gcd(num, den)
    assert not v.B and all(type(c) is int for c in v.A + v.D)
    # one positive rational r with (A, D) == r * (n, d)
    r = Q(v.D[-1]) / d[-1]
    assert r > 0 and list(v.A) == ref_pscale(n, r) and list(v.D) == ref_pscale(d, r)


_small = st.builds(lambda n, d: frac(n, poly(d) or [Q(1)]), polys, polys)
_linear = st.one_of(_small, st.builds(lambda a, b: a + U * b, _small, _small))


@settings(max_examples=65, deadline=None)
@given(_linear, _linear, _linear, _small)
def test_equal_values_have_equal_fields(a, b, c, f):
    assert (a + b) + c == a + (b + c)
    assert a - a == ml(0) == MuLinear(())
    if f != ml(0):
        assert a * f / f == a
    for v in (a, a + b, a * f, -a):
        assert parse_expression(format_mulinear(v)) == v
        # joint content 1, D positive-leading, no common factor of A, B, D
        assert gcd(*v.A, *v.B, *v.D) == 1 and v.D[-1] > 0
        g = ref_pgcd([Q(x) for x in v.D], [Q(x) for x in v.A])
        assert len(ref_pgcd(g, [Q(x) for x in v.B])) <= 1


@pytest.mark.parametrize("ledger", [builtin_ledger, mutated_ledger])
def test_ledger_text_is_unchanged_by_repeated_trips(ledger):
    claims = ledger()
    text = format_ledger(claims)
    parsed = parse_ledger(text)
    assert [(c.lhs, c.rhs) for c in parsed] == [(c.lhs, c.rhs) for c in claims]
    for _ in range(5):
        parsed = parse_ledger(text)
        assert format_ledger(parsed) == text


# ---------------------------------------------------------------------------
# ledger parsing: arbitrary text parses or raises ValueError / CapacityError
# ---------------------------------------------------------------------------

_digits = st.one_of(st.integers(0, 20).map(str), st.integers(min_value=0).map(str),
                    st.integers(1, 6000).map(lambda n: "9" * n))
_number = st.one_of(
    _digits,
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(lambda p: f"{p[0]}/{p[1]}"),
    st.tuples(_digits, st.integers(-10**12, 10**12)).map(lambda p: f"{p[0]}e{p[1]}"),
    st.decimals(allow_nan=True).map(str),
    st.text(alphabet="0123456789./e_-+ ", max_size=12),
)
_expr = st.recursive(
    st.one_of(st.sampled_from(["s", "u"]), _digits),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(" ".join),
        st.tuples(inner, st.sampled_from(["^", "**"]), st.one_of(_digits, inner)).map("".join),
        inner.map(lambda e: f"-({e})"),
    ),
    max_leaves=30,
)
_poly = st.lists(st.tuples(_digits, st.integers(0, 14)), min_size=1, max_size=15).map(
    lambda terms: " + ".join(f"{c}*s^{k}" for c, k in terms))
_nested = st.tuples(st.integers(0, 3000), _expr).map(lambda p: "(" * p[0] + p[1] + ")" * p[0])
_bounds = st.one_of(st.tuples(_number, _number).map(", ".join),
                    st.lists(_number, max_size=4).map(",".join), st.just("all"))
_lhs = st.one_of(
    _expr, _nested, st.lists(_expr, min_size=1, max_size=4).map("; ".join),
    st.tuples(_poly, _poly).map(lambda p: f"({p[0]})/({p[1]})"),
    st.tuples(_expr, _number, _number).map(lambda p: f"root({p[0]}; {p[1]}, {p[2]})"),
)
_claim_line = st.tuples(
    st.text(max_size=4), _lhs, st.one_of(_expr, _nested, _number), _bounds, _bounds,
    st.lists(st.sampled_from(["strict", "", "x"]), max_size=2),
).map(lambda p: " | ".join(p[:5] + tuple(p[5])))
_line = st.one_of(_claim_line, st.lists(st.one_of(_lhs, _bounds, st.text(max_size=30)),
                                        max_size=8).map(" | ".join))
_ledger_text = st.one_of(st.text(), st.lists(_line, max_size=4).map("\n".join))


@settings(max_examples=300, deadline=2000)
@given(_ledger_text)
def test_parse_ledger_raises_only_value_or_capacity_errors(text):
    try:
        parse_ledger(text)
    except (ValueError, CapacityError):
        pass


@pytest.mark.parametrize("line,error,needle", [
    ("a | s | 1 | 0, 1 | 5", ValueError, "expected a box 'lo, hi', got '5'"),
    ("a | s | 1 | 0, 1 | 1, 2, 3", ValueError, "expected a box 'lo, hi'"),
    ("a | s | 1 | 0 | all", ValueError, "expected a box 'lo, hi', got '0'"),
    ("a | " + "(" * 2000 + "s" + ")" * 2000 + " | 1 | 0, 1 | all", CapacityError,
     "parentheses nested over 32 deep"),
    ("a | s | 1 | 0, 1e999999999 | all", CapacityError, "decimal exponent over 4 digits"),
    ("a | root(s^2 - 2; 1, 2) | 1e-9999999999 | - | -", CapacityError,
     "decimal exponent over 4 digits"),
    ("a | (" + "9" * 4000 + "*s^12 + 1)/(7*s^11 + 3) | 1 | 0, 1 | all", CapacityError,
     "coefficient over 64 bits"),
    ("a | root(s - s; 0, 1) | 1/2 | - | - | strict", ValueError,
     "does not isolate exactly one root"),
], ids=["mu-one-bound", "mu-three-bounds", "sigma-one-bound", "deep-nesting", "big-exponent",
        "big-negative-exponent", "huge-coefficient", "zero-polynomial-root"])
def test_parse_ledger_refuses_malformed_or_oversized_lines(line, error, needle):
    t0 = time.perf_counter()
    with pytest.raises(error, match=re.escape(needle)):
        parse_ledger(line)
    assert time.perf_counter() - t0 < 1.0


def test_rational_literals_are_exact_and_capped_before_building():
    assert parse_rational(" 9/5 ") == Q(9, 5)
    assert parse_rational("1.5625e-2") == Q(1, 64)
    assert parse_rational("-.5E1") == -5 and parse_rational("+007/0010") == Q(7, 10)
    assert parse_rational("1e-4299") == Q(1, 10**4299)  # a 4300-digit denominator
    assert parse_rational("9" * 4300 + "/7") == Q(int("9" * 4300), 7)
    t0 = time.perf_counter()
    for text, needle in (("1e-9999999", "decimal exponent over 4 digits"),
                         ("1e-999999999", "decimal exponent over 4 digits"),
                         ("1e00001", "decimal exponent over 4 digits"),
                         ("1e-4300", "numerator or denominator over 4300 digits"),
                         ("0." + "0" * 4299 + "1", "numerator or denominator over 4300 digits"),
                         ("9" * 4301 + "/7", "numerator or denominator over 4300 digits"),
                         ("7/" + "9" * 4301, "numerator or denominator over 4300 digits")):
        with pytest.raises(CapacityError, match=needle):
            parse_rational(text)
    assert time.perf_counter() - t0 < 1.0
    for text in ("", ".", "e5", "1/-2", "1_0", "inf", "nan", "1.2.3", "1/2/3", "\u0663"):
        with pytest.raises(ValueError, match="is not a rational literal"):
            parse_rational(text)
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


def test_parse_ledger_keeps_nesting_and_exponents_in_range():
    (claim,) = parse_ledger("a | " + "(" * 32 + "s" + ")" * 32 + " | 1 | 0, 1e-4 | 1e4, 2e4")
    assert claim.sigma_interval == (Q(0), Q(1, 10**4))
    assert claim.mu_interval == (Q(10**4), Q(2 * 10**4))


# ---------------------------------------------------------------------------
# ledger text round trip: generated box and ordering claims survive
# format -> parse with their verdicts
# ---------------------------------------------------------------------------

_coeffs = st.lists(st.one_of(st.integers(-9, 9).map(Q),
                             st.fractions(min_value=-5, max_value=5, max_denominator=7)),
                   min_size=1, max_size=4)  # degree <= 3
_ratfns = st.builds(lambda n, d: frac(n, poly(d) or [Q(1)]), _coeffs, _coeffs)
_values = st.one_of(_ratfns, st.builds(lambda a, b: a + U * b, _ratfns, _ratfns))
_unit = st.fractions(min_value=0, max_value=1, max_denominator=16)


@st.composite
def _box_claims(draw):
    s_lo, s_hi = sorted(draw(st.lists(st.fractions(0, 2, max_denominator=8),
                                      min_size=2, max_size=2)))
    mu = draw(st.one_of(st.just("all"), st.lists(
        st.fractions(1, 3, max_denominator=8), min_size=2, max_size=2).map(sorted)))
    return Claim.box("g", draw(st.lists(_values, min_size=1, max_size=3)), draw(_values),
                     s_lo, s_hi, mu=mu, strict=draw(st.booleans()))


def _value_or_pole(v, s, mu):
    try:
        return v(s, mu)
    except ZeroDivisionError:
        return None


def _outcome(claim):
    try:
        return verify_claim(claim).holds
    except IllPosedClaimError as e:
        return str(e), e.root_interval


@settings(max_examples=60, deadline=None)
@given(_box_claims(), st.lists(st.tuples(_unit, _unit), min_size=1, max_size=4))
def test_generated_box_claims_survive_the_ledger_text(claim, points):
    (back,) = parse_ledger(format_ledger([claim]))
    assert (back.sigma_interval, back.mu_interval, back.strict) == (
        claim.sigma_interval, claim.mu_interval, claim.strict)
    assert len(back.lhs) == len(claim.lhs)
    (s_lo, s_hi), (mu_lo, mu_hi) = claim.sigma_interval, claim.mu_interval
    for x, y in points:
        s, mu = s_lo + (s_hi - s_lo) * x, mu_lo + (mu_hi - mu_lo) * y
        for v, w in zip(claim.lhs + [claim.rhs], back.lhs + [back.rhs]):
            assert _value_or_pole(v, s, mu) == _value_or_pole(w, s, mu)
    assert _outcome(back) == _outcome(claim)


# ordering claims: strict or not, bounds inside and outside the bracket
@st.composite
def _ordering_claims(draw):
    p = poly(draw(_coeffs))
    brackets = isolate_roots_open(p, Q(-10), Q(10))
    assume(brackets)
    lo, hi = draw(st.sampled_from(brackets))
    try:
        value = AlgebraicNumber(p, lo, hi)
    except ValueError:  # an end of the open interval is another root
        assume(False)
    t = draw(st.fractions(-1, 2, max_denominator=16))
    return Claim.ordering("g", value, lo + max(hi - lo, Q(1, 4)) * t, strict=draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(_ordering_claims())
def test_generated_ordering_claims_survive_the_ledger_text(claim):
    text = format_ledger([claim])
    verdict = verify_claim(claim)
    for _ in range(3):
        (back,) = parse_ledger(text)
        assert (back.algebraic_lhs, back.rhs, back.strict) == (
            claim.algebraic_lhs, claim.rhs, claim.strict)
        assert verify_claim(back) == verdict
        text = format_ledger([back])
    assert text == format_ledger([claim])
