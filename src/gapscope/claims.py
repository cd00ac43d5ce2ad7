"""Exact verification of rational-function inequalities over (sigma, mu) boxes.

A claim asserts  max_i lhs_i(s, mu) <= rhs(s, mu)  on a box
[s_lo, s_hi] x [mu_lo, mu_hi], where each side is a sigma-rational function
plus (1/mu) times a sigma-rational function.  Such forms are linear in 1/mu,
so the extremes in mu sit at the interval endpoints; substituting each
endpoint reduces the claim to sign conditions on univariate polynomials,
decided exactly by the Sturm machinery in `algebra`.

Each side is an `algebra.MuLinear`, (A(s) + u*B(s)) / D(s) in one canonical
integer form.  Fractions appear only at the edges: box endpoints as parsed,
and the ledger text and certificates written out.

Expressions are written over the symbols `s` (sigma) and `u` (short for
1/mu).  Ledger files are line-oriented:

    id | lhs_1; lhs_2; ... | rhs | s_lo, s_hi | mu_lo, mu_hi [| strict]

with rational literals `p/q`, `all` for the default mu range, and a pure
ordering claim written with an algebraic literal on the left, `-` in both
box fields and `strict` optional:

    crossing | root(1176*s^2 - 1897*s + 763; 19/25, 77/100) | 53/68 | - | - | strict
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import (  # MuLinear, S, U and ml are re-exported
    AlgebraicNumber,
    MuLinear,
    S,
    U,
    isolate_roots_open,
    ml,
    nonneg_on_interval,
    sign_on_interval,
)
from .errors import CapacityError

Q = Fraction

MU_RANGE = (Q(4, 3), Q(19, 9))  # global range of mu = log x1 / log T0


class IllPosedClaimError(ValueError):
    """A denominator vanishes somewhere in the claim's sigma interval."""

    def __init__(self, message: str, root_interval: tuple[Fraction, Fraction]):
        super().__init__(message)
        self.root_interval = root_interval


# ---------------------------------------------------------------------------
# Expression parser (for ledger files)
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[su]|\*\*|[()+\-*/^])")

#: Largest degree in s of A, B or D in a parsed expression.  The ledger needs
#: 2; a claim at degree 12 with every root in the sigma box verifies in about
#: 6 ms, 16 ms at degree 16.
MAX_DEGREE = 12
#: Every integer of A, B and D stays below 2^MAX_COEFF_BITS: reducing a
#: coprime degree-12 over degree-11 quotient takes about 1 ms there, seconds
#: at thousands of digits.
MAX_COEFF_BITS = 64
MAX_NESTING = 32  # parenthesis depth; the parser takes four frames per level
#: Digits of a rational literal's numerator or denominator: Python's default
#: int/str conversion limit.
MAX_DIGITS = 4300
#: Digits of a box end's numerator or denominator.  rhs - lhs at a mu end is
#: a polynomial in s of degree <= 2 MAX_DEGREE over one denominator; with
#: box ends of L digits its integers stay below 10^L times _VALUE_BOUND
#: (sums of products of two capped integers, and Mignotte's bound for the
#: gcd taken out), so its value at a sigma end has at most
#: (2 MAX_DEGREE + 1) L + digits(_VALUE_BOUND) digits: within MAX_DIGITS.
_VALUE_BOUND = 4 * (MAX_DEGREE + 1) * (2 * MAX_DEGREE + 1) << 2 * (MAX_COEFF_BITS + MAX_DEGREE)
MAX_BOX_DIGITS = (MAX_DIGITS - len(str(_VALUE_BOUND))) // (2 * MAX_DEGREE + 1)


def _capped(v: MuLinear, text: str) -> MuLinear:
    deg = max(len(v.A), len(v.B), len(v.D)) - 1
    if deg > MAX_DEGREE:
        raise CapacityError(f"degree {deg} over the cap {MAX_DEGREE} in {text.strip()!r}")
    if max(abs(c) for c in v.A + v.B + v.D) >> MAX_COEFF_BITS:
        raise CapacityError(f"coefficient over {MAX_COEFF_BITS} bits in {text.strip()!r}")
    return v


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad token at {text[pos:pos+12]!r}")
        out.append("^" if m.group(1) == "**" else m.group(1))
        pos = m.end()
    return out


def parse_expression(text: str) -> MuLinear:
    """Parse an expression in s and u into a MuLinear value."""
    tokens = _tokenize(text)
    if max(accumulate((t == "(") - (t == ")") for t in tokens), default=0) > MAX_NESTING:
        raise CapacityError(f"parentheses nested over {MAX_NESTING} deep in {text.strip()!r}")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(tok=None):
        nonlocal pos
        if pos >= len(tokens) or (tok and tokens[pos] != tok):
            raise ValueError(f"expected {tok} at position {pos} in {text!r}")
        pos += 1
        return tokens[pos - 1]

    def atom() -> MuLinear:
        t = peek()
        if t == "(":
            take("(")
            v = expr()
            take(")")
            return v
        if t == "s":
            take()
            return S
        if t == "u":
            take()
            return U
        if t and t.isdigit():
            take()
            t = t.lstrip("0") or "0"
            if len(t) > len(str(1 << MAX_COEFF_BITS)):  # int() refuses 4300 digits
                raise CapacityError(f"coefficient over {MAX_COEFF_BITS} bits in {text.strip()!r}")
            n = int(t)
            return _capped(MuLinear((n,) if n else ()), text)
        raise ValueError(f"unexpected token {t!r} in {text!r}")

    def factor() -> MuLinear:
        neg = False
        while peek() in ("+", "-"):
            if take() == "-":
                neg = not neg
        v = atom()
        if peek() == "^":
            take("^")
            e = take().lstrip("0") or "0"
            if not e.isdigit():
                raise ValueError("exponent must be an integer literal")
            if len(e) > len(str(MAX_DEGREE)) or int(e) > MAX_DEGREE:
                raise CapacityError(f"exponent {e} over the cap {MAX_DEGREE} in {text.strip()!r}")
            v = _capped(v ** int(e), text)
        return -v if neg else v

    def term() -> MuLinear:
        v = factor()
        while peek() in ("*", "/"):
            op = take()
            w = factor()
            v = _capped(v * w if op == "*" else v / w, text)
        return v

    def expr() -> MuLinear:
        v = term()
        while peek() in ("+", "-"):
            op = take()
            w = term()
            v = _capped(v + w if op == "+" else v - w, text)
        return v

    v = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return v


def _fmt_poly(p: Sequence, d: int = 1) -> str:
    """p(s)/d as `c0 + c1*s + c2*s^2 ...`, zero terms left out."""
    parts = []
    for i, c in enumerate(p):
        if c:
            q, mono = Q(c, d), "s" if i == 1 else f"s^{i}"
            parts.append(_fmt_q(q) if i == 0 else mono if q == 1 else f"{_fmt_q(q)}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


def _fmt_q(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def format_mulinear(v: MuLinear) -> str:
    """A/d + u*B/d over a constant D = d, else one fraction over D; the text
    parses back to v field for field."""
    if len(v.D) == 1:
        a, b = (_fmt_poly(p, v.D[0]) for p in (v.A, v.B))
        a, b = (f"({t})" if "+" in t or "-" in t[1:] else t for t in (a, b))
        return a if not v.B else f"u*{b}" if not v.A else f"{a} + u*{b}"
    a, b, d = _fmt_poly(v.A), _fmt_poly(v.B), _fmt_poly(v.D)
    return (f"({a})/({d})" if not v.B else f"u*({b})/({d})" if not v.A
            else f"({a} + u*({b}))/({d})")


# ---------------------------------------------------------------------------
# Claims and verdicts
# ---------------------------------------------------------------------------

@dataclass
class Claim:
    id: str
    lhs: list[MuLinear]
    rhs: MuLinear
    sigma_interval: tuple[Fraction, Fraction]
    mu_interval: tuple[Fraction, Fraction]
    strict: bool = False
    source: str = ""
    # pure ordering claim: algebraic number on the left, rational on the right
    algebraic_lhs: AlgebraicNumber | None = None

    @staticmethod
    def box(id, lhs, rhs, s_lo, s_hi, mu="all", strict=False, source="") -> "Claim":
        mu_iv = MU_RANGE if mu == "all" else (Q(mu[0]), Q(mu[1]))
        lhs_list = list(lhs) if isinstance(lhs, (list, tuple)) else [lhs]
        return Claim(id, lhs_list, rhs, (Q(s_lo), Q(s_hi)), mu_iv, strict, source)

    @staticmethod
    def ordering(id, value: AlgebraicNumber, bound, strict=True, source="") -> "Claim":
        c = Claim(id, [], ml(Q(bound)), (Q(0), Q(0)), MU_RANGE, strict, source)
        c.algebraic_lhs = value
        return c


@dataclass
class Verdict:
    claim_id: str
    holds: bool
    certificate: dict

    def counterexample(self) -> tuple[Fraction, Fraction] | None:
        ce = self.certificate.get("counterexample")
        if ce is None:
            return None
        return Q(ce["sigma"]), Q(ce["mu"])


def _certify_denominator_sign(den: Sequence[int], a: Fraction, b: Fraction) -> int:
    """+1/-1 if den has that constant sign on [a, b]; raise if it vanishes."""
    sign = sign_on_interval(den, a, b)
    if sign:
        return sign
    if a == b:
        raise IllPosedClaimError(f"denominator vanishes at {a}", (a, a))
    for x in (a, b):
        if not sign_on_interval(den, x, x):
            raise IllPosedClaimError(f"denominator vanishes at endpoint {x}", (x, x))
    iso = isolate_roots_open(den, a, b)[0]
    raise IllPosedClaimError("denominator sign change inside interval", iso)


def _nonneg(F: MuLinear, a: Fraction, b: Fraction) -> tuple[bool, dict]:
    """Decide F(s) >= 0 for s in [a, b], for a u-free F whose denominator
    keeps one sign there (claims are checked non-strictly; epsilon slack is
    dropped and the strict flag is recorded, not enforced, for box claims)."""
    sign = sign_on_interval(F.D, a, a)
    h = F.A if sign > 0 else [-c for c in F.A]
    ok, cert = nonneg_on_interval(h, a, b)
    cert["denominator_sign"] = sign
    return ok, cert


def verify_claim(claim: Claim) -> Verdict:
    """Exact verdict for max(lhs) <= rhs on the claim's box."""
    if claim.algebraic_lhs is not None:
        bound = claim.rhs(Q(0), 1)
        cmp = claim.algebraic_lhs.cmp_fraction(bound)
        holds = cmp < 0 if claim.strict else cmp <= 0
        cert = {
            "kind": "algebraic-ordering",
            "bracket": [str(claim.algebraic_lhs.lo), str(claim.algebraic_lhs.hi)],
            "bound": str(bound),
            "cmp": cmp,
        }
        return Verdict(claim.id, holds, cert)

    s_lo, s_hi = claim.sigma_interval
    mu_lo, mu_hi = claim.mu_interval
    if s_lo > s_hi or mu_lo > mu_hi:
        raise ValueError(f"empty box in claim {claim.id}")
    if mu_lo <= 0:
        raise ValueError(f"mu box of claim {claim.id} starts at {mu_lo}; u = 1/mu needs mu > 0")
    # each side must be defined on the whole box, not only rhs - lhs; then
    # each F.D below divides rhs.D * lhs.D, so keeps one sign on the box
    for v in (*claim.lhs, claim.rhs):
        _certify_denominator_sign(v.D, s_lo, s_hi)
    cert: dict = {"kind": "mu-endpoint-reduction", "strict_flag": claim.strict, "checks": []}
    mu_ends = (mu_lo,) if mu_lo == mu_hi else (mu_lo, mu_hi)
    for i, lhs in enumerate(claim.lhs):
        diff = claim.rhs - lhs  # require diff >= 0
        for mu in mu_ends:
            F = diff.at_u(Q(1) / mu)
            ok, sub = _nonneg(F, s_lo, s_hi)
            entry = {"lhs_index": i, "mu": str(mu), "result": ok, "detail": sub}
            cert["checks"].append(entry)
            if not ok:
                witness = Q(sub["counterexample"])
                cert["counterexample"] = {
                    "sigma": str(witness),
                    "mu": str(mu),
                    "lhs_value": str(lhs(witness, mu)),
                    "rhs_value": str(claim.rhs(witness, mu)),
                }
                return Verdict(claim.id, False, cert)
    return Verdict(claim.id, True, cert)


def recheck_verdict(claim: Claim, verdict: Verdict) -> bool:
    """Independent re-check: plug the counterexample, or re-run the counts."""
    if claim.algebraic_lhs is not None:
        cmp = claim.algebraic_lhs.cmp_fraction(claim.rhs(Q(0), 1))
        return (cmp < 0 if claim.strict else cmp <= 0) == verdict.holds
    if not verdict.holds:
        ce = verdict.certificate.get("counterexample")
        if ce is None:
            return False
        s, mu = Q(ce["sigma"]), Q(ce["mu"])
        in_box = (
            claim.sigma_interval[0] <= s <= claim.sigma_interval[1]
            and claim.mu_interval[0] <= mu <= claim.mu_interval[1]
        )
        worst = max(l(s, mu) for l in claim.lhs)
        violated = worst > claim.rhs(s, mu) if not claim.strict else worst >= claim.rhs(s, mu)
        return in_box and violated
    # holds: replay every recorded mu-endpoint reduction
    return verify_claim(claim).holds


# ---------------------------------------------------------------------------
# Ledger serialization
# ---------------------------------------------------------------------------

_ROOT_RE = re.compile(r"^root\((?P<poly>[^;]+);(?P<lo>[^,]+),(?P<hi>[^)]+)\)$")


_RATIONAL = re.compile(r"([+-]?)(?:(\d+)/(\d+)|(\d*)(?:\.(\d*))?(?:[eE]([+-]?\d+))?)", re.ASCII)


def parse_rational(text: str) -> Fraction:
    """A rational literal, p/q or a decimal with an exponent (9/5, 0.25, 1e-3).

    The caps are checked on the text before any value is built: an exponent
    of five or more digits (Fraction would build 10^exponent) or a numerator
    or denominator over MAX_DIGITS digits as written raises CapacityError.
    """
    t = str(text).strip()
    m = _RATIONAL.fullmatch(t)
    sign, num, den, whole, frac, exp = m.groups(default="") if m else ("",) * 6
    if not (num or whole or frac):
        raise ValueError(f"{t!r} is not a rational literal")
    if len(exp.lstrip("+-")) >= 5:
        raise CapacityError(f"decimal exponent over 4 digits in {t!r}")
    shift = int(exp or 0) - len(frac)
    num, den = (num or whole + frac).lstrip("0") or "0", (den or "1").lstrip("0") or "0"
    if max(len(num) + max(shift, 0), len(den) - min(shift, 0)) > MAX_DIGITS:
        raise CapacityError(f"numerator or denominator over {MAX_DIGITS} digits in {t!r}")
    value = Q(int(num) * 10 ** max(shift, 0), int(den) * 10 ** max(-shift, 0))
    return -value if sign == "-" else value


def _box_end(text: str) -> Fraction:
    """A box end: a rational literal of at most MAX_BOX_DIGITS digits."""
    x = parse_rational(text)
    if max(abs(x.numerator), x.denominator) >= 10**MAX_BOX_DIGITS:
        raise CapacityError(f"box end over {MAX_BOX_DIGITS} digits in {text.strip()!r}")
    return x


def parse_ledger_line(line: str) -> Claim | None:
    body = line.split("#", 1)[0].strip()
    if not body:
        return None
    fields = [f.strip() for f in body.split("|")]
    if len(fields) not in (5, 6):
        raise ValueError(f"expected 5 or 6 fields: {line!r}")
    cid, lhs_text, rhs_text, s_text, mu_text = fields[:5]
    if len(fields) == 6 and fields[5] != "strict":
        raise ValueError(f"sixth field must be 'strict', got {fields[5]!r}: {line!r}")
    strict = len(fields) == 6
    m = _ROOT_RE.match(lhs_text)
    if m:
        for name, box in (("sigma", s_text), ("mu", mu_text)):
            if box != "-":
                raise ValueError(f"{name} field of root() must be '-', got {box!r}: {line!r}")
        coeffs = _poly_from_expression(m.group("poly"))
        value = AlgebraicNumber(coeffs, *map(parse_rational, m.group("lo", "hi")))
        return Claim.ordering(cid, value, parse_rational(rhs_text), strict=strict)
    lhs = [parse_expression(t) for t in lhs_text.split(";")]
    rhs = parse_expression(rhs_text)
    for box in (s_text, mu_text):
        if box != "all" and box.count(",") != 1:
            raise ValueError(f"expected a box 'lo, hi', got {box!r}: {line!r}")
    s_lo, s_hi = (_box_end(t) for t in s_text.split(","))
    mu = "all" if mu_text == "all" else tuple(_box_end(t) for t in mu_text.split(","))
    return Claim.box(cid, lhs, rhs, s_lo, s_hi, mu=mu, strict=strict)


def _poly_from_expression(text: str) -> list[Fraction]:
    v = parse_expression(text)
    if v.B or len(v.D) != 1:
        raise ValueError("root() needs a plain polynomial in s")
    return [Q(c, v.D[0]) for c in v.A]


def parse_ledger(text: str) -> list[Claim]:
    out = []
    for line in text.splitlines():
        try:
            c = parse_ledger_line(line)
        except ZeroDivisionError:
            raise ValueError(f"division by zero in ledger line {line!r}") from None
        if c is not None:
            out.append(c)
    ids = [c.id for c in out]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate claim ids in ledger")
    return out


def format_claim(claim: Claim) -> str:
    tail = " | strict" if claim.strict else ""
    if claim.algebraic_lhs is not None:
        a = claim.algebraic_lhs
        lhs = f"root({_fmt_poly(a.coeffs)}; {_fmt_q(a.lo)}, {_fmt_q(a.hi)})"
        return f"{claim.id} | {lhs} | {_fmt_q(claim.rhs(Q(0), 1))} | - | -{tail}"
    lhs = "; ".join(format_mulinear(l) for l in claim.lhs)
    rhs = format_mulinear(claim.rhs)
    s_lo, s_hi = claim.sigma_interval
    mu_lo, mu_hi = claim.mu_interval
    mu = "all" if (mu_lo, mu_hi) == MU_RANGE else f"{_fmt_q(mu_lo)}, {_fmt_q(mu_hi)}"
    return f"{claim.id} | {lhs} | {rhs} | {_fmt_q(s_lo)}, {_fmt_q(s_hi)} | {mu}{tail}"


def format_ledger(claims: Iterable[Claim]) -> str:
    return "\n".join(format_claim(c) for c in claims) + "\n"
