"""Lambda recovery through the combinatorial identity and its dyadic tiling.

The pointwise oracles live here: trial-division Moebius, the divisor
recursion for K_j and the Factorization records of the Fraction walk.
"""

import dataclasses
import json
import math
import random
import re
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapscope import identity as I
from gapscope.errors import CapacityError
from gapscope.primes import von_mangoldt
from gapscope.reports import canonical_json, factorization_dump

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Moebius
# ---------------------------------------------------------------------------

def mobius(n: int) -> int:
    """mu(n) by trial division."""
    if n < 1:
        raise ValueError("n must be >= 1")
    result = 1
    m = n
    for p in (2, 3):
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
    f = 5
    while f * f <= m:
        for p in (f, f + 2):
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                result = -result
        f += 6
    if m > 1:
        result = -result
    return result


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(12) == 0
    assert mobius(30) == -1
    assert mobius(2 * 3 * 5 * 7) == 1


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=3000))
def test_mobius_sieve_matches_pointwise(n):
    assert int(I.mobius_sieve(n)[n]) == mobius(n)


def test_mobius_sieve_every_limit_to_3000():
    table = I.mobius_sieve(3000)
    assert table.dtype == np.int8 and table[0] == 0
    assert table[1:].tolist() == [mobius(n) for n in range(1, 3001)]
    for limit in range(3000):
        assert np.array_equal(I.mobius_sieve(limit), table[: limit + 1]), limit


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=300))
def test_mobius_multiplicative_on_coprimes(a, b):
    if math.gcd(a, b) == 1:
        assert mobius(a * b) == mobius(a) * mobius(b)


# ---------------------------------------------------------------------------
# K_j and the identity
# ---------------------------------------------------------------------------

def compute_Kj(n: int, j: int, cfg) -> float:
    """The 2j-fold convolution at a single n, by recursion over divisors."""
    if not (1 <= j <= cfg.k):
        raise ValueError("need 1 <= j <= k")
    if n > 3 * cfg.x:
        raise ValueError("n beyond 3x")
    cut = cfg.mobius_cutoff

    @lru_cache(maxsize=None)
    def unit_part(m: int, slots: int) -> float:
        # (1^(*slots) * log)(m)
        if slots == 0:
            return math.log(m)
        return sum(unit_part(m // d, slots - 1) for d in divisors(m))

    @lru_cache(maxsize=None)
    def mob_part(m: int, slots: int) -> float:
        if slots == 0:
            return unit_part(m, j - 1)
        total = 0.0
        for d in divisors(m):
            if d <= cut:
                mu = mobius(d)
                if mu:
                    total += mu * mob_part(m // d, slots - 1)
        return total

    return mob_part(n, j)


@lru_cache(maxsize=4096)
def divisors(n: int) -> tuple[int, ...]:
    small = []
    large = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def lambda_via_identity(n: int, cfg) -> float:
    """sum_j c_j K_j(n) by the divisor recursion; Lambda(n) on the window [x, 3x]."""
    if not (cfg.x <= n <= 3 * cfg.x):
        raise ValueError(f"n={n} outside [{cfg.x}, {3 * cfg.x}]")
    return math.fsum(
        I.identity_weight(cfg.k, j) * compute_Kj(n, j, cfg) for j in range(1, cfg.k + 1)
    )


def test_Kj_divisor_examples():
    cfg = I.make_config(2, 1)
    assert compute_Kj(4, 1, cfg) == pytest.approx(math.log(2))  # log4 - log2
    assert compute_Kj(1, 1, cfg) == 0.0
    assert compute_Kj(5, 1, cfg) == pytest.approx(math.log(5))  # pairs (1,5),(5,1)


@pytest.mark.parametrize("x,k", [(2, 1), (8, 1), (50, 2), (60, 3), (20, 4)])
def test_kj_table_matches_divisor_recursion(x, k):
    cfg = I.make_config(x, k)
    for j in range(1, k + 1):
        table = I.kj_table(cfg, j)
        want = [compute_Kj(n, j, cfg) for n in range(1, 3 * x + 1)]
        assert table[1:].tolist() == pytest.approx(want, rel=1e-12, abs=1e-9)


def test_identity_sign_convention():
    # the weight (-1)^(j+1) C(k,j) recovers Lambda; the flipped sign fails at n=4
    cfg = I.make_config(2, 1)
    assert lambda_via_identity(4, cfg) == pytest.approx(math.log(2))
    flipped = sum(
        (-1) ** j * math.comb(1, j) * compute_Kj(4, j, cfg) for j in (1,)
    )
    assert flipped == pytest.approx(-math.log(2))


def test_identity_examples():
    cfg2 = I.make_config(2, 2)
    assert lambda_via_identity(6, cfg2) == pytest.approx(0.0, abs=1e-12)
    for k in (1, 2, 3):
        cfg = I.make_config(53, k)  # 106 = 2*53 prime
        assert lambda_via_identity(106, cfg) == pytest.approx(0.0, abs=1e-9)
        cfg = I.make_config(64, k)
        assert lambda_via_identity(127, cfg) == pytest.approx(math.log(127), rel=1e-12)


def test_identity_window_guard():
    cfg = I.make_config(50, 2)
    with pytest.raises(ValueError, match="outside"):
        lambda_via_identity(49, cfg)
    with pytest.raises(ValueError, match="outside"):
        lambda_via_identity(151, cfg)
    assert lambda_via_identity(50, cfg) == pytest.approx(von_mangoldt(50), abs=1e-9)


def test_identity_residual_tables():
    for x in (8, 50, 137):
        for k in (1, 2, 3):
            cfg = I.make_config(x, k)
            assert float(I.identity_residuals(cfg).max()) < 1e-9


def test_identity_check_caps():
    # (10^6, 3) takes about 2 s and sets the work cap k^2 * 3x; (2, 56) is the
    # largest k, whose weights binom(56, j) are still exact floats
    for x, k in [(10**6, 3), (10**5, 9), (5000, 6), (2, 56), (10**6, -1)]:
        I.check_capacity(x, k)
    t0 = time.perf_counter()
    for x, k in [(10**6, 4), (10**5, 10), (2, 57), (50, 2000), (10**6 + 1, 1), (2, 10**400)]:
        with pytest.raises(CapacityError):
            I.check_capacity(x, k)
    for x, k in [(10**6, 4), (2, 57), (50, 2000)]:
        with pytest.raises(CapacityError, match=f"x = {x}, k = {k} over the caps"):
            I.identity_residuals(I.make_config(x, k))
    assert time.perf_counter() - t0 < 1.0


def test_kj_table_with_given_mobius_table():
    cfg = I.make_config(137, 3)
    mu = I.mobius_sieve(3 * cfg.x)
    before = mu.copy()
    for j in (1, 2, 3):
        assert (I.kj_table(cfg, j, mu) == I.kj_table(cfg, j)).all()
    assert (mu == before).all()
    with pytest.raises(ValueError):
        I.kj_table(cfg, 1, I.mobius_sieve(3 * cfg.x - 1))


def convolve_by_every_i(a, b):
    """The per-integer loop that the hyperbola split replaced."""
    N = len(a) - 1
    out = np.zeros(N + 1)
    for i in range(1, N + 1):
        ai = a[i]
        if ai != 0.0:
            out[i :: i] += ai * b[1 : N // i + 1]
    return out


def bitwise_equal(u, v):
    return u.shape == v.shape and np.array_equal(u.view(np.int64), v.view(np.int64))


@pytest.mark.parametrize("N", [1, 2, 3, 4, 8, 9, 15, 15000])
def test_hyperbola_convolution_matches_per_integer_loop(N):
    rng = np.random.default_rng(N)
    for density in (0.05, 0.5, 1.0):
        a, b = (np.where(rng.random(N + 1) < density, rng.normal(size=N + 1), 0.0)
                for _ in range(2))
        a[0] = b[0] = 0.0
        assert bitwise_equal(I._dirichlet_convolve(a, b), convolve_by_every_i(a, b))
    # the kj_table inputs: truncated mu, 1 and log
    mu = I.mobius_sieve(N).astype(np.float64)
    mu[math.isqrt(N) + 1 :] = 0.0
    ones = np.ones(N + 1)
    ones[0] = 0.0
    logs = np.zeros(N + 1)
    logs[1:] = np.log(np.arange(1, N + 1, dtype=np.float64))
    for a, b in ((ones, logs), (mu, logs), (mu, ones), (ones, ones)):
        acc = I._dirichlet_convolve(a, b)
        assert bitwise_equal(acc, convolve_by_every_i(a, b))
        assert bitwise_equal(I._dirichlet_convolve(mu, acc), convolve_by_every_i(mu, acc))


@pytest.mark.parametrize("x", [777, 5000])
def test_von_mangoldt_table_equals_pointwise(x):
    N = 3 * x
    lam = I._von_mangoldt_table(N)
    assert len(lam) == N + 1 and lam[0] == 0.0
    assert lam[1:].tolist() == [von_mangoldt(n) for n in range(1, N + 1)]


def test_config_cutoff_invariant():
    for x, k in [(2, 1), (50, 3), (5000, 3), (1000, 6)]:
        cfg = I.make_config(x, k)
        c = cfg.mobius_cutoff
        assert c**k <= 3 * x < (c + 1) ** k
    with pytest.raises(ValueError):
        I.IdentityConfig(50, 2, 13)  # 13^2 > 150


def test_make_config_at_large_k_or_x_returns_at_once():
    # k >= bitlen(3x) gives cutoff 1 from bit lengths, without building 2^k; a
    # float estimate corrected in steps of 1 never finished at x = 10^60
    t0 = time.perf_counter()
    assert I.make_config(2, 10**9).mobius_cutoff == 1
    assert I.make_config(10**6, 10**400).mobius_cutoff == 1
    with pytest.raises(ValueError, match="not floor"):
        I.IdentityConfig(2, 10**9, 2)
    assert I.make_config(10**60, 2).mobius_cutoff == math.isqrt(3 * 10**60)
    c = I.make_config(10**400, 3).mobius_cutoff
    assert c**3 <= 3 * 10**400 < (c + 1) ** 3
    assert time.perf_counter() - t0 < 0.05


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**80), st.integers(1, 300))
def test_integer_root_is_the_floor_root(n, k):
    r = I._integer_root(n, k)
    assert r**k <= n < (r + 1) ** k


def test_identity_works_beyond_enumeration_order():
    # the divisor recursion needs no tuple enumeration, so large k still evaluates
    cfg = I.make_config(20, 8)
    n = 43
    assert lambda_via_identity(n, cfg) == pytest.approx(math.log(43), rel=1e-9)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def brute_count(cfg):
    """Independent recursive counter over the full dyadic grids."""
    k, x, cut = cfg.k, cfg.x, cfg.mobius_cutoff
    lo = Fraction(x, 2 ** (2 * k))
    hi = Fraction(3 * x)
    mob = [HALF] + [Fraction(2**e) for e in range(max(0, (cut - 1).bit_length()))]
    units = [HALF] + [Fraction(2**e) for e in range((6 * x).bit_length() + 2)]
    logs = [Fraction(2**e) for e in range((6 * x).bit_length() + 2)]
    total = 0
    for j in range(1, k + 1):
        slots = [mob] * j + [units] * (j - 1) + [logs]

        def rec(i, prod):
            nonlocal total
            if i == len(slots):
                total += lo <= prod * HALF ** (2 * (k - j)) <= hi
                return
            for N in slots[i]:
                rec(i + 1, prod * N)

        rec(0, Fraction(1))
    return total


def slot_class(i, k, N):
    """The class slot i (1-based) of a 2k-tuple takes at length N."""
    U = I.CoefficientClass
    if N == HALF:
        return U.SINGLETON
    return U.MOBIUS if i <= k else U.UNIT if i < 2 * k else U.LOG


def dyadic_exponent(N: Fraction) -> int:
    """e with N = 2^e, where N is 1/2 (e = -1) or a power of two."""
    num, den = N.numerator, N.denominator
    if num == 1 and den == 2:
        return -1
    if den == 1 and num >= 1 and num & (num - 1) == 0:
        return num.bit_length() - 1
    raise ValueError(f"length {N} is neither 1/2 nor a power of two")


@dataclasses.dataclass(frozen=True)
class Factorization:
    """One dyadic block tuple (N_1..N_2k) with its classes and identity weight c_j."""

    j: int
    k: int
    lengths: tuple[Fraction, ...]
    classes: tuple[I.CoefficientClass, ...]
    weight: int

    def validate(self, cfg) -> None:
        """Raise ValueError unless this is an admissible tuple for cfg: its
        exponents pass the row check, and its classes and weight match."""
        exps = tuple(dyadic_exponent(N) for N in self.lengths)
        k = self.k
        if k != cfg.k or len(self.classes) != 2 * k:
            raise ValueError(f"k={k} with {len(self.classes)} classes misfits k={cfg.k}")
        I._check_rows(cfg, [(self.j, exps)])
        for i, (N, cls) in enumerate(zip(self.lengths, self.classes), start=1):
            if cls is not slot_class(i, k, N):
                raise ValueError(f"slot {i} of length {N} has class "
                                 f"{cls.value}, not {slot_class(i, k, N).value}")
        if self.weight != (-1) ** (self.j + 1) * math.comb(k, self.j):
            raise ValueError(f"weight {self.weight} is not c_j")

    def supports(self, cfg):
        """Supports of the blocks but the singletons (each the factor 1), in order."""
        return [I.block_support(cls, N, cfg.mobius_cutoff)
                for N, cls in zip(self.lengths, self.classes)
                if cls is not I.CoefficientClass.SINGLETON]

    def as_dict(self) -> dict:
        return {
            "j": self.j,
            "lengths": [str(N) for N in self.lengths],
            "classes": [c.value for c in self.classes],
            "weight": self.weight,
        }


def reference_factorizations(cfg):
    """The Factorization records of the Fraction walk, classes and weights
    assigned by the slot rule and (-1)^(j+1) binom(k, j)."""
    k = cfg.k
    return [Factorization(j, k, lengths,
                          tuple(slot_class(i, k, N) for i, N in enumerate(lengths, start=1)),
                          (-1) ** (j + 1) * math.comb(k, j))
            for j, lengths in reference_enumeration(cfg)]


def read_rows(table):
    """The rows of a FactorizationRows as Factorization records, read through
    its `leaf` texts and `weight`."""
    @lru_cache(maxsize=None)
    def leaf(i, e):
        n, c = table.leaf(i, e)
        return Fraction(n), I.CoefficientClass(c)

    out = []
    for j, exps in table.rows:
        lengths, classes = zip(*(leaf(i, e) for i, e in enumerate(exps, start=1)))
        out.append(Factorization(j, table.cfg.k, lengths, classes, table.weight(j)))
    return out


@pytest.mark.parametrize("x,k", [(8, 1), (16, 1), (8, 2), (16, 2)])
def test_enumeration_count_and_invariants(x, k):
    cfg = I.make_config(x, k)
    table = I.enumerate_factorizations(cfg)
    fs = read_rows(table)
    assert len({(f.j, f.lengths) for f in fs}) == len(fs) == len(table)
    for f in fs:
        f.validate(cfg)
    assert len(fs) == brute_count(cfg)


def test_enumeration_x8_k1_frozen():
    cfg = I.make_config(8, 1)
    fs = read_rows(I.enumerate_factorizations(cfg))
    assert len(fs) == 18
    tuples = sorted((f.lengths[0], f.lengths[1]) for f in fs)
    assert set(t[0] for t in tuples) == {HALF, Fraction(1), Fraction(2),
                                         Fraction(4), Fraction(8), Fraction(16)}
    for N1, N2 in tuples:
        assert Fraction(2) <= N1 * N2 <= Fraction(24)


def test_placeholders_forced_at_half():
    cfg = I.make_config(16, 2)
    for f in read_rows(I.enumerate_factorizations(cfg)):
        k, j = f.k, f.j
        for i in range(1, 2 * k + 1):
            if (j < i <= k) or (k + j <= i < 2 * k):
                assert f.lengths[i - 1] == HALF
                assert f.classes[i - 1] is I.CoefficientClass.SINGLETON


def reference_enumeration(cfg):
    """(j, lengths) of every tuple, in order, by the walk over Fraction
    products: partial * N against x/4^k and 3x at every step."""
    k, x, cut = cfg.k, cfg.x, cfg.mobius_cutoff
    lo, hi = Fraction(x, 2 ** (2 * k)), Fraction(3 * x)
    mob_grid = [HALF] + [Fraction(2**e) for e in range(max(0, (cut - 1).bit_length()))]

    def unit_grid(partial, remaining):
        yield HALF
        e = 0
        while partial * (2**e) * HALF ** max(0, remaining - 1) <= hi:
            yield Fraction(2**e)
            e += 1

    def log_grid(partial):
        e = 0
        while partial * (2**e) <= hi:
            yield Fraction(2**e)
            e += 1

    out = []
    for j in range(1, k + 1):
        def rec(slot, partial, chosen):
            if slot == 2 * j:
                if lo <= partial <= hi:
                    lengths = [HALF] * (2 * k)
                    lengths[:j] = chosen[:j]
                    lengths[k : k + j - 1] = chosen[j : 2 * j - 1]
                    lengths[-1] = chosen[-1]
                    out.append((j, tuple(lengths)))
                return
            remaining = 2 * j - slot - 1
            if slot < j:
                grid = mob_grid
            elif slot < 2 * j - 1:
                grid = unit_grid(partial, remaining)
            else:
                grid = log_grid(partial)
            for N in grid:
                nxt = partial * N
                if nxt * HALF ** max(0, remaining - 1) > hi:
                    break
                rec(slot + 1, nxt, chosen + [N])

        rec(0, HALF ** (2 * (k - j)), [])
    return out


@pytest.mark.parametrize("x,k", [(2, 1), (777, 1), (3, 2), (3000, 2), (5, 3), (137, 3), (8, 4)])
def test_exponent_walk_matches_fraction_walk(x, k):
    cfg = I.make_config(x, k)
    assert read_rows(I.enumerate_factorizations(cfg)) == reference_factorizations(cfg)


def test_validate_rejects_each_broken_invariant():
    cfg = I.make_config(50, 2)  # cutoff 12
    fs = reference_factorizations(cfg)
    f = next(f for f in fs
             if f.j == 2 and f.lengths[0] == 8 and f.lengths[1] == 2 and f.lengths[2] == 1)
    f.validate(cfg)
    U = I.CoefficientClass
    broken = {
        "power of two": dataclasses.replace(f, lengths=(Fraction(8), Fraction(3)) + f.lengths[2:]),
        "class": dataclasses.replace(f, classes=(U.UNIT,) + f.classes[1:]),
        "above the cutoff": dataclasses.replace(f, lengths=(Fraction(16),) + f.lengths[1:]),
        "outside": dataclasses.replace(f, lengths=f.lengths[:3] + (Fraction(2**10),)),
        "weight": dataclasses.replace(f, weight=-f.weight),
        "placeholder": dataclasses.replace(
            next(g for g in fs if g.j == 1 and g.lengths[0] == 1),
            lengths=(Fraction(1), Fraction(1), HALF, Fraction(16)),
        ),
    }
    for needle, g in broken.items():
        with pytest.raises(ValueError, match=needle):
            g.validate(cfg)


def test_enumeration_capacity_guard():
    with pytest.raises(CapacityError):
        I.enumerate_factorizations(I.make_config(64, 7))


@pytest.mark.parametrize("x,k", [(2, 1), (8, 1), (16, 1), (777, 1), (3, 2), (8, 2), (16, 2),
                                 (50, 2), (3000, 2), (5000, 2), (5, 3), (137, 3), (8, 4)])
def test_row_count_matches_enumeration(x, k):
    cfg = I.make_config(x, k)
    assert I._row_count(cfg) == len(I.enumerate_factorizations(cfg))


def test_enumeration_count_guard():
    # (5000, 3) is admitted; (5000, 4) would list 1,424,971 tuples
    assert I._row_count(I.make_config(5000, 3)) == 73499 <= I.MAX_FACTORIZATIONS
    t0 = time.perf_counter()
    with pytest.raises(CapacityError, match="x=5000, k=4: more than 100000 block tuples"):
        I.enumerate_factorizations(I.make_config(5000, 4))
    with pytest.raises(CapacityError):
        I.enumerate_factorizations(I.make_config(50, 1000))
    assert time.perf_counter() - t0 < 1.0


def test_row_check_refuses_each_broken_invariant():
    cfg = I.make_config(50, 2)  # cutoff 12, exponent sums in [2, 7]
    rows = I.enumerate_factorizations(cfg).rows
    I._check_rows(cfg, rows)
    broken = {  # each row breaks one invariant and keeps the others
        "j outside 1..2": (3, (3, 1, 1, 2)),
        "a length below 1/2": (2, (3, 1, -2, 5)),
        "a placeholder not at 1/2": (1, (1, 0, -1, 3)),
        "a Moebius slot above the cutoff 12": (2, (4, 0, 0, 2)),
        "the log slot at 1/2": (2, (3, 3, 2, -1)),
        "a product outside": (2, (3, 3, 3, 3)),
        "without 2k = 4 exponents": (2, (3, 1, 1)),
    }
    for needle, row in broken.items():
        with pytest.raises(ValueError, match=re.escape(needle)):
            I._check_rows(cfg, rows[:5] + [row] + rows[5:])


def test_validate_refuses_a_log_slot_at_half():
    # classes and weight fit such a tuple, so only the row check refuses it
    f = Factorization(1, 1, (Fraction(1), HALF), (I.CoefficientClass.MOBIUS,
                                                  I.CoefficientClass.SINGLETON), 1)
    with pytest.raises(ValueError, match="the log slot at 1/2"):
        f.validate(I.make_config(2, 1))


@pytest.mark.parametrize("x,k", [(8, 1), (777, 1), (3, 2), (3000, 2), (137, 3), (8, 4), (5000, 2)])
def test_factorization_dump_equals_canonical_json(x, k):
    cfg = I.make_config(x, k)
    want = canonical_json([f.as_dict() for f in reference_factorizations(cfg)])
    assert factorization_dump(I.enumerate_factorizations(cfg)) == want


def test_factorization_dump_lays_out_rows_over_12_slots_like_canonical_json():
    # every k >= 7 is over the enumeration cap, so this 14-slot row is built by hand
    cfg, exps = I.make_config(2, 7), (0,) + (-1,) * 12 + (1,)
    lengths = tuple(Fraction(2) ** e for e in exps)
    f = Factorization(1, 7, lengths,
                      tuple(slot_class(i, 7, N) for i, N in enumerate(lengths, start=1)), 7)
    f.validate(cfg)
    table = I.FactorizationRows(cfg, [(1, exps)], top=2)
    assert factorization_dump(table) == canonical_json([f.as_dict()])


# ---------------------------------------------------------------------------
# window coefficients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x,k", [(8, 1), (16, 1), (8, 2), (30, 2), (5000, 2)])
def test_window_coefficients_recover_lambda(x, k):
    # (5000, 2) holds the 2601 factorizations `identity --dump-factorizations` writes
    cfg = I.make_config(x, k)
    total = I.window_coefficient_sum(cfg)
    assert len(total) == 3 * x + 1 and not total[: x + 1].any()
    lam = [von_mangoldt(n) for n in range(x + 1, 3 * x + 1)]
    assert np.abs(total[x + 1 :] - lam).max() <= 1e-9


def test_window_coefficient_point_values():
    cfg = I.make_config(8, 1)
    total = I.window_coefficient_sum(cfg)
    assert total[9] == pytest.approx(math.log(3))
    assert abs(total[12]) < 1e-12


def test_small_product_factorization_is_empty_in_window():
    cfg = I.make_config(16, 2)
    for f in reference_factorizations(cfg):
        if all(c is I.CoefficientClass.SINGLETON for c in f.classes[:-1]):
            if f.lengths[-1] < cfg.x / 2:
                ns, _ = I.product_terms(f.supports(cfg), 3 * cfg.x)
                assert not np.any(ns > cfg.x)
                assert reference_window_coefficients(f, cfg) == {}


# ---------------------------------------------------------------------------
# product kernel against the recursions it replaced
# ---------------------------------------------------------------------------

def reference_factor_support(N, cls, cfg):
    """The block support as the identity built it, from trial-division mobius."""
    if cls is I.CoefficientClass.SINGLETON:
        return [(1, 1.0)]
    lo, hi = int(N), int(2 * N)
    if cls is I.CoefficientClass.MOBIUS:
        hi = min(hi, cfg.mobius_cutoff)
        return [(n, float(m)) for n in range(lo + 1, hi + 1) if (m := mobius(n))]
    if cls is I.CoefficientClass.UNIT:
        return [(n, 1.0) for n in range(lo + 1, hi + 1)]
    return [(n, math.log(n)) for n in range(lo + 1, hi + 1)]


def reference_window_coefficients(f, cfg):
    """Window coefficients of one factorization by the per-term recursion."""
    lo, hi = cfg.x, 3 * cfg.x
    supports = [reference_factor_support(N, cls, cfg)
                for N, cls in zip(f.lengths, f.classes)
                if cls is not I.CoefficientClass.SINGLETON]
    out = {}

    def rec(idx, n, coeff):
        if n > hi:
            return
        if idx == len(supports):
            if lo < n <= hi and coeff != 0.0:
                out[n] = out.get(n, 0.0) + coeff
            return
        for v, c in supports[idx]:
            if n * v > hi:
                break
            rec(idx + 1, n * v, coeff * c)

    rec(0, 1, 1.0)
    return out


def reference_direct_window_sum(factors, y, tau):
    """The window sum by the per-term recursion, summed in nested-loop order."""
    hi_val = y + y / tau
    supports = [f.support() for f in factors if f.cls is not I.CoefficientClass.SINGLETON]
    total = 0.0

    def rec(idx, n, coeff):
        nonlocal total
        if n > hi_val:
            return
        if idx == len(supports):
            if y < n <= hi_val:
                total += coeff
            return
        ns, an = supports[idx]
        for v, a in zip(ns.tolist(), an.tolist()):
            if n * v > hi_val:
                break
            rec(idx + 1, n * v, coeff * a)

    rec(0, 1, 1.0)
    return total


def reference_mean_square(factors):
    """(N, sum coeff^2 / N) with the coefficients merged in a dict."""
    supports = [f.support() for f in factors if f.cls is not I.CoefficientClass.SINGLETON]
    if not supports:
        return 1.0, 1.0
    coeffs = {}

    def rec(idx, n, a):
        if idx == len(supports):
            coeffs[n] = coeffs.get(n, 0.0) + a
            return
        ns, an = supports[idx]
        for v, c in zip(ns.tolist(), an.tolist()):
            rec(idx + 1, n * v, a * c)

    rec(0, 1, 1.0)
    N = float(math.prod(float(f.N) for f in factors
                        if f.cls is not I.CoefficientClass.SINGLETON))
    return N, sum(a * a for a in coeffs.values()) / N


@pytest.mark.parametrize("x,k", [(30, 2), (500, 2), (40, 3)])
def test_kernel_matches_recursion_per_factorization(x, k):
    cfg = I.make_config(x, k)
    table = I.enumerate_factorizations(cfg)
    for (_, exps), f in zip(table.rows, reference_factorizations(cfg), strict=True):
        ns, an = I.product_terms(table.supports(exps), 3 * x)
        got = np.bincount(ns, an, minlength=3 * x + 1)
        want = np.zeros(3 * x + 1)
        for n, c in reference_window_coefficients(f, cfg).items():
            want[n] = c
        got[: x + 1] = 0.0
        assert np.allclose(got, want, rtol=1e-12, atol=0.0), f


def random_factors(rng):
    """1-4 factors over (N, 2N], N <= 32, a Moebius block cut at times."""
    from gapscope.dirichlet import PolyFactor, singleton_factor

    out = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["unit", "log", "mobius", "singleton"])
        if kind == "singleton":
            out.append(singleton_factor())
            continue
        N = rng.choice([1, 2, 4, 8, 16, 32])
        cls = I.CoefficientClass(kind)
        cutoff = rng.randint(N, 2 * N) if kind == "mobius" and rng.random() < 0.5 else None
        out.append(PolyFactor(cls, Fraction(N), cutoff))
    return out


def reference_product_terms(factors, hi):
    """The product's coefficients n <= hi accumulated in a dict, ascending n."""
    coeffs = {1: 1.0}
    for f in factors:
        step = {}
        for n, a in coeffs.items():
            for v, c in zip(*(x.tolist() for x in f.support())):
                if n * v <= hi:
                    step[n * v] = step.get(n * v, 0.0) + a * c
        coeffs = step
    return sorted(coeffs), [coeffs[n] for n in sorted(coeffs)]


def test_kernel_matches_recursions_on_random_factor_sets():
    from gapscope.experiments import product_mean_square
    from gapscope.perron import direct_window_sum

    rng = random.Random(20120116)
    exact_checked = 0
    for _ in range(300):
        factors = random_factors(rng)
        top = math.prod(2 * max(1, int(f.N)) for f in factors)
        y = rng.uniform(1.0, top)
        tau = rng.uniform(0.5, 4.0)  # hi = y (1 + 1/tau) often cuts the product
        ns, an = I.product_terms([f.support() for f in factors], y + y / tau)
        want_ns, want_an = reference_product_terms(factors, y + y / tau)
        assert ns.tolist() == want_ns, factors
        got, want = direct_window_sum(factors, y, tau), reference_direct_window_sum(factors, y, tau)
        if all(f.cls is not I.CoefficientClass.LOG for f in factors):
            assert an.tolist() == want_an and got == want, factors
            exact_checked += 1
        else:
            assert an == pytest.approx(want_an, rel=1e-12), factors
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300), factors
        N, ms = product_mean_square(factors)
        N_ref, ms_ref = reference_mean_square(factors)
        assert N == N_ref and ms == pytest.approx(ms_ref, rel=1e-12), factors
    assert exact_checked > 50


def test_kernel_merges_terms_into_distinct_ascending_n():
    # 2 * 3 and 3 * 2 both give 6: one entry, with the summed coefficient
    ns, an = I.product_terms([(np.array([2, 3]), np.array([1.0, -1.0])),
                              (np.array([2, 3]), np.array([2.0, 0.5]))], 20)
    assert ns.tolist() == [4, 6, 9]
    assert an.tolist() == [2.0, 0.5 - 2.0, -0.5]
    # a single-value table or support needs no merge; hi drops 15 and 21
    ns, an = I.product_terms([(np.array([3]), np.array([-1.0])),
                              (np.array([2, 5, 7]), np.array([1.0, 2.0, 4.0]))], 14)
    assert ns.tolist() == [6] and an.tolist() == [-1.0]
    ns, an = I.product_terms([(np.array([2, 3]), np.array([1.0, -1.0])),
                              (np.array([5]), np.array([2.0]))], 20)
    assert ns.tolist() == [10, 15] and an.tolist() == [2.0, -2.0]
    ns, an = I.product_terms([(np.array([2, 3]), np.array([1.0, -1.0]))] * 2, 3)
    assert ns.tolist() == [] and an.tolist() == []
    ns, an = I.product_terms([], 5)
    assert ns.tolist() == [1] and an.tolist() == [1.0]


def test_cached_support_is_read_only():
    from gapscope.dirichlet import mobius_factor, unit_factor

    for ns, an in (unit_factor(8).support(), mobius_factor(16, 20).support(),
                   I.block_support(I.CoefficientClass.LOG, Fraction(4))):
        with pytest.raises(ValueError):
            ns[0] = 1
        with pytest.raises(ValueError):
            an[0] = 1.0
    assert mobius_factor(16, 20).support() is mobius_factor(16, 20).support()
    ns, an = mobius_factor(16, 20).support()
    assert ns.tolist() == [17, 19] and an.tolist() == [-1.0, -1.0]


def test_factorization_dump_shape():
    cfg = I.make_config(8, 1)
    d = json.loads(factorization_dump(I.enumerate_factorizations(cfg)))[0]
    assert set(d) == {"j", "lengths", "classes", "weight"}
    assert all(isinstance(s, str) for s in d["lengths"])


# ---------------------------------------------------------------------------
# long/short split
# ---------------------------------------------------------------------------

def fraction_split(table, threshold):
    """Rows whose record has some N_i**q > x**p, by Fraction arithmetic, and the rest."""
    p, q, x = threshold.numerator, threshold.denominator, Fraction(table.cfg.x)
    longs = [any(N**q > x**p for N in f.lengths) for f in read_rows(table)]
    return ([r for r, lg in zip(table.rows, longs) if lg],
            [r for r, lg in zip(table.rows, longs) if not lg])


def test_split_long_partition_and_membership():
    cfg = I.make_config(1024, 1)
    table = I.enumerate_factorizations(cfg)
    f_part, g_part = I.split_long(table, Fraction(19, 20))
    assert len(f_part) + len(g_part) == len(table)
    # x = 2^10: membership decided by N_i > 2^9.5, i.e. N_i >= 2^10 dyadically
    for row, f in zip(table.rows, read_rows(table)):
        expected_long = any(N >= 1024 for N in f.lengths)
        assert (row in f_part) == expected_long


@pytest.mark.parametrize("x,k,threshold", [(60, 2, Fraction(19, 20)), (777, 1, Fraction(1, 3)),
                                           (60, 3, Fraction(2, 3)), (3000, 2, Fraction(7, 8)),
                                           (64, 1, Fraction(1)), (2, 1, Fraction(1, 2))])
def test_split_long_matches_fraction_comparison(x, k, threshold):
    table = I.enumerate_factorizations(I.make_config(x, k))
    assert I.split_long(table, threshold) == fraction_split(table, threshold)


def test_split_long_thresholds():
    cfg = I.make_config(64, 1)
    table = I.enumerate_factorizations(cfg)
    with pytest.raises(ValueError):
        I.split_long(table, Fraction(0))
    f1, g1 = I.split_long(table, Fraction(1))
    # the predicate is N_i > x; blocks above x exist (up to 3x), so f is nonempty
    lengths = {row: f.lengths for row, f in zip(table.rows, read_rows(table))}
    assert f1 and all(any(N > 64 for N in lengths[row]) for row in f1)
