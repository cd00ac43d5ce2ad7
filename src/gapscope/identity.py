"""Combinatorial identity machinery for the von Mangoldt function.

Writing M_x(s) = sum_{n <= (3x)^(1/k)} mu(n) n^{-s}, the expansion of
-zeta'/zeta against (1 - M_x zeta)^k gives, for every n <= 3x,

    Lambda(n) = sum_{j=1}^{k} (-1)^(j+1) binom(k, j) K_j(n),

where K_j(n) runs over ordered factorizations n = n_1 ... n_{2j} with the
first j variables Moebius-weighted and capped at the cutoff, the next j-1
unit-weighted, and the last carrying log(n_{2j}).  (The sign here differs
from a common typeset form of the identity; the convolution of `kj_table` is
the one that actually recovers Lambda, which `identity_residuals` checks.)

The identity is exact for n <= 3x because the discarded term's Dirichlet
coefficients vanish there: each factor of (1 - M_x zeta) is supported on
integers with a divisor above the cutoff, so the k-fold product is supported
above cutoff^k-adjacent values, and (cutoff+1)^k > 3x.

Dyadic decomposition then splits each K_j into products of short polynomials
S_1 ... S_2k over blocks (N_i, 2N_i]; `enumerate_factorizations` lists the
admissible block tuples as the integer exponent rows of a `FactorizationRows`.
Every block's support comes from the cached `block_support`, and every
product of supports from one kernel, `product_terms`, which
`window_coefficient_sum` here, `perron` and `experiments` reduce to their
sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain
from typing import Iterable

import numpy as np

from .errors import CapacityError
from .primes import proper_prime_powers, simple_sieve

EXACTNESS_TOL = 1e-9


class CoefficientClass(Enum):
    MOBIUS = "mobius"
    UNIT = "unit"
    LOG = "log"
    SINGLETON = "singleton"  # length 1/2, only term n_i = 1


@dataclass(frozen=True)
class IdentityConfig:
    x: int
    k: int
    mobius_cutoff: int

    def __post_init__(self):
        if self.x < 2 or self.k < 1:
            raise ValueError("need x >= 2 and k >= 1")
        if self.mobius_cutoff != _integer_root(3 * self.x, self.k):
            raise ValueError("mobius_cutoff is not floor((3x)^(1/k))")


def make_config(x: int, k: int) -> IdentityConfig:
    return IdentityConfig(x, k, _integer_root(3 * x, k))


def _integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) by integer Newton steps down from 2^ceil(bitlen(n)/k).

    When k >= bitlen(n), n < 2^k and the root is 0 or 1: no power is built.
    """
    if n < 0 or k < 1:
        raise ValueError(f"need n >= 0 and k >= 1 for the integer k-th root, got n={n}, k={k}")
    if k >= n.bit_length():
        return min(n, 1)
    r = 1 << -(-n.bit_length() // k)
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s
    return r


# ---------------------------------------------------------------------------
# Moebius function
# ---------------------------------------------------------------------------

def mobius_sieve(limit: int) -> np.ndarray:
    """mu(1..limit) as an int8 array (index 0 unused).

    Only the primes p <= sqrt(limit) are visited: each flips the sign of its
    multiples, zeroes those of p^2 and divides itself out of its multiples in
    a copy of 0..limit.  Where more than 1 is left, it is a single prime above
    sqrt(limit) (two would exceed the limit), which flips the sign once more.
    """
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    rest = np.arange(limit + 1)
    for p in simple_sieve(math.isqrt(limit)).tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        rest[p::p] //= p
    mu[rest > 1] *= -1
    return mu


# ---------------------------------------------------------------------------
# Coefficient supports and their products
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def block_support(
    cls: CoefficientClass, N: Fraction, cutoff: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(values, coefficients) of the block (N, 2N], ascending, as read-only arrays.

    The coefficients are 1, log n or mu(n), zeros dropped; a Moebius block
    stops at `cutoff` when one is given, the other classes ignore it.  The
    singleton is the single term 1.  Cached per (cls, N, cutoff).
    """
    if cls is CoefficientClass.SINGLETON:
        ns, an = np.ones(1, dtype=np.int64), np.ones(1)
    else:
        lo, hi = int(N), int(2 * N)
        if cls is CoefficientClass.MOBIUS and cutoff is not None:
            hi = min(hi, cutoff)
        ns = np.arange(lo + 1, hi + 1, dtype=np.int64)
        if cls is CoefficientClass.UNIT:
            an = np.ones(len(ns))
        elif cls is CoefficientClass.LOG:
            an = np.log(ns.astype(np.float64))
        else:
            an = mobius_sieve(hi)[ns].astype(np.float64)
        keep = an != 0.0
        ns, an = ns[keep], an[keep]
    ns.flags.writeable = an.flags.writeable = False
    return ns, an


def product_terms(
    supports: Iterable[tuple[np.ndarray, np.ndarray]], hi: float
) -> tuple[np.ndarray, np.ndarray]:
    """Terms (n, a) of the product of (values, coefficients) supports, n <= hi.

    One outer product per support, dropping the terms above hi after each
    (values are >= 1, so a dropped term never returns).  The terms are not
    merged: they come in nested-loop order with the first support outermost,
    each coefficient the left-to-right product of its factors'.
    """
    ns, an = np.ones(1, dtype=np.int64), np.ones(1)
    for vs, cs in supports:
        ns = np.multiply.outer(ns, vs).ravel()
        an = np.multiply.outer(an, cs).ravel()
        keep = ns <= hi
        ns, an = ns[keep], an[keep]
    return ns, an


# ---------------------------------------------------------------------------
# K_j tables
# ---------------------------------------------------------------------------

def identity_weight(k: int, j: int) -> int:
    """c_j = (-1)^(j+1) * binom(k, j); the sign that recovers Lambda."""
    return (-1) ** (j + 1) * math.comb(k, j)


def kj_table(cfg: IdentityConfig, j: int, mu: np.ndarray | None = None) -> np.ndarray:
    """K_j(n) for all n <= 3x as a float array (index 0 unused).

    `mu` is `mobius_sieve(3x)`, sieved here when not given; it is not modified.
    """
    N = 3 * cfg.x
    if mu is None:
        mu = mobius_sieve(N)
    elif len(mu) != N + 1:
        raise ValueError(f"Moebius table has {len(mu)} entries, need 3x + 1 = {N + 1}")
    mu = mu.astype(np.float64)
    mu[cfg.mobius_cutoff + 1 :] = 0.0
    logs = np.zeros(N + 1)
    logs[1:] = np.log(np.arange(1, N + 1, dtype=np.float64))
    ones = np.ones(N + 1)
    ones[0] = 0.0
    acc = logs
    for _ in range(j - 1):
        acc = _dirichlet_convolve(ones, acc)
    for _ in range(j):
        acc = _dirichlet_convolve(mu, acc)
    return acc


def _dirichlet_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a * b)(n) = sum_{i | n} a[i] b[n/i] for n <= N = len(a) - 1.

    Hyperbola split at r = isqrt(N): each i <= r adds a[i] b[1..N//i] as one
    slice; the products with i > r have cofactor k = n/i <= r, and each k adds
    a[i] b[k] at the indices k*i for all i > r at once.  Every out[n] sums the
    same products in ascending order of i (the i <= r first, then the k in
    descending order), so each sum rounds exactly as in a loop over every i.
    """
    N = len(a) - 1
    r = math.isqrt(N)
    out = np.zeros(N + 1)
    for i in range(1, r + 1):
        ai = a[i]
        if ai != 0.0:
            out[i :: i] += ai * b[1 : N // i + 1]
    big = np.flatnonzero(a[r + 1 :]) + (r + 1)  # i > r with a[i] != 0
    a_big = a[big]
    for k in range(N // (r + 1), 0, -1):
        m = int(np.searchsorted(big, N // k, side="right"))
        out[k * big[:m]] += a_big[:m] * b[k]
    return out


def _von_mangoldt_table(N: int) -> np.ndarray:
    """Lambda(0..N) as a float array (index 0 unused), equal to von_mangoldt.

    Each prime power p^j <= N gets math.log(p), the value von_mangoldt returns.
    """
    lam = np.zeros(N + 1)
    primes = simple_sieve(N).tolist()
    lam[primes] = [math.log(p) for p in primes]
    for pk, log_p in proper_prime_powers(2, N):
        lam[pk] = log_p
    return lam


#: Largest x that `identity_residuals` takes.  Its tables hold about 70 bytes
#: per n <= 3x, so the cap bounds them near 260 MB.
IDENTITY_MAX_X = 10**6
#: Largest k: every weight binom(k, j) is below 2^53, so exact in the tables.
IDENTITY_MAX_K = 56
#: Cap on k^2 * 3x, the entries swept by the k^2 convolutions of the check:
#: that of (10^6, 3), which takes about 2 s.
IDENTITY_MAX_WORK = 27 * 10**6


def check_capacity(x: int, k: int) -> None:
    """Refuse an identity check over the caps, before its config is built."""
    if x > IDENTITY_MAX_X:
        raise CapacityError(f"identity check at x = {x} over the desk-scale cap "
                            f"x <= {IDENTITY_MAX_X} (about 70 bytes per n <= 3x)")
    if k > IDENTITY_MAX_K or k > 0 and k * k * 3 * x > IDENTITY_MAX_WORK:
        raise CapacityError(f"identity check at x = {x}, k = {k} over the caps "
                            f"k <= {IDENTITY_MAX_K} and k^2 * 3x <= {IDENTITY_MAX_WORK}")


def identity_residuals(cfg: IdentityConfig) -> np.ndarray:
    """|sum_j c_j K_j(n) - Lambda(n)| for n in (x, 3x], via batched tables."""
    check_capacity(cfg.x, cfg.k)
    N = 3 * cfg.x
    mu = mobius_sieve(N)
    total = np.zeros(N + 1)
    for j in range(1, cfg.k + 1):
        total += identity_weight(cfg.k, j) * kj_table(cfg, j, mu)
    lam = _von_mangoldt_table(N)
    window = slice(cfg.x + 1, N + 1)
    return np.abs(total[window] - lam[window])


# ---------------------------------------------------------------------------
# Dyadic factorizations
# ---------------------------------------------------------------------------

HALF = Fraction(1, 2)

#: One block tuple (j, exps): N_i = 2^exps[i - 1], the exponent -1 standing for 1/2.
Row = tuple[int, tuple[int, ...]]

#: Cap on the block tuples an enumeration lists; (5000, 3) has 73,499, (5000, 4) 1,424,971.
MAX_FACTORIZATIONS = 10**5


@dataclass(frozen=True)
class FactorizationRows:
    """Admissible block tuples as integer rows (j, exps), in enumeration order:
    N_i = 2^e for e = exps[i - 1] in range(-1, top), e = -1 standing for 1/2."""

    cfg: IdentityConfig
    rows: list[Row]
    top: int

    def __len__(self) -> int:
        return len(self.rows)

    def leaf(self, i: int, e: int) -> tuple[str, str]:
        """The texts of N_i = 2^e and of its class in a dumped record."""
        return str(_length(e)), _slot_class(i, self.cfg.k, e).value

    def weight(self, j: int) -> int:
        return identity_weight(self.cfg.k, j)

    def supports(self, exps: tuple[int, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
        """Supports of a row's blocks but the singletons (each the factor 1), in order."""
        k, cutoff = self.cfg.k, self.cfg.mobius_cutoff
        return [block_support(_slot_class(i, k, e), _length(e), cutoff)
                for i, e in enumerate(exps, start=1) if e != -1]


def _length(e: int) -> Fraction:
    return HALF if e == -1 else Fraction(1 << e)


def _slot_class(i: int, k: int, e: int) -> CoefficientClass:
    """The class slot i (1-based) of a 2k-tuple takes at length 2^e."""
    if e == -1:
        return CoefficientClass.SINGLETON
    if i <= k:
        return CoefficientClass.MOBIUS
    if i < 2 * k:
        return CoefficientClass.UNIT
    return CoefficientClass.LOG


def _product_exponents(cfg: IdentityConfig) -> tuple[int, int]:
    """[lo, hi] with x/4^k <= 2^E <= 3x exactly when lo <= E <= hi."""
    return (cfg.x - 1).bit_length() - 2 * cfg.k, (3 * cfg.x).bit_length() - 1


def enumerate_factorizations(cfg: IdentityConfig) -> FactorizationRows:
    """Every admissible block tuple of cfg as an integer row, each exactly once,
    in deterministic order, checked by `_check_rows`.

    Active Moebius slots may sit at any dyadic N below the cutoff (the top
    block is truncated at the cutoff); N = 1/2 marks a slot pinned to n_i = 1
    and is the forced value at placeholder positions.  The log slot skips
    N = 1/2 since log 1 = 0 would zero the product.

    The walk is over integer exponents, so a partial product is the exponent
    sum E and the window x/4^k <= 2^E <= 3x an integer range [lo, hi].  Each
    slot's exponents ascend and stop at the first e that leaves no room below
    hi: every later slot adds at least -1, the log slot at least 0.  Over
    MAX_FACTORIZATIONS tuples, counted first, raise CapacityError.
    """
    if _row_count(cfg, stop=MAX_FACTORIZATIONS) > MAX_FACTORIZATIONS:
        raise CapacityError(f"enumeration refused at x={cfg.x}, k={cfg.k}: "
                            f"more than {MAX_FACTORIZATIONS} block tuples")
    k = cfg.k
    lo, hi = _product_exponents(cfg)
    top_mobius = _ceil_log2(cfg.mobius_cutoff) - 1  # blocks below the cutoff
    rows: list[Row] = []
    for j in range(1, k + 1):
        pad = (-1,) * (k - j)  # the placeholders after the Moebius and unit slots
        before_log = pad * (2 if j == 1 else 1)

        def rec(slot: int, E: int, chosen: tuple[int, ...]):
            if slot == j:
                chosen += pad
            # each later active slot but the log slot can still take off 1
            top = hi - E + 2 * j - slot - 2
            exps = range(-1, min(top, top_mobius) + 1 if slot < j else top + 1)
            if slot < 2 * j - 2:
                for e in exps:
                    rec(slot + 1, E + e, chosen + (e,))
            else:  # the log slot follows and closes the window
                rows.extend((j, head + (g,)) for e in exps for head in [chosen + (e,) + before_log]
                            for g in range(max(0, lo - E - e), hi - E - e + 1))

        rec(0, -2 * (k - j), ())  # the 2(k - j) placeholders sit at 1/2
    _check_rows(cfg, rows)
    # no exponent exceeds hi + 2k - 1, since the others sum to at least 1 - 2k
    return FactorizationRows(cfg, rows, hi + 2 * k)


def _row_count(cfg: IdentityConfig, stop: int | None = None) -> int:
    """The number of rows `enumerate_factorizations` lists, stopping once past `stop`.

    Shifted to start at 0, each of the j Moebius slots takes one of w values,
    the j - 1 unit slots and the log slot any value >= 0, and a tuple counts
    when the shifted exponents sum to S in [lo + 2k - 1, hi + 2k - 1].
    """
    lo, hi = _product_exponents(cfg)
    w, total = _ceil_log2(cfg.mobius_cutoff) + 1, 0
    for j in range(1, cfg.k + 1):
        ways = [1] + [0] * (hi + 2 * cfg.k - 1)  # ways[S]: choices summing to S
        for _ in range(j):  # a Moebius slot, then a unit or the log slot
            acc = [0] * w + list(accumulate(ways))
            ways = list(accumulate(acc[S + w] - acc[S] for S in range(len(ways))))
        total += sum(ways[lo + 2 * cfg.k - 1 :])
        if stop is not None and total > stop:
            break
    return total


def _check_rows(cfg: IdentityConfig, rows: list[Row]) -> None:
    """Raise ValueError unless every row (j, exps) is an admissible tuple for cfg:
    1 <= j <= k, 2k exponents each >= -1, -1 at the placeholders, Moebius slots
    at 2^e <= cutoff, the log slot at e >= 0 and the exponent sum in [lo, hi]."""
    k, (lo, hi) = cfg.k, _product_exponents(cfg)
    if any(len(exps) != 2 * k for _, exps in rows):
        raise ValueError(f"a row without 2k = {2 * k} exponents")
    js = np.fromiter((j for j, _ in rows), dtype=np.int64, count=len(rows))
    es = np.fromiter(chain.from_iterable(exps for _, exps in rows), dtype=np.int64,
                     count=2 * k * len(rows)).reshape(len(rows), 2 * k)
    slot, sums, j = np.arange(1, 2 * k + 1), es.sum(axis=1), js[:, None]
    placeholder = ((j < slot) & (slot <= k)) | ((k + j <= slot) & (slot < 2 * k))
    for what, bad in {
        f"j outside 1..{k}": (js < 1) | (js > k),
        "a length below 1/2": (es < -1).any(axis=1),
        "a placeholder not at 1/2": (placeholder & (es != -1)).any(axis=1),
        f"a Moebius slot above the cutoff {cfg.mobius_cutoff}":
            (es[:, :k] > cfg.mobius_cutoff.bit_length() - 1).any(axis=1),
        "the log slot at 1/2": es[:, -1] < 0,
        f"a product outside [x/4^k, 3x] = [2^{lo}, 2^{hi}]": (sums < lo) | (sums > hi),
    }.items():
        if bad.any():
            raise ValueError(f"row {rows[int(bad.argmax())]} has {what}")


def _ceil_log2(n: int) -> int:
    return max(0, (n - 1).bit_length())


def window_coefficient_sum(cfg: IdentityConfig) -> np.ndarray:
    """sum over factorizations of weight * coefficients, indexed by n <= 3x.

    Only the window (x, 3x] is kept; the entries at n <= x are 0.
    """
    N = 3 * cfg.x
    total = np.zeros(N + 1)
    table = enumerate_factorizations(cfg)
    for j, exps in table.rows:
        ns, an = product_terms(table.supports(exps), N)
        total += table.weight(j) * np.bincount(ns, an, minlength=N + 1)
    total[: cfg.x + 1] = 0.0
    return total


def split_long(
    table: FactorizationRows, threshold: Fraction = Fraction(19, 20)
) -> tuple[list[Row], list[Row]]:
    """Partition the rows by whether some N_i exceeds x^threshold = x^(p/q).

    Exactly: N_i = 2^e is long when e >= 0 and 2^(e q) > x^p, that is when
    e q reaches the bit length of x^p, so from e = ceil(bitlen(x^p) / q) on.
    """
    if not (0 < threshold <= 1):
        raise ValueError("threshold exponent must be in (0, 1]")
    p, q = threshold.numerator, threshold.denominator
    first_long = -(-(table.cfg.x**p).bit_length() // q)
    long_rows: list[Row] = []
    short_rows: list[Row] = []
    for row in table.rows:
        (long_rows if max(row[1]) >= first_long else short_rows).append(row)
    return long_rows, short_rows
