"""Reference values and independent oracles for the benchmark's output checks.

Nothing here imports gapscope: each check compares the program's output with
a published constant or with a computation written separately from the code
under test.
"""

from __future__ import annotations

import math

import numpy as np

#: pi(10^k), the prime-counting function (OEIS A006880).
PRIME_COUNT = {
    10: 4, 10**2: 25, 10**3: 168, 10**4: 1229, 10**5: 9592,
    10**6: 78498, 10**7: 664579, 10**8: 5761455, 10**9: 50847534,
}

#: Largest gap p_{n+1} - p_n with p_n <= N, the paper's table.
MAX_GAP = {
    10: 4, 10**2: 8, 10**3: 20, 10**4: 36, 10**5: 72,
    10**6: 114, 10**7: 154, 10**8: 220, 10**9: 282,
}

#: Sum of squared gaps with p_n <= N.  The values at 10^5..10^8 are the
#: acceptance criterion-9 values; all rows are reproduced by `gap_moments`
#: (run this file to print them).
SUM_GAP_SQ = {
    10: 25, 10**2: 477, 10**3: 8173, 10**4: 124313, 10**5: 1660017,
    10**6: 21038561, 10**7: 255473457, 10**8: 2998155289, 10**9: 34476953521,
}


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small[:-1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime > n."""
    k = n + 1
    while not is_prime(k):
        k += 1
    return k


def window_unit_count(y: float, tau: float, N: int) -> int:
    """Direct sum of one unit factor's coefficients over the window (y, y + y/tau].

    The factor has coefficient 1 on (N, 2N], so the sum counts the integers
    in both intervals.
    """
    top = y + y / tau
    return sum(1 for n in range(N + 1, 2 * N + 1) if y < n <= top)


def additive_energy(members) -> int:
    """#{(a, b, c, d) in A^4 : a + b = c + d}, as sum over s of r(s)^2.

    r = 1_A * 1_A is an exact integer autocorrelation of A's indicator.
    """
    a = np.asarray(sorted(members), dtype=np.int64)
    if len(a) == 0:
        return 0
    ind = np.zeros(int(a[-1] - a[0]) + 1, dtype=np.int64)
    ind[a - a[0]] = 1
    r = np.convolve(ind, ind)
    return int(np.dot(r, r))


def factorization_count(x: int, k: int) -> int:
    """Number of block tuples the Lambda identity enumerates at (x, k).

    For j = 1..k a tuple has j Moebius slots at 2^e with -1 <= e < c, where
    2^c is the least power of two >= floor((3x)^(1/k)); j - 1 unit slots at
    2^e with e >= -1; and one log slot at 2^e with e >= 0.  The 2(k - j)
    placeholder slots give 1/2 each.  A tuple counts when its product P has
    x / 4^k <= P <= 3x.  Counted by convolving the slots' exponent ranges.
    """
    cut = round((3 * x) ** (1.0 / k))
    while cut**k > 3 * x:
        cut -= 1
    while (cut + 1) ** k <= 3 * x:
        cut += 1
    c = (cut - 1).bit_length()
    s_lo = (x - 1).bit_length() - 2 * k  # least S with 2^S >= x / 4^k
    s_hi = (3 * x).bit_length() - 1  # greatest S with 2^S <= 3x
    total = 0
    for j in range(1, k + 1):
        shift = -2 * (k - j)
        top = s_hi - shift + 2 * j  # no single exponent can exceed this
        slots = [(-1, c - 1)] * j + [(-1, top)] * (j - 1) + [(0, top)]
        dist = {0: 1}
        for lo, hi in slots:
            nxt: dict[int, int] = {}
            for s, n in dist.items():
                for e in range(lo, hi + 1):
                    nxt[s + e] = nxt.get(s + e, 0) + n
            dist = nxt
        total += sum(n for s, n in dist.items() if s_lo <= s + shift <= s_hi)
    return total


def _primes_between(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """Primes in [lo, hi) by crossing off multiples of the base primes."""
    flags = np.ones(hi - lo, dtype=bool)
    for p in base.tolist():
        if p * p >= hi:
            break
        first = max(p * p, -(-lo // p) * p)
        flags[first - lo :: p] = False
    if lo < 2:
        flags[: 2 - lo] = False
    return lo + np.flatnonzero(flags).astype(np.int64)


def gap_moments(limits, segment: int = 1 << 22) -> dict[int, dict[str, int]]:
    """count, max_gap, sum_gap and sum_gap_sq over gaps with p_n <= x.

    A plain segmented Eratosthenes over all integers, sharing no code with
    gapscope.primes.
    """
    lims = sorted(int(x) for x in limits)
    top = next_prime(lims[-1])
    root = math.isqrt(top) + 1
    base = np.flatnonzero(_sieve_flags(root)).astype(np.int64)
    stats = {x: {"count": 0, "max_gap": 0, "sum_gap": 0, "sum_gap_sq": 0} for x in lims}
    prev = None
    for lo in range(0, top + 1, segment):
        ps = _primes_between(lo, min(lo + segment, top + 1), base)
        for x in lims:
            stats[x]["count"] += int(np.searchsorted(ps, x, side="right"))
        vals = ps if prev is None else np.concatenate(([prev], ps))
        if len(vals) >= 2:
            gaps = np.diff(vals)
            starts = vals[:-1]
            for x in lims:
                k = int(np.searchsorted(starts, x, side="right"))
                if k:
                    g = gaps[:k]
                    s = stats[x]
                    s["max_gap"] = max(s["max_gap"], int(g.max()))
                    s["sum_gap"] += int(g.sum())
                    s["sum_gap_sq"] += int((g * g).sum())
        if len(vals):
            prev = int(vals[-1])
    return stats


def _sieve_flags(n: int) -> np.ndarray:
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


if __name__ == "__main__":
    for x, s in gap_moments(sorted(MAX_GAP)).items():
        print(x, s)
