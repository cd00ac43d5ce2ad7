"""Segmented prime generation and prime-gap statistics.

The central quantity is the gap d_n = p_{n+1} - p_n.  A gap is counted for a
limit x iff p_n <= x; the successor may exceed x.  Under this convention the
gaps with p_n <= x telescope to (first prime > x) - 2, which several tests
assert.

The sieve is a segmented Eratosthenes on the 6k +- 1 wheel, the integers
coprime to 6.  Entry 2k + c of a segment stands for 6k + 1 + 4c, so column
c = 0 holds 6k + 1 and c = 1 holds 6k + 5; 2 and 3 are yielded as a head and
1 is struck.  A segment holds SEGMENT_ODDS wheel entries, max(1,
SEGMENT_ODDS // 2) rows k.  Every sieving prime p >= 5 strikes each column by
one slice of stride 2p, from its first multiple p*q >= max(p^2, segment
start) in the column's class r = 1 + 4c: as p^-1 = p (mod 6), p*q = r (mod 6)
exactly when q = r*p (mod 6).

The strikes run one segment ahead on a single worker thread: while the caller
reads segment i, the worker strikes segment i + 1 into the other of two
reused bool buffers.  numpy releases the GIL in large fills, nonzero and the
ufuncs, so the two overlap.  The caller reads a struck segment READ_BLOCK
wheel entries at a time (a quarter of a segment): each read block's nonzero
entries become its primes in place, and the block's primes are yielded as one
fresh int64 array, never a view of a buffer.  The worker is joined when the
generator ends, is closed or raises.

SEGMENT_ODDS, READ_BLOCK and CEILING are module constants, read when a sieve
starts; they are not arguments.  The one height guard is in
iter_prime_segments: a sieve whose top exceeds CEILING is refused before
anything is struck.  Every gap reader inherits it, since each sieves through
iter_prime_segments.

Every gap consumer (iter_gaps, gap_sweep, dyadic_band_sum) reads one stream of
(p, gap) arrays, one pair per read block, the gap across the block's left
edge included.  The stream is one sieve pass over [start, limit + width],
with width = max(200, 4 floor(log limit)^2) to reach the successor of the
limit's last prime.  By the maximal-gap records, verified to 4e18 (Oliveira
e Silva, Herzog and Pardi, Math. Comp. 83, 2014), no gap below CEILING is
above 0.21 of that width, so the one pass always holds the successor.
The stream and gap_sweep let go of each block before the next is read, so
the working set is the two strike buffers (2 x SEGMENT_ODDS bytes) plus one
read block's p and gaps (16 bytes per prime in it): 3.04 MiB for gap_sweep to
10^8, where reading whole segments held 5.54 MiB.  All gap reductions are
over exact integers, so results are independent of segmentation and of the
read block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError

#: Wheel entries per strike segment (two per row of six integers).
SEGMENT_ODDS = 1 << 20
#: Wheel entries per read block: a struck segment is read, and its primes
#: yielded, this many entries at a time.
READ_BLOCK = 1 << 18
#: The largest integer any sieve may reach.
CEILING = 10**10


# ---------------------------------------------------------------------------
# Small sieves
# ---------------------------------------------------------------------------

def simple_sieve(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (plain in-memory sieve)."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


# ---------------------------------------------------------------------------
# Segmented sieve
# ---------------------------------------------------------------------------

def _int(name: str, value) -> int:
    """value as an int; anything but a Python or numpy integer (or a bool) is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _strike(flat: np.ndarray, k0: int, base: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """Sieve the segment whose first row is k0 in flat (its 2n wheel entries) and return flat.

    base holds the sieving primes 5, 7, 11, ... and squares their squares.
    """
    n = len(flat) // 2
    flat.fill(True)
    flat[0] = k0 > 0  # 1 is not prime
    ps = base[: int(np.searchsorted(squares, 6 * (k0 + n), side="right"))]
    q = np.maximum(ps, -(-(6 * k0 + 1) // ps))
    # first q = r*p (mod 6) in each column; past the segment it clears nothing
    starts = [2 * ((ps * (q + (r * ps - q) % 6) - r) // 6 - k0) + c
              for c, r in ((0, 1), (1, 5))]
    for step, i, j in zip((2 * ps).tolist(), starts[0].tolist(), starts[1].tolist()):
        flat[i::step] = False
        flat[j::step] = False
    return flat


def iter_prime_segments(lo: int, hi: int) -> Iterator[np.ndarray]:
    """Yield int64 arrays whose concatenation is exactly the primes in [lo, hi].

    hi > CEILING is refused with CapacityError before anything is struck; this
    is the one height guard of the module.  Segmentation (SEGMENT_ODDS) and
    the read block never affect the output.  Segment 0 is struck by the
    caller's thread and each later one by a worker thread while the one
    before it is read, READ_BLOCK entries per yielded array; a block without a
    prime yields nothing (see the module docstring).
    """
    lo, hi = _int("lo", lo), _int("hi", hi)
    if not (0 <= lo <= hi):
        raise ValueError(f"need 0 <= lo <= hi, got [{lo}, {hi}]")
    if hi > CEILING:
        raise CapacityError(f"sieve limit {hi} exceeds ceiling {CEILING}")
    if hi < 2:
        return
    base = simple_sieve(math.isqrt(hi))[2:]  # sieving primes 5, 7, 11, ...
    squares = base * base
    head = [p for p in (2, 3) if lo <= p <= hi]
    if head:
        yield np.array(head, dtype=np.int64)

    rows = max(1, SEGMENT_ODDS // 2)
    end = hi // 6 + 1  # row k holds 6k + 1 and 6k + 5; rows up to the one holding hi
    firsts = range(lo // 6, end, rows)  # the first row of each segment
    bufs = [np.empty(2 * min(rows, end - firsts[0]), dtype=bool) for _ in firsts[:2]]
    block = max(1, READ_BLOCK // 2)  # rows per read block

    def struck(i: int) -> np.ndarray:  # segment i, sieved in buffer i % 2
        return _strike(bufs[i % 2][: 2 * min(rows, end - firsts[i])], firsts[i], base, squares)

    # imported here: its 4 ms import is not paid by commands that never sieve
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = None
        for i, k0 in enumerate(firsts):
            flat = struck(i) if ahead is None else ahead.result()
            ahead = worker.submit(struck, i + 1) if i + 1 < len(firsts) else None
            for k in range(k0, k0 + len(flat) // 2, block):
                # entry 2j + c -> 6(k + j) + 1 + 4c = (3 (2j + c) + 6k + 1) | 1, in place
                vals = flat[2 * (k - k0) : 2 * (k - k0 + block)].nonzero()[0]
                vals *= 3
                vals += 6 * k + 1
                vals |= 1
                if 6 * k < lo:  # only the first row can hold integers below lo
                    vals = vals[np.searchsorted(vals, lo) :]
                if 6 * (k + block) > hi:  # the last block can run past hi
                    vals = vals[: np.searchsorted(vals, hi, side="right")]
                if len(vals):
                    yield vals


# ---------------------------------------------------------------------------
# Gap statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimeGap:
    """One consecutive-prime pair (p_n, p_{n+1}) with d_n = next - p."""

    p: int
    next: int
    gap: int


@dataclass(frozen=True)
class GapSummary:
    """Exact gap moments over {d_n : p_n <= x}."""

    x: int
    count: int
    max_gap: int
    sum_gap: int
    sum_gap_sq: int


@dataclass(frozen=True)
class BandSum:
    """Sum of d_n^2 over the dyadic band 4x/tau <= d_n <= 8x/tau, x <= p_n <= 2x."""

    x: int
    tau: Fraction
    lo: Fraction
    hi: Fraction
    sum_gap_sq: int
    contributing: int


def _gap_stream(limit: int, *, start: int = 2) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield int64 arrays (ps, gaps) per read block for start <= p <= limit.

    A block's pair opens with the gap across its left edge, from the last
    prime read before it; the stream's first prime opens its first gap.
    The last gap straddles the limit: its successor is the first prime beyond.
    One sieve pass over [start, limit + width], width = max(200, 4 log(limit)^2),
    finds it: no gap below CEILING is above 0.21 of the width (see the module
    docstring), and the sieve refuses a window past CEILING before it strikes.
    The CapacityError after the pass is a safety check that those records
    keep from firing.
    """
    limit, start = _int("limit", limit), _int("start", start)
    if limit < max(start, 2):
        return
    prev = None  # the last prime read; its gap closes at the next prime
    width = max(200, 4 * int(math.log(limit)) ** 2)
    for seg in iter_prime_segments(start, limit + width):
        gaps = np.empty_like(seg)
        np.subtract(seg[1:], seg[:-1], out=gaps[1:])
        last = seg[-1]
        if prev is None:  # the stream's first prime opens its first gap
            ps, gaps = seg[:-1], gaps[1:]
        else:  # the gap across the block's left edge comes first
            gaps[0] = seg[0] - prev
            seg[1:] = seg[:-1]  # in place: the block's p are prev, seg[0], ...
            seg[0] = prev
            ps = seg
        prev = last
        if prev > limit:
            n = int(np.searchsorted(ps, limit, side="right"))
            if n:
                yield ps[:n], gaps[:n]
            return
        if len(ps):
            yield ps, gaps
        del seg, ps, gaps  # free before the next block is read
    raise CapacityError(f"no prime found past {limit} up to {limit + width}")


def iter_gaps(limit: int, *, start: int = 2) -> Iterator[PrimeGap]:
    """Stream gaps (p, next, d) with start <= p <= limit, ascending p.

    The final gap straddles the limit: its p is the largest prime <= limit and
    its successor is the first prime beyond.
    """
    for ps, gaps in _gap_stream(limit, start=start):
        for p, d in zip(ps.tolist(), gaps.tolist()):
            yield PrimeGap(p, p + d, d)


def gap_sweep(limits: Sequence[int]) -> list[GapSummary]:
    """GapSummary for each limit in one streaming pass (limits ascending).

    A block that closes no limit costs one compare, its max and its dot; the
    gaps telescope, so sum_gap is read off the successor of a limit's last gap.
    """
    lims = [_int("limits", x) for x in limits]
    if lims != sorted(lims) or len(set(lims)) != len(lims):
        raise ValueError("limits must be strictly ascending")
    if not lims or lims[0] < 3:
        raise ValueError("limits must be >= 3")
    results: list[GapSummary] = []
    count = max_gap = sum_sq = 0
    top = 0  # the successor of the last gap read: the gaps telescope to top - 2
    for ps, gaps in _gap_stream(lims[-1]):
        # The top limit is never closed here: the stream stops at its straddling gap.
        while ps[-1] > lims[len(results)]:  # the block closes this limit
            x = lims[len(results)]
            b = int(np.searchsorted(ps, x, side="right"))
            if b:
                count += b
                max_gap = max(max_gap, int(gaps[:b].max()))
                sum_sq += int(np.dot(gaps[:b], gaps[:b]))
            results.append(GapSummary(x, count, max_gap, int(ps[b]) - 2, sum_sq))
            ps, gaps = ps[b:], gaps[b:]
        count += len(gaps)
        max_gap = max(max_gap, int(gaps.max()))
        sum_sq += int(np.dot(gaps, gaps))
        top = ps[-1] + gaps[-1]
        del ps, gaps  # free before the next block is read
    top = int(top)
    results.extend(GapSummary(x, count, max_gap, top - 2, sum_sq) for x in lims[len(results):])
    return results


def max_gap_row(s: GapSummary) -> tuple[int, int, float]:
    """(N, max gap over p_n <= N, round2(log d / log N)) from a summary at N."""
    ratio = Decimal(math.log(s.max_gap) / math.log(s.x)).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_UP
    )
    return (s.x, s.max_gap, float(ratio))


def max_gap_table(limits: Iterable[int]) -> list[tuple[int, int, float]]:
    """max_gap_row for each limit, from one gap_sweep."""
    lims = sorted(set(_int("limits", x) for x in limits))
    return [max_gap_row(s) for s in gap_sweep(lims)]


def dyadic_band_sum(x: int, tau: Fraction | int) -> BandSum:
    """Sum d_n^2 over gaps with 4x/tau <= d_n <= 8x/tau and x <= p_n <= 2x."""
    x, tau = _int("x", x), Fraction(tau)
    if not (0 < tau <= x):
        raise ValueError("need 0 < tau <= x")
    lo = Fraction(4 * x) / tau
    hi = Fraction(8 * x) / tau
    # d is an integer, so the rational band collapses to integer endpoints.
    lo_int = -((-4 * x * tau.denominator) // tau.numerator)
    hi_int = (8 * x * tau.denominator) // tau.numerator
    total = 0
    n_contrib = 0
    for _, gaps in _gap_stream(2 * x, start=max(2, x)):
        band = gaps[(gaps >= lo_int) & (gaps <= hi_int)]
        total += int(np.dot(band, band))
        n_contrib += len(band)
    return BandSum(x, tau, lo, hi, total, n_contrib)


# ---------------------------------------------------------------------------
# von Mangoldt
# ---------------------------------------------------------------------------

def von_mangoldt(n: int) -> float:
    """log p if n = p^k, else 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 0.0
    p = _smallest_prime_factor(n)
    m = n
    while m % p == 0:
        m //= p
    return math.log(p) if m == 1 else 0.0


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    if n % 3 == 0:
        return 3
    f = 5
    while f * f <= n:
        if n % f == 0:
            return f
        if n % (f + 2) == 0:
            return f + 2
        f += 6
    return n


def proper_prime_powers(lo: int, hi: int) -> Iterator[tuple[int, float]]:
    """(p^k, math.log(p)) for each proper prime power p^k (k >= 2) in [lo, hi]."""
    for p in simple_sieve(math.isqrt(hi)).tolist():
        pk = p * p
        while pk <= hi:
            if pk >= lo:
                yield pk, math.log(p)
            pk *= p
