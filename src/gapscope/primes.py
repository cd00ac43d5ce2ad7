"""Segmented prime generation and prime-gap statistics.

The central quantity is the gap d_n = p_{n+1} - p_n.  A gap is counted for a
limit x iff p_n <= x; the successor may exceed x.  Under this convention the
gaps with p_n <= x telescope to (first prime > x) - 2, which several tests
assert.

The sieve is a segmented Eratosthenes on the 6k +- 1 wheel, the integers
coprime to 6.  Entry 2k + c of a segment stands for 6k + 1 + 4c, so column
c = 0 holds 6k + 1 and c = 1 holds 6k + 5; 2 and 3 are yielded as a head and
1 is struck.  segment_odds counts wheel entries per segment, which holds
max(1, segment_odds // 2) rows k.  Every sieving prime p >= 5 strikes each
column by one slice of stride 2p, from its first multiple p*q >= max(p^2,
segment start) in the column's class r = 1 + 4c: as p^-1 = p (mod 6), p*q = r
(mod 6) exactly when q = r*p (mod 6).

The strikes run one segment ahead on a single worker thread: while the caller
reads segment i (flatnonzero, the value map and the gap reductions), the
worker strikes segment i + 1 into the other of two reused bool buffers.  numpy
releases the GIL in large fills, nonzero and the ufuncs, so the two overlap.
Yielded arrays are fresh int64 arrays, never views of a buffer, and the worker
is joined when the generator ends, is closed or raises.

Every gap consumer (iter_gaps, gap_sweep, dyadic_band_sum) reads one stream of
per-segment (p, gap) arrays; the stream and gap_sweep let go of each segment
before the next is read.  All gap reductions are over exact integers, so
results are independent of segmentation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError

DEFAULT_SEGMENT_ODDS = 1 << 20
DEFAULT_CEILING = 10**10


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


def iter_prime_segments(
    lo: int,
    hi: int,
    *,
    segment_odds: int = DEFAULT_SEGMENT_ODDS,
    ceiling: int = DEFAULT_CEILING,
) -> Iterator[np.ndarray]:
    """Yield int64 arrays whose concatenation is exactly the primes in [lo, hi].

    segment_odds counts wheel entries per segment (two per row of six integers).
    Deterministic for fixed arguments; segmentation never affects the output.
    Segment 0 is struck by the caller's thread and each later one by a worker
    thread while the one before it is read (see the module docstring).
    """
    lo, hi = _int("lo", lo), _int("hi", hi)
    segment_odds, ceiling = _int("segment_odds", segment_odds), _int("ceiling", ceiling)
    if not (0 <= lo <= hi):
        raise ValueError(f"need 0 <= lo <= hi, got [{lo}, {hi}]")
    if segment_odds < 1:
        raise ValueError(f"segment_odds must be >= 1, got {segment_odds}")
    if hi > ceiling:
        raise CapacityError(
            f"sieve limit {hi} exceeds configured ceiling {ceiling}"
        )
    if hi < 2:
        return
    base = simple_sieve(math.isqrt(hi))[2:]  # sieving primes 5, 7, 11, ...
    squares = base * base
    head = [p for p in (2, 3) if lo <= p <= hi]
    if head:
        yield np.array(head, dtype=np.int64)

    rows = max(1, segment_odds // 2)
    end = hi // 6 + 1  # row k holds 6k + 1 and 6k + 5; rows up to the one holding hi
    firsts = range(lo // 6, end, rows)  # the first row of each segment
    bufs = [np.empty(2 * min(rows, end - firsts[0]), dtype=bool) for _ in firsts[:2]]

    def struck(i: int) -> np.ndarray:  # segment i, sieved in buffer i % 2
        return _strike(bufs[i % 2][: 2 * min(rows, end - firsts[i])], firsts[i], base, squares)

    # imported here: its 4 ms import is not paid by commands that never sieve
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = None
        for i, k0 in enumerate(firsts):
            flat = struck(i) if ahead is None else ahead.result()
            ahead = worker.submit(struck, i + 1) if i + 1 < len(firsts) else None
            vals = np.flatnonzero(flat)  # entry 2k + c -> 6(k0 + k) + 1 + 4c, in place
            vals *= 3  # 6k + 3c
            vals += 1
            vals &= -2  # 6k + 4c
            vals += 6 * k0 + 1
            vals = vals[np.searchsorted(vals, lo) : np.searchsorted(vals, hi, side="right")]
            if len(vals):
                yield vals


def sieve_primes(
    lo: int,
    hi: int,
    *,
    segment_odds: int = DEFAULT_SEGMENT_ODDS,
    ceiling: int = DEFAULT_CEILING,
) -> np.ndarray:
    """The primes in [lo, hi], ascending."""
    chunks = list(iter_prime_segments(lo, hi, segment_odds=segment_odds, ceiling=ceiling))
    if not chunks:
        return np.array([], dtype=np.int64)
    return np.concatenate(chunks)


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


def _gap_stream(
    limit: int,
    *,
    start: int = 2,
    segment_odds: int = DEFAULT_SEGMENT_ODDS,
    ceiling: int = DEFAULT_CEILING,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield int64 arrays (ps, gaps) per sieve segment for start <= p <= limit.

    The last gap straddles the limit: its successor is the first prime beyond.
    The sieve runs past the limit by 4 log(limit)^2 (at least 200, at most one
    segment) and, if no prime turns up there, continues in doubling windows
    from where it stopped until the successor appears or the ceiling is reached.
    """
    limit, start = _int("limit", limit), _int("start", start)
    segment_odds, ceiling = _int("segment_odds", segment_odds), _int("ceiling", ceiling)
    if limit > ceiling:
        raise CapacityError(f"limit {limit} exceeds ceiling {ceiling}")
    if limit < max(start, 2):
        return
    prev = np.empty(0, dtype=np.int64)
    width = min(max(200, 4 * int(math.log(limit)) ** 2), 2 * segment_odds)
    lo, hi = start, min(limit + width, ceiling)
    while True:
        for seg in iter_prime_segments(lo, hi, segment_odds=segment_odds, ceiling=ceiling):
            if len(prev):  # the gap across the segment edge
                yield prev, seg[:1] - prev
            ps, gaps = seg[:-1], np.diff(seg)
            if seg[-1] > limit:
                n = int(np.searchsorted(ps, limit, side="right"))
                if n:
                    yield ps[:n], gaps[:n]
                return
            if len(ps):
                yield ps, gaps
            prev = seg[-1:].copy()  # a view would pin the whole segment
            del seg, ps, gaps  # free before the next segment is read
        if hi >= ceiling:
            raise CapacityError(f"no prime found past {limit} within ceiling {ceiling}")
        width *= 2
        lo, hi = hi + 1, min(hi + width, ceiling)


def iter_gaps(limit: int, *, start: int = 2, **kw) -> Iterator[PrimeGap]:
    """Stream gaps (p, next, d) with start <= p <= limit, ascending p.

    The final gap straddles the limit: its p is the largest prime <= limit and
    its successor is the first prime beyond.
    """
    for ps, gaps in _gap_stream(limit, start=start, **kw):
        for p, d in zip(ps.tolist(), gaps.tolist()):
            yield PrimeGap(p, p + d, d)


def gap_sweep(
    limits: Sequence[int],
    *,
    segment_odds: int = DEFAULT_SEGMENT_ODDS,
    ceiling: int = DEFAULT_CEILING,
) -> list[GapSummary]:
    """GapSummary for each limit in one streaming pass (limits ascending)."""
    lims = [_int("limits", x) for x in limits]
    if lims != sorted(lims) or len(set(lims)) != len(lims):
        raise ValueError("limits must be strictly ascending")
    if not lims or lims[0] < 3:
        raise ValueError("limits must be >= 3")
    results: list[GapSummary] = []
    count = max_gap = sum_gap = sum_sq = 0
    for ps, gaps in _gap_stream(lims[-1], segment_odds=segment_odds, ceiling=ceiling):
        # Split the segment at each limit it closes (a p beyond the limit).
        n = len(ps)
        cuts = np.searchsorted(ps, lims[len(results):], side="right").tolist()
        a = 0
        for b in [c for c in cuts if c < n] + [n]:
            if a < b:
                count += b - a
                max_gap = max(max_gap, int(gaps[a:b].max()))
                sum_gap += int(ps[b - 1] + gaps[b - 1] - ps[a])  # the gaps telescope
                sum_sq += int(np.dot(gaps[a:b], gaps[a:b]))
            if b < n:
                results.append(GapSummary(lims[len(results)], count, max_gap, sum_gap, sum_sq))
            a = b
        del ps, gaps  # free before the next segment is read
    # The stream ended at the top limit's straddling gap: the rest are complete.
    results.extend(GapSummary(x, count, max_gap, sum_gap, sum_sq) for x in lims[len(results):])
    return results


def max_gap_row(s: GapSummary) -> tuple[int, int, float]:
    """(N, max gap over p_n <= N, round2(log d / log N)) from a summary at N."""
    ratio = Decimal(math.log(s.max_gap) / math.log(s.x)).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_UP
    )
    return (s.x, s.max_gap, float(ratio))


def max_gap_table(limits: Iterable[int], **kw) -> list[tuple[int, int, float]]:
    """max_gap_row for each limit, from one gap_sweep."""
    lims = sorted(set(_int("limits", x) for x in limits))
    return [max_gap_row(s) for s in gap_sweep(lims, **kw)]


def dyadic_band_sum(x: int, tau: Fraction | int, **kw) -> BandSum:
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
    for _, gaps in _gap_stream(2 * x, start=max(2, x), **kw):
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
