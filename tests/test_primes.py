"""Prime engine: sieve against trial division, exact gap statistics, psi."""

import math
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapscope import primes as P
from gapscope.errors import CapacityError
from gapscope.primes import DEFAULT_CEILING, iter_prime_segments, proper_prime_powers


def trial_primes(lo, hi):
    return [
        n for n in range(max(2, lo), hi + 1)
        if all(n % d for d in range(2, math.isqrt(n) + 1))
    ]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the base set is proven for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime_above(n: int, *, ceiling: int = DEFAULT_CEILING) -> int:
    """Smallest prime > n."""
    k = n + 1
    if k <= 2:
        return 2
    if k % 2 == 0:
        k += 1
    while True:
        if k > ceiling:
            raise CapacityError(f"next_prime_above({n}) passed ceiling {ceiling}")
        if is_prime(k):
            return k
        k += 2


def _odds_only_segments(lo, hi, segment_odds=P.DEFAULT_SEGMENT_ODDS):
    """The segmented odds-only sieve the 6k +- 1 wheel replaced, kept as an oracle.

    Each segment holds segment_odds odd integers, and every odd sieving prime,
    3 and 5 included, strikes its odd multiples from max(p^2, segment start).
    """
    if hi < 2:
        return
    base = P.simple_sieve(math.isqrt(hi))[1:]  # odd sieving primes 3, 5, 7, ...
    squares = base * base
    head = [p for p in (2, 3, 5) if lo <= p <= hi]
    if head:
        yield np.array(head, dtype=np.int64)
    low = max(lo, 7)
    if low % 2 == 0:
        low += 1
    span = 2 * segment_odds
    while low <= hi:
        high = min(low + span - 2, hi if hi % 2 == 1 else hi - 1)  # odd, inclusive
        mask = np.ones((high - low) // 2 + 1, dtype=bool)
        k = int(np.searchsorted(squares, high, side="right"))
        ps = base[:k]
        # first odd multiple of p at or above max(p^2, low); past high it clears nothing
        starts = np.maximum(squares[:k], (low + ps - 1) // ps * ps)
        starts += (starts % 2 == 0) * ps
        for p, i in zip(ps.tolist(), ((starts - low) // 2).tolist()):
            mask[i::p] = False
        vals = low + 2 * np.flatnonzero(mask).astype(np.int64)
        if len(vals):
            yield vals
        low = high + 2


def _oracle_primes(lo, hi):
    chunks = list(_odds_only_segments(lo, hi))
    return np.concatenate(chunks) if chunks else np.array([], dtype=np.int64)


def _wheel_primes(lo, hi, segment_odds):
    """Concatenated wheel segments, each checked to be int64, ascending and in [lo, hi]."""
    segs = list(iter_prime_segments(lo, hi, segment_odds=segment_odds))
    for seg in segs:
        assert seg.dtype == np.int64 and len(seg) > 0
        assert lo <= seg[0] and seg[-1] <= hi and np.all(np.diff(seg) > 0)
    out = np.concatenate(segs) if segs else np.array([], dtype=np.int64)
    assert np.all(np.diff(out) > 0)
    return out


# ---------------------------------------------------------------------------
# sieve_primes
# ---------------------------------------------------------------------------

def test_sieve_small_windows():
    assert P.sieve_primes(1, 10).tolist() == [2, 3, 5, 7]
    assert P.sieve_primes(90, 100).tolist() == [97]
    assert P.sieve_primes(0, 1).tolist() == []
    assert P.sieve_primes(2, 2).tolist() == [2]


def test_sieve_against_trial_division():
    for lo, hi in [(0, 600), (997, 1300), (9950, 10103)]:
        assert P.sieve_primes(lo, hi).tolist() == trial_primes(lo, hi)


def test_sieve_count_to_1e6():
    # pi(10^6) = 78498, checked against the trial-division oracle offline
    assert len(P.sieve_primes(1, 10**6)) == 78498


@settings(max_examples=25, deadline=None)
@given(
    lo=st.integers(min_value=0, max_value=5000),
    span=st.integers(min_value=0, max_value=3000),
    seg=st.sampled_from([16, 64, 1 << 12]),
)
def test_sieve_segmentation_invariance(lo, span, seg):
    hi = lo + span
    assert (
        P.sieve_primes(lo, hi, segment_odds=seg).tolist()
        == P.sieve_primes(lo, hi).tolist()
    )


@settings(max_examples=40, deadline=None)
@given(
    lo=st.integers(min_value=0, max_value=10**4),
    span=st.integers(min_value=0, max_value=3000),
    seg=st.sampled_from([1, 2, 3, 16, 4096]),
)
def test_wheel_segments_equal_the_odds_only_oracle(lo, span, seg):
    assert np.array_equal(_wheel_primes(lo, lo + span, seg), _oracle_primes(lo, lo + span))


def test_wheel_equals_the_oracle_on_every_small_window():
    # every window inside [0, 260]: 1, 5, 25, 35, 49 and each row edge as an end
    want = _oracle_primes(0, 260).tolist()
    for lo in range(201):
        for hi in range(lo, lo + 61):
            got = P.sieve_primes(lo, hi).tolist()
            assert got == [p for p in want if lo <= p <= hi], (lo, hi)


@pytest.mark.parametrize("lo, hi", [(10**10 - 2 * 10**5, 10**10), (10**9, 10**9 + 10**6)])
def test_wheel_equals_the_oracle_on_large_windows(lo, hi):
    got = _wheel_primes(lo, hi, P.DEFAULT_SEGMENT_ODDS)
    assert len(got) > 1000 and np.array_equal(got, _oracle_primes(lo, hi))


@pytest.mark.parametrize("seg", [1, 2, 3])
def test_many_segments_equal_the_oracle_and_join_the_worker(seg):
    baseline, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the worker and the reader finely
    try:
        segs = list(iter_prime_segments(0, 3000, segment_odds=seg))
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == baseline
    assert len(segs) > 300  # 501 one-row segments; a row without a prime yields nothing
    assert np.array_equal(np.concatenate(segs), _oracle_primes(0, 3000))
    # segments struck in the same buffer (i and i + 2) or in turn share no memory
    pairs = chain(zip(segs, segs[1:]), zip(segs, segs[2:]))
    assert not any(np.shares_memory(a, b) for a, b in pairs)


def test_breaking_out_of_iter_gaps_joins_the_worker():
    baseline = threading.active_count()
    gaps = []
    for g in P.iter_gaps(10**5, segment_odds=64):
        gaps.append((g.p, g.next))
        if len(gaps) == 50:
            assert threading.active_count() == baseline + 1  # the strike worker
            break
    assert threading.active_count() == baseline
    assert gaps == _brute_pairs(2, 229)


def test_gap_stream_return_past_the_limit_joins_the_worker():
    baseline = threading.active_count()
    # 1100's successor 1103 lies in the segment [960, 1151] of 32 rows, while the
    # window to 1100 + 128 plans one more, still being struck when the stream returns
    [s] = P.gap_sweep([1100], segment_odds=64)
    assert threading.active_count() == baseline
    ds = [q - p for p, q in _brute_pairs(2, 1100)]
    assert s == P.GapSummary(1100, len(ds), max(ds), sum(ds), sum(d * d for d in ds))


def test_a_failing_strike_reaches_the_caller_and_joins_the_worker(monkeypatch):
    baseline = threading.active_count()
    strike, threads = P._strike, []

    def failing(flat, k0, base, squares):
        threads.append(threading.current_thread())
        if len(threads) == 3:
            raise RuntimeError("strike failed")
        return strike(flat, k0, base, squares)

    monkeypatch.setattr(P, "_strike", failing)
    with pytest.raises(RuntimeError, match="strike failed"):
        P.sieve_primes(0, 10**4, segment_odds=64)
    assert threading.active_count() == baseline
    main = threading.main_thread()
    assert threads[0] is main and threads[2] is not main


def test_gap_sweep_frees_each_segment_before_the_next():
    tracemalloc.start()
    try:
        P.gap_sweep([10**j for j in range(1, 9)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two 1 MiB strike buffers and one segment's primes and gaps; 7.62 MiB when
    # the stream held the previous segment during the next
    assert peak <= 6.5 * 2**20


@pytest.mark.parametrize("seg", [0, -1])
def test_sieve_rejects_empty_segments(seg):
    with pytest.raises(ValueError, match="segment_odds"):
        list(P.iter_prime_segments(0, 100, segment_odds=seg))


def test_sieve_ceiling_capacity():
    with pytest.raises(CapacityError):
        P.sieve_primes(0, 10**11)


# ---------------------------------------------------------------------------
# gap statistics
# ---------------------------------------------------------------------------

def test_gap_stream_convention():
    gaps = list(P.iter_gaps(10))
    assert [(g.p, g.next, g.gap) for g in gaps] == [
        (2, 3, 1), (3, 5, 2), (5, 7, 2), (7, 11, 4),
    ]
    for g in gaps:
        assert g.gap == g.next - g.p
        assert g.gap <= g.p  # Bertrand
        assert g.p == 2 or g.gap % 2 == 0


def test_gap_moment_trivial_and_derived():
    s10 = P.gap_sweep([10])[0]
    assert s10.sum_gap_sq == 25  # gaps 1,2,2,4
    assert s10.sum_gap == 9  # telescoping to 11 - 2
    assert P.gap_sweep([100])[0].sum_gap_sq == 477  # brute-force derived
    assert P.gap_sweep([1000])[0].sum_gap_sq == 8173


def test_gap_summary_invariants():
    for x in (10, 97, 1000, 12345):
        s = P.gap_sweep([x])[0]
        assert s.sum_gap == next_prime_above(x) - 2
        assert s.sum_gap_sq >= s.sum_gap
        assert s.max_gap**2 <= s.sum_gap_sq
        assert s.count == len(P.sieve_primes(2, x))


def test_gap_multiset_prefix_property():
    small = [g.gap for g in P.iter_gaps(500)]
    big = [g.gap for g in P.iter_gaps(2000)]
    assert big[: len(small)] == small


def test_gap_sweep_matches_single_calls():
    limits = [10, 100, 1000, 4999]
    multi = P.gap_sweep(limits)
    for s in multi:
        single = P.gap_sweep([s.x])[0]
        assert s == single


def test_max_gap_table_paper_rows_to_1e6():
    rows = P.max_gap_table([10**j for j in range(1, 7)])
    assert rows == [
        (10, 4, 0.60),
        (100, 8, 0.45),
        (1000, 20, 0.43),
        (10000, 36, 0.39),
        (100000, 72, 0.37),
        (1000000, 114, 0.34),
    ]


def test_gap_stream_refuses_limit_over_ceiling():
    for consume in (
        lambda: list(P.iter_gaps(2000, ceiling=1000)),
        lambda: P.gap_sweep([10, 2000], ceiling=1000),
        lambda: P.max_gap_table([2 * 10**10]),
    ):
        with pytest.raises(CapacityError, match="exceeds ceiling"):
            consume()
    # the limit fits, but its successor lies past the ceiling
    with pytest.raises(CapacityError, match="no prime found past 100"):
        P.gap_sweep([100], ceiling=100)


def test_gap_stream_extends_past_the_limit_without_restarting(monkeypatch):
    windows = []
    sieve = P.iter_prime_segments

    def recording(lo, hi, **kw):
        windows.append((lo, hi))
        return sieve(lo, hi, **kw)

    monkeypatch.setattr(P, "iter_prime_segments", recording)
    # 1327 -> 1361 is a gap of 34; one-odd segments extend 2, 4, 8, 16, 32 past 1330
    gaps = list(P.iter_gaps(1330, start=1300, segment_odds=1))
    assert [(g.p, g.next) for g in gaps] == [(1301, 1303), (1303, 1307), (1307, 1319),
                                             (1319, 1321), (1321, 1327), (1327, 1361)]
    assert windows[0] == (1300, 1332)
    assert all(b[0] == a[1] + 1 for a, b in zip(windows, windows[1:]))
    assert len(windows) == 5 and windows[-1][1] >= 1361


@pytest.mark.parametrize("seg", [1, 2, 3])
def test_gap_sweep_limits_on_segment_edges(seg):
    # limits on the last prime of one segment and on the first prime of the next
    segs = list(iter_prime_segments(0, 400, segment_odds=seg))
    edges = sorted({int(p) for a, b in zip(segs, segs[1:]) for p in (a[-1], b[0])} - {2})
    ps = _oracle_primes(0, 500).tolist()
    want = []
    for x in edges:
        ds = [q - p for p, q in zip(ps, ps[1:]) if p <= x]
        want.append(P.GapSummary(x, len(ds), max(ds), sum(ds), sum(d * d for d in ds)))
    assert len(edges) > 50 and P.gap_sweep(edges, segment_odds=seg) == want


@pytest.mark.parametrize("call, name", [
    (lambda: P.gap_sweep([10.5]), "limits"),
    (lambda: P.gap_sweep(["10"]), "limits"),
    (lambda: P.gap_sweep([math.inf]), "limits"),
    (lambda: P.gap_sweep([10, 10.7]), "limits"),
    (lambda: P.max_gap_table([10.9, 100]), "limits"),
    (lambda: P.sieve_primes(0.5, 100), "lo"),
    (lambda: P.sieve_primes(True, 10), "lo"),
    (lambda: P.sieve_primes(0, 100.0), "hi"),
    (lambda: P.sieve_primes(0, 100, segment_odds=2.5), "segment_odds"),
    (lambda: P.sieve_primes(0, 100, ceiling=1e10), "ceiling"),
    (lambda: list(P.iter_gaps(10.5)), "limit"),
    (lambda: list(P.iter_gaps(100, start=2.0)), "start"),
    (lambda: P.gap_sweep([10], segment_odds=np.float64(4)), "segment_odds"),
    (lambda: P.dyadic_band_sum(100.5, 10), "x"),
    (lambda: P.dyadic_band_sum(100, 10, ceiling=False), "ceiling"),
], ids=["sweep-float", "sweep-str", "sweep-inf", "sweep-second-float", "table-float", "sieve-lo-float",
        "sieve-lo-bool", "sieve-hi-float", "sieve-seg-float", "sieve-ceiling-float",
        "gaps-float", "gaps-start-float", "sweep-seg-numpy-float", "band-float",
        "band-ceiling-bool"])
def test_integer_arguments_refuse_non_integers(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()


def test_integer_arguments_accept_numpy_integers():
    assert P.sieve_primes(np.int64(0), np.int32(10)).tolist() == [2, 3, 5, 7]
    assert P.gap_sweep([np.int64(10)], segment_odds=np.uint16(4)) == P.gap_sweep([10])
    assert P.max_gap_table([np.int64(10)]) == [(10, 4, 0.60)]


def _brute_pairs(start, limit):
    """Consecutive prime pairs (p, q) with start <= p <= limit, from sieve_primes."""
    ps = P.sieve_primes(0, next_prime_above(limit)).tolist()
    return [(p, q) for p, q in zip(ps, ps[1:]) if start <= p <= limit]


@settings(max_examples=30, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=1500),
    span=st.integers(min_value=0, max_value=1500),
    seg=st.sampled_from([1, 16, 64, 4096]),
    data=st.data(),
)
def test_gap_stream_consumers_match_brute_force(start, span, seg, data):
    limit = start + span
    got = [(g.p, g.next) for g in P.iter_gaps(limit, start=start, segment_odds=seg)]
    assert got == _brute_pairs(start, limit)

    top = max(limit, 3)
    lims = sorted(data.draw(st.sets(st.integers(min_value=3, max_value=top),
                                    min_size=1, max_size=4)))
    pairs = _brute_pairs(2, top)
    want = []
    for x in lims:
        ds = [q - p for p, q in pairs if p <= x]
        want.append(P.GapSummary(x, len(ds), max(ds), sum(ds), sum(d * d for d in ds)))
    assert P.gap_sweep(lims, segment_odds=seg) == want

    x = max(start, 1)
    den = data.draw(st.integers(min_value=1, max_value=8))
    tau = Fraction(data.draw(st.integers(min_value=1, max_value=x * den)), den)
    band = [q - p for p, q in _brute_pairs(x, 2 * x)
            if 4 * x / tau <= q - p <= 8 * x / tau]
    bs = P.dyadic_band_sum(x, tau, segment_odds=seg)
    assert (bs.sum_gap_sq, bs.contributing) == (sum(d * d for d in band), len(band))


# ---------------------------------------------------------------------------
# band sums
# ---------------------------------------------------------------------------

def test_band_sum_enumeration_oracle():
    bs = P.dyadic_band_sum(100, 100)
    ps = trial_primes(100, 250)
    manual = sum(
        (q - p) ** 2
        for p, q in zip(ps, ps[1:])
        if 100 <= p <= 200 and 4 <= q - p <= 8
    )
    assert bs.sum_gap_sq == manual == 260
    assert bs.contributing == 10
    assert (bs.lo, bs.hi) == (Fraction(4), Fraction(8))


def test_band_sum_empty_band():
    assert P.dyadic_band_sum(100, 1).sum_gap_sq == 0  # band [400, 800]


def test_band_sum_rational_tau():
    bs = P.dyadic_band_sum(100, Fraction(100, 3))
    assert bs.lo == 12 and bs.hi == 24
    total = 0
    for g in P.iter_gaps(200, start=100):
        if g.p >= 100 and 12 <= g.gap <= 24:
            total += g.gap**2
    assert bs.sum_gap_sq == total


def test_band_sum_1e6_nonzero():
    bs = P.dyadic_band_sum(10**6, 31623)  # tau ~ x^(3/4)
    assert bs.sum_gap_sq == 34848 and bs.contributing == 2


def test_band_decomposition_covers_each_gap_once_or_twice():
    x = 3000
    gaps = [g for g in P.iter_gaps(2 * x, start=x) if g.p >= x]
    hits = {id(g): 0 for g in gaps}
    tau = Fraction(x)
    while Fraction(4 * x) / tau <= max(g.gap for g in gaps):
        lo = Fraction(4 * x) / tau
        hi = Fraction(8 * x) / tau
        for g in gaps:
            if lo <= g.gap <= hi:
                hits[id(g)] += 1
        tau /= 2
    for g in gaps:
        if g.gap >= 4:  # bands with tau <= x cannot reach below 4
            assert 1 <= hits[id(g)] <= 2, g
    # and the dyadic band sums are dominated by the full moment sum
    band_total = 0
    tau = Fraction(x)
    while Fraction(4 * x) / tau <= max(g.gap for g in gaps):
        band_total += P.dyadic_band_sum(x, tau).sum_gap_sq
        tau /= 2
    full = sum(g.gap**2 for g in gaps)
    assert full - sum(g.gap**2 for g in gaps if g.gap < 4) <= band_total <= 2 * full


# ---------------------------------------------------------------------------
# von Mangoldt / psi
# ---------------------------------------------------------------------------

def test_von_mangoldt_values():
    assert P.von_mangoldt(8) == pytest.approx(math.log(2))
    assert P.von_mangoldt(6) == 0.0
    assert P.von_mangoldt(9) == pytest.approx(math.log(3))
    assert P.von_mangoldt(1) == 0.0
    assert P.von_mangoldt(97) == pytest.approx(math.log(97))


def chebyshev_psi(y: float, **kw) -> float:
    """psi(y) = sum of Lambda(n) for n <= y.

    Prime parts are summed segmentwise with numpy's pairwise reduction and the
    segment totals are combined with math.fsum; the relative error stays far
    below the documented 1e-9 at desk scale (y <= 1e8).
    """
    if y < 0:
        raise ValueError("y must be >= 0")
    limit = math.floor(y)
    if limit < 2:
        return 0.0
    partials = []
    for seg in iter_prime_segments(2, limit, **kw):
        partials.append(float(np.sum(np.log(seg.astype(np.float64)))))
    return math.fsum(partials) + math.fsum(log_p for _, log_p in proper_prime_powers(2, limit))


def psi_window(y: float, tau: float, *, ceiling: int = DEFAULT_CEILING) -> float:
    """psi(y + y/tau) - psi(y) over the integers in the window (y, y + y/tau].

    The window's primes come from the segmented sieve and its proper prime
    powers from the base primes; every term is math.log(p), summed by one
    math.fsum, so the result equals the exactly rounded sum of
    von_mangoldt(n) over the window.
    """
    if y < 2 or tau < 2:
        raise ValueError("need y >= 2 and tau >= 2")
    n_lo = math.floor(y) + 1  # first integer > y (open left endpoint)
    n_hi = math.floor(y + y / tau)
    if n_hi < n_lo:
        return 0.0
    primes = iter_prime_segments(n_lo, n_hi, ceiling=ceiling)
    return math.fsum(chain(
        (math.log(p) for seg in primes for p in seg.tolist()),
        (log_p for _, log_p in proper_prime_powers(n_lo, n_hi)),
    ))


def test_psi_against_direct_lambda_sum():
    for y in (1, 10, 97.5, 1000, 10**5):
        direct = math.fsum(P.von_mangoldt(n) for n in range(1, math.floor(y) + 1))
        assert chebyshev_psi(y) == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_psi_examples():
    assert chebyshev_psi(1) == 0.0
    expected = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
    assert chebyshev_psi(10) == pytest.approx(expected, rel=1e-12)
    assert chebyshev_psi(10**6) == pytest.approx(10**6, rel=5e-3)  # PNT sanity


def test_psi_window_examples():
    got = psi_window(100, 10)
    want = sum(math.log(p) for p in (101, 103, 107, 109))
    assert got == pytest.approx(want, rel=1e-12)
    assert psi_window(2, 2) == pytest.approx(math.log(3))


def _psi_window_oracle(y, tau):
    window = range(math.floor(y) + 1, math.floor(y + y / tau) + 1)
    return math.fsum(P.von_mangoldt(n) for n in window)


def test_psi_window_equals_von_mangoldt_sum():
    # (120, 180] holds the prime powers 121, 125, 128, 169
    for y, tau in [(120, 2), (2, 2), (3.5, 2), (100, 10), (1000.5, 3), (10**6, 50)]:
        assert psi_window(y, tau) == _psi_window_oracle(y, tau), (y, tau)


@settings(max_examples=40, deadline=None)
@given(
    y=st.floats(min_value=2, max_value=1e5, allow_nan=False),
    tau=st.floats(min_value=2, max_value=1e3, allow_nan=False),
)
def test_psi_window_equals_von_mangoldt_sum_sampled(y, tau):
    assert psi_window(y, tau) == _psi_window_oracle(y, tau)


def test_psi_window_ceiling():
    t0 = time.perf_counter()
    with pytest.raises(CapacityError):
        psi_window(1e12, 1e7)
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(CapacityError):
        psi_window(1000, 2, ceiling=1200)


def test_psi_window_prime_free_bound():
    # windows inside known prime gaps; constant 2 fixed here
    for y, tau in [(114, 10), (524, 32), (31398, 500)]:
        top = y + y / tau
        assert not any(
            is_prime(n) for n in range(math.floor(y) + 1, math.floor(top) + 1)
        )
        bound = 2 * math.log(y) ** 2 * math.sqrt(y / tau)
        assert psi_window(y, tau) <= bound


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=20000))
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1)))
