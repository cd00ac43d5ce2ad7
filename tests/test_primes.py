"""Prime engine: sieve against trial division, exact gap statistics, psi."""

import importlib
import inspect
import math
import pkgutil
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapscope
from gapscope import primes as P
from gapscope.errors import CapacityError
from gapscope.primes import CEILING, iter_prime_segments, proper_prime_powers


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


def next_prime_above(n: int, *, ceiling: int = CEILING) -> int:
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


def _odds_only_segments(lo, hi, segment_odds=P.SEGMENT_ODDS):
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


@contextmanager
def segment_odds(n):
    """P.SEGMENT_ODDS set to n inside the block (for hypothesis tests, which
    cannot take the function-scoped monkeypatch fixture)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(P, "SEGMENT_ODDS", n)
        yield


def sieve_primes(lo, hi):
    """The primes in [lo, hi] from iter_prime_segments, each yielded array
    checked to be int64, non-empty, ascending and in [lo, hi]."""
    segs = list(iter_prime_segments(lo, hi))
    if not segs:
        return np.array([], dtype=np.int64)
    assert all(seg.dtype == np.int64 and len(seg) > 0 for seg in segs)
    out = np.concatenate(segs)  # ascending in [lo, hi] implies each array is
    assert lo <= out[0] and out[-1] <= hi and np.all(out[1:] > out[:-1])
    return out


# ---------------------------------------------------------------------------
# iter_prime_segments
# ---------------------------------------------------------------------------

def test_sieve_small_windows():
    assert sieve_primes(1, 10).tolist() == [2, 3, 5, 7]
    assert sieve_primes(90, 100).tolist() == [97]
    assert sieve_primes(0, 1).tolist() == []
    assert sieve_primes(2, 2).tolist() == [2]


def test_sieve_against_trial_division():
    for lo, hi in [(0, 600), (997, 1300), (9950, 10103)]:
        assert sieve_primes(lo, hi).tolist() == trial_primes(lo, hi)


def test_sieve_count_to_1e6():
    # pi(10^6) = 78498, checked against the trial-division oracle offline
    assert len(sieve_primes(1, 10**6)) == 78498


@settings(max_examples=25, deadline=None)
@given(
    lo=st.integers(min_value=0, max_value=5000),
    span=st.integers(min_value=0, max_value=3000),
    seg=st.sampled_from([16, 64, 1 << 12]),
)
def test_sieve_segmentation_invariance(lo, span, seg):
    hi = lo + span
    want = sieve_primes(lo, hi).tolist()
    with segment_odds(seg):
        assert sieve_primes(lo, hi).tolist() == want


@settings(max_examples=40, deadline=None)
@given(
    lo=st.integers(min_value=0, max_value=10**4),
    span=st.integers(min_value=0, max_value=3000),
    seg=st.sampled_from([1, 2, 3, 16, 4096]),
)
def test_wheel_segments_equal_the_odds_only_oracle(lo, span, seg):
    with segment_odds(seg):
        got = sieve_primes(lo, lo + span)
    assert np.array_equal(got, _oracle_primes(lo, lo + span))


def test_wheel_equals_the_oracle_on_every_small_window():
    # every window inside [0, 260]: 1, 5, 25, 35, 49 and each row edge as an end
    want = _oracle_primes(0, 260).tolist()
    for lo in range(201):
        for hi in range(lo, lo + 61):
            got = sieve_primes(lo, hi).tolist()
            assert got == [p for p in want if lo <= p <= hi], (lo, hi)


@pytest.mark.parametrize("lo, hi", [(10**10 - 2 * 10**5, 10**10), (10**9, 10**9 + 10**6)])
def test_wheel_equals_the_oracle_on_large_windows(lo, hi):
    got = sieve_primes(lo, hi)
    assert len(got) > 1000 and np.array_equal(got, _oracle_primes(lo, hi))


@pytest.mark.parametrize("seg", [1, 2, 3])
def test_many_segments_equal_the_oracle_and_join_the_worker(monkeypatch, seg):
    monkeypatch.setattr(P, "SEGMENT_ODDS", seg)
    baseline, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the worker and the reader finely
    try:
        segs = list(iter_prime_segments(0, 3000))
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == baseline
    assert len(segs) > 300  # 501 one-row segments; a row without a prime yields nothing
    assert np.array_equal(np.concatenate(segs), _oracle_primes(0, 3000))
    # segments struck in the same buffer (i and i + 2) or in turn share no memory
    pairs = chain(zip(segs, segs[1:]), zip(segs, segs[2:]))
    assert not any(np.shares_memory(a, b) for a, b in pairs)


def test_breaking_out_of_iter_gaps_joins_the_worker(monkeypatch):
    monkeypatch.setattr(P, "SEGMENT_ODDS", 64)
    baseline = threading.active_count()
    gaps = []
    for g in P.iter_gaps(10**5):
        gaps.append((g.p, g.next))
        if len(gaps) == 50:
            assert threading.active_count() == baseline + 1  # the strike worker
            break
    assert threading.active_count() == baseline
    assert gaps == _brute_pairs(2, 229)


def test_gap_stream_return_past_the_limit_joins_the_worker(monkeypatch):
    monkeypatch.setattr(P, "SEGMENT_ODDS", 64)
    baseline = threading.active_count()
    # 1100's successor 1103 lies in the segment [960, 1151] of 32 rows, while the
    # window to 1100 + 200 plans one more, still being struck when the stream returns
    [s] = P.gap_sweep([1100])
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
    monkeypatch.setattr(P, "SEGMENT_ODDS", 64)
    with pytest.raises(RuntimeError, match="strike failed"):
        sieve_primes(0, 10**4)
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
    # two 1 MiB strike buffers and one read block's p and gaps (3.04 MiB); 5.54
    # MiB when whole segments were read, 7.62 MiB when the stream also held the
    # previous segment during the next
    assert peak <= 3.54 * 2**20


def test_no_function_takes_a_sieve_geometry_or_height_argument():
    # SEGMENT_ODDS and CEILING are module constants of primes, not arguments
    for info in pkgutil.iter_modules(gapscope.__path__):
        module = importlib.import_module(f"gapscope.{info.name}")
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                params = inspect.signature(fn).parameters
                assert not {"segment_odds", "ceiling"} & set(params), (module.__name__, name)
                assert module is not P or all(
                    p.kind is not p.VAR_KEYWORD for p in params.values()), name


def test_sieve_ceiling_capacity(monkeypatch):
    with pytest.raises(CapacityError, match=f"^sieve limit {10**11} exceeds ceiling {CEILING}$"):
        next(iter_prime_segments(0, 10**11))
    # the one guard reads CEILING when the sieve starts, and refuses before any strike
    monkeypatch.setattr(P, "CEILING", 1000)
    monkeypatch.setattr(P, "_strike", None)
    with pytest.raises(CapacityError, match="^sieve limit 1001 exceeds ceiling 1000$"):
        next(iter_prime_segments(0, 1001))


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
        assert s.count == len(sieve_primes(2, x))


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


def test_gap_stream_refuses_limit_over_ceiling(monkeypatch):
    t0 = time.perf_counter()
    for consume in (
        lambda: P.max_gap_table([2 * 10**10]),
        lambda: P.gap_sweep([CEILING - 10]),  # the limit fits, its successor window does not
        lambda: list(P.iter_gaps(CEILING - 10, start=CEILING - 1000)),
    ):
        with pytest.raises(CapacityError, match=f"exceeds ceiling {CEILING}$"):
            consume()
    assert time.perf_counter() - t0 < 1.0
    monkeypatch.setattr(P, "CEILING", 100)
    monkeypatch.setattr(P, "_strike", None)  # refused before anything is struck
    for consume, top in (
        (lambda: list(P.iter_gaps(2000)), 2200),
        (lambda: P.gap_sweep([10, 2000]), 2200),
        (lambda: P.dyadic_band_sum(600, 10), 1400),
        (lambda: P.gap_sweep([100]), 300),  # the limit fits, its window [2, 300] does not
    ):
        with pytest.raises(CapacityError, match=f"^sieve limit {top} exceeds ceiling 100$"):
            consume()


def test_gap_stream_without_a_successor_in_its_window_raises(monkeypatch):
    # the safety check after the one sieve pass: a window that held no prime
    # past the limit (the maximal-gap records keep this from firing below CEILING)
    sieve = P.iter_prime_segments
    monkeypatch.setattr(P, "iter_prime_segments", lambda lo, hi: sieve(lo, 100))
    for consume in (lambda: P.gap_sweep([100]), lambda: list(P.iter_gaps(100, start=90))):
        with pytest.raises(CapacityError, match="^no prime found past 100 up to 300$"):
            consume()


def test_gap_stream_extends_past_the_limit_without_restarting(monkeypatch):
    windows = []
    sieve = P.iter_prime_segments

    def recording(lo, hi):
        windows.append((lo, hi))
        return sieve(lo, hi)

    monkeypatch.setattr(P, "iter_prime_segments", recording)
    monkeypatch.setattr(P, "SEGMENT_ODDS", 1)
    # 1327 -> 1361 is a gap of 34; one sieve pass over [1300, 1330 + 200] finds it
    # across 35 one-row segments
    gaps = list(P.iter_gaps(1330, start=1300))
    assert [(g.p, g.next) for g in gaps] == [(1301, 1303), (1303, 1307), (1307, 1319),
                                             (1319, 1321), (1321, 1327), (1327, 1361)]
    assert windows == [(1300, 1530)]
    # past e^7 the window is 4 floor(log x)^2: 4 * 13^2 at 10^6
    assert [(g.p, g.next) for g in P.iter_gaps(10**6, start=10**6 - 20)] == [(999983, 1000003)]
    assert windows[1:] == [(10**6 - 20, 10**6 + 676)]


#: Maximal prime gaps below CEILING: (gap, its first prime), OEIS A005250 and
#: A002386.  The records are verified to 4e18 (Oliveira e Silva, Herzog and
#: Pardi, Math. Comp. 83, 2014); the next one, 382 at 10726904659, is past CEILING.
MAXIMAL_GAPS = [
    (1, 2), (2, 3), (4, 7), (6, 23), (8, 89), (14, 113), (18, 523), (20, 887),
    (22, 1129), (34, 1327), (36, 9551), (44, 15683), (52, 19609), (72, 31397),
    (86, 155921), (96, 360653), (112, 370261), (114, 492113), (118, 1349533),
    (132, 1357201), (148, 2010733), (154, 4652353), (180, 17051707), (210, 20831323),
    (220, 47326693), (222, 122164747), (234, 189695659), (248, 191912783),
    (250, 387096133), (282, 436273009), (288, 1294268491), (292, 1453168141),
    (320, 2300942549), (336, 3842610773), (354, 4302407359),
]


def test_one_window_holds_every_maximal_gap_below_the_ceiling(monkeypatch):
    windows = []
    sieve = P.iter_prime_segments

    def recording(lo, hi):
        windows.append((lo, hi))
        return sieve(lo, hi)

    monkeypatch.setattr(P, "iter_prime_segments", recording)
    worst = 0.0
    for gap, p in MAXIMAL_GAPS:
        # the stream at limit p sieves one window [p, p + width] and finds p's successor in it
        assert list(P.iter_gaps(p, start=p)) == [P.PrimeGap(p, p + gap, gap)]
        lo, hi = windows.pop()
        assert not windows and lo == p and gap <= hi - p
        worst = max(worst, gap / (hi - p))
    # a gap below a record's prime is at most the record, and a larger limit only
    # widens the window, so no gap below CEILING is above 0.21 of its window
    assert 0.20 < worst <= 0.21


@pytest.mark.parametrize("seg", [1, 2, 3])
def test_gap_sweep_limits_on_segment_edges(monkeypatch, seg):
    monkeypatch.setattr(P, "SEGMENT_ODDS", seg)
    # limits on the last prime of one segment and on the first prime of the next
    segs = list(iter_prime_segments(0, 400))
    edges = sorted({int(p) for a, b in zip(segs, segs[1:]) for p in (a[-1], b[0])} - {2})
    ps = _oracle_primes(0, 500).tolist()
    want = []
    for x in edges:
        ds = [q - p for p, q in zip(ps, ps[1:]) if p <= x]
        want.append(P.GapSummary(x, len(ds), max(ds), sum(ds), sum(d * d for d in ds)))
    assert len(edges) > 50 and P.gap_sweep(edges) == want


def _oracle_summaries(limits, ps):
    out = []
    for x in limits:
        ds = [q - p for p, q in zip(ps, ps[1:]) if p <= x]
        out.append(P.GapSummary(x, len(ds), max(ds), sum(ds), sum(d * d for d in ds)))
    return out


def _block_edges(lo, hi):
    """(last prime of a read block, first prime of the next) for each block edge in [lo, hi]."""
    blocks = list(iter_prime_segments(lo, hi))[lo <= 3 :]  # not the head [2, 3]
    return [(int(a[-1]), int(b[0])) for a, b in zip(blocks, blocks[1:])]


@pytest.mark.parametrize("read_block, seg", [(2, 16), (4, 16), (6, 64), (8, 8)])
def test_gap_consumers_across_read_block_edges(monkeypatch, read_block, seg):
    # blocks of 1 to 4 rows: many hold no prime, and gaps run across one or more edges
    monkeypatch.setattr(P, "READ_BLOCK", read_block)
    monkeypatch.setattr(P, "SEGMENT_ODDS", seg)
    segs = list(iter_prime_segments(0, 1500))
    ps = _oracle_primes(0, 2000).tolist()
    assert np.array_equal(np.concatenate(segs), _oracle_primes(0, 1500))
    for lo, hi in [(lo, 1500 - lo) for lo in range(0, 30)]:  # windows cut inside a row
        got = list(iter_prime_segments(lo, hi))
        assert np.array_equal(np.concatenate(got), _oracle_primes(lo, hi)), (lo, hi)
    if read_block <= 4:  # some blocks of one or two rows hold no prime, and yield nothing
        assert len(segs) - 1 < -(-(1500 // 6 + 1) // (read_block // 2))
    edges = _block_edges(0, 1500)
    # limits on the last prime of a block, on the first of the next, and between them
    limits = sorted({x for a, b in edges for x in (a, b, (a + b) // 2)} - {2})
    assert P.gap_sweep(limits) == _oracle_summaries(limits, ps)
    for a, b in edges[::7]:
        for x in (a, b - 1):  # the straddling gap (a, b) crosses the block edge
            want = [(p, q) for p, q in zip(ps, ps[1:]) if 100 <= p <= x]
            got = [(g.p, g.next) for g in P.iter_gaps(x, start=100)]
            assert got == want and (x < 100 or got[-1] == (a, b))
    for x, tau in [(101, 101), (211, Fraction(211, 3)), (400, 50), (601, Fraction(601, 2))]:
        band = [q - p for p, q in zip(ps, ps[1:])
                if x <= p <= 2 * x and 4 * x / tau <= q - p <= 8 * x / tau]
        bs = P.dyadic_band_sum(x, tau)
        assert (bs.sum_gap_sq, bs.contributing) == (sum(d * d for d in band), len(band))


def test_gap_sweep_at_the_default_read_block_edges():
    # the first segment's four read blocks end at 6 * 2^17 * j; edges seen unpatched
    hi = 3 * P.SEGMENT_ODDS + 10**4
    edges = _block_edges(0, hi)
    edge = 6 * (P.READ_BLOCK // 2)  # the first block's rows end below 6 * 2^17
    assert len(edges) >= 4
    assert edges[0] == (_oracle_primes(edge - 200, edge)[-1], _oracle_primes(edge, edge + 200)[0])
    limits = sorted({x for a, b in edges for x in (a, b, b - 1)})
    ps = _oracle_primes(0, hi + 1000).tolist()
    assert P.gap_sweep(limits) == _oracle_summaries(limits, ps)
    a, b = edges[1]
    assert [(g.p, g.next) for g in P.iter_gaps(b - 1, start=a - 100)][-1] == (a, b)


@pytest.mark.parametrize("call, name", [
    (lambda: P.gap_sweep([10.5]), "limits"),
    (lambda: P.gap_sweep(["10"]), "limits"),
    (lambda: P.gap_sweep([math.inf]), "limits"),
    (lambda: P.gap_sweep([10, 10.7]), "limits"),
    (lambda: P.max_gap_table([10.9, 100]), "limits"),
    (lambda: list(iter_prime_segments(0.5, 100)), "lo"),
    (lambda: list(iter_prime_segments(True, 10)), "lo"),
    (lambda: list(iter_prime_segments(0, 100.0)), "hi"),
    (lambda: list(P.iter_gaps(10.5)), "limit"),
    (lambda: list(P.iter_gaps(100, start=2.0)), "start"),
    (lambda: P.dyadic_band_sum(100.5, 10), "x"),
], ids=["sweep-float", "sweep-str", "sweep-inf", "sweep-second-float", "table-float", "sieve-lo-float",
        "sieve-lo-bool", "sieve-hi-float", "gaps-float", "gaps-start-float", "band-float"])
def test_integer_arguments_refuse_non_integers(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()


def test_integer_arguments_accept_numpy_integers():
    assert sieve_primes(np.int64(0), np.int32(10)).tolist() == [2, 3, 5, 7]
    assert P.gap_sweep([np.int64(10), np.uint16(100)]) == P.gap_sweep([10, 100])
    assert P.max_gap_table([np.int64(10)]) == [(10, 4, 0.60)]


def _brute_pairs(start, limit):
    """Consecutive prime pairs (p, q) with start <= p <= limit, from sieve_primes."""
    ps = sieve_primes(0, next_prime_above(limit)).tolist()
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
    top = max(limit, 3)
    lims = sorted(data.draw(st.sets(st.integers(min_value=3, max_value=top),
                                    min_size=1, max_size=4)))
    x = max(start, 1)
    den = data.draw(st.integers(min_value=1, max_value=8))
    tau = Fraction(data.draw(st.integers(min_value=1, max_value=x * den)), den)
    with segment_odds(seg):
        got = [(g.p, g.next) for g in P.iter_gaps(limit, start=start)]
        sweep = P.gap_sweep(lims)
        bs = P.dyadic_band_sum(x, tau)

    assert got == _brute_pairs(start, limit)
    pairs = _brute_pairs(2, top)
    want = []
    for lim in lims:
        ds = [q - p for p, q in pairs if p <= lim]
        want.append(P.GapSummary(lim, len(ds), max(ds), sum(ds), sum(d * d for d in ds)))
    assert sweep == want
    band = [q - p for p, q in _brute_pairs(x, 2 * x)
            if 4 * x / tau <= q - p <= 8 * x / tau]
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


def chebyshev_psi(y: float) -> float:
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
    for seg in iter_prime_segments(2, limit):
        partials.append(float(np.sum(np.log(seg.astype(np.float64)))))
    return math.fsum(partials) + math.fsum(log_p for _, log_p in proper_prime_powers(2, limit))


def psi_window(y: float, tau: float) -> float:
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
    primes = iter_prime_segments(n_lo, n_hi)
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


def test_psi_window_ceiling(monkeypatch):
    t0 = time.perf_counter()
    with pytest.raises(CapacityError):
        psi_window(1e12, 1e7)
    assert time.perf_counter() - t0 < 1.0
    monkeypatch.setattr(P, "CEILING", 1200)
    with pytest.raises(CapacityError):
        psi_window(1000, 2)


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
