"""Polynomial evaluation, sups, classification, and R/R* counting.

`eval_factor`, the compensated pointwise sum, is the evaluation oracle.
"""

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapscope.dirichlet as dirichlet
import gapscope.experiments as experiments
from gapscope.dirichlet import (
    GOLDEN,
    LargeValueProfile,
    PolyFactor,
    _bands,
    _bracket,
    _check_sampling,
    _golden,
    _is_int,
    _sup_ceiling,
    band_index,
    classify_profile,
    classify_profiles,
    count_R_Rstar,
    eval_factor_lattice,
    eval_factor_grid,
    hb_rstar_rhs,
    huxley_rhs,
    log_factor,
    mobius_factor,
    montgomery_rhs,
    singleton_factor,
    unit_factor,
)
from gapscope.errors import CapacityError
from gapscope.experiments import _random_factors
from gapscope.identity import CoefficientClass


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def eval_factor(f: PolyFactor, c: float, t: float) -> complex:
    """sum a_n n^(-c-it) by direct compensated summation."""
    ns, an = f.support()
    if len(ns) == 0:
        return 0.0 + 0.0j
    mags = an * ns.astype(np.float64) ** (-c)
    phases = -t * np.log(ns.astype(np.float64))
    re = math.fsum((mags * np.cos(phases)).tolist())
    im = math.fsum((mags * np.sin(phases)).tolist())
    return complex(re, im)


def test_eval_factor_trivial():
    assert eval_factor(singleton_factor(), 1.4, 123.0) == 1.0
    v = eval_factor(unit_factor(2), 1.0, 0.0)
    assert v == pytest.approx(1 / 3 + 1 / 4, rel=1e-14)


def test_eval_factor_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    ref = complex(-mpmath.power(3, mpmath.mpc(-1.1, -1.0)))  # mu(3) = -1, mu(4) = 0
    got = eval_factor(mobius_factor(2), 1.1, 1.0)
    assert abs(got - ref) < 1e-10


def test_eval_budget_guard():
    with pytest.raises(CapacityError):
        unit_factor(2 * 10**7)


def test_factor_length_must_be_power_of_two():
    for mk, N in ((unit_factor, 3), (log_factor, 12), (mobius_factor, 6)):
        with pytest.raises(ValueError, match=f"N = {N} is not a power of two"):
            mk(N)
    assert [unit_factor(N).N for N in (1, 2, 64, 2**23)] == [1, 2, 64, 2**23]


def eval_product_grid(factors, c: float, ts: np.ndarray) -> np.ndarray:
    # through the module, so that a test patching eval_factor_grid counts these calls
    out = np.ones(len(ts), dtype=complex)
    for f in factors:
        out *= dirichlet.eval_factor_grid(f, c, ts)
    return out


def test_triangle_bound_on_samples():
    facs = [unit_factor(8), log_factor(4), mobius_factor(4)]
    c = 1.07
    bound = 1.0
    for f in facs:
        ns, an = f.support()
        bound *= float(np.sum(np.abs(an) * ns.astype(float) ** -c))
    ts = np.linspace(3.0, 47.0, 97)
    vals = np.abs(eval_product_grid(facs, c, ts))
    assert np.all(vals <= bound + 1e-12)


def test_grid_eval_matches_pointwise():
    f = log_factor(16)
    ts = np.array([0.0, 1.5, 12.25, 333.0])
    grid = eval_product_grid([f], 1.2, ts)
    for t, g in zip(ts, grid):
        assert g == pytest.approx(eval_factor(f, 1.2, float(t)), rel=1e-12)


@pytest.mark.parametrize("f", [unit_factor(64), log_factor(32), mobius_factor(64)])
def test_lattice_matches_pointwise(f):
    c = 1.13
    bases = np.array([0.0, 1.5, 47.25, 999.0, 9999.5])
    offsets = 0.5 * np.polynomial.legendre.leggauss(12)[0]
    lattice = eval_factor_lattice(f, c, bases, offsets)
    assert lattice.shape == (len(bases), len(offsets))
    ns, an = f.support()
    scale = float(np.sum(np.abs(an) * ns.astype(float) ** -c))
    for k, b in enumerate(bases):
        for j, h in enumerate(offsets):
            ref = eval_factor(f, c, float(b + h))
            assert abs(lattice[k, j] - ref) <= 1e-10 * scale, (b, h)


def test_lattice_chunks_agree(monkeypatch):
    import gapscope.dirichlet as dirichlet

    f, c = mobius_factor(64), 1.1
    bases, offsets = np.linspace(0.0, 1e4, 37), np.linspace(0.0, 1.0, 33)
    whole = eval_factor_lattice(f, c, bases, offsets)
    monkeypatch.setattr(dirichlet, "EVAL_BUDGET", 100)  # 1-row, 1-offset chunks
    chunked = eval_factor_lattice(f, c, bases, offsets)
    assert np.allclose(chunked, whole, rtol=0, atol=1e-12)


@pytest.mark.parametrize("f", [log_factor(8), unit_factor(16), mobius_factor(32), unit_factor(4)])
@pytest.mark.parametrize("c", [1.1, 1.05])
def test_lattice_row_does_not_depend_on_the_batch(f, c):
    # a lone row is padded to two, away from numpy's matrix-vector path
    bases, offsets = np.arange(40.0, 240.0), np.linspace(0.0, 1.0, 33)
    whole = eval_factor_lattice(f, c, bases, offsets)
    for k in range(len(bases)):
        assert np.array_equal(eval_factor_lattice(f, c, bases[k : k + 1], offsets)[0], whole[k])


_any_factor = st.one_of(
    st.just(singleton_factor()),
    st.builds(lambda mk, k: mk(2**k),
              st.sampled_from([unit_factor, log_factor, mobius_factor]), st.integers(2, 10)),
)


@settings(max_examples=100, deadline=None)
@given(_any_factor, st.floats(1.0, 1.5, exclude_min=True),
       st.lists(st.floats(1.0, 1e4), min_size=1, max_size=40), st.randoms(use_true_random=False))
def test_grid_values_do_not_depend_on_the_batch(f, c, ts, rnd):
    # golden refinement reuses a point's value from whichever batch computed it
    ts = np.array(ts)
    full = eval_factor_grid(f, c, ts)
    for i in range(len(ts)):
        assert np.array_equal(eval_factor_grid(f, c, ts[i : i + 1]), full[i : i + 1])
    subset = sorted(rnd.sample(range(len(ts)), rnd.randint(1, len(ts))))
    order = rnd.sample(range(len(ts)), len(ts))
    for idx in (subset, order):
        assert np.array_equal(eval_factor_grid(f, c, ts[idx]), full[idx])


def test_grid_chunks_are_bit_identical(monkeypatch):
    import gapscope.dirichlet as dirichlet

    f, c, ts = mobius_factor(64), 1.1, np.linspace(1.0, 1e4, 257)
    whole = eval_factor_grid(f, c, ts)
    monkeypatch.setattr(dirichlet, "EVAL_BUDGET", 100)  # one row per chunk
    assert np.array_equal(eval_factor_grid(f, c, ts), whole)


# ---------------------------------------------------------------------------
# sups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupEstimate:
    value: float
    samples: int


def sup_on_unit_interval(factors, c: float, m: int, samples: int = 32,
                         refine_iters: int = 3) -> SupEstimate:
    """Approximate sup over [m, m+1] of |prod S_i(c+it)|."""
    if not (_is_int(m) and m >= 1):
        raise ValueError(f"m must be an integer >= 1, got {m!r}")
    _check_sampling(c, samples, refine_iters, 1)
    fs = [factors] if isinstance(factors, PolyFactor) else list(factors)
    base, offsets = np.array([float(m)]), np.linspace(0.0, 1.0, samples + 1)
    vals = np.abs(eval_product_grid(fs, c, base + offsets))
    peak = _golden(fs, np.arange(len(fs))[None], np.array([c]),
                   *_bracket(vals[None], base, offsets), refine_iters)
    return SupEstimate(float(peak[0]), samples + 1 + 2 * refine_iters)


def test_sup_singleton_product():
    for m in (1, 5, 1000):
        assert sup_on_unit_interval([singleton_factor()], 1.3, m).value == 1.0


def test_sup_sample_monotone_consistency():
    f = unit_factor(2)
    s8 = sup_on_unit_interval(f, 1.05, 3, samples=8, refine_iters=0)
    s64 = sup_on_unit_interval(f, 1.05, 3, samples=64, refine_iters=0)
    assert s64.value >= s8.value
    refined = sup_on_unit_interval(f, 1.05, 3, samples=8, refine_iters=3)
    assert refined.value >= s8.value


def test_sup_against_dense_grid_oracle():
    f = unit_factor(2)
    c = 1.05
    est = sup_on_unit_interval(f, c, 3, samples=32, refine_iters=3)
    dense = max(abs(eval_factor(f, c, t)) for t in np.linspace(3.0, 4.0, 321))
    assert est.value <= dense + 1e-12
    assert est.value == pytest.approx(dense, abs=1e-4)
    assert est.samples >= 33


@st.composite
def _block_factor(draw):
    N = 2 ** draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["unit", "log", "mobius", "mobius-cutoff"]))
    if kind == "mobius-cutoff":
        return mobius_factor(N, draw(st.integers(N + 1, 2 * N)))
    return {"unit": unit_factor, "log": log_factor, "mobius": mobius_factor}[kind](N)


@settings(max_examples=150, deadline=None)
@given(_block_factor(), st.floats(1.0, 1.5, exclude_min=True), st.integers(1, 10**4),
       st.integers(1, 64))
def test_sup_ceiling_bounds_the_dense_maximum(f, c, m, samples):
    offsets = np.linspace(0.0, 1.0, samples + 1)
    s = np.abs(eval_factor_lattice(f, c, np.array([float(m)]), offsets)).max(axis=1)
    dense = np.abs(eval_factor_grid(f, c, m + np.linspace(0.0, 1.0, 4097))).max()
    assert dense <= _sup_ceiling(f, [c], s, samples, [m + 1.0], [0])[0]


def test_refined_factor_peaks_lie_between_sample_and_ceiling():
    # the sandwich s <= refined peak <= U that lets the samples fix a band
    for seed in range(20):
        rng = random.Random(seed)
        c = 1.0 + 1.0 / math.log(rng.uniform(50.0, 5000.0))
        T = rng.randint(40, 220)
        ms = np.arange(T, 2 * T + 1, dtype=np.float64)
        for f in _random_factors(rng):
            if f.cls is CoefficientClass.SINGLETON:
                continue
            s = np.abs(eval_factor_lattice(f, c, ms, np.linspace(0.0, 1.0, 33))).max(axis=1)
            peak = _ref_sup_grid([f], c, ms, 32, 3)
            assert np.all(s <= peak)
            assert np.all(peak <= _sup_ceiling(f, [c], s, 32, [ms[-1] + 1], np.zeros(len(s), int)))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classification_partition():
    facs = [unit_factor(8), mobius_factor(4)]
    cls = classify_profile(facs, 1.1, 50)
    assert cls.total() == math.floor(100) - math.ceil(50) + 1
    seen = sorted(m for ms in cls.cells.values() for m in ms) + sorted(cls.s0)
    assert sorted(seen) == list(range(50, 101))


def test_classification_singleton_top_cell():
    cls = classify_profile([singleton_factor()], 1.2, 40)
    assert len(cls.cells) == 1
    profile = next(iter(cls.cells))
    assert profile.band_indices == (0,)
    assert profile.sigmas == (1.0,)
    assert not cls.s0


def test_classification_brute_reclassification():
    facs = [unit_factor(8)]
    c, T = 1.1, 50
    cls = classify_profile(facs, c, T)
    floor_x = 8.0
    for profile, members in cls.cells.items():
        for m in members:
            sup = sup_on_unit_interval(facs[0], c, m).value
            # independent binning: scan bands linearly instead of taking logs;
            # band b holds sups in [top 2^-b, top 2^-(b-1))
            top = 8.0 ** (1.0 - c)
            b = 0
            while top * 2.0**-b > sup * (1 + 1e-12):
                b += 1
            assert (b,) == profile.band_indices, (m, sup)


def test_band_index_edges():
    assert band_index(0.0, Q(8), 1.1, 32.0) is None  # dead factor -> S0
    top = 8.0 ** (1 - 1.1)
    assert band_index(top, Q(8), 1.1, 32.0) == 0
    assert band_index(top * 4, Q(8), 1.1, 32.0) == 0  # clamped top cell
    assert band_index(top / 2, Q(8), 1.1, 32.0) == 1
    assert band_index(top * 2 ** -60, Q(8), 1.1, 32.0) is None  # below 1/x floor


def test_classification_sups_match_unit_interval_sups():
    facs = [unit_factor(16), mobius_factor(8)]
    cls = classify_profile(facs, 1.12, 200)
    assert cls.total() == 201 and list(cls.floors) == list(cls.cells)
    for profile, members in cls.cells.items():
        ref = min(sup_on_unit_interval(facs, 1.12, m).value for m in members)
        assert cls.floors[profile] == pytest.approx(ref, rel=1e-10), profile


def test_profile_sigma_grid_spacing():
    cls = classify_profile([unit_factor(16)], 1.1, 60)
    for profile in cls.cells:
        (b,) = profile.band_indices
        (sigma,) = profile.sigmas
        assert sigma == pytest.approx(1.0 - b * math.log(2) / math.log(16.0))
        assert sigma <= 1.0


@pytest.mark.parametrize("kwargs,match", [
    ({"T": math.inf}, "T must be finite"),
    ({"T": math.nan}, "T must be finite"),
    ({"T": 50.0, "c": math.nan}, "c must be finite"),
    ({"T": 50.0, "c": math.inf}, "c must be finite"),
    ({"T": 50.0, "floor_x": math.nan}, "floor_x must be finite"),
    ({"T": 50.0, "floor_x": math.inf}, "floor_x must be finite"),
    ({"T": 50.0, "floor_x": 0.0}, "floor_x must be finite and > 0"),
    ({"T": 50.0, "floor_x": -4.0}, "floor_x must be finite and > 0"),
    ({"T": 50.0, "samples": 0}, "samples must be >= 1"),
    ({"T": 50.0, "samples": -3}, "samples must be >= 1"),
    ({"T": 50.0, "refine_iters": -1}, "refine_iters must be >= 0"),
    ({"T": 50.0, "samples": 2.5}, "samples must be an integer, got 2.5"),
    ({"T": 50.0, "refine_iters": 1.5}, "refine_iters must be an integer, got 1.5"),
], ids=["T-inf", "T-nan", "c-nan", "c-inf", "floor-nan", "floor-inf", "floor-zero",
        "floor-negative", "samples-zero", "samples-negative", "refine-negative",
        "samples-float", "refine-float"])
def test_classification_refuses_bad_inputs(kwargs, match):
    kwargs = {"c": 1.1, **kwargs}
    with pytest.raises(ValueError, match=match):
        classify_profile([unit_factor(16), mobius_factor(8)], **kwargs)


@pytest.mark.parametrize("kwargs, message", [
    ({"samples": "x"}, "samples must be an integer, got 'x'"),
    ({"samples": 0}, "samples must be >= 1, got 0"),
    ({"samples": -1}, "samples must be >= 1, got -1"),
    ({"samples": 2.5}, "samples must be an integer, got 2.5"),
    ({"refine_iters": -1}, "refine_iters must be >= 0, got -1"),
])
def test_batch_checks_sampling_even_when_empty(kwargs, message):
    for batch in ([], [([unit_factor(8)], 1.1, 40.0)]):
        with pytest.raises(ValueError) as err:
            classify_profiles(batch, **kwargs)
        assert str(err.value) == message


def test_classification_refuses_grids_over_budget_before_allocating(monkeypatch):
    import gapscope.dirichlet as dirichlet

    # 10^12 + 1 unit intervals of 33 samples would ask numpy for 7.28 TiB
    with pytest.raises(CapacityError, match="over the evaluation budget"):
        classify_profile([unit_factor(16)], 1.1, 1e12)
    monkeypatch.setattr(dirichlet, "EVAL_BUDGET", 3 * 33)
    assert classify_profile([unit_factor(4)], 1.1, 2.0).total() == 3  # at the budget
    with pytest.raises(CapacityError):
        classify_profile([unit_factor(4)], 1.1, 3.0)
    with pytest.raises(CapacityError):
        sup_on_unit_interval(unit_factor(4), 1.1, 5, samples=99)


@pytest.mark.parametrize("m", [1.5, 3.0, 0, -2, math.nan, True])
def test_sup_refuses_non_integer_or_small_m(m):
    with pytest.raises(ValueError, match="m must be an integer >= 1"):
        sup_on_unit_interval(unit_factor(8), 1.1, m)


@pytest.mark.parametrize("kwargs", [{"c": math.nan}, {"samples": 0}, {"refine_iters": -1}])
def test_sup_refuses_bad_sampling(kwargs):
    args = {"c": 1.1, "m": 5, **kwargs}
    with pytest.raises(ValueError):
        sup_on_unit_interval(unit_factor(8), **args)
    assert sup_on_unit_interval(unit_factor(8), 1.1, np.int64(5)).value > 0


# ---------------------------------------------------------------------------
# the per-interval classifier that the array one replaced, kept as its oracle:
# a full sample lattice and 1-D golden refinement for each factor and for the
# product, then one band_index call per factor and member
# ---------------------------------------------------------------------------

def _ref_product_lattice(fs, c, bases, offsets):
    out = np.ones((len(bases), len(offsets)), dtype=complex)
    for f in fs:
        out *= eval_factor_lattice(f, c, bases, offsets)
    return out


def _ref_sup_grid(fs, c, ms, samples, refine_iters):
    offsets = np.linspace(0.0, 1.0, samples + 1)
    vals = np.abs(_ref_product_lattice(fs, c, ms, offsets))
    best = np.argmax(vals, axis=1)
    peak = vals[np.arange(len(ms)), best]
    lo = ms + offsets[np.maximum(best - 1, 0)]
    hi = ms + offsets[np.minimum(best + 1, samples)]
    for _ in range(refine_iters):
        t1 = hi - GOLDEN * (hi - lo)
        t2 = lo + GOLDEN * (hi - lo)
        v1 = np.abs(eval_product_grid(fs, c, t1))
        v2 = np.abs(eval_product_grid(fs, c, t2))
        peak = np.maximum(peak, np.maximum(v1, v2))
        take_left = v1 >= v2
        hi = np.where(take_left, t2, hi)
        lo = np.where(take_left, lo, t1)
    return peak


def _ref_classify_profile(factors, c, T, floor_x=None, samples=32, refine_iters=3):
    fs = tuple(factors)
    ms = np.arange(math.ceil(T), math.floor(2 * T) + 1, dtype=np.int64)
    if floor_x is None:
        floor_x = max(2.0, float(math.prod(f.N for f in fs)))
    actives = [f for f in fs if f.cls is not CoefficientClass.SINGLETON]
    grid = ms.astype(np.float64)
    per_factor = [_ref_sup_grid([f], c, grid, samples, refine_iters) for f in actives]
    prod_sup = _ref_sup_grid(fs, c, grid, samples, refine_iters)
    cells, s0, sups = {}, [], {}
    for i, m in enumerate(ms.tolist()):
        sups[m] = float(prod_sup[i])
        bands = [band_index(float(sup[i]), f.N, c, floor_x) for f, sup in zip(actives, per_factor)]
        if None in bands:
            s0.append(m)
            continue
        it = iter(bands)
        full = tuple(0 if f.cls is CoefficientClass.SINGLETON else next(it) for f in fs)
        sigmas = tuple(1.0 - b * math.log(2.0) / math.log(float(f.N)) if f.N > 1 else 1.0
                       for b, f in zip(full, fs))
        cells.setdefault(LargeValueProfile(full, sigmas), []).append(m)
    return cells, s0, sups


def _ref_floors(cells, sups):
    """Each cell's V: the least of its members' fully refined product sups."""
    return [(profile, min(sups[m] for m in members)) for profile, members in cells.items()]


def _assert_same_classification(factors, c, T):
    got = classify_profile(factors, c, T)
    cells, s0, sups = _ref_classify_profile(factors, c, T)
    assert list(got.cells.items()) == list(cells.items())  # dict order too
    assert got.s0 == s0
    assert list(got.floors.items()) == _ref_floors(cells, sups)  # floats compared with ==
    assert all(type(b) is int for p in got.cells for b in p.band_indices)


def test_classification_matches_reference_bit_for_bit():
    sets = 0
    for seed in range(60):
        rng = random.Random(seed)
        for _ in range(6):
            factors = _random_factors(rng)
            c = 1.0 + 1.0 / math.log(rng.uniform(50.0, 5000.0))
            T = float(rng.randint(40, 220))
            _assert_same_classification(factors, c, T)
            sets += 1
    assert sets >= 300


@pytest.mark.parametrize("factors,c,T", [
    ([unit_factor(16), mobius_factor(8)], 1.12, 3000.0),
    ([singleton_factor()], 1.2, 40.0),
    ([], 1.2, 40.0),
    ([unit_factor(8), singleton_factor(), log_factor(4), mobius_factor(4)], 1.07, 100.0),
    ([mobius_factor(8, cutoff=9)], 1.07, 100.0),  # empty support: every m in S0
], ids=["long-T", "singleton", "no-factors", "three-with-singleton", "empty-support"])
def test_classification_matches_reference_edge_sets(factors, c, T):
    _assert_same_classification(factors, c, T)


@pytest.mark.parametrize("factors,c,T", [
    ([unit_factor(16), mobius_factor(8)], 1.12, 300.0),
    ([unit_factor(8), singleton_factor(), log_factor(4), mobius_factor(4)], 1.07, 100.0),
], ids=["two-factors", "three-with-singleton"])
def test_bands_in_doubt_refine_the_factor_bracket(monkeypatch, factors, c, T):
    import gapscope.dirichlet as dirichlet

    golden, own = dirichlet._golden, []

    def recording_golden(table, fids, c, lo, *args):
        if fids.shape[1] == 1:  # one factor per bracket: a factor's own bracket
            own.append(len(lo))
        return golden(table, fids, c, lo, *args)

    monkeypatch.setattr(dirichlet, "_golden", recording_golden)
    # 4 samples leave wide ceilings, so many bands stay in doubt
    got = classify_profile(factors, c, T, samples=4)
    cells, s0, sups = _ref_classify_profile(factors, c, T, samples=4)
    assert list(got.cells.items()) == list(cells.items())
    assert got.s0 == s0
    assert list(got.floors.items()) == _ref_floors(cells, sups)
    assert sum(own) > 0
    # at the default 32 samples the ceilings settle almost every band
    own.clear()
    classify_profile(factors, c, T)
    assert sum(own) < 0.05 * got.total() * (len(factors) - 1)


def test_refinement_evaluates_repeated_points_once(monkeypatch):
    import gapscope.dirichlet as dirichlet

    grid, asked = dirichlet.eval_factor_grid, []

    def counting_grid(f, c, ts):
        asked.append(len(ts))
        return grid(f, c, ts)

    monkeypatch.setattr(dirichlet, "eval_factor_grid", counting_grid)
    factors, c, T = [unit_factor(16), mobius_factor(8)], 1.12, 3000.0
    got = classify_profile(factors, c, T)
    reused = sum(asked)
    asked.clear()
    cells, s0, sups = _ref_classify_profile(factors, c, T)
    assert sum(asked) == 72024  # 3 golden steps x 2 points x 3001 members x 4 evaluations
    assert reused < 0.6 * sum(asked)
    assert list(got.cells.items()) == list(cells.items())
    assert got.s0 == s0
    assert list(got.floors.items()) == _ref_floors(cells, sups)


def test_floor_held_by_a_member_above_the_lowest_sample():
    # at 2 samples the member with the lowest best sample of some cell does
    # not hold the cell's least refined sup, so the second refinement stage
    # decides that floor
    factors, c, T = [unit_factor(8), log_factor(4), mobius_factor(4)], 1.07, 100.0
    got = classify_profile(factors, c, T, samples=2)
    cells, s0, sups = _ref_classify_profile(factors, c, T, samples=2)
    assert list(got.cells.items()) == list(cells.items())
    assert list(got.floors.items()) == _ref_floors(cells, sups)
    grid = np.arange(100, 201, dtype=np.float64)
    sample = dict(zip(range(100, 201), _ref_sup_grid(factors, c, grid, 2, 0).tolist()))
    lowest = {p: sups[min(members, key=lambda m: (sample[m], m))] for p, members in cells.items()}
    assert any(got.floors[p] < lowest[p] for p in cells)


def test_long_t_refines_few_products(monkeypatch):
    golden, product = dirichlet._golden, []

    def recording_golden(table, fids, c, lo, *args):
        if fids.shape[1] > 1:  # the unit x mobius product
            product.append(len(lo))
        return golden(table, fids, c, lo, *args)

    monkeypatch.setattr(dirichlet, "_golden", recording_golden)
    cls = classify_profile([unit_factor(16), mobius_factor(8)], 1.12, 3000.0)
    assert cls.total() == 3001
    assert 0 < sum(product) < 0.05 * cls.total()


def test_factor_lattice_product_equals_product_lattice():
    # classify_profile folds the active factors' lattices in order and leaves
    # singletons out; a singleton's values are exactly 1, so nothing changes
    fs = [unit_factor(16), singleton_factor(), mobius_factor(8), log_factor(4)]
    bases, offsets = np.arange(200, 401, dtype=np.float64), np.linspace(0.0, 1.0, 33)
    assert np.all(eval_factor_lattice(singleton_factor(), 1.12, bases, offsets) == 1)
    folded = None
    for f in fs:
        if f.cls is not CoefficientClass.SINGLETON:
            lattice = eval_factor_lattice(f, 1.12, bases, offsets)
            folded = lattice if folded is None else folded * lattice
    ref = _ref_product_lattice(fs, 1.12, bases, offsets)
    assert np.array_equal(folded, ref)
    assert np.array_equal(np.abs(folded), np.abs(ref))


def test_batched_grid_equals_separate_grids():
    # golden refinement evaluates each factor at all brackets' t1 and t2 in one call
    f, ts = mobius_factor(16), np.linspace(3000.0, 6000.0, 3001)
    t1, t2 = ts + 0.25, ts + 0.75
    both = eval_factor_grid(f, 1.12, np.concatenate((t1, t2)))
    assert np.array_equal(both, np.concatenate((eval_factor_grid(f, 1.12, t1),
                                                eval_factor_grid(f, 1.12, t2))))


def _assert_same_cells(got, want):
    """Bitwise-equal classifications: cells (bands and sigmas) and their order, S0, floors."""
    assert list(got.cells.items()) == list(want.cells.items())
    assert got.s0 == want.s0
    assert list(got.floors.items()) == list(want.floors.items())  # floats compared with ==
    assert (got.factors, got.c, got.T) == (want.factors, want.c, want.T)


@pytest.mark.parametrize("seed", range(20120116, 20120123))
def test_batched_classification_equals_one_at_a_time(seed):
    problems = experiments._draw_experiments(25, seed)
    got = classify_profiles(problems)
    assert len(got) == 25
    for cls, problem in zip(got, problems):
        _assert_same_cells(cls, classify_profile(*problem))


def test_batched_classification_of_mixed_edge_sets():
    # every edge set of test_classification_matches_reference_edge_sets in one batch,
    # with floor_x and 4-tuples mixed in
    problems = [
        ([unit_factor(16), mobius_factor(8)], 1.12, 3000.0),
        ([singleton_factor()], 1.2, 40.0),
        ([], 1.2, 40.0),
        ([unit_factor(8), singleton_factor(), log_factor(4), mobius_factor(4)], 1.07, 100.0),
        ([mobius_factor(8, cutoff=9)], 1.07, 100.0),
        ([unit_factor(4), unit_factor(4), unit_factor(4)], 1.3, 60.0, 50.0),
        ([mobius_factor(8), unit_factor(16)], 1.12, 300.0),
    ]
    for cls, problem in zip(classify_profiles(problems), problems, strict=True):
        _assert_same_cells(cls, classify_profile(*problem))
    for cls, problem in zip(classify_profiles(problems, samples=4, refine_iters=2), problems):
        _assert_same_cells(cls, classify_profile(*problem, samples=4, refine_iters=2))
    assert classify_profiles([]) == []


def test_suite_split_into_many_batches_keeps_every_cell(monkeypatch):
    whole = experiments.run_large_value_suite(25, 20120117)
    monkeypatch.setattr(experiments, "_BATCH_INTERVALS", 250)
    problems = experiments._draw_experiments(25, 20120117)
    batches = experiments._batches(problems)
    assert len(batches) > 10 and sum(batches, []) == problems
    for batch in batches:
        for cls, problem in zip(classify_profiles(batch), batch):
            _assert_same_cells(cls, classify_profile(*problem))
    split = experiments.run_large_value_suite(25, 20120117)
    assert [c.as_dict() for c in split["cells"]] == [c.as_dict() for c in whole["cells"]]


def test_lattice_chunks_are_never_one_row(monkeypatch):
    # 9-row spans at an 8-row chunk: cut 8 + 1, the lone row's lattice would
    # take numpy's matrix-vector path and change in the last bits
    lattice, rows = dirichlet.eval_factor_lattice, []

    def recording_lattice(f, c, bases, offsets):
        rows.append(len(bases))
        return lattice(f, c, bases, offsets)

    monkeypatch.setattr(dirichlet, "eval_factor_lattice", recording_lattice)
    monkeypatch.setattr(dirichlet, "ROW_CHUNK", 8)
    problems = [([unit_factor(8), mobius_factor(4)], 1.07, 8.0), ([unit_factor(8)], 1.2, 8.5),
                ([mobius_factor(4), unit_factor(8), log_factor(4)], 1.1, 12.0)]
    got = classify_profiles(problems)
    assert max(rows) <= 8 and min(rows) == 1
    for cls, (factors, c, T) in zip(got, problems):
        cells, s0, sups = _ref_classify_profile(factors, c, T)
        assert list(cls.cells.items()) == list(cells.items())
        assert cls.s0 == s0
        assert list(cls.floors.items()) == _ref_floors(cells, sups)


@pytest.mark.parametrize("problems", [
    [([unit_factor(8)] * 3, 1.3, 60.0)],
    [([mobius_factor(8), unit_factor(16), mobius_factor(8)], 1.12, 30.0)],
    [([unit_factor(256)] * 12, 1.1, 1.0, 1e6)],
    # repeats at interleaved positions, in problems that cross 8-row chunks,
    # beside problems that hold the same factor once
    [([log_factor(4), singleton_factor(), log_factor(4), unit_factor(4), log_factor(4)],
      1.07, 10.0),
     ([unit_factor(4)], 1.2, 9.0),
     ([unit_factor(4), log_factor(4), unit_factor(4)], 1.1, 12.5),
     ([log_factor(4), unit_factor(8)], 1.3, 7.0)],
])
def test_a_repeated_factor_is_evaluated_once_per_problem(monkeypatch, problems):
    lattice, rows = dirichlet.eval_factor_lattice, {}

    def counting_lattice(f, c, bases, offsets):
        rows[f] = rows.get(f, 0) + len(bases)
        return lattice(f, c, bases, offsets)

    monkeypatch.setattr(dirichlet, "eval_factor_lattice", counting_lattice)
    monkeypatch.setattr(dirichlet, "ROW_CHUNK", 8)
    got = classify_profiles(problems)
    want = {}
    for factors, c, T, *_ in problems:
        intervals = math.floor(2 * T) - math.ceil(T) + 1
        for f in set(factors) - {singleton_factor()}:
            want[f] = want.get(f, 0) + intervals
    assert rows == want  # each factor once per problem holding it, at any count of positions
    # bitwise the classification that evaluates each position's factor anew
    for cls, (factors, c, T, *floor_x) in zip(got, problems, strict=True):
        cells, s0, sups = _ref_classify_profile(factors, c, T, *floor_x)
        assert list(cls.cells.items()) == list(cells.items())
        assert cls.s0 == s0
        assert list(cls.floors.items()) == _ref_floors(cells, sups)


@pytest.mark.parametrize("bad,match", [
    ((["x"], 1.2, 40.0), "factors must be PolyFactor values"),
    ((unit_factor(8), 1.2, 40.0), "factors must be PolyFactor values"),
    (([unit_factor(8)], "1.2", 40.0), "c must be a real number"),
    (([unit_factor(8)], True, 40.0), "c must be a real number"),
    (([unit_factor(8)], math.nan, 40.0), "c must be finite"),
    (([unit_factor(8)], 1.2, "40"), "T must be a real number"),
    (([unit_factor(8)], 1.2, math.inf), "T must be finite and >= 1"),
    (([unit_factor(8)], 1.2, 40.0, 0.0), "floor_x must be finite and > 0"),
    (([unit_factor(8)], 1.2), "a problem is"),
], ids=["factor-str", "factor-not-list", "c-str", "c-bool", "c-nan", "T-str", "T-inf",
        "floor-zero", "short"])
def test_classify_profiles_names_a_bad_problem_before_any_work(monkeypatch, bad, match):
    def no_work(*args):
        raise AssertionError("a lattice was built before every problem was checked")

    monkeypatch.setattr(dirichlet, "eval_factor_lattice", no_work)
    good = ([unit_factor(8)], 1.1, 40.0)
    with pytest.raises(ValueError, match=f"^problem 2: {match}"):
        classify_profiles([good, good, bad, good])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [
    ([unit_factor(8)], -1000.0, 40.0),  # N^(1-c) over the float range
    ([unit_factor(4096)] * 100, 1.1, 40.0),  # the default floor_x, the product of the N
    ([unit_factor(16)], 1.1, 40.0, 1e308),  # N floor_x
    ([unit_factor(8)], 1.1, 10**400),
    ([unit_factor(8)], -300.0, 40.0),  # the size A = sum |a_n| n^(-c): 11^300 overflows
    ([unit_factor(8)] * 3, -100.0, 40.0),  # each A is finite, their product is not
], ids=["band-top", "default-floor", "floor-edge", "T-int", "size", "size-product"])
def test_classify_profiles_refuses_band_edges_over_the_float_range(monkeypatch, bad):
    def no_work(*args):
        raise AssertionError("a lattice was built before every problem was checked")

    good = ([unit_factor(8)], 1.1, 40.0)
    with pytest.raises(ValueError, match="^problem 0: .* in the float range$"):
        classify_profile(*bad)
    monkeypatch.setattr(dirichlet, "eval_factor_lattice", no_work)
    with pytest.raises(ValueError, match="^problem 2: .* in the float range$"):
        classify_profiles([good, good, bad, good])


def test_classification_near_the_float_range_keeps_working():
    assert classify_profile([unit_factor(16)], 1.1, 40.0, 1e307).total() == 41  # N floor_x 1.6e308
    # the ceiling's A^2 overflows to inf where the band edges do not: every
    # band is left in doubt and refined
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert classify_profile([unit_factor(8)], -140.0, 40.0).total() == 41


def test_classify_profile_refuses_non_factor_and_string_c():
    with pytest.raises(ValueError, match="factors must be PolyFactor values"):
        classify_profile(["x"], 1.2, 40.0)
    with pytest.raises(ValueError, match="c must be a real number"):
        classify_profile([unit_factor(8)], "1.2", 40.0)


def test_evaluators_take_c_per_point():
    # lattice blocks of two rows: numpy multiplies a single row by another path
    f, c = log_factor(8), np.array([1.05, 1.05, 1.3, 1.3, 1.2, 1.2])
    ts, offsets = np.array([40.0, 41.5, 90.25, 91.0, 200.0, 7.0]), np.linspace(0.0, 1.0, 5)
    grid = eval_factor_grid(f, c, ts)
    lattice = eval_factor_lattice(f, c, ts, offsets)
    for i in range(0, len(ts), 2):
        block = slice(i, i + 2)
        assert np.array_equal(grid[block], eval_factor_grid(f, float(c[i]), ts[block]))
        assert np.array_equal(lattice[block], eval_factor_lattice(f, float(c[i]), ts[block],
                                                                  offsets))
    with pytest.raises(ValueError, match="one value per point"):
        eval_factor_grid(f, c[:3], ts)


# ---------------------------------------------------------------------------
# array bands against the scalar band_index
# ---------------------------------------------------------------------------

def _ulps(x, k):
    """x and its neighbours up to k ulps away on either side."""
    out = [x]
    up = down = x
    for _ in range(k):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return out


def _scalar_bands(sups, N, c, floor_x):
    return [-1 if b is None else b for b in (band_index(float(s), N, c, floor_x) for s in sups)]


@pytest.mark.parametrize("N,c,floor_x", [
    (Q(8), 1.1, 32.0), (Q(16), 1.12, 128.0), (Q(32), 1.0517, 4096.0), (Q(4), 1.3, 3.0),
])
def test_array_bands_match_scalar_at_band_edges(N, c, floor_x):
    top = float(N) ** (1.0 - c)
    b_max = math.floor(math.log2(float(N) * floor_x) + 1e-12)
    sups = [0.0, top * 1.5, top * 4.0, top * 2.0**10]  # zero, and above top (clamped)
    for b in range(13):
        sups += _ulps(top * 2.0**-b, 4) + _ulps(top * 2.0 ** -(b + 1e-12), 4)
    for floor in (top * 2.0**-b_max, top / floor_x, top / (float(N) * floor_x)):
        sups += _ulps(floor, 4)
    sups = np.array(sups)
    assert _bands(sups, N, [c], [floor_x], np.zeros(len(sups), int)).tolist() == \
        _scalar_bands(sups, N, c, floor_x)


def test_array_bands_match_scalar_on_long_t_sups():
    fs, c = [unit_factor(16), mobius_factor(8)], 1.12
    ms = np.arange(3000, 6001, dtype=np.float64)
    floor_x = 128.0
    sup_sets = [_ref_sup_grid([f], c, ms, 32, 3) for f in fs]
    sup_sets.append(_ref_sup_grid(fs, c, ms, 32, 3))
    for f in fs:
        for sups in sup_sets:
            assert _bands(sups, f.N, [c], [floor_x], np.zeros(len(sups), int)).tolist() == \
                _scalar_bands(sups, f.N, c, floor_x)


@pytest.mark.parametrize("shift", [1e-10, -1e-10])
def test_band_fixup_absorbs_array_log2_errors(monkeypatch, shift):
    # np.log2 may differ from math.log2 in the last ulp; the scalar fix-up
    # must hold for any array error well inside its 1e-9 window
    N, c, floor_x = Q(16), 1.12, 128.0
    top = float(N) ** (1.0 - c)
    sups = np.array([s for b in range(13)
                     for s in _ulps(top * 2.0**-b, 2) + _ulps(top * 2.0 ** -(b + 2e-12), 2)])
    want = _scalar_bands(sups, N, c, floor_x)
    log2 = np.log2
    monkeypatch.setattr(np, "log2", lambda x: log2(x) + shift)
    assert _bands(sups, N, [c], [floor_x], np.zeros(len(sups), int)).tolist() == want


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_count_examples():
    cnt = count_R_Rstar([5, 6, 7], 4.0)
    assert (cnt.R, cnt.R_star) == (3, 19)
    assert count_R_Rstar([], 10.0) == count_R_Rstar([], 10.0)
    assert count_R_Rstar([], 10.0).R_star == 0


def rstar_bruteforce(members) -> int:
    """O(R^4) quadruple enumeration (the oracle for count_R_Rstar)."""
    ms = np.asarray(sorted(members), dtype=np.int64)
    if len(ms) == 0:
        return 0
    sums = (ms[:, None] + ms[None, :]).ravel()
    return int(np.count_nonzero(sums[:, None] == sums[None, :]))


def ap_rstar_exact(R: int) -> int:
    """Closed form (2R^3 + R)/3 for an arithmetic progression of length R."""
    return (2 * R**3 + R) // 3


def test_count_arithmetic_progression_closed_form():
    for R in (1, 2, 3, 4, 9):
        ap = list(range(R, 2 * R))
        assert count_R_Rstar(ap, float(R)).R_star == ap_rstar_exact(R)
        assert rstar_bruteforce(ap) == ap_rstar_exact(R)


def test_count_long_progression_closed_form():
    # the brute-force oracle would need R^4 = 5e12 comparisons here
    R = 1500
    cnt = count_R_Rstar(range(R, 2 * R), float(R))
    assert (cnt.R, cnt.R_star) == (R, ap_rstar_exact(R))


def test_count_rejects_spread_over_budget():
    T = 10**9
    with pytest.raises(CapacityError):
        count_R_Rstar([T, 2 * T - 1], float(T))


def test_count_matches_bruteforce_random():
    rng = random.Random(7)
    for _ in range(60):
        T = rng.randint(30, 80)
        size = rng.randint(0, 25)
        ms = sorted(rng.sample(range(T, 2 * T + 1), size))
        assert count_R_Rstar(ms, float(T)).R_star == rstar_bruteforce(ms)


def test_count_sandwich():
    rng = random.Random(3)
    for _ in range(50):
        T = rng.randint(30, 80)
        size = rng.randint(1, 25)
        ms = sorted(rng.sample(range(T, 2 * T + 1), size))
        cnt = count_R_Rstar(ms, float(T))
        assert cnt.R**2 <= cnt.R_star <= cnt.R**3


def test_count_rejects_out_of_range():
    with pytest.raises(ValueError):
        count_R_Rstar([5, 50], 10.0)


@pytest.mark.parametrize("ms", [[50, 60.5], [50.0, 60], [50, True], [np.float64(55.0)], ["55"],
                                [np.bool_(True)]],
                         ids=["fraction", "integral-float", "bool", "numpy-float", "str",
                              "numpy-bool"])
def test_count_refuses_non_integer_members(ms):
    # an int64 cast would drop the fraction and count {50, 60}: R* = 6
    with pytest.raises(ValueError, match="members must be integers"):
        count_R_Rstar(ms, 40.0)


def test_count_accepts_numpy_integers():
    assert count_R_Rstar([np.int64(50), np.int32(60), 70], 40.0) == count_R_Rstar([50, 60, 70], 40.0)


def test_count_domain_is_checked_at_both_ends():
    assert (count_R_Rstar([13], 10.0).R, count_R_Rstar([13], 10.0).R_star) == (1, 1)
    ends = count_R_Rstar([20, 10], 10.0)  # exactly T and 2T
    assert (ends.R, ends.R_star) == (2, rstar_bruteforce([10, 20]))
    assert count_R_Rstar([11, 21], 10.5).R == 2
    for ms, T in (([9, 15, 20], 10.0), ([10, 15, 21], 10.0), ([10, 16], 10.5), ([11, 22], 10.5)):
        with pytest.raises(ValueError, match="inside"):
            count_R_Rstar(ms, T)


# ---------------------------------------------------------------------------
# comparison formulas
# ---------------------------------------------------------------------------

def test_montgomery_rhs_plugin():
    e = math.e
    assert montgomery_rhs(e, 1.0, e, 1.0) == pytest.approx(2.0)
    # sigma' = 1/2 shape: log * (N + T) * mean_sq
    N, T = 9.0, 17.0
    assert montgomery_rhs(N, 0.5, T, 2.0) == pytest.approx(
        max(1.0, math.log(max(N, T))) * (N + T) * 2.0
    )


def test_huxley_rhs_plugin():
    e = math.e
    assert huxley_rhs(e, 1.0, e, 0.0) == pytest.approx(1 + 1 / e)
    # crossover N^(2-2s) = T N^(4-6s) at T = N^(4s-2): s=2/3 -> T = N^(2/3)
    N = 64.0
    T = N ** (2 / 3)
    s = 2 / 3
    assert N ** (2 - 2 * s) == pytest.approx(T * N ** (4 - 6 * s))


def hb_rstar_check(counts, N, sigma_prime, T) -> dict:
    rhs = hb_rstar_rhs(counts.R, counts.R_star, N, sigma_prime, T)
    ratio = float("nan") if rhs == 0 else counts.R_star / rhs
    return {
        "R": counts.R,
        "R_star": counts.R_star,
        "rhs": rhs,
        "ratio": ratio,
        "vacuous": counts.R == 0,
    }


def test_hb_rstar_plugin_and_vacuous():
    assert hb_rstar_rhs(0, 0, 5.0, 0.6, 10.0) == 0.0
    assert hb_rstar_rhs(1, 1, 1.0, 0.5, 1.0) == pytest.approx(3.0)
    rep = hb_rstar_check(count_R_Rstar([], 10.0), 5.0, 0.6, 10.0)
    assert rep["vacuous"]


@pytest.mark.parametrize("kwargs", [
    {"n_experiments": 2.5}, {"n_experiments": True}, {"seed": None}, {"seed": 1.5},
    {"seed": "x"}, {"seed": True},
], ids=["experiments-float", "experiments-bool", "seed-none", "seed-float", "seed-str",
        "seed-bool"])
def test_large_value_suite_refuses_non_integer_counts_and_seeds(kwargs):
    from gapscope.experiments import run_large_value_suite

    name = next(iter(kwargs))
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        run_large_value_suite(**{"n_experiments": 1, **kwargs})


def test_large_value_suite_caps_its_experiments():
    from gapscope.experiments import MAX_EXPERIMENTS, run_large_value_suite

    t0 = time.perf_counter()
    with pytest.raises(CapacityError, match="10001 experiments over the cap 10000"):
        run_large_value_suite(MAX_EXPERIMENTS + 1)
    assert time.perf_counter() - t0 < 1.0
    assert run_large_value_suite(0)["n_cells"] == 0
