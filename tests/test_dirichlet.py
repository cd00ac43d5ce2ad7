"""Polynomial evaluation, sups, classification, and R/R* counting."""

import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest

from gapscope.dirichlet import (
    ap_rstar_exact,
    band_index,
    classify_profile,
    count_R_Rstar,
    eval_factor,
    eval_factor_lattice,
    eval_product_grid,
    hb_rstar_check,
    hb_rstar_rhs,
    huxley_rhs,
    lipschitz_bound,
    log_factor,
    mobius_factor,
    montgomery_rhs,
    rstar_bruteforce,
    singleton_factor,
    sup_on_unit_interval,
    unit_factor,
)
from gapscope.errors import CapacityError


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# sups
# ---------------------------------------------------------------------------

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


def test_sup_lipschitz_padding_is_finite():
    assert lipschitz_bound(unit_factor(32), 1.1) > 0


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
    assert sorted(cls.sups) == list(range(200, 401))
    for m, sup in cls.sups.items():
        ref = sup_on_unit_interval(facs, 1.12, m).value
        assert sup == pytest.approx(ref, rel=1e-10), m


def test_profile_sigma_grid_spacing():
    cls = classify_profile([unit_factor(16)], 1.1, 60)
    for profile in cls.cells:
        (b,) = profile.band_indices
        (sigma,) = profile.sigmas
        assert sigma == pytest.approx(1.0 - b * math.log(2) / math.log(16.0))
        assert sigma <= 1.0


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_count_examples():
    cnt = count_R_Rstar([5, 6, 7], 4.0)
    assert (cnt.R, cnt.R_star) == (3, 19)
    assert count_R_Rstar([], 10.0) == count_R_Rstar([], 10.0)
    assert count_R_Rstar([], 10.0).R_star == 0


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


def test_hb_rstar_plugin_and_vacuous():
    assert hb_rstar_rhs(0, 0, 5.0, 0.6, 10.0) == 0.0
    assert hb_rstar_rhs(1, 1, 1.0, 0.5, 1.0) == pytest.approx(3.0)
    rep = hb_rstar_check(count_R_Rstar([], 10.0), 5.0, 0.6, 10.0)
    assert rep["vacuous"]
