"""Truncated Perron windows: direct sums, residual envelopes, C1/C2 bounds."""

import math

import numpy as np
import pytest

from gapscope.dirichlet import (
    log_factor,
    mobius_factor,
    singleton_factor,
    unit_factor,
)
from gapscope.perron import (
    c1_factor,
    c2_factor,
    direct_window_sum,
    make_perron_params,
    perron_window,
    perron_window_scan,
    tail_segment,
)


def test_params_defaults():
    p = make_perron_params(10**4, 100)
    ly = math.log(10**4)
    assert p.c == pytest.approx(1 + 1 / ly)
    assert p.T0 == pytest.approx(100 * ly**3)
    assert p.T1 == pytest.approx(10 ** (4 / 8))
    assert p.T1 < p.T0 and p.c > 1


def test_direct_window_sum_examples():
    # y=9, tau=3: (9, 12] meets (8, 16] in {10, 11, 12}
    assert direct_window_sum([unit_factor(8)], 9.0, 3.0) == 3.0
    assert direct_window_sum([unit_factor(8)], 100.0, 3.0) == 0.0
    got = direct_window_sum([log_factor(8)], 9.0, 3.0)
    assert got == pytest.approx(sum(math.log(n) for n in (10, 11, 12)))
    # singleton contributes the identity
    assert direct_window_sum(
        [unit_factor(8), singleton_factor()], 9.0, 3.0
    ) == 3.0


def test_perron_window_unit8():
    params = make_perron_params(9, 3, T0=200.0)
    rep = perron_window(params, [unit_factor(8)])
    assert rep.direct == 3.0
    assert rep.residual <= rep.envelope_base * 50
    assert rep.estimate == pytest.approx(3.0, abs=0.05)


def test_quadrature_panel_halving():
    p = make_perron_params(201.5, 10, T0=2000.0)
    r1 = perron_window(p, [unit_factor(64)], panel_width=1.0)
    r2 = perron_window(p, [unit_factor(64)], panel_width=0.5)
    rel = abs(r1.estimate - r2.estimate) / max(1e-12, abs(r2.estimate))
    assert rel < 1e-6


def test_scan_matches_individual_windows():
    y, tau = 150.5, 5.4
    T0s = [600.0, 1200.0]
    reps = perron_window_scan(y, tau, [unit_factor(16)], T0s, gauss_order=24)
    for r, T0 in zip(reps, T0s):
        single = perron_window(make_perron_params(y, tau, T0=T0), [unit_factor(16)])
        assert r.estimate == pytest.approx(single.estimate, rel=1e-9)


def _reference_integral(factors, y, tau, T0, width=1.0, order=12):
    """Node-by-node Gauss-Legendre estimate over [0, T0] (conjugate symmetry)."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = [0.0]
    while edges[-1] + width < T0 - 1e-12:
        edges.append(edges[-1] + width)
    edges.append(T0)
    ts = np.concatenate([(a + b) / 2 + (b - a) / 2 * x for a, b in zip(edges, edges[1:])])
    ws = np.concatenate([(b - a) / 2 * w for a, b in zip(edges, edges[1:])])
    c = 1 + 1 / math.log(y)
    s = c + 1j * ts
    vals = np.exp(s * math.log(y)) * (np.exp(s * math.log1p(1 / tau)) - 1) / s
    for f in factors:
        ns, an = f.support()
        logs = np.log(ns.astype(float))
        vals *= np.exp(-np.outer(s, logs)) @ an
    return float(np.sum(vals * ws).real) / math.pi


def test_scan_and_window_match_node_by_node_reference():
    from gapscope.experiments import _decay_factors

    y, tau, N, kind = 100.5, 4.6, 16, "mobius"  # a frozen decay config
    factors = _decay_factors(N, kind)
    T0 = tau * math.log(y) ** 3
    cps = [T0 * 2**j * (1 + i / 6) for j in range(4) for i in range(6)]
    assert max(cps) % 1.0 > 0.01  # the top height ends in a partial panel
    reps = perron_window_scan(y, tau, factors, cps, gauss_order=12)
    # the window misses the factor's support (direct = 0), so the estimates are
    # truncation error alone, down to 3e-5; the absolute floor is rounding level
    for r in reps:
        ref = _reference_integral(factors, y, tau, r.params.T0)
        assert r.estimate == pytest.approx(ref, rel=1e-9, abs=1e-12), r.params.T0
    rep = perron_window(make_perron_params(y, tau, T0=T0), factors, gauss_order=12)
    assert T0 % 1.0 > 0.01
    ref = _reference_integral(factors, y, tau, T0)
    assert rep.estimate == pytest.approx(ref, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("kwargs", [
    {"panel_width": 0.0}, {"panel_width": -1.0}, {"panel_width": float("nan")},
    {"panel_width": float("inf")}, {"gauss_order": 0},
])
def test_bad_panels_rejected(kwargs):
    p = make_perron_params(100, 5, T0=500.0)
    f = [unit_factor(8)]
    with pytest.raises(ValueError):
        perron_window(p, f, **kwargs)
    with pytest.raises(ValueError):
        perron_window_scan(100, 5, f, [200.0, 400.0], **kwargs)
    with pytest.raises(ValueError):
        tail_segment(p, f, 10.0, 100.0, **kwargs)
    with pytest.raises(ValueError):
        tail_segment(p, f, p.T1, p.T1, **kwargs)


@pytest.mark.parametrize("checkpoints", [
    [], [-5.0], [0.0], [200.0, -1.0], [float("nan")], [float("inf")], [200.0, float("-inf")],
])
def test_bad_checkpoints_rejected(checkpoints):
    with pytest.raises(ValueError, match="t_checkpoints"):
        perron_window_scan(100, 5, [unit_factor(8)], checkpoints)


def test_residual_shrinks_over_octaves():
    from gapscope.experiments import octave_residuals

    octs, K = octave_residuals(150.5, 5.4, [unit_factor(8)])
    assert all(octs[i + 1] <= 1.1 * octs[i] for i in range(3))
    assert K <= 50


def test_c1_c2_bounds_on_samples():
    for tau in (2.0, 5.0, 37.0):
        for y in (50.0, 1000.0):
            c = 1 + 1 / math.log(y)
            ts = np.linspace(0.0, 50 * tau, 301)
            for t in ts:
                s = complex(c, t)
                assert abs(c1_factor(s, tau)) <= 2.0 / tau + 1e-12
                assert abs(c2_factor(s, tau)) <= 2.0 * abs(s) / tau**2 + 1e-12


def test_tail_segment():
    p = make_perron_params(100, 5, T0=500.0)
    assert tail_segment(p, [unit_factor(8)], p.T1, p.T1) == 0.0
    v1 = tail_segment(p, [unit_factor(8)], 10.0, 100.0)
    v2 = tail_segment(p, [unit_factor(8)], 10.0, 55.0)
    v3 = tail_segment(p, [unit_factor(8)], 55.0, 100.0)
    assert v1 <= v2 + v3 + 1e-9  # triangle inequality across the split
    with pytest.raises(ValueError):
        tail_segment(p, [unit_factor(8)], 1.0, 100.0)  # below T1


def test_mobius_window_direct():
    # (20, 30] meets the mu-weighted block (16, 32]
    got = direct_window_sum([mobius_factor(16)], 20.0, 2.0)
    from gapscope.identity import mobius

    assert got == pytest.approx(sum(mobius(n) for n in range(21, 31)))
