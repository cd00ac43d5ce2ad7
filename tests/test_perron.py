"""Truncated Perron windows: the closed form against a Gauss-Legendre oracle,
E1 against scipy and mpmath, direct sums, residual envelopes, C1/C2 bounds."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special

from gapscope import perron
from gapscope.dirichlet import (
    eval_factor_lattice,
    log_factor,
    mobius_factor,
    singleton_factor,
    unit_factor,
)
from gapscope.experiments import PERRON_DECAY_CONFIGS, _decay_factors
from gapscope.perron import (
    direct_window_sum,
    exp1,
    make_perron_params,
    perron_window,
    perron_window_scan,
)


# ---------------------------------------------------------------------------
# The C1, C2 multipliers and the tail of the line integral as E1 differences
# ---------------------------------------------------------------------------

def c1_factor(s: complex, tau: float) -> complex:
    """((1 + 1/tau)^s - 1)/s; bounded by O(1/tau) on the contour."""
    u = math.log1p(1.0 / tau)
    return (np.exp(s * u) - 1.0) / s


def c2_factor(s: complex, tau: float) -> complex:
    """((1 + 1/tau)^s - 1 - s/tau)/s; bounded by O(|s|/tau^2)."""
    u = math.log1p(1.0 / tau)
    return (np.exp(s * u) - 1.0 - s / tau) / s


def tail_segment(params, factors, t_lo, t_hi):
    """|Int over the vertical segment t in [t_lo, t_hi] of y^s C1(s) S(s) dt|.

    Localizes which heights dominate the window truncation error.  A term
    integrates to i E1(-s log z) between the heights (t_lo >= T1 > 0 keeps
    the path off the cut), or to -i log((c + i t_hi)/(c + i t_lo)) at z = 1.
    """
    if not (params.T1 <= t_lo <= t_hi <= params.T0):
        raise ValueError("need T1 <= t_lo <= t_hi <= T0")
    top, bottom, an = perron._window_logs(factors, params.y, params.tau)
    s_lo, s_hi = complex(params.c, t_lo), complex(params.c, t_hi)
    return abs(complex((_segment(top, s_lo, s_hi) - _segment(bottom, s_lo, s_hi)) @ an))


def _segment(logs: np.ndarray, s_lo: complex, s_hi: complex) -> np.ndarray:
    """Int e^(sL)/s dt from s_lo to s_hi on the c-line, per log-ratio L."""
    on_one = logs == 0.0
    w = -np.where(on_one, 1.0, logs)
    return np.where(on_one, -1j * np.log(s_hi / s_lo), 1j * (exp1(s_hi * w) - exp1(s_lo * w)))


# ---------------------------------------------------------------------------
# Gauss-Legendre oracle: fixed-width panels on [lo, hi], the full panels one
# lattice of midpoints and shared Gauss offsets, the last panel its own row.
# ---------------------------------------------------------------------------

def eval_product_lattice(factors, c, bases, offsets):
    """Product of the factor values on the lattice t = bases[k] + offsets[j]."""
    out = np.ones((len(bases), len(offsets)), dtype=complex)
    for f in factors:
        out *= eval_factor_lattice(f, c, bases, offsets)
    return out


def _panel_sums(factors, p, lo, hi, width=1.0, order=24):
    """Complex quadrature sum of y^s C1(s) S(s) over each panel, in panel order."""
    x, w = np.polynomial.legendre.leggauss(order)
    n_panels = max(1, math.ceil((hi - lo) / width - 1e-12))
    edges = lo + width * np.arange(n_panels, dtype=np.float64)
    last = float(edges[-1])
    lattices = [((edges[:-1] + edges[1:]) / 2, width / 2 * x, width / 2 * w),
                (np.array([(last + hi) / 2]), (hi - last) / 2 * x, (hi - last) / 2 * w)]
    sums = []
    for bases, offsets, weights in lattices:
        for a in range(0, len(bases), 4096):
            rows = bases[a : a + 4096]
            s = p.c + 1j * (rows[:, None] + offsets[None, :])
            vals = (np.exp(s * math.log(p.y)) * c1_factor(s, p.tau)
                    * eval_product_lattice(factors, p.c, rows, offsets))
            sums.append((vals * weights).sum(axis=1))
    return np.concatenate(sums)


def _oracle_window(p, factors, width=1.0, order=24):
    return float(np.sum(_panel_sums(factors, p, 0.0, p.T0, width, order).real)) / math.pi


def _oracle_scan(y, tau, factors, top, width=1.0, order=12):
    """Quadrature estimates at every panel edge up to top (the last one top)."""
    p = make_perron_params(y, tau, T0=top)
    return np.cumsum(_panel_sums(factors, p, 0.0, top, width, order).real) / math.pi


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
    # the oracle converges under panel halving, to the closed form
    p = make_perron_params(201.5, 10, T0=2000.0)
    q1 = _oracle_window(p, [unit_factor(64)], width=1.0)
    q2 = _oracle_window(p, [unit_factor(64)], width=0.5)
    rel = abs(q1 - q2) / max(1e-12, abs(q2))
    assert rel < 1e-6
    assert perron_window(p, [unit_factor(64)]).estimate == pytest.approx(q2, rel=1e-9)


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
    rep = perron_window(make_perron_params(y, tau, T0=T0), factors)
    assert T0 % 1.0 > 0.01
    ref = _reference_integral(factors, y, tau, T0)
    assert rep.estimate == pytest.approx(ref, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("kwargs", [
    {"panel_width": 0.0}, {"panel_width": -1.0}, {"panel_width": float("nan")},
    {"panel_width": float("inf")}, {"gauss_order": 0},
])
def test_bad_panels_rejected(kwargs):
    # only the scan takes them: panel_width is its height grid, and gauss_order
    # is validated but unused by the closed form
    with pytest.raises(ValueError):
        perron_window_scan(100, 5, [unit_factor(8)], [200.0, 400.0], **kwargs)


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
    from test_identity import mobius

    assert got == pytest.approx(sum(mobius(n) for n in range(21, 31)))


# ---------------------------------------------------------------------------
# The closed form: E1, then the kernel against the Gauss-Legendre oracle
# ---------------------------------------------------------------------------

#: Points next to the branch cut, 4 <= |w| <= 20, where the continued
#: fraction alone is off by up to 3.5e-3 (tiny heights, small n).
NEAR_CUT = [-8.3 - 0.07j, -4.5 + 0.01j, -19.5 - 0.2j]


def _kernel_arguments():
    """w = -(c + iT) log z for T in [1e-3, 1e9] and |log z| <= 8, plus NEAR_CUT."""
    T = np.geomspace(1e-3, 1e9, 25)
    logs = np.geomspace(1e-6, 8.0, 13)
    logs = np.concatenate([-logs, logs])
    w = [-np.multiply.outer(c + 1j * T, logs).ravel() for c in (1.1, 1.2, 1.91)]
    return np.concatenate(w + [np.array(NEAR_CUT)])


def test_exp1_matches_scipy_and_mpmath():
    w = _kernel_arguments()
    got = exp1(w)
    ref = scipy.special.exp1(w)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12
    mpmath.mp.dps = 30
    for z, g in zip(w[::7].tolist() + NEAR_CUT, got[::7].tolist() + exp1(NEAR_CUT).tolist()):
        e = complex(mpmath.e1(mpmath.mpc(z.real, z.imag)))
        assert abs(g - e) <= 1e-12 * abs(e), z
    assert exp1(np.array([], dtype=complex)).shape == (0,)


@pytest.mark.parametrize("config", PERRON_DECAY_CONFIGS, ids=str)
def test_closed_form_matches_oracle_on_decay_configs(config):
    # the scan reads each checkpoint at the panel edge the quadrature ended on
    y, tau, N, kind = config
    factors = _decay_factors(N, kind)
    T0 = tau * math.log(y) ** 3
    cps = [T0 * 2**j * (1 + i / 6) for j in range(4) for i in range(6)]
    top = max(cps)
    prefix = _oracle_scan(y, tau, factors, top)
    for r, t in zip(perron_window_scan(y, tau, factors, cps), sorted(cps)):
        idx = min(len(prefix) - 1, max(0, round(t) - 1))
        assert r.params.T0 == min(top, idx + 1.0)
        assert abs(r.estimate - prefix[idx]) <= 1e-9, (t, r.estimate, prefix[idx])


def test_window_edges_on_support_points_match_oracle():
    # n = y = 200 sits on the window edge, where J_T(1) = atan(T/c)/pi
    y, tau = 200.0, 4.0
    top, bottom, _ = perron._window_logs([unit_factor(128)], y, tau)
    assert np.count_nonzero(bottom == 0.0) == 1
    for factors in ([unit_factor(128)], [log_factor(128), singleton_factor()]):
        for T0 in (37.25, 400.0):
            p = make_perron_params(y, tau, T0=T0)
            got = perron_window(p, factors).estimate
            assert got == pytest.approx(_oracle_window(p, factors), rel=1e-12, abs=1e-9)


def test_tail_segment_matches_oracle():
    p = make_perron_params(200.0, 4.0, T0=500.0)
    # log:128 weighs the z = 1 terms at n = 200 and n = 250 differently
    for factors in ([unit_factor(128)], [log_factor(128)], [mobius_factor(16), unit_factor(8)]):
        for lo, hi in ((p.T1, 500.0), (10.0, 55.5), (123.4, 123.9)):
            ref = abs(complex(np.sum(_panel_sums(factors, p, lo, hi))))
            assert tail_segment(p, factors, lo, hi) == pytest.approx(ref, rel=1e-9), (lo, hi)


def test_estimate_blocks_stay_within_eval_budget(monkeypatch):
    y, tau, factors = 150.5, 5.4, [unit_factor(16)]
    cps = [100.0 * k for k in range(1, 11)]
    whole = [r.estimate for r in perron_window_scan(y, tau, factors, cps)]
    blocks = []
    kernel = perron._perron_j

    def spy(logs, c, heights):
        blocks.append(len(logs) * len(heights))
        return kernel(logs, c, heights)

    monkeypatch.setattr(perron, "_perron_j", spy)
    monkeypatch.setattr(perron, "_J_BUDGET", 40)
    chunked = [r.estimate for r in perron_window_scan(y, tau, factors, cps)]
    assert len(blocks) == 10 and max(blocks) <= 40
    assert chunked == pytest.approx(whole, rel=1e-14)


def test_estimate_memory_stays_within_the_chunk_budget(monkeypatch):
    # 64^3 = 262,144 product terms, all above the window, in chunks of
    # _J_BUDGET: E1 holds about 150 bytes an element of one chunk, beside
    # the support's arrays and their build (about 24 bytes a term)
    p = make_perron_params(201.5, 10)
    factors = [unit_factor(64), log_factor(64), mobius_factor(64)]
    terms = 64**3
    tracemalloc.start()
    try:
        chunked = perron_window(p, factors).estimate
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * terms + 256 * perron._J_BUDGET, peak
    monkeypatch.setattr(perron, "_J_BUDGET", terms)  # one chunk: the unchunked sum
    whole = perron_window(p, factors).estimate
    # chunks only reassociate the sum over terms, far inside 1e-12
    assert chunked == pytest.approx(whole, rel=1e-12)
