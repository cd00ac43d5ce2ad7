"""Truncated Perron-window estimates for products of short polynomials.

The count of window coefficients sum_{y < n <= y + y/tau} a_n is recovered
from the line integral

    (1/2 pi) Int_{-T0}^{T0} y^(c+it) C1(c+it) S(c+it) dt,

with C1(s) = ((1+1/tau)^s - 1)/s, S the factor product, and c = 1 + 1/log y.
The truncation error is O(y log^2 y / T0 + log y); `perron_window` reports
the exact direct coefficient sum, the quadrature estimate, their residual,
and that envelope base so callers can track the implied constant.

Quadrature is Gauss-Legendre on fixed-width panels (default one unit).  The
integrand oscillates like exp(it log(y x1)), a few cycles per unit panel at
desk scale, so moderate orders converge to well below the truncation error;
halving the panel width is the documented convergence check.

The panels share their Gauss offsets, so the nodes form a lattice
t = midpoint_k + (width/2) x_j, and the factor product is evaluated as one
phase-factored lattice (`dirichlet.eval_product_lattice`): n^(-it) =
n^(-i midpoint) n^(-i offset) costs N exponentials per panel plus one
matrix product.  The last panel, partial unless the width divides the
range, is its own one-row lattice.  The integrand is built 4096 panels at a
time, the per-node y^s C1(s) times the lattice values; within that the
kernel keeps each chunk's rows x max(N, order) within `EVAL_BUDGET`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .dirichlet import PolyFactor, eval_product_lattice
from .errors import CapacityError, QuadratureError
from .identity import product_terms

#: Panels per integrand evaluation, which bounds the per-node arrays.
_PANEL_CHUNK = 4096


@dataclass(frozen=True)
class PerronParams:
    y: float
    tau: float
    c: float
    T0: float
    T1: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.y, self.tau, self.c, self.T0, self.T1))):
            raise ValueError("need finite y, tau, c, T0 and T1")
        if self.T0 <= 0:
            raise ValueError("need T0 > 0")
        if self.y < 3 or self.tau < 2:
            raise ValueError("need y >= 3 and tau >= 2")
        if self.c <= 1.0:
            raise ValueError("contour must sit right of the 1-line")


def make_perron_params(
    y: float, tau: float, c: float | None = None,
    T0: float | None = None, T1: float | None = None,
) -> PerronParams:
    """Defaults c = 1 + 1/log y, T0 = tau log^3 y, T1 = y^(1/8)."""
    ly = math.log(y)
    return PerronParams(
        y=float(y),
        tau=float(tau),
        c=float(c) if c is not None else 1.0 + 1.0 / ly,
        T0=float(T0) if T0 is not None else tau * ly**3,
        T1=float(T1) if T1 is not None else y**0.125,
    )


def c1_factor(s: complex, tau: float) -> complex:
    """((1 + 1/tau)^s - 1)/s; bounded by O(1/tau) on the contour."""
    u = math.log1p(1.0 / tau)
    return (np.exp(s * u) - 1.0) / s


def c2_factor(s: complex, tau: float) -> complex:
    """((1 + 1/tau)^s - 1 - s/tau)/s; bounded by O(|s|/tau^2)."""
    u = math.log1p(1.0 / tau)
    return (np.exp(s * u) - 1.0 - s / tau) / s


@lru_cache(maxsize=32)
def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _panel_nodes(lo: float, hi: float, width: float, order: int):
    """Gauss nodes and weights tiling [lo, hi] with fixed-width panels, as lattices.

    Returns [(bases, offsets, weights), ...] with nodes t = bases[k] +
    offsets[j] and weights shared by every row: first the full panels, whose
    midpoints share the offsets width/2 x and weights width/2 w, then the last
    panel (partial unless width divides hi - lo) as a one-row lattice.
    """
    if not (math.isfinite(width) and width > 0):
        raise ValueError("panel_width must be finite and positive")
    if order < 1:
        raise ValueError("gauss_order must be >= 1")
    x, w = _gauss_nodes(order)
    n_panels = max(1, math.ceil((hi - lo) / width - 1e-12))
    edges = lo + width * np.arange(n_panels, dtype=np.float64)
    half = width / 2.0
    last = float(edges[-1])
    last_half = (hi - last) / 2.0
    return [
        ((edges[:-1] + edges[1:]) / 2.0, half * x, half * w),
        (np.array([(last + hi) / 2.0]), last_half * x, last_half * w),
    ]


def _window_integrand(
    factors: Sequence[PolyFactor], params: PerronParams,
    bases: np.ndarray, offsets: np.ndarray,
) -> np.ndarray:
    """y^s C1(s) S(s) at s = c + i(bases[k] + offsets[j]), one row per base."""
    s = params.c + 1j * (bases[:, None] + offsets[None, :])
    vals = (
        np.exp(s * math.log(params.y))
        * c1_factor(s, params.tau)
        * eval_product_lattice(factors, params.c, bases, offsets)
    )
    if not np.all(np.isfinite(vals)):
        raise QuadratureError(
            "non-finite integrand",
            {"t_range": [float(s.imag.min()), float(s.imag.max())]},
        )
    return vals


def _panel_sums(
    factors: Sequence[PolyFactor], params: PerronParams,
    lo: float, hi: float, width: float, order: int,
) -> np.ndarray:
    """Complex quadrature sum of each panel tiling [lo, hi], in panel order."""
    sums = []
    for bases, offsets, weights in _panel_nodes(lo, hi, width, order):
        for a in range(0, len(bases), _PANEL_CHUNK):
            vals = _window_integrand(factors, params, bases[a : a + _PANEL_CHUNK], offsets)
            sums.append((vals * weights).sum(axis=1))
    return np.concatenate(sums)


def direct_window_sum(factors: Sequence[PolyFactor], y: float, tau: float) -> float:
    """Exact sum of product coefficients over (y, y + y/tau]."""
    budget = math.prod(max(1.0, float(f.N)) for f in factors)
    if budget > 10**7:
        raise CapacityError("window coefficient sum over budget")
    ns, an = product_terms([f.support() for f in factors], y + y / tau)
    return float(an[ns > y].sum())


@dataclass(frozen=True)
class PerronReport:
    params: PerronParams
    estimate: float
    direct: float
    residual: float
    envelope_base: float  # y log^2 y / T0 + log y
    panels: int

    @property
    def implied_constant(self) -> float:
        return self.residual / self.envelope_base

    def as_dict(self) -> dict:
        return {
            "y": self.params.y,
            "tau": self.params.tau,
            "T0": self.params.T0,
            "estimate": self.estimate,
            "direct": self.direct,
            "residual": self.residual,
            "envelope": self.envelope_base,
            "implied_constant": self.implied_constant,
        }


def perron_window(
    params: PerronParams,
    factors: Sequence[PolyFactor],
    panel_width: float = 1.0,
    gauss_order: int = 24,
) -> PerronReport:
    """Quadrature estimate of the window sum next to its exact value.

    The integrand is conjugate-symmetric in t (real coefficients), so only
    [0, T0] is integrated.  Panel sums are accumulated in a fixed order to
    keep reruns bit-identical for a given panel count.
    """
    sums = _panel_sums(factors, params, 0.0, params.T0, panel_width, gauss_order)
    estimate = float(np.sum(sums.real)) / math.pi
    direct = direct_window_sum(factors, params.y, params.tau)
    residual = abs(estimate - direct)
    ly = math.log(params.y)
    envelope = params.y * ly**2 / params.T0 + ly
    return PerronReport(params, estimate, direct, residual, envelope, len(sums))


def perron_window_scan(
    y: float,
    tau: float,
    factors: Sequence[PolyFactor],
    t_checkpoints: Sequence[float],
    panel_width: float = 1.0,
    gauss_order: int = 16,
) -> list[PerronReport]:
    """Residuals at several truncation heights from one quadrature pass.

    Integrates once up to max(t_checkpoints) accumulating per-panel sums,
    then reads off the estimate at the panel edge nearest each checkpoint.
    Used by the truncation-decay experiments, where re-integrating from 0
    for every T0 doubling would be quadratic work.
    """
    checkpoints = sorted(float(t) for t in t_checkpoints)
    if not checkpoints or not all(math.isfinite(t) and t > 0 for t in checkpoints):
        raise ValueError("t_checkpoints must be a non-empty list of finite positive heights")
    top = checkpoints[-1]
    params_top = make_perron_params(y, tau, T0=top)
    prefix = np.cumsum(
        _panel_sums(factors, params_top, 0.0, top, panel_width, gauss_order).real
    )
    n_panels = len(prefix)
    direct = direct_window_sum(factors, y, tau)
    ly = math.log(y)

    reports = []
    for T0 in checkpoints:
        idx = min(n_panels - 1, max(0, int(round(T0 / panel_width)) - 1))
        t_actual = min(top, (idx + 1) * panel_width)
        estimate = float(prefix[idx]) / math.pi
        residual = abs(estimate - direct)
        envelope = y * ly**2 / t_actual + ly
        reports.append(PerronReport(
            make_perron_params(y, tau, T0=t_actual),
            estimate, direct, residual, envelope, idx + 1,
        ))
    return reports


def tail_segment(
    params: PerronParams,
    factors: Sequence[PolyFactor],
    t_lo: float,
    t_hi: float,
    panel_width: float = 1.0,
    gauss_order: int = 24,
) -> float:
    """|Int over the vertical segment t in [t_lo, t_hi] of y^s C1(s) S(s) ds|.

    Localizes which heights dominate the window truncation error.
    """
    if not (params.T1 <= t_lo <= t_hi <= params.T0):
        raise ValueError("need T1 <= t_lo <= t_hi <= T0")
    sums = _panel_sums(factors, params, t_lo, t_hi, panel_width, gauss_order)
    return abs(complex(np.sum(sums)))
