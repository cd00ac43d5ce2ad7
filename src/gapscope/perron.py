"""Truncated Perron-window estimates for products of short polynomials.

The window sum sum_{y < n <= y + y/tau} a_n is recovered from the integral

    (1/2 pi) Int_{-T0}^{T0} y^(c+it) C1(c+it) S(c+it) dt,

with C1(s) = ((1+1/tau)^s - 1)/s, S the factor product, and c = 1 + 1/log y.
The truncation error is O(y log^2 y / T0 + log y); `perron_window` reports
the exact direct coefficient sum, the truncated estimate, their residual,
and that envelope base so callers can track the implied constant.

The integral is linear in the coefficients and has a closed form: with
x1 = y (1 + 1/tau), estimate(T) = sum_n a_n [J_T(x1/n) - J_T(y/n)] and

    J_T(z) = (1/2 pi i) Int_{c-iT}^{c+iT} z^s/s ds
           = [z > 1] - Im E1(-(c + iT) log z)/pi,   J_T(1) = atan(T/c)/pi,

E1 the principal-branch exponential integral, whose jump across the cut is
the indicator (Montgomery-Vaughan, Multiplicative Number Theory I, 5.1;
DLMF 6).  Every product term enters, also those above the window: their J_T
is truncation error.  The work is O(support) per height, at any height; the
tests keep Gauss-Legendre quadrature of the line integral as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dirichlet import PolyFactor
from .errors import CapacityError, QuadratureError
from .identity import product_terms

#: E1 stopping tolerance, a few ulps (a tighter one is never met), and the
#: iteration cap of both E1 loops; the domain split needs at most ~250.
_E1_TOL = 1e-15
_E1_MAX_ITER = 1000
#: Elements (heights x terms) of one `_perron_j` call.  E1 holds about 150
#: bytes per element, so its working set stays near 5 MB whatever the
#: product support; 2^14 and 2^15 ran fastest on an 8.4M-term product.
_J_BUDGET = 2**15


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


def exp1(w) -> np.ndarray:
    """Principal-branch E1(w) of a complex array, w != 0 and off the cut past |w| = 40.

    The power series (DLMF 6.6.2) covers |w| <= 2, the left half-disc |w| <= 5
    and the wedge Re w < -2 |Im w|, |w| < 40 around the cut, where the
    continued fraction is slow or inexact; the continued fraction (DLMF 6.9.1,
    modified Lentz) covers the rest, where the series would cancel.  Perron
    heights are positive, so the kernel's arguments are never on the cut.
    An argument far out on the left overflows e^-w to a non-finite value
    without a warning; the caller's finiteness check reports it.
    """
    w = np.asarray(w, dtype=complex)
    r, re = np.abs(w), w.real
    series = (r <= 2.0) | ((re < 0) & ((r <= 5.0) | ((re < -2.0 * np.abs(w.imag)) & (r < 40.0))))
    out = np.empty_like(w)
    with np.errstate(over="ignore", invalid="ignore"):
        out[series] = _e1_series(w[series])
        out[~series] = _e1_fraction(w[~series])
    return out


def _e1_series(w: np.ndarray) -> np.ndarray:
    """-gamma - log w - sum_{k>=1} (-w)^k / (k k!)."""
    term, total = np.ones_like(w), np.zeros_like(w)
    for k in range(1, _E1_MAX_ITER):
        term *= -w / k
        total += term / k
        if np.all(np.abs(term) <= _E1_TOL * k * np.abs(total)):
            return -np.euler_gamma - np.log(w) - total
    raise QuadratureError("E1 power series did not converge")


def _e1_fraction(w: np.ndarray) -> np.ndarray:
    """e^-w / (w + 1 - 1/(w + 3 - 4/(w + 5 - 9/(w + 7 - ...))))."""
    b, c = w + 1.0, np.full_like(w, 1e300)
    d = h = 1.0 / b
    for i in range(1, _E1_MAX_ITER):
        b = b + 2.0
        d = 1.0 / (b - i * i * d)
        c = b - i * i / c
        delta = c * d
        h *= delta
        if np.all(np.abs(delta - 1.0) <= _E1_TOL):
            return h * np.exp(-w)
    raise QuadratureError("E1 continued fraction did not converge")


def _perron_j(logs: np.ndarray, c: float, heights: np.ndarray) -> np.ndarray:
    """J_T(e^L) with one row per height T and one column per log-ratio L."""
    on_one = logs == 0.0
    w = -np.multiply.outer(c + 1j * heights, np.where(on_one, 1.0, logs))
    j = (logs > 0) - exp1(w).imag / math.pi
    return np.where(on_one, np.arctan(heights / c)[:, None] / math.pi, j)


def _product(factors: Sequence[PolyFactor], hi: float) -> tuple[np.ndarray, np.ndarray]:
    if math.prod(max(1.0, float(f.N)) for f in factors) > 10**7:
        raise CapacityError("window coefficient sum over budget")
    return product_terms([f.support() for f in factors], hi)


def _window_logs(factors: Sequence[PolyFactor], y: float, tau: float):
    """(log(x1/n), log(y/n), a_n) over the whole product support."""
    ns, an = _product(factors, math.inf)
    ly, logs = math.log(y), np.log(ns.astype(np.float64))
    return ly + math.log1p(1.0 / tau) - logs, ly - logs, an


def _estimates(
    factors: Sequence[PolyFactor], y: float, tau: float, c: float, heights: np.ndarray,
) -> np.ndarray:
    """Closed-form truncated estimates at each height, _J_BUDGET elements at a time.

    A support of more than _J_BUDGET terms is cut into chunks of that many,
    one height per call, and their sums are added in term order.
    """
    top, bottom, an = _window_logs(factors, y, tau)
    width = max(1, min(len(an), _J_BUDGET))
    terms = [slice(a, a + width) for a in range(0, len(an), width)]
    step = _J_BUDGET // width

    def estimate(h: np.ndarray) -> np.ndarray:
        parts = [(_perron_j(top[t], c, h) - _perron_j(bottom[t], c, h)) @ an[t] for t in terms]
        return sum(parts[1:], parts[0])

    out = np.concatenate([estimate(heights[a : a + step]) for a in range(0, len(heights), step)])
    if not np.all(np.isfinite(out)):
        raise QuadratureError("non-finite estimate", {"top_height": float(heights.max())})
    return out


def direct_window_sum(factors: Sequence[PolyFactor], y: float, tau: float) -> float:
    """Exact sum of product coefficients over (y, y + y/tau]."""
    ns, an = _product(factors, y + y / tau)
    return float(an[ns > y].sum())


@dataclass(frozen=True)
class PerronReport:
    params: PerronParams
    estimate: float
    direct: float
    residual: float
    envelope_base: float  # y log^2 y / T0 + log y

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


def _report(params: PerronParams, estimate: float, direct: float) -> PerronReport:
    ly = math.log(params.y)
    envelope = params.y * ly**2 / params.T0 + ly
    return PerronReport(params, estimate, direct, abs(estimate - direct), envelope)


def perron_window(params: PerronParams, factors: Sequence[PolyFactor]) -> PerronReport:
    """Closed-form truncated estimate of the window sum next to its exact value."""
    estimate = _estimates(factors, params.y, params.tau, params.c, np.array([params.T0])).item()
    return _report(params, estimate, direct_window_sum(factors, params.y, params.tau))


def perron_window_scan(
    y: float,
    tau: float,
    factors: Sequence[PolyFactor],
    t_checkpoints: Sequence[float],
    panel_width: float = 1.0,
    gauss_order: int = 16,
) -> list[PerronReport]:
    """Residuals at several truncation heights, read on a grid of panel_width.

    Each checkpoint is read at the grid height nearest it, capped at the top
    checkpoint (where a panel quadrature would end), which keeps the heights
    of the truncation-decay experiments.  The closed form does not use
    `gauss_order`; it is validated and kept for callers that bind it by name.
    """
    checkpoints = sorted(float(t) for t in t_checkpoints)
    if not checkpoints or not all(math.isfinite(t) and t > 0 for t in checkpoints):
        raise ValueError("t_checkpoints must be a non-empty list of finite positive heights")
    if not (math.isfinite(panel_width) and panel_width > 0):
        raise ValueError("panel_width must be finite and positive")
    if gauss_order < 1:
        raise ValueError("gauss_order must be >= 1")
    top = checkpoints[-1]
    n_panels = max(1, math.ceil(top / panel_width - 1e-12))
    idx = [min(n_panels - 1, max(0, int(round(t / panel_width)) - 1)) for t in checkpoints]
    heights = [min(top, (i + 1) * panel_width) for i in idx]
    c = make_perron_params(y, tau, T0=top).c
    estimates = _estimates(factors, y, tau, c, np.array(heights)).tolist()
    direct = direct_window_sum(factors, y, tau)
    return [_report(make_perron_params(y, tau, T0=t), e, direct)
            for t, e in zip(heights, estimates)]
