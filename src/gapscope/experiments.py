"""Randomized desk experiments: large-value cell statistics and the
truncated-window decay suite.

Large-value experiments classify random factor products over [T, 2T], then
play each occupied cell against the mean-value / large-values / R*
comparison formulas.  The mean-value check uses the cell's effective
magnitude: its floor V, the least refined product sup over its members
(`Classification.floors`), sigma_eff with N^(sigma_eff - c) = V, and the
exact coefficient mean square of the product;
R <= slack * rhs is the falsifiable monitored inequality (constants are not
specified by the underlying estimates, so slack defaults to 100).

The window decay suite measures truncation residuals per octave of
truncation heights: residual_j = max residual over T0 2^j (1 + i/6).  The
octave maximum tracks the 1/T0 envelope; pointwise residuals oscillate (the
per-coefficient truncation error carries a quasi-random phase), so they are
not individually comparable across heights.  The frozen configs below keep
the base height inside the decay regime (tau log^3 y of the order of a few
multiples of y) and were screened once for decisive octave decay; both the
protocol and the configs are deterministic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dirichlet import (
    FACTOR_KINDS,
    PolyFactor,
    classify_profiles,
    count_R_Rstar,
    hb_rstar_rhs,
    huxley_rhs,
    montgomery_rhs,
    singleton_factor,
    unit_factor,
)
from .errors import CapacityError
from .identity import CoefficientClass, product_terms
from .perron import perron_window_scan

DEFAULT_SLACK = 100.0
#: Cap on the experiments of one suite.  Each takes about 3 ms and adds about
#: 10 cells, 3.6 KB of report; 3000 ran in 9.6 s at 116 MB peak RSS.
MAX_EXPERIMENTS = 10**4
#: Unit intervals of one batch of whole experiments that `classify_profiles`
#: classifies at once: its product array (4096 x 33 complex, 2.2 MB) and
#: lattice chunks are about the working set of one T = 3000 classification.
#: A suite of 25 experiments (2900-3700 unit intervals) is one batch.
_BATCH_INTERVALS = 4096


# ---------------------------------------------------------------------------
# Large-value cell experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellReport:
    T: float
    sigmas: tuple[float, ...]
    R: int
    R_star: int
    mont_rhs: float
    hux_rhs: float
    hbstar_rhs: float

    @property
    def mont_ratio(self) -> float:
        return self.R / self.mont_rhs if self.mont_rhs > 0 else float("inf")

    @property
    def hux_ratio(self) -> float:
        return self.R / self.hux_rhs if self.hux_rhs > 0 else float("inf")

    @property
    def hbstar_ratio(self) -> float:
        return self.R_star / self.hbstar_rhs if self.hbstar_rhs > 0 else float("nan")

    def as_dict(self) -> dict:
        return {
            "T": self.T,
            "profile": list(self.sigmas),
            "R": self.R,
            "R_star": self.R_star,
            "mont_rhs": self.mont_rhs,
            "hux_rhs": self.hux_rhs,
            "hbstar_rhs": self.hbstar_rhs,
            "ratios": {
                "montgomery": self.mont_ratio,
                "huxley": self.hux_ratio,
                "hb_rstar": self.hbstar_ratio,
            },
        }


def product_mean_square(factors: Sequence[PolyFactor]) -> tuple[float, float]:
    """(length scale N, sum |coeff|^2 / N) of the exact factor product."""
    ns, an = product_terms([f.support() for f in factors], math.inf)
    coeffs = np.bincount(np.unique(ns, return_inverse=True)[1], an)
    N = float(math.prod(float(f.N) for f in factors
                        if f.cls is not CoefficientClass.SINGLETON))
    return N, float(coeffs @ coeffs) / N


def analyze_classification(cls) -> list[CellReport]:
    """One CellReport per occupied profile cell."""
    N, mean_sq = product_mean_square(cls.factors)
    out = []
    for profile, members in sorted(cls.cells.items(), key=lambda kv: kv[0].band_indices):
        counts = count_R_Rstar(members, cls.T)
        V = cls.floors[profile]
        sigma_eff = cls.c + math.log(max(V, 1e-300)) / math.log(max(N, 2.0))
        sigma_eff = min(max(sigma_eff, -20.0), 2.0)  # keep rhs powers finite
        mont = montgomery_rhs(N, sigma_eff, cls.T, mean_sq)
        hux = huxley_rhs(N, sigma_eff, cls.T, mean_sq)
        hbs = hb_rstar_rhs(counts.R, counts.R_star, N, sigma_eff, cls.T)
        out.append(CellReport(cls.T, profile.sigmas, counts.R, counts.R_star, mont, hux, hbs))
    return out


def _random_factors(rng: random.Random) -> list[PolyFactor]:
    n = rng.choice([1, 1, 2, 2, 3])
    out: list[PolyFactor] = []
    budget = 1
    for _ in range(n):
        N = rng.choice([4, 8, 16, 32])
        if budget * N > 4096:
            N = 4
        budget *= N
        out.append(FACTOR_KINDS[rng.choice(list(FACTOR_KINDS))](N))
    if rng.random() < 0.3:
        out.append(singleton_factor())
    return out


def _draw_experiments(n_experiments: int, seed: int) -> list[tuple]:
    """The suite's (factors, c, T) classification problems, drawn in order."""
    rng = random.Random(seed)
    problems = []
    for _ in range(n_experiments):
        factors = _random_factors(rng)
        c = 1.0 + 1.0 / math.log(rng.uniform(50.0, 5000.0))
        T = float(rng.randint(40, 220))
        problems.append((factors, c, T))
    return problems


def _batches(problems: list) -> list[list]:
    """Consecutive runs of whole problems, each of at most _BATCH_INTERVALS unit
    intervals (a larger problem makes a batch alone)."""
    out, size = [], _BATCH_INTERVALS
    for problem in problems:
        intervals = math.floor(2 * problem[2]) - math.ceil(problem[2]) + 1
        if size + intervals > _BATCH_INTERVALS:
            out.append([])
            size = 0
        out[-1].append(problem)
        size += intervals
    return out


def run_large_value_suite(
    n_experiments: int = 100, seed: int = 20120116, slack: float = DEFAULT_SLACK,
) -> dict:
    """Deterministic randomized suite; returns cells plus check summaries.

    Every experiment is drawn first, then classified in batches of whole
    experiments, each as one array program.
    """
    for name, value in (("n_experiments", n_experiments), ("seed", seed)):
        if not (isinstance(value, int) and not isinstance(value, bool)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if n_experiments < 0:
        raise ValueError(f"n_experiments must be >= 0, got {n_experiments}")
    if n_experiments > MAX_EXPERIMENTS:
        raise CapacityError(f"{n_experiments} experiments over the cap {MAX_EXPERIMENTS}")
    if not (math.isfinite(slack) and slack > 0):
        raise ValueError(f"slack must be finite and positive, got {slack}")
    cells: list[CellReport] = []
    for batch in _batches(_draw_experiments(n_experiments, seed)):
        for cls in classify_profiles(batch):
            cells.extend(analyze_classification(cls))
    sandwich_ok = all(
        r.R * r.R <= r.R_star <= r.R**3 for r in cells if r.R >= 1
    )
    mont_ok = all(r.R <= slack * r.mont_rhs for r in cells)
    worst_mont = max((r.mont_ratio for r in cells), default=0.0)
    return {
        "cells": cells,
        "n_cells": len(cells),
        "sandwich_ok": sandwich_ok,
        "montgomery_ok": mont_ok,
        "worst_montgomery_ratio": worst_mont,
        "slack": slack,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Window decay suite
# ---------------------------------------------------------------------------

#: (y, tau, N, kind) frozen after screening for decisive octave decay.
PERRON_DECAY_CONFIGS: tuple[tuple[float, float, int, str], ...] = (
    (100.5, 3.6, 8, "unit"),
    (100.5, 3.6, 8, "log"),
    (100.5, 3.6, 8, "mobius"),
    (100.5, 3.6, 16, "unit+1"),
    (100.5, 4.6, 16, "mobius"),
    (150.5, 5.4, 8, "unit"),
    (150.5, 5.4, 8, "mobius"),
    (150.5, 5.4, 16, "log"),
    (400.5, 6.1, 16, "unit"),
    (400.5, 6.1, 16, "log"),
    (400.5, 7.8, 8, "mobius"),
    (400.5, 7.8, 8, "unit+1"),
    (800.5, 8.5, 16, "unit"),
    (800.5, 11.3, 8, "log"),
    (800.5, 11.3, 8, "mobius"),
    (1200.5, 14.1, 16, "mobius"),
    (2000.5, 19.1, 8, "unit"),
    (2000.5, 19.1, 16, "log"),
    (3000.5, 24.6, 8, "unit+1"),
    (5000.5, 24.8, 16, "unit"),
)


def _decay_factors(N: int, kind: str) -> list[PolyFactor]:
    if kind == "unit+1":
        return [unit_factor(N), singleton_factor()]
    if kind not in FACTOR_KINDS:
        raise ValueError(kind)
    return [FACTOR_KINDS[kind](N)]


def octave_residuals(
    y: float, tau: float, factors: Sequence[PolyFactor],
    doublings: int = 3, band: int = 6,
) -> tuple[list[float], float]:
    """Per-octave max residuals from the base height T0 = tau log^3 y.

    Returns (residuals for octaves 0..doublings, implied constant at T0).
    """
    T0 = tau * math.log(y) ** 3
    cps = [T0 * 2**j * (1 + i / band)
           for j in range(doublings + 1) for i in range(band)]
    reports = perron_window_scan(y, tau, factors, cps)
    res = [r.residual for r in reports]
    octs = [max(res[j * band : (j + 1) * band]) for j in range(doublings + 1)]
    return octs, reports[0].implied_constant


def run_perron_decay_suite(
    configs=PERRON_DECAY_CONFIGS, doublings: int = 3, noise: float = 0.1,
) -> dict:
    rows = []
    worst_K = 0.0
    all_monotone = True
    for (y, tau, N, kind) in configs:
        octs, K = octave_residuals(y, tau, _decay_factors(N, kind), doublings)
        monotone = all(octs[i + 1] <= (1 + noise) * octs[i] for i in range(doublings))
        all_monotone = all_monotone and monotone
        worst_K = max(worst_K, K)
        rows.append({
            "y": y, "tau": tau, "N": N, "kind": kind,
            "octave_residuals": octs, "implied_constant": K,
            "monotone": monotone,
        })
    return {
        "rows": rows,
        "monotone": all_monotone,
        "max_implied_constant": worst_K,
        "noise_allowance": noise,
    }
