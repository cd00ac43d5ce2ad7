"""gapscope: a desk-scale lab for prime-gap second moments.

Five pieces, mirroring the machinery behind the bound
sum_{p_n <= x} (p_{n+1} - p_n)^2 << x^(5/4 + eps):

* `primes` — segmented sieving, gap statistics, band sums;
* `identity` — the combinatorial Lambda identity and its dyadic
  factorizations into short polynomials;
* `dirichlet` / `perron` — numerical polynomial evaluation, large-value
  classification, R/R* counting, truncated window estimates;
* `claims` / `ledger` / `nu` — exact rational certification of the
  supporting inequality ledger and mechanical recovery of the critical
  exponent nu* = 1/4;
* `cli` — the `gapscope` batch entry point.
"""

__version__ = "0.1.0"

from .algebra import AlgebraicNumber
from .claims import Claim, MU_RANGE, Verdict, parse_ledger, verify_claim
from .dirichlet import (
    LargeValueCounts,
    LargeValueProfile,
    PolyFactor,
    classify_profile,
    count_R_Rstar,
)
from .errors import CapacityError, QuadratureError
from .identity import (
    CoefficientClass,
    FactorizationRows,
    IdentityConfig,
    enumerate_factorizations,
    make_config,
)
from .ledger import builtin_ledger, specified_mutations
from .nu import BoundCatalog, builtin_catalog, coverage_check, optimize_nu, required_nu
from .perron import PerronParams, make_perron_params, perron_window
from .primes import (
    BandSum,
    GapSummary,
    PrimeGap,
    composite_run_demo,
    dyadic_band_sum,
    gap_moment_sum,
    gap_sweep,
    iter_gaps,
    max_gap_table,
    sieve_primes,
    von_mangoldt,
)

__all__ = [name for name in dir() if not name.startswith("_")]
