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

Names are imported from their modules (`from gapscope.nu import optimize_nu`);
importing the package loads none of them, so `verify` and `optimize-nu`
never import numpy.
"""

__version__ = "0.1.0"
