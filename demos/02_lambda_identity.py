#!/usr/bin/env python3
"""The combinatorial Lambda identity and its dyadic factorizations.

Lambda(n) is recovered on (x, 3x] from Moebius-truncated convolutions, then
again from the exact window coefficients of the enumerated dyadic products.
"""

from gapscope import identity
from gapscope.primes import von_mangoldt

x, k = 60, 2
cfg = identity.make_config(x, k)
print(f"x = {x}, k = {k}, Moebius cutoff = floor((3x)^(1/k)) = {cfg.mobius_cutoff}")

recovered = sum(identity.identity_weight(k, j) * identity.kj_table(cfg, j)
                for j in range(1, k + 1))
print("\nPointwise recovery on the window:")
for n in (61, 64, 125, 127, 180):
    got = recovered[n]
    want = von_mangoldt(n)
    print(f"  n = {n:3d}: identity {got:12.8f}   Lambda {want:12.8f}   "
          f"diff {abs(got - want):.2e}")

res = identity.identity_residuals(cfg)
print(f"\nMax residual over the whole window (x, 3x]: {float(res.max()):.2e}")

table = identity.enumerate_factorizations(cfg)
print(f"\n{len(table)} dyadic factorizations; the first few:")
for j, exps in table.rows[:5]:
    lens = ", ".join(table.leaf(i, e)[0] for i, e in enumerate(exps, start=1))
    print(f"  j = {j}  weight {table.weight(j):+d}  lengths ({lens})")

total = identity.window_coefficient_sum(cfg)
worst = max(abs(total[n] - von_mangoldt(n)) for n in range(x + 1, 3 * x + 1))
print(f"\nSummed window coefficients reproduce Lambda to {worst:.2e}")

f_part, g_part = identity.split_long(table)
print(f"Long/short split at x^(19/20) = {x**(19/20):.1f}: "
      f"{len(f_part)} long, {len(g_part)} short")
