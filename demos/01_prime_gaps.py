#!/usr/bin/env python3
"""Prime-gap statistics at desk scale.

Reproduces the max-gap table, shows the telescoping of gap sums, and tracks
the second moment against the x^(5/4) reference slope.
"""

import math
from fractions import Fraction

from gapscope import primes

print("Maximal gaps with p_n <= N (the straddling gap counts for N):")
for N, g, ratio in primes.max_gap_table([10**j for j in range(1, 7)]):
    print(f"  N = 10^{len(str(N)) - 1}: max d_n = {g:4d}   log d / log N = {ratio:.2f}")

print("\nGap moments (exact integers):")
for s in primes.gap_sweep([10**3, 10**4, 10**5]):
    print(f"  x = {s.x}: {s.count} gaps, sum d = {s.sum_gap} "
          f"(= next_prime({s.x}) - 2), sum d^2 = {s.sum_gap_sq}")

print("\nSecond moment against x^(5/4):")
for s in primes.gap_sweep([10**4, 10**5, 10**6]):
    print(f"  x = {s.x}: sum d^2 / x^1.25 = {s.sum_gap_sq / s.x**1.25:.3f}")

print("\nDyadic band sums at x = 10^4 (4x/tau <= d <= 8x/tau, x <= p <= 2x):")
tau = Fraction(10**4)
while Fraction(4 * 10**4, 1) / tau <= 40:
    b = primes.dyadic_band_sum(10**4, tau)
    print(f"  tau = {tau}: band [{float(b.lo):6.1f}, {float(b.hi):6.1f}]  "
          f"sum d^2 = {b.sum_gap_sq:7d}  ({b.contributing} gaps)")
    tau /= 2

print("\nPrimorial composite runs (j + p_1...p_n is divisible by spf(j)):")
for n in (3, 5, 8):
    ps = primes.simple_sieve(40).tolist()[:n]
    P = math.prod(ps)
    # each j in 2..p_n has a prime factor p <= p_n, which divides j + P
    assert all(any(j % p == 0 for p in ps) for j in range(2, ps[-1] + 1))
    print(f"  n = {n}: {ps[-1] - 1} composites from {P + 2} (primorial {P})")
