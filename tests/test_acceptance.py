"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import random
import time
from fractions import Fraction as Q

import pytest

from gapscope import identity as ident
from gapscope import primes
from gapscope.claims import verify_claim, recheck_verdict
from gapscope.dirichlet import count_R_Rstar
from gapscope.experiments import run_large_value_suite, run_perron_decay_suite
from gapscope.ledger import builtin_ledger, specified_mutations
from gapscope.nu import optimize_nu
from test_dirichlet import rstar_bruteforce

PAPER_TABLE = {
    10: 4, 100: 8, 1000: 20, 10**4: 36, 10**5: 72,
    10**6: 114, 10**7: 154, 10**8: 220, 10**9: 282,
}


def report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_table_reproduction():
    t0 = time.time()
    rows = primes.max_gap_table(sorted(PAPER_TABLE))
    elapsed = time.time() - t0
    got = {N: g for N, g, _ in rows}
    ok = got == PAPER_TABLE and elapsed <= 300
    report(1, ok, f"max-gap rows 10^1..10^9 exact in {elapsed:.1f}s (limit 300s)")


def test_criterion_2_identity_exactness():
    t0 = time.time()
    worst = 0.0
    for x in (50, 500, 5000):
        for k in (1, 2, 3):
            cfg = ident.make_config(x, k)
            worst = max(worst, float(ident.identity_residuals(cfg).max()))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed <= 60
    report(2, ok, f"max |identity - Lambda| = {worst:.2e} over 9 configs "
                  f"in {elapsed:.1f}s (tol 1e-9, limit 60s)")


def test_criterion_3_counting_oracle_equivalence():
    rng = random.Random(12345)
    mismatches = 0
    for _ in range(200):
        T = rng.randint(30, 120)
        size = rng.randint(0, 30)
        ms = sorted(rng.sample(range(T, 2 * T + 1), min(size, T + 1)))
        if count_R_Rstar(ms, float(T)).R_star != rstar_bruteforce(ms):
            mismatches += 1
    report(3, mismatches == 0,
           f"pair-sum counting vs O(R^4) brute force on 200 random sets "
           f"(R <= 30): {mismatches} mismatches")


@pytest.fixture(scope="module")
def lv_suite():
    return run_large_value_suite(100)


def test_criterion_4_counting_sandwich(lv_suite):
    cells = [c for c in lv_suite["cells"] if c.R >= 1]
    bad = [c for c in cells if not (c.R**2 <= c.R_star <= c.R**3)]
    ok = len(cells) >= 1000 and not bad
    report(4, ok, f"R^2 <= R* <= R^3 on {len(cells)} classified cells "
                  f"({len(bad)} violations)")


def test_criterion_5_perron_residual_envelope():
    suite = run_perron_decay_suite()
    K = suite["max_implied_constant"]
    ok = suite["monotone"] and K <= 50 and len(suite["rows"]) == 20
    octs = suite["rows"][0]["octave_residuals"]
    report(5, ok, f"20 window configs: envelope constant K = {K:.2e} <= 50; "
                  f"octave residuals shrink over 3 doublings "
                  f"(first config: {', '.join('%.1e' % r for r in octs)})")


def test_criterion_6_mean_value_check(lv_suite):
    worst = lv_suite["worst_montgomery_ratio"]
    ok = lv_suite["montgomery_ok"] and lv_suite["n_cells"] >= 1000
    report(6, ok, f"R <= 100 * mean-value rhs across {lv_suite['n_cells']} cells "
                  f"(worst ratio {worst:.4f})")


def test_criterion_7_ledger_verification():
    t0 = time.time()
    claims = builtin_ledger()
    verdicts = [verify_claim(c) for c in claims]
    elapsed = time.time() - t0
    all_hold = all(v.holds for v in verdicts)
    rechecks = all(recheck_verdict(c, v) for c, v in zip(claims, verdicts))
    has_crossing = any(c.id == "crossing-point" for c in claims)
    mut_fail = True
    for m in specified_mutations():
        v = verify_claim(m)
        point = v.counterexample()
        mut_fail = mut_fail and (not v.holds) and point is not None
    ok = (all_hold and rechecks and has_crossing and mut_fail
          and elapsed <= 10 and len(claims) >= 20)
    report(7, ok, f"{len(claims)} ledger claims verified in {elapsed:.2f}s "
                  f"(limit 10s); crossing claim included; "
                  f"5/5 mutations fail with rational counterexamples")


def test_criterion_8_exponent_recovery():
    res = optimize_nu(Q(1, 64))
    in_range = Q(49, 200) <= res.nu_star <= Q(51, 200)
    sigma_ok = abs(res.argmax[0] - Q(3, 4)) <= Q(1, 64)
    band = [m for m in res.maximizing_mu if Q(8, 5) <= m <= Q(20, 11)]
    ok = in_range and sigma_ok and bool(band)
    report(8, ok, f"nu* = {res.nu_star} at sigma = {res.argmax[0]}; "
                  f"{len(band)} maximizing mu-cells inside [8/5, 20/11]")


def test_criterion_9_gap_sum_scaling():
    sums = primes.gap_sweep([10**5, 10**6, 10**7, 10**8])
    expected = {10**5: 1660017, 10**6: 21038561,
                10**7: 255473457, 10**8: 2998155289}
    values_ok = all(s.sum_gap_sq == expected[s.x] for s in sums)
    ratios = [s.sum_gap_sq / s.x**1.25 for s in sums]
    mono = all(b <= a for a, b in zip(ratios, ratios[1:]))
    report(9, values_ok and mono,
           "sum d^2 / x^(5/4) non-increasing: "
           + ", ".join(f"{r:.3f}" for r in ratios))
