"""Self-test of the benchmark's checks, tracer and metadata.

Run from the repository root:

    python3 -m pytest perfbench -q

A corrupted result (a max gap off by one, nu* = 1/5, a flipped verdict)
must fail its check and count as a failed pass.
"""

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import pytest  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from gapscope import cli, identity, primes  # noqa: E402


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


@pytest.fixture(scope="module")
def small_gaps(tmp_path_factory):
    w = wl.Gaps(wl.DEFAULT_SEED, tmp_path_factory.mktemp("gaps") / "out", exponents=range(1, 7))
    w.prepare()
    p = run.run_pass(w)
    assert p.problems == []
    return w


def test_gaps_check_rejects_max_gap_off_by_one(small_gaps):
    out = small_gaps.out / "gaps"
    ok = wl.CliRun(0, "")
    assert wl.check_gaps(out, ok, small_gaps.expected) == []
    table = out / "max_gap_table.csv"
    good = table.read_text(encoding="utf-8")
    table.write_text(good.replace("1000000,114,", "1000000,115,"), encoding="utf-8")
    assert any("max-gap table" in p for p in wl.check_gaps(out, ok, small_gaps.expected))
    table.write_text(good, encoding="utf-8")

    def bump(rows):
        rows[-1]["max_gap"] += 1

    _edit_json(out / "gap_summaries.json", bump)
    assert any("max_gap at x=1000000" in p
               for p in wl.check_gaps(out, ok, small_gaps.expected))


def test_optimize_nu_check_rejects_nu_one_fifth(tmp_path):
    out = tmp_path / "nu"
    res = wl.run_cli(["optimize-nu", "--res", "1/64", "--out", str(out)])
    assert wl.check_optimize_nu(out, res) == []
    _edit_json(out / "nu_profile.json", lambda d: d.update(nu_star="1/5"))
    assert wl.check_optimize_nu(out, res) != []


def test_verify_checks_reject_one_flipped_verdict(tmp_path):
    out = tmp_path / "verify"
    res = wl.run_cli(["verify", "--out", str(out)])
    assert wl.check_verify(out, res) == []
    _edit_json(out / "verdicts.json", lambda d: d["verdicts"][7].update(holds=False))
    assert wl.check_verify(out, res) != []

    w = wl.Exact(wl.DEFAULT_SEED, tmp_path / "exact")
    w.prepare()
    out = tmp_path / "mutated"
    res = wl.run_cli(["verify", "--ledger", str(w.ledger), "--out", str(out)])
    assert wl.check_verify_mutated(out, res, w.claims) == []

    def flip_first_failure(d):
        v = next(v for v in d["verdicts"] if not v["holds"])
        v["holds"] = True

    _edit_json(out / "verdicts.json", flip_first_failure)
    assert wl.check_verify_mutated(out, res, w.claims) != []


class _NuOnly(wl.Workload):
    """optimize-nu as a one-step workload, with its output optionally spoiled."""

    name = "nu-only"

    def __init__(self, seed, out, spoil=None):
        super().__init__(seed, out)
        self.spoil = spoil
        self.passes = 0

    def steps(self):
        def step():
            res = wl.run_cli(["optimize-nu", "--res", "1/64", "--out", str(self.out / "nu")])
            if self.spoil is not None:
                self.spoil(self.out / "nu" / "nu_profile.json", self.passes)
            self.passes += 1
            return res

        return [("optimize-nu", step)]

    def check(self, results):
        return wl.check_optimize_nu(self.out / "nu", results["optimize-nu"])


def test_corrupted_result_counts_as_failed_pass(tmp_path):
    clean = run.measure(_NuOnly(1, tmp_path / "a"), seconds=0, trace=False)
    assert clean.failed == 0 and len(clean.all_passes) == 1 + run.MIN_PASSES

    def wrong_nu(path, _):
        _edit_json(path, lambda d: d.update(nu_star="1/5"))

    bad = run.measure(_NuOnly(1, tmp_path / "b", wrong_nu), seconds=0, trace=False)
    assert bad.failed == len(bad.all_passes)


def test_changed_report_bytes_count_as_failed_pass(tmp_path):
    def reformat_after_first(path, n):
        if n > 0:
            path.write_text(path.read_text(encoding="utf-8") + "\n", encoding="utf-8")

    r = run.measure(_NuOnly(1, tmp_path / "c", reformat_after_first), seconds=0, trace=False)
    assert r.warmup.problems == []
    assert all(p.problems == ["report bytes differ from the run's first pass on these inputs"]
               for p in r.passes)


def test_traced_gaps_pass_sweeps_twice_and_restores(small_gaps):
    original = (primes.gap_sweep, cli._HANDLERS["gaps"], primes.iter_prime_segments)
    p = run.run_pass(small_gaps, spans.Tracer())
    assert p.problems == []
    assert p.layers["primes.gap_sweep.calls"] == 2
    assert p.layers["primes.gap_sweep.gaps"] == 2 * oracles.PRIME_COUNT[10**6]
    assert p.layers["primes.sieve.segments"] >= 2
    assert p.layers["cli.gaps.self_s"] > 0
    assert 0 <= p.layers["trace.uncovered_s"] < p.wall
    assert (primes.gap_sweep, cli._HANDLERS["gaps"], primes.iter_prime_segments) == original


def test_gap_oracle_reproduces_pinned_values():
    limits = [10**k for k in range(1, 7)]
    for x, s in oracles.gap_moments(limits, segment=1 << 16).items():
        assert s == {"count": oracles.PRIME_COUNT[x], "max_gap": oracles.MAX_GAP[x],
                     "sum_gap": oracles.next_prime(x) - 2,
                     "sum_gap_sq": oracles.SUM_GAP_SQ[x]}


def test_factorization_oracle_matches_enumeration():
    assert oracles.factorization_count(5000, 3) == 73499  # the identity's reference count
    for x, k in ((40, 1), (300, 2), (60, 3)):
        cfg = identity.make_config(x, k)
        assert oracles.factorization_count(x, k) == len(identity.enumerate_factorizations(cfg))


def test_additive_energy_matches_quadruple_count():
    rng = random.Random(7)
    for _ in range(20):
        a = rng.sample(range(100, 161), rng.randint(1, 12))
        brute = sum(1 for p in a for q in a for r in a for s in a if p + q == r + s)
        assert oracles.additive_energy(a) == brute


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    assert spec["command"] == ["python3", "perfbench/run.py"]
