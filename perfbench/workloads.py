"""The benchmark's workloads: timed steps plus the checks on their outputs.

A workload reaches gapscope only through its public entry points:
`gapscope.cli.main([...])` and public module functions.  Steps call those
functions through their modules (`experiments.run_perron_decay_suite`, not a
local alias) so that the traced run sees them.  Checks read what a pass wrote
and compare it with the oracles in `oracles.py`; they run after the pass,
outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from gapscope import cli, dirichlet, experiments
from gapscope.claims import Verdict, format_ledger, recheck_verdict
from gapscope.ledger import mutated_ledger

import oracles

#: The `largevalues --seed` default; pinned values apply only at this seed.
DEFAULT_SEED = 20120116


@dataclass(frozen=True)
class CliRun:
    code: int
    text: str


def run_cli(argv: list[str]) -> CliRun:
    """`gapscope <argv>` in this process, with its console output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return CliRun(code, buf.getvalue())


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _exit_problem(step: str, run: CliRun, want: int) -> list[str]:
    if run.code == want:
        return []
    return [f"{step}: exit code {run.code}, expected {want}: {run.text.strip()[-300:]}"]


class Workload:
    """One set of inputs: a fixed list of steps and the checks on their output.

    `out` is the directory the steps write to; it is emptied before every
    pass so that each pass writes the same paths.
    """

    name = ""

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = Path(out)

    def prepare(self) -> None:
        """Build inputs and reference values, outside any timed region."""

    def steps(self) -> list[tuple[str, Callable[[], object]]]:
        raise NotImplementedError

    def check(self, results: dict) -> list[str]:
        """Problems found in one pass's outputs; empty when all is correct."""
        raise NotImplementedError

    def fingerprint(self, results: dict) -> str:
        """Canonical text of the in-process results, for the byte comparison."""
        return repr([(k, v) for k, v in results.items() if isinstance(v, CliRun)])

    def reset(self, n: int = 0) -> None:
        """Get ready for pass `n` (the warm-up is pass 0): empty the output directory."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def inputs(self) -> str:
        """Key of this pass's inputs; passes with equal keys must write equal bytes."""
        return ""

    def digest(self, results: dict) -> str:
        """Hash of every report byte the pass wrote plus its in-process results."""
        h = hashlib.sha256()
        for path in sorted(p for p in self.out.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(self.out)).encode())
            h.update(path.read_bytes())
        h.update(self.fingerprint(results).encode())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# gaps: the segment sieve and the gap reduction, in bulk
# ---------------------------------------------------------------------------

#: Up to 10^8: a pass is about half a second, so a run holds dozens of passes.
GAP_EXPONENTS = tuple(range(1, 9))


def _limit_literal(k: int) -> str:
    return "10" if k == 1 else f"1e{k}"


class Gaps(Workload):
    """`gapscope gaps --limits 10,1e2,...,1e8`: the paper's max-gap table to 10^8."""

    name = "gaps"

    def __init__(self, seed: int, out: Path, exponents=GAP_EXPONENTS):
        super().__init__(seed, out)
        self.exponents = tuple(exponents)

    def prepare(self) -> None:
        self.expected = {
            10**k: {
                "count": oracles.PRIME_COUNT[10**k],
                "max_gap": oracles.MAX_GAP[10**k],
                # gaps with p_n <= x telescope to (first prime > x) - 2
                "sum_gap": oracles.next_prime(10**k) - 2,
                "sum_gap_sq": oracles.SUM_GAP_SQ[10**k],
            }
            for k in self.exponents
        }

    def steps(self):
        limits = ",".join(_limit_literal(k) for k in self.exponents)
        argv = ["gaps", "--limits", limits, "--out", str(self.out / "gaps")]
        return [("gaps", lambda: run_cli(argv))]

    def check(self, results):
        return check_gaps(self.out / "gaps", results["gaps"], self.expected)


def check_gaps(out: Path, run: CliRun, expected: dict) -> list[str]:
    problems = _exit_problem("gaps", run, 0)
    if problems:
        return problems
    with open(out / "max_gap_table.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    table = {int(r["N"]): int(r["max_gap"]) for r in rows}
    want_table = {x: e["max_gap"] for x, e in expected.items()}
    if table != want_table:
        problems.append(f"gaps: max-gap table {table} != {want_table}")
    for r in rows:
        N, g = int(r["N"]), int(r["max_gap"])
        if abs(float(r["log_ratio"]) - math.log(g) / math.log(N)) > 0.005 + 1e-9:
            problems.append(f"gaps: log ratio {r['log_ratio']} wrong at N={N}")
    summaries = _read_json(out / "gap_summaries.json")
    got = {s["x"]: s for s in summaries}
    if sorted(got) != sorted(expected):
        problems.append(f"gaps: summaries for {sorted(got)}, expected {sorted(expected)}")
    for x in sorted(set(got) & set(expected)):
        for key, want in expected[x].items():
            if got[x][key] != want:
                problems.append(f"gaps: {key} at x={x} is {got[x][key]}, expected {want}")
    return problems


# ---------------------------------------------------------------------------
# windows: Perron quadrature and long factor grids
# ---------------------------------------------------------------------------

#: The frozen decay-suite configs (y, tau, N, kind) with y <= 150.5: the
#: first 8 of the 20, every factor kind, about a second a pass.
DECAY_CONFIGS = (
    (100.5, 3.6, 8, "unit"),
    (100.5, 3.6, 8, "log"),
    (100.5, 3.6, 8, "mobius"),
    (100.5, 3.6, 16, "unit+1"),
    (100.5, 4.6, 16, "mobius"),
    (150.5, 5.4, 8, "unit"),
    (150.5, 5.4, 8, "mobius"),
    (150.5, 5.4, 16, "log"),
)
#: Criterion 5 on those rows: octave residuals non-increasing within a 10 %
#: allowance, envelope constant K <= 50.
DECAY_ROWS = len(DECAY_CONFIGS)
DECAY_NOISE = 0.1
DECAY_MAX_K = 50.0
#: `gapscope perron` defaults: y, tau and the unit:N factor length.
PERRON_DEFAULTS = (201.5, 10.0, 128)


class Windows(Workload):
    """The Perron decay suite on DECAY_CONFIGS, then `gapscope perron` at its defaults."""

    name = "windows"

    def prepare(self) -> None:
        self.direct = oracles.window_unit_count(*PERRON_DEFAULTS)

    def steps(self):
        argv = ["perron", "--out", str(self.out / "perron")]
        return [
            ("decay-suite", lambda: experiments.run_perron_decay_suite(DECAY_CONFIGS)),
            ("perron", lambda: run_cli(argv)),
        ]

    def check(self, results):
        return check_decay_suite(results["decay-suite"]) + check_perron(
            self.out / "perron", results["perron"], self.direct
        )

    def fingerprint(self, results):
        return super().fingerprint(results) + json.dumps(results["decay-suite"], sort_keys=True)


def check_decay_suite(suite: dict) -> list[str]:
    problems = []
    rows = suite["rows"]
    if len(rows) != DECAY_ROWS:
        problems.append(f"decay-suite: {len(rows)} rows, expected {DECAY_ROWS}")
    for row in rows:
        octs = row["octave_residuals"]
        if not all(b <= (1 + DECAY_NOISE) * a for a, b in zip(octs, octs[1:])):
            problems.append(f"decay-suite: residuals not decaying at y={row['y']}: {octs}")
    K = max((row["implied_constant"] for row in rows), default=math.inf)
    if not K <= DECAY_MAX_K:
        problems.append(f"decay-suite: envelope constant {K} > {DECAY_MAX_K}")
    if suite["monotone"] is not True:
        problems.append("decay-suite: suite reports non-monotone decay")
    return problems


def check_perron(out: Path, run: CliRun, direct: int) -> list[str]:
    problems = _exit_problem("perron", run, 0)
    if problems:
        return problems
    report = _read_json(out / "perron_report.json")
    if report["direct"] != direct:
        problems.append(f"perron: direct {report['direct']}, expected {direct}")
    return problems


# ---------------------------------------------------------------------------
# cells: classification and R* counting, small and large cells
# ---------------------------------------------------------------------------

LARGEVALUES_EXPERIMENTS = 25
#: Passes cycle through the largevalues seeds seed, seed + 1, ..., so that a
#: run's median spans several seeds' experiments: one seed's cost can differ
#: from another's by a third.  Odd, so that traced and untraced passes each
#: meet every seed.
SEED_CYCLE = 7
#: n_cells at the default seed and 25 experiments, as this program first
#: reported it (100 experiments give the 1001 cells of the reference run).
DEFAULT_SEED_N_CELLS = 315
MEAN_VALUE_SLACK = 100.0
#: The demo-3 pipeline at larger T: unit(16) x mobius(8) on c = 1.12, T = 3000,
#: whose busiest cells have R of about 370-700.
LONG_T = (16, 8, 1.12, 3000.0)


class Cells(Workload):
    """`gapscope largevalues` at the pass's seed, then one long-T classification.

    Pass n uses seed + n % SEED_CYCLE; the warm-up uses the benchmark seed.
    """

    name = "cells"

    def reset(self, n: int = 0) -> None:
        super().reset(n)
        self.pass_seed = self.seed + n % SEED_CYCLE

    def inputs(self) -> str:
        return str(self.pass_seed)

    def steps(self):
        argv = ["largevalues", "--experiments", str(LARGEVALUES_EXPERIMENTS),
                "--seed", str(self.pass_seed), "--out", str(self.out / "largevalues")]
        return [
            ("largevalues", lambda: run_cli(argv)),
            ("long-t-cells", long_t_cells),
        ]

    def check(self, results):
        return check_largevalues(
            self.out / "largevalues", results["largevalues"], self.pass_seed
        ) + check_long_t(*results["long-t-cells"])

    def fingerprint(self, results):
        cls, reports = results["long-t-cells"]
        cells = [(p.band_indices, members) for p, members in sorted(
            cls.cells.items(), key=lambda kv: kv[0].band_indices)]
        rows = [r.as_dict() for r in reports]
        return super().fingerprint(results) + repr((cells, cls.s0, rows))


def long_t_cells():
    n_unit, n_mobius, c, T = LONG_T
    cls = dirichlet.classify_profile(
        [dirichlet.unit_factor(n_unit), dirichlet.mobius_factor(n_mobius)], c, T
    )
    return cls, experiments.analyze_classification(cls)


def _sandwich_problem(where: str, R: int, R_star: int) -> list[str]:
    if R >= 1 and not (R * R <= R_star <= R**3):
        return [f"{where}: R^2 <= R* <= R^3 fails with R={R}, R*={R_star}"]
    return []


def check_largevalues(out: Path, run: CliRun, seed: int) -> list[str]:
    problems = _exit_problem("largevalues", run, 0)
    if problems:
        return problems
    report = _read_json(out / "largevalues_report.json")
    cells = report["cells"]
    if report["seed"] != seed:
        problems.append(f"largevalues: seed {report['seed']}, expected {seed}")
    if report["n_cells"] != len(cells):
        problems.append(f"largevalues: n_cells {report['n_cells']} != {len(cells)} rows")
    if seed == DEFAULT_SEED and len(cells) != DEFAULT_SEED_N_CELLS:
        problems.append(f"largevalues: {len(cells)} cells, expected {DEFAULT_SEED_N_CELLS}")
    if report["slack"] != MEAN_VALUE_SLACK:
        problems.append(f"largevalues: slack {report['slack']}, expected {MEAN_VALUE_SLACK}")
    for i, cell in enumerate(cells):
        R = cell["R"]
        problems += _sandwich_problem(f"largevalues cell {i}", R, cell["R_star"])
        if not R <= MEAN_VALUE_SLACK * cell["mont_rhs"]:
            problems.append(f"largevalues cell {i}: mean-value check fails, "
                            f"R={R} > {MEAN_VALUE_SLACK} * {cell['mont_rhs']}")
    if report["sandwich_ok"] is not True or report["montgomery_ok"] is not True:
        problems.append("largevalues: report flags a failed sandwich or mean-value check")
    return problems


def check_long_t(cls, reports) -> list[str]:
    problems = []
    lo, hi = math.ceil(cls.T), math.floor(2 * cls.T)
    members = [m for ms in cls.cells.values() for m in ms] + list(cls.s0)
    if sorted(members) != list(range(lo, hi + 1)):
        problems.append("long-t-cells: cells and S0 do not partition [T, 2T]")
    cells = sorted(cls.cells.items(), key=lambda kv: kv[0].band_indices)
    if len(cells) != len(reports):
        return problems + [f"long-t-cells: {len(reports)} reports for {len(cells)} cells"]
    for (profile, ms), rep in zip(cells, reports):
        where = f"long-t-cells {profile.band_indices}"
        if rep.R != len(ms):
            problems.append(f"{where}: R={rep.R}, cell has {len(ms)} members")
        energy = oracles.additive_energy(ms)
        if rep.R_star != energy:
            problems.append(f"{where}: R*={rep.R_star}, additive energy {energy}")
        problems += _sandwich_problem(where, rep.R, rep.R_star)
    return problems


# ---------------------------------------------------------------------------
# exact: Fraction and Sturm work, no sieve and no quadrature
# ---------------------------------------------------------------------------

#: `identity --x 5000 --k 2`: the x of the paper's check, at the smaller k
#: that keeps a pass under a second.
IDENTITY_X, IDENTITY_K = 5000, 2
IDENTITY_TOL = 1e-9
BUILTIN_CLAIMS = 43
MUTATED_SUFFIX = "-mutated"
MUTATED_CLAIMS = 5
NU_STAR = "1/4"
NU_SIGMA = "3/4"


class Exact(Workload):
    """identity with factorizations, verify, verify on a mutated ledger, optimize-nu."""

    name = "exact"

    def prepare(self) -> None:
        self.claims = {c.id: c for c in mutated_ledger()}
        self.ledger = self.out.parent / "mutated.ledger"
        self.ledger.parent.mkdir(parents=True, exist_ok=True)
        self.ledger.write_text(format_ledger(self.claims.values()), encoding="utf-8")

    def steps(self):
        o = self.out
        return [
            ("identity", lambda: run_cli(["identity", "--x", str(IDENTITY_X),
                                          "--k", str(IDENTITY_K),
                                          "--dump-factorizations", "--out", str(o / "identity")])),
            ("verify", lambda: run_cli(["verify", "--out", str(o / "verify")])),
            ("verify-mutated", lambda: run_cli(["verify", "--ledger", str(self.ledger),
                                                "--out", str(o / "verify-mutated")])),
            ("optimize-nu", lambda: run_cli(["optimize-nu", "--res", "1/64",
                                             "--out", str(o / "optimize-nu")])),
        ]

    def check(self, results):
        o = self.out
        return (
            check_identity(o / "identity", results["identity"])
            + check_verify(o / "verify", results["verify"])
            + check_verify_mutated(o / "verify-mutated", results["verify-mutated"], self.claims)
            + check_optimize_nu(o / "optimize-nu", results["optimize-nu"])
        )


def check_identity(out: Path, run: CliRun) -> list[str]:
    problems = _exit_problem("identity", run, 0)
    if problems:
        return problems
    report = _read_json(out / "identity_report.json")
    if not report["max_residual"] < IDENTITY_TOL or report["exact"] is not True:
        problems.append(f"identity: max residual {report['max_residual']} not < {IDENTITY_TOL}")
    n = len(_read_json(out / "factorizations.json"))
    want = oracles.factorization_count(IDENTITY_X, IDENTITY_K)
    if n != want:
        problems.append(f"identity: {n} factorizations, expected {want}")
    return problems


def _failing_ids(step: str, report: dict) -> tuple[list[str], list[str]]:
    """Failing claim ids read from the verdicts, and any disagreement with the summary."""
    failing = sorted(v["id"] for v in report["verdicts"] if v["holds"] is not True)
    if failing != sorted(report["failures"]) or report["holds"] != report["claims"] - len(failing):
        return failing, [f"{step}: verdicts {failing} disagree with summary "
                         f"{report['failures']}, {report['holds']}/{report['claims']}"]
    return failing, []


def check_verify(out: Path, run: CliRun) -> list[str]:
    problems = _exit_problem("verify", run, 0)
    if problems:
        return problems
    report = _read_json(out / "verdicts.json")
    if report["claims"] != BUILTIN_CLAIMS or len(report["verdicts"]) != BUILTIN_CLAIMS:
        problems.append(f"verify: {report['claims']} claims, expected {BUILTIN_CLAIMS}")
    failing, disagree = _failing_ids("verify", report)
    problems += disagree
    if failing:
        problems.append(f"verify: claims fail: {failing}")
    return problems


def check_verify_mutated(out: Path, run: CliRun, claims: dict) -> list[str]:
    problems = _exit_problem("verify-mutated", run, 3)
    report = _read_json(out / "verdicts.json")
    want = sorted(cid for cid in claims if cid.endswith(MUTATED_SUFFIX))
    if len(want) != MUTATED_CLAIMS:
        problems.append(f"verify-mutated: ledger has {len(want)} mutated claims")
    failing, disagree = _failing_ids("verify-mutated", report)
    problems += disagree
    if failing != want:
        problems.append(f"verify-mutated: failing {failing}, expected {want}")
    for v in report["verdicts"]:
        if v["holds"] is True or v["id"] not in claims:
            continue
        verdict = Verdict(v["id"], False, v["certificate"])
        if not recheck_verdict(claims[v["id"]], verdict):
            problems.append(f"verify-mutated: counterexample for {v['id']} does not recheck")
    return problems


def check_optimize_nu(out: Path, run: CliRun) -> list[str]:
    problems = _exit_problem("optimize-nu", run, 0)
    if problems:
        return problems
    report = _read_json(out / "nu_profile.json")
    if report["nu_star"] != NU_STAR or report["argmax_sigma"] != NU_SIGMA:
        problems.append(f"optimize-nu: nu* = {report['nu_star']} at sigma = "
                        f"{report['argmax_sigma']}, expected {NU_STAR} at {NU_SIGMA}")
    return problems


# ---------------------------------------------------------------------------
# The benchmark's workloads: two of the above in each pass
# ---------------------------------------------------------------------------


class Merged(Workload):
    """The steps of `parts` in one pass, each part writing under out/<part name>.

    Two workloads instead of four let each run measure for 50 s rather than
    20 s within the harness's time limit.  A shared host's slow spells last
    up to a minute, so a longer run more often spends some of its time in
    the host's fast state, and its fastest passes show that state.
    """

    parts: tuple[type[Workload], ...] = ()

    def __init__(self, seed: int, out: Path):
        super().__init__(seed, out)
        self.members = [cls(seed, self.out / cls.name) for cls in self.parts]

    def prepare(self) -> None:
        for m in self.members:
            m.prepare()

    def reset(self, n: int = 0) -> None:
        for m in self.members:
            m.reset(n)

    def inputs(self) -> str:
        return " ".join(m.inputs() for m in self.members)

    def steps(self):
        return [step for m in self.members for step in m.steps()]

    def check(self, results):
        return [problem for m in self.members for problem in m.check(results)]

    def fingerprint(self, results):
        return "".join(m.fingerprint(results) for m in self.members)


class GapsExact(Merged):
    """Integer and exact-rational work: the sieve in bulk, then Fraction and Sturm."""

    name = "gaps-exact"
    parts = (Gaps, Exact)


class WindowsCells(Merged):
    """Floating-point spectral work: Perron quadrature, then classification and R*."""

    name = "windows-cells"
    parts = (Windows, Cells)


WORKLOADS = {w.name: w for w in (GapsExact, WindowsCells)}

#: Every step of every workload, in workload order.
STEPS = ("gaps", "decay-suite", "perron", "largevalues", "long-t-cells",
         "identity", "verify", "verify-mutated", "optimize-nu")
