"""gapscope benchmark: one workload per invocation, checked, closed loop.

    python3 perfbench/run.py --workload gaps-exact --seed 1 --seconds 50 --trace 0

Runs from the root of a source checkout and imports gapscope from its
`src/`.  One client runs one pass after another in this process: a warm-up
pass (timed, checked, not reported), then passes until `--seconds` of
passes have been measured (at least one; two when tracing).  Every pass's
output is checked outside the timed region; a pass fails on a wrong exit
code, a failed check, or report bytes that differ from the run's first pass
on the same inputs.  BLAS runs one thread; gapscope's own thread pools keep
their defaults.

With `--trace 0` the last stdout line reports the end-to-end metrics; with
`--trace 1` passes alternate traced and untraced and it reports the
per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from spans import LAYER_METRICS, Tracer, metric_unit

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"

MIN_PASSES = 1
#: No pass starts that would end the run past this, so a slow program still
#: reports (from one measured pass) within three minutes.
RUN_LIMIT_S = 150.0
SETUP_SAMPLES = 9
LAYER_MODULES = ("cli", "primes", "identity", "dirichlet", "perron", "experiments",
                 "claims", "algebra", "ledger", "nu", "reports")

END_TO_END = {
    "pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Pass-time statistics reported with the per-layer metrics (no bound).
PASS_SPREAD = {"pass_s.median": "s", "pass_s.tail": "s"}


@dataclass
class Pass:
    wall: float
    steps: dict[str, float]
    problems: list[str]
    inputs: str = ""
    digest: str = ""
    layers: dict[str, float] = field(default_factory=dict)


def run_pass(workload, tracer=None, n: int = 0) -> Pass:
    """Timed pass `n` of every step, then its checks outside the timed region."""
    workload.reset(n)
    gc.collect()
    results, steps, problems = {}, {}, []
    if tracer is not None:
        tracer.start()
    t0 = perf_counter()
    try:
        for name, fn in workload.steps():
            s = perf_counter()
            results[name] = fn()
            steps[name] = perf_counter() - s
    except Exception:
        problems.append("step raised:\n" + traceback.format_exc())
    finally:
        wall = perf_counter() - t0
        if tracer is not None:
            tracer.stop()
    p = Pass(wall, steps, problems, workload.inputs())
    if tracer is not None:
        p.layers = tracer.summarize(wall)
    if not problems:
        try:
            p.problems = workload.check(results)
            p.digest = workload.digest(results)
        except Exception:
            p.problems.append("check raised:\n" + traceback.format_exc())
    return p


@dataclass
class Run:
    warmup: Pass
    passes: list[Pass]

    @property
    def all_passes(self) -> list[Pass]:
        return [self.warmup] + self.passes

    @property
    def failed(self) -> int:
        return sum(1 for p in self.all_passes if p.problems)


def _another_pass(passes: list[Pass], t_run: float, t_measure: float, seconds: float,
                  min_passes: int) -> bool:
    if not passes:
        return True
    now, last = perf_counter(), passes[-1].wall
    if now - t_run + last > RUN_LIMIT_S:
        return False
    return len(passes) < min_passes or now - t_measure + last <= seconds


def measure(workload, seconds: float, trace: bool, t_run: float | None = None) -> Run:
    """Warm-up pass, then passes for `seconds` (alternating traced ones if `trace`).

    A pass starts only if, at the length of the one before, it ends within
    `seconds` of measuring.  At least MIN_PASSES run, and with tracing at
    least one traced and one untraced, unless that would take the run
    (begun at `t_run`) past RUN_LIMIT_S.
    """
    t_run = perf_counter() if t_run is None else t_run
    workload.prepare()
    warmup = run_pass(workload)
    first = {} if warmup.problems else {warmup.inputs: warmup.digest}
    passes: list[Pass] = []
    tracer = Tracer() if trace else None
    t_measure = perf_counter()
    min_passes = 2 if trace else MIN_PASSES
    while _another_pass(passes, t_run, t_measure, seconds, min_passes):
        traced = tracer is not None and len(passes) % 2 == 0
        p = run_pass(workload, tracer if traced else None, len(passes) + 1)
        if not p.problems and p.digest != first.setdefault(p.inputs, p.digest):
            p.problems.append("report bytes differ from the run's first pass on these inputs")
        passes.append(p)
    return Run(warmup, passes)


def fast(values: list[float]) -> float:
    """The 10th percentile (nearest rank): the pass time of an uncontended host.

    The shared host alternates between a fast state and states up to 40 %
    slower, each lasting seconds to a minute.  A run's median moves with the
    share of the run spent slow; its fastest tenth moves far less, as long
    as the run spends a tenth of its time in the fast state.
    """
    xs = sorted(values)
    return xs[len(xs) // 10]


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it.

    With ten samples or fewer no percentile qualifies; the maximum is
    reported instead, with the sample count beside it.
    """
    xs = sorted(values)
    return xs[len(xs) - 11] if len(xs) >= 11 else xs[-1]


def setup_seconds(samples: int = SETUP_SAMPLES) -> float:
    """Median wall time of a fresh interpreter importing gapscope.cli and every layer."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            + "; ".join(f"import gapscope.{m}" for m in LAYER_MODULES))
    cmd = [sys.executable, "-c", code]
    subprocess.run(cmd, check=True)  # writes bytecode caches, not timed
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        subprocess.run(cmd, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def blas_threads() -> str:
    """OpenBLAS's thread count, read from the library numpy ships, if found."""
    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    return "unknown"


def git_commit() -> str:
    """HEAD's commit, read from the checkout's own .git directory."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict[str, str]:
    import numpy as np
    import gapscope

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "gapscope": gapscope.__version__,
        "commit": git_commit(),
        "GAPSCOPE_THREADS": "unset",
    }


def end_to_end(run: Run, setup_s: float) -> dict[str, float]:
    return {
        "pass_s": fast([p.wall for p in run.passes]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def step_medians(passes: list[Pass]) -> dict[str, float]:
    from workloads import STEPS

    return {f"step_s.{s}": statistics.median(p.steps[s] for p in passes)
            if all(s in p.steps for p in passes) else 0.0 for s in STEPS}


def pass_spread(passes: list[Pass]) -> dict[str, float]:
    walls = [p.wall for p in passes]
    return {"pass_s.median": statistics.median(walls), "pass_s.tail": tail(walls)}


def per_layer(run: Run) -> dict[str, float]:
    """Medians over the traced passes; steps, pass spread and overhead from the others.

    If the run limit left no untraced pass, the warm-up stands in for them.
    """
    traced = run.passes[0::2]
    plain = run.passes[1::2] or [run.warmup]
    out = {m: statistics.median(p.layers.get(m, 0.0) for p in traced) for m in LAYER_METRICS}
    out.update(step_medians(plain))
    out.update(pass_spread(plain))
    traced_s = statistics.median(p.wall for p in traced)
    out["trace.pass_s"] = traced_s
    out["trace.overhead_s"] = traced_s - statistics.median(p.wall for p in plain)
    out["trace.uncovered_s"] = statistics.median(p.layers["trace.uncovered_s"] for p in traced)
    return out


def layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    from workloads import STEPS

    units = {m: metric_unit(m) for m in LAYER_METRICS}
    units.update({f"step_s.{s}": "s" for s in STEPS})
    units.update(PASS_SPREAD)
    units.update({"trace.pass_s": "s", "trace.overhead_s": "s", "trace.uncovered_s": "s"})
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the largevalues default seed)")
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    t_run = perf_counter()
    args = parse_args(argv)
    if not (SRC / "gapscope" / "cli.py").is_file():
        print(f"error: no gapscope sources under {SRC}; run from a gapscope checkout",
              file=sys.stderr)
        return 2
    # Measure what users get: the CLI's default thread count, no override.
    os.environ.pop("GAPSCOPE_THREADS", None)
    # One BLAS thread, set before numpy loads.  With two, each matrix product
    # waits for both vCPUs, and on a shared 2-vCPU host a slowed vCPU made
    # the numpy-heavy passes up to 2.5 times slower.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import gapscope

    if Path(gapscope.__file__).resolve().parent != SRC / "gapscope":
        print(f"error: imported gapscope from {gapscope.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    for key, value in environment().items():
        print(f"env {key} = {value}")
    setup_s = None if args.trace else setup_seconds()

    work = RUNS / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](seed, work / "out")
        run = measure(workload, args.seconds, bool(args.trace), t_run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass

    for i, p in enumerate(run.all_passes):
        label = "warm-up" if i == 0 else f"pass {i}"
        steps = ", ".join(f"{k} {v:.4f}" for k, v in p.steps.items())
        if p.layers:
            steps += f"; traced, uncovered {p.layers['trace.uncovered_s']:.4f}"
        print(f"{label}: {p.wall:.4f} s ({steps}){' FAILED' if p.problems else ''}")
        for problem in p.problems:
            print(f"  problem: {problem}")
    attempted = len(run.all_passes)
    print(f"failed_frac = {run.failed / attempted} ratio ({run.failed}/{attempted} passes)")
    if args.trace:
        values = per_layer(run)
        units = layer_units()
        print(f"traced passes: {len(run.passes[0::2])}, untraced: {len(run.passes[1::2])}")
    else:
        values = end_to_end(run, setup_s)
        units = END_TO_END
        values.update(step_medians(run.passes))
        values.update(pass_spread(run.passes))
        print(f"measured passes: {len(run.passes)} (warm-up excluded); pass_s.tail is "
              + ("the max" if len(run.passes) < 11 else "the percentile with 10 beyond it"))
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units.get(name, 's')}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": run.failed == 0, "attempted": attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
