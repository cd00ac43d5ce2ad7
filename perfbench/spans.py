"""Spans around gapscope's layer functions, recorded from outside the package.

`Tracer.start()` replaces each traced function with a wrapper in every
gapscope module namespace that holds it (a name imported with `from x import
f` is its own binding and needs its own patch), and `Tracer.stop()` puts the
originals back.  No package file changes.

A span records its name, thread, start, end, the span that called it on the
same thread, and work counts.  A span opened on a pool thread with nothing
open on that thread is charged to the innermost span open on the main thread
(the benchmark has one client, so that span is the one waiting for the pool).
Per pass:

- `self_s` is a span's duration minus its same-thread child spans and minus
  its `wait_s`;
- `wait_s` is the part of that remainder covered by pool-thread spans it
  caused, i.e. time the caller sat waiting for its workers;
- top-level spans are main-thread spans with no caller; the pass time they
  leave uncovered is benchmark glue, argument parsing and untraced code.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Span:
    __slots__ = ("name", "thread", "start", "end", "parent", "cause", "counts")

    def __init__(self, name, thread, parent, cause):
        self.name = name
        self.thread = thread
        self.parent = parent
        self.cause = cause
        self.counts = None
        self.start = self.end = 0.0

    def count(self, key, value) -> None:
        if self.counts is None:
            self.counts = {}
        self.counts[key] = value


# ---------------------------------------------------------------------------
# Work counts, taken from a traced call's arguments and result
# ---------------------------------------------------------------------------

def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _gap_sweep(span, fn, args, kwargs, result):
    span.count("gaps", result[-1].count if result else 0)


def _eval_factor_grid(span, fn, args, kwargs, result):
    # the support size is reported by the factor.support() child span
    size = span.counts.get("support_size", 0) if span.counts else 0
    span.count("tn_pairs", len(result) * size)


def _support(span, fn, args, kwargs, result):
    f = args[0]
    span.count("key", (f.cls, f.N, f.mobius_cutoff))
    if span.parent is not None:
        span.parent.count("support_size", len(result[0]))


def _perron_window_scan(span, fn, args, kwargs, result):
    top = max(float(t) for t in _arg(fn, args, kwargs, "t_checkpoints"))
    width = _arg(fn, args, kwargs, "panel_width")
    panels = max(1, math.ceil(top / width - 1e-12))
    span.count("panels", panels)
    span.count("nodes", panels * _arg(fn, args, kwargs, "gauss_order"))


def _mobius_sieve(span, fn, args, kwargs, result):
    span.count("entries", len(result))


def _classify_profile(span, fn, args, kwargs, result):
    span.count("intervals", result.total())


def _count_r_rstar(span, fn, args, kwargs, result):
    span.count("members", result.R)
    span.count("pairs", result.R * result.R)


def _enumerate_factorizations(span, fn, args, kwargs, result):
    span.count("factorizations", len(result))


def _write_json(span, fn, args, kwargs, result):
    span.count("bytes", Path(_arg(fn, args, kwargs, "path")).stat().st_size)


#: (span name, module, attribute, work-count hook).  The attribute may name
#: a method as "Class.method".
TARGETS = (
    ("primes.sieve", "primes", "iter_prime_segments", None),
    ("primes.gap_sweep", "primes", "gap_sweep", _gap_sweep),
    ("primes.max_gap_table", "primes", "max_gap_table", None),
    ("primes.von_mangoldt", "primes", "von_mangoldt", None),
    ("identity.mobius_sieve", "identity", "mobius_sieve", _mobius_sieve),
    ("identity.kj_table", "identity", "kj_table", None),
    ("identity.identity_residuals", "identity", "identity_residuals", None),
    ("identity.enumerate_factorizations", "identity", "enumerate_factorizations",
     _enumerate_factorizations),
    ("dirichlet.support", "dirichlet", "PolyFactor.support", _support),
    ("dirichlet.eval_factor_grid", "dirichlet", "eval_factor_grid", _eval_factor_grid),
    ("dirichlet.classify_profile", "dirichlet", "classify_profile", _classify_profile),
    ("dirichlet.count_R_Rstar", "dirichlet", "count_R_Rstar", _count_r_rstar),
    ("perron.perron_window_scan", "perron", "perron_window_scan", _perron_window_scan),
    ("perron.perron_window", "perron", "perron_window", None),
    ("perron.direct_window_sum", "perron", "direct_window_sum", None),
    ("experiments.product_mean_square", "experiments", "product_mean_square", None),
    ("experiments.analyze_classification", "experiments", "analyze_classification", None),
    ("experiments.run_large_value_suite", "experiments", "run_large_value_suite", None),
    ("experiments.run_perron_decay_suite", "experiments", "run_perron_decay_suite", None),
    ("claims.parse_ledger", "claims", "parse_ledger", None),
    ("claims.verify_claim", "claims", "verify_claim", None),
    ("algebra.nonneg_on_interval", "algebra", "nonneg_on_interval", None),
    ("nu.required_nu_value", "nu", "required_nu_value", None),
    ("nu.optimize_nu", "nu", "optimize_nu", None),
    ("reports.write_json", "reports", "write_json", _write_json),
    ("reports.write_manifest", "reports", "write_manifest", None),
    ("cli.gaps", "cli", "cmd_gaps", None),
    ("cli.identity", "cli", "cmd_identity", None),
    ("cli.largevalues", "cli", "cmd_largevalues", None),
    ("cli.perron", "cli", "cmd_perron", None),
    ("cli.verify", "cli", "cmd_verify", None),
    ("cli.optimize-nu", "cli", "cmd_optimize_nu", None),
)


# ---------------------------------------------------------------------------
# Per-layer metrics, each a per-pass value
# ---------------------------------------------------------------------------

def _fields(span: str, *fields: str) -> list[str]:
    return [f"{span}.{f}" for f in fields]


LAYER_METRICS = (
    _fields("primes.sieve", "self_s", "segments", "integers_per_s")
    + _fields("primes.gap_sweep", "calls", "self_s", "gaps")
    + _fields("primes.max_gap_table", "self_s")
    + _fields("primes.von_mangoldt", "calls", "self_s")
    + _fields("dirichlet.eval_factor_grid", "self_s", "tn_pairs", "tn_per_s")
    + _fields("perron.perron_window_scan", "self_s", "panels", "nodes")
    + _fields("perron.perron_window", "self_s")
    + _fields("perron.direct_window_sum", "calls", "self_s")
    + _fields("dirichlet.support", "calls", "self_s", "distinct_ratio")
    + _fields("identity.mobius_sieve", "calls", "self_s", "entries")
    + _fields("dirichlet.classify_profile", "self_s", "intervals")
    + _fields("dirichlet.count_R_Rstar", "self_s", "members", "pairs")
    + _fields("experiments.product_mean_square", "calls", "self_s")
    + _fields("experiments.analyze_classification", "self_s")
    + _fields("experiments.run_large_value_suite", "self_s")
    + _fields("experiments.run_perron_decay_suite", "self_s")
    + _fields("identity.enumerate_factorizations", "self_s", "factorizations")
    + _fields("identity.kj_table", "self_s")
    + _fields("identity.identity_residuals", "self_s")
    + _fields("reports.write_json", "self_s", "bytes")
    + _fields("reports.write_manifest", "self_s")
    + _fields("claims.parse_ledger", "self_s")
    + _fields("claims.verify_claim", "calls", "self_s")
    + _fields("algebra.nonneg_on_interval", "calls", "self_s")
    + _fields("nu.required_nu_value", "calls", "self_s")
    + _fields("nu.optimize_nu", "self_s", "wait_s")
    + [m for cmd in ("gaps", "identity", "largevalues", "perron", "verify", "optimize-nu")
       for m in _fields(f"cli.{cmd}", "self_s", "wait_s")]
)

_UNITS = {
    "self_s": "s",
    "wait_s": "s",
    "integers_per_s": "1/s",
    "tn_per_s": "1/s",
    "distinct_ratio": "ratio",
    "bytes": "B",
}


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric; the rest are plain work counts."""
    return _UNITS.get(name.rsplit(".", 1)[1], "count")


# ---------------------------------------------------------------------------
# The tracer
# ---------------------------------------------------------------------------

class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, stack: list[Span]) -> Span:
        parent = stack[-1] if stack else None
        cause = None
        if parent is None and stack is not self._main_stack and self._main_stack:
            cause = self._main_stack[-1]
        span = Span(name, threading.get_ident(), parent, cause)
        self.spans.append(span)
        stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span, stack: list[Span]) -> None:
        span.end = perf_counter()
        stack.pop()

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = tracer._open(name, stack)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, stack)
            if hook is not None:
                hook(span, fn, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def _wrap_segments(self, name, fn):
        """Time each next() on the segment generator; count segments and integers."""
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            covered = _arg(fn, args, kwargs, "lo") - 1
            while True:
                stack = tracer._stack()
                span = tracer._open(name, stack)
                try:
                    seg = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(span, stack)
                top = int(seg[-1])
                span.count("segments", 1)
                span.count("integers", top - covered)
                covered = top
                yield seg

        return functools.wraps(fn)(traced)

    # -- installing ---------------------------------------------------------

    def start(self) -> None:
        """Clear recorded spans and patch every target (call on the main thread)."""
        self.spans = []
        self._main_stack = self._local.stack = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "gapscope" or n.startswith("gapscope.")]
        for name, module, attr, hook in TARGETS:
            owner = sys.modules[f"gapscope.{module}"]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(name, original, hook))
                continue
            original = getattr(owner, meth)
            wrapper = (self._wrap_segments(name, original)
                       if inspect.isgeneratorfunction(original)
                       else self._wrap(name, original, hook))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        # dispatch tables such as cli._HANDLERS
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch(value, k, wrapper)

    def _patch(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def stop(self) -> None:
        """Put every original back, newest patch first."""
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches = []

    # -- per-pass summary ---------------------------------------------------

    def summarize(self, pass_s: float) -> dict[str, float]:
        """Per-layer metrics of the pass just recorded, plus uncovered time."""
        child = defaultdict(float)
        caused = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                child[id(s.parent)] += s.end - s.start
            elif s.cause is not None:
                caused[id(s.cause)].append((s.start, s.end))
        agg = defaultdict(lambda: defaultdict(float))
        keys = defaultdict(set)
        main = threading.main_thread().ident
        top_level = 0.0
        for s in self.spans:
            dur = s.end - s.start
            own = dur - child[id(s)]
            wait = min(own, _union(caused.get(id(s), ()), s.start, s.end))
            a = agg[s.name]
            a["calls"] += 1
            a["self_s"] += own - wait
            a["wait_s"] += wait
            if s.counts:
                for k, v in s.counts.items():
                    if k == "key":
                        keys[s.name].add(v)
                    elif k != "support_size":
                        a[k] += v
            if s.parent is None and s.thread == main:
                top_level += dur
        for name, ks in keys.items():
            agg[name]["distinct_ratio"] = len(ks) / agg[name]["calls"]
        for name, rate, work in (("primes.sieve", "integers_per_s", "integers"),
                                 ("dirichlet.eval_factor_grid", "tn_per_s", "tn_pairs")):
            a = agg.get(name)
            if a and a["self_s"] > 0:
                a[rate] = a[work] / a["self_s"]
        out = {}
        for metric in LAYER_METRICS:
            span, field = metric.rsplit(".", 1)
            out[metric] = float(agg[span][field]) if span in agg else 0.0
        out["trace.uncovered_s"] = pass_s - top_level
        return out


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total
