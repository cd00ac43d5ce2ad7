"""Batch command-line entry point.

Subcommands: gaps, identity, largevalues, perron, verify, optimize-nu,
report.  Every completed run writes a manifest echoing its full effective
options; `report --manifest <file>` re-dispatches from a manifest and
reproduces the outputs byte-for-byte.

Exit codes: 0 success, 1 usage, 2 capacity, 3 verification failure; a
refused run (exit 2) writes no manifest.  Integer options and factor lengths
accept scientific notation (1e6); --res also takes a rational (9/5).  Both are
read by claims.parse_rational, whose caps are usage errors here.  A --config
file of key=value lines supplies defaults that the command line overrides.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import CapacityError, QuadratureError
from .claims import parse_ledger, parse_rational, verify_claim
from .ledger import builtin_ledger
from .reports import (
    cell_records,
    factorization_dump,
    nu_grid_records,
    summary_dict,
    write_gap_csv,
    write_json,
    write_manifest,
    write_table_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAPACITY = 2
EXIT_VERIFICATION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit-code contract: usage errors are 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def parse_fraction_literal(text: str) -> Fraction:
    """A rational literal read by claims.parse_rational (9/5, 0.25, 1e-3); its
    caps and a zero denominator are usage errors here."""
    try:
        return parse_rational(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"{text!r} has a zero denominator") from None
    except CapacityError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_int_literal(text: str) -> int:
    """An integer literal, scientific notation allowed (1e6, 2.5e3, 1500e-2):
    a rational literal without a slash whose value is an integer."""
    try:
        value = None if "/" in str(text) else parse_fraction_literal(text)
    except ValueError:
        value = None
    if value is None or value.denominator != 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return value.numerator


def parse_flag(text: str) -> bool:
    """A config or manifest on/off value: 1/true/yes or 0/false/no."""
    t = str(text).strip().lower()
    if t in ("1", "true", "yes"):
        return True
    if t in ("0", "false", "no"):
        return False
    raise argparse.ArgumentTypeError(f"{text!r} is not a flag value (true/false)")


def _limits_arg(text: str) -> list[int]:
    return [parse_int_literal(t) for t in str(text).split(",")]


def load_config_file(path: str) -> dict:
    out = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


# ---------------------------------------------------------------------------
# Command implementations (each takes resolved options, returns exit code)
# ---------------------------------------------------------------------------

def cmd_gaps(opt: dict) -> int:
    from . import primes

    limits = sorted(set(opt["limits"]))
    out = Path(opt["out"])
    summaries = primes.gap_sweep(limits)
    rows = [primes.max_gap_row(s) for s in summaries]
    write_table_csv(out / "max_gap_table.csv", rows)
    write_json(out / "gap_summaries.json", [summary_dict(s) for s in summaries])
    if opt["stream_csv"]:
        stream = primes.iter_gaps(min(limits[-1], opt["stream_limit"]))
        n = write_gap_csv(out / "gaps.csv", stream)
        print(f"wrote {n} gap rows")
    for N, g, r in rows:
        print(f"N={N}: max gap {g}, log ratio {r:.2f}")
    return EXIT_OK


def cmd_identity(opt: dict) -> int:
    from . import identity

    x, k = opt["x"], opt["k"]
    identity.check_capacity(x, k)
    cfg = identity.make_config(x, k)
    rows = identity.enumerate_factorizations(cfg) if opt["dump_factorizations"] else None
    residuals = identity.identity_residuals(cfg)
    report = {
        "x": x,
        "k": k,
        "mobius_cutoff": cfg.mobius_cutoff,
        "window": [x + 1, 3 * x],
        "max_residual": float(residuals.max()),
        "tolerance": identity.EXACTNESS_TOL,
        "exact": bool(residuals.max() < identity.EXACTNESS_TOL),
    }
    out = Path(opt["out"])
    write_json(out / "identity_report.json", report)
    if rows is not None:
        write_json(out / "factorizations.json", factorization_dump(rows))
    print(f"identity x={x} k={k}: max residual {report['max_residual']:.3e}")
    return EXIT_OK if report["exact"] else EXIT_VERIFICATION


def cmd_largevalues(opt: dict) -> int:
    from .experiments import run_large_value_suite

    suite = run_large_value_suite(opt["experiments"], opt["seed"], opt["slack"])
    write_json(Path(opt["out"]) / "largevalues_report.json", {
        "seed": suite["seed"],
        "n_cells": suite["n_cells"],
        "sandwich_ok": suite["sandwich_ok"],
        "montgomery_ok": suite["montgomery_ok"],
        "worst_montgomery_ratio": suite["worst_montgomery_ratio"],
        "slack": suite["slack"],
        "cells": cell_records(suite["cells"]),
    })
    print(
        f"{suite['n_cells']} cells; sandwich {'ok' if suite['sandwich_ok'] else 'VIOLATED'}; "
        f"mean-value ratio max {suite['worst_montgomery_ratio']:.4f} (slack {suite['slack']:g})"
    )
    ok = suite["sandwich_ok"] and suite["montgomery_ok"]
    return EXIT_OK if ok else EXIT_VERIFICATION


def _parse_factors(spec: str):
    from .dirichlet import FACTOR_KINDS, singleton_factor

    out = []
    for part in spec.split(","):
        part = part.strip()
        if part == "singleton":
            out.append(singleton_factor())
            continue
        kind, _, n = part.partition(":")
        if kind not in FACTOR_KINDS or not n:
            raise ValueError(f"bad factor spec {part!r} (e.g. unit:8, mobius:16, singleton)")
        out.append(FACTOR_KINDS[kind](parse_int_literal(n)))
    return out


def cmd_perron(opt: dict) -> int:
    from .perron import make_perron_params, perron_window

    factors = _parse_factors(opt["factors"])
    params = make_perron_params(opt["y"], opt["tau"], T0=opt["T0"])
    rep = perron_window(params, factors)
    write_json(Path(opt["out"]) / "perron_report.json", rep.as_dict())
    print(
        f"y={params.y:g} tau={params.tau:g} T0={params.T0:g}: "
        f"estimate {rep.estimate:.6f} direct {rep.direct:.6f} "
        f"residual {rep.residual:.3e} (envelope constant {rep.implied_constant:.3e})"
    )
    return EXIT_OK


def cmd_verify(opt: dict) -> int:
    claims = (
        parse_ledger(Path(opt["ledger"]).read_text(encoding="utf-8"))
        if opt["ledger"]
        else builtin_ledger()
    )
    verdicts = [verify_claim(c) for c in claims]
    failures = [v for v in verdicts if not v.holds]
    report = {
        "claims": len(claims),
        "holds": len(claims) - len(failures),
        "failures": [v.claim_id for v in failures],
        "verdicts": [
            {"id": v.claim_id, "holds": v.holds, "certificate": v.certificate}
            for v in verdicts
        ],
    }
    write_json(Path(opt["out"]) / "verdicts.json", report)
    for v in verdicts:
        if not v.holds:
            ce = v.certificate.get("counterexample")
            where = (
                f" at sigma={ce['sigma']}, mu={ce['mu']}"
                f" (lhs {ce['lhs_value']} > rhs {ce['rhs_value']})"
                if isinstance(ce, dict) else ""
            )
            print(f"FAIL {v.claim_id}{where}")
    print(f"{report['holds']}/{report['claims']} claims hold")
    return EXIT_OK if not failures else EXIT_VERIFICATION


def cmd_optimize_nu(opt: dict) -> int:
    from .nu import optimize_nu

    res = optimize_nu(opt["res"])
    write_json(Path(opt["out"]) / "nu_profile.json",
               {**res.as_dict(), "grid": nu_grid_records(res.grid)})
    print(
        f"nu* = {res.nu_star} ({float(res.nu_star):.6f}) at sigma={res.argmax[0]}, "
        f"mu={res.argmax[1]}"
    )
    if res.below_floor:
        print("warning: optimum fell below the configured floor 29/120")
    return EXIT_OK


def _read_manifest(path: str, out: str) -> tuple[str, dict]:
    """The command of a manifest and its options, with out replaced.

    Each value is re-parsed as its command-line text: this restores exact
    types lost through JSON (a Fraction res) and refuses values of the wrong
    type.  Keys the command does not take, such as the retired threads,
    gauss_order, allow_large and ceiling, are dropped.
    """
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError("manifest JSON is nested too deeply") from None
    command = manifest.get("command") if isinstance(manifest, dict) else None
    if not isinstance(command, str) or command not in _HANDLERS:
        raise ValueError(f"manifest command {command!r} is not one of {', '.join(_HANDLERS)}")
    if not isinstance(manifest.get("options"), dict):
        raise ValueError("manifest has no 'options' object")
    options = {**manifest["options"], "out": out}
    table = _table(command)
    missing = [k for k in table if k not in options]
    if missing:
        raise ValueError(f"manifest options lack {', '.join(missing)}")
    revived = {}
    for key, value in options.items():
        if key not in table:
            continue
        parse, default, _ = table[key]
        items = value if isinstance(value, list) else [value]
        if any(isinstance(v, (list, dict)) for v in items):
            raise ValueError(f"manifest option {key} is not a value or a flat list of values")
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        try:
            revived[key] = None if value is None and default is None else parse(text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"manifest option {key}={value!r}: {exc}") from None
    return command, revived


_HANDLERS = {
    "gaps": cmd_gaps,
    "identity": cmd_identity,
    "largevalues": cmd_largevalues,
    "perron": cmd_perron,
    "verify": cmd_verify,
    "optimize-nu": cmd_optimize_nu,
}


# ---------------------------------------------------------------------------
# Options and argument wiring
# ---------------------------------------------------------------------------

_SUMMARIES = {
    "gaps": "gap table and moment summaries",
    "identity": "Lambda recovery check",
    "largevalues": "randomized cell experiments",
    "perron": "truncated window estimate",
    "verify": "exact inequality ledger",
    "optimize-nu": "recover the critical exponent",
    "report": "re-run from a manifest",
}

#: Each command's options, name -> (parser, default, help).  The parser reads
#: command-line, config-file and manifest text alike; a parse_flag option is a
#: command-line switch.  Every command also takes --out and --config, and
#: report its --manifest.
_OPTIONS = {
    "gaps": {
        "limits": (_limits_arg, [10, 100, 1000], "comma list, e.g. 10,1e6"),
        "stream_csv": (parse_flag, False, "also write the per-gap CSV stream"),
        "stream_limit": (parse_int_literal, 10**5, None),
    },
    "identity": {
        "x": (parse_int_literal, 50, None),
        "k": (parse_int_literal, 2, None),
        "dump_factorizations": (parse_flag, False, None),
    },
    "largevalues": {
        "experiments": (parse_int_literal, 100, None),
        "seed": (parse_int_literal, 20120116, None),
        "slack": (float, 100.0, None),
    },
    "perron": {
        "y": (float, 201.5, None),
        "tau": (float, 10.0, None),
        "T0": (float, None, None),
        "factors": (str, "unit:128", "e.g. unit:8,singleton"),
    },
    "verify": {"ledger": (str, None, "ledger file (default: builtin)")},
    "optimize-nu": {"res": (parse_fraction_literal, Fraction(1, 64), None)},
    "report": {},
}


def _table(command: str) -> dict:
    """The options a config file or a manifest may set for command, out last."""
    return {**_OPTIONS[command], "out": (str, "gapscope-out", None)}


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once a process: it holds no results, and
    each parse_args returns a fresh namespace."""
    p = _Parser(prog="gapscope", description=__doc__)
    p.add_argument("--version", action="version", version=f"gapscope {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output directory (default ./gapscope-out)")
    common.add_argument("--config", default=None, help="key=value config file")

    for command, summary in _SUMMARIES.items():
        sp = sub.add_parser(command, parents=[common], help=summary)
        for key, (parse, _, text) in _OPTIONS[command].items():
            kind = {"action": "store_true"} if parse is parse_flag else {"type": parse}
            sp.add_argument("--" + key.replace("_", "-"), default=None, help=text, **kind)
        if command == "report":
            sp.add_argument("--manifest", required=True)
    return p


def resolve_options(args: argparse.Namespace) -> dict:
    """Layered options: command line > config file > defaults."""
    table = _table(args.command)
    opt = {key: default for key, (_, default, _) in table.items()}
    cfg = load_config_file(args.config) if args.config else {}
    for key, raw in cfg.items():
        if key not in table:
            raise ValueError(f"config key {key!r} is not an option of {args.command} "
                             f"(it takes {', '.join(table)})")
        opt[key] = table[key][0](raw)
    for key, val in vars(args).items():
        if key in ("command", "config") or val is None:
            continue
        opt[key] = val
    return opt


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        opt = resolve_options(args)
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    command = args.command
    try:
        if command == "report":
            command, opt = _read_manifest(opt["manifest"], opt["out"])
        code = _HANDLERS[command](opt)
        write_manifest(Path(opt["out"]) / "manifest.json", command, opt)
        return code
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, OSError, QuadratureError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
