"""Canonical, byte-stable report serialization.

All machine-readable outputs go through `canonical_json`: dict keys keep
insertion order, floats print as %.12g, Fractions as "p/q" strings.  Two
runs with identical configuration therefore produce identical bytes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path
from typing import Iterable


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == int(x) and abs(x) < 1e15:
        return repr(int(x))  # avoid 3.0/3 flapping between sources
    return format(x, ".12g")


def canonical_json(obj, indent: int = 0) -> str:
    # Exact str, int, dict, list and tuple dispatch on type(obj); subclasses
    # and every other type take the isinstance chain, whose Fraction check is
    # an ABC lookup.
    t = type(obj)
    if t is str:
        return _json_str(obj)
    if t is int:
        return repr(obj)
    if t is dict:
        return _json_dict(obj, indent)
    if t is list or t is tuple:
        return _json_seq(obj, indent)
    if isinstance(obj, dict):
        return _json_dict(obj, indent)
    if isinstance(obj, (list, tuple)):
        return _json_seq(obj, indent)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, Fraction):
        return f'"{obj}"'
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return repr(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return _json_str(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def _json_str(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _json_dict(obj: dict, indent: int) -> str:
    if not obj:
        return "{}"
    inner = "  " * (indent + 1)
    rows = [f'{inner}"{k}": {canonical_json(v, indent + 1)}' for k, v in obj.items()]
    return "{\n" + ",\n".join(rows) + f"\n{'  ' * indent}}}"


_FLAT = (int, float, str, bool, Fraction)
_FLAT_TYPES = frozenset(_FLAT)


def _json_seq(obj, indent: int) -> str:
    seq = list(obj)
    if not seq:
        return "[]"
    if len(seq) <= 12 and all(type(v) in _FLAT_TYPES or isinstance(v, _FLAT) for v in seq):
        return "[" + ", ".join(canonical_json(v) for v in seq) + "]"
    inner = "  " * (indent + 1)
    rows = [f"{inner}{canonical_json(v, indent + 1)}" for v in seq]
    return "[\n" + ",\n".join(rows) + f"\n{'  ' * indent}]"


def write_json(path: Path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(obj) + "\n", encoding="utf-8")


def write_gap_csv(path: Path, gaps: Iterable) -> int:
    """Gap stream CSV: header p,next,gap; one row per gap, ascending p."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("p,next,gap\n")
        for g in gaps:
            fh.write(f"{g.p},{g.next},{g.gap}\n")
            n += 1
    return n


def write_table_csv(path: Path, rows: Iterable[tuple[int, int, float]]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("N,max_gap,log_ratio\n")
        for N, g, r in rows:
            fh.write(f"{N},{g},{r:.2f}\n")


def summary_dict(s) -> dict:
    return {
        "x": s.x,
        "count": s.count,
        "max_gap": s.max_gap,
        "sum_gap": s.sum_gap,
        "sum_gap_sq": s.sum_gap_sq,
    }


def write_manifest(path: Path, command: str, options: dict) -> None:
    write_json(path, {"command": command, "options": options})
