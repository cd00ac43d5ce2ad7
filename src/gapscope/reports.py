"""Canonical, byte-stable report serialization.

All machine-readable outputs take `canonical_json`'s layout: dict keys keep
insertion order, floats print as %.12g, Fractions as "p/q" strings, and
strings escape control characters.  The long lists of the big reports are
written by one record writer, `_records`, which fills one template per row
instead of building a dict per row.  Identical configurations give identical
bytes.
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
    return format(x + 0.0, ".12g")  # one form for every finite x; -0.0 + 0.0 is 0.0


def canonical_json(obj, indent: int = 0) -> str:
    # Exact str, int, dict, list and tuple dispatch on type(obj); subclasses
    # and every other type take the isinstance chain, whose Fraction check is
    # an ABC lookup.
    t = type(obj)
    if t is str:
        return _json_str(obj)
    if t is JsonText:
        return obj
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


#: U+0000..U+001F, which JSON strings must escape, for str.translate.
_CONTROL_ESCAPES = {c: f"\\u{c:04x}" for c in range(32)}


def _json_str(s: str) -> str:
    s = s.replace("\\", "\\\\").replace('"', '\\"')
    return '"' + (s if s.isprintable() else s.translate(_CONTROL_ESCAPES)) + '"'


def _json_dict(obj: dict, indent: int) -> str:
    if not obj:
        return "{}"
    rows = [f'"{k}": {canonical_json(v, indent + 1)}' for k, v in obj.items()]
    return _block("{", rows, "}", indent)


def _block(open_: str, rows: list[str], close: str, indent: int) -> str:
    """Rendered rows, one a line at indent + 1, between open_ and close."""
    inner = "\n" + "  " * (indent + 1)
    return open_ + inner + ("," + inner).join(rows) + "\n" + "  " * indent + close


_FLAT = (int, float, str, bool, Fraction)
_FLAT_TYPES = frozenset(_FLAT)
_FLAT_MAX = 12  # longest list of flat values written on one line


def _json_seq(obj, indent: int) -> str:
    seq = list(obj)
    if not seq:
        return "[]"
    flat = len(seq) <= _FLAT_MAX and all(type(v) in _FLAT_TYPES or isinstance(v, _FLAT) for v in seq)
    return _list([canonical_json(v, indent + 1) for v in seq], flat, indent)


def _list(items: list[str], flat: bool, indent: int) -> str:
    """Rendered items as a list: on one line when flat, else one a line."""
    return "[" + ", ".join(items) + "]" if flat else _block("[", items, "]", indent)


class JsonText(str):
    """Text already in canonical layout, which `canonical_json` and `write_json`
    write as it is."""


def _records(fields: dict[str, str], rows: Iterable[tuple], indent: int) -> JsonText:
    """`canonical_json` text, at indent, of a list of dicts keyed as fields, one
    per row: each value text of fields is "%s" or holds it, filled from the row."""
    record = _block("{", [f'"{k}": {v}' for k, v in fields.items()], "}", indent + 1)
    items = [record % row for row in rows]
    return JsonText(_block("[", items, "]", indent) if items else "[]")


def factorization_dump(table) -> JsonText:
    """`canonical_json` of one record {"j", "lengths", "classes", "weight"} per
    row of an `identity.FactorizationRows`, lengths as Fraction texts ("1/2",
    "4") and classes by value: each (slot, exponent) leaf is quoted once."""
    slots, es = range(1, 2 * table.cfg.k + 1), range(-1, table.top)
    lengths = [{e: _json_str(table.leaf(i, e)[0]) for e in es} for i in slots]
    classes = [{e: _json_str(table.leaf(i, e)[1]) for e in es} for i in slots]
    weights = [repr(table.weight(j)) for j in range(table.cfg.k + 1)]
    leaves = _list(["%s"] * len(slots), len(slots) <= _FLAT_MAX, 2)
    get = dict.__getitem__
    return _records({"j": "%s", "lengths": leaves, "classes": leaves, "weight": "%s"}, (
        (j, *map(get, lengths, exps), *map(get, classes, exps), weights[j])
        for j, exps in table.rows), 0)


def nu_grid_records(grid) -> JsonText:
    """The "grid" list of nu_profile.json: Fraction texts per (sigma, mu, nu)."""
    return _records({"sigma": '"%s"', "mu": '"%s"', "nu": '"%s"'}, grid, 1)


def cell_records(cells) -> JsonText:
    """The "cells" list of largevalues_report.json: `CellReport.as_dict()` per cell."""
    ratios = _block("{", ['"montgomery": %s', '"huxley": %s', '"hb_rstar": %s'], "}", 3)
    f = _fmt_float
    return _records({"T": "%s", "profile": "%s", "R": "%s", "R_star": "%s", "mont_rhs": "%s",
                     "hux_rhs": "%s", "hbstar_rhs": "%s", "ratios": ratios}, ((
        f(c.T), canonical_json(list(c.sigmas), 3), c.R, c.R_star, f(c.mont_rhs), f(c.hux_rhs),
        f(c.hbstar_rhs), f(c.mont_ratio), f(c.hux_ratio), f(c.hbstar_ratio),
    ) for c in cells), 1)


def write_json(path: Path, obj) -> None:
    """Write obj in canonical layout, or a JsonText unchanged, with a final newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(obj if isinstance(obj, JsonText) else canonical_json(obj))
        fh.write("\n")


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
