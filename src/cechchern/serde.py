"""Canonical text format for u-graded cochains.

One component per line:

    (i0,...,il) | u^m | (coeff)*dz^dw + (coeff)

Tuples are sorted lexicographically (length first), coefficients use the
canonical expression strings, wedge factors are written d<coordinate>.
Parsing is exact, so files round-trip bit-for-bit.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from .cech import UPolyCochain
from .exprparse import parse_expr
from .forms import Chart, HoloForm


def _split_top_level(text: str, sep: str) -> List[str]:
    parts = []
    depth = 0
    current = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and text.startswith(sep, i):
            parts.append("".join(current))
            current = []
            i += len(sep)
            continue
        current.append(ch)
        i += 1
    parts.append("".join(current))
    return parts


def text_to_form(text: str, chart: Chart) -> HoloForm:
    text = text.strip()
    if text == "0":
        return HoloForm.zero(chart)
    terms = []
    for piece in _split_top_level(text, " + "):
        head, *wedge = _split_top_level(piece.strip(), "*")
        if not (head.startswith("(") and head.endswith(")")) or len(wedge) > 1:
            raise ValueError(f"bad form component {piece!r}")
        coeff = parse_expr(head[1:-1], list(chart.coordinates))
        indices = []
        for name in wedge[0].split("^") if wedge else ():
            if not name.startswith("d"):
                raise ValueError(f"bad wedge factor {name!r}")
            indices.append(chart.index_of(name[1:]))
        terms.append((tuple(indices), coeff))
    return HoloForm.sum(chart, terms)


def _tuple_to_text(t: Tuple) -> str:
    return repr(tuple(t)).replace(" ", "")


def cochain_to_text(c: UPolyCochain) -> str:
    lines = []
    for t, m, form in c.items():
        lines.append(f"{_tuple_to_text(t)} | u^{m} | {form}")
    return "\n".join(lines) + ("\n" if lines else "")


def text_to_cochain(text: str, cover) -> UPolyCochain:
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tuple_part, u_part, form_part = [p.strip() for p in line.split("|", 2)]
        t = ast.literal_eval(tuple_part)
        if not isinstance(t, tuple):
            t = (t,)
        m = int(u_part.removeprefix("u^"))
        entries.append((m, t, text_to_form(form_part, cover.anchor(t))))
    return UPolyCochain.from_forms(cover, entries)


def table_to_text(table) -> str:
    lines = []
    for g in sorted(table, key=lambda g: (g.dim, g.indices)):
        lines.append(f"# generator {_tuple_to_text(g.indices)}")
        body = cochain_to_text(table[g])
        if body:
            lines.append(body.rstrip("\n"))
    return "\n".join(lines) + "\n"
