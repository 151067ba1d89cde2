"""Canonical text format for cochains of holomorphic forms.

One component per line:

    (i0,...,il) | u^m | (coeff)*dz^dw + (coeff)

The u-power m of a component is its form degree: it is printed for the
reader, and parsing refuses a line whose form has another degree.  Tuples
are sorted lexicographically (length first), coefficients use the
canonical expression strings, wedge factors are written d<coordinate>.
Parsing is exact, so files round-trip bit-for-bit.
"""

from __future__ import annotations

from typing import List, Tuple

from .cech import CechCochain
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


def cochain_to_text(c: CechCochain) -> str:
    lines = [f"{_tuple_to_text(t)} | u^{form.degree()} | {form}" for t, form in c.items()]
    return "\n".join(lines) + ("\n" if lines else "")


def text_to_cochain(text: str, cover) -> CechCochain:
    """The cochain of a text; ValueError for a tuple given twice or a u^m
    that is not its form's degree, CoverError for an undeclared tuple."""
    import ast  # here, not at the top: no CLI run reads an artifact back

    comps = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tuple_part, u_part, form_part = [p.strip() for p in line.split("|", 2)]
        t = ast.literal_eval(tuple_part)
        if not isinstance(t, tuple):
            t = (t,)
        m = int(u_part.removeprefix("u^"))
        form = text_to_form(form_part, cover.anchor(t))
        if t in comps:
            raise ValueError(f"tuple {t} is given twice")
        if not form.is_zero and form.degree() != m:
            raise ValueError(f"tuple {t}: u^{m} carries a {form.degree()}-form")
        comps[t] = form
    return CechCochain(cover, comps)


def table_to_text(table) -> str:
    lines = []
    for g in sorted(table, key=lambda g: (g.dim, g.indices)):
        lines.append(f"# generator {_tuple_to_text(g.indices)}")
        body = cochain_to_text(table[g])
        if body:
            lines.append(body.rstrip("\n"))
    return "\n".join(lines) + "\n"
