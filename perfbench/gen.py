"""Seeded manifest generator for the benchmark workloads.

This module must not import cechchern: the inputs a change is measured on
cannot depend on the code being measured.  Products are expanded here with
a small sparse polynomial over Fraction coefficients, and every manifest is
written as canonical JSON (sorted keys), so one seed gives byte-identical
files on every run.

Each generator returns (valid, twin): the twin is the same manifest with a
seeded corruption that the CLI must reject with exit code 1.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from typing import Dict, List, Tuple

COORDS = ("w", "z")

Poly = Dict[Tuple[int, int], Fraction]


# -- a two-variable sparse polynomial over Q, just enough to expand products --


def p_const(c) -> Poly:
    return {(0, 0): Fraction(c)} if c else {}


def p_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def p_neg(a: Poly) -> Poly:
    return {e: -c for e, c in a.items()}


def p_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def p_str(a: Poly) -> str:
    """Render in the manifest expression syntax, descending graded-lex."""
    if not a:
        return "0"
    pieces = []
    for e in sorted(a, key=lambda e: (sum(e), e), reverse=True):
        c = a[e]
        mono = "*".join(
            v if k == 1 else f"{v}^{k}" for v, k in zip(COORDS, e) if k
        )
        mag = abs(c)
        num = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        if not mono:
            body = num
        elif mag == 1:
            body = mono
        else:
            body = f"{num}*{mono}"
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def _nonzero(rng: random.Random, lo: int, hi: int) -> int:
    # nonzero draws keep the term structure, and so the cost, seed-independent
    return rng.choice([k for k in range(lo, hi + 1) if k])


LINEAR_RANGE = 5


def _linear(rng: random.Random) -> Poly:
    """c0 + c1*w + c2*z with nonzero integer coefficients in [-5, 5]; the wide
    range makes cancellations, and so seed-dependent cost, rare."""
    return {
        e: Fraction(_nonzero(rng, -LINEAR_RANGE, LINEAR_RANGE))
        for e in ((0, 0), (1, 0), (0, 1))
    }


# -- matrices of polynomials (rank 2) --------------------------------------------

Mat = List[List[Poly]]


def m_mul(a: Mat, b: Mat) -> Mat:
    n = len(a)
    return [
        [
            _sum_polys(p_mul(a[r][k], b[k][c]) for k in range(n))
            for c in range(n)
        ]
        for r in range(n)
    ]


def _sum_polys(items) -> Poly:
    out: Poly = {}
    for p in items:
        out = p_add(out, p)
    return out


def sl2_inverse(m: Mat) -> Mat:
    # determinant one: the inverse is the adjugate
    (a, b), (c, d) = m
    return [[d, p_neg(b)], [p_neg(c), a]]


def sl2_element(rng: random.Random) -> Mat:
    """[[1,0],[p,1]] * [[1,q],[0,1]] with p, q random linear polynomials."""
    one, zero = p_const(1), {}
    lower = [[one, zero], [_linear(rng), one]]
    upper = [[one, _linear(rng)], [zero, one]]
    return m_mul(lower, upper)


def m_str(m: Mat) -> List[List[str]]:
    return [[p_str(x) for x in row] for row in m]


# -- shared manifest pieces --------------------------------------------------------


def _identity_cover(n_charts: int) -> dict:
    charts = [{"name": f"U{i}", "coordinates": list(COORDS)} for i in range(n_charts)]
    ident = {c: c for c in COORDS}
    change = [
        {"chart": a, "in_chart": b, "exprs": dict(ident)}
        for a in range(n_charts)
        for b in range(n_charts)
        if a != b
    ]
    return {"charts": charts, "overlaps": [list(range(n_charts))], "change_maps": change}


def _chain_full(adjacent, n_charts, mul):
    """All transitions (a, b), a < b, from the adjacent ones by the cocycle law."""
    full = {}
    for a in range(n_charts):
        acc = None
        for b in range(a + 1, n_charts):
            acc = adjacent[b - 1] if acc is None else mul(adjacent[b - 1], acc)
            full[(a, b)] = acc
    return full


def dumps(manifest: dict) -> bytes:
    return (json.dumps(manifest, sort_keys=True, indent=1) + "\n").encode("utf-8")


# -- simplex-gl2 -------------------------------------------------------------------

SIMPLEX_CHARTS = 2


def simplex_gl2(rng: random.Random) -> Tuple[dict, dict]:
    """SL(2)-type path data with one intertwining level (n = 1) on
    SIMPLEX_CHARTS charts with coordinates (w, z) and identity change maps."""
    n = SIMPLEX_CHARTS
    adjacent = [{a: sl2_element(rng) for a in range(n - 1)}]
    fs = [sl2_element(rng) for _ in range(n)]
    adjacent.append(
        {a: m_mul(m_mul(fs[a + 1], adjacent[0][a]), sl2_inverse(fs[a])) for a in range(n - 1)}
    )
    levels = []
    for adj in adjacent:
        full = _chain_full(adj, n, m_mul)
        levels.append({"transitions": {f"{a},{b}": m_str(m) for (a, b), m in full.items()}})
    manifest = _identity_cover(n)
    manifest["bundle"] = {
        "rank": 2,
        "levels": levels,
        "intertwiners": {"1": {str(i): m_str(f) for i, f in enumerate(fs)}},
    }
    return manifest, _corrupt_transition(manifest, rng)


def _corrupt_transition(manifest: dict, rng: random.Random) -> dict:
    """Multiply the first row of one transition by (1 + z): the cocycle or
    intertwining law then fails, so the CLI must exit 1."""
    twin = json.loads(json.dumps(manifest))
    levels = twin["bundle"]["levels"]
    level = levels[rng.randrange(len(levels))]
    key = rng.choice(sorted(level["transitions"]))
    matrix = level["transitions"][key]
    matrix[0] = [f"(1 + z)*({x})" for x in matrix[0]]
    return twin


# -- square-rat --------------------------------------------------------------------

SQUARE_CHARTS = 2

RatFn = Tuple[Poly, Poly]


def _rat_factor(num_var, den_var, a: int, b: int, k: int, sign: int) -> RatFn:
    """sign * (num_var + a) / (den_var + b) * den_var^k."""
    num = {num_var: Fraction(1), (0, 0): Fraction(a)}
    den = {den_var: Fraction(1), (0, 0): Fraction(b)}
    mono = {(den_var[0] * k, den_var[1] * k): Fraction(sign)}
    return p_mul(num, mono), den


def r_mul(a: RatFn, b: RatFn) -> RatFn:
    return p_mul(a[0], b[0]), p_mul(a[1], b[1])


def r_div(a: RatFn, b: RatFn) -> RatFn:
    return p_mul(a[0], b[1]), p_mul(a[1], b[0])


def r_str(a: RatFn) -> str:
    return f"({p_str(a[0])})/({p_str(a[1])})"


W, Z = (1, 0), (0, 1)


def square_rat(rng: random.Random) -> Tuple[dict, dict]:
    """GL(1) data with rational transitions and intertwiners, n = 1, on
    SQUARE_CHARTS charts with coordinates (w, z); no connections (the
    square mode uses the flat ones)."""
    n = SQUARE_CHARTS
    # distinct shifts: no two linear factors in one variable cancel, so the
    # gcd work per manifest does not depend on the seed
    shift_w = rng.sample([k for k in range(-2, 3) if k], 2 * n)
    shift_z = rng.sample([k for k in range(-2, 3) if k], 2 * n)

    def factor(j, flip):
        sign = rng.choice([1, -1])
        if flip:
            return _rat_factor(Z, W, shift_z[j], shift_w[j], 1, sign)
        return _rat_factor(W, Z, shift_w[j], shift_z[j], 1, sign)

    g0 = {a: factor(a, False) for a in range(n - 1)}
    # f_0 is a signed monomial and the other intertwiners are rational:
    # sized so one verdict takes about a third of a second
    fs = [({Z: Fraction(rng.choice([1, -1]))}, p_const(1))]
    fs += [factor(n - 1 + i, True) for i in range(1, n)]
    # rank one commutes: g1[a, a+1] = f_{a+1} g0[a, a+1] / f_a
    g1 = {a: r_div(r_mul(fs[a + 1], g0[a]), fs[a]) for a in range(n - 1)}
    levels = []
    for adj in (g0, g1):
        full = _chain_full(adj, n, r_mul)
        levels.append({"transitions": {f"{a},{b}": [[r_str(m)]] for (a, b), m in full.items()}})
    manifest = _identity_cover(n)
    manifest["bundle"] = {
        "rank": 1,
        "levels": levels,
        "intertwiners": {"1": {str(i): [[r_str(f)]] for i, f in enumerate(fs)}},
    }
    return manifest, _corrupt_transition(manifest, rng)


# -- equivariant-z2 ----------------------------------------------------------------

EQUIVARIANT_WORD_BOUND = 4
F_DEGREE = 2


def equivariant_z2(rng: random.Random) -> Tuple[dict, dict]:
    """Z/2 acting by z -> 1/z with lift 1 and the invariant connection
    (f(z) - z^-2 f(1/z)) dz for a random polynomial f of degree F_DEGREE."""
    f = {k: _nonzero(rng, -3, 3) for k in range(F_DEGREE + 1)}
    # degrees 0..F_DEGREE and -2-F_DEGREE..-2 never overlap: nothing cancels,
    # so the term count is fixed; p_str renders z^-k, which the parser accepts
    a = {(0, k): Fraction(c) for k, c in f.items()}
    a.update({(0, -k - 2): Fraction(-c) for k, c in f.items()})
    conn = p_str(a)
    manifest = {
        "charts": [{"name": "M", "coordinates": ["z"]}],
        "overlaps": [[0]],
        "bundle": {"rank": 1, "connections": {"0": [[{"z": conn}]]}},
        "group": {
            "elements": ["e", "s"],
            "identity": "e",
            "table": {"e,e": "e", "e,s": "s", "s,e": "s", "s,s": "e"},
            "action": {"s": {"0": {"z": "1/z"}}},
            "lifts": {"s": {"0": [["1"]]}},
        },
        "run": {"word_bound": EQUIVARIANT_WORD_BOUND},
    }
    twin = json.loads(json.dumps(manifest))
    twin["bundle"]["connections"]["0"][0][0]["z"] = f"{conn} + z"
    return manifest, twin


GENERATORS = {
    "simplex-gl2": ("simplex", simplex_gl2),
    "square-rat": ("square", square_rat),
    "equivariant-z2": ("equivariant", equivariant_z2),
}


# manifests per run: the timed loop cycles through them, so a run's median
# mixes several draws and depends little on which seed drew them
POOL = 6
DEFAULT_SEED = 1


def generate(workload: str, seed: int, count: int = POOL) -> List[Tuple[bytes, bytes]]:
    """`count` (valid, twin) manifest pairs for a workload, as bytes."""
    _, gen = GENERATORS[workload]
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for _ in range(count):
        valid, twin = gen(rng)
        out.append((dumps(valid), dumps(twin)))
    return out


def digests(workload: str, seed: int = DEFAULT_SEED) -> List[str]:
    """sha256 of every manifest of a run, valid and twin alternating."""
    return [
        hashlib.sha256(data).hexdigest()
        for pair in generate(workload, seed)
        for data in pair
    ]


if __name__ == "__main__":
    # regenerates perfbench/inputs.json, the recorded default-seed digests
    print(json.dumps({w: digests(w) for w in GENERATORS}, indent=1, sort_keys=True))
