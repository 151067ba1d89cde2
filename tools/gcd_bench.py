"""Microbenchmark of the poly layer: one JSON line of seconds and digest per case.

    PYTHONPATH=src python3 tools/gcd_bench.py [--quick]

Cases:

- `planted-d<d>` for d = 4 .. 8: the gcd of a*g and b*g, for a planted
  common factor g of total degree 2 and cofactors a, b of total degree d in
  (w, z).  Each polynomial keeps each monomial of its total degree bound
  with probability 0.6, with Gaussian integer coefficients whose parts lie
  in [-9, 9]; the draw for each d comes from its own `random.Random(7)`.
- `planted-zz-d<d>` for d = 4 .. 8: the same recipe with integer
  coefficients in [-9, 9], one draw per kept monomial, g, a and b again
  from a `random.Random(7)` of their own.  Only real operands reach the
  heuristic gcd shape of `poly._gcd`; the Gaussian cases never do.
- `univariate-d61`: the gcd of a*g and b*g in z, for a planted g of degree
  2 and cofactors a, b of degree 61 and 60, each coefficient a Gaussian
  integer with parts in [-9, 9], drawn in the order g, a, b from
  `random.Random(7)`.
- `coprime-d60`: the gcd, 1, of a and b in z of degree 60 and 59, drawn
  the same way.
- `universal_chern-<ell>-<n>` at (1, 3), (3, 2) and (2, 3): the universal
  Chern form of `bg.universal_chern`, whose many-variable rational
  functions are cancelled by gcds that are almost always 1.
- `product-t<t>` for t = 40 and 80: 20 times each, the products of two
  pairs of dense polynomials of t terms, one pair in (w, z) and one in
  (u, v, w, z).  Each polynomial takes t distinct monomials at random
  among those of the lowest total degree bound that has t, with Gaussian
  integer coefficients of real part in [1, 9] and imaginary part in
  [-9, 9]; both pairs of each t come from one `random.Random(7)`.
- `power-ab139` and `power-x256`: (1 + a + b)^139 and (1 + x)^256 by
  `Polynomial.__pow__`, which multiplies by the base once per step.  The
  first (9 870 terms) is about the costliest power a parsed expression may
  take within `MAX_TERMS`; the second, at `MAX_DEGREE`, is where repeated
  multiplication loses most to squaring.

`--quick` runs `planted-d4` only.  Each case runs `REPEATS` times in the
one process, since a single timing moves by up to half between runs of
the same tree.  Each line holds the case, the least and the median
seconds of its runs and the first 16 hex digits of the SHA-256 of the
printed gcd or form, so two trees can be compared case by case.  Exit
status 1 when the runs of a case print different values, which stderr
names.  The full run takes about 35 s on a 2-core Intel Xeon.  Uses the
standard library only; writes nothing but stdout and stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import sys
import time
from fractions import Fraction
from itertools import product
from math import comb

from cechchern import GaussianRational, Polynomial, poly_gcd
from cechchern.bg import universal_chern

PLANTED_DEGREES = (4, 5, 6, 7, 8)
CHERN_CASES = ((1, 3), (3, 2), (2, 3))
PRODUCT_TERMS = (40, 80)
PRODUCT_REPEATS = 20
# the runs of each case, of which the least and the median time are printed
REPEATS = 5
# case name -> (variables, exponent) of (1 + the sum of the variables)^exponent
POWERS = {"power-ab139": (("a", "b"), 139), "power-x256": (("x",), 256)}


def random_poly(rng: random.Random, degree: int, real: bool = False) -> Polynomial:
    """A random polynomial in (w, z) of total degree at most degree, with
    Gaussian integer coefficients, or with integer ones if real."""
    terms = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            if rng.random() < 0.6:
                re = Fraction(rng.randint(-9, 9))
                terms[(i, j)] = GaussianRational(re) if real else GaussianRational(re, Fraction(rng.randint(-9, 9)))
    return Polynomial.make(("w", "z"), terms)


def planted_pair(d: int, real: bool = False):
    """(a*g, b*g, g) for the planted case of degree d, or with real, for
    the planted-zz case."""
    rng = random.Random(7)
    g, a, b = (random_poly(rng, degree, real) for degree in (2, d, d))
    return a * g, b * g, g


def univariate_poly(rng: random.Random, degree: int) -> Polynomial:
    """A dense random polynomial in z of degree at most degree."""
    return Polynomial.make(("z",), {(k,): GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9))
                                    for k in range(degree + 1)})


def univariate_planted_pair(d: int):
    """(a*g, b*g, g) for g of degree 2 and a, b of degree d and d - 1."""
    rng = random.Random(7)
    g = univariate_poly(rng, 2)
    a, b = univariate_poly(rng, d), univariate_poly(rng, d - 1)
    return a * g, b * g, g


def univariate_coprime_pair(d: int):
    """(a, b) of degree d and d - 1 in z, drawn as for the planted pair
    without g; their gcd is 1 at the degrees used here."""
    rng = random.Random(7)
    return univariate_poly(rng, d), univariate_poly(rng, d - 1)


def dense_poly(rng: random.Random, names: tuple, terms: int) -> Polynomial:
    """A polynomial in names of the given number of terms, dense below the
    lowest total degree bound that holds them."""
    d = 0
    while comb(d + len(names), len(names)) < terms:
        d += 1
    monomials = [e for e in product(range(d + 1), repeat=len(names)) if sum(e) <= d]
    return Polynomial.make(names, {e: GaussianRational(rng.randint(1, 9), rng.randint(-9, 9))
                                   for e in rng.sample(monomials, terms)})


def product_pairs(terms: int) -> list:
    """The two pairs of the product case of the given term count."""
    rng = random.Random(7)
    return [(dense_poly(rng, names, terms), dense_poly(rng, names, terms))
            for names in (("w", "z"), ("u", "v", "w", "z"))]


def products(pairs: list) -> str:
    for _ in range(PRODUCT_REPEATS - 1):
        for a, b in pairs:
            a * b
    return "; ".join(str(a * b) for a, b in pairs)


def _digest(value) -> str:
    return hashlib.sha256(str(value).encode()).hexdigest()[:16]


def _timed(case: str, compute):
    """The line of REPEATS runs of compute, and the digest of each run."""
    seconds, digests = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        value = compute()
        seconds.append(time.perf_counter() - start)
        digests.append(_digest(value))
    line = {"case": case, "min_s": round(min(seconds), 4), "median_s": round(statistics.median(seconds), 4),
            "digest": digests[0]}
    return line, digests


def _form_text(form) -> str:
    return "; ".join(f"{idx}: {c.num} / {c.den}" for idx, c in sorted(form.terms.items()))


def cases(quick: bool):
    for d in PLANTED_DEGREES[:1] if quick else PLANTED_DEGREES:
        ag, bg, _ = planted_pair(d)
        yield f"planted-d{d}", lambda ag=ag, bg=bg: poly_gcd(ag, bg)
    if not quick:
        for d in PLANTED_DEGREES:
            ag, bg, _ = planted_pair(d, real=True)
            yield f"planted-zz-d{d}", lambda ag=ag, bg=bg: poly_gcd(ag, bg)
        ag, bg, _ = univariate_planted_pair(61)
        yield "univariate-d61", lambda ag=ag, bg=bg: poly_gcd(ag, bg)
        a, b = univariate_coprime_pair(60)
        yield "coprime-d60", lambda a=a, b=b: poly_gcd(a, b)
        for ell, n in CHERN_CASES:
            yield f"universal_chern-{ell}-{n}", lambda ell=ell, n=n: _form_text(universal_chern(ell, n))
        for terms in PRODUCT_TERMS:
            pairs = product_pairs(terms)
            yield f"product-t{terms}", lambda pairs=pairs: products(pairs)
        for case, (names, n) in POWERS.items():
            base = Polynomial.sum([Polynomial.one(), *map(Polynomial.variable, names)])
            yield case, lambda base=base, n=n: base ** n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="run planted-d4 only")
    args = parser.parse_args(argv)
    status = 0
    for case, compute in cases(args.quick):
        line, digests = _timed(case, compute)
        print(json.dumps(line), flush=True)
        if len(set(digests)) > 1:
            print(f"{case}: its {REPEATS} runs gave the digests {digests}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
