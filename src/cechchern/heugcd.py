"""The heuristic gcd shape of `poly._gcd`, for operands with real numerators.

The heuristic gcd (Char, Geddes and Gonnet, J. Symbolic Comput. 7(1),
1989; Liao and Fateman, ISSAC 1995) sets the integer numerators to integer
points one variable at a time, takes one integer gcd of the two values and
interpolates a candidate G from its balanced digits; the quotients are
interpolated from the two integer quotients.  The candidate is taken only
when G times each quotient is the numerator exactly and the images of
`poly._proven_coprime` prove the quotients coprime, so the gcd it returns
rests on that algebra, not on the heuristic.

`poly._gcd` imports this module when it first reaches the shape, after the
coprimality-by-images shape and before the PRS.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, isqrt

from .poly import _MASK, FIELD, Ints, Polynomial, _canonical, _convolve, _proven_coprime, _shifts

# Up to _TRIES sets of points are tried, each larger than the last.  The
# point of the first variable grows about as the product of the others'
# degrees plus one; past _BITS bits, as predicted from the degrees or as
# found, the shape gives up.
_TRIES = 6
_BITS = 4096


def _point(a: Ints, b: Ints, grow: int) -> int:
    """The point for the last variable of the nonzero integer polynomials a
    and b: twice their largest coefficient plus 29, grown `grow` times as
    sympy's `dmp_zz_heu_gcd` grows a point that failed.  sympy starts from
    the smaller of the two largest coefficients, which bounds the gcd's;
    the larger one bounds the quotients', read from the values as well."""
    xi = 2 * max(map(abs, chain(a.values(), b.values()))) + 29
    for _ in range(grow):
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return xi


def _at_last(d: Ints, xi: int) -> Ints:
    """d, keyed by its exponent fields alone, at xi for its last variable."""
    out: Ints = {}
    for k, c in d.items():
        rest = k >> FIELD
        out[rest] = out.get(rest, 0) + c * xi ** (k & _MASK)
    return {k: c for k, c in out.items() if c}


def _interpolate(h: int, points: list, n: int) -> Ints:
    """The integer polynomial in n variables, keyed as in `poly`, whose
    value at the points (first variable first) is h: each coefficient in
    the first variable is read off as the balanced digits of h in its
    point, then each of those in the next point."""
    terms = {0: h}
    for xi in points:
        half, out = xi // 2, {}
        for k, c in terms.items():
            e = 0
            while c:
                c, digit = divmod(c, xi)
                if digit > half:
                    c, digit = c + 1, digit - xi
                if digit:
                    out[k << FIELD | e] = digit
                e += 1
        terms = out
    shifts = _shifts(n)
    return {sum(k >> s & _MASK for s in shifts) << FIELD * n | k: c for k, c in terms.items()}


def _candidates(a: Ints, b: Ints, n: int):
    """Candidates (G, a/G, b/G) for the gcd of nonzero integer polynomials
    a and b in n variables, one per set of points tried.  The variables are
    set to points one at a time, last first, each point chosen from what is
    left; G interpolates the integer gcd h of the two values, made
    primitive with a positive leading coefficient, and each quotient
    interpolates a value over G's value, which is h over G's content.  A
    candidate's identities hold at the points, not necessarily elsewhere."""
    fields = (1 << FIELD * n) - 1
    a, b = {k & fields: c for k, c in a.items()}, {k & fields: c for k, c in b.items()}
    for grow in range(_TRIES):
        va, vb, points = a, b, []
        while len(points) < n and va and vb:
            xi = _point(va, vb, grow)
            if xi.bit_length() > _BITS:
                return
            va, vb = _at_last(va, xi), _at_last(vb, xi)
            points.append(xi)
        if not va or not vb:
            # a value is 0: no gcd of values holds the gcd's value
            continue
        points.reverse()
        va, vb = va[0], vb[0]
        h = gcd(va, vb)
        g = _interpolate(h, points, n)
        content = gcd(*g.values())
        if g[max(g)] < 0:
            content = -content
        gx = h // content
        yield ({k: c // content for k, c in g.items()}, _interpolate(va // gx, points, n),
               _interpolate(vb // gx, points, n))


def _times_is(g: Ints, q: Ints, a: Ints) -> bool:
    """Whether g*q = a exactly."""
    return {k: c for k, c in _convolve((g, q)).items() if c} == a


def heu_gcd(a: Polynomial, b: Polynomial, vs):
    """(g, a/g, b/g) for the monic gcd g of a and b, nonconstant, with real
    numerators and not proven coprime, over the union vs of their
    variables; or None.  A candidate G is accepted only when G*(a/G) and
    G*(b/G) are the primitive numerators exactly and the images prove a/G
    and b/G coprime; then G is the gcd by algebra alone.  A constant
    candidate is refused, as the images have already failed on a and b,
    and so is the first candidate to pass the products whose quotients are
    not proven coprime; a candidate that fails a product gives way to the
    next."""
    # the first point has at most about the bits of the coefficients times
    # the degrees plus one of the variables set before it
    bits = max(map(abs, chain(a.re.values(), b.re.values()))).bit_length() + 1
    for v in vs[:0:-1]:
        bits = (max(a.degree_in(v), b.degree_in(v)) + 1) * bits + 1
    if bits > _BITS:
        return None
    (a_num, _), (b_num, _) = a._embedded(vs), b._embedded(vs)
    ca, cb = gcd(*a_num.values()), gcd(*b_num.values())
    a_num, b_num = {k: c // ca for k, c in a_num.items()}, {k: c // cb for k, c in b_num.items()}
    for g, a_over, b_over in _candidates(a_num, b_num, len(vs)):
        lead = max(g)
        if not lead:
            return None
        if _times_is(g, a_over, a_num) and _times_is(g, b_over, b_num):
            # a = ca*G*(a/G)/den_a and g = G/l for the leading coefficient l
            l = g[lead]
            a_over_g = _canonical(vs, a.den, {k: c * ca * l for k, c in a_over.items()}, {})
            b_over_g = _canonical(vs, b.den, {k: c * cb * l for k, c in b_over.items()}, {})
            if not _proven_coprime(a_over_g, b_over_g, vs):
                return None
            return _canonical(vs, l, g, {}), a_over_g, b_over_g
    return None
