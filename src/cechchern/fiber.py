"""Combinatorial integration over the fiber for multi-level covers.

A k-step position 0 <= s_1 <= ... <= s_k <= q splits a base tuple
(i_0..i_q) into k+1 level blocks; the lifted tuple lists the entries
(level, base value) in order, level m spanning base positions s_m..s_{m+1}.
Integration over the fiber sums the lifted components with sign
(-1)^(s_1 + ... + s_k); level-forgetting realizes the face maps of the
level direction.

The integration identities are also checked with a formal internal
differential d_A (`apply_d_a`, the only one here: forms have d_A = 0), on
the formal data of `formal_identity_cochain` that the selftest builds.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb
from typing import Callable, List, Optional, Sequence, Tuple

from .cech import CechCochain, Cover, FormalSection, ProductLevelCover
from .report import Report

Step = Tuple[int, ...]
Lifted = Tuple[Tuple[int, object], ...]


def step_positions(k: int, q: int) -> List[Step]:
    """All C(q+k, k) nondecreasing k-sequences in {0..q}, lexicographic."""
    if k < 0 or q < 0:
        raise ValueError("k and q must be nonnegative")
    return [tuple(s) for s in combinations_with_replacement(range(q + 1), k)]


def lift_tuple(base: Sequence, steps: Step) -> Lifted:
    """The lifted tuple of (level, base value) pairs determined by the steps."""
    q = len(base) - 1
    steps = tuple(steps)
    if steps != tuple(sorted(steps)) or steps and (steps[0] < 0 or steps[-1] > q):
        raise ValueError(f"invalid step position {steps} for q={q}")
    return _lift(base, steps)


def _lift(base: Sequence, steps: Step) -> Lifted:
    """lift_tuple for steps already known to be a step position of base."""
    bounds = (0,) + steps + (len(base) - 1,)
    return tuple((level, i) for level in range(len(steps) + 1)
                 for i in base[bounds[level]:bounds[level + 1] + 1])


def step_sign(steps: Step) -> int:
    return -1 if sum(steps) % 2 else 1


def _step_sum(cover: Cover, bases, k: int, value_at: Callable[[Lifted], object]) -> CechCochain:
    """The cochain on cover whose component on each base tuple is the sum,
    over its k-step positions s, of (-1)^(s_1+...+s_k) value_at(lifted
    tuple); value_at returns None where there is nothing to add.  Each
    base tuple's values go to their type's `total` as (sign, value) pairs,
    which adds them in one collection and negates coefficients, not values."""
    out = {}
    for base in bases:
        signed = []
        for steps in step_positions(k, len(base) - 1):
            val = value_at(_lift(base, steps))
            if val is not None:
                signed.append((step_sign(steps), val))
        if signed:
            out[base] = type(signed[0][1]).total(signed)
    return CechCochain._declared(cover, out)


def integrate_fiber(mu: CechCochain, k: int) -> CechCochain:
    """Integration over the fiber: Čech degree drops by k, form degree kept."""
    if not isinstance(mu.cover, ProductLevelCover):
        raise ValueError("mu must live on a product-level cover")
    cover = mu.cover.base
    lengths = sorted({len(t) - k for t in mu.components if len(t) > k})
    return _step_sum(cover, [t for r in lengths for t in cover.tuples_of_length(r)], k, mu.component)


def level_forget(mu: CechCochain, j: int) -> CechCochain:
    """The induced map forgetting level j: components relabel levels
    m -> m for m < j and m -> m + 1 for m >= j."""
    if not isinstance(mu.cover, ProductLevelCover):
        raise ValueError("mu must live on a product-level cover")
    k = mu.cover.k
    if not 0 <= j <= k:
        raise ValueError(f"level {j} out of range 0..{k}")
    target = ProductLevelCover(mu.cover.base, k - 1)
    out = {}
    for t, v in mu.components.items():
        if any(lvl == j for lvl, _ in t):
            continue
        relabeled = tuple((lvl if lvl < j else lvl - 1, i) for lvl, i in t)
        out[relabeled] = v
    return CechCochain._declared(target, out)


# -- the bijection lemma -------------------------------------------------------------


def _classify_removal(steps: Step, base_len: int, ell: int):
    """Tag for removing lifted position ell: either a base-position removal
    or a level-boundary removal (jhat, m, 'L'/'R')."""
    k = len(steps)
    q = base_len - 1
    bounds = (0,) + tuple(steps) + (q,)
    pos = 0
    for level in range(k + 1):
        lo, hi = bounds[level], bounds[level + 1]
        for t in range(lo, hi + 1):
            if pos == ell:
                if t == lo and level >= 1:
                    return ("jhat", level, "L")
                if t == hi and level <= k - 1:
                    return ("jhat", level, "R")
                return ("base", t)
            pos += 1
    raise ValueError(f"position {ell} out of range")


def verify_bijection(base: Sequence, k: int) -> Report:
    """Exhaustively check that removing one entry from a lifted tuple hits
    the disjoint union of lifted tuples over shorter bases and the
    level-boundary families, each exactly once."""
    report = Report()
    base = tuple(base)
    if len(set(base)) != len(base):
        raise ValueError("base indices must be distinct")
    q = len(base) - 1
    count, expected = len(step_positions(k, q)), comb(q + k, k)
    report.add(f"bijection.count_q{q}_k{k}", count == expected, f"|J_k| = {count}, C({q + k},{k}) = {expected}")

    # Codomain, enumerated independently from the definitions.
    codomain = set()
    for r in range(q + 1):
        shorter = base[:r] + base[r + 1:]
        if not shorter:
            # over an empty base only the k = 0 empty lift exists
            if k == 0:
                codomain.add((("base", r), ()))
            continue
        for s in step_positions(k, q - 1):
            codomain.add((("base", r), lift_tuple(shorter, s)))
    for steps in step_positions(k, q):
        lifted = lift_tuple(base, steps)
        bounds = (0,) + tuple(steps) + (q,)
        pos = 0
        for level in range(k + 1):
            lo, hi = bounds[level], bounds[level + 1]
            start_pos = pos
            end_pos = pos + (hi - lo)
            if level >= 1:
                codomain.add((("jhat", level, "L"), lifted[:start_pos] + lifted[start_pos + 1:]))
            # the right-removal family excludes the start entry except at level 0
            if level <= k - 1 and (end_pos != start_pos or level == 0):
                codomain.add((("jhat", level, "R"), lifted[:end_pos] + lifted[end_pos + 1:]))
            pos = end_pos + 1

    # The map f and its image.
    image = []
    for steps in step_positions(k, q):
        lifted = lift_tuple(base, steps)
        for ell in range(len(lifted)):
            tag = _classify_removal(steps, len(base), ell)
            image.append((tag, lifted[:ell] + lifted[ell + 1:]))

    found = set(image)
    report.check(f"bijection.injective_q{q}_k{k}", len(image) != len(found), "duplicate image element")
    report.add(f"bijection.surjective_q{q}_k{k}", found == codomain,
               f"missed {len(codomain - found)}, extra {len(found - codomain)}" if found != codomain else "")
    report.add(f"bijection.sizes_q{q}_k{k}", len(image) == len(codomain),
               f"domain {len(image)}, codomain {len(codomain)}")
    return report


# -- the two integration identities ----------------------------------------------------


def apply_d_a(c: CechCochain, d_a: Optional[Callable]) -> CechCochain:
    """The internal differential on every component of a cochain of formal
    sections, d_A given on generators; None is d_A = 0, that of forms."""
    return CechCochain._declared(c.cover, {
        t: FormalSection.total([(x, d_a(sym)) for sym, x in v.terms.items()])
        for t, v in c.components.items()} if d_a else {})


def _integrate_delta(mu: CechCochain, k: int, q: int) -> CechCochain:
    """int_k(delta(mu)) on (q+2)-length base tuples, evaluated locally: the
    Čech differential only ever gets read on lifted tuples, so the global
    cochain never needs materializing."""
    base = mu.cover.base
    return _step_sum(base, base.tuples_of_length(q + 2), k, mu.delta_at)


def verify_integration_identities(
    mu: CechCochain, k: int, d_a: Optional[Callable] = None
) -> Report:
    """Check that integration commutes with the internal differential and
    satisfies the Čech-differential exchange law

        int_k delta(mu) = (-1)^k delta(int_k mu) + sum_j (-1)^j int_{k-1} forget_j(mu).

    mu must have pure Čech degree and, with d_a, formal sections; the
    exchange law is verified on every declared base tuple two below it.
    """
    report = Report()
    degrees = mu.cech_degrees()
    if len(degrees) != 1:
        raise ValueError("mu must have a pure Čech degree")
    q = degrees.pop() - k
    if q < 0:
        raise ValueError("mu sits below Čech degree k")
    if d_a is not None:
        lhs = integrate_fiber(apply_d_a(mu, d_a), k)
        rhs = apply_d_a(integrate_fiber(mu, k), d_a)
        report.add("integration.internal_differential", lhs == rhs)
    lhs = _integrate_delta(mu, k, q)
    rhs = integrate_fiber(mu, k).delta()
    rhs = -rhs if k % 2 else rhs
    # the level-forgetting correction exists only when there is a level to drop
    for j in range(k + 1 if k > 0 else 0):
        term = integrate_fiber(level_forget(mu, j), k - 1)
        rhs = rhs - term if j % 2 else rhs + term
    diff = lhs - rhs
    witness = ""
    if not diff.is_zero:
        t = sorted(diff.components)[0]
        witness = f"tuple {t}: {diff.components[t]!r}"
    report.add("integration.cech_differential", diff.is_zero, witness)
    return report


def formal_identity_cochain(
    base_cover: Cover, k: int, q: int, rng, form_degree: int = 0
) -> CechCochain:
    """Random formal data of Čech degree q+k supported on exactly the
    tuples the exchange law at base length q+2 can touch.

    Every reachable component is an independent generator with a random
    coefficient, so the identity is tested at full strength without
    materializing the whole (huge) cochain group.
    """
    cover = ProductLevelCover(base_cover, k)
    support = set()
    for t in base_cover.tuples_of_length(q + 2):
        for steps in step_positions(k, q + 1):
            lifted = lift_tuple(t, steps)
            for ell in range(len(lifted)):
                support.add(lifted[:ell] + lifted[ell + 1:])
        if k > 0:
            for j in range(k + 1):
                for steps in step_positions(k - 1, q + 1):
                    lower = lift_tuple(t, steps)
                    support.add(tuple((lvl if lvl < j else lvl + 1, i) for lvl, i in lower))
    for t in base_cover.tuples_of_length(q + 1):
        for steps in step_positions(k, q):
            support.add(lift_tuple(t, steps))
    comps = {
        t: FormalSection(form_degree, {("mu", t): rng.randint(1, 9)})
        for t in sorted(support)
    }
    return CechCochain(cover, comps)
