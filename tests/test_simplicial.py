"""Simplex-category combinatorics: boundaries, shuffles, EZ and AW."""

from itertools import product

import pytest

from cechchern.fiber import lift_tuple
from cechchern.simplicial import (
    Chain,
    Generator,
    ProductGenerator,
    aw_chain,
    aw_map,
    boundary,
    boundary_chain,
    brute_force_shuffle_sign,
    ez_map,
    nondegenerate_generators,
    shuffle_count,
    shuffles,
    tensor_boundary,
)


def test_generator_enumeration():
    assert [g.indices for g in nondegenerate_generators(2, 1)] == [(0, 1), (0, 2), (1, 2)]
    assert [g.indices for g in nondegenerate_generators(3, 3)] == [(0, 1, 2, 3)]
    assert nondegenerate_generators(1, 2) == []


def test_boundary_examples():
    e012 = Generator((0, 1, 2), 2)
    expected = (
        Chain.of(Generator((1, 2), 2))
        - Chain.of(Generator((0, 2), 2))
        + Chain.of(Generator((0, 1), 2))
    )
    assert boundary(e012) == expected
    e01 = Generator((0, 1), 1)
    assert boundary(e01) == Chain.of(Generator((1,), 1)) - Chain.of(Generator((0,), 1))
    assert boundary_chain(boundary(Generator((0, 1, 2, 3), 3))).is_zero


def test_boundary_squares_to_zero_everywhere():
    for n in range(6):
        for ell in range(1, n + 1):
            for g in nondegenerate_generators(n, ell):
                assert boundary_chain(boundary(g)).is_zero


def test_shuffles_examples_and_signs():
    assert shuffles(1, 1) == [((0,), (1,), 1), ((1,), (0,), -1)]
    mu, nu, sign = shuffles(0, 3)[0]
    assert mu == () and nu == (0, 1, 2) and sign == 1
    assert [s for _, _, s in shuffles(2, 1)] == [1, -1, 1]


def test_shuffle_signs_match_brute_force_parity():
    for p in range(0, 7):
        for q in range(0, 7 - p):
            entries = shuffles(p, q)
            assert len(entries) == shuffle_count(p, q)
            for mu, nu, sign in entries:
                assert sign == brute_force_shuffle_sign(mu, nu)


def test_ez_examples():
    e01a = Generator((0, 1), 1)
    out = ez_map(e01a, e01a)
    # (s1 e01, s0 e01) - (s0 e01, s1 e01) as staircase paths
    plus = ProductGenerator((0, 1, 1), (0, 0, 1), 1, 1)
    minus = ProductGenerator((0, 0, 1), (0, 1, 1), 1, 1)
    assert out == Chain.of(plus) - Chain.of(minus)
    # degree-0 right factor: single degenerate lift with sign +1
    ej = Generator((0, 1, 2), 2)
    ei = Generator((1,), 3)
    out = ez_map(ej, ei)
    assert out == Chain.of(ProductGenerator((0, 1, 2), (1, 1, 1), 2, 3))


def test_aw_ez_identity_exhaustive():
    for n, m in product(range(4), range(4)):
        for pl in range(n + 1):
            for pr in range(m + 1):
                for gl in nondegenerate_generators(n, pl):
                    for gr in nondegenerate_generators(m, pr):
                        assert aw_chain(ez_map(gl, gr)) == Chain.of((gl, gr))


def test_ez_is_a_chain_map_exhaustive():
    # d(EZ(a (x) b)) = EZ(d(a (x) b)) with the Koszul sign on the tensor side
    for n, m in product(range(4), range(4)):
        for pl in range(n + 1):
            for pr in range(m + 1):
                for gl in nondegenerate_generators(n, pl):
                    for gr in nondegenerate_generators(m, pr):
                        lhs = boundary_chain(ez_map(gl, gr))
                        rhs = Chain.zero()
                        for g, c in boundary(gl).coeffs.items():
                            rhs = rhs + ez_map(g, gr).scale(c)
                        sign = -1 if gl.dim % 2 else 1
                        for g, c in boundary(gr).coeffs.items():
                            rhs = rhs + ez_map(gl, g).scale(sign * c)
                        assert lhs == rhs


def test_aw_is_a_chain_map_exhaustive():
    # AW(d(cell)) = d_tensor(AW(cell)) on all nondegenerate product cells
    for n, m in product(range(4), range(4)):
        cells = set()
        for pl in range(n + 1):
            for pr in range(m + 1):
                for gl in nondegenerate_generators(n, pl):
                    for gr in nondegenerate_generators(m, pr):
                        cells.update(ez_map(gl, gr).coeffs)
        for cell in cells:
            lhs = aw_chain(boundary(cell))
            rhs = aw_map(cell).linear(tensor_boundary)
            assert lhs == rhs


def test_product_boundary_squares_to_zero():
    for cell, _ in ez_map(Generator((0, 1, 2), 2), Generator((0, 1), 1)):
        assert boundary_chain(boundary(cell)).is_zero


def test_cells_refuse_malformed_input():
    for indices, ambient, message in (
        ((), 3, "empty"),
        ((0, 2, 2), 3, "strictly increasing"),
        ((2, 1), 3, "strictly increasing"),
        ((-1, 2), 3, "out of range"),
        ((0, 4), 3, "out of range"),
    ):
        with pytest.raises(ValueError, match=message):
            Generator(indices, ambient)
    for left, right, message in (
        ((), (), "equal length"),
        ((0, 1), (0,), "equal length"),
        ((0, 1, 0), (0, 1, 2), "nondecreasing"),
        ((0, 1, 2), (1, 0, 1), "nondecreasing"),
        ((0, 1, 1), (0, 1, 1), "degenerate"),
        # a staircase must stay inside both ambient simplices
        ((0, 5), (0, 0), "out of range"),
        ((-1, 0), (0, 1), "out of range"),
        ((0, 0), (1, 3), "out of range"),
    ):
        with pytest.raises(ValueError, match=message):
            ProductGenerator(left, right, 2, 2)


def test_equal_cells_hash_equal():
    for make in (
        lambda: Generator((0, 2, 3), 3),
        lambda: ProductGenerator((0, 1, 1), (0, 0, 1), 1, 2),
        lambda: (Generator((1,), 2), Generator((0, 2), 2)),
    ):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert Chain.of(a, 2) == Chain.of(b, 2)
    assert Generator((0, 2), 3) != Generator((0, 2), 4)
    assert Generator((0, 2), 3) != Generator((0, 3), 3)
    assert ProductGenerator((0, 1), (0, 0), 1, 1) != ProductGenerator((0, 1), (0, 0), 1, 2)
    assert Generator((0,), 0) != ProductGenerator((0,), (0,), 0, 0)


def test_cells_and_chains_are_immutable():
    g = Generator((0, 1), 2)
    cell = ProductGenerator((0, 1), (0, 0), 1, 1)
    for obj, name in ((g, "indices"), (g, "dim"), (g, "extra"), (cell, "left"), (cell, "dim"),
                      (Chain.of(g), "coeffs")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    assert g.indices == (0, 1) and g.dim == 1 and cell.left == (0, 1)


def test_mixed_degree_chain_raises():
    e0, e01 = Generator((0,), 2), Generator((0, 1), 2)
    for coeffs in (
        {e0: 1, e01: 1},
        {e01: 1, e0: 1},
        {(e0, e01): 1, (e0, e0): 1},
        {ProductGenerator((0, 1), (0, 0), 1, 1): 1, e0: -1},
    ):
        with pytest.raises(ValueError, match="mixed-degree"):
            Chain(coeffs)
    with pytest.raises(TypeError):
        Chain.of("e0")
    # zero coefficients drop out before degrees are compared
    assert Chain({e0: 0, e01: 1}) == Chain.of(e01)


def test_linear_refuses_images_of_two_degrees():
    e01, e02 = Generator((0, 1), 2), Generator((0, 2), 2)
    # e01 keeps degree 1, e02 goes to its boundary in degree 0
    mixed = {e01: Chain.of(e01), e02: boundary(e02)}
    with pytest.raises(ValueError, match="mixed-degree"):
        Chain({e01: 1, e02: 1}).linear(mixed.__getitem__)
    # images of two degrees whose degree-1 terms cancel leave a chain of degree 0
    e12 = Generator((1, 2), 2)
    cancel = {e01: Chain.of(e01), e02: boundary(e02), e12: Chain.of(e01, -1)}
    assert Chain({e01: 1, e02: 1, e12: 1}).linear(cancel.__getitem__) == boundary(e02)
    assert Chain.of(e01).linear(lambda g: Chain.zero()).is_zero


def _rebuilt(cell):
    """The cell rebuilt through its public constructor, which checks it."""
    if isinstance(cell, Generator):
        return Generator(list(cell.indices), cell.ambient)
    if isinstance(cell, ProductGenerator):
        return ProductGenerator(list(cell.left), list(cell.right), cell.left_ambient, cell.right_ambient)
    return tuple(_rebuilt(g) for g in cell)


def test_unchecked_builders_agree_with_the_public_constructors():
    # ez_map, boundary, face and nondegenerate_generators skip the cell
    # checks: each cell they build must be the checked one
    built = []
    for n, m in product(range(4), range(4)):
        left = [g for ell in range(n + 1) for g in nondegenerate_generators(n, ell)]
        right = [g for ell in range(m + 1) for g in nondegenerate_generators(m, ell)]
        built += left + right
        for gl, gr in product(left, right):
            image = ez_map(gl, gr)
            built += list(image.coeffs) + list(tensor_boundary((gl, gr)).coeffs)
            for cell in image.coeffs:
                built += list(boundary(cell).coeffs) + list(aw_map(cell).coeffs)
                built += [face for j in range(cell.dim + 1 if cell.dim else 0) if (face := cell.face(j)) is not None]
        for g in left:
            built += list(boundary(g).coeffs) + [g.face(j) for j in range(g.dim + 1 if g.dim else 0)]
    assert len(built) > 10_000
    for cell in built:
        checked = _rebuilt(cell)
        assert cell == checked and checked == cell and hash(cell) == hash(checked), cell


def test_faces_refuse_a_vertex_and_positions_out_of_range():
    e01 = Generator((0, 1), 1)
    cell = ProductGenerator((0, 1, 1), (0, 0, 1), 1, 1)
    for g, j in ((Generator((0,), 0), 0), (ProductGenerator((0,), (0,), 0, 0), 0),
                 (e01, -1), (e01, 2), (cell, -1), (cell, 3)):
        with pytest.raises(ValueError, match="has no face"):
            g.face(j)


def test_lift_tuple_refuses_invalid_steps():
    base = (0, 1, 2)
    assert lift_tuple(base, (0, 2)) == ((0, 0), (1, 0), (1, 1), (1, 2), (2, 2))
    for steps in ((2, 1), (1, 0, 1), (-1,), (3,), (0, 3)):
        with pytest.raises(ValueError, match="invalid step position"):
            lift_tuple(base, steps)
