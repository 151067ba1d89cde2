"""Immutable values: every value type refuses assignment by name, and the
record types compare, hash and print as their fields."""

import pytest

from cechchern import parse_expr
from cechchern.cech import FormalSection
from cechchern.forms import ChangeMap, Chart, ConnectionMatrix, HoloForm, MatrixForm
from cechchern.report import CheckItem
from cechchern.scalars import GaussianRational
from cechchern.simplicial import Chain, Generator, ProductGenerator
from cechchern.value import Value

U = Chart("U", ("z",))


def _values():
    f = parse_expr("1/z", ["z"])
    return [
        f.num, f, GaussianRational(1, 2), U, HoloForm.constant(U, 1), MatrixForm.identity(U, 1),
        ConnectionMatrix.zero(U, 1), FormalSection(0, {"r": 1}), Generator((0, 1), 1),
        ProductGenerator((0, 1), (0, 0), 1, 0), Chain.of(Generator((0,), 0)), CheckItem("c", True),
    ]


def test_values_refuse_assignment():
    values = _values()
    assert [type(v).__name__ for v in values] == [
        "Polynomial", "RationalFunction", "GaussianRational", "Chart", "HoloForm", "MatrixForm",
        "ConnectionMatrix", "FormalSection", "Generator", "ProductGenerator", "Chain", "CheckItem",
    ]
    for value in values:
        for name in (type(value).__slots__[0], "extra"):
            with pytest.raises(AttributeError) as err:
                setattr(value, name, 1)
            assert str(err.value) == f"{type(value).__name__} is immutable"


def test_chart_is_a_record():
    assert repr(U) == "Chart(name='U', coordinates=('z',))"
    same = Chart("U", ("z",))
    assert same is not U and same == U and hash(same) == hash(U) == hash(("U", ("z",)))
    assert U != Chart("V", ("z",)) and U != Chart("U", ("w",)) and U != "U"


def test_check_item_is_a_record():
    item = CheckItem("a.b", False, "tuple (0, 1)")
    assert repr(item) == "CheckItem(name='a.b', ok=False, witness='tuple (0, 1)')"
    assert item == CheckItem("a.b", False, "tuple (0, 1)") and item != CheckItem("a.b", True, "tuple (0, 1)")
    assert hash(item) == hash(CheckItem("a.b", False, "tuple (0, 1)")) == hash(("a.b", False, "tuple (0, 1)"))
    assert item != ("a.b", False, "tuple (0, 1)")


def test_connection_matrix_is_an_unhashable_record():
    zero = ConnectionMatrix.zero(U, 1)
    assert repr(zero) == "ConnectionMatrix(chart=Chart(name='U', coordinates=('z',)), matrix=MatrixForm(1x1 on U))"
    assert zero == ConnectionMatrix.zero(U, 1)
    dz = MatrixForm(U, [[HoloForm(U, {(0,): parse_expr("1", ["z"])})]])
    assert zero != ConnectionMatrix(U, dz) and zero != zero.matrix
    with pytest.raises(TypeError, match="unhashable"):
        hash(zero)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_values_with_a_dict_slot_hash_on_purpose():
    # the record of a dict slot cannot hash, so every value type holding a
    # dict defines its own __hash__ or sets it to None; one instance of
    # each Value subclass is checked
    values = _values() + [ChangeMap.identity(Chart("U", ("u",)))]
    assert {type(v) for v in values} == set(_subclasses(Value))
    with_dicts = [type(v) for v in values
                  if any(isinstance(getattr(v, name, None), dict) for name in type(v).__slots__)]
    assert ChangeMap in with_dicts
    for cls in with_dicts:
        assert "__hash__" in vars(cls), cls.__name__
    with pytest.raises(TypeError, match="unhashable type: 'ChangeMap'"):
        hash(values[-1])
