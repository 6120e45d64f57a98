"""The value classes: exact repr, equality and hashing by value, immutability,
and what importing the package costs a cold interpreter.

Verify witnesses and error messages embed these reprs, so they are pinned
character for character.
"""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import bcjcalc
from bcjcalc import (
    AbelianCycle,
    BoolMonomial,
    BPMap,
    F2Matrix,
    HClass,
    LinkingMatrix,
    SelfLinkingForm,
    SeparatingTwist,
    SubsurfaceBasis,
    WedgeElem,
    ZHClass,
    ZSubsurfaceBasis,
    b2_basis,
)
from bcjcalc.boolring import B2Basis, BoolPoly
from bcjcalc.cassonmorita import CMPoly

H1 = "HClass(genus=2, bits=1)"
H4 = "HClass(genus=2, bits=4)"
SB = f"SubsurfaceBasis(genus=2, pairs=(({H1}, {H4}),))"
SB2 = "SubsurfaceBasis(genus=2, pairs=((HClass(genus=2, bits=2), HClass(genus=2, bits=8)),))"
ZB = (
    "ZSubsurfaceBasis(genus=2, pairs=((ZHClass(genus=2, coords=(1, 0, 0, 0)), "
    "ZHClass(genus=2, coords=(0, 0, 1, 0))),))"
)
B2_1 = (
    "B2Basis(genus=1, monomials=(BoolMonomial(genus=1, mask=0), "
    "BoolMonomial(genus=1, mask=1), BoolMonomial(genus=1, mask=2), "
    "BoolMonomial(genus=1, mask=3)), index_of_mask={0: 0, 1: 1, 2: 2, 3: 3})"
)


def make(name):
    """A fresh value of each class, built anew per call, with its repr and a
    different value of the same class."""
    t1 = SeparatingTwist(SubsurfaceBasis.standard(2, [1]), "t1")
    t2 = SeparatingTwist(SubsurfaceBasis.standard(2, [2]))
    return {
        "HClass": (HClass(2, 3), "HClass(genus=2, bits=3)", HClass(2, 5)),
        "ZHClass": (
            ZHClass(2, (1, 0, 0, -1)),
            "ZHClass(genus=2, coords=(1, 0, 0, -1))",
            ZHClass(2, (1, 0, 0, 1)),
        ),
        "SubsurfaceBasis": (
            SubsurfaceBasis.standard(2, [1]), SB, SubsurfaceBasis.standard(2, [2])
        ),
        "ZSubsurfaceBasis": (
            ZSubsurfaceBasis.standard(2, [1]), ZB, ZSubsurfaceBasis.standard(2, [2])
        ),
        "F2Matrix": (F2Matrix(2, (2, 1)), "F2Matrix(n=2, cols=(2, 1))", F2Matrix.identity(2)),
        "BoolMonomial": (BoolMonomial(2, 5), "BoolMonomial(genus=2, mask=5)", BoolMonomial(2, 6)),
        "SelfLinkingForm": (
            SelfLinkingForm(2, 6), "SelfLinkingForm(genus=2, values=6)", SelfLinkingForm(2, 7)
        ),
        "B2Basis": (
            B2Basis(b2_basis(1).genus, b2_basis(1).monomials, dict(b2_basis(1).index_of_mask)),
            B2_1,
            b2_basis(2),
        ),
        "SeparatingTwist": (t1, f"SeparatingTwist(basis={SB}, label='t1')", t2),
        "BPMap": (
            BPMap(SubsurfaceBasis.standard(2, [1]), HClass(2, 2)),
            f"BPMap(basis={SB}, C=HClass(genus=2, bits=2), label='')",
            BPMap(SubsurfaceBasis.standard(2, [1]), HClass(2, 2), "m"),
        ),
        "WedgeElem": (WedgeElem(1, 5), "WedgeElem(genus=1, bits=5)", WedgeElem(1, 6)),
        "AbelianCycle": (
            AbelianCycle(t1, t2, "c"),
            f"AbelianCycle(first=SeparatingTwist(basis={SB}, label='t1'), "
            f"second=SeparatingTwist(basis={SB2}, label=''), label='c')",
            AbelianCycle(t2, t1, "c"),
        ),
        "LinkingMatrix": (
            LinkingMatrix.standard_model(1),
            "LinkingMatrix(genus=1, entries=((0, 0), (1, 0)))",
            LinkingMatrix.from_rows(1, [[1, 0], [1, 0]]),
        ),
    }[name]


CLASSES = (
    HClass, ZHClass, SubsurfaceBasis, ZSubsurfaceBasis, F2Matrix, BoolMonomial,
    SelfLinkingForm, B2Basis, SeparatingTwist, BPMap, WedgeElem, AbelianCycle,
    LinkingMatrix,
)
NAMES = [cls.__name__ for cls in CLASSES]
HASHABLE = [n for n in NAMES if n != "B2Basis"]
FIRST_FIELD = {"F2Matrix": "n", "SeparatingTwist": "basis", "BPMap": "basis", "AbelianCycle": "first"}


@pytest.mark.parametrize("name", NAMES)
class TestValueClass:
    def test_repr(self, name):
        value, text, _ = make(name)
        assert repr(value) == text

    def test_repr_round_trips(self, name):
        # the repr names every field by keyword, so it rebuilds the value
        value, text, _ = make(name)
        assert eval(text, {cls.__name__: cls for cls in CLASSES}) == value

    def test_equal_by_value(self, name):
        value, _, other = make(name)
        again, _, _ = make(name)
        assert value is not again
        assert value == again and not value != again
        assert value != other and not value == other

    def test_other_class_never_equal(self, name):
        value, _, _ = make(name)
        for other_name in NAMES:
            if other_name != name:
                assert value != make(other_name)[0]

    def test_pickle_and_copy_round_trip(self, name):
        value, _, _ = make(name)
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value


@pytest.mark.parametrize("name", NAMES)
def test_assignment_raises(name):
    value, _, _ = make(name)
    field = FIRST_FIELD.get(name, "genus")
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_values_hash_equal(name):
    value, _, other = make(name)
    again, _, _ = make(name)
    assert hash(value) == hash(again)
    assert {value, again, other} == {value, other}


def test_hash_is_the_field_tuple_hash():
    # set iteration order of classes, hence report order, follows the hash
    assert hash(HClass(2, 3)) == hash((2, 3))
    assert hash(WedgeElem(1, 5)) == hash((1, 5))
    assert HClass(2, 3) != (2, 3)


def test_polynomial_equality_comes_from_value():
    # BoolPoly and CMPoly define no __eq__; CMPoly adds only a __hash__,
    # since its terms are a dict
    assert "__eq__" not in vars(BoolPoly) and "__hash__" not in vars(BoolPoly)
    assert "__eq__" not in vars(CMPoly) and "__hash__" in vars(CMPoly)
    for p, again, other in (
        (BoolPoly(2, {0, 5}), BoolPoly(2, [5, 0, 5, 5]), BoolPoly(3, {0, 5})),
        (CMPoly(2, {((0, 2),): 3}), CMPoly.symbol(2, 0, 2, 3), CMPoly(2, {((0, 2),): -3})),
    ):
        assert p is not again
        assert p == again and not p != again and hash(p) == hash(again)
        assert p != other and not p == other
        assert len({p, again, other}) == 2
    assert hash(BoolPoly(2, {0, 5})) == hash((2, frozenset({0, 5})))
    # the same genus and the "same" constant, in the two algebras
    assert BoolPoly.one(2) != CMPoly.one(2) and not BoolPoly.one(2) == CMPoly.one(2)
    assert BoolPoly.zero(2) != CMPoly.zero(2)


def test_b2basis_is_unhashable():
    # it holds its index dict
    with pytest.raises(TypeError):
        hash(b2_basis(2))


def test_defaults_and_keywords():
    assert HClass(2) == HClass(genus=2, bits=0)
    assert ZHClass(genus=1, coords=(0, 1)) == ZHClass(1, (0, 1))
    assert SubsurfaceBasis(3).pairs == ()
    assert SelfLinkingForm(1) == SelfLinkingForm(1, values=0)
    assert SeparatingTwist(SubsurfaceBasis(2)).label == ""


def test_cold_import_skips_heavy_modules():
    # dataclasses pulls in inspect, ast, dis and tokenize; hashlib is only
    # needed by eval and csv only by --format csv; annotations are strings,
    # so typing is not needed; the report timestamp is built with time, not
    # datetime.  None of them may load when the package and its CLI do.  -S
    # keeps site-packages .pth files from importing them first.
    src = os.path.dirname(os.path.dirname(bcjcalc.__file__))
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import bcjcalc, bcjcalc.cli; "
        "heavy = ('dataclasses', 'inspect', 'hashlib', 'typing', 'csv', 'datetime'); "
        "print(sorted(m for m in heavy if m in sys.modules))"
    )
    r = subprocess.run(
        [sys.executable, "-S", "-c", code, src], capture_output=True, text=True, check=True
    )
    assert r.stdout.strip() == "[]"
