"""Value semantics of the package's immutable record classes: how they
are built, compared, hashed and refused."""

import pytest

from mckay.chartab import CharacterTable
from mckay.cyclotomic import CycNumber
from mckay.errors import InvariantError
from mckay.groups import CLASS_BUDGET, FiniteSubgroup, GroupSpec
from mckay.highest_weight import DrinfeldData, MultiplicityTable, drinfeld_polynomials
from mckay.quiver import CartanData
from mckay.roots import RootSystem, root_system_for
from mckay.strata import FiberLabel, StratumLabel

from conftest import pipeline


def _fields_of(obj, names):
    return {name: getattr(obj, name) for name in names}


def _cases():
    """(class, keyword arguments in constructor order, every field or
    None when the arguments are every field)."""
    group, table, cd = pipeline("binary-dihedral:2")
    system = root_system_for(cd)
    drinfeld = drinfeld_polynomials([[2, 3], [5]])
    return [
        (GroupSpec, {"family": "cyclic", "parameter": 5},
         ("family", "parameter", "order", "class_count")),
        (FiniteSubgroup, _fields_of(group, ("spec", "elements", "mult_table")),
         ("spec", "elements", "mult_table", "inverse_of", "element_orders", "exponent",
          "classes", "class_of", "class_reps", "power_classes")),
        (CharacterTable, _fields_of(table, ("group", "values")),
         ("group", "values", "degrees", "class_sizes", "defining_values",
          "mckay_adjacency")),
        (CartanData, _fields_of(cd, ("adjacency", "delta", "trivial_vertex")),
         ("adjacency", "delta", "trivial_vertex", "vertex_count", "cartan", "ade_type",
          "standard_labeling")),
        (RootSystem, {"cartan": system.cartan}, ("cartan", "positive")),
        (MultiplicityTable, {"framing": (1, 0), "depth": 2, "cap": None,
                             "entries": {(0, 0): 1, (1, 0): 1}}, None),
        (DrinfeldData, {"eigenvalues": drinfeld.eigenvalues},
         ("eigenvalues", "polynomials")),
        (StratumLabel, {"v0": (1, 0), "lam": (2, 1), "residual": 3},
         ("v0", "lam", "residual", "candidate")),
        (FiberLabel, {"lagrangian_v": (1, 2), "transported_w": None,
                      "punctual_parts": (1,)},
         ("lagrangian_v", "transported_w", "punctual_parts", "empty")),
    ]


CASES = [(cls, kwargs, fields or tuple(kwargs)) for cls, kwargs, fields in _cases()]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(case):
    cls, kwargs, fields = case
    by_position = cls(*kwargs.values())
    by_keyword = cls(**kwargs)
    for name, value in kwargs.items():
        assert getattr(by_position, name) == value
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert repr(by_position) == repr(by_keyword)
    assert repr(by_position).startswith(f"{cls.__name__}({fields[0]}=")


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_equal_fields_give_equal_objects_and_hashes(case):
    cls, kwargs, _ = case
    a, b = cls(**kwargs), cls(**kwargs)
    assert a == b
    if cls is MultiplicityTable:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_never_equal_to_another_type_with_the_same_values(case):
    cls, kwargs, fields = case
    obj = cls(**kwargs)
    values = tuple(getattr(obj, name) for name in fields)
    for other in (tuple(kwargs.values()), values, list(values), dict(kwargs)):
        assert obj != other
        assert other != obj
        assert not obj == other


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(case):
    cls, kwargs, fields = case
    obj = cls(**kwargs)
    for name in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    with pytest.raises(AttributeError):
        delattr(obj, fields[0])
    assert tuple(getattr(obj, name) for name in kwargs) == tuple(kwargs.values())


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_public_class_surface(case):
    cls = case[0]
    assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "(")
    if cls not in (GroupSpec, MultiplicityTable):
        assert "to_json_obj" in cls.__dict__
    if cls in (FiniteSubgroup, CharacterTable, CartanData):
        assert isinstance(cls.__dict__["from_json_obj"], staticmethod)


def test_a_different_field_makes_objects_unequal():
    assert GroupSpec("cyclic", 5) != GroupSpec("cyclic", 6)
    assert StratumLabel((0,), (1,), 0) != StratumLabel((1,), (1,), 0)
    assert (MultiplicityTable((1,), 2, None, {(0,): 1})
            != MultiplicityTable((1,), 2, None, {(0,): 2}))


def test_defaults_are_kept():
    assert GroupSpec("binary-icosahedral").parameter is None
    assert GroupSpec("binary-icosahedral") == GroupSpec("binary-icosahedral", None)
    assert StratumLabel((0,), (), 1).candidate is False


def test_positive_set_is_a_field():
    system = root_system_for(pipeline("binary-dihedral:2")[2])
    assert "positive_set" in RootSystem.__slots__
    assert system.positive_set == frozenset(system.positive)
    assert system.is_root(system.highest_root)
    assert system.is_root(tuple(-x for x in system.highest_root))
    # a second system from the same matrix derives an equal field
    fresh = RootSystem(system.cartan)
    assert fresh == system and hash(fresh) == hash(system)


def test_validation_errors_still_raise():
    with pytest.raises(ValueError, match="nonnegative"):
        StratumLabel((-1,), (1,), 0)
    with pytest.raises(ValueError, match="positive"):
        StratumLabel((0,), (1, 0), 0)
    with pytest.raises(ValueError, match="weakly decreasing"):
        StratumLabel((0,), (1, 2), 0)
    with pytest.raises(ValueError, match="residual"):
        StratumLabel((0,), (1,), -1)
    with pytest.raises(ValueError, match="class budget"):
        GroupSpec("cyclic", CLASS_BUDGET + 1)
    with pytest.raises(ValueError, match="takes no parameter"):
        GroupSpec(family="binary-octahedral", parameter=3)


# -- derived fields follow their defining data --------------------------

_A1 = ((0, 2), (2, 0))
_TRIANGLE = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
_D4 = ((0, 1, 0, 0, 0), (1, 0, 1, 1, 1), (0, 1, 0, 0, 0), (0, 1, 0, 0, 0),
       (0, 1, 0, 0, 0))


def test_order_and_class_count_follow_the_family_and_parameter():
    assert [(spec.order, spec.class_count) for spec in (
        GroupSpec("cyclic", 5), GroupSpec("binary-dihedral", 5),
        GroupSpec("binary-tetrahedral"), GroupSpec("binary-octahedral"),
        GroupSpec("binary-icosahedral"))] == [(5, 5), (20, 8), (24, 7), (48, 8), (120, 9)]
    assert "order" in GroupSpec.__slots__ and "class_count" in GroupSpec.__slots__


def test_vertex_count_follows_the_adjacency():
    assert CartanData(_A1, (1, 1), 0).vertex_count == 2
    assert CartanData(_TRIANGLE, (1, 1, 1), 0).vertex_count == 3


def test_cartan_matrix_is_two_minus_the_adjacency():
    assert CartanData(_A1, (1, 1), 0).cartan == ((2, -2), (-2, 2))
    assert CartanData(_TRIANGLE, (1, 1, 1), 0).cartan == \
        ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))


def test_ade_type_follows_the_graph():
    assert CartanData(_TRIANGLE, (1, 1, 1), 0).ade_type == "A~2"
    assert CartanData(_D4, (1, 2, 1, 1, 1), 0).ade_type == "D~4"


def test_standard_labeling_follows_the_trivial_vertex():
    assert CartanData(_TRIANGLE, (1, 1, 1), 0).standard_labeling == (0, 1, 2)
    assert CartanData(_TRIANGLE, (1, 1, 1), 2).standard_labeling == (1, 2, 0)
    assert CartanData(_D4, (1, 2, 1, 1, 1), 3).standard_labeling == (1, 2, 3, 0, 4)


def test_positive_roots_follow_the_cartan_matrix():
    assert RootSystem(((2,),)).positive == ((1,),)
    assert RootSystem(((2, -1), (-1, 2))).positive == ((0, 1), (1, 0), (1, 1))
    with pytest.raises(InvariantError, match="highest root is not unique"):
        RootSystem(((2, 0), (0, 2)))


def test_polynomials_follow_the_eigenvalues():
    two, three = CycNumber.coerce(2), CycNumber.coerce(3)
    assert DrinfeldData(((two, three), ())).polynomials == ((1, -5, 6), (1,))
    assert DrinfeldData(((three,),)).polynomials == ((1, -3),)


def test_candidate_follows_v0():
    assert StratumLabel((0, 0), (1,), 2).candidate is False
    assert StratumLabel((0, 1), (1,), 2).candidate is True


def test_empty_follows_the_lagrangian_label_and_the_transported_framing():
    assert FiberLabel((1, 0), (1, 0), ()).empty is False
    assert FiberLabel((1, -1), (1, 0), ()).empty is True
    assert FiberLabel((1, 0), None, ()).empty is True


@pytest.mark.parametrize("adjacency,delta,message", [
    # a loop or an asymmetry that keeps C * delta = 0 is left to the
    # classification; these two are refused before it
    (((2, 0), (0, 0)), (1, 1), r"C \* delta != 0"),
    (((0, 1), (2, 0)), (1, 1), r"C \* delta != 0"),
    # A is irreducible with Perron vector delta, so ker C is a line, but
    # a loop matches no reference diagram
    (((1, 1), (1, 1)), (1, 1), "not an affine ADE diagram"),
    # the twisted affine Cartan matrix of A_2^(2)
    (((0, 1), (4, 0)), (1, 2), "adjacency matrix is not symmetric"),
    (_A1, (1, 2), r"C \* delta != 0"),
    (_A1, (0, 0), "not a primitive positive kernel vector"),
    (_A1, (2, 2), "not a primitive positive kernel vector"),
    # two disjoint A~1 diagrams: delta is on each, so the kernel is a plane
    (((0, 2, 0, 0), (2, 0, 0, 0), (0, 0, 0, 2), (0, 0, 2, 0)), (1, 1, 1, 1),
     "graph is disconnected"),
], ids=["loop-off-kernel", "asymmetric-off-kernel", "loop", "asymmetric",
        "not-in-kernel", "not-positive", "not-primitive", "disconnected"])
def test_cartan_data_refuses_data_that_do_not_verify(adjacency, delta, message):
    with pytest.raises(InvariantError, match=message):
        CartanData(adjacency, delta, 0)
