import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mckay.cyclotomic import root_of_unity
from mckay.errors import InvariantError
from mckay.groups import (CLASS_BUDGET, FAMILIES, GroupElement, GroupSpec, build_group,
                          defining_character, _close_under_multiplication)

from conftest import pipeline


def test_spec_parsing_and_orders():
    assert GroupSpec.parse("cyclic:5").order == 5
    assert GroupSpec.parse("binary-dihedral:4").order == 16
    assert GroupSpec.parse("binary-tetrahedral").order == 24
    assert GroupSpec.parse("binary-octahedral").order == 48
    assert GroupSpec.parse("binary-icosahedral").order == 120
    with pytest.raises(ValueError):
        GroupSpec.parse("dodecahedral")
    with pytest.raises(ValueError):
        GroupSpec.parse("cyclic:1")
    with pytest.raises(ValueError):
        GroupSpec.parse("binary-tetrahedral:3")
    for accepted in ("binary-dihedral:57", "cyclic:60"):
        assert GroupSpec.parse(accepted).class_count == CLASS_BUDGET
    for refused in ("binary-dihedral:58", "cyclic:61"):
        with pytest.raises(ValueError, match=f"r = {CLASS_BUDGET + 1} conjugacy "
                           f"classes, above the class budget of {CLASS_BUDGET}"):
            GroupSpec.parse(refused)


# a parametrized family, a separator and a parameter, or any string of
# family names, separators and parameters; the parameters are signed,
# small or of 20 digits, in ASCII, Arabic-Indic or fullwidth digits, all
# of which int() reads, beside a superscript, which it does not
_DIGITS = [str.maketrans("0123456789", digits) for digits in
           ("0123456789", "٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９")]
_SMALL, _LONG = st.integers(-3, 70), st.integers(-10**20, 10**20)
_PARAMETER = st.builds(lambda n, digits: str(n).translate(digits),
                       st.one_of(_SMALL, _LONG), st.sampled_from(_DIGITS))
_SPEC_TEXT = st.one_of(
    st.builds("{}{}{}".format, st.sampled_from(FAMILIES[:2]),
              st.sampled_from([":", " : ", ":+"]), _PARAMETER),
    st.lists(st.one_of(st.sampled_from([*FAMILIES, ":", " ", "²"]), _PARAMETER),
             max_size=4).map("".join))


@given(_SPEC_TEXT)
def test_a_spec_text_is_refused_or_round_trips_with_its_order_and_class_count(text):
    try:
        spec = GroupSpec.parse(text)
    except ValueError:
        return
    assert GroupSpec.parse(str(spec)) == spec
    n = spec.parameter or 0
    assert (spec.order, spec.class_count) == {
        "cyclic": (n, n), "binary-dihedral": (4 * n, n + 3), "binary-tetrahedral": (24, 7),
        "binary-octahedral": (48, 8), "binary-icosahedral": (120, 9)}[spec.family]
    assert spec.class_count <= CLASS_BUDGET


def test_cyclic_2_is_plus_minus_identity():
    g, _, _ = pipeline("cyclic:2")
    assert g.order == 2
    assert g.elements[0] == GroupElement(1, 0)
    assert g.elements[1] == GroupElement(-1, 0)


@pytest.mark.parametrize("text,order", [
    ("cyclic:3", 3),
    ("binary-dihedral:2", 8),
    ("binary-dihedral:5", 20),
    ("binary-tetrahedral", 24),
    ("binary-octahedral", 48),
    ("binary-icosahedral", 120),
])
def test_closure_orders(text, order):
    g, _, _ = pipeline(text)
    assert g.order == order


@pytest.mark.parametrize("text", ["cyclic:3", "binary-dihedral:2"])
def test_mult_table_against_direct_matrix_products(text):
    # independent oracle: recompute every product as a plain 2x2 matrix
    # product of the four entries
    g, _, _ = pipeline(text)
    index = {e.entries: i for i, e in enumerate(g.elements)}
    for i, x in enumerate(g.elements):
        a, b, c, d = x.entries
        for j, y in enumerate(g.elements):
            e, f, h, k = y.entries
            product = (a * e + b * h, a * f + b * k, c * e + d * h, c * f + d * k)
            assert g.mult_table[i][j] == index[product]


def test_every_element_is_in_sl2():
    for text in ["binary-dihedral:3", "binary-octahedral", "binary-icosahedral"]:
        g, _, _ = pipeline(text)
        assert all(e.det() == 1 for e in g.elements)
    with pytest.raises(ValueError, match="not a unit first row"):
        GroupElement(1, 1)


@pytest.mark.parametrize("text,count", [
    ("cyclic:3", 3),
    ("cyclic:7", 7),
    ("binary-dihedral:2", 5),
    ("binary-dihedral:4", 7),
    ("binary-tetrahedral", 7),
    ("binary-octahedral", 8),
    ("binary-icosahedral", 9),
])
def test_class_counts_match_affine_vertex_counts(text, count):
    g, _, _ = pipeline(text)
    assert len(g.classes) == count
    assert len(g.classes) == GroupSpec.parse(text).class_count


def test_classes_against_direct_conjugation():
    # independent oracle: conjugacy orbits via matrix inverse and product
    g, _, _ = pipeline("binary-dihedral:2")
    index = {e: i for i, e in enumerate(g.elements)}
    for members in g.classes:
        rep = g.elements[members[0]]
        orbit = {index[h * rep * h.inverse()] for h in g.elements}
        assert orbit == set(members)


def test_class_partition_and_sizes():
    for text in ["binary-tetrahedral", "binary-icosahedral"]:
        g, _, _ = pipeline(text)
        assert sum(g.class_sizes) == g.order
        seen = sorted(i for c in g.classes for i in c)
        assert seen == list(range(g.order))
        assert g.classes[g.class_of[g.identity_index]] == (g.identity_index,)


def test_exponent_annihilates_every_element():
    for text in ["cyclic:6", "binary-dihedral:3", "binary-octahedral"]:
        g, _, _ = pipeline(text)
        for i in range(g.order):
            x = g.identity_index
            for _ in range(g.exponent):
                x = g.mult_table[x][i]
            assert x == g.identity_index
        assert all(g.exponent % o == 0 for o in g.element_orders)


@pytest.mark.parametrize("text", ["cyclic:6", "binary-dihedral:3", "binary-octahedral"])
def test_power_classes_against_exact_matrix_powers(text):
    g, _, _ = pipeline(text)
    index = {e: i for i, e in enumerate(g.elements)}
    for c, rep in enumerate(g.class_reps):
        x = g.elements[rep]
        power = g.elements[g.identity_index]
        expected = []
        while not expected or power != g.elements[g.identity_index]:
            expected.append(g.class_of[index[power]])
            power = power * x
        assert g.power_classes[c] == tuple(expected)


def test_defining_character_is_real_on_every_class():
    for text in ["cyclic:5", "binary-dihedral:4", "binary-icosahedral"]:
        g, _, _ = pipeline(text)
        assert all(v.conj() == v for v in defining_character(g))


def test_identity_first_and_deterministic_rebuild():
    g1 = build_group(GroupSpec.parse("binary-dihedral:3"))
    g2 = build_group(GroupSpec.parse("binary-dihedral:3"))
    assert g1.identity_index == 0
    assert g1.element_orders[0] == 1
    assert list(g1.element_orders) == sorted(g1.element_orders)
    assert g1.to_json_obj() == g2.to_json_obj()


def test_inverse_map():
    g, _, _ = pipeline("binary-tetrahedral")
    for i in range(g.order):
        assert g.mult_table[i][g.inverse_of[i]] == g.identity_index


def test_closure_bound_catches_infinite_groups():
    # in SU(2), of infinite order: (3 + 4i)/5 is no root of unity
    rotation = GroupElement((3 + 4 * root_of_unity(4)) * Fraction(1, 5), 0)
    with pytest.raises(InvariantError):
        _close_under_multiplication([rotation], 100)


def test_group_json_round_trip():
    from mckay.groups import FiniteSubgroup
    g, _, _ = pipeline("binary-dihedral:2")
    again = FiniteSubgroup.from_json_obj(g.to_json_obj())
    assert again.to_json_obj() == g.to_json_obj()
    assert again.elements == g.elements


@pytest.mark.parametrize("text,seed", [("cyclic:6", 0), ("binary-dihedral:3", 1),
                                       ("binary-icosahedral", 2)])
def test_shuffled_elements_are_sorted_into_the_canonical_order(text, seed):
    from mckay.groups import FiniteSubgroup
    g, _, _ = pipeline(text)
    perm = [0, *random.Random(seed).sample(range(1, g.order), g.order - 1)]
    where = {old: new for new, old in enumerate(perm)}
    shuffled = FiniteSubgroup(
        g.spec, tuple(g.elements[old] for old in perm),
        tuple(tuple(where[g.mult_table[i][j]] for j in perm) for i in perm))
    assert shuffled == build_group(GroupSpec.parse(text))


def test_two_equal_elements_are_refused():
    from mckay.groups import FiniteSubgroup
    g, _, _ = pipeline("binary-dihedral:2")
    i, j = 2, 3
    assert g.element_orders[i] == g.element_orders[j]
    elements = list(g.elements)
    elements[j] = elements[i]
    with pytest.raises(InvariantError, match="two elements are equal"):
        FiniteSubgroup(g.spec, tuple(elements), g.mult_table)


def _swap(items, a, b):
    items[a], items[b] = items[b], items[a]


def _runaway_conductor(obj):
    obj["elements"][1][0] = {"N": 10**9 + 7, "terms": [[10**9 + 6, "1"]]}


def _upper_right_set_to_upper_left(obj):
    """Every non-identity first row (a, b) becomes (a, a), no unit vector."""
    for element in obj["elements"][1:]:
        element[1] = element[0]


def _lower_left_set_to_one(obj):
    """Every non-identity lower-left entry set to 1, which is -conj b
    only where b = -1."""
    for element in obj["elements"][1:]:
        element[2] = {"N": 1, "terms": [[0, "1"]]}


def _true_for_one_in_mult_table(obj):
    obj["mult_table"] = [[True if x == 1 else x for x in row] for row in obj["mult_table"]]


def _element_respelled_off_the_canonical_basis(obj):
    """zeta_4^e c = zeta_4^(e+2) (-c): the same value, on a term outside
    the canonical basis {1, zeta_4}.  The last element is respelled,
    where the element order alone does not notice it."""
    value = next(x for g in reversed(obj["elements"]) for x in g if x["N"] == 4)
    e, c = value["terms"][0]
    value["terms"][0] = [e + 2, c[1:] if c.startswith("-") else "-" + c]


@pytest.mark.parametrize("damage,error", [
    (lambda obj: obj.update(inverses=[True if x == 1 else x
                                      for x in obj["inverses"]]), "JSON integers"),
    (lambda obj: obj.update(spec="cyclic:6"), "8 elements, expected 6"),
    (lambda obj: _swap(obj["mult_table"][1], -2, -1), "Latin square"),
    (lambda obj: _swap(obj["elements"], 2, 3), "elements, orders"),
    (lambda obj: _swap(obj["classes"], 3, 4), "classes"),
    (_runaway_conductor, "conductor 1000000007 does not divide the group order 8"),
    (_upper_right_set_to_upper_left, "not a unit first row"),
    (_lower_left_set_to_one, "elements, orders"),
    (_true_for_one_in_mult_table, "JSON integers"),
    (_element_respelled_off_the_canonical_basis, "elements, orders"),
])
def test_damaged_group_json_is_refused(damage, error):
    from mckay.groups import FiniteSubgroup
    g, _, _ = pipeline("binary-dihedral:2")
    obj = g.to_json_obj()
    damage(obj)
    with pytest.raises((ValueError, InvariantError), match=error):
        FiniteSubgroup.from_json_obj(obj)
