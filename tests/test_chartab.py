import random
from fractions import Fraction
from math import isqrt

import pytest

from mckay import chartab
from mckay.chartab import CharacterTable, inner_product, pairings
from mckay.cyclotomic import CycNumber, root_of_unity
from mckay.errors import InvariantError
from mckay.groups import defining_character

from conftest import pipeline

ALL_SPECS = ["cyclic:2", "cyclic:3", "cyclic:5", "cyclic:8",
             "binary-dihedral:2", "binary-dihedral:4", "binary-dihedral:6",
             "binary-tetrahedral", "binary-octahedral", "binary-icosahedral"]


def test_cyclic_2_table_explicit():
    _, table, _ = pipeline("cyclic:2")
    assert table.degrees == (1, 1)
    assert [[v.rational_value() for v in row] for row in table.values] == \
        [[1, 1], [1, -1]]


@pytest.mark.parametrize("text,degrees", [
    ("binary-dihedral:2", [1, 1, 1, 1, 2]),
    ("binary-tetrahedral", [1, 1, 1, 2, 2, 2, 3]),
    ("binary-octahedral", [1, 1, 2, 2, 2, 3, 3, 4]),
    ("binary-icosahedral", [1, 2, 2, 3, 3, 4, 4, 5, 6]),
])
def test_degree_multisets(text, degrees):
    _, table, _ = pipeline(text)
    assert sorted(table.degrees) == degrees
    assert sum(d * d for d in table.degrees) == table.group.order


@pytest.mark.parametrize("text", ALL_SPECS)
def test_row_orthogonality_exact(text):
    group, table, _ = pipeline(text)
    r = table.n_classes
    for i in range(r):
        for j in range(r):
            got = inner_product(table.values[i], table.values[j], group)
            assert got == (1 if i == j else 0)


@pytest.mark.parametrize("text", ALL_SPECS)
def test_column_orthogonality_exact(text):
    _, table, _ = pipeline(text)
    r = table.n_classes
    for c1 in range(r):
        for c2 in range(r):
            acc = CycNumber.coerce(0)
            for i in range(r):
                acc = acc + table.values[i][c1] * table.values[i][c2].conj()
            expected = Fraction(table.group.order, table.class_sizes[c1]) \
                if c1 == c2 else 0
            assert acc == expected


@pytest.mark.parametrize("text", ALL_SPECS)
def test_pairings_agree_with_inner_product(text):
    # one call, so both matrices come from the same prime field
    group, table, _ = pipeline(text)
    chis = (table.values[0], table.defining_values)
    for chi, matrix in zip(chis, pairings(table, chis), strict=True):
        products = [tuple(a * b for a, b in zip(chi, row)) for row in table.values]
        assert matrix == tuple(
            tuple(inner_product(product, row, group) for row in table.values)
            for product in products)


@pytest.mark.parametrize("text,root", [("cyclic:2", 2), ("cyclic:5", 5),
                                       ("binary-dihedral:3", 3),
                                       ("binary-icosahedral", 3)])
def test_a_value_times_a_root_of_unity_is_refused(text, root):
    _, table, _ = pipeline(text)
    values = [list(row) for row in table.values]
    i, c = next((i, c) for i in range(1, len(values))
                for c in range(1, len(values)) if values[i][c])
    values[i][c] = values[i][c] * root_of_unity(root)
    with pytest.raises(InvariantError,
                       match="not orthonormal|not an integer|Galois-equivariant"):
        CharacterTable(table.group, tuple(map(tuple, values)))


@pytest.mark.parametrize("factor", [-1, root_of_unity(3)])
def test_a_row_times_a_unit_is_refused(factor):
    # the rows stay orthonormal, but the degree chi(1) is not a positive integer
    _, table, _ = pipeline("binary-dihedral:3")
    values = list(table.values)
    values[-1] = tuple(v * factor for v in values[-1])
    with pytest.raises(InvariantError, match="degree is not a positive"):
        CharacterTable(table.group, tuple(values))


def test_a_value_with_a_non_integer_coefficient_is_refused():
    _, table, _ = pipeline("binary-tetrahedral")
    # half the trivial character pairs to I/2, which is not an integer matrix
    with pytest.raises(InvariantError, match="non-integer coefficient"):
        pairings(table, [(Fraction(1, 2),) * table.n_classes])


def test_pairings_outside_the_certified_range_are_refused():
    _, table, _ = pipeline("cyclic:3")
    # -1 has residue P - 1 > B; 74 - 2 zeta_3 has residues 149 and 1 under
    # the two maps to F_5479, both in [0, B] with B = 912, but its two
    # images on the identity class differ
    for x in (CycNumber.coerce(-1), 74 - 2 * root_of_unity(3)):
        with pytest.raises(InvariantError,
                           match="not an integer in|Galois-equivariant"):
            pairings(table, [(3 * x, 0, 0)])


def test_trivial_row_first_and_degree_sorted():
    for text in ALL_SPECS:
        _, table, _ = pipeline(text)
        assert table.trivial_index == 0
        assert all(v == 1 for v in table.values[0])
        assert list(table.degrees[1:]) == sorted(table.degrees[1:])
        assert table.degrees == tuple(int(row[0].rational_value())
                                      for row in table.values)


def test_degrees_are_identity_values():
    _, table, _ = pipeline("binary-octahedral")
    identity_class = 0
    for d, row in zip(table.degrees, table.values):
        assert row[identity_class] == d


def test_inner_product_rejects_wrong_length():
    group, table, _ = pipeline("cyclic:3")
    with pytest.raises(ValueError):
        inner_product(table.values[0][:2], table.values[0], group)


def test_products_of_characters_have_integer_multiplicities():
    group, table, _ = pipeline("binary-tetrahedral")
    r = table.n_classes
    for i in range(r):
        for j in range(r):
            product = tuple(a * b for a, b in
                            zip(table.values[i], table.values[j]))
            for k in range(r):
                mult = inner_product(product, table.values[k], group)
                assert mult.is_integer()
                assert mult.rational_value() >= 0


def test_defining_character_inner_products():
    group, table, _ = pipeline("cyclic:3")
    chi_q = defining_character(group)
    assert inner_product(table.values[0], chi_q, group) == 0
    # tensoring with the trivial character changes nothing
    for text, self_pairing in [("cyclic:3", 2), ("binary-dihedral:3", 1),
                               ("binary-icosahedral", 1)]:
        group, table, _ = pipeline(text)
        chi_q = defining_character(group)
        product = tuple(a * b for a, b in zip(chi_q, table.values[0]))
        assert inner_product(product, chi_q, group) == \
            inner_product(chi_q, chi_q, group) == self_pairing


def test_irreducible_rows_are_orthonormal():
    group, table, _ = pipeline("binary-dihedral:4")
    for row in table.values:
        assert inner_product(row, row, group) == 1


def test_table_json_round_trip():
    _, table, _ = pipeline("binary-tetrahedral")
    again = CharacterTable.from_json_obj(table.to_json_obj(), table.group)
    assert again == table


def test_table_json_without_a_trivial_first_row_is_refused():
    _, table, _ = pipeline("binary-tetrahedral")
    obj = table.to_json_obj()
    obj["values"] = obj["values"][1:]
    with pytest.raises(InvariantError, match="trivial character row"):
        CharacterTable.from_json_obj(obj, table.group)


def test_table_with_rows_out_of_canonical_order_is_refused():
    # the constructor sorts the rows back, so the stored bytes differ
    _, table, _ = pipeline("binary-tetrahedral")
    obj = table.to_json_obj()
    for key in ("degrees", "values"):
        obj[key][1], obj[key][2] = obj[key][2], obj[key][1]
    with pytest.raises(InvariantError, match="row order"):
        CharacterTable.from_json_obj(obj, table.group)


@pytest.mark.parametrize("text", ["binary-tetrahedral", "cyclic:12"])
def test_the_constructor_sorts_permuted_rows_into_the_canonical_table(text):
    group, table, _ = pipeline(text)
    rows = list(table.values)
    for permuted in (rows[::-1], rows[1:] + rows[:1], random.Random(0).sample(rows, len(rows))):
        assert permuted != rows
        again = CharacterTable(group, tuple(permuted))
        assert again == table
        assert again.to_json_obj() == table.to_json_obj()


def test_a_runaway_conductor_in_table_json_is_refused():
    # refused before its 10**9 + 6 terms are expanded
    _, table, _ = pipeline("cyclic:3")
    obj = table.to_json_obj()
    obj["values"][1][1] = {"N": 10**9 + 7, "terms": [[10**9 + 6, "1"]]}
    with pytest.raises(ValueError, match="does not divide the group order 3"):
        CharacterTable.from_json_obj(obj, table.group)


def test_elements_that_do_not_separate_are_reported():
    # binary-dihedral:2 has exponent 4; the class sum of the central -1
    # is one class, with eigenvalues +-1 only
    group, table, _ = pipeline("binary-dihedral:2")
    p, r = 17, table.n_classes
    minus_one = next(c for c, size in enumerate(group.class_sizes) if c and size == 1)
    assert chartab._split(group, [0] * r, p) is None
    assert chartab._split(group, [int(c == minus_one) for c in range(r)], p) is None
    # on the classes of i, j and k weights 1, 2, 4 separate all five
    x = [0] * r
    for c, weight in zip((c for c, size in enumerate(group.class_sizes) if size == 2),
                         (1, 2, 4)):
        x[c] = weight
    central = {tuple(size * int(v.rational_value()) * pow(d, -1, p) % p
                     for size, v in zip(table.class_sizes, row))
               for d, row in zip(table.degrees, table.values)}
    assert set(map(tuple, chartab._split(group, x, p))) == central


def test_a_split_that_never_separates_is_refused(monkeypatch):
    group, _, _ = pipeline("binary-dihedral:2")
    monkeypatch.setattr(chartab, "_SPLIT_TRIES", 0)
    with pytest.raises(InvariantError, match="separated"):
        chartab.character_table(group)


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


@pytest.mark.parametrize("threshold,e,prime", [
    (2628, 60, 3001), (25920, 60, 25981),  # binary-icosahedral: split, certificate
    (928, 60, 1021), (69120, 60, 69481),   # cyclic:60: split, certificate
    (16, 4, 17), (100, 7, 113), (0, 2, 3)])
def test_the_prime_field_is_the_least_above_its_threshold(threshold, e, prime):
    p, powers = chartab._prime_field(threshold, e)
    assert p == prime and _is_prime(p) and p % e == 1 and p > threshold
    assert not any(_is_prime(q) for q in range(threshold + 1, p) if q % e == 1)
    # powers[1] = zeta_e has order exactly e: its e powers are distinct
    assert powers == [pow(powers[1], t, p) for t in range(e)]
    assert len(set(powers)) == e and pow(powers[1], e, p) == 1


def _fp_rows(text):
    """The table of `text` in F_p, p and zeta as `character_table` picks
    them, with the arguments `_lift_row` takes after the row and degree."""
    group, table, _ = pipeline(text)
    e = group.exponent
    p, zeta_pows = chartab._split_field(group)
    rows = [[sum(c * zeta_pows[t * (e // v.conductor) % e] for t, c in v.numerators) % p
             for v in row] for row in table.values]
    return table, rows, (group.power_classes, zeta_pows, p)


def test_the_lift_inverts_the_reduction():
    table, rows, args = _fp_rows("binary-icosahedral")
    for degree, row, chi_fp in zip(table.degrees, table.values, rows):
        assert chartab._lift_row(chi_fp, degree, *args) == list(row)


def test_multiplicities_that_miss_the_degree_are_refused():
    table, rows, args = _fp_rows("cyclic:5")
    with pytest.raises(InvariantError, match="sum to 1, expected 2"):
        chartab._lift_row(rows[1], 2, *args)


def test_a_tampered_value_off_a_rational_class_first_is_refused():
    # cyclic:5 has the rational classes {0} and {1, 2, 3, 4}, so class 2
    # takes class 1's multiplicities under some t -> kt; the transform on
    # class 1 reads class 2 too, and its multiplicities stop summing to 1
    table, rows, args = _fp_rows("cyclic:5")
    power_classes, _, p = args
    assert sorted(power_classes[1][1:]) == [1, 2, 3, 4]
    chi_fp = rows[1][:]
    chi_fp[2] = (chi_fp[2] + 1) % p
    with pytest.raises(InvariantError):
        chartab._lift_row(chi_fp, table.degrees[1], *args)
