"""Catalog and exact enumeration of the finite subgroups of SL2(C).

Each catalog group is built by closing a few generators under
multiplication.  Every element is an SU(2) matrix [[a, b], [-conj b,
conj a]] of exact cyclotomic numbers, given by its first row (a, b).
A wrong generator gives the wrong group order, and construction fails.

Generator first rows (all checked by closure order):
  cyclic n:            (zeta_n, 0)
  binary dihedral m:   (zeta_2m, 0)  and  (0, 1)
  binary tetrahedral:  the quaternion units i = (i, 0), j = (0, 1) and
                       omega = ((-1+i)/2, (-1+i)/2), omega^3 = 1
  binary octahedral:   the above plus (zeta_8, 0) = ((1+i)/sqrt2, 0)
  binary icosahedral:  omega and the unit quaternion
                       (tau + tau^-1 i + j)/2 = ((tau + (tau-1) i)/2, 1/2),
                       tau = (1+sqrt5)/2, written over Q(zeta_20)
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import lcm
from operator import itemgetter

from .cyclotomic import CycNumber, root_of_unity
from .errors import InvariantError
from .record import Record, _set

__all__ = [
    "GroupSpec",
    "GroupElement",
    "FiniteSubgroup",
    "build_group",
    "defining_character",
    "read_value",
    "FAMILIES",
]

# Largest class count r a GroupSpec accepts, in the library as in the
# CLI, so no accepted spec runs away: the largest r whose
# `quiver --no-cache` finished in about 10 s when it was set (README
# states what it takes now).  The Dixon split costs about r^3 per seeded
# draw and is the largest part at r = 60, most of all on the cyclic
# groups that need many draws; the one `pairings` check, an r^3 product
# per function, comes next; the lift, d <= 6 eigenvalues per (row,
# rational class), is a small part.
CLASS_BUDGET = 60

FAMILIES = (
    "cyclic",
    "binary-dihedral",
    "binary-tetrahedral",
    "binary-octahedral",
    "binary-icosahedral",
)


class GroupSpec(Record):
    """One of the five families of finite subgroups of SL2(C); family and
    parameter give the order and the class count, the vertex count of
    the affine diagram."""

    __slots__ = ("family", "parameter", "order", "class_count")

    def __init__(self, family: str, parameter: int | None = None):
        _set(self, "family", family)
        _set(self, "parameter", parameter)
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; valid: {', '.join(FAMILIES)}")
        if family == "cyclic":
            if parameter is None or parameter < 2:
                raise ValueError("cyclic:n requires n >= 2")
            order, class_count = parameter, parameter
        elif family == "binary-dihedral":
            if parameter is None or parameter < 2:
                raise ValueError("binary-dihedral:m requires m >= 2")
            order, class_count = 4 * parameter, parameter + 3
        elif parameter is not None:
            raise ValueError(f"{family} takes no parameter")
        else:
            order, class_count = {"binary-tetrahedral": (24, 7), "binary-octahedral": (48, 8),
                                  "binary-icosahedral": (120, 9)}[family]
        _set(self, "order", order)
        _set(self, "class_count", class_count)
        if class_count > CLASS_BUDGET:
            raise ValueError(f"{self} has r = {class_count} conjugacy classes, "
                             f"above the class budget of {CLASS_BUDGET}")

    @staticmethod
    def parse(text: str) -> GroupSpec:
        """Parse 'cyclic:n', 'binary-dihedral:m', or a bare exceptional name."""
        name, sep, arg = text.partition(":")
        name = name.strip().lower()
        if name not in FAMILIES:
            raise ValueError(f"unknown group spec {text!r}; valid families: "
                             + ", ".join(FAMILIES))
        if sep:
            try:
                return GroupSpec(name, int(arg))
            except ValueError as exc:
                raise ValueError(f"bad parameter in group spec {text!r}: {exc}") from None
        return GroupSpec(name)

    def __str__(self) -> str:
        if self.parameter is not None:
            return f"{self.family}:{self.parameter}"
        return self.family


class GroupElement:
    """A matrix [[a, b], [-conj b, conj a]] of SU(2) over a cyclotomic
    field, given by its first row (a, b) with a conj a + b conj b = 1
    exactly; the second row is derived once, when first read."""

    __slots__ = ("row", "_entries", "_hash")

    def __init__(self, a, b):
        _set_row(self, (CycNumber.coerce(a), CycNumber.coerce(b)))
        if self.det() != 1:
            raise ValueError(f"{self.row} is not a unit first row: norm {self.det()}")

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    @property
    def entries(self) -> tuple[CycNumber, ...]:
        entries = self._entries
        if entries is None:
            a, b = self.row
            entries = (a, b, -b.conj(), a.conj())
            object.__setattr__(self, "_entries", entries)
        return entries

    def det(self) -> CycNumber:
        a, b, c, d = self.entries
        return a * d - b * c

    def trace(self) -> CycNumber:
        a, _, _, d = self.entries
        return a + d

    def __mul__(self, other: GroupElement) -> GroupElement:
        a, b = self.row
        e, f, g, h = other.entries
        return _set_row(object.__new__(GroupElement), (a * e + b * g, a * f + b * h))

    def inverse(self) -> GroupElement:
        a, b = self.row
        return GroupElement(a.conj(), -b)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.row == other.row

    def __hash__(self) -> int:
        return self._hash

    def to_json_obj(self) -> list:
        return [e.to_json_obj() for e in self.entries]

    def __repr__(self) -> str:
        a, b, c, d = self.entries
        return f"GroupElement([[{a}, {b}], [{c}, {d}]])"


def _set_row(element: GroupElement, row: tuple[CycNumber, CycNumber]) -> GroupElement:
    object.__setattr__(element, "row", row)
    object.__setattr__(element, "_entries", None)
    object.__setattr__(element, "_hash", hash(row))
    return element


IDENTITY = GroupElement(1, 0)


def _generators(spec: GroupSpec) -> list[GroupElement]:
    half = Fraction(1, 2)
    if spec.family == "cyclic":
        return [GroupElement(root_of_unity(spec.parameter), 0)]
    if spec.family == "binary-dihedral":
        return [GroupElement(root_of_unity(2 * spec.parameter), 0), GroupElement(0, 1)]
    i = root_of_unity(4)
    omega = GroupElement((-1 + i) * half, (-1 + i) * half)
    if spec.family == "binary-tetrahedral":
        return [GroupElement(i, 0), GroupElement(0, 1), omega]
    if spec.family == "binary-octahedral":
        return [GroupElement(i, 0), GroupElement(0, 1), omega,
                GroupElement(root_of_unity(8), 0)]
    # binary icosahedral; tau = (1 + sqrt5)/2, tau^-1 = tau - 1
    z5 = root_of_unity(5)
    sqrt5 = z5 - z5 ** 2 - z5 ** 3 + z5 ** 4
    tau = (1 + sqrt5) * half
    return [omega, GroupElement((tau + (tau - 1) * i) * half, half)]


class FiniteSubgroup(Record):
    """A fully enumerated subgroup of SL2(C): its elements and their
    multiplication table.  The constructor checks the group law and
    derives the inverses, element orders, exponent, classes and power
    map: power_classes[c][s] is the class of g^s, g the representative
    of class c and s < ord(g).

    Elements are ordered with the identity first, then by (element
    order, canonical serialization); classes by (representative order,
    class size, representative serialization).  Everything downstream
    relies on these orders being deterministic, and the constructor
    sorts into them.
    """

    __slots__ = ("spec", "elements", "mult_table", "inverse_of", "element_orders",
                 "exponent", "classes", "class_of", "class_reps", "power_classes")

    identity_index = 0  # not a field: the canonical order puts it first

    def __init__(self, spec: GroupSpec, elements: tuple[GroupElement, ...],
                 mult_table: tuple[tuple[int, ...], ...]):
        """Checks in time O(|G|^2) and without matrix products that the
        table is a group law on the elements, identity first, and sorts
        them into the canonical order, relabeling the table to match."""
        table = mult_table
        n = len(elements)
        if n != spec.order or elements[0] != IDENTITY:
            raise InvariantError(f"{spec}: {n} elements, expected "
                                 f"{spec.order}, identity first")
        span = set(range(n))
        if len(table) != n or any(len(line) != n or set(line) != span
                                  for line in (*table, *zip(*table))):
            raise InvariantError("the table is not a Latin square")
        if any(table[0][j] != j or table[j][0] != j for j in range(n)):
            raise InvariantError("identity row/column is wrong")
        powers = [_powers(table, i) for i in range(n)]
        den = lcm(*(x.denominator for g in elements for x in g.row))
        keys = [_element_key(i, g, len(p), den)
                for i, (g, p) in enumerate(zip(elements, powers))]
        perm = sorted(range(n), key=keys.__getitem__)
        if any(keys[a] == keys[b] for a, b in zip(perm, perm[1:])):
            raise InvariantError("two elements are equal")
        if perm != list(range(n)):  # a group already in canonical order is kept
            where = sorted(range(n), key=perm.__getitem__)  # old index -> new
            pick = itemgetter(*perm)
            elements = pick(elements)
            table = tuple(tuple(map(where.__getitem__, pick(table[old]))) for old in perm)
            powers = [[where[x] for x in powers[old]] for old in perm]
        inverse_of = tuple(row.index(0) for row in table)
        if any(table[j][i] != 0 for i, j in enumerate(inverse_of)):
            raise InvariantError("inverse map is wrong")
        rng = random.Random(0)
        for _ in range(min(200, n ** 3)):
            a, b, c = (rng.randrange(n) for _ in range(3))
            if table[table[a][b]][c] != table[a][table[b][c]]:
                raise InvariantError("associativity spot check failed")
        orders = tuple(map(len, powers))
        classes = _canonical_classes(table, inverse_of, orders)
        class_of = [0] * n
        for ci, members in enumerate(classes):
            for m in members:
                class_of[m] = ci
        reps = tuple(c[0] for c in classes)
        power_classes = tuple(tuple(class_of[x] for x in powers[rep]) for rep in reps)
        for name, value in (("spec", spec), ("elements", elements), ("mult_table", table),
                            ("inverse_of", inverse_of), ("element_orders", orders),
                            ("exponent", lcm(*orders)), ("classes", classes),
                            ("class_of", tuple(class_of)), ("class_reps", reps),
                            ("power_classes", power_classes)):
            _set(self, name, value)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    def to_json_obj(self) -> dict:
        return {
            "spec": str(self.spec),
            "order": self.order,
            "elements": [g.to_json_obj() for g in self.elements],
            "mult_table": [list(row) for row in self.mult_table],
            "identity": self.identity_index,
            "inverses": list(self.inverse_of),
            "element_orders": list(self.element_orders),
            "classes": [list(c) for c in self.classes],
            "class_reps": list(self.class_reps),
            "exponent": self.exponent,
        }

    @staticmethod
    def from_json_obj(obj: dict) -> FiniteSubgroup:
        """Rebuilt from the spec, elements and table, with every check run
        again; the stored JSON must serialize to the rebuilt group's text,
        so the derived fields and every integer's spelling must match."""
        n = len(obj["elements"])  # the constructor checks it against the spec
        seen = {}
        group = FiniteSubgroup(
            GroupSpec.parse(obj["spec"]),
            tuple(GroupElement(*(read_value(x, n, seen) for x in e[:2]))
                  for e in obj["elements"]),
            tuple(tuple(int(x) for x in row) for row in obj["mult_table"]))
        if json.dumps(group.to_json_obj()) != json.dumps(obj):
            raise InvariantError("stored elements, orders, inverses, classes, "
                                 "exponent or JSON integers differ from the table's")
        return group


def _close_under_multiplication(gens: list[GroupElement],
                                bound: int) -> tuple[list, list, list]:
    """BFS closure, refused once it passes `bound` elements, so wrong
    generators fail as soon as they overshoot the expected order.  Also
    records how each element was first reached, parents[i] = (parent
    index, generator position) with elements[i] = elements[parent] *
    gens[position], and every right translation, right[i][position] =
    index of elements[i] * gens[position]."""
    elements = [IDENTITY]
    index = {IDENTITY: 0}
    parents = [(0, -1)]
    right = []
    frontier = [0]
    while frontier:
        fresh = []
        for gi in frontier:  # in index order, so right[gi] lines up
            g = elements[gi]
            targets = []
            for pos, h in enumerate(gens):
                prod = g * h
                if prod not in index:
                    index[prod] = len(elements)
                    elements.append(prod)
                    parents.append((gi, pos))
                    fresh.append(index[prod])
                    if len(elements) > bound:
                        raise InvariantError(
                            f"closure exceeded {bound} elements; generators are wrong")
                targets.append(index[prod])
            right.append(targets)
        frontier = fresh
    return elements, parents, right


def _full_table(parents, right) -> tuple[tuple[int, ...], ...]:
    """Multiplication table from the closure's right translations, with
    no further matrix products: writing e_j = e_parent * gen gives
    e_i e_j = (e_i e_parent) gen, so each column is its parent's column
    translated by gen, built in discovery order."""
    columns = [list(range(len(parents)))]
    for parent, pos in parents[1:]:
        columns.append([right[x][pos] for x in columns[parent]])
    return tuple(zip(*columns))


def _powers(table, i: int) -> list[int]:
    """i^s for s < ord(i), under a Latin-square table whose identity is
    element 0: x -> x i permutes the elements, so the walk returns to 0."""
    powers = [0]
    while x := table[powers[-1]][i]:
        powers.append(x)
    return powers


def _element_key(i: int, element: GroupElement, order: int, den: int) -> tuple:
    """Canonical element order: identity first, then (order, serialization),
    each entry as (conductor, terms) with its numerators scaled to den, a
    common denominator of the group's entries, so they order as the terms."""
    return (i != 0, order, tuple((x.conductor, tuple((e, c * (den // x.denominator))
                                                    for e, c in x.numerators))
                                 for x in element.row))


def _canonical_classes(table, inverse_of, orders) -> tuple:
    """Conjugacy classes, each sorted so that its least member is its
    representative, in (representative order, class size, representative
    serialization) order; on canonically ordered elements, comparing the
    representatives' indices compares their serializations."""
    n = len(table)
    seen = [False] * n
    classes = []
    for x in range(n):
        if not seen[x]:
            members = sorted({table[table[h][x]][inverse_of[h]] for h in range(n)})
            for m in members:
                seen[m] = True
            classes.append(tuple(members))
    classes.sort(key=lambda c: (orders[c[0]], len(c), c[0]))
    return tuple(classes)


def build_group(spec: GroupSpec) -> FiniteSubgroup:
    """Enumerate the group in closure order; the constructor sorts it."""
    elements, parents, right = _close_under_multiplication(_generators(spec), spec.order)
    return FiniteSubgroup(spec, tuple(elements), _full_table(parents, right))


def read_value(obj: dict, order: int, seen: dict) -> CycNumber:
    """A stored value of a group of `order` elements or of its table; its
    conductor must divide the order, checked before a term is expanded.
    `seen` holds the values one reader has parsed, keyed by their JSON,
    so each distinct stored value is parsed once; JSON that differs only
    in spelling (true for 1, 1.0 for 1) shares a key, and the reader's
    byte comparison refuses it."""
    key = (obj["N"], *map(tuple, obj["terms"]))
    value = seen.get(key)
    if value is None:
        if order % int(obj["N"]):
            raise ValueError(f"conductor {obj['N']} does not divide the group order {order}")
        value = seen[key] = CycNumber.from_json_obj(obj)
    return value


def defining_character(group: FiniteSubgroup) -> tuple[CycNumber, ...]:
    """Trace of the defining 2-dimensional representation, per class."""
    return tuple(group.elements[r].trace() for r in group.class_reps)
