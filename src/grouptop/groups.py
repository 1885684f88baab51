"""Ambient groups and exact element arithmetic.

Five ambient groups are supported: the integers, truncated products of
cyclic groups, the rationals, free groups on named generators, and finite
groups given by a multiplication table.  Elements are immutable values
paired with their ambient group; all operations are pure and exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Union


class GroupMismatchError(ValueError):
    """Raised when an operation mixes elements of different ambient groups."""


class NotAGroupError(ValueError):
    """Raised when a multiplication table fails the group laws."""


class EnumerationBudgetError(RuntimeError):
    """An explicit enumeration outgrew its element budget."""


ElementValue = Union[int, Fraction, tuple]


@dataclass(frozen=True)
class GroupElement:
    group: "AmbientGroup"
    value: ElementValue

    def __str__(self) -> str:
        return self.group.format_value(self.value)

    def is_identity(self) -> bool:
        return self.value == self.group.identity_value()


class AmbientGroup:
    """Base class; subclasses implement the group law on raw values."""

    is_abelian: bool = True

    def identity_value(self) -> ElementValue:
        raise NotImplementedError

    def identity(self) -> GroupElement:
        return GroupElement(self, self.identity_value())

    def element(self, raw: Any) -> GroupElement:
        """Normalize and validate a raw value into an element."""
        return GroupElement(self, self._normalize(raw))

    def _normalize(self, raw: Any) -> ElementValue:
        raise NotImplementedError

    def _add(self, a: ElementValue, b: ElementValue) -> ElementValue:
        raise NotImplementedError

    def _neg(self, a: ElementValue) -> ElementValue:
        raise NotImplementedError

    def format_value(self, value: ElementValue) -> str:
        return str(value)

    def value_to_json(self, value: ElementValue) -> Any:
        return value

    def sort_key(self, value: ElementValue):
        return value

    def describe(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Integers(AmbientGroup):
    def identity_value(self) -> int:
        return 0

    def _normalize(self, raw: Any) -> int:
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ValueError(f"integer expected, got {raw!r}")
        return raw

    def _add(self, a: int, b: int) -> int:
        return a + b

    def _neg(self, a: int) -> int:
        return -a

    def describe(self) -> dict:
        return {"kind": "integers"}


_INTEGERS = Integers()


def integer_from_json(raw) -> int:
    """The integers' own check: bools, floats and strings are refused."""
    return _INTEGERS._normalize(raw)


# The one bound on every explicit enumeration: sums, folds, tables,
# witnesses, samples and parsed words are refused past it before their
# memory is spent.  Every module reads it here at call time, so this is
# its only binding.
_ENUMERATION_CAP = 200_000


def enumeration_cap() -> int:
    return _ENUMERATION_CAP


def within_enumeration_cap(count: int) -> bool:
    return count <= _ENUMERATION_CAP


def check_enumeration_cap(what: str, count: int) -> None:
    """Refuse work that would enumerate ``count`` things, ``what`` says
    which, when that passes the cap."""
    if not within_enumeration_cap(count):
        raise EnumerationBudgetError(
            f"{what}, past the enumeration cap {_ENUMERATION_CAP}")


def list_from_json(raw, key: str) -> list:
    if not isinstance(raw, list):
        raise ValueError(f"list expected for {key!r}, got {raw!r}")
    return raw


def reject_unknown_keys(doc, allowed: set, where: str) -> None:
    """The one key check of every description: groups, sets, families and
    run configs refuse a key they do not read."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {doc!r}")
    if not allowed.issuperset(doc):
        key = min(k for k in doc if k not in allowed)
        raise ValueError(f"unknown key {key!r} in {where}")


def description_kind(doc, keys_by_kind: dict, what: str) -> str:
    """A description's kind; ValueError unless that kind uses every key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {doc!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in keys_by_kind:
        raise ValueError(f"unknown {what} kind {kind!r}")
    reject_unknown_keys(doc, keys_by_kind[kind], f"{kind} {what}")
    return kind


@dataclass(frozen=True)
class Rationals(AmbientGroup):
    def identity_value(self) -> Fraction:
        return Fraction(0)

    def _normalize(self, raw: Any) -> Fraction:
        if isinstance(raw, bool) or not isinstance(raw, (int, Fraction, str)):
            raise ValueError(f"rational expected (int, Fraction or 'p/q'; "
                             f"floats are not exact), got {raw!r}")
        try:
            return Fraction(raw)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {raw!r}") from None

    def _add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def _neg(self, a: Fraction) -> Fraction:
        return -a

    def value_to_json(self, value: Fraction) -> str:
        return f"{value.numerator}/{value.denominator}"

    def describe(self) -> dict:
        return {"kind": "rationals"}


@dataclass(frozen=True)
class ProductMod(AmbientGroup):
    """Product of Z/nZ for n = 1..n_coords; coordinate n holds residues mod n.

    Coordinate 1 is Z/1Z and therefore always zero; it is kept so that
    coordinate numbering matches the modulus.  A coordinate outside
    0..n-1 is refused, not reduced.
    """

    n_coords: int

    def __post_init__(self):
        if self.n_coords < 1:
            raise ValueError("n_coords must be positive")

    def identity_value(self) -> tuple:
        return (0,) * self.n_coords

    def _normalize(self, raw: Any) -> tuple:
        if not isinstance(raw, (list, tuple)):
            raise ValueError(f"coordinate list expected, got {raw!r}")
        vec = tuple(integer_from_json(v) for v in raw)
        if len(vec) != self.n_coords:
            raise ValueError(f"expected {self.n_coords} coordinates, got {len(vec)}")
        for i, v in enumerate(vec):
            if not 0 <= v <= i:
                raise ValueError(f"coordinate {i + 1} lies in 0..{i}, got {v}")
        return vec

    def _add(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % (i + 1) for i, (x, y) in enumerate(zip(a, b)))

    def _neg(self, a: tuple) -> tuple:
        return tuple((-x) % (i + 1) for i, x in enumerate(a))

    def value_to_json(self, value: tuple) -> list:
        return list(value)

    def describe(self) -> dict:
        return {"kind": "product", "coords": self.n_coords}


def reduce_word(letters: Iterable[int]) -> tuple:
    """Free reduction: cancel adjacent letter/inverse pairs."""
    out: list[int] = []
    for letter in letters:
        if letter == 0:
            raise ValueError("0 is not a letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


@dataclass(frozen=True)
class FreeGroup(AmbientGroup):
    """Free group on named generators; values are reduced letter tuples.

    A letter is a nonzero signed integer: +i is the i-th generator
    (1-based), -i its inverse.  Generator names are distinct nonempty
    strings without whitespace, "*" or "^", and none is "e", the name of
    the identity, so every word's printed form parses back to the word.
    """

    generators: tuple = ("x", "y")
    is_abelian = False

    def __post_init__(self):
        for name in self.generators:
            if not isinstance(name, str) or not name or name == "e" or \
                    any(c.isspace() or c in "*^" for c in name):
                raise ValueError(f"generator name {name!r} cannot be "
                                 f"parsed back")
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("generator names must be distinct")

    def identity_value(self) -> tuple:
        return ()

    def _normalize(self, raw: Any) -> tuple:
        if isinstance(raw, str):
            letters = self._parse(raw)
        elif isinstance(raw, (list, tuple)):
            letters = tuple(integer_from_json(v) for v in raw)
        else:
            raise ValueError(f"word or letter list expected, got {raw!r}")
        for letter in letters:
            if letter == 0 or abs(letter) > len(self.generators):
                raise ValueError(f"letter {letter} outside generator range")
        return reduce_word(letters)

    def _parse(self, text: str) -> tuple:
        # "x y^-1 x" or "x*y^-1"; also single-token powers like "x^3".
        # The powers are counted against the cap before any letter is built.
        powers = []
        for token in text.replace("*", " ").split():
            if "^" in token:
                name, exp = token.split("^")
                power = int(exp)
            else:
                name, power = token, 1
            if name == "e":
                continue  # the identity, as format_value prints it
            if name not in self.generators:
                raise ValueError(f"unknown generator {name!r}")
            powers.append((self.generators.index(name) + 1, power))
        count = sum(abs(power) for _, power in powers)
        check_enumeration_cap(f"a word of {count} letters", count)
        return tuple(idx if power > 0 else -idx
                     for idx, power in powers for _ in range(abs(power)))

    def _add(self, a: tuple, b: tuple) -> tuple:
        return reduce_word(a + b)

    def _neg(self, a: tuple) -> tuple:
        return tuple(-letter for letter in reversed(a))

    def format_value(self, value: tuple) -> str:
        if not value:
            return "e"
        parts = []
        for letter in value:
            name = self.generators[abs(letter) - 1]
            parts.append(name if letter > 0 else f"{name}^-1")
        return " ".join(parts)

    def value_to_json(self, value: tuple) -> list:
        return list(value)

    def describe(self) -> dict:
        return {"kind": "free", "generators": list(self.generators)}


@dataclass(frozen=True)
class CayleyGroup(AmbientGroup):
    """Finite group given by a multiplication table over indices 0..order-1."""

    table: tuple
    names: tuple
    identity_index: int
    inverse: tuple
    is_abelian = False  # recomputed below; kept conservative

    @property
    def order(self) -> int:
        return len(self.table)

    def identity_value(self) -> int:
        return self.identity_index

    def _normalize(self, raw: Any) -> int:
        if isinstance(raw, str):
            if raw not in self.names:
                raise ValueError(f"unknown element name {raw!r}")
            return self.names.index(raw)
        idx = integer_from_json(raw)
        if not 0 <= idx < self.order:
            raise ValueError(f"index {idx} outside 0..{self.order - 1}")
        return idx

    def _add(self, a: int, b: int) -> int:
        return self.table[a][b]

    def _neg(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> list:
        return [GroupElement(self, i) for i in range(self.order)]

    def format_value(self, value: int) -> str:
        return self.names[value]

    def describe(self) -> dict:
        return {
            "kind": "cayley",
            "order": self.order,
            "table": [list(row) for row in self.table],
            "names": list(self.names),
        }


def load_cayley(doc: Union[dict, str]) -> CayleyGroup:
    """Validate a multiplication-table document and build a CayleyGroup.

    The document is ``{"order": n, "table": [[...]], "names": [...]}``;
    the identity is inferred and inverses are derived.  Tables that violate
    closure, identity, inverse, or associativity are rejected.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    order = integer_from_json(doc["order"])
    table = list_from_json(doc["table"], "table")
    if order < 1:
        raise NotAGroupError("order must be positive")
    if len(table) != order or any(len(list_from_json(row, "table")) != order
                                  for row in table):
        raise NotAGroupError(f"table must be {order}x{order}")
    table = tuple(tuple(integer_from_json(v) for v in row) for row in table)
    for row in table:
        for v in row:
            if not 0 <= v < order:
                raise NotAGroupError(f"entry {v} outside 0..{order - 1}")

    identity = None
    for e in range(order):
        if all(table[e][x] == x and table[x][e] == x for x in range(order)):
            identity = e
            break
    if identity is None:
        raise NotAGroupError("no two-sided identity element")

    inverse = []
    for x in range(order):
        inv = next(
            (y for y in range(order)
             if table[x][y] == identity and table[y][x] == identity),
            None,
        )
        if inv is None:
            raise NotAGroupError(f"no inverse for index {x}")
        inverse.append(inv)

    for a in range(order):
        for b in range(order):
            ab = table[a][b]
            for c in range(order):
                if table[ab][c] != table[a][table[b][c]]:
                    raise NotAGroupError(
                        f"not associative at ({a},{b},{c})"
                    )

    names = doc.get("names")
    names = tuple(f"g{i}" for i in range(order)) if names is None \
        else tuple(list_from_json(names, "names"))
    if len(names) != order:
        raise NotAGroupError("names length must equal order")
    if not all(isinstance(n, str) for n in names) or \
            len(set(names)) != order:
        raise NotAGroupError("names must be distinct strings")
    group = CayleyGroup(table=table, names=names,
                        identity_index=identity, inverse=tuple(inverse))
    abelian = all(table[a][b] == table[b][a]
                  for a in range(order) for b in range(order))
    object.__setattr__(group, "is_abelian", abelian)
    return group


# Every key ``describe`` writes, per kind.
_GROUP_KEYS = {
    "integers": {"kind"},
    "rationals": {"kind"},
    "product": {"kind", "coords"},
    "free": {"kind", "generators"},
    "cayley": {"kind", "order", "table", "names"},
}


def group_from_json(doc: dict) -> AmbientGroup:
    """Inverse of ``describe``; a descriptor that is not a JSON object, an
    unknown kind or key and values of the wrong JSON type raise
    ValueError."""
    kind = description_kind(doc, _GROUP_KEYS, "group")
    if kind == "integers":
        return Integers()
    if kind == "rationals":
        return Rationals()
    if kind == "product":
        return ProductMod(integer_from_json(doc["coords"]))
    if kind == "free":
        return FreeGroup(tuple(list_from_json(doc["generators"],
                                              "generators")))
    return load_cayley(doc)


def _require_same_group(a: GroupElement, b: GroupElement) -> None:
    if a.group is not b.group and a.group != b.group:
        raise GroupMismatchError(
            f"elements of {a.group.describe()['kind']} and "
            f"{b.group.describe()['kind']} cannot be combined"
        )


def op_add(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group law: addition for abelian variants, product (with free
    reduction) for word and table variants."""
    _require_same_group(a, b)
    return GroupElement(a.group, a.group._add(a.value, b.value))


def op_neg(a: GroupElement) -> GroupElement:
    """Group inverse; words are inverted letterwise and reversed."""
    return GroupElement(a.group, a.group._neg(a.value))


def op_sub(a: GroupElement, b: GroupElement) -> GroupElement:
    return op_add(a, op_neg(b))


def op_sum(group: AmbientGroup, elements: Iterable[GroupElement]) -> GroupElement:
    """The elements added in order from the identity, as ``op_add`` adds
    two; only the total is built as an element."""
    identity = group.identity()
    total = identity.value
    for el in elements:
        _require_same_group(identity, el)
        total = group._add(total, el.value)
    return GroupElement(group, total)


def op_conjugate(g: GroupElement, s: GroupElement) -> GroupElement:
    """g s g^-1; the identity map on abelian groups."""
    _require_same_group(g, s)
    if g.group.is_abelian:
        return s
    return op_add(op_add(g, s), op_neg(g))
