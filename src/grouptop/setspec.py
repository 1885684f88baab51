"""Exact finite descriptions of subsets of an ambient group.

Five description kinds cover everything the verification harness needs:
explicit finite sets, unions of residue classes, coordinate boxes in a
truncated product, symmetric rational intervals, and tails of integer
sequences (a user prefix travels inside the tail's JSON form).  Residue sets
are the exactness workhorse: they are closed under symmetrization and
sumset, so the square-root chains compute exactly rather than within budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from typing import Callable, Iterable, Optional, Sequence, Union

from .groups import (
    AmbientGroup,
    EnumerationBudgetError,
    GroupElement,
    GroupMismatchError,
    Integers,
    ProductMod,
    Rationals,
    _require_same_group,
    description_kind,
    enumeration_cap,
    group_from_json,
    integer_from_json,
    list_from_json,
    within_enumeration_cap,
)
from .sequences import (
    IntegerSequence,
    get_sequence,
    hash_once,
    sequence_from_json,
    sequence_to_json,
)

_INTEGERS = Integers()
_RATIONALS = Rationals()


class SumsetUnsupported(ValueError):
    """The two descriptions have no exact sumset representation."""


class SubsetUndecidable(ValueError):
    """No exact subset test exists for this pair of descriptions."""


def _set_value(cls):
    """A frozen set description whose hash and JSON description are
    computed once per instance and kept on it.  Every caller of
    ``to_json`` gets the one dict, so a description is never mutated:
    copy it to edit it."""
    describe = cls.to_json

    @wraps(describe)
    def to_json(self) -> dict:
        doc = getattr(self, "_json", None)
        if doc is None:
            doc = describe(self)
            object.__setattr__(self, "_json", doc)
        return doc

    cls.to_json = to_json
    return hash_once(cls)


class SetSpec:
    def ambient(self) -> AmbientGroup:
        raise NotImplementedError

    def contains_value(self, value) -> bool:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@_set_value
@dataclass(frozen=True)
class FiniteSet(SetSpec):
    group: AmbientGroup
    values: frozenset

    @classmethod
    def of(cls, group: AmbientGroup, raws: Iterable) -> "FiniteSet":
        return cls(group, frozenset(group.element(r).value for r in raws))

    def ambient(self) -> AmbientGroup:
        return self.group

    def contains_value(self, value) -> bool:
        return value in self.values

    def elements(self) -> list:
        vals = sorted(self.values, key=self.group.sort_key)
        return [GroupElement(self.group, v) for v in vals]

    def to_json(self) -> dict:
        doc = {
            "kind": "finite",
            "elements": [self.group.value_to_json(el.value)
                         for el in self.elements()],
        }
        if self.group != _INTEGERS:
            doc["group"] = self.group.describe()
        return doc


@_set_value
@dataclass(frozen=True)
class ResidueSet(SetSpec):
    """{x in Z : x mod modulus in residues}; a union of residue classes."""

    modulus: int
    residues: frozenset

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        if any(not 0 <= r < self.modulus for r in self.residues):
            raise ValueError("residues must lie in 0..modulus-1")

    @classmethod
    def of(cls, modulus: int, residues: Iterable[int]) -> "ResidueSet":
        return cls(modulus, frozenset(r % modulus for r in residues))

    def ambient(self) -> AmbientGroup:
        return _INTEGERS

    def contains_value(self, value: int) -> bool:
        return value % self.modulus in self.residues

    def is_all_integers(self) -> bool:
        return len(self.residues) == self.modulus

    def to_json(self) -> dict:
        return {
            "kind": "residue",
            "modulus": self.modulus,
            "residues": sorted(self.residues),
        }


@_set_value
@dataclass(frozen=True)
class BoxSet(SetSpec):
    """Elements of a truncated product whose first coordinates are confined.

    ``allowed[i]`` constrains coordinate i+1; coordinates past the prefix
    are unconstrained.  Every per-coordinate set must contain 0 and be
    closed under negation, which forces the symmetrization of a box to be
    the box itself; general boxes are rejected at construction.
    """

    n_coords: int
    allowed: tuple  # tuple of frozenset[int], one per constrained coordinate

    def __post_init__(self):
        if not 0 <= len(self.allowed) <= self.n_coords:
            raise ValueError("constrained prefix longer than coordinate count")
        for i, opts in enumerate(self.allowed):
            n = i + 1
            if any(not 0 <= v < n for v in opts):
                raise ValueError(f"coordinate {n}: residues outside 0..{n - 1}")
            if 0 not in opts:
                raise ValueError(f"coordinate {n}: 0 required")
            if any((-v) % n not in opts for v in opts):
                raise ValueError(f"coordinate {n}: not negation-closed")

    @classmethod
    def of(cls, n_coords: int, allowed: Iterable[Iterable[int]]) -> "BoxSet":
        return cls(n_coords, tuple(frozenset(a) for a in allowed))

    def ambient(self) -> AmbientGroup:
        return ProductMod(self.n_coords)

    def prefix_len(self) -> int:
        return len(self.allowed)

    def coordinate_options(self, coord: int) -> frozenset:
        """Allowed residues at 1-based coordinate ``coord``."""
        if coord <= len(self.allowed):
            return self.allowed[coord - 1]
        return frozenset(range(coord))

    def contains_value(self, value: tuple) -> bool:
        return all(value[i] in opts for i, opts in enumerate(self.allowed))

    def to_json(self) -> dict:
        return {
            "kind": "box",
            "coords": self.n_coords,
            "allowed": [sorted(opts) for opts in self.allowed],
        }


@_set_value
@dataclass(frozen=True)
class SymmetricInterval(SetSpec):
    """The open rational interval (-epsilon, epsilon)."""

    epsilon: Fraction

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    @classmethod
    def of(cls, epsilon) -> "SymmetricInterval":
        return cls(Fraction(epsilon))

    def ambient(self) -> AmbientGroup:
        return _RATIONALS

    def contains_value(self, value: Fraction) -> bool:
        return abs(value) < self.epsilon

    def to_json(self) -> dict:
        return {"kind": "interval", "epsilon": str(self.epsilon)}


@_set_value
@dataclass(frozen=True)
class TailSet(SetSpec):
    """{x_k : k >= start, k not excluded} over an integer sequence."""

    sequence: IntegerSequence
    start: int
    excluded: frozenset

    def __post_init__(self):
        if self.start < 0:
            raise ValueError("start must be nonnegative")

    @classmethod
    def of(cls, sequence: Union[IntegerSequence, str], start: int = 0,
           excluded: Iterable[int] = ()) -> "TailSet":
        if isinstance(sequence, str):
            sequence = get_sequence(sequence)
        return cls(sequence, start, frozenset(excluded))

    def ambient(self) -> AmbientGroup:
        return _INTEGERS

    def admits(self, k: int) -> bool:
        return k >= self.start and k not in self.excluded and \
            self.sequence.in_range(k)

    def admits_from(self, k: int) -> bool:
        """Some index at or past k is admitted.  Among len(excluded) + 1
        consecutive indices one is not excluded, and indices leave the
        sequence only at its end."""
        k = max(k, self.start)
        return any(self.admits(i)
                   for i in range(k, k + len(self.excluded) + 1))

    def contains_value(self, value: int, known: Optional[list] = None
                       ) -> bool:
        """Whether ``value`` is a tail value; the terms read from
        ``known`` as ``IntegerSequence.terms`` does."""
        for k, v in self.sequence.terms(self.start, abs(value), known):
            if v == value:
                return k not in self.excluded
        return False

    def member_values(self, bound: int, known: Optional[list] = None
                      ) -> list:
        """Tail values with absolute value <= bound, in index order; the
        terms read from ``known`` as ``IntegerSequence.terms`` does."""
        return [v for k, v in self.sequence.terms(self.start, bound, known)
                if k not in self.excluded]

    def to_json(self) -> dict:
        return {
            "kind": "tail",
            **sequence_to_json(self.sequence),
            "start": self.start,
            "excluded": sorted(self.excluded),
        }


@_set_value
@dataclass(frozen=True)
class StarSet:
    """S united with the identity and the inverses of S.

    ``materialized`` records that ``base`` already equals its own
    symmetrization, so membership can delegate directly.
    """

    base: SetSpec
    materialized: bool

    def ambient(self) -> AmbientGroup:
        return self.base.ambient()

    def contains_value(self, value) -> bool:
        if self.materialized:
            return self.base.contains_value(value)
        group = self.base.ambient()
        return (value == group.identity_value()
                or self.base.contains_value(value)
                or self.base.contains_value(group._neg(value)))

    def to_json(self) -> dict:
        return {"kind": "star", "materialized": self.materialized,
                "base": self.base.to_json()}


SetLike = Union[SetSpec, StarSet]


def star(spec: SetLike) -> StarSet:
    """Symmetrize: S u {identity} u -S (inverses in the nonabelian case).

    Materializes the closure wherever the representation allows; tails are
    marked instead, and their membership adds the identity and negated
    sequence values.  Idempotent.
    """
    if isinstance(spec, StarSet):
        return spec
    if isinstance(spec, FiniteSet):
        group = spec.group
        closed = set(spec.values)
        closed.add(group.identity_value())
        closed.update(group._neg(v) for v in spec.values)
        return StarSet(FiniteSet(group, frozenset(closed)), True)
    if isinstance(spec, ResidueSet):
        closed = set(spec.residues) | {0}
        closed.update((-r) % spec.modulus for r in spec.residues)
        return StarSet(ResidueSet(spec.modulus, frozenset(closed)), True)
    if isinstance(spec, BoxSet):
        return StarSet(spec, True)  # construction invariant: box == box*
    if isinstance(spec, SymmetricInterval):
        return StarSet(spec, True)  # symmetric and contains 0 already
    if isinstance(spec, TailSet):
        return StarSet(spec, False)
    raise TypeError(f"not a set description: {spec!r}")


def contains(spec: SetLike, g: GroupElement) -> bool:
    """Exact membership for every description kind.  Only ``setspec``
    calls it: everything else asks its command's ``FoldTable.contains``,
    which reads a tail's terms once per command."""
    ambient = spec.ambient()
    if g.group is not ambient and g.group != ambient:
        raise GroupMismatchError(
            f"element of {g.group.describe()['kind']} probed against "
            f"{ambient.describe()['kind']} set"
        )
    return spec.contains_value(g.value)


def witness_holds(target: GroupElement, summands: Sequence[GroupElement],
                  sets: Sequence[SetLike], table: FoldTable) -> bool:
    """True when there is one summand per set, each summand lies in its
    starred set, and the summands total the target in order.

    Every summand is tested against its star, read from ``table``, before
    any sum is formed, so a summand outside its star gives False first.
    The summands are then added as raw values; one from another group than
    the target's raises GroupMismatchError, as ``op_sum`` does."""
    if len(summands) != len(sets):
        return False
    for s, spec in zip(summands, sets):
        if not table.contains(table.star(spec), s):
            return False
    group = target.group
    total = group.identity_value()
    for s in summands:
        if s.group is not group:
            _require_same_group(target, s)
        total = group._add(total, s.value)
    return total == target.value


def _base_of(spec: SetLike) -> SetSpec:
    return spec.base if isinstance(spec, StarSet) else spec


def _check_pairs(xs: frozenset, ys: frozenset) -> None:
    """Refuse a sumset that would pair more elements than the cap allows."""
    if not within_enumeration_cap(len(xs) * len(ys)):
        raise EnumerationBudgetError(
            f"sumset of {len(xs)} x {len(ys)} elements exceeds the "
            f"enumeration cap {enumeration_cap()}")


def sumset(a: SetLike, b: SetLike) -> SetSpec:
    """Exact sumset (elementwise group law) of two descriptions.

    Starred arguments must be materialized.  Raises SumsetUnsupported for
    pairs with no exact representation; callers fall back to bounded
    membership search.  Finite and residue sets whose product of sizes
    passes the enumeration cap raise EnumerationBudgetError before any sum
    is formed.
    """
    if isinstance(a, StarSet):
        if not a.materialized:
            raise SumsetUnsupported("tail star-sets have no exact sumset")
        a = a.base
    if isinstance(b, StarSet):
        if not b.materialized:
            raise SumsetUnsupported("tail star-sets have no exact sumset")
        b = b.base

    if isinstance(a, FiniteSet) and isinstance(b, FiniteSet):
        if a.group != b.group:
            raise GroupMismatchError("sumset of sets over different groups")
        _check_pairs(a.values, b.values)
        group = a.group
        out = {group._add(x, y) for x in a.values for y in b.values}
        return FiniteSet(group, frozenset(out))

    if isinstance(a, ResidueSet) and isinstance(b, ResidueSet):
        _check_pairs(a.residues, b.residues)
        m = math.gcd(a.modulus, b.modulus)
        residues = {(x + y) % m for x in a.residues for y in b.residues}
        return ResidueSet(m, frozenset(residues))

    # Finite sets of integers shift residue classes.
    if isinstance(a, ResidueSet) and isinstance(b, FiniteSet):
        a, b = b, a
    if isinstance(a, FiniteSet) and isinstance(b, ResidueSet):
        if a.group != _INTEGERS:
            raise SumsetUnsupported("finite+residue needs integer elements")
        _check_pairs(a.values, b.residues)
        m = b.modulus
        residues = {(v + r) % m for v in a.values for r in b.residues}
        return ResidueSet(m, frozenset(residues))

    if isinstance(a, BoxSet) and isinstance(b, BoxSet):
        if a.n_coords != b.n_coords:
            raise GroupMismatchError("boxes over different products")
        prefix = min(a.prefix_len(), b.prefix_len())
        allowed = []
        for i in range(prefix):
            n = i + 1
            opts = {(x + y) % n
                    for x in a.coordinate_options(n)
                    for y in b.coordinate_options(n)}
            allowed.append(frozenset(opts))
        return BoxSet(a.n_coords, tuple(allowed))

    if isinstance(a, SymmetricInterval) and isinstance(b, SymmetricInterval):
        return SymmetricInterval(a.epsilon + b.epsilon)

    raise SumsetUnsupported(
        f"no exact sumset for {type(a).__name__} + {type(b).__name__}"
    )


def n_fold_star(spec: SetLike, n: int) -> SetSpec:
    """n-fold sumset of the symmetrization of ``spec``, from a fresh
    ``FoldTable``."""
    return FoldTable().n_fold_star(spec, n)


def suffix_folds(stars: Sequence[StarSet]) -> Optional[tuple]:
    """Fold stars into suffix sumsets; None when some pair is unsupported.

    Returns folds with folds[i] = S_i* + ... + S_{n-1}*.  Raises
    EnumerationBudgetError when a finite fold would pass the cap.
    """
    folds: list = [None] * len(stars)
    acc = None
    try:
        for i in range(len(stars) - 1, -1, -1):
            st = stars[i]
            if not st.materialized:
                return None
            acc = st.base if acc is None else sumset(st, acc)
            folds[i] = acc
    except SumsetUnsupported:
        return None
    return tuple(folds)


def crt_candidates(base: ResidueSet, fold: ResidueSet, rem: int) -> tuple:
    """Each x in a class of ``base`` with rem - x in a class of ``fold``,
    one per class modulo lcm(m, n) (m, n the two moduli), as its
    representative in (-lcm/2, lcm/2]; in the order of base's residues,
    then fold's, each class first seen.

    The pair of congruences x = r (mod m), x = rem - r2 (mod n) is solved
    by CRT, the gcd, step and inverse computed once, and skipped by one
    test when the two are incompatible.  The answer depends on ``rem``
    only modulo n.
    """
    m, n = base.modulus, fold.modulus
    g = math.gcd(m, n)
    step, lcm = n // g, m * n // g
    inverse = pow(m // g, -1, step) if step > 1 else 0
    fold_residues = sorted(fold.residues)
    seen = set()
    out = []
    for r in sorted(base.residues):
        for r2 in fold_residues:
            if (rem - r2 - r) % g:
                continue
            b = (rem - r2) % n
            x = r + m * ((b - r) // g * inverse % step)
            if x not in seen:
                seen.add(x)
                out.append(x if x <= lcm // 2 else x - lcm)
    return tuple(out)


class FoldTable:
    """Probe-independent facts, computed once per command.

    Each command builds one FoldTable and passes it down, a required
    argument of everything below it; only the wrapper ``n_fold_star``
    makes its own.

    Set values: one instance per value (``intern``), so a value's hash and
    JSON description are computed once and every report entry that names
    it holds the same dict; each chain level set ``level`` is asked for,
    built once; and one proof dict per route and fold (``proof``).  Exact
    sums: each set's star, each star's n-fold sums A_1, A_2, ... as far as
    they were asked for, and each tuple of stars' suffix folds, every fold
    interned.  Residue candidates: for a residue star against a residue
    fold, the CRT representatives per class of the remainder modulo the
    fold's modulus, which depend on no probe.  Tail facts: each (sequence,
    start)'s terms and tail divisors, read from the start as far as they
    were asked for, so a tail's values and its memberships (``contains``)
    compute each term once; each (set, modulus)'s residue envelope, None
    included; each (tuple of stars, modulus)'s envelope sum and envelope
    sizes, None included, for moduli within the enumeration cap; and each
    set's divisor certificate, by the module's one rule, kept per set.
    Keys are frozen set values, so sets rebuilt from JSON hit the entries
    of equal sets built in code.  Only what no probe enters is kept: each
    witness and its check still run per membership, reading the terms and
    stars kept here.  A computation that raises is not stored,
    so it raises again at the same step with the same message.  Tails have
    stars, marked rather than materialized, and no exact fold.  Sequences
    compare by name, length and prefix, so two sequences equal in those
    that compute other values must not share a table.  Descriptions and
    proofs are shared by every report entry that names them, so they are
    never mutated.  A table lives as long as the command that made it;
    nothing here is process-global.
    """

    def __init__(self):
        self._values: dict = {}
        self._levels: dict = {}
        self._proofs: dict = {}
        self._stars: dict = {}
        self._n_folds: dict = {}
        self._suffix_folds: dict = {}
        self._candidates: dict = {}
        self._terms: dict = {}
        self._divisors: dict = {}
        self._envelopes: dict = {}
        self._envelope_sums: dict = {}
        self._certificates: dict = {}

    def intern(self, spec: SetLike) -> SetLike:
        """The table's one instance of the value ``spec``: the first equal
        value it was given."""
        return self._values.setdefault(spec, spec)

    def level(self, make: Callable[[int], SetSpec], k: int) -> SetSpec:
        """``make(k)``, a chain's level-k set, built once per level and
        interned."""
        key = make, k
        found = self._levels.get(key)
        if found is None:
            found = self._levels[key] = self.intern(make(k))
        return found

    def proof(self, route: str, fold: Optional[SetSpec] = None) -> dict:
        """The proof {"route": route}, with the description of ``fold``
        when one is given; one dict per (route, fold), for proofs that
        depend on the chain alone."""
        key = route, fold
        found = self._proofs.get(key)
        if found is None:
            found = {"route": route}
            if fold is not None:
                found["fold"] = fold.to_json()
            self._proofs[key] = found
        return found

    def star(self, spec: SetLike) -> StarSet:
        if isinstance(spec, StarSet):
            return spec
        found = self._stars.get(spec)
        if found is None:
            found = self._stars[spec] = star(spec)
        return found

    def n_fold_star(self, spec: SetLike, n: int) -> SetSpec:
        """n-fold sumset A_n of S*, the symmetrization of ``spec``; for
        finite sets over nonabelian groups the n-fold product set.

        A_1 = S* and A_{k+1} = sumset(A_k, S*), with A_k on the left.  A
        miss grows the deepest stored A_k one step at a time and stores
        each step, so a finite fold raises EnumerationBudgetError at the
        step whose |A_k| x |S*| first passes the cap.  Tails raise
        SumsetUnsupported.
        """
        if n < 1:
            raise ValueError("n must be positive")
        starred = self.star(spec)
        if not starred.materialized:
            raise SumsetUnsupported("tail sets have no exact n-fold sumset")
        folds = self._n_folds.get(starred)
        if folds is None:
            folds = self._n_folds[starred] = [self.intern(starred.base)]
        while len(folds) < n:
            folds.append(self.intern(sumset(folds[-1], starred)))
        return folds[n - 1]

    def suffix_folds(self, stars: Sequence[StarSet]) -> Optional[tuple]:
        for st in stars:
            if not st.materialized:
                return suffix_folds(stars)
        key = tuple(stars)
        found = self._suffix_folds.get(key)
        if found is None:
            found = suffix_folds(stars)
            if found is not None:
                found = self._suffix_folds[key] = tuple(
                    map(self.intern, found))
        return found

    def crt_candidates(self, base: ResidueSet, fold: ResidueSet,
                       rem: int) -> tuple:
        """``crt_candidates(base, fold, rem)``, kept per class of ``rem``
        modulo the fold's modulus, on which alone it depends."""
        key = base, fold, rem % fold.modulus
        found = self._candidates.get(key)
        if found is None:
            found = self._candidates[key] = crt_candidates(base, fold, rem)
        return found

    def member_values(self, tail: TailSet, bound: int) -> list:
        """``tail.member_values(bound)``, each term read once per
        (sequence, start)."""
        return tail.member_values(bound, self._tail_terms(tail))

    def contains(self, spec: SetLike, g: GroupElement) -> bool:
        """``contains(spec, g)``.  A tail, or a tail's star, reads its
        terms from the ones ``member_values`` reads, each computed once
        per (sequence, start)."""
        base = spec.base if isinstance(spec, StarSet) else spec
        if not isinstance(base, TailSet) or g.group != _INTEGERS:
            return contains(spec, g)
        value = g.value
        if base is spec:
            return base.contains_value(value, self._tail_terms(base))
        if value == 0:
            return True
        known = self._tail_terms(base)
        return base.contains_value(value, known) or \
            base.contains_value(-value, known)

    def _tail_terms(self, tail: TailSet) -> list:
        return self._terms.setdefault((tail.sequence, tail.start), [])

    def divisor_index(self, sequence: IntegerSequence, start: int,
                      scan: int, above: int = 0,
                      multiple_of: int = 1) -> Optional[tuple]:
        """``sequence.divisor_index(start, ...)``, each tail divisor read
        once per (sequence, start)."""
        return sequence.divisor_index(
            start, scan, above, multiple_of,
            self._divisors.setdefault((sequence, start), []))

    def residue_envelope(self, spec: SetLike,
                         modulus: int) -> Optional[frozenset]:
        key = (spec, modulus)
        if key not in self._envelopes:
            self._envelopes[key] = residue_envelope(spec, modulus, self)
        return self._envelopes[key]

    def envelope_sum(self, stars: Sequence[StarSet], modulus: int,
                     build: Callable) -> Optional[tuple]:
        """(sum, sizes) of the residue envelopes of ``stars`` modulo
        ``modulus``: the sum ``build(envelopes, modulus)`` and the size of
        each envelope, in chain order.  None when some envelope is None or
        ``build`` gives None.  Kept per (build, stars, modulus) when the
        modulus is within the enumeration cap, so a kept sum of residues
        up to it is small (a bitset of 25 KB at the shipped cap); a wider
        one is built again for each call."""
        key = build, tuple(stars), modulus
        try:
            return self._envelope_sums[key]
        except KeyError:
            pass
        found, envelopes = None, []
        for st in stars:
            env = self.residue_envelope(st, modulus)
            if env is None:
                break
            envelopes.append(env)
        else:
            residues = build(envelopes, modulus)
            if residues is not None:
                found = residues, tuple(len(env) for env in envelopes)
        if within_enumeration_cap(modulus):
            self._envelope_sums[key] = found
        return found

    def divisor_certificate(self, spec: SetLike) -> int:
        """``divisor_certificate(spec)``, kept per set."""
        found = self._certificates.get(spec)
        if found is None:
            found = self._certificates[spec] = divisor_certificate(spec)
        return found


def subset_of(inner: SetLike, outer: SetLike) -> bool:
    """Exact subset test; raises SubsetUndecidable for unsupported pairs."""
    inner_b, outer_b = _base_of(inner), _base_of(outer)
    if isinstance(inner, StarSet) and not inner.materialized:
        if isinstance(outer_b, TailSet):
            raise SubsetUndecidable("starred tail within tail")
        raise SubsetUndecidable("starred tail has no exact subset test")

    if isinstance(inner_b, FiniteSet):
        return all(outer.contains_value(v) for v in inner_b.values)

    if isinstance(inner_b, ResidueSet) and isinstance(outer_b, ResidueSet):
        g = math.gcd(inner_b.modulus, outer_b.modulus)
        for r in inner_b.residues:
            # class(r, M_in) meets exactly the residues = r mod g of M_out
            base = r % g
            for s in range(base, outer_b.modulus, g):
                if s not in outer_b.residues:
                    return False
        return True

    if isinstance(inner_b, BoxSet) and isinstance(outer_b, BoxSet):
        if inner_b.n_coords != outer_b.n_coords:
            raise GroupMismatchError("boxes over different products")
        return all(
            inner_b.coordinate_options(i + 1) <= outer_b.coordinate_options(i + 1)
            for i in range(outer_b.prefix_len())
        )

    if isinstance(inner_b, SymmetricInterval) and isinstance(outer_b, SymmetricInterval):
        return inner_b.epsilon <= outer_b.epsilon

    if isinstance(inner_b, TailSet) and isinstance(outer_b, TailSet):
        if inner_b.sequence != outer_b.sequence:
            raise SubsetUndecidable("tails of different sequences")
        if inner_b.start < outer_b.start:
            return False
        return all(k in inner_b.excluded or k < inner_b.start
                   for k in outer_b.excluded)

    if isinstance(outer_b, FiniteSet) and isinstance(inner_b, ResidueSet):
        return not inner_b.residues  # a residue class is infinite
    if isinstance(outer_b, FiniteSet) and isinstance(inner_b, TailSet):
        # terms grow in absolute value: only a prefix's tail is finite
        prefix = inner_b.sequence.prefix
        return prefix is not None and all(
            outer.contains_value(v) for k, v in enumerate(prefix)
            if inner_b.admits(k))

    raise SubsetUndecidable(
        f"no exact subset test for {type(inner_b).__name__} within "
        f"{type(outer_b).__name__}"
    )


def divisor_certificate(spec: SetLike) -> int:
    """An integer provably dividing every element of an integer-ambient set.

    0 means the set is contained in {0}; 1 is the trivial certificate.
    Symmetrization never changes the answer.  Sums of elements drawn from
    several sets are divisible by the gcd of the sets' certificates, which
    is what turns these into exact exclusion proofs for tail chains.
    """
    base = _base_of(spec)
    if base.ambient() != _INTEGERS:
        return 1
    if isinstance(base, FiniteSet):
        return math.gcd(*base.values) if base.values else 0
    if isinstance(base, ResidueSet):
        if not base.residues:
            return 0
        d = base.modulus
        for r in base.residues:
            d = math.gcd(d, r)
        return d
    if isinstance(base, TailSet):
        return base.sequence.tail_divisor(base.start)
    return 1


def divides(d: int, g: int) -> bool:
    return g == 0 if d == 0 else g % d == 0


_ENVELOPE_SIZE_CAP = 4096
_ENVELOPE_SCAN_CAP = 64


def residue_envelope(spec: SetLike, modulus: int,
                     table: FoldTable) -> Optional[frozenset]:
    """The exact set of residues modulo ``modulus`` attained by elements.

    None when the representation cannot be reduced exactly (a tail that
    neither ends nor has a tail divisor absorbing the modulus within
    ``_ENVELOPE_SCAN_CAP`` indices of its start) or the envelope would be
    unreasonably large.  Sums of sets reduce to sums of their envelopes,
    which yields exact exclusion proofs beyond the plain divisor route:
    tail elements past the index where the tail divisor is a multiple of
    the modulus all collapse onto residue zero.  A tail reads its tail
    divisors through ``table``.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if modulus == 1:  # every element is 0; stars, boxes, intervals have one
        empty = (isinstance(spec, FiniteSet) and not spec.values
                 or isinstance(spec, ResidueSet) and not spec.residues
                 or isinstance(spec, TailSet)
                 and not spec.admits_from(spec.start))
        return frozenset() if empty else frozenset({0})
    if isinstance(spec, StarSet):
        inner = residue_envelope(spec.base, modulus, table)
        if inner is None:
            return None
        return frozenset(inner | {0} | {(-r) % modulus for r in inner})
    if spec.ambient() != _INTEGERS:
        return None
    if isinstance(spec, FiniteSet):
        return frozenset(v % modulus for v in spec.values)
    if isinstance(spec, ResidueSet):
        # each class r mod g lifts to modulus / g residues, so the size is
        # known before any is built
        g = math.gcd(spec.modulus, modulus)
        classes = {r % g for r in spec.residues}
        if len(classes) * (modulus // g) > _ENVELOPE_SIZE_CAP:
            return None
        out = set()
        for r in classes:
            out.update(range(r, modulus, g))
        return frozenset(out)
    if isinstance(spec, TailSet):
        seq = spec.sequence
        found = table.divisor_index(seq, spec.start, _ENVELOPE_SCAN_CAP,
                                    multiple_of=modulus)
        if found is not None:
            cutoff = found[0]
        elif seq.length is not None and \
                spec.start + _ENVELOPE_SCAN_CAP + 1 >= seq.length:
            cutoff = seq.length  # the scan walked a finite sequence out
        else:
            return None
        out = {seq.value(k) % modulus
               for k in range(spec.start, cutoff)
               if k not in spec.excluded}
        if spec.admits_from(cutoff):
            out.add(0)
        return frozenset(out)
    return None


# Every key ``to_json`` writes, per kind.
_SPEC_KEYS = {
    "star": {"kind", "base", "materialized"},
    "finite": {"kind", "elements", "group"},
    "residue": {"kind", "modulus", "residues"},
    "box": {"kind", "coords", "allowed"},
    "interval": {"kind", "epsilon"},
    "tail": {"kind", "sequence", "prefix", "start", "excluded"},
}


def spec_from_json(doc: dict, group: Optional[AmbientGroup] = None) -> SetLike:
    """Inverse of ``to_json``; ``group`` overrides the embedded descriptor.
    Unknown kinds and keys, non-integer integers, and a star's
    ``materialized`` other than the bool ``star`` gives its base raise
    ValueError."""
    kind = description_kind(doc, _SPEC_KEYS, "set")
    if kind == "star":
        starred = star(spec_from_json(doc["base"], group))
        flag = doc.get("materialized", starred.materialized)
        if flag is not starred.materialized:
            raise ValueError(f"star materialized must be "
                             f"{str(starred.materialized).lower()} for its "
                             f"base, got {flag!r}")
        return starred
    if kind == "finite":
        if group is None:
            group = group_from_json(doc["group"]) if "group" in doc else _INTEGERS
        return FiniteSet.of(group, list_from_json(doc["elements"], "elements"))
    if kind == "residue":
        return ResidueSet.of(integer_from_json(doc["modulus"]),
                             [integer_from_json(r) for r in
                              list_from_json(doc["residues"], "residues")])
    if kind == "box":
        return BoxSet.of(integer_from_json(doc["coords"]),
                         [[integer_from_json(v)
                           for v in list_from_json(opts, "allowed")]
                          for opts in list_from_json(doc["allowed"],
                                                     "allowed")])
    if kind == "interval":
        return SymmetricInterval.of(_RATIONALS.element(doc["epsilon"]).value)
    return TailSet.of(sequence_from_json(doc),
                      integer_from_json(doc["start"]),
                      [integer_from_json(k) for k in
                       list_from_json(doc.get("excluded", []), "excluded")])
