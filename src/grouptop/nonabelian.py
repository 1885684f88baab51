"""Dyadic-indexed neighborhood products for nonabelian groups.

Products indexed along the natural numbers cannot absorb a product of two
of their own kind, so the index set here is the dyadic rationals in the
open unit interval: a dense order that contains two stacked copies of
itself.  Assignments give every index the set attached to its lowest-terms
level; towers T_0 >= T_1 >= ... with T_i T_i T_i inside T_{i-1} generate
such assignments and admit the middle-thirds collapse certificate.

Witnesses come from one breadth-first table (``enumerate_u_witnesses``)
and are checked by one rule (``_validated``: the moved indices increase
inside the levels, and ``setspec.witness_holds`` against the stars),
shared by membership, product absorption, inverse closure and translation.
Product absorption builds one table per distinct shift of its two
rescalings; the rescalings of one shift share each item's star-and-product
check, and each maps each distinct index once.  Witness pairs are decided
per side (``_pair_failures``) and walked only to list failures.  Dyadic
indices and rescaled images compare as integers over a common power of
two, and a rescaled image is built in lowest terms directly.

The module also carries the conjugation closure of a family, and the
Fibonacci endomorphism x -> y, y -> xy of the free group on two
generators with the producers and replayers of its two claims.  The
n-fold exclusion check over nonabelian finite sets is
``filters.cupcap_check``, shared with the abelian families.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Sequence

from .filters import ExplicitFamily
from .groups import (
    CayleyGroup,
    FreeGroup,
    GroupElement,
    check_enumeration_cap,
    op_add,
    op_conjugate,
    op_neg,
    within_enumeration_cap,
)
from .prefixsum import MembershipResult
from .report import Status, VerificationReport, id_numbers
from .setspec import (
    FiniteSet,
    FoldTable,
    SetSpec,
    star,
    subset_of,
    sumset,
    witness_holds,
)


@dataclass(frozen=True, order=False)
class DyadicIndex:
    """m / 2^level in lowest terms, inside the open unit interval."""

    num: int
    level: int

    def __post_init__(self):
        if self.level < 1 or not 0 < self.num < 2 ** self.level:
            raise ValueError("index must be m/2^i with 0 < m < 2^i")
        if self.num % 2 == 0:
            raise ValueError("numerator must be odd (lowest terms)")

    @classmethod
    def of(cls, num: int, power: int) -> "DyadicIndex":
        while num % 2 == 0 and power > 0:
            num //= 2
            power -= 1
        return cls(num, power)

    def fraction(self) -> Fraction:
        return Fraction(self.num, 2 ** self.level)

    def reflected(self) -> "DyadicIndex":
        # q -> 1 - q keeps the lowest-terms level.
        return DyadicIndex(2 ** self.level - self.num, self.level)

    def __lt__(self, other: "DyadicIndex") -> bool:
        # m/2^i < m'/2^j compared as integers over the common denominator
        return self.num << other.level < other.num << self.level

    def __str__(self) -> str:
        return f"{self.num}/{2 ** self.level}"


def dyadic_indices(max_level: int) -> list:
    """All indices with level <= max_level, in increasing order."""
    return [DyadicIndex.of(m, max_level) for m in range(1, 2 ** max_level)]


@dataclass(frozen=True)
class DyadicAssignment:
    """Level i -> set, so the index m/2^i (lowest terms) receives the
    level-i set.  Materialized up to max_level."""

    levels: tuple  # tuple[SetSpec, ...]; levels[i-1] is the level-i set

    def __post_init__(self):
        if not self.levels:
            raise ValueError("at least one level required")

    @classmethod
    def of(cls, level_sets: Dict[int, SetSpec]) -> "DyadicAssignment":
        top = max(level_sets)
        if sorted(level_sets) != list(range(1, top + 1)):
            raise ValueError("levels must be contiguous from 1")
        return cls(tuple(level_sets[i] for i in range(1, top + 1)))

    @property
    def max_level(self) -> int:
        return len(self.levels)

    def set_at(self, q: DyadicIndex) -> SetSpec:
        if q.level > self.max_level:
            raise ValueError(f"index {q} beyond materialized level")
        return self.levels[q.level - 1]

    @cached_property
    def stars(self) -> tuple:
        """Each level's ``StarSet``, symmetrized once for the life of the
        assignment; stars[i-1] belongs to level i."""
        return tuple(star(s) for s in self.levels)

    @cached_property
    def starred(self) -> tuple:
        """Each level's starred elements; starred[i-1] belongs to level i."""
        return tuple(tuple(s.base.elements()) for s in self.stars)

    def indices(self) -> list:
        return dyadic_indices(self.max_level)

    def shifted(self, shift: int) -> "DyadicAssignment":
        """Assignment seen through a rescaling that adds ``shift`` levels;
        it shares this assignment's stars and starred elements."""
        if shift >= self.max_level:
            raise ValueError("shift swallows every materialized level")
        view = DyadicAssignment(self.levels[shift:])
        object.__setattr__(view, "stars", self.stars[shift:])
        object.__setattr__(view, "starred", self.starred[shift:])
        return view

    def to_json(self) -> dict:
        return {"levels": {str(i + 1): s.to_json()
                           for i, s in enumerate(self.levels)}}


def assignment_from_json(doc: dict, group=None) -> DyadicAssignment:
    """Ingest ``{"levels": {"1": setspec, "2": setspec, ...}}``."""
    from .setspec import spec_from_json
    levels = {int(k): spec_from_json(v, group=group)
              for k, v in doc["levels"].items()}
    return DyadicAssignment.of(levels)


def _reachable(assignment: DyadicAssignment) -> dict:
    """Minimum factor count for every element of some increasing-index
    product, over all indices of the materialized levels.  Identity
    factors are skipped: they never lower a count."""
    group = assignment.levels[0].ambient()
    identity = group.identity_value()
    steps = [[el.value for el in level if el.value != identity]
             for level in assignment.starred]
    reach = {identity: 0}
    for q in assignment.indices():
        for value, count in list(reach.items()):
            for step in steps[q.level - 1]:
                nxt = group._add(value, step)
                if count + 1 < reach.get(nxt, math.inf):
                    reach[nxt] = count + 1
    return reach


def uq_membership(g: GroupElement, assignment: DyadicAssignment,
                  depth: int) -> MembershipResult:
    """Does g lie in a product of starred sets along some increasing dyadic
    index sequence of length <= depth?

    Exhaustive within the materialized levels and the depth cap: a "yes"
    carries the shortest witness in the ``enumerate_u_witnesses`` table,
    re-checked by ``_witness_is_valid``.  The empty product contributes the
    identity.  A miss upgrades from unknown to an exact "no" only over
    finite table groups whose reachable products stabilize before the cap;
    free-group misses stay unknown.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if g.is_identity():
        return MembershipResult("yes", witness=())
    hits = [w for (value, _), w in
            enumerate_u_witnesses(assignment, depth).items()
            if value == g.value]
    if hits:
        witness = min(hits, key=len)
        if not _witness_is_valid(g.group, assignment, witness, g.value):
            raise AssertionError(f"witness for {g} does not re-verify")
        return MembershipResult("yes", witness=witness)
    proof = {"depth": depth, "max_level": assignment.max_level}
    if isinstance(g.group, CayleyGroup):
        # The reachability table is complete for table groups: an element
        # it never reaches, once it stabilizes inside the cap, is a "no".
        reach = _reachable(assignment)
        stabilized_at = max(reach.values())
        if g.value not in reach and stabilized_at < depth:
            proof["stabilized_at"] = stabilized_at
            return MembershipResult("no", proof=proof)
        if g.value not in reach:
            proof["note"] = "unreached but closure not inside depth cap"
    return MembershipResult("unknown", proof=proof)


def enumerate_u_witnesses(assignment: DyadicAssignment,
                          depth: int) -> dict:
    """Witnesses with <= depth factors over the assignment's indices.

    Keyed by (element value, position of the top index used); the empty
    product appears as (identity, -1).  States are deduplicated, so the
    table stays bounded by group size times index count.
    """
    indices = assignment.indices()
    group = assignment.levels[0].ambient()
    return _products_over(group, assignment, indices, depth)


def _products_over(group, assignment: DyadicAssignment,
                   indices: Sequence[DyadicIndex], depth: int) -> dict:
    factors = [assignment.starred[q.level - 1] for q in indices]
    out: dict = {(group.identity_value(), -1): ()}
    frontier = [(group.identity_value(), (), -1)]
    for _ in range(depth):
        nxt = []
        for value, witness, pos in frontier:
            for j in range(pos + 1, len(indices)):
                q = indices[j]
                for el in factors[j]:
                    v2 = group._add(value, el.value)
                    if (v2, j) in out:
                        continue
                    w2 = witness + ((q, el),)
                    out[(v2, j)] = w2
                    nxt.append((v2, w2, j))
        frontier = nxt
    return out


def _sorted_witness_items(group, table: dict) -> list:
    return sorted(table.items(),
                  key=lambda kv: (group.sort_key(kv[0][0]), kv[0][1]))


@dataclass(frozen=True)
class Rescale:
    """Order embedding q -> (q + offset) / 2^shift of the unit interval
    into one of its dyadic subintervals."""

    offset: int
    shift: int

    def __post_init__(self):
        if self.shift < 1 or not 0 <= self.offset < 2 ** self.shift:
            raise ValueError("need 0 <= offset < 2^shift, shift >= 1")

    def apply(self, q: DyadicIndex) -> DyadicIndex:
        # q.num is odd and the offset's part even, so the image is already
        # in lowest terms.
        return DyadicIndex(q.num + (self.offset << q.level),
                           q.level + self.shift)

    def entirely_below(self, other: "Rescale") -> bool:
        # the image [offset, offset + 1) / 2^shift ends where other's starts
        return (self.offset + 1) << other.shift <= other.offset << self.shift


def check_UU(assignment: DyadicAssignment, sigma: Rescale, tau: Rescale,
             depth: int) -> VerificationReport:
    """Product of the two rescaled neighborhood sets lands in the combined
    one: every pair of bounded witnesses concatenates into a witness.

    Requires sigma's image to lie entirely below tau's.  One witness
    table per distinct shift is validated once for the rescalings of that
    shift (``_validated``); a pair's concatenation is then a witness
    exactly when the last left index lies below the first right index.
    Each product is also confirmed by the independent reachability table
    at the combined depth, and the pairs are decided per side.
    """
    if not sigma.entirely_below(tau):
        raise ValueError("sigma's image must lie entirely below tau's")
    shift_cap = assignment.max_level - max(sigma.shift, tau.shift)
    if shift_cap < 1:
        raise ValueError("assignment too shallow for these rescalings")

    group = assignment.levels[0].ambient()
    sides = {}
    for shift in {sigma.shift, tau.shift}:
        rescales = [r for r in (sigma, tau) if r.shift == shift]
        table = enumerate_u_witnesses(assignment.shifted(shift), depth)
        sides.update(zip(rescales,
                         _validated(group, assignment, table, rescales)))
    lefts, rights = sides[sigma], sides[tau]
    # Independent route: the full reachability table of the combined set.
    reach = _reachable(assignment)
    identity = group.identity_value()

    pairs, bad = _pair_failures(
        group, lefts, rights, lambda product: product == identity
        or reach.get(product, math.inf) <= 2 * depth)
    failures = [{"left": group.value_to_json(lefts[i][0]),
                 "right": group.value_to_json(rights[j][0])}
                for i, j in bad]
    status = Status.VERIFIED if not failures else Status.REFUTED
    return VerificationReport(
        claim=f"uu-product:shift={sigma.offset}/{2**sigma.shift},"
              f"{tau.offset}/{2**tau.shift}:depth={depth}",
        status=status,
        payload={
            "pairs_checked": pairs,
            "failures": failures,
            "sigma": {"offset": sigma.offset, "shift": sigma.shift},
            "tau": {"offset": tau.offset, "shift": tau.shift},
        },
        budgets={"depth": depth},
    )


def _validated(group, assignment: DyadicAssignment, table: dict,
               rescales: Sequence = (None,)) -> list:
    """One side per rescaling (None moves nothing) of (value, moved
    witness, valid) per table item in sorted order: valid when the moved
    indices pass ``_indices_valid`` and ``setspec.witness_holds`` takes
    the factors.  The rescalings share one shift, so the latter runs once
    per item; each side moves each distinct index once."""
    if rescales[0] is None:
        stars, images = assignment.stars, [None]
    else:
        stars = assignment.stars[rescales[0].shift:]
        distinct = {q for witness in table.values() for q, _ in witness}
        images = [{q: r.apply(q) for q in distinct} for r in rescales]
    top, sides = assignment.max_level, [[] for _ in rescales]
    for (value, _), witness in _sorted_witness_items(group, table):
        moved = [witness if image is None else
                 tuple([(image[q], el) for q, el in witness])
                 for image in images]
        ok = [_indices_valid(top, w) for w in moved]
        holds = any(ok) and witness_holds(
            GroupElement(group, value), [el for _, el in witness],
            [stars[q.level - 1] for q, _ in witness])
        for side, w, w_ok in zip(sides, moved, ok):
            side.append((value, w, w_ok and holds))
    return sides


def _witness_is_valid(group, assignment: DyadicAssignment,
                      witness: tuple, expected) -> bool:
    """``_validated``'s rule for one witness of the expected value."""
    return _validated(group, assignment, {(expected, -1): witness})[0][0][2]


def _indices_valid(top: int, witness: tuple) -> bool:
    """The indices strictly increase, none past level ``top``."""
    previous = None
    for q, _ in witness:
        if q.level > top or (previous is not None and not previous < q):
            return False
        previous = q
    return True


def _pair_failures(group, lefts: list, rights: list, confirm=None) -> tuple:
    """The number of (left, right) pairs of validated witnesses, and the
    positions (i, j), in pair order, of the pairs whose concatenation
    fails: either witness is invalid, the last left index is not below the
    first right index, or ``confirm`` rejects the product of the values.

    No pair fails exactly when every witness on each side is valid, the
    largest last index among non-empty left witnesses lies below the
    smallest first index among non-empty right witnesses, and ``confirm``
    accepts every product of a distinct left and a distinct right value.
    The pairs are walked only to list failures.
    """
    pairs = len(lefts) * len(rights)
    lasts = [w[-1][0] for _, w, _ in lefts if w]
    firsts = [w[0][0] for _, w, _ in rights if w]
    if all(ok for _, _, ok in lefts + rights) \
            and (not lasts or not firsts or max(lasts) < min(firsts)) \
            and (confirm is None or all(
                confirm(group._add(lv, rv)) for lv, rv in itertools.product(
                    {v for v, _, _ in lefts}, {v for v, _, _ in rights}))):
        return pairs, []
    return pairs, [
        (i, j) for i, (lv, lw, l_ok) in enumerate(lefts)
        for j, (rv, rw, r_ok) in enumerate(rights)
        if not (l_ok and r_ok and (not lw or not rw or lw[-1][0] < rw[0][0])
                and (confirm is None or confirm(group._add(lv, rv))))]


def check_inverse_closure(assignment: DyadicAssignment,
                          depth: int) -> VerificationReport:
    """Reversing an increasing witness and inverting its factors witnesses
    the inverse element; level-keyed assignments are reflection-invariant,
    so the reversed witness lives in the same assignment."""
    witnesses = enumerate_u_witnesses(assignment, depth)
    group = assignment.levels[0].ambient()
    failures = []
    for (value, _), witness in _sorted_witness_items(group, witnesses):
        inv_value = group._neg(value)
        reversed_witness = tuple(
            (q.reflected(), op_neg(el)) for q, el in reversed(witness)
        )
        if not _witness_is_valid(group, assignment, reversed_witness,
                                 inv_value):
            failures.append(group.value_to_json(value))
    status = Status.VERIFIED if not failures else Status.REFUTED
    return VerificationReport(
        claim=f"u-inverse-closure:depth={depth}",
        status=status,
        payload={"elements_checked": len(witnesses), "failures": failures},
        budgets={"depth": depth},
    )


def check_translation(assignment: DyadicAssignment,
                      depth: int) -> VerificationReport:
    """For x in the neighborhood set with top index q, products with the
    set restricted above q stay inside: witnesses concatenate.

    Each witness, of x or of a restricted product, is validated once; a
    pair then needs only the join below its first restricted index.  The
    pairs of the x sharing one top index are decided together
    (``_pair_failures``).
    """
    witnesses = enumerate_u_witnesses(assignment, depth)
    group = assignment.levels[0].ambient()
    indices = assignment.indices()
    xs = [x for x in _validated(group, assignment, witnesses)[0] if x[1]]
    by_top: dict = {}  # top index -> positions in xs of the x it tops
    for n, (_, witness, _) in enumerate(xs):
        by_top.setdefault(witness[-1][0], []).append(n)
    checked = 0
    found = []
    for top, positions in by_top.items():
        above = [q for q in indices if top < q]
        tail, = _validated(group, assignment, _products_over(
            group, assignment, above, depth))
        pairs, bad = _pair_failures(group, [xs[n] for n in positions], tail)
        checked += pairs
        found += [(positions[i], j, tail[j][0]) for i, j in bad]
    failures = [{"x": group.value_to_json(xs[n][0]),
                 "u": group.value_to_json(uval)}
                for n, _, uval in sorted(found)]
    status = Status.VERIFIED if not failures else Status.REFUTED
    return VerificationReport(
        claim=f"u-translation:depth={depth}",
        status=status,
        payload={"products_checked": checked, "failures": failures},
        budgets={"depth": depth},
    )


@dataclass(frozen=True)
class TowerChain:
    """T_0 >= T_1 >= ... >= T_K with each triple product T_i T_i T_i
    contained in T_{i-1}, checked exactly at construction."""

    sets: tuple  # tuple[SetSpec, ...]

    def __post_init__(self):
        for i in range(1, len(self.sets)):
            t_i, t_prev = self.sets[i], self.sets[i - 1]
            if not subset_of(t_i, t_prev):
                raise ValueError(f"tower level {i} not inside level {i - 1}")
            triple = sumset(sumset(t_i, t_i), t_i)
            if not subset_of(triple, t_prev):
                raise ValueError(
                    f"triple product at level {i} escapes level {i - 1}"
                )

    @property
    def top_level(self) -> int:
        return len(self.sets) - 1

    def assignment(self) -> DyadicAssignment:
        if self.top_level < 1:
            raise ValueError("tower needs at least levels 0 and 1")
        return DyadicAssignment(self.sets[1:])


@dataclass(frozen=True)
class ReductionStage:
    level: int
    indices: tuple  # tuple[str, ...] current index set
    merges: tuple  # tuple[(left, mid, right), ...] as strings
    inclusion_exact: bool


@dataclass(frozen=True)
class ReductionCertificate:
    """Step-by-step collapse of the full level-j index set to the single
    index 1/2 carrying the base set of the tower."""

    j: int
    stages: tuple
    final_set: SetSpec


def s_in_u_reduce(tower: TowerChain, j: int) -> ReductionCertificate:
    """Collapse the product over all indices of denominator 2^j.

    Entries at the deepest level are first promoted one tower step; each
    remaining middle index is flanked by two deepest-level indices, and
    every such triple merges into the next tower set up.  Iterating lands
    on the single index 1/2 assigned the tower's base set.  Each distinct
    merge inclusion is verified exactly on the tower's sets.
    """
    if not 1 <= j <= tower.top_level + 1:
        raise ValueError(f"need 1 <= j <= {tower.top_level + 1}")
    stages = []
    level = j
    while level >= 2:
        indices = dyadic_indices(level)
        merges = []
        for mid_pos in range(1, len(indices) - 1):
            mid = indices[mid_pos]
            if mid.level == level - 1 or level == 2:
                left, right = indices[mid_pos - 1], indices[mid_pos + 1]
                if left.level == level and right.level == level:
                    merges.append((str(left), str(mid), str(right)))
        # Sets in every triple equal T_{level-1}; the merged index takes
        # T_{level-2}.  Verify that inclusion once per stage.
        t = tower.sets[level - 1]
        target = tower.sets[level - 2]
        triple = sumset(sumset(t, t), t)
        exact = subset_of(triple, target)
        if not exact:
            raise ValueError(f"merge inclusion fails at level {level}")
        stages.append(ReductionStage(
            level=level,
            indices=tuple(str(q) for q in indices),
            merges=tuple(merges),
            inclusion_exact=exact,
        ))
        level -= 1
    return ReductionCertificate(j=j, stages=tuple(stages),
                                final_set=tower.sets[0])


def fg_closure(family: ExplicitFamily,
               conjugators: Sequence[GroupElement]) -> ExplicitFamily:
    """Close each member under conjugation by the listed elements.

    The conjugators stand in for the whole group (and are the whole group
    for finite table groups when every element is listed); the identity
    must be among them so each closed member contains its original."""
    conjugators = list(conjugators)
    if not conjugators or not any(c.is_identity() for c in conjugators):
        raise ValueError("conjugator list must include the identity")
    closed = []
    for member in family.members:
        if not isinstance(member, FiniteSet):
            raise ValueError("conjugation closure needs explicit finite sets")
        group = member.group
        if group.is_abelian:
            closed.append(member)
            continue
        values = set()
        for c in conjugators:
            for el in member.elements():
                values.add(op_conjugate(c, el).value)
        out = FiniteSet(group, frozenset(values))
        assert subset_of(member, out), "closure must contain the original"
        closed.append(out)
    return ExplicitFamily(closed, name=f"{family.name}^conj")


# Fibonacci endomorphism of the free group on x, y.

FREE_XY = FreeGroup(("x", "y"))
_X = FREE_XY.element("x")
_Y = FREE_XY.element("y")
_PHI_IMAGES = {1: (2,), -1: (-2,), 2: (1, 2), -2: (-2, -1)}


@dataclass(frozen=True)
class FibWord:
    word: GroupElement
    index: int

    def length(self) -> int:
        return len(self.word.value)


def phi_apply(w: GroupElement) -> GroupElement:
    """The substitution x -> y, y -> xy, extended to reduced words."""
    if w.group != FREE_XY:
        raise ValueError("word must live in the free group on x, y")
    letters: list = []
    for letter in w.value:
        letters.extend(_PHI_IMAGES[letter])
    return FREE_XY.element(letters)


def phi_iterate(w: GroupElement, n: int) -> GroupElement:
    if n < 0:
        raise ValueError("n must be nonnegative")
    for _ in range(n):
        w = phi_apply(w)
    return w


def fib_word(n: int) -> FibWord:
    """f_0 = x, f_1 = y, f_{k+1} = f_{k-1} f_k, reduced."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    a, b = _X, _Y
    if n == 0:
        return FibWord(a, 0)
    for _ in range(n - 1):
        a, b = b, op_add(a, b)
    return FibWord(b, n)


def _check_fib_cap(top: int) -> None:
    """The longest of the words f_0, ..., f_top, f_top, has F(top + 1)
    letters; refuse when that passes the enumeration cap, counting no
    further than the first length past it."""
    longest, following = 1, 1  # F(1) and F(2), the lengths of f_0 and f_1
    for _ in range(top):
        if not within_enumeration_cap(longest):
            break
        longest, following = following, longest + following
    check_enumeration_cap(f"the fibonacci words up to n={top} run to at "
                          f"least {longest} letters", longest)


def verify_fib_words(top: int) -> VerificationReport:
    """Words from the recurrence match substitution iterates and their
    lengths follow the Fibonacci numbers.  Past the enumeration cap this
    raises EnumerationBudgetError before any word is built."""
    _check_fib_cap(top)
    lengths, ok, fib_a, fib_b = [], True, 1, 1
    for n in range(top + 1):
        w = fib_word(n)
        ok = ok and w.word.value == phi_iterate(_X, n).value and \
            w.length() == fib_a
        lengths.append(w.length())
        fib_a, fib_b = fib_b, fib_a + fib_b
    return VerificationReport(
        claim=f"fibonacci-words:n<={top}",
        status=Status.VERIFIED if ok else Status.REFUTED,
        payload={"lengths": lengths},
        budgets={"n": top},
    )


def rerun_fib_words(claim: dict, table: FoldTable) -> VerificationReport:
    top, = id_numbers(r"fibonacci-words:n<=(\d+)", claim)
    return verify_fib_words(top)


def commutator(a: GroupElement, b: GroupElement) -> GroupElement:
    return op_add(op_add(a, b), op_add(op_neg(a), op_neg(b)))


def verify_fib_identity(n: int) -> VerificationReport:
    """The n-th substitution image of the basic commutator equals the
    commutator of consecutive Fibonacci words, and alternates between the
    commutator (even n) and its inverse (odd n).  The words f_n and
    f_{n+1} are built, so past the enumeration cap this raises
    EnumerationBudgetError before any word is."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_fib_cap(n + 1)
    base = commutator(_X, _Y)
    lhs = phi_iterate(base, n)
    f_n = phi_iterate(_X, n)
    f_n1 = phi_iterate(_X, n + 1)
    rhs = commutator(f_n, f_n1)
    expected = base if n % 2 == 0 else op_neg(base)
    return VerificationReport(
        claim=f"fibonacci-commutator:n={n}",
        status=Status.VERIFIED if lhs.value == rhs.value == expected.value
        else Status.REFUTED,
        payload={
            "lhs": str(lhs),
            "rhs": str(rhs),
            "expected": str(expected),
        },
        budgets={"n": n},
    )


def rerun_fib_identity(claim: dict, table: FoldTable) -> VerificationReport:
    n, = id_numbers(r"fibonacci-commutator:n=(\d+)", claim)
    return verify_fib_identity(n)
