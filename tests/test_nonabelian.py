"""Dyadic-index products, towers, closures, and the Fibonacci words."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grouptop import (FiniteSet, Integers, contains, op_add, op_neg, op_sum,
                      star)
from grouptop.filters import ExplicitFamily, check_directed, cupcap_check
from grouptop.fixtures import dihedral8
from grouptop import groups, setspec
from grouptop.groups import CayleyGroup, EnumerationBudgetError
from grouptop import nonabelian
from grouptop.nonabelian import (
    FREE_XY,
    DyadicAssignment,
    DyadicIndex,
    Rescale,
    TowerChain,
    check_UU,
    check_inverse_closure,
    check_translation,
    commutator,
    dyadic_indices,
    fg_closure,
    fib_word,
    phi_apply,
    phi_iterate,
    s_in_u_reduce,
    uq_membership,
    verify_fib_identity,
)
from grouptop.prefixsum import MembershipResult
from grouptop.report import Status, canonical_json, report_document
from grouptop.setspec import FoldTable

Z = Integers()
D4_NAMES = ["e", "r", "r2", "r3", "s", "rs", "r2s", "r3s"]


# --- dyadic indices ---

def test_dyadic_lowest_terms_and_order():
    q = DyadicIndex.of(2, 3)  # 2/8 = 1/4
    assert (q.num, q.level) == (1, 2)
    idx = dyadic_indices(3)
    fracs = [str(i) for i in idx]
    assert fracs == ["1/8", "1/4", "3/8", "1/2", "5/8", "3/4", "7/8"]
    with pytest.raises(ValueError):
        DyadicIndex(2, 2)  # not lowest terms
    with pytest.raises(ValueError):
        DyadicIndex(4, 2)  # not inside (0,1)


def test_dyadic_reflection_keeps_level():
    q = DyadicIndex(3, 3)  # 3/8 -> 5/8
    assert str(q.reflected()) == "5/8"
    assert q.reflected().level == q.level


# --- star over multiplicative groups ---

def test_star_mult_free_generator():
    s = star(FiniteSet.of(FREE_XY, ["x"]))
    vals = {el.value for el in s.base.elements()}
    assert vals == {(1,), (), (-1,)}


def test_star_mult_word():
    s = star(FiniteSet.of(FREE_XY, ["x y"]))
    vals = {str(el) for el in s.base.elements()}
    assert vals == {"x y", "e", "y^-1 x^-1"}


def test_star_mult_subgroup_fixed():
    d4 = dihedral8()
    rot = FiniteSet.of(d4, ["e", "r", "r2", "r3"])
    assert star(rot).base == rot


# --- membership in dyadic products ---

def d4_assignment(levels_spec):
    d4 = dihedral8()
    return d4, DyadicAssignment.of(
        {i + 1: FiniteSet.of(d4, names)
         for i, names in enumerate(levels_spec)}
    )


def test_shifted_view_shares_the_symmetrized_levels(monkeypatch):
    """Both shifts of one ``check_UU`` call read their levels' stars from
    the call's one table: each level a shift views is symmetrized once,
    and no level is symmetrized again."""
    _, assign = d4_assignment([["r"], ["r", "s"], ["r2"], ["rs"], ["s"]])
    assert assign.shifted(2).levels == assign.levels[2:]
    honest, starred = setspec.star, []

    def counting(spec):  # a star handed back unchanged is no new work
        if not isinstance(spec, setspec.StarSet):
            starred.append(spec)
        return honest(spec)

    monkeypatch.setattr(setspec, "star", counting)
    rep = check_UU(assign, Rescale(0, 2), Rescale(2, 3), depth=3)
    assert rep.status is Status.VERIFIED
    assert starred == list(assign.levels[2:])


def test_uq_identity_is_empty_product():
    _, assign = d4_assignment([["r"], ["r"], ["r"]])
    d4 = dihedral8()
    res = uq_membership(d4.identity(), assign, 3, FoldTable())
    assert res.is_yes() and res.witness == ()


def test_uq_single_index_member():
    d4, assign = d4_assignment([["r"], ["s"], ["r2"]])
    res = uq_membership(d4.element("s"), assign, 1, FoldTable())
    assert res.is_yes() and len(res.witness) == 1


def _index(text):
    """The dyadic index a proof names as ``str(q)``."""
    q = Fraction(text)
    return DyadicIndex.of(q.numerator, q.denominator.bit_length() - 1)


def test_uq_r_squared_two_factors():
    d4, assign = d4_assignment([["r"], ["r"], ["r"]])
    res = uq_membership(d4.element("r2"), assign, 3, FoldTable())
    assert res.is_yes()
    assert [str(el) for el in res.witness] == ["r", "r"]
    qs = [_index(q) for q in res.proof["indices"]]
    assert len(qs) == 2 and qs == sorted(qs, key=DyadicIndex.fraction)
    assert [str(q) for q in qs] == res.proof["indices"]


def test_uq_yes_serializes_its_summands_and_indices():
    """A "yes" writes its summands as every membership witness is
    written, and its indices in the proof, and reads back."""
    d4, assign = d4_assignment([["r"], ["r"], ["r"]])
    res = uq_membership(d4.element("r2"), assign, 3, FoldTable())
    doc = res.to_json()
    r = d4.value_to_json(d4.element("r").value)
    assert doc == {"status": "yes", "witness": [r, r],
                   "proof": {"depth": 3, "max_level": 3,
                             "indices": ["1/8", "1/4"]}}
    assert MembershipResult.from_json(d4, doc) == res


def test_uq_exact_no_on_cayley():
    d4, assign = d4_assignment([["r"], ["r"], ["r"]])
    res = uq_membership(d4.element("s"), assign, 4, FoldTable())
    assert res.status == "no"
    assert "stabilized_at" in res.proof


def test_uq_free_group_miss_stays_unknown():
    assign = DyadicAssignment.of({1: FiniteSet.of(FREE_XY, ["x"])})
    res = uq_membership(FREE_XY.element("y"), assign, 2, FoldTable())
    assert res.status == "unknown"


def test_uq_depth1_agrees_with_star_membership():
    d4, assign = d4_assignment([["r", "s"], ["r", "s"], ["r", "s"]])
    starred = star(FiniteSet.of(d4, ["r", "s"]))
    for el in d4.elements():
        res = uq_membership(el, assign, 1, FoldTable())
        expected = el.is_identity() or contains(starred, el)
        assert res.is_yes() == expected


# --- product absorption, inverses, translation ---

def test_check_uu_verified_on_d4():
    _, assign = d4_assignment([["r"], ["r", "s"], ["r2"], ["r"], ["s"]])
    rep = check_UU(assign, Rescale(0, 2), Rescale(3, 2), depth=3)
    assert rep.status is Status.VERIFIED
    assert rep.payload["pairs_checked"] > 1


def test_check_uu_trivial_identity_factor():
    _, assign = d4_assignment([["e"], ["e"], ["e"], ["e"], ["e"]])
    rep = check_UU(assign, Rescale(0, 2), Rescale(3, 2), depth=3)
    assert rep.status is Status.VERIFIED


def test_check_uu_rejects_overlap():
    _, assign = d4_assignment([["r"], ["r"], ["r"], ["r"], ["r"]])
    with pytest.raises(ValueError):
        check_UU(assign, Rescale(0, 1), Rescale(1, 2), depth=2)


def test_inverse_closure_and_translation_exhaustive():
    _, assign = d4_assignment([["r"], ["r", "s"], ["r2"]])
    table = FoldTable()
    assert check_inverse_closure(assign, 3, table).status is Status.VERIFIED
    assert check_translation(assign, 3, table).status is Status.VERIFIED


def test_witness_is_valid_rejects_each_fault():
    d4, assign = d4_assignment([["r"], ["r", "s"], ["r2"]])
    r, s_, r2 = d4.element("r"), d4.element("s"), d4.element("r2")
    half, three_quarters = DyadicIndex(1, 1), DyadicIndex(3, 2)
    product = op_add(r, s_).value

    def valid(witness, expected=product):
        return nonabelian._witness_is_valid(d4, assign, witness, expected,
                                            FoldTable())

    assert valid(((half, r), (three_quarters, s_)))
    assert not valid(((three_quarters, r), (half, s_)))  # indices decrease
    assert not valid(((half, r), (half, s_)))  # index repeated
    assert not valid(((half, r), (three_quarters, r2)),
                     op_add(r, r2).value)  # r2 is not in star({r, s})
    assert not valid(((half, r), (three_quarters, s_)),
                     op_add(s_, r).value)  # wrong product
    assert not valid(((half, r), (DyadicIndex(1, 4), s_)))  # past level 3


def _starred_by_level(d4, assign):
    """Each level's set united with its inverses and the identity."""
    out = []
    for spec in assign.levels:
        members = {m.value for m in spec.elements()}
        out.append(members | {op_neg(d4.element(v)).value for v in members}
                   | {d4.identity_value()})
    return out


def _walk_is_witness(d4, starred, witness, expected):
    """A concatenated witness checked factor by factor, by brute force."""
    fracs = [q.fraction() for q, _ in witness]
    if any(a >= b for a, b in zip(fracs, fracs[1:])):
        return False
    total = d4.identity_value()
    for q, el in witness:
        if q.level > len(starred) or el.value not in starred[q.level - 1]:
            return False
        total = d4._add(total, el.value)
    return total == expected


def _sorted_witnesses(d4, table):
    """(value, witness) per table entry, in check order."""
    return [(value, w) for (value, _), w in sorted(
        table.items(), key=lambda kv: (d4.sort_key(kv[0][0]), kv[0][1]))]


def _uu_sides(assign, sigma, tau, depth):
    """check_UU's two sides: (value, rescaled witness), in check order."""
    d4 = dihedral8()
    return [[(value, tuple((rescale.apply(q), el) for q, el in w))
             for value, w in _sorted_witnesses(
                 d4, nonabelian.enumerate_u_witnesses(
                     assign.shifted(rescale.shift), depth, FoldTable()))]
            for rescale in (sigma, tau)]


# check_UU's rescaling pairs: equal shifts, then unequal ones
_UU_RESCALES = [(Rescale(0, 2), Rescale(3, 2)),
                (Rescale(0, 2), Rescale(2, 3))]


def _uu_by_pair_walk(assign, sigma, tau, depth):
    """check_UU's pairs and failures from walking every concatenation."""
    d4 = dihedral8()
    sides = _uu_sides(assign, sigma, tau, depth)
    starred = _starred_by_level(d4, assign)
    failures = []
    for lv, lw in sides[0]:
        for rv, rw in sides[1]:
            if not _walk_is_witness(d4, starred, lw + rw,
                                    d4._add(lv, rv)):
                failures.append({"left": d4.value_to_json(lv),
                                 "right": d4.value_to_json(rv)})
    return len(sides[0]) * len(sides[1]), failures


def _tampered_uu_tables(d4, product_fault_levels):
    """``enumerate_u_witnesses`` with every third table item of two or
    more factors broken: on a table of ``product_fault_levels`` levels its
    last factor is moved off the product, on any other its first two
    indices trade places.  Index faults never cancel in a concatenation;
    product faults on one side alone cannot either, so only one side's
    table may carry them."""
    honest = nonabelian.enumerate_u_witnesses
    r = d4.element("r")

    def tampered(assignment, depth, fold_table):
        table = dict(honest(assignment, depth, fold_table))
        for n, (key, w) in enumerate(sorted(
                table.items(), key=lambda kv: (d4.sort_key(kv[0][0]),
                                               kv[0][1]))):
            if len(w) < 2 or n % 3:
                continue
            if assignment.max_level == product_fault_levels:  # wrong product
                table[key] = w[:-1] + ((w[-1][0], op_add(w[-1][1], r)),)
            else:  # same factors, indices out of order
                table[key] = ((w[1][0], w[0][1]), (w[0][0], w[1][1])) + w[2:]
        return table
    return tampered


def test_check_uu_matches_pair_walk_on_seeded_assignments(monkeypatch):
    """Validating each side once plus the join gives the same pairs and
    failures as walking every concatenated witness, with equal shifts (one
    shared witness table) and unequal ones, also when the witness tables
    are tampered with (left products broken, right indices put out of
    order, so no pair's faults cancel)."""
    d4 = dihedral8()
    rng = random.Random(20261018)
    for sigma, tau in _UU_RESCALES:
        for _ in range(4):
            assign = DyadicAssignment.of({
                lvl: FiniteSet.of(d4, rng.sample(D4_NAMES,
                                                 rng.randint(1, 3)))
                for lvl in range(1, 6)})
            pairs, failures = _uu_by_pair_walk(assign, sigma, tau, 3)
            rep = check_UU(assign, sigma, tau, 3)
            assert (rep.payload["pairs_checked"],
                    rep.payload["failures"]) == (pairs, failures) \
                and failures == []

    # sigma's side (shift 2 of 5 levels) gets the product faults
    monkeypatch.setattr(nonabelian, "enumerate_u_witnesses",
                        _tampered_uu_tables(d4, 3))
    assign = DyadicAssignment.of({
        lvl: FiniteSet.of(d4, names) for lvl, names in
        enumerate([["r", "s"], ["r", "s"], ["rs", "r2"], ["r"], ["s"]], 1)})
    sigma, tau = Rescale(0, 2), Rescale(2, 3)
    pairs, failures = _uu_by_pair_walk(assign, sigma, tau, 3)
    rep = check_UU(assign, sigma, tau, 3)
    assert failures and rep.status is Status.REFUTED
    assert (rep.payload["pairs_checked"], rep.payload["failures"]) == \
        (pairs, failures)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.sampled_from(D4_NAMES), min_size=1, max_size=3),
                min_size=5, max_size=5),
       st.sampled_from(_UU_RESCALES), st.booleans())
def test_check_uu_matches_pair_walk_on_drawn_assignments(levels, rescales,
                                                         tamper):
    """Deciding each pair from its two validated sides and their join
    gives the pair walk's pairs and failures on drawn assignments, with
    honest witness tables and with tables tampered as in the seeded
    test (with equal shifts both sides read one table, so it gets index
    faults only): no product of two valid sides joined in order needs
    more."""
    d4, assign = d4_assignment([sorted(names) for names in levels])
    sigma, tau = rescales
    product_faults = 5 - sigma.shift if sigma.shift != tau.shift else None
    with pytest.MonkeyPatch.context() as patch:
        if tamper:
            patch.setattr(nonabelian, "enumerate_u_witnesses",
                          _tampered_uu_tables(d4, product_faults))
        pairs, failures = _uu_by_pair_walk(assign, sigma, tau, 3)
        rep = check_UU(assign, sigma, tau, 3)
    assert (rep.payload["pairs_checked"], rep.payload["failures"]) == \
        (pairs, failures)
    assert rep.status is (Status.REFUTED if failures else Status.VERIFIED)
    assert tamper or not failures


def test_rescale_apply_is_the_reduced_image():
    """The image is built in lowest terms directly, and equals the reduced
    (q + offset) / 2^shift for every index up to level 6."""
    for shift in (1, 2, 3):
        for offset in range(2 ** shift):
            rescale = Rescale(offset, shift)
            for q in dyadic_indices(6):
                assert rescale.apply(q) == DyadicIndex.of(
                    q.num + offset * 2 ** q.level, q.level + shift)


@pytest.mark.parametrize("sigma, tau, tables", [
    (Rescale(0, 2), Rescale(3, 2), 1),
    (Rescale(0, 2), Rescale(2, 3), 2),
], ids=["equal-shifts", "unequal-shifts"])
def test_check_uu_enumerates_one_table_per_shift(monkeypatch, sigma, tau,
                                                 tables):
    _, assign = d4_assignment([["r"], ["r", "s"], ["r2"], ["r"], ["s"]])
    honest, calls = nonabelian.enumerate_u_witnesses, 0

    def counting(assignment, depth, table):
        nonlocal calls
        calls += 1
        return honest(assignment, depth, table)

    monkeypatch.setattr(nonabelian, "enumerate_u_witnesses", counting)
    assert check_UU(assign, sigma, tau, 3).status is Status.VERIFIED
    assert calls == tables


@pytest.mark.parametrize("sigma, tau", [
    (Rescale(0, 2), Rescale(3, 2)),
    (Rescale(0, 2), Rescale(2, 3)),
], ids=["equal-shifts", "unequal-shifts"])
def test_check_uu_checks_each_table_item_once(monkeypatch, sigma, tau):
    """Each shift's table is checked once for the rescalings that share
    it: it asks ``FoldTable.contains`` once for each distinct (level,
    element value) among its factors, against that level's star, and
    each side maps each distinct index of its table through
    ``Rescale.apply`` at most once."""
    _, assign = d4_assignment([["r"], ["r", "s"], ["r2"], ["r"], ["s"]])
    tables = {shift: nonabelian.enumerate_u_witnesses(
        assign.shifted(shift), 3, FoldTable())
        for shift in {sigma.shift, tau.shift}}
    contains, apply = FoldTable.contains, Rescale.apply
    asked, images = [], []

    def counting_contains(self, spec, g):
        asked.append((spec, g.value))
        return contains(self, spec, g)

    def counting_apply(self, q):
        images.append((self, q))
        return apply(self, q)

    monkeypatch.setattr(FoldTable, "contains", counting_contains)
    monkeypatch.setattr(Rescale, "apply", counting_apply)
    assert check_UU(assign, sigma, tau, 3).status is Status.VERIFIED
    expected = []
    for shift, table in tables.items():
        levels = assign.shifted(shift).levels
        expected += [(star(levels[level - 1]), value) for level, value in
                     {(q.level, el.value) for w in table.values()
                      for q, el in w}]
    assert sorted(asked, key=repr) == sorted(expected, key=repr)
    assert len(set(images)) == len(images)
    for rescale in (sigma, tau):
        distinct = {q for w in tables[rescale.shift].values() for q, _ in w}
        assert {q for r, q in images if r == rescale} == distinct


class _SwappedRescale(Rescale):
    """A rescaling that maps 1/4 where 3/4 goes and 3/4 where 1/4 goes:
    the images keep their levels but leave the order."""

    def apply(self, q):
        swap = {DyadicIndex(1, 2): DyadicIndex(3, 2),
                DyadicIndex(3, 2): DyadicIndex(1, 2)}
        return super().apply(swap.get(q, q))


def test_check_uu_checks_the_order_of_each_sides_images():
    """The star-and-product check is shared between the sides, but the
    order of the moved indices is checked on each side: a tau that puts
    two images out of order gives failures, the pairs the walk finds."""
    _, assign = d4_assignment([["r"], ["r", "s"], ["r2"], ["r", "s"], ["s"]])
    sigma, tau = Rescale(0, 2), _SwappedRescale(3, 2)
    pairs, failures = _uu_by_pair_walk(assign, sigma, tau, 3)
    rep = check_UU(assign, sigma, tau, 3)
    assert failures and rep.status is Status.REFUTED
    assert (rep.payload["pairs_checked"], rep.payload["failures"]) == \
        (pairs, failures)


# _validated's calls over one assignment: the rescalings sharing a shift
_VALIDATED_CALLS = [[(Rescale(0, 2), Rescale(3, 2))],  # equal shifts
                    [(Rescale(0, 2),), (Rescale(2, 3),)],  # unequal shifts
                    [(None,)]]  # nothing moved
_TAMPERS = ["none", "outside-star", "wrong-value", "repeated-index",
            "decreasing-index", "past-top", "other-group"]


def _validated_by_witness(d4, assign, witnesses, rescales):
    """``_validated``'s sides by the per-witness rule: ``_indices_valid``
    on each moved witness, then ``witness_holds`` on its factors against
    the stars of their levels."""
    shift = 0 if rescales[0] is None else rescales[0].shift
    levels, top = assign.levels[shift:], assign.max_level
    sides = [[] for _ in rescales]
    for value, w in _sorted_witnesses(d4, witnesses):
        for side, r in zip(sides, rescales):
            moved = w if r is None else \
                tuple((r.apply(q), el) for q, el in w)
            side.append((value, moved, nonabelian._indices_valid(top, moved)
                         and setspec.witness_holds(
                             groups.GroupElement(d4, value),
                             [el for _, el in w],
                             [levels[q.level - 1] for q, _ in w],
                             FoldTable())))
    return sides


def _tampered(d4, levels, witnesses, tamper, every):
    """``witnesses`` with every ``every``-th item in check order broken as
    ``tamper`` names, and whether any item was: a factor swapped for one
    outside its level's star, the item moved to another value (its key
    keeps a distinct position), the second index repeating or preceding
    the first, the last index one level past the table's levels, or a
    factor of another group."""
    out, changed = dict(witnesses), False
    for n, (key, w) in enumerate(sorted(
            witnesses.items(),
            key=lambda kv: (d4.sort_key(kv[0][0]), kv[0][1]))):
        if n % every or tamper == "none":
            continue
        value, pos = key
        if tamper == "wrong-value":
            del out[key]
            out[(d4._add(value, d4.element("r").value), pos + 100)] = w
        elif not w:
            continue
        elif tamper == "outside-star":
            (q, _), rest = w[0], w[1:]
            inside = {el.value for el in star(levels[q.level - 1]).base
                      .elements()}
            outside = [el for el in d4.elements() if el.value not in inside]
            if not outside:
                continue
            out[key] = ((q, outside[0]),) + rest
        elif tamper == "other-group":
            out[key] = ((w[0][0], Z.element(1)),) + w[1:]
        elif tamper == "past-top":
            level = len(levels) + 1
            out[key] = w[:-1] + ((DyadicIndex(2 ** level - 1, level),
                                  w[-1][1]),)
        elif len(w) < 2:
            continue
        elif tamper == "repeated-index":
            out[key] = (w[0], (w[0][0], w[1][1])) + w[2:]
        else:  # decreasing-index
            out[key] = ((w[1][0], w[0][1]), (w[0][0], w[1][1])) + w[2:]
        changed = True
    return out, changed


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sets(st.sampled_from(D4_NAMES), min_size=1, max_size=3),
                min_size=5, max_size=5),
       st.sampled_from(_VALIDATED_CALLS), st.sampled_from(_TAMPERS),
       st.integers(1, 4))
def test_validated_matches_the_per_witness_rule(levels, calls, tamper,
                                                every):
    """Checking the whole table, each (level, element value) decided once,
    gives every item of every side exactly as checking each witness on its
    own does, on honest and tampered tables; a factor of another group
    raises GroupMismatchError."""
    d4, assign = d4_assignment([sorted(names) for names in levels])
    for rescales in calls:
        shift = 0 if rescales[0] is None else rescales[0].shift
        shifted = DyadicAssignment(assign.levels[shift:])
        witnesses, changed = _tampered(
            d4, shifted.levels,
            nonabelian.enumerate_u_witnesses(shifted, 3, FoldTable()),
            tamper, every)
        if tamper == "other-group" and changed:
            with pytest.raises(groups.GroupMismatchError):
                nonabelian._validated(d4, assign, witnesses, FoldTable(),
                                      rescales)
            continue
        sides = nonabelian._validated(d4, assign, witnesses, FoldTable(),
                                      rescales)
        assert sides == _validated_by_witness(d4, assign, witnesses,
                                              rescales)
        assert not changed or not all(ok for side in sides
                                      for _, _, ok in side)


@pytest.mark.parametrize("level", [1, 4], ids=["inside", "past-levels"])
def test_validated_raises_for_a_factor_of_another_group(level):
    """An integer factor raises GroupMismatchError though a D4 factor of
    the same level and value was decided before it, and past the levels,
    where no star is asked."""
    d4, assign = d4_assignment([["r"], ["r", "s"], ["r2"]])
    r, half = d4.element("r"), DyadicIndex(1, 1)
    witnesses = {(r.value, 0): ((half, r),),
                 (r.value, 1): ((DyadicIndex(1, level), Z.element(r.value)),)}
    with pytest.raises(groups.GroupMismatchError):
        nonabelian._validated(d4, assign, witnesses, FoldTable())


def test_inverse_closure_reports_tampered_witnesses_in_check_order(
        monkeypatch):
    """The reversed witnesses are validated as one table, and the failures
    are the values, in check order, whose reversed witness fails the
    per-witness rule: here one witness of r and one of r2 moved off their
    products, whose inverses r3 and r2 sort the other way round."""
    d4, assign = d4_assignment([["r"], ["r", "s"], ["r2"]])
    honest, s_ = nonabelian.enumerate_u_witnesses, d4.element("s")

    def tampered(assignment, depth, table):
        out = dict(honest(assignment, depth, table))
        for name in ("r", "r2"):
            key, w = min((kv for kv in out.items()
                          if kv[0][0] == d4.element(name).value and kv[1]),
                         key=lambda kv: kv[0][1])
            out[key] = w[:-1] + ((w[-1][0], op_add(w[-1][1], s_)),)
        return out

    monkeypatch.setattr(nonabelian, "enumerate_u_witnesses", tampered)
    rep = check_inverse_closure(assign, 3, FoldTable())
    starred = _starred_by_level(d4, assign)
    expected = [
        d4.value_to_json(value)
        for value, w in _sorted_witnesses(d4, tampered(assign, 3,
                                                       FoldTable()))
        if not _walk_is_witness(
            d4, starred,
            tuple((q.reflected(), op_neg(el)) for q, el in reversed(w)),
            d4._neg(value))]
    assert rep.status is Status.REFUTED
    assert rep.payload["failures"] == expected == \
        [d4.value_to_json(d4.element(name).value) for name in ("r", "r2")]


def _reachable_reference(assignment):
    """The fewest factors of each element over increasing-index products,
    by one pass over the indices in order."""
    group = assignment.levels[0].ambient()
    reach = {group.identity_value(): 0}
    for q in assignment.indices():
        for value, count in list(reach.items()):
            for el in star(assignment.set_at(q)).base.elements():
                nxt = group._add(value, el.value)
                if count + 1 < reach.get(nxt, math.inf):
                    reach[nxt] = count + 1
    return reach


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sets(st.sampled_from(D4_NAMES)), min_size=1, max_size=4))
def test_uq_membership_matches_reachable_reference(levels):
    """Every element at depths 1..6: "yes" exactly when it is reached
    within the depth, with a witness of its fewest factors; "no" exactly
    when it is never reached and every reached element is reached below
    the depth, which the proof names; "unknown" otherwise."""
    d4, assign = d4_assignment([sorted(names) for names in levels])
    reach = _reachable_reference(assign)
    stabilized_at = max(reach.values())
    starred = _starred_by_level(d4, assign)
    for g in d4.elements():
        for depth in range(1, 7):
            res = uq_membership(g, assign, depth, FoldTable())
            if reach.get(g.value, math.inf) <= depth:
                assert res.is_yes() and len(res.witness) == reach[g.value]
                indices = [_index(q) for q in (res.proof or {}).get(
                    "indices", ())]
                assert _walk_is_witness(d4, starred,
                                        tuple(zip(indices, res.witness)),
                                        g.value)
                assert len(indices) == len(res.witness)
            elif g.value not in reach and stabilized_at < depth:
                assert res.is_no()
                assert res.proof["stabilized_at"] == stabilized_at
            else:
                assert res.status == "unknown"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pair_failures_match_nested_loop(data):
    """Deciding the pairs from facts about each side gives the nested
    loop's pair count and ordered failures, also for synthetic sides with
    join faults, which honest rescales never produce."""
    indices = dyadic_indices(4)
    cut = data.draw(st.integers(0, len(indices)))
    overlap = data.draw(st.booleans())  # both sides draw from every index
    pools = (indices, indices) if overlap else (indices[:cut], indices[cut:])

    def side(pool):
        qs = st.lists(st.sampled_from(pool), max_size=3) if pool \
            else st.just([])
        entry = st.tuples(st.integers(0, 7), qs,
                          st.integers(0, 9).map(bool))  # valid 9 times in 10
        return [(value, tuple((q, None) for q in qs), ok)
                for value, qs, ok in data.draw(st.lists(entry, max_size=8))]

    lefts, rights = side(pools[0]), side(pools[1])

    pairs, failures = 0, []
    for i, (_, lw, l_ok) in enumerate(lefts):
        for j, (_, rw, r_ok) in enumerate(rights):
            pairs += 1
            joins = not lw or not rw or \
                lw[-1][0].fraction() < rw[0][0].fraction()
            if not (l_ok and r_ok and joins):
                failures.append((i, j))
    assert nonabelian._pair_failures(lefts, rights) == (pairs, failures)


def test_dyadic_indices_refuse_past_the_cap_from_the_level_alone(
        monkeypatch):
    """Levels 1..40 hold 2^40 - 1 indices: refused before one is built.
    At a cap of 7, level 3's seven indices pass and level 4's fifteen do
    not."""
    def never(*args):
        raise AssertionError("an index was built")

    with monkeypatch.context() as patch:
        patch.setattr(DyadicIndex, "of", never)
        with pytest.raises(EnumerationBudgetError, match="level"):
            dyadic_indices(40)
    monkeypatch.setattr(groups, "_ENUMERATION_CAP", 7)
    assert len(dyadic_indices(3)) == 7
    with pytest.raises(EnumerationBudgetError):
        dyadic_indices(4)


def test_witness_table_holds_at_most_the_cap(monkeypatch):
    """The table refuses at its first state past the cap, as it is built:
    a cap of its own size passes, one less refuses, and a cap of 20 on a
    table of thousands of states refuses within a few hundred
    additions."""
    _, five = d4_assignment([["r"], ["r", "s"], ["r2"], ["r"], ["s"]])
    size = len(nonabelian.enumerate_u_witnesses(five, 3, FoldTable()))
    monkeypatch.setattr(groups, "_ENUMERATION_CAP", size)
    assert len(nonabelian.enumerate_u_witnesses(five, 3,
                                                FoldTable())) == size
    monkeypatch.setattr(groups, "_ENUMERATION_CAP", size - 1)
    with pytest.raises(EnumerationBudgetError, match="witness table"):
        nonabelian.enumerate_u_witnesses(five, 3, FoldTable())

    _, wide = d4_assignment([["e", "r", "s"]] * 7)
    add, calls = CayleyGroup._add, 0

    def counting(self, a, b):
        nonlocal calls
        calls += 1
        return add(self, a, b)

    monkeypatch.setattr(CayleyGroup, "_add", counting)
    monkeypatch.setattr(groups, "_ENUMERATION_CAP", 20)
    with pytest.raises(EnumerationBudgetError):
        nonabelian.enumerate_u_witnesses(wide, 3, FoldTable())
    assert calls < 500


def test_dyadic_checks_raise_and_membership_answers_unknown_past_the_cap(
        monkeypatch):
    """Past a cap of 20, check_UU's shift-2 table (47 states), and the
    depth-3 tables of inverse closure and translation refuse; membership
    answers unknown with the refusal as its note, both when its depth
    table passes the cap and when only the closed table does."""
    d4, five = d4_assignment([["r"], ["r", "s"], ["r2"], ["r"], ["s"]])
    _, rotations = d4_assignment([["r"], ["r"], ["r"]])
    assert uq_membership(d4.element("s"), rotations, 4, FoldTable()).is_no()
    monkeypatch.setattr(groups, "_ENUMERATION_CAP", 20)
    for check in (lambda: check_UU(five, Rescale(0, 2), Rescale(3, 2), 3),
                  lambda: check_inverse_closure(rotations, 3, FoldTable()),
                  lambda: check_translation(rotations, 3, FoldTable())):
        with pytest.raises(EnumerationBudgetError):
            check()
    for g, depth in (("s", 4), ("s", 1), ("r2", 2)):
        res = uq_membership(d4.element(g), rotations, depth, FoldTable())
        assert res.status == "unknown", (g, depth)
        assert res.note.endswith("past the enumeration cap 20")
    monkeypatch.setattr(groups, "_ENUMERATION_CAP", 22)  # the depth-1 table
    assert uq_membership(d4.element("r"), rotations, 1, FoldTable()).is_yes()
    # closed: 28 states
    res = uq_membership(d4.element("s"), rotations, 1, FoldTable())
    assert res.status == "unknown" and "witness table" in res.note


def _translation_by_pair_walk(assign, depth):
    """check_translation's products and failures from walking every
    concatenation of a witness with one of the set restricted above its
    top index."""
    d4 = dihedral8()
    starred = _starred_by_level(d4, assign)
    indices = assign.indices()
    checked, failures = 0, []
    for xv, xw in _sorted_witnesses(
            d4, nonabelian.enumerate_u_witnesses(assign, depth,
                                                 FoldTable())):
        if not xw:
            continue
        top = xw[-1][0].fraction()
        above = [q for q in indices if top < q.fraction()]
        for uv, uw in _sorted_witnesses(d4, nonabelian._products_over(
                d4, assign, above, depth, FoldTable())):
            checked += 1
            if not _walk_is_witness(d4, starred, xw + uw, d4._add(xv, uv)):
                failures.append({"x": d4.value_to_json(xv),
                                 "u": d4.value_to_json(uv)})
    return checked, failures


def test_check_translation_matches_pair_walk(monkeypatch):
    """Deciding each top index's pairs together gives the same products
    and failures as walking every concatenation, on seeded assignments and
    on tampered tables (products of the whole index set broken, restricted
    products' indices put out of order, so no pair's faults cancel)."""
    d4 = dihedral8()
    rng = random.Random(20261019)
    for _ in range(4):
        assign = DyadicAssignment.of({
            lvl: FiniteSet.of(d4, rng.sample(D4_NAMES, rng.randint(1, 3)))
            for lvl in range(1, 4)})
        checked, failures = _translation_by_pair_walk(assign, 3)
        rep = check_translation(assign, 3, FoldTable())
        assert (rep.payload["products_checked"], rep.payload["failures"]) \
            == (checked, failures) and failures == []

    honest = nonabelian._products_over
    r = d4.element("r")

    def tampered(group, assignment, indices, depth, fold_table):
        table = dict(honest(group, assignment, indices, depth, fold_table))
        whole = len(indices) == len(assignment.indices())
        for n, (key, w) in enumerate(sorted(
                table.items(), key=lambda kv: (d4.sort_key(kv[0][0]),
                                               kv[0][1]))):
            if len(w) < 2 or n % 3:
                continue
            if whole:  # the x side: wrong product
                table[key] = w[:-1] + ((w[-1][0], op_add(w[-1][1], r)),)
            else:  # a restricted side: same factors, indices out of order
                table[key] = ((w[1][0], w[0][1]), (w[0][0], w[1][1])) + w[2:]
        return table

    monkeypatch.setattr(nonabelian, "_products_over", tampered)
    _, assign = d4_assignment([["r", "s"], ["r", "s"], ["rs", "r2"]])
    checked, failures = _translation_by_pair_walk(assign, 3)
    rep = check_translation(assign, 3, FoldTable())
    assert failures and rep.status is Status.REFUTED
    assert (rep.payload["products_checked"], rep.payload["failures"]) == \
        (checked, failures)


def test_check_uu_adds_fewer_times_than_it_counts_pairs(monkeypatch):
    """Levels 1..9 of {e, r, s} give 1,024,144 witness pairs at depth 3;
    deciding them per side makes fewer group additions than that."""
    _, assign = d4_assignment([["e", "r", "s"]] * 9)
    add, calls = CayleyGroup._add, 0

    def counting(self, a, b):
        nonlocal calls
        calls += 1
        return add(self, a, b)

    monkeypatch.setattr(CayleyGroup, "_add", counting)
    rep = check_UU(assign, Rescale(0, 2), Rescale(3, 2), depth=3)
    assert rep.status is Status.VERIFIED
    assert rep.payload["pairs_checked"] == 1_024_144
    assert calls < rep.payload["pairs_checked"]


# sha256 of the canonical report on the fixed D4 assignments below; it
# was the same before witness checks were shared between the checks.
NONABELIAN_REPORT_SHA256 = \
    "7726dc4a55244dff78558d819d73a5f9e73de0f519d20426d1fec7db512593a8"


def test_nonabelian_report_bytes_pinned():
    _, five = d4_assignment([["r"], ["r", "s"], ["r2"], ["r"], ["s"]])
    _, three = d4_assignment([["r"], ["r", "s"], ["r2"]])
    rng = random.Random(4)
    seeded = [d4_assignment([rng.sample(D4_NAMES, rng.randint(1, 3))
                             for _ in range(5)])[1] for _ in range(2)]
    reports = [
        check_UU(five, Rescale(0, 2), Rescale(3, 2), 3),
        check_UU(five, Rescale(1, 3), Rescale(6, 3), 2),
        *[check_UU(a, Rescale(0, 2), Rescale(3, 2), 3) for a in seeded],
        check_inverse_closure(three, 3, FoldTable()),
        check_translation(three, 3, FoldTable()),
        check_inverse_closure(five, 2, FoldTable()),
        check_translation(five, 2, FoldTable()),
    ]
    text = canonical_json(report_document(reports))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        NONABELIAN_REPORT_SHA256


# --- towers and the collapse certificate ---

def integer_interval_tower(top):
    sets = [FiniteSet.of(Z, range(-3 ** (top - i), 3 ** (top - i) + 1))
            for i in range(top + 1)]
    return TowerChain(tuple(sets))


def test_interval_tower_collapse_exact():
    for top in (1, 2, 3, 4):
        tower = integer_interval_tower(top)
        cert = s_in_u_reduce(tower, top + 1)
        assert [s.level for s in cert.stages] == list(range(top + 1, 1, -1))
        assert [len(s.merges) for s in cert.stages] == \
            [2 ** (lv - 2) for lv in range(top + 1, 1, -1)]
        assert cert.final_set == tower.sets[0]
        # oracle: the triple sums are exact interval identities
        from grouptop.setspec import sumset
        for i in range(1, top + 1):
            t = tower.sets[i]
            triple = sumset(sumset(t, t), t)
            assert triple == tower.sets[i - 1]


def test_d4_normal_subgroup_tower():
    d4 = dihedral8()
    tower = TowerChain((
        FiniteSet.of(d4, D4_NAMES),
        FiniteSet.of(d4, ["e", "r", "r2", "r3"]),
        FiniteSet.of(d4, ["e", "r2"]),
        FiniteSet.of(d4, ["e"]),
    ))
    cert = s_in_u_reduce(tower, 4)
    assert [s.level for s in cert.stages] == [4, 3, 2]


def test_reduce_j1_is_immediate():
    tower = integer_interval_tower(2)
    cert = s_in_u_reduce(tower, 1)
    assert cert.stages == () and cert.final_set == tower.sets[0]


def test_tower_invariant_failure_raises():
    with pytest.raises(ValueError):
        TowerChain((FiniteSet.of(Z, range(-2, 3)),
                    FiniteSet.of(Z, range(-2, 3))))  # triple escapes


def test_tower_assignment_levels():
    tower = integer_interval_tower(3)
    assign = tower.assignment()
    assert assign.max_level == 3
    assert assign.set_at(DyadicIndex(1, 2)) == tower.sets[2]


def test_assignment_json_round_trip():
    from grouptop.nonabelian import assignment_from_json
    d4, assign = d4_assignment([["r"], ["r", "s"], ["r2"]])
    back = assignment_from_json(assign.to_json(), group=d4)
    assert back == assign


# --- conjugation closure ---

def test_fg_closure_d4_rotation():
    d4 = dihedral8()
    fam = ExplicitFamily([FiniteSet.of(d4, ["r"])])
    closed = fg_closure(fam, d4.elements())
    vals = {str(el) for el in closed.members[0].elements()}
    assert vals == {"r", "r3"}
    # oracle: conjugate r by every element directly
    r = d4.element("r")
    brute = {str(op_add(op_add(g, r), op_neg(g))) for g in d4.elements()}
    assert brute == vals


def test_fg_closure_abelian_unchanged():
    fam = ExplicitFamily([FiniteSet.of(Z, [1, 2])])
    closed = fg_closure(fam, [Z.element(0)])
    assert closed.members == fam.members


def test_fg_closure_requires_identity():
    d4 = dihedral8()
    fam = ExplicitFamily([FiniteSet.of(d4, ["r"])])
    with pytest.raises(ValueError):
        fg_closure(fam, [])
    with pytest.raises(ValueError):
        fg_closure(fam, [d4.element("r")])


def test_fg_closure_preserves_directedness():
    d4 = dihedral8()
    fam = ExplicitFamily([
        FiniteSet.of(d4, ["e", "r", "r2", "r3"]),
        FiniteSet.of(d4, ["e", "r2"]),
    ])
    assert check_directed(fam) is None
    closed = fg_closure(fam, d4.elements())
    assert check_directed(closed) is None


def test_fg_closure_conjugation_invariant():
    d4 = dihedral8()
    fam = ExplicitFamily([FiniteSet.of(d4, ["r"]), FiniteSet.of(d4, ["s"])])
    closed = fg_closure(fam, d4.elements())
    for member in closed.members:
        vals = {el.value for el in member.elements()}
        for c in d4.elements():
            conj = {op_add(op_add(c, el), op_neg(c)).value
                    for el in member.elements()}
            assert conj == vals


# --- nonabelian exclusion ---

def test_cupcap_nonab_reflection_excluded():
    d4 = dihedral8()
    fam = ExplicitFamily([FiniteSet.of(d4, ["r"])])
    for n in (1, 2, 3, 4):
        res = cupcap_check(d4.element("s"), n, fam, depth=2, table=FoldTable())
        assert res.found  # powers of the rotation never reach a reflection
        assert (res.member_index, res.checked) == (0, 1)


def test_cupcap_nonab_rotation_not_excluded():
    d4 = dihedral8()
    fam = ExplicitFamily([FiniteSet.of(d4, ["r"])])
    assert not cupcap_check(d4.element("r"), 1, fam, depth=2,
                            table=FoldTable()).found
    assert not cupcap_check(d4.element("r2"), 2, fam, depth=2,
                            table=FoldTable()).found


def test_cupcap_nonab_matches_product_enumeration():
    """The exclusion search agrees with brute force over n-fold products
    of the starred members, member by member."""
    d4 = dihedral8()
    fam = ExplicitFamily([FiniteSet.of(d4, ["r", "s"]),
                          FiniteSet.of(d4, ["rs"]),
                          FiniteSet.of(d4, ["r2"])])
    for n in (1, 2, 3):
        products = []
        for member in fam.members:
            starred = star(member).base.elements()
            products.append({op_sum(d4, combo).value for combo in
                             itertools.product(starred, repeat=n)})
        for g in d4.elements():
            if g.is_identity():
                continue
            res = cupcap_check(g, n, fam, depth=3, table=FoldTable())
            missing = [i for i, p in enumerate(products) if g.value not in p]
            assert res.found == bool(missing), (n, str(g))
            assert res.skipped_unknown == 0
            if missing:
                assert res.member_index == missing[0]
                assert res.checked == missing[0] + 1
            else:
                assert res.checked == len(fam.members)


# --- Fibonacci endomorphism ---

def test_phi_on_generators():
    assert str(phi_apply(FREE_XY.element("x"))) == "y"
    assert str(phi_apply(FREE_XY.element("y"))) == "x y"


def test_fib_word_matches_iterated_substitution():
    x = FREE_XY.element("x")
    assert str(fib_word(3).word) == "y x y"
    assert str(phi_iterate(x, 3)) == "y x y"
    for n in range(21):
        assert fib_word(n).word.value == phi_iterate(x, n).value


def test_fib_word_lengths_follow_fibonacci():
    lengths = [fib_word(n).length() for n in range(6)]
    assert lengths == [1, 1, 2, 3, 5, 8]


def test_commutator_fixed_by_phi_squared():
    c = commutator(FREE_XY.element("x"), FREE_XY.element("y"))
    assert str(c) == "x y x^-1 y^-1"
    assert phi_iterate(c, 2).value == c.value
    assert phi_apply(c).value == op_neg(c).value


def test_phi_iterate_composes():
    rng = random.Random(5)
    for _ in range(20):
        letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 6))]
        w = FREE_XY.element(letters)
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        assert phi_iterate(w, m + n).value == \
            phi_iterate(phi_iterate(w, m), n).value


def test_verify_fib_identity_small():
    for n in range(6):
        assert verify_fib_identity(n).status is Status.VERIFIED


def test_phi_rejects_foreign_generators():
    other = FREE_XY
    from grouptop import FreeGroup
    abc = FreeGroup(("a", "b"))
    with pytest.raises(ValueError):
        phi_apply(abc.element("a"))
