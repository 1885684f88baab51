"""Set descriptions: the star/sumset/membership algebra."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from grouptop import (
    BoxSet,
    FiniteSet,
    GroupMismatchError,
    Integers,
    ResidueSet,
    StarSet,
    SymmetricInterval,
    TailSet,
    contains,
    n_fold_star,
    op_sum,
    spec_from_json,
    star,
    subset_of,
    sumset,
)
from grouptop.fixtures import dihedral8
from grouptop.sequences import (
    SequenceError,
    get_sequence,
    prefix_sequence,
)
from grouptop.setspec import (
    EnumerationBudgetError,
    FoldTable,
    SumsetUnsupported,
    divides,
    divisor_certificate,
    residue_envelope,
    suffix_folds,
    witness_holds,
)

Z = Integers()


# --- star ---

def test_star_residues_mod9():
    # oracle: negate each residue mod 9 by hand: -4 = 5, -5 = 4
    s = star(ResidueSet.of(9, {0, 4, 5}))
    assert s.base == ResidueSet.of(9, {0, 4, 5})


def test_star_finite_adds_negations_and_zero():
    s = star(FiniteSet.of(Z, [2]))
    assert {el.value for el in s.base.elements()} == {-2, 0, 2}


def test_star_interval_is_itself():
    spec = SymmetricInterval.of(1)
    assert star(spec).base == spec


def test_star_empty_set_is_identity():
    s = star(FiniteSet.of(Z, []))
    assert {el.value for el in s.base.elements()} == {0}


def test_star_idempotent_and_symmetric():
    probes = [Z.element(v) for v in range(-30, 31)]
    for spec in [ResidueSet.of(9, {2, 3}), FiniteSet.of(Z, [1, 5, -7]),
                 TailSet.of("powers3", 1)]:
        once = star(spec)
        twice = star(once)
        for p in probes:
            assert contains(once, p) == contains(twice, p)
            assert contains(once, p) == contains(once, Z.element(-p.value))


# --- sumset ---

def test_sumset_residues_oracle():
    # oracle: enumerate the 3x3 residue sums mod 9
    a = ResidueSet.of(9, {0, 4, 5})
    expected = {(x + y) % 9 for x in (0, 4, 5) for y in (0, 4, 5)}
    assert expected == {0, 1, 4, 5, 8}
    out = sumset(a, a)
    assert out == ResidueSet.of(9, expected)


def test_sumset_intervals_add():
    out = sumset(SymmetricInterval.of(1), SymmetricInterval.of("1/4"))
    assert out == SymmetricInterval.of("5/4")


def test_sumset_mixed_moduli_gcd_law():
    # class(4, 9) + class(13, 27) = class(17 mod 9, 9) = class(8, 9)
    out = sumset(ResidueSet.of(9, {4}), ResidueSet.of(27, {13}))
    assert out == ResidueSet.of(9, {8})
    # sampling oracle: 100 representatives a side
    rng = random.Random(0)
    for _ in range(100):
        x = 4 + 9 * rng.randrange(-50, 50)
        y = 13 + 27 * rng.randrange(-50, 50)
        assert out.contains_value(x + y)


def test_sumset_finite_shifts_residue_classes():
    out = sumset(FiniteSet.of(Z, [1, 2]), ResidueSet.of(6, {0, 3}))
    assert out == ResidueSet.of(6, {1, 4, 2, 5})
    out2 = sumset(ResidueSet.of(6, {0, 3}), FiniteSet.of(Z, [1, 2]))
    assert out2 == out


def test_sumset_unsupported_pairs():
    with pytest.raises(SumsetUnsupported):
        sumset(TailSet.of("powers3", 0), TailSet.of("powers3", 0))
    with pytest.raises(SumsetUnsupported):
        sumset(star(TailSet.of("powers3", 0)), ResidueSet.of(3, {0}))


@settings(max_examples=200)
@given(st.sets(st.integers(-40, 40), max_size=20),
       st.sets(st.integers(-40, 40), max_size=20))
def test_sumset_finite_matches_brute_force(xs, ys):
    out = sumset(FiniteSet.of(Z, xs), FiniteSet.of(Z, ys))
    brute = {x + y for x in xs for y in ys}
    assert {el.value for el in out.elements()} == brute


@settings(max_examples=100)
@given(st.integers(1, 60), st.integers(1, 60),
       st.integers(0, 59), st.integers(0, 59), st.data())
def test_residue_sumset_law_by_sampling(m1, m2, a, b, data):
    out = sumset(ResidueSet.of(m1, {a % m1}), ResidueSet.of(m2, {b % m2}))
    g = math.gcd(m1, m2)
    assert out == ResidueSet.of(g, {(a + b) % g})
    s = data.draw(st.integers(-30, 30))
    t = data.draw(st.integers(-30, 30))
    assert out.contains_value((a % m1 + s * m1) + (b % m2 + t * m2))


# --- contains ---

def test_contains_examples():
    assert contains(ResidueSet.of(9, {0, 4, 5}), Z.element(13))
    assert not contains(SymmetricInterval.of(1), Rationals_one())
    starred_tail = star(TailSet.of("powers3", 2))
    assert contains(starred_tail, Z.element(-27))
    assert not contains(starred_tail, Z.element(-3))
    assert contains(starred_tail, Z.element(0))


def _witness_holds_reference(target, summands, sets):
    """witness_holds by its definition: every star membership, then the
    ordered sum."""
    return len(summands) == len(sets) and \
        all(contains(star(spec), s) for s, spec in zip(summands, sets)) and \
        op_sum(target.group, summands).value == target.value


def _outcome(check, *args):
    try:
        return check(*args)
    except GroupMismatchError as err:
        return f"raises: {err}"


_D4 = dihedral8()
_WITNESS_FAULTS = ("short", "long", "outside", "wrong-product",
                   "foreign-factor", "foreign-target")


@st.composite
def _d4_witness_side(draw):
    """D4 sets, one star member per set, and a strategy of any element."""
    sets = draw(st.lists(st.sets(st.sampled_from(_D4.names)).map(
        lambda names: FiniteSet.of(_D4, names)), max_size=4))
    members = [draw(st.sampled_from(star(spec).base.elements()))
               for spec in sets]
    return sets, members, st.sampled_from(_D4.names).map(_D4.element)


@st.composite
def _residue_witness_side(draw):
    """Residue sets, one star member per set, and a strategy of any
    integer."""
    sets = draw(st.lists(st.integers(1, 12).flatmap(
        lambda m: st.sets(st.integers(0, m - 1)).map(
            lambda rs: ResidueSet(m, frozenset(rs)))), max_size=4))
    members = [Z.element(draw(st.sampled_from(
        sorted(star(spec).base.residues))) + spec.modulus *
        draw(st.integers(-3, 3))) for spec in sets]
    return sets, members, st.integers(-40, 40).map(Z.element)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_witness_holds_matches_its_definition(data):
    """Over D4 and residue sets, valid witnesses and witnesses with any
    mix of faults (the wrong length, a factor outside its star, a wrong
    product, a factor or the target from another group): witness_holds
    answers as its definition does, and raises the same message."""
    d4_side = data.draw(st.booleans())
    sets, summands, anything = data.draw(
        _d4_witness_side() if d4_side else _residue_witness_side())
    foreign = (st.integers(-5, 5).map(Z.element) if d4_side
               else st.sampled_from(_D4.names).map(_D4.element))
    group = _D4 if d4_side else Z
    target = op_sum(group, summands)
    faults = data.draw(st.lists(st.sampled_from(_WITNESS_FAULTS),
                                max_size=3))
    for fault in faults:
        positions = st.integers(0, max(len(summands) - 1, 0))
        if fault == "short":
            summands = summands[:-1]
        elif fault == "long":
            summands = summands + [data.draw(anything)]
        elif fault == "outside" and summands:
            summands[data.draw(positions)] = data.draw(anything)
        elif fault == "wrong-product":
            target = data.draw(anything)
        elif fault == "foreign-factor" and summands:
            summands[data.draw(positions)] = data.draw(foreign)
        elif fault == "foreign-target":
            target = data.draw(foreign)
    if data.draw(st.booleans()):
        sets = [star(spec) for spec in sets]
    got = _outcome(witness_holds, target, summands, sets, FoldTable())
    assert got == _outcome(_witness_holds_reference, target, summands, sets)
    if not faults:
        assert got is True
    if faults == ["foreign-factor"] and summands:
        assert got.startswith("raises: element of ")
    if faults == ["foreign-target"] and summands:
        assert got.startswith("raises: elements of ")


def Rationals_one():
    from grouptop import Rationals
    return Rationals().element(1)


def test_tail_membership_respects_exclusions():
    t = TailSet.of("powers3", 1, excluded={2})
    assert contains(t, Z.element(3))
    assert not contains(t, Z.element(9))  # index 2 excluded
    assert contains(t, Z.element(27))


# --- n_fold_star ---

def test_n_fold_star_examples():
    s = ResidueSet.of(9, {0, 4, 5})
    assert n_fold_star(s, 1) == star(s).base
    assert n_fold_star(s, 2) == ResidueSet.of(9, {0, 1, 4, 5, 8})
    out = n_fold_star(FiniteSet.of(Z, [1]), 3)
    assert {el.value for el in out.elements()} == set(range(-3, 4))


def iterated_n_fold(spec, n):
    """The n-fold star as the iterated fold A_{k+1} = sumset(A_k, S*)."""
    base = star(spec).base
    out = base
    for _ in range(n - 1):
        out = sumset(out, base)
    return out


def test_n_fold_star_matches_iterated_sumset():
    """The table's growth against the iterated fold, on seeded residue
    sets, finite integer sets and D4 sets (products on the right),
    n = 1..8."""
    from grouptop.fixtures import dihedral8
    d4 = dihedral8()
    names = [el.value for el in d4.elements()]
    rng = random.Random(17)
    specs = []
    for _ in range(30):
        m = rng.choice([1, 2, 3, 9, 27, 81, 100, 243, 2187])
        specs.append(ResidueSet.of(m, rng.sample(range(m),
                                                 rng.randint(0, min(m, 3)))))
        specs.append(FiniteSet.of(Z, rng.sample(range(-30, 31),
                                                rng.randint(0, 4))))
        specs.append(FiniteSet.of(d4, rng.sample(names, rng.randint(0, 2))))
    for spec in specs:
        for n in range(1, 9):
            assert n_fold_star(spec, n) == iterated_n_fold(spec, n), (spec, n)


def test_n_fold_star_raises_at_the_iterated_folds_step():
    """[-150, 150] folds to 601 sums, then 901: 901 x 301 passes the cap
    on the step to n = 4, in both folds and with the same message."""
    spec = FiniteSet.of(Z, range(1, 151))
    for n in range(1, 4):
        assert n_fold_star(spec, n) == iterated_n_fold(spec, n)
    for n in (4, 6):
        with pytest.raises(EnumerationBudgetError) as ours:
            n_fold_star(spec, n)
        with pytest.raises(EnumerationBudgetError) as iterated:
            iterated_n_fold(spec, n)
        assert str(ours.value) == str(iterated.value) == (
            "sumset of 901 x 301 elements exceeds the enumeration cap "
            "200000")


def test_n_fold_star_grows_by_a_loop():
    """Growth is iterative: a depth past the recursion limit returns."""
    assert FoldTable().n_fold_star(ResidueSet.of(3, {1}), 5000) == \
        ResidueSet.of(3, {0, 1, 2})


def test_n_fold_star_rejects_tails():
    with pytest.raises(SumsetUnsupported):
        n_fold_star(TailSet.of("powers3", 0), 2)


# --- FoldTable ---

def _seeded_specs() -> list:
    """Seeded residue, integer-finite, D4-finite, box and interval sets."""
    from fractions import Fraction
    from grouptop.fixtures import dihedral8
    d4 = dihedral8()
    names = [el.value for el in d4.elements()]
    rng = random.Random(23)
    specs = []
    for _ in range(12):
        m = rng.choice([1, 3, 9, 27, 81, 100, 243])
        specs.append(ResidueSet.of(m, rng.sample(range(m),
                                                 rng.randint(0, min(m, 3)))))
        specs.append(FiniteSet.of(Z, rng.sample(range(-30, 31),
                                                rng.randint(0, 4))))
        specs.append(FiniteSet.of(d4, rng.sample(names, rng.randint(0, 2))))
        coords = rng.randint(2, 6)
        specs.append(BoxSet.of(coords, [
            {v % c for v in (-1, 0, 1)} if rng.random() < 0.5 else {0}
            for c in range(1, rng.randint(1, coords) + 1)]))
        specs.append(SymmetricInterval(Fraction(1, rng.randint(1, 64))))
    return specs


def test_fold_table_matches_uncached_algebra():
    """First and repeated lookups equal the uncached star, n_fold_star
    and suffix_folds; a set rebuilt from JSON hits the same entry."""
    specs = _seeded_specs()
    table = FoldTable()
    for _ in range(2):
        for spec in specs:
            assert table.star(spec) == star(spec)
            rebuilt = spec_from_json(spec.to_json())
            assert table.star(rebuilt) is table.star(spec)
            for n in range(1, 5):
                assert table.n_fold_star(spec, n) == n_fold_star(spec, n)
                assert table.n_fold_star(rebuilt, n) is \
                    table.n_fold_star(spec, n)
    rng = random.Random(5)
    for _ in range(60):
        first = rng.choice(specs)
        # a chain of sets that share an ambient group
        chain = [s for s in specs if s.ambient() == first.ambient()]
        chain = rng.sample(chain, min(len(chain), rng.randint(1, 4)))
        stars = [table.star(s) for s in chain]
        want = suffix_folds([star(s) for s in chain])
        assert table.suffix_folds(stars) == want
        assert table.suffix_folds(stars) == want


def test_fold_table_keys_no_tail():
    """Tails have no exact fold: the table raises as the uncached call
    does, every time, and keys no n-fold sum or suffix fold for a tail;
    only the tail's own star is keyed, and it stays marked."""
    tail = TailSet.of("powers3", 2)
    table = FoldTable()
    for _ in range(2):
        assert table.star(tail) == star(tail)
        assert table.star(TailSet.of("powers3", 2)) is table.star(tail)
        assert not table.star(tail).materialized
        with pytest.raises(SumsetUnsupported) as plain:
            n_fold_star(tail, 2)
        with pytest.raises(SumsetUnsupported) as cached:
            table.n_fold_star(tail, 2)
        assert str(cached.value) == str(plain.value)
        assert table.suffix_folds([star(tail), star(ResidueSet.of(3, {1}))]) \
            is None
        assert table.suffix_folds([star(ResidueSet.of(3, {1})), star(tail)]) \
            is None
    assert not table._n_folds and not table._suffix_folds
    assert list(table._stars) == [tail]


def _tail_sequence(data, name: str):
    """A drawn built-in (powers<b>, factorial, fibonacci) or a drawn
    prefix: magnitudes strictly increasing, signs and common factor
    drawn, so its tail divisors vary."""
    kind = data.draw(st.sampled_from(["powers", "factorial", "fibonacci",
                                      "prefix"]))
    if kind == "powers":
        return get_sequence(f"powers{data.draw(st.integers(2, 12))}")
    if kind != "prefix":
        return get_sequence(kind)
    factor = data.draw(st.sampled_from([1, 2, 3, 6, 10]))
    steps = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=14))
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=len(steps),
                               max_size=len(steps)))
    magnitudes = [sum(steps[:i + 1]) for i in range(len(steps))]
    return prefix_sequence(name, [factor * sign * mag for sign, mag
                                  in zip(signs, magnitudes)])


def _read_or_error(read):
    try:
        return read()
    except SequenceError as err:
        return ("SequenceError", str(err))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_fold_table_tail_reads_match_uncached(data):
    """Every tail read the table keys equals the uncached read, first
    and repeated, in any order: member values (and the scan-cap error
    past ``_SCAN_CAP`` terms, with its message), the first divisor above
    a threshold or a multiple of a modulus in a window, the residue
    envelope of a tail and of its star per modulus, None included (the
    uncached one read through a fresh table), and the divisor
    certificate."""
    from grouptop import sequences
    seq = _tail_sequence(data, "table-drawn")
    table = FoldTable()
    tails = []
    for _ in range(data.draw(st.integers(1, 3))):
        start = data.draw(st.integers(0, 9))
        excluded = data.draw(st.sets(st.integers(max(0, start - 2),
                                                 start + 6), max_size=3))
        tails.append(TailSet.of(seq, start, excluded))
    reads = data.draw(st.lists(st.tuples(
        st.sampled_from(["values", "window", "envelope", "certificate"]),
        st.integers(0, len(tails) - 1), st.booleans(),
        st.integers(0, 10 ** 7), st.integers(1, 400)), min_size=1,
        max_size=12))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sequences, "_SCAN_CAP", 12)  # reachable in a test
        for what, i, starred, number, small in reads * 2:
            tail = tails[i]
            spec = star(tail) if starred else tail
            if what == "values":
                assert _read_or_error(
                    lambda: table.member_values(tail, number)) == \
                    _read_or_error(lambda: tail.member_values(number))
            elif what == "window":
                scan = small % 50
                above, multiple_of = (number, 1) if starred else (0, small)
                assert table.divisor_index(
                    seq, tail.start, scan, above=above,
                    multiple_of=multiple_of) == seq.divisor_index(
                    tail.start, scan, above=above, multiple_of=multiple_of)
            elif what == "envelope":  # the tail and its star, either first
                m = small % 30 + 1
                for each in (spec, star(tail) if spec is tail else tail):
                    assert table.residue_envelope(each, m) == \
                        residue_envelope(each, m, FoldTable())
            else:
                for each in (spec, star(tail) if spec is tail else tail):
                    assert table.divisor_certificate(each) == \
                        divisor_certificate(each)
            assert table.star(tail) == star(tail)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fold_table_tail_membership_matches_the_definition(data):
    """``FoldTable.contains`` on a tail and on its star agrees with
    membership as defined, read term by term with no table: v lies in the
    tail when v = x_k for an admitted k, and in its star when v = 0 or v
    or -v lies in the tail.  Values are 0, the first terms of the
    sequence with both signs (before the start and excluded ones too) and
    values between them, asked of a fresh table each and of one table in
    a drawn order, so no answer depends on how far the terms had grown."""
    seq = _tail_sequence(data, "contains-drawn")
    start = data.draw(st.integers(0, 9))
    excluded = data.draw(st.sets(st.integers(max(0, start - 2), start + 6),
                                 max_size=3))
    tail = TailSet.of(seq, start, excluded)
    firsts = [seq.value(k) for k in range(start + 8) if seq.in_range(k)]
    values = {0} | {sign * (abs(x) + d) for x in firsts
                    for sign in (1, -1) for d in (0, 1)}

    def defined(v: int) -> bool:
        k = start
        while seq.in_range(k) and abs(seq.value(k)) <= abs(v):
            if seq.value(k) == v and k not in excluded:
                return True
            k += 1
        return False

    shared = FoldTable()
    for v in data.draw(st.permutations(sorted(values))):
        g = Z.element(v)
        in_tail = defined(v)
        in_star = v == 0 or in_tail or defined(-v)
        assert contains(tail, g) == in_tail and \
            contains(star(tail), g) == in_star, v
        for table in (shared, FoldTable()):
            assert table.contains(tail, g) == in_tail, v
            assert table.contains(table.star(tail), g) == in_star, v
    assert list(shared._terms) == [(seq, start)]


def test_fold_table_repeats_cap_failures(monkeypatch):
    """A fold past the enumeration cap raises the uncached message on
    every lookup; failures are never stored, so each lookup tries the
    failing step again and only that step."""
    from grouptop import setspec
    spec = FiniteSet.of(Z, range(1, 151))
    wide = star(FiniteSet.of(Z, range(0, 1000, 2)))
    table = FoldTable()
    with pytest.raises(EnumerationBudgetError) as plain:
        n_fold_star(spec, 4)
    with pytest.raises(EnumerationBudgetError) as plain_folds:
        suffix_folds([wide, wide])
    steps = []

    def counted_sumset(a, b):
        if isinstance(b, StarSet):  # a step A_k + S* of a fold
            steps.append(len(a.values))
        return sumset(a, b)

    monkeypatch.setattr(setspec, "sumset", counted_sumset)
    # |A_k| of each step tried: the first lookup stores A_2 and A_3 and
    # fails on A_4, the second tries A_4 alone
    for tried in ([301, 601, 901], [901]):
        with pytest.raises(EnumerationBudgetError) as cached:
            table.n_fold_star(spec, 4)
        assert str(cached.value) == str(plain.value)
        assert steps == tried
        steps.clear()
        with pytest.raises(EnumerationBudgetError) as cached:
            table.suffix_folds([wide, wide])
        assert str(cached.value) == str(plain_folds.value)
    assert table.n_fold_star(spec, 3) == iterated_n_fold(spec, 3)
    assert steps == [] and not table._suffix_folds


# --- boxes ---

def test_box_construction_invariants():
    BoxSet.of(4, [{0}, {0, 1}, {0, 1, 2}])
    with pytest.raises(ValueError):
        BoxSet.of(4, [{0}, {1}])  # missing 0
    with pytest.raises(ValueError):
        BoxSet.of(4, [{0}, {0, 1}, {0, 1}])  # 1 needs -1 = 2 mod 3


def test_box_sumset_and_membership():
    from grouptop import ProductMod
    g = ProductMod(4)
    b = BoxSet.of(4, [{0}, {0, 1}, {0, 1, 2}, {0, 1, 3}])
    assert contains(b, g.element((0, 1, 2, 3)))
    assert not contains(b, g.element((0, 0, 0, 2)))
    double = sumset(b, b)
    assert double.coordinate_options(4) == frozenset({0, 1, 2, 3})


# --- subset tests ---

def test_subset_of_pairs():
    assert subset_of(ResidueSet.of(27, {0, 13, 14}), ResidueSet.of(9, {0, 4, 5}))
    assert not subset_of(ResidueSet.of(9, {0, 4, 5}), ResidueSet.of(27, {0, 13, 14}))
    assert subset_of(FiniteSet.of(Z, [9, 18]), ResidueSet.of(9, {0}))
    assert subset_of(SymmetricInterval.of("1/4"), SymmetricInterval.of(1))
    assert subset_of(TailSet.of("powers3", 3), TailSet.of("powers3", 1))
    assert not subset_of(TailSet.of("powers3", 1), TailSet.of("powers3", 3))


@pytest.mark.parametrize("outer", [
    FiniteSet.of(Z, [1, 3, 9, 27]), star(FiniteSet.of(Z, [1, 3, 9, 27])),
    FiniteSet.of(Z, [])], ids=["finite", "starred-finite", "empty"])
def test_unbounded_tail_never_lies_in_a_finite_set(outer):
    """A tail of an unbounded sequence is infinite, excluded indices or
    not, so it lies in no finite set and in no finite set's star."""
    for tail in (TailSet.of("powers3", 0), TailSet.of("powers3", 1, [2, 3]),
                 TailSet.of("fibonacci", 4)):
        assert subset_of(tail, outer) is False


def test_finite_prefix_tail_in_a_finite_set_is_its_admitted_terms():
    seq = prefix_sequence("steps", [1, 2, 5, 11])
    within = FiniteSet.of(Z, [2, 5, 11, 40])
    assert subset_of(TailSet.of(seq, 1), within)
    assert not subset_of(TailSet.of(seq, 0), within)  # 1 is not in it
    assert subset_of(TailSet.of(seq, 0, [0]), within)  # 1 is excluded
    assert not subset_of(TailSet.of(seq, 1), FiniteSet.of(Z, [2, 5]))
    assert subset_of(TailSet.of(seq, 1), star(FiniteSet.of(Z, [-2, 5, 11])))
    assert subset_of(TailSet.of(seq, 4), FiniteSet.of(Z, []))  # no terms


def test_residue_set_in_a_finite_set_only_when_empty():
    finite = FiniteSet.of(Z, range(-20, 21))
    assert subset_of(ResidueSet.of(9, {0, 4}), finite) is False
    assert subset_of(star(ResidueSet.of(9, {4})), star(finite)) is False
    assert subset_of(ResidueSet.of(9, []), finite) is True
    assert subset_of(ResidueSet.of(9, []), FiniteSet.of(Z, [])) is True


# --- divisor certificates ---

def test_divisor_certificates():
    assert divisor_certificate(ResidueSet.of(9, {0, 3, 6})) == 3
    assert divisor_certificate(ResidueSet.of(9, {0, 4, 5})) == 1
    assert divisor_certificate(FiniteSet.of(Z, [6, 10])) == 2
    assert divisor_certificate(FiniteSet.of(Z, [])) == 0
    assert divisor_certificate(TailSet.of("powers3", 4)) == 81
    assert divisor_certificate(star(TailSet.of("powers3", 4))) == 81
    assert divides(0, 0) and not divides(0, 5)
    assert divides(3, -27) and not divides(3, 5)


def test_divisor_certificate_sound_on_samples():
    for spec in [ResidueSet.of(12, {0, 4, 8}), TailSet.of("factorial", 3),
                 FiniteSet.of(Z, [6, -9, 12])]:
        d = divisor_certificate(spec)
        starred = star(spec)
        for v in range(-200, 201):
            if contains(starred, Z.element(v)):
                assert divides(d, v) or d == 1


# --- sequences ---

def test_sequence_registry():
    p3 = get_sequence("powers3")
    assert [p3.value(k) for k in range(5)] == [1, 3, 9, 27, 81]
    assert p3.tail_divisor(4) == 81
    fib = get_sequence("fibonacci")
    assert [fib.value(k) for k in range(6)] == [1, 2, 3, 5, 8, 13]
    fact = get_sequence("factorial")
    assert fact.tail_divisor(3) == 24
    with pytest.raises(SequenceError):
        get_sequence("nope")


def test_powers_sequences_pass_the_spot_check():
    # the sampled check that built-in sequences get at import, for powers<b>
    for b in range(2, 11):
        seq = get_sequence(f"powers{b}")
        vals = [seq.value(k) for k in range(12)]
        assert all(abs(x) < abs(y) for x, y in zip(vals, vals[1:])), b
        for t in range(6):
            assert all(v % seq.tail_divisor(t) == 0 for v in vals[t:]), (b, t)
    with pytest.raises(SequenceError):
        get_sequence("powers1")


def test_prefix_sequence_value_semantics():
    seq = prefix_sequence("test-prefix-a", [1, 10, 100])
    assert seq.value(2) == 100 and seq.length == 3
    assert seq.tail_divisor(1) == 10
    assert prefix_sequence("test-prefix-a", [1, 10, 100]) == seq
    assert prefix_sequence("test-prefix-a", [1, 20]) != seq
    assert get_sequence("powers3") == get_sequence("powers3")
    for name in ("fibonacci", "factorial", "powers3"):
        with pytest.raises(SequenceError):
            prefix_sequence(name, [1, 10, 100])  # built-in names are taken
    with pytest.raises(SequenceError):
        prefix_sequence("test-bad", [3, 2, 1])  # not increasing
    with pytest.raises(SequenceError):
        prefix_sequence("test-bad", [1, 2.5])  # not an integer


def _signed_prefix(rng: random.Random, length: int) -> list:
    """Terms strictly increasing in absolute value, with random signs."""
    out, mag = [], 0
    for _ in range(length):
        mag += rng.randint(1, 5)
        out.append(mag * rng.choice((1, -1)))
    return out


def test_tails_agree_with_brute_force():
    """Membership, member values, the divisor certificate and residue
    envelopes of tails match the admitted terms listed one by one: over
    the built-ins, user prefixes with negative terms, starts at or past a
    prefix's end, and a prefix longer than the envelope's 64-index scan."""
    rng = random.Random(11)
    tails = []
    for name in ("powers2", "powers3", "factorial", "fibonacci"):
        for _ in range(6):
            start = rng.randint(0, 8)
            tails.append(TailSet.of(name, start, rng.sample(
                range(max(0, start - 2), start + 6), rng.randint(0, 3))))
    for i, length in enumerate([1, 3, 6, 70, 90] * 3):
        seq = prefix_sequence(f"brute-{i}", _signed_prefix(rng, length))
        # a start inside the prefix, at its end, or past it
        start = [rng.randint(0, min(length - 1, 4)), length,
                 length + 2][i // 5]
        tails.append(TailSet.of(seq, start, rng.sample(
            range(start, start + 6), rng.randint(0, 3))))
    cap_bound = decided = 0
    for tail in tails:
        seq = tail.sequence
        top = seq.length if seq.length is not None else tail.start + 200
        terms = [seq.value(k) for k in range(top)]
        admitted = [terms[k] for k in range(tail.start, top)
                    if k not in tail.excluded]
        # probe a built-in well below its last listed term
        horizon = top if seq.length is not None else tail.start + 12
        probes = {0, *(rng.randint(-500, 500) for _ in range(10))}
        for v in terms[:horizon]:
            probes.update((v, -v, v + 1, v - 1))
        for v in probes:
            assert contains(tail, Z.element(v)) == (v in admitted), (tail, v)
            assert contains(star(tail), Z.element(v)) == \
                (v == 0 or v in admitted or -v in admitted), (tail, v)
            bound = abs(v)
            assert tail.member_values(bound) == \
                [x for x in admitted if abs(x) <= bound], (tail, bound)
        d = divisor_certificate(tail)
        assert d >= 1 and all(x % d == 0 for x in admitted), (tail, d)
        if seq.length is not None:
            assert d == (math.gcd(*terms[tail.start:]) or 1), tail
        moduli = {*range(1, 25), rng.randint(25, 400)}
        if terms[tail.start:]:
            moduli.add(abs(terms[-1]))  # a divisor of the last tail only
        for m in moduli:
            env = residue_envelope(tail, m, FoldTable())
            if env is None:
                if seq.length is not None:
                    cap_bound += tail.start + 65 < seq.length
                continue
            decided += 1
            assert env == {x % m for x in admitted}, (tail, m)
            assert residue_envelope(star(tail), m, FoldTable()) == \
                env | {0} | {-r % m for r in env}, (tail, m)
    assert cap_bound and decided


def test_residue_envelope_modulo_one_sees_only_whether_a_set_is_empty():
    """Every integer is 0 modulo 1, so the envelope is {0} for a set with
    an element and empty for an empty one; a star always has one."""
    short = prefix_sequence("envelope-one", [1, 2, 3])
    empty = [FiniteSet.of(Z, []), ResidueSet.of(4, []),
             TailSet.of(short, 3), TailSet.of(short, 5),
             TailSet.of(short, 1, excluded={1, 2})]
    inhabited = [FiniteSet.of(Z, [5]), ResidueSet.of(4, [3]),
                 TailSet.of(short, 1, excluded={1}),
                 TailSet.of("fibonacci", 4, excluded={4, 5}),
                 BoxSet.of(3, [{0}]), SymmetricInterval.of("1/2")]
    for spec in empty:
        assert residue_envelope(spec, 1, FoldTable()) == frozenset(), spec
    for spec in empty + inhabited:
        assert residue_envelope(star(spec), 1, FoldTable()) == {0}, spec
    for spec in inhabited:
        assert residue_envelope(spec, 1, FoldTable()) == {0}, spec


# --- JSON round-trips ---

def test_setspec_json_round_trips():
    from grouptop.fixtures import dihedral8
    d4 = dihedral8()
    specs = [
        FiniteSet.of(Z, [-2, 0, 5]),
        ResidueSet.of(9, {0, 4, 5}),
        BoxSet.of(4, [{0}, {0, 1}, {0, 1, 2}]),
        SymmetricInterval.of("3/8"),
        TailSet.of("powers3", 2, excluded={4}),
        FiniteSet.of(d4, ["r", "s"]),
        star(TailSet.of("powers3", 1)),
        TailSet.of(prefix_sequence("user-p", [1, -4, 16]), 1, excluded={2}),
    ]
    for spec in specs:
        doc = spec.to_json()
        back = spec_from_json(doc)
        assert back == spec, doc


@pytest.mark.parametrize("doc", [
    {"kind": "finite", "elements": [1], "bogus": 0},
    {"kind": "residue", "modulus": 3, "residues": [0], "coords": 2},
    {"kind": "residue", "modulus": 3.0, "residues": [0]},
    {"kind": "residue", "modulus": 3, "residues": [0.5]},
    {"kind": "box", "coords": True, "allowed": [[0]]},
    {"kind": "interval", "epsilon": 0.5},
    {"kind": "tail", "sequence": "powers3", "start": 1, "prefx": [1]},
    {"kind": "tail", "sequence": "powers3", "start": "1"},
    {"kind": "tail", "sequence": "powers3", "start": 1, "excluded": [2.0]},
    {"kind": "star", "base": {"kind": "interval", "epsilon": "1/2"},
     "extra": 1},
    {"kind": "star", "materialized": "banana",
     "base": {"kind": "finite", "elements": [3]}},
    {"kind": "star", "materialized": False,
     "base": {"kind": "finite", "elements": [3]}},
    {"kind": "star", "materialized": True,
     "base": {"kind": "tail", "sequence": "powers3", "start": 1}},
    {"kind": "nope"},
    ["kind", "finite"],
], ids=["finite-key", "residue-key", "residue-modulus-float",
        "residue-float", "box-coords-bool", "interval-float", "tail-key",
        "tail-start-string", "tail-excluded-float", "star-key",
        "star-materialized-string", "star-materialized-false-finite",
        "star-materialized-true-tail", "unknown-kind", "not-an-object"])
def test_spec_from_json_refuses_unknown_keys_and_coercion(doc):
    with pytest.raises(ValueError):
        spec_from_json(doc)


def test_residue_envelope_is_sized_before_it_is_built():
    """The odd residues mod 10! would be 1,814,400 residues, past the
    envelope cap of 4,096: None, decided from the class count alone."""
    import tracemalloc
    tracemalloc.start()
    try:
        envelope = residue_envelope(ResidueSet.of(2, [1]), 3628800,
                                    FoldTable())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert envelope is None and peak < 2 ** 20, peak
    assert residue_envelope(ResidueSet.of(2, [1]), 8194, FoldTable()) is None
    assert residue_envelope(ResidueSet.of(2, [1]), 8192, FoldTable()) == \
        frozenset(range(1, 8192, 2))


@pytest.mark.parametrize("left", [
    ResidueSet.of(10 ** 6, range(448)), FiniteSet.of(Z, range(448))],
    ids=["residue+residue", "finite+residue"])
def test_sumset_refuses_residue_pairs_past_the_cap(left):
    """448 x 448 = 200,704 pairs pass the cap and are refused before any
    is formed, in either order, as finite pairs are; 448 x 446 = 199,808
    pairs are summed."""
    wide = ResidueSet.of(10 ** 6, range(448))
    for a, b in [(left, wide), (wide, left)]:
        with pytest.raises(EnumerationBudgetError) as err:
            sumset(a, b)
        assert str(err.value) == \
            "sumset of 448 x 448 elements exceeds the enumeration cap 200000"
    assert sumset(left, ResidueSet.of(10 ** 6, range(446))) == \
        ResidueSet.of(10 ** 6, range(448 + 445))
