"""Group arithmetic: exact laws across every ambient variant."""

import pytest
from hypothesis import given, strategies as st

from grouptop import (
    FreeGroup,
    GroupMismatchError,
    Integers,
    NotAGroupError,
    ProductMod,
    Rationals,
    load_cayley,
    op_add,
    op_conjugate,
    op_neg,
    op_sub,
)
from grouptop import groups
from grouptop.groups import group_from_json, reduce_word
from grouptop.fixtures import dihedral8

Z = Integers()
FREE = FreeGroup(("x", "y"))


def test_integer_addition():
    assert op_add(Z.element(3), Z.element(4)).value == 7


def test_free_reduction_cancels_middle_pair():
    a = FREE.element("x y^-1")
    b = FREE.element("y x")
    assert op_add(a, b).value == (1, 1)  # x x


def test_free_words_round_trip_through_their_printed_form():
    """``element(str(w)) == w``, the identity's "e" included."""
    from grouptop.nonabelian import fib_word
    words = [FREE.identity(), FREE.element("x y^-1 x^-1")] + \
        [fib_word(n).word for n in range(12)]
    for w in words:
        assert FREE.element(str(w)) == w
    assert str(FREE.identity()) == "e"
    assert FREE.element("x e y") == FREE.element("x y")


@given(st.lists(st.text(max_size=3), min_size=1, max_size=3),
       st.lists(st.integers(min_value=-3, max_value=3).filter(bool),
                max_size=10))
def test_free_words_round_trip_for_any_generator_names(names, letters):
    """``element(str(w)) == w`` over every generator list ``FreeGroup``
    accepts; it refuses exactly the lists with a duplicate or with a name
    its parser cannot read back: "e", empty, whitespace, "*" or "^"."""
    unreadable = len(set(names)) < len(names) or any(
        name in ("", "e") or any(c.isspace() or c in "*^" for c in name)
        for name in names)
    try:
        group = FreeGroup(tuple(names))
    except ValueError:
        assert unreadable
        return
    assert not unreadable
    w = group.element([v for v in letters if abs(v) <= len(names)])
    assert group.element(str(w)) == w


@pytest.mark.parametrize("names", [
    ("e", "f"), ("x", "x"), ("",), ("a b",), ("a*b",), ("a^2",), (5,)])
def test_free_group_refuses_unreadable_generator_names(names):
    with pytest.raises(ValueError):
        FreeGroup(names)


@pytest.mark.parametrize("raw", [1.5, 3.7])
def test_group_values_are_never_coerced(raw):
    """Coordinates, letters and table indices are read as integers;
    floats are refused, not truncated."""
    with pytest.raises(ValueError):
        ProductMod(3).element([0, raw, 0])
    with pytest.raises(ValueError):
        FREE.element([1, raw])
    with pytest.raises(ValueError):
        dihedral8().element(raw)
    with pytest.raises(ValueError):
        load_cayley({"order": 2, "table": [[0, 1], [1, raw]]})
    with pytest.raises(ValueError):
        load_cayley({"order": raw, "table": [[0]]})


def test_product_mod_coordinatewise():
    g = ProductMod(3)
    a = g.element((0, 1, 2))
    assert op_add(a, a).value == (0, 0, 1)


def test_neg_examples():
    assert op_neg(Z.element(5)).value == -5
    w = FREE.element("x y")
    assert op_neg(w).value == (-2, -1)  # y^-1 x^-1
    d4 = dihedral8()
    assert op_neg(d4.identity()).value == d4.identity_value()


def test_conjugate_examples():
    g = FREE.element("x")
    s = FREE.element("y")
    assert str(op_conjugate(g, s)) == "x y x^-1"
    # abelian groups conjugate trivially
    assert op_conjugate(Z.element(7), Z.element(3)).value == 3
    # self-commuting word
    assert op_conjugate(g, FREE.element("x x")).value == (1, 1)


def test_mismatched_groups_rejected():
    with pytest.raises(GroupMismatchError):
        op_add(Z.element(1), Rationals().element(1))
    with pytest.raises(GroupMismatchError):
        op_add(FREE.element("x"), FreeGroup(("a", "b")).element("a"))


def test_load_cayley_z2():
    g = load_cayley({"order": 2, "table": [[0, 1], [1, 0]]})
    assert g.order == 2 and g.identity_index == 0
    assert g.is_abelian


def test_load_cayley_rejects_non_group():
    with pytest.raises(NotAGroupError):
        load_cayley({"order": 2, "table": [[0, 1], [0, 1]]})
    with pytest.raises(NotAGroupError):
        load_cayley({"order": 2, "table": [[0, 1]]})


def test_d4_fixture_is_a_group():
    d4 = dihedral8()
    # independent oracle: re-run the three laws on the raw table
    t = d4.table
    n = d4.order
    e = d4.identity_index
    assert all(t[e][x] == x == t[x][e] for x in range(n))
    for a in range(n):
        assert any(t[a][b] == e == t[b][a] for b in range(n))
        for b in range(n):
            for c in range(n):
                assert t[t[a][b]][c] == t[a][t[b][c]]
    assert not d4.is_abelian


def test_d4_exhaustive_group_laws_via_ops():
    d4 = dihedral8()
    els = d4.elements()
    for a in els:
        assert op_add(a, op_neg(a)).value == d4.identity_value()
        for b in els:
            for c in els:
                assert op_add(op_add(a, b), c).value == \
                    op_add(a, op_add(b, c)).value


letters = st.integers(min_value=-2, max_value=2).filter(lambda v: v != 0)


@given(st.lists(letters, max_size=12), st.lists(letters, max_size=12),
       st.lists(letters, max_size=12))
def test_free_reduction_confluent(a, b, c):
    # reduce the concatenation in either association order
    left = reduce_word(tuple(reduce_word(tuple(a) + tuple(b))) + tuple(c))
    right = reduce_word(tuple(a) + tuple(reduce_word(tuple(b) + tuple(c))))
    assert left == right


@given(st.lists(letters, max_size=10), st.lists(letters, max_size=10))
def test_free_group_laws(a, b):
    wa, wb = FREE.element(a), FREE.element(b)
    assert op_add(wa, op_neg(wa)).value == ()
    assert op_neg(op_neg(wa)).value == wa.value
    assert op_neg(op_add(wa, wb)).value == op_add(op_neg(wb), op_neg(wa)).value


@given(st.integers(), st.integers(), st.integers())
def test_integer_laws(a, b, c):
    ea, eb, ec = Z.element(a), Z.element(b), Z.element(c)
    assert op_add(op_add(ea, eb), ec).value == op_add(ea, op_add(eb, ec)).value
    assert op_add(ea, op_neg(ea)).value == 0
    assert op_sub(ea, eb).value == a - b


@given(st.lists(letters, max_size=8), st.lists(letters, max_size=8),
       st.lists(letters, max_size=8))
def test_conjugation_is_homomorphism(g, s1, s2):
    wg, w1, w2 = FREE.element(g), FREE.element(s1), FREE.element(s2)
    lhs = op_conjugate(wg, op_add(w1, w2))
    rhs = op_add(op_conjugate(wg, w1), op_conjugate(wg, w2))
    assert lhs.value == rhs.value


@pytest.mark.parametrize("raw", [[1, 0, 3, 0], [0, 0, 0, -1],
                                 [0, 2, 0, 0]])
def test_product_mod_refuses_coordinates_out_of_range(raw):
    """Coordinate i holds 0..i-1; anything else is refused, not reduced, so
    an edited target cannot read as a different element."""
    with pytest.raises(ValueError, match="lies in"):
        group_from_json({"kind": "product", "coords": 4}).element(raw)


def test_product_mod_coordinate_one_is_zero():
    g = ProductMod(4)
    el = g.element((0, 1, 2, 3))
    assert el.value == (0, 1, 2, 3)
    with pytest.raises(ValueError, match="coordinate 1 lies in 0..0"):
        g.element((1, 1, 2, 3))  # Z/1Z holds 0 alone


def test_rationals_exact():
    q = Rationals()
    from fractions import Fraction
    assert op_add(q.element("1/3"), q.element("1/6")).value == Fraction(1, 2)
    with pytest.raises(ValueError):
        q.element(0.5)


def test_word_parsing_and_display():
    w = FREE.element("x^2 y^-1")
    assert w.value == (1, 1, -2)
    assert str(w) == "x x y^-1"
    assert str(FREE.identity()) == "e"
    with pytest.raises(ValueError):
        FREE.element("z")


def _cap_refusals():
    """One refusal per module that enumerates: each returns whether it
    refused, and none refuses at the shipped cap."""
    from grouptop import cli, examples, nonabelian, prefixsum, setspec

    def refused(call):
        try:
            call()
        except groups.EnumerationBudgetError:
            return True
        return False

    five = setspec.FiniteSet.of(Z, range(5))
    wide = prefixsum._ENVELOPE_BITSET_CAP + 1
    return {
        "cli": lambda tmp: cli.main(
            ["verify", "sqrt7", "--gmax", "3", "--nmax", "2", "--out",
             str(tmp / "grid.json")]) == 1,
        "examples": lambda tmp: refused(
            lambda: examples.random_product_elements(6, 4, 0)),
        "nonabelian": lambda tmp: refused(
            lambda: nonabelian.verify_fib_words(10)),
        "prefixsum": lambda tmp: prefixsum._envelope_sum(
            [frozenset(range(5))] * 2, wide) is None,
        "setspec": lambda tmp: refused(lambda: setspec.sumset(five, five)),
    }


def test_enumeration_cap_is_bound_in_groups_alone():
    """Only ``groups`` binds or names the cap: every other module reads it
    through the rule at call time."""
    import importlib
    import pkgutil
    import grouptop
    binders = []
    for info in pkgutil.iter_modules(grouptop.__path__):
        module = importlib.import_module(f"grouptop.{info.name}")
        with open(module.__file__, encoding="utf-8") as fh:
            named = "_ENUMERATION_CAP" in fh.read()
        if named or "_ENUMERATION_CAP" in vars(module):
            binders.append(info.name)
    assert binders == ["groups"]


@pytest.mark.parametrize("module", ["cli", "examples", "nonabelian",
                                    "prefixsum", "setspec"])
def test_patching_the_one_binding_moves_every_refusal(module, tmp_path,
                                                      monkeypatch, capsys):
    """Six sqrt7 claims, 4 x 6 sample coordinates, 89 fibonacci letters,
    25 envelope pairs and 25 sumset pairs pass the shipped cap and are
    refused once the binding in ``groups`` drops to 5."""
    refusal = _cap_refusals()[module]
    assert not refusal(tmp_path)
    monkeypatch.setattr(groups, "_ENUMERATION_CAP", 5)
    assert refusal(tmp_path)
    capsys.readouterr()
