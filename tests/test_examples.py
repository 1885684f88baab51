"""The three counterexample constructions and their certificates."""

import pytest

from grouptop import Integers, ProductMod, ResidueSet
from grouptop import examples as ex
from grouptop.examples import (
    HenselError,
    hensel_sqrt,
    product_cover_levels,
    product_cover_witness,
    product_set,
    random_product_elements,
    small_representable,
    sqrt7_cover_witness,
    sqrt7_set,
    verify_interval_example,
    verify_product_sum_full,
    verify_product_union_small,
    verify_sqrt7_U_full,
    verify_sqrt7_necessary,
)
from grouptop.report import Status
from grouptop.setspec import EnumerationBudgetError, FoldTable, witness_holds

Z = Integers()


# --- Hensel lifting ---

def brute_force_roots(a, p, k):
    pk = p ** k
    return sorted(c for c in range(pk) if (c * c - a) % pk == 0)


def test_hensel_frozen_levels():
    # oracle: brute force residues mod 3, 9, 27
    assert brute_force_roots(7, 3, 1) == [1, 2]
    assert brute_force_roots(7, 3, 2) == [4, 5]
    assert brute_force_roots(7, 3, 3) == [13, 14]
    assert hensel_sqrt(7, 3, 1).root == 1
    assert hensel_sqrt(7, 3, 2).root == 4
    assert hensel_sqrt(7, 3, 3).root == 13


def test_hensel_matches_exhaustive_search_up_to_level_10():
    for k in range(1, 11):
        root = hensel_sqrt(7, 3, k).root
        assert root in brute_force_roots(7, 3, k)


def test_hensel_lifting_chain_consistency():
    prev = None
    for k in range(1, 11):
        w = hensel_sqrt(7, 3, k)
        assert (w.root * w.root - 7) % (3 ** k) == 0
        if prev is not None:
            mod = 3 ** (k - 1)
            assert w.root % mod in (prev % mod, (-prev) % mod)
        prev = w.root


def test_hensel_rejects_non_residue():
    with pytest.raises(HenselError):
        hensel_sqrt(2, 3, 1)
    with pytest.raises(HenselError):
        hensel_sqrt(7, 3, 0)
    with pytest.raises(HenselError):
        hensel_sqrt(7, 9, 2)  # not prime


def test_sqrt7_sets_frozen():
    assert sqrt7_set(1) == ResidueSet.of(3, {0, 1, 2})
    assert sqrt7_set(2) == ResidueSet.of(9, {0, 4, 5})
    assert sqrt7_set(3) == ResidueSet.of(27, {0, 13, 14})


# --- necessary condition ---

def test_necessary_g1_n1():
    rep = verify_sqrt7_necessary(1, 1, FoldTable())
    assert rep.status is Status.VERIFIED
    assert rep.payload["k"] == 2


def test_necessary_g3_n2():
    # oracle: recompute the divisibility targets by hand
    targets = [9 - 7 * m * m for m in range(3)]
    assert targets == [9, 2, -19]
    # 3 | 9 and 9 | 9, so k = 3 is the first level dividing none
    rep = verify_sqrt7_necessary(3, 2, FoldTable())
    assert rep.status is Status.VERIFIED
    assert rep.payload["k"] == 3
    assert rep.payload["divisibility_targets"] == targets


def test_necessary_rejects_zero():
    with pytest.raises(ValueError):
        verify_sqrt7_necessary(0, 1, FoldTable())


def test_necessary_sign_symmetric():
    assert verify_sqrt7_necessary(-5, 2, FoldTable()).payload["k"] == \
        verify_sqrt7_necessary(5, 2, FoldTable()).payload["k"]


# --- full cover over the integers ---

def test_cover_m0_1_trivial():
    rep = verify_sqrt7_U_full(1, [1, 1, 1], [0, 1, -4], FoldTable())
    assert rep.status is Status.VERIFIED


def test_cover_witness_spec_case_g1():
    # h = 1 * c^-1 mod 9 with c = 4, so h = 7: seven lifted roots, two
    # zeros, and the corrector -27 from the base set
    w = sqrt7_cover_witness(1, 2, [2] * 9)
    values = [s.value for s in w]
    assert values[0] == -27
    assert values[1:].count(4) == 7 and values[1:].count(0) == 2
    assert witness_holds(Z.element(1), w, [sqrt7_set(2)] * 10, FoldTable())


def test_cover_witness_lifted_levels_g5():
    # followers at level 3 lift the root to 13 = 4 mod 9; h = 5*7 mod 9 = 8
    w = sqrt7_cover_witness(5, 2, [3] * 9)
    values = [s.value for s in w]
    assert values[1:].count(13) == 8 and values[1:].count(0) == 1
    assert sum(values) == 5
    assert witness_holds(Z.element(5), w,
                         [sqrt7_set(2)] + [sqrt7_set(3)] * 9, FoldTable())


@pytest.mark.parametrize("summands", [
    lambda g, n: [g] + [0] * n,  # 1 lies outside the level-2 star {0, 4, 5}
    lambda g, n: [0] * (n + 1),  # every summand in its star, sum 0
], ids=["summand-outside-its-star", "wrong-sum"])
def test_cover_refutes_a_witness_that_fails_the_claims_stars(monkeypatch,
                                                             summands):
    """Each sample's summands are checked against the stars the claim
    folds: a witness with a summand outside its star, or one that does
    not total its target, refutes the cover though the fold covers Z."""
    monkeypatch.setattr(ex, "sqrt7_cover_witness", lambda g, m0, ms: tuple(
        map(Z.element, summands(g, len(ms)))))
    rep = verify_sqrt7_U_full(2, [2] * 9, [1], FoldTable())
    assert rep.payload["sum_equals_all_residues"]
    assert rep.status is Status.REFUTED


def test_cover_report_mixed_levels():
    rep = verify_sqrt7_U_full(2, [1, 2, 3, 4, 5, 1, 2, 3, 4],
                              list(range(-10, 11)), FoldTable())
    assert rep.status is Status.VERIFIED
    assert rep.payload["sum_equals_all_residues"]


def test_cover_rejects_wrong_length():
    with pytest.raises(ValueError):
        verify_sqrt7_U_full(2, [2] * 8, [1], FoldTable())


# --- product boxes ---

def test_product_set_coordinate_options():
    b1 = product_set(3, 1)
    assert b1.coordinate_options(1) == frozenset({0})
    assert b1.coordinate_options(2) == frozenset({0, 1})  # unconstrained
    b3 = product_set(4, 3)
    assert b3.coordinate_options(3) == frozenset({0, 1, 2})
    b4 = product_set(4, 4)
    assert b4.coordinate_options(4) == frozenset({0, 1, 3})
    with pytest.raises(ValueError):
        product_set(4, 5)


def test_product_cover_witness_spec_case():
    g6 = ProductMod(6)
    g = g6.element((0, 1, 2, 3, 4, 5))
    w = product_cover_witness(g, 2, [3, 4])
    assert len(w) == 3
    assert witness_holds(g, w, [product_set(6, m) for m in (2, 3, 4)],
                         FoldTable())


def test_product_cover_identity_witness():
    g6 = ProductMod(6)
    w = product_cover_witness(g6.identity(), 2, [2, 2])
    assert all(s.value == g6.identity_value() for s in w)
    assert witness_holds(g6.identity(), w, [product_set(6, 2)] * 3,
                         FoldTable())


def test_product_cover_report_random():
    samples = random_product_elements(6, 50, seed=3)
    rep = verify_product_sum_full(6, 3, samples, FoldTable())
    assert rep.status is Status.VERIFIED


def test_product_cover_refuses_levels_its_id_cannot_name():
    """A product-cover id names N and m0 only, so the follower levels are
    the recipe's, min(m0 + i + 1, N), and the cover takes no others."""
    assert product_cover_levels(6, 2) == [3, 4]
    assert product_cover_levels(4, 3) == [4, 4, 4]


@pytest.mark.parametrize("build", [
    lambda: verify_product_union_small(1000, 1, FoldTable()),
    lambda: verify_product_union_small(6, 10 ** 5, FoldTable()),
    lambda: product_cover_levels(10 ** 9, 10 ** 9),
    lambda: random_product_elements(6, 40_000, seed=3),
    lambda: verify_product_sum_full(
        6, 3, [ProductMod(6).identity()] * 10_000, FoldTable()),
    lambda: verify_sqrt7_U_full(2, [2] * 9, range(-10_000, 10_001),
                                FoldTable()),
], ids=["union-N-1000", "union-n-10^5", "cover-m0-10^9", "samples-40000",
        "product-cover-witnesses", "sqrt7-cover-witnesses"])
def test_product_claims_refuse_past_the_cap(build):
    """The union's n-fold sums and the cover's suffix folds are bounded
    from N, n and m0 before any box is built, and the covers' sample
    witnesses (20,001 x 10 and 10,000 x 4 x 6 summand values) and the
    product samples (40,000 x 6 coordinates) from their counts before any
    is built."""
    with pytest.raises(EnumerationBudgetError, match="enumeration cap"):
        build()


def test_union_small_n1():
    rep = verify_product_union_small(6, 1, FoldTable())
    assert rep.status is Status.VERIFIED
    # coordinate 4 misses residue 2, giving the excluded element
    assert rep.payload["excluded_element"] == [0, 0, 0, 2, 0, 0]
    inter = rep.payload["intersection"]
    assert inter["allowed"][3] == [0, 1, 3]


def test_union_small_n2_coordinate6():
    rep = verify_product_union_small(6, 2, FoldTable())
    assert rep.status is Status.VERIFIED
    assert rep.payload["intersection"]["allowed"][5] == [0, 1, 2, 4, 5]


def test_union_small_truncation_artifact():
    rep = verify_product_union_small(4, 4, FoldTable())
    assert rep.status is Status.VERIFIED
    assert rep.payload["whole_group"] and rep.payload["truncation_artifact"]


def test_union_small_matches_brute_force():
    # independent oracle: enumerate all 720 elements and test membership in
    # every n-fold box directly from the small-representability definition
    n_coords, n = 6, 1
    rep = verify_product_union_small(n_coords, n, FoldTable())
    inter = rep.payload["intersection"]
    import itertools
    g6 = ProductMod(n_coords)
    for vec in itertools.product(*(range(c) for c in range(1, n_coords + 1))):
        in_all = all(
            all(vec[i] in small_representable(i + 1, n)
                for i in range(m))
            for m in range(1, n_coords + 1)
        )
        boxed = all(vec[i] in set(inter["allowed"][i])
                    for i in range(n_coords))
        assert in_all == boxed, vec


# --- intervals ---

def test_interval_example_verified():
    rep = verify_interval_example(10, FoldTable())
    assert rep.status is Status.VERIFIED
    assert rep.payload["one_outside_unit_interval"]
    sched = rep.payload["schedule"]
    assert len(sched) == 11
    assert sched[0]["witness"] == ["1/2", "1/2"]
    assert sched[2]["epsilon"] == "1/4"
    assert sched[2]["witness"] == ["7/8", "1/8"]

