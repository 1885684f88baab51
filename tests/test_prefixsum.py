"""Decomposition membership: exact routes, witnesses, honest unknowns."""

import random

import pytest

from grouptop import (
    FiniteSet,
    Integers,
    ResidueSet,
    SymmetricInterval,
    TailSet,
    contains,
    prefix_sum_membership,
    star,
)
from grouptop.examples import sqrt7_set
from grouptop.groups import Rationals, op_sum
from grouptop.prefixsum import SEARCH_BUDGET, decomposition_recheck
from grouptop.sequences import prefix_sequence
from grouptop.setspec import witness_holds

Z = Integers()


def assert_witness_ok(res, g, chain):
    assert res.is_yes()
    for s, spec in zip(res.witness, chain):
        assert contains(star(spec), s)
    assert op_sum(g.group, res.witness).value == g.value


def test_identity_in_any_chain():
    chain = [sqrt7_set(2), TailSet.of("powers3", 1)]
    res = prefix_sum_membership(Z.element(0), chain)
    assert res.is_yes()
    assert all(s.value == 0 for s in res.witness)


def test_empty_chain_is_identity_only():
    assert prefix_sum_membership(Z.element(0), []).is_yes()
    assert prefix_sum_membership(Z.element(3), []).is_no()


def test_sqrt7_two_sets_contain_one():
    # oracle: 5 + 5 = 10 = 1 mod 9, so 1 lies in the two-fold class sum
    chain = [sqrt7_set(2), sqrt7_set(2)]
    res = prefix_sum_membership(Z.element(1), chain)
    assert_witness_ok(res, Z.element(1), chain)


def test_sqrt7_single_set_excludes_one():
    res = prefix_sum_membership(Z.element(1), [sqrt7_set(2)])
    assert res.is_no()


def test_mixed_modulus_chain_witness():
    # needs the CRT representative: 1 = 14 + (-13) across levels 2 and 3
    chain = [sqrt7_set(2), sqrt7_set(3)]
    res = prefix_sum_membership(Z.element(1), chain)
    assert_witness_ok(res, Z.element(1), chain)


def test_interval_chain_witness_exact():
    q = Rationals()
    chain = [SymmetricInterval.of(1), SymmetricInterval.of("1/4")]
    res = prefix_sum_membership(q.element(1), chain)
    assert_witness_ok(res, q.element(1), chain)
    out = prefix_sum_membership(q.element(2), chain)
    assert out.is_no()


def test_tail_chain_divisor_exclusion():
    chain = [TailSet.of("powers3", 2), TailSet.of("powers3", 3)]
    res = prefix_sum_membership(Z.element(5), chain)
    assert res.is_no()
    assert res.proof["route"] == "divisor"
    assert res.proof["chain_divisor"] == 9


def test_tail_chain_witness_found():
    chain = [TailSet.of("powers3", 0), TailSet.of("powers3", 1)]
    res = prefix_sum_membership(Z.element(4), chain)
    assert_witness_ok(res, Z.element(4), chain)  # 1 + 3


def test_tail_chain_envelope_exclusion():
    # signed sums of two powers of 3 never reach 5; the residue envelope
    # modulo 27 certifies it exactly
    chain = [TailSet.of("powers3", 0), TailSet.of("powers3", 0)]
    res = prefix_sum_membership(Z.element(5), chain)
    assert res.is_no()
    assert res.proof["route"] == "residue-envelope"


def test_tail_chain_unknown_is_honest():
    # Fibonacci tails carry no divisor structure, so nothing upgrades the
    # failed bounded search to an exact exclusion
    chain = [TailSet.of("fibonacci", 0), TailSet.of("fibonacci", 0)]
    res = prefix_sum_membership(Z.element(40), chain)
    assert res.status == "unknown"


def test_single_tail_set_exact_membership():
    res = prefix_sum_membership(Z.element(-27), [TailSet.of("powers3", 2)])
    assert res.is_yes()
    res2 = prefix_sum_membership(Z.element(5), [TailSet.of("powers3", 0)])
    assert res2.is_no()
    assert res2.proof["route"] == "single-set"


def test_monotonicity_yes_extends():
    rng = random.Random(3)
    cases = 0
    while cases < 60:
        mod = rng.choice([3, 9, 27])
        sets = [ResidueSet.of(mod, {rng.randrange(mod) for _ in range(2)})
                for _ in range(rng.randint(1, 3))]
        g = Z.element(rng.randrange(-20, 21))
        res = prefix_sum_membership(g, sets)
        if not res.is_yes():
            continue
        cases += 1
        extended = sets + [rng.choice([ResidueSet.of(9, {7}),
                                       FiniteSet.of(Z, [2, 4])])]
        assert prefix_sum_membership(g, extended).is_yes()


def test_witness_reverification_bulk():
    rng = random.Random(11)
    verified = 0
    for _ in range(900):
        kind = rng.random()
        if kind < 0.5:
            chain = [ResidueSet.of(rng.choice([3, 9, 27]),
                                   {rng.randrange(9) % 3 ** rng.randint(1, 3)
                                    for _ in range(rng.randint(1, 3))})
                     for _ in range(rng.randint(1, 3))]
        else:
            chain = [FiniteSet.of(Z, [rng.randrange(-6, 7)
                                      for _ in range(rng.randint(1, 4))])
                     for _ in range(rng.randint(1, 3))]
        g = Z.element(rng.randrange(-30, 31))
        res = prefix_sum_membership(g, chain)
        if res.is_yes():
            assert_witness_ok(res, g, chain)
            verified += 1
    assert verified >= 200


def test_two_set_d4_chains_against_brute_force():
    """Every pair of 1- and 2-element D4 sets and every element: membership
    never raises, each "yes" witness holds, and the answer matches the
    product set of the two starred sets (summands peel off on the left)."""
    import itertools
    from grouptop.fixtures import dihedral8
    d4 = dihedral8()
    names = [el.value for el in d4.elements()]
    sets = [FiniteSet.of(d4, combo) for k in (1, 2)
            for combo in itertools.combinations(names, k)]
    for a, b in itertools.product(sets, repeat=2):
        chain = [a, b]
        reachable = {op_sum(d4, pair).value for pair in itertools.product(
            star(a).base.elements(), star(b).base.elements())}
        for g in d4.elements():
            res = prefix_sum_membership(g, chain)
            assert res.status in ("yes", "no")
            assert res.is_yes() == (g.value in reachable), (chain, str(g))
            if res.is_yes():
                assert witness_holds(g, res.witness, chain)


def test_bounded_search_budget_respected():
    seq = prefix_sequence("sparse", [3, 1000, 1002])
    chain = [TailSet.of(seq, 0), TailSet.of(seq, 0)]
    # 2 = 1002 - 1000, but both summands lie past the value cap
    # value_cap_factor * 2 * |2| = 4, so the search stays unknown
    assert witness_holds(Z.element(2), [Z.element(1002), Z.element(-1000)],
                         chain)
    res = prefix_sum_membership(Z.element(2), chain)
    assert res.status == "unknown"
    assert res.proof == {"route": "bounded-search", "budget": SEARCH_BUDGET}
    # 6 = 3 + 3 lies inside the cap 2 * |6| = 12
    res = prefix_sum_membership(Z.element(6), chain)
    assert res.is_yes() and [s.value for s in res.witness] == [3, 3]


def test_decomposition_recheck_agrees():
    chain = [TailSet.of("powers3", 1), TailSet.of("powers3", 2)]
    assert not decomposition_recheck(Z.element(5), chain)
    chain2 = [TailSet.of("powers3", 0), TailSet.of("powers3", 1)]
    assert decomposition_recheck(Z.element(4), chain2)


def test_chain_must_share_ambient_group():
    with pytest.raises(ValueError):
        prefix_sum_membership(Z.element(1), [SymmetricInterval.of(1)])
