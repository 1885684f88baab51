"""Decomposition membership: exact routes, witnesses, honest unknowns."""

import dataclasses
import itertools
import random

import pytest

from grouptop import (
    FiniteSet,
    FoldTable,
    Integers,
    ResidueSet,
    SymmetricInterval,
    TailSet,
    contains,
    prefix_sum_membership,
    star,
)
from grouptop.examples import sqrt7_set
from grouptop.groups import GroupElement, Rationals, op_sum
from grouptop import groups, prefixsum
from grouptop.prefixsum import SEARCH_BUDGET
from grouptop.sequences import IntegerSequence, get_sequence, prefix_sequence
from grouptop.setspec import witness_holds

Z = Integers()


def assert_witness_ok(res, g, chain):
    assert res.is_yes()
    for s, spec in zip(res.witness, chain):
        assert contains(star(spec), s)
    assert op_sum(g.group, res.witness).value == g.value


def test_identity_in_any_chain():
    chain = [sqrt7_set(2), TailSet.of("powers3", 1)]
    res = prefix_sum_membership(Z.element(0), chain, FoldTable())
    assert res.is_yes()
    assert all(s.value == 0 for s in res.witness)


def test_empty_chain_is_identity_only():
    assert prefix_sum_membership(Z.element(0), [], FoldTable()).is_yes()
    assert prefix_sum_membership(Z.element(3), [], FoldTable()).is_no()


def test_sqrt7_two_sets_contain_one():
    # oracle: 5 + 5 = 10 = 1 mod 9, so 1 lies in the two-fold class sum
    chain = [sqrt7_set(2), sqrt7_set(2)]
    res = prefix_sum_membership(Z.element(1), chain, FoldTable())
    assert_witness_ok(res, Z.element(1), chain)


def test_sqrt7_single_set_excludes_one():
    res = prefix_sum_membership(Z.element(1), [sqrt7_set(2)], FoldTable())
    assert res.is_no()


def test_mixed_modulus_chain_witness():
    # needs the CRT representative: 1 = 14 + (-13) across levels 2 and 3
    chain = [sqrt7_set(2), sqrt7_set(3)]
    res = prefix_sum_membership(Z.element(1), chain, FoldTable())
    assert_witness_ok(res, Z.element(1), chain)


def test_interval_chain_witness_exact():
    q = Rationals()
    chain = [SymmetricInterval.of(1), SymmetricInterval.of("1/4")]
    res = prefix_sum_membership(q.element(1), chain, FoldTable())
    assert_witness_ok(res, q.element(1), chain)
    out = prefix_sum_membership(q.element(2), chain, FoldTable())
    assert out.is_no()


def test_tail_chain_divisor_exclusion():
    chain = [TailSet.of("powers3", 2), TailSet.of("powers3", 3)]
    res = prefix_sum_membership(Z.element(5), chain, FoldTable())
    assert res.is_no()
    assert res.proof["route"] == "divisor"
    assert res.proof["chain_divisor"] == 9


def test_tail_chain_witness_found():
    chain = [TailSet.of("powers3", 0), TailSet.of("powers3", 1)]
    res = prefix_sum_membership(Z.element(4), chain, FoldTable())
    assert_witness_ok(res, Z.element(4), chain)  # 1 + 3


def test_tail_chain_envelope_exclusion():
    # signed sums of two powers of 3 never reach 5; the residue envelope
    # modulo 27 certifies it exactly
    chain = [TailSet.of("powers3", 0), TailSet.of("powers3", 0)]
    res = prefix_sum_membership(Z.element(5), chain, FoldTable())
    assert res.is_no()
    assert res.proof["route"] == "residue-envelope"


def test_tail_chain_unknown_is_honest():
    # Fibonacci tails carry no divisor structure, so nothing upgrades the
    # failed bounded search to an exact exclusion
    chain = [TailSet.of("fibonacci", 0), TailSet.of("fibonacci", 0)]
    res = prefix_sum_membership(Z.element(40), chain, FoldTable())
    assert res.status == "unknown"


def test_single_tail_set_exact_membership():
    res = prefix_sum_membership(Z.element(-27), [TailSet.of("powers3", 2)],
                                FoldTable())
    assert res.is_yes()
    res2 = prefix_sum_membership(Z.element(5), [TailSet.of("powers3", 0)],
                                 FoldTable())
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
        res = prefix_sum_membership(g, sets, FoldTable())
        if not res.is_yes():
            continue
        cases += 1
        extended = sets + [rng.choice([ResidueSet.of(9, {7}),
                                       FiniteSet.of(Z, [2, 4])])]
        assert prefix_sum_membership(g, extended, FoldTable()).is_yes()


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
        res = prefix_sum_membership(g, chain, FoldTable())
        if res.is_yes():
            assert_witness_ok(res, g, chain)
            verified += 1
    assert verified >= 200


def test_two_set_d4_chains_against_brute_force():
    """Every pair of 1- and 2-element D4 sets and every element: membership
    never raises, each "yes" witness holds, and the answer matches the
    product set of the two starred sets (summands peel off on the left)."""
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
            res = prefix_sum_membership(g, chain, FoldTable())
            assert res.status in ("yes", "no")
            assert res.is_yes() == (g.value in reachable), (chain, str(g))
            if res.is_yes():
                assert witness_holds(g, res.witness, chain, FoldTable())


def test_bounded_search_budget_respected():
    seq = prefix_sequence("sparse", [3, 1000, 1002])
    chain = [TailSet.of(seq, 0), TailSet.of(seq, 0)]
    # 2 = 1002 - 1000, but both summands lie past the value cap
    # value_cap_factor * 2 * |2| = 4, so the search stays unknown
    assert witness_holds(Z.element(2), [Z.element(1002), Z.element(-1000)],
                         chain, FoldTable())
    res = prefix_sum_membership(Z.element(2), chain, FoldTable())
    assert res.status == "unknown"
    assert res.proof == {"route": "bounded-search", "budget": SEARCH_BUDGET}
    # 6 = 3 + 3 lies inside the cap 2 * |6| = 12
    res = prefix_sum_membership(Z.element(6), chain, FoldTable())
    assert res.is_yes() and [s.value for s in res.witness] == [3, 3]


def test_decomposition_recheck_agrees(budget_sums):
    """The plain budget reference and the membership agree on a "no" and
    a "yes"."""
    chain = [TailSet.of("powers3", 1), TailSet.of("powers3", 2)]
    assert 5 not in budget_sums(5, chain)
    assert prefix_sum_membership(Z.element(5), chain, FoldTable()).is_no()
    chain2 = [TailSet.of("powers3", 0), TailSet.of("powers3", 1)]
    assert 4 in budget_sums(4, chain2)
    assert prefix_sum_membership(Z.element(4), chain2, FoldTable()).is_yes()


def first_in_product_order(g: int, lists):
    return next((t for t in itertools.product(*lists) if sum(t) == g), None)


def assert_matches_product_order(g: int, chain, lists):
    """Same status and the identical witness as the first tuple of
    itertools.product over the candidate lists; returns the result."""
    expected = first_in_product_order(g, lists)
    res = prefix_sum_membership(Z.element(g), chain, FoldTable())
    if expected is None:
        complete = all(isinstance(spec, FiniteSet) for spec in chain)
        assert res.status == "no" if complete else res.status != "yes"
    else:
        assert res.is_yes(), (g, chain)
        assert tuple(s.value for s in res.witness) == expected, (g, chain)
    return res


def test_bounded_search_returns_first_witness_in_candidate_order(
        budget_candidates):
    """Seeded integer chains of 2 to 4 sets (powers3, Fibonacci and
    user-prefix tails mixed with finite sets) against the first tuple of
    itertools.product over the budget's candidate lists."""
    rng = random.Random(6)
    seq = prefix_sequence("spread", [2, 5, 7, 11, 20, 31, 45])
    searched = yes = 0
    for _ in range(120):
        chain = []
        for _ in range(rng.randint(2, 4)):
            pick = rng.random()
            if pick < 0.25:
                chain.append(TailSet.of("powers3", rng.randint(0, 2)))
            elif pick < 0.5:
                chain.append(TailSet.of("fibonacci", rng.randint(0, 3)))
            elif pick < 0.7:
                chain.append(TailSet.of(seq, rng.randint(0, 2)))
            else:
                chain.append(FiniteSet.of(Z, rng.sample(range(-9, 10),
                                                        rng.randint(1, 3))))
        g = rng.choice([v for v in range(-15, 16) if v])
        res = assert_matches_product_order(
            g, chain, budget_candidates(g, chain))
        if res.proof["route"] == "bounded-search":
            searched += 1
            yes += res.is_yes()
    assert searched >= 40 and 0 < yes < searched


def test_chain_wider_than_bitset_cap_takes_memoized_search(
        budget_candidates, monkeypatch):
    """A finite member past the bitset cap sends the search to the
    memoized reachability predicate, and the peel still returns the first
    witness in candidate order; on the second chain a remainder that
    failed one position deeper is reachable where it recurs
    (24 = 0 + (-3) + 27)."""
    big = 3 * prefixsum._BITSET_CAP
    cases = [
        ([FiniteSet.of(Z, [4, big]), TailSet.of("powers3", 0),
          TailSet.of("fibonacci", 1)], [1, 6, -11, 40, 97, big + 4, big - 17]),
        ([FiniteSet.of(Z, [1, 7, big]), TailSet.of("powers3", 0),
          TailSet.of("powers3", 1)], [10, 24]),
    ]
    calls = []
    memo_reach = prefixsum._reach_by_memo

    def spy(*args):
        calls.append(args)
        return memo_reach(*args)

    monkeypatch.setattr(prefixsum, "_reach_by_memo", spy)
    statuses = set()
    for chain, targets in cases:
        for g in targets:
            res = assert_matches_product_order(g, chain,
                                               budget_candidates(g, chain))
            assert res.proof["route"] == "bounded-search", g
            statuses.add(res.status)
    assert len(calls) == 9 and statuses == {"yes", "unknown"}


def envelope_sum_reference(envelopes, m: int, r: int):
    acc = {0}
    for env in envelopes:
        acc = {(a + b) % m for a in acc for b in env}
        if len(acc) == m:
            return None
    return r in acc


def envelope_sum_meets(envelopes, m: int, r: int):
    """What the sum builder says of residue r: None when it built no sum
    (saturated, or past the cap), else whether r lies in the sum."""
    residues = prefixsum._envelope_sum(envelopes, m)
    return None if residues is None else \
        prefixsum._in_envelope_sum(residues, r)


def test_envelope_bitset_sum_matches_set_sum():
    """Rotate-and-OR over a bitset of residues against a plain set
    comprehension, on seeded envelopes and moduli on both sides of the
    bitset cap, and on fixed ones either side of the envelopes' own.  A
    saturated sum is None for every residue; otherwise a residue lies in
    the built sum exactly when it lies in the reference."""
    rng = random.Random(12)
    saturated = decided = 0
    for _ in range(300):
        m = rng.choice([2, 3, 7, 27, 64, 81, 243, 1000, 6561,
                        prefixsum._BITSET_CAP, prefixsum._BITSET_CAP + 1,
                        10 ** 9 + 7])
        envelopes = [frozenset({0} | {rng.randrange(m)
                                      for _ in range(rng.randint(0, 6))})
                     for _ in range(rng.randint(1, 4))]
        for r in {0, 1, m - 1, rng.randrange(m)}:
            expected = envelope_sum_reference(envelopes, m, r)
            assert envelope_sum_meets(envelopes, m, r) == expected, \
                (m, envelopes, r)
            saturated += expected is None
            decided += expected is False
    assert saturated and decided
    wide = prefixsum._ENVELOPE_BITSET_CAP
    for m in (wide, wide + 1):
        envelopes = [frozenset({0, 1, m - 5}), frozenset({0, 7, m - 2})]
        for r in (0, 8, m - 1, 3):  # in the sum but 3
            assert envelope_sum_meets(envelopes, m, r) == \
                envelope_sum_reference(envelopes, m, r) == (r != 3), (m, r)


def test_envelope_set_sum_gives_up_past_the_enumeration_cap(monkeypatch):
    """Past the envelope bitset cap, a sum that would pair more residues
    than the enumeration cap decides nothing, before it is built."""
    m = prefixsum._ENVELOPE_BITSET_CAP + 1
    envelopes = [frozenset({0, 10, 20, 30}), frozenset({0, 1, 2, 3})]
    assert envelope_sum_reference(envelopes, m, 5) is False
    monkeypatch.setattr(groups, "_ENUMERATION_CAP", 16)
    assert envelope_sum_meets(envelopes, m, 5) is False
    monkeypatch.setattr(groups, "_ENUMERATION_CAP", 15)
    assert prefixsum._envelope_sum(envelopes, m) is None


@pytest.mark.parametrize("m, kept", [(3 ** 11, True), (3 ** 12, False)],
                         ids=["within-the-cap", "past-the-cap"])
def test_table_keeps_envelope_sums_up_to_the_enumeration_cap(m, kept):
    """A chain's envelope sum and sizes are kept per (stars, modulus) when
    the modulus is within the enumeration cap; past it the sum is built
    again for each call, with the same answer."""
    table = FoldTable()
    stars = [table.star(FiniteSet.of(Z, [1, 5])),
             table.star(TailSet.of("powers3", 1)),
             table.star(FiniteSet.of(Z, [2, 7, -4]))]
    envelopes = [table.residue_envelope(st, m) for st in stars]
    first = table.envelope_sum(stars, m, prefixsum._envelope_sum)
    residues, sizes = first
    assert sizes == tuple(map(len, envelopes))
    assert residues == prefixsum._envelope_sum(envelopes, m)
    for r in (0, 1, 2, 3, 4, m - 1):
        assert prefixsum._in_envelope_sum(residues, r) == \
            envelope_sum_reference(envelopes, m, r)
    again = table.envelope_sum(stars, m, prefixsum._envelope_sum)
    assert again == first and (again is first) == kept
    assert len(table._envelope_sums) == kept


def test_one_table_decides_as_a_fresh_table_per_probe():
    """Memberships through one table shared by every probe, in random
    order, give the status and proof a fresh table gives each probe, on
    seeded tail, residue and finite chains; the shared table answers
    envelope exclusions from the sums it keeps."""
    rng = random.Random(34)
    shared = FoldTable()
    routes = set()
    for _ in range(300):
        kind = rng.choice(["tail", "residue", "finite"])
        n = rng.randint(1, 4)
        if kind == "tail":
            seq = rng.choice(["powers2", "powers3", "factorial",
                              "fibonacci"])
            chain = [TailSet.of(seq, rng.randint(0, 2))] * n if \
                rng.random() < 0.5 else \
                [TailSet.of(seq, rng.randint(0, 2)) for _ in range(n)]
        elif kind == "residue":
            chain = [sqrt7_set(rng.randint(1, 4)) for _ in range(n)]
        else:
            chain = [FiniteSet.of(Z, rng.sample(range(-9, 10),
                                                rng.randint(1, 3)))
                     for _ in range(n)]
        g = Z.element(rng.randint(-60, 60))
        res = prefix_sum_membership(g, chain, shared)
        fresh = prefix_sum_membership(g, chain, FoldTable())
        assert (res.status, res.proof) == (fresh.status, fresh.proof), \
            (chain, g)
        routes.add(res.proof["route"])
    assert {"residue-envelope", "exact-fold", "bounded-search",
            "single-set"} <= routes
    assert shared._envelope_sums


def test_finite_chains_fold_and_other_groups_never_plan_a_search(
        monkeypatch):
    """Every all-finite chain is decided by the exact fold (or refused at
    the enumeration cap), so only integer chains with a tail ever get
    candidate lists for the bounded search."""
    from grouptop.fixtures import dihedral8
    from grouptop.groups import ProductMod
    from grouptop.setspec import BoxSet

    planned = []
    real_plan = prefixsum._plan

    def spy(g, stars, table):
        plan = real_plan(g, stars, table)
        planned.append((g.group, plan is not None))
        return plan

    monkeypatch.setattr(prefixsum, "_plan", spy)
    rng = random.Random(7)
    q, p4, d4 = Rationals(), ProductMod(4), dihedral8()

    def finite(group, pool):
        return FiniteSet.of(group, rng.sample(pool, rng.randint(0, 3)))

    pools = {
        Z: list(range(-12, 13)),
        q: [f"{a}/{b}" for a in range(-4, 5) for b in (1, 2, 3)],
        p4: [(0, a, b, c) for a in range(2) for b in range(3)
             for c in range(4)],
        d4: [el.value for el in d4.elements()],
    }
    others = {
        Z: lambda: TailSet.of("fibonacci", rng.randint(0, 3)),
        q: lambda: SymmetricInterval.of(f"1/{rng.randint(1, 5)}"),
        p4: lambda: BoxSet.of(4, [{0}, {0, 1}][:rng.randint(0, 2)]),
        d4: None,
    }
    folded = 0
    for _ in range(200):
        group = rng.choice(list(pools))
        chain = [finite(group, pools[group])
                 for _ in range(rng.randint(2, 4))]
        all_finite = others[group] is None or rng.random() < 0.5
        if not all_finite:
            chain[rng.randrange(len(chain))] = others[group]()
        g = GroupElement(group, rng.choice(pools[group]))
        res = prefix_sum_membership(g, chain, FoldTable())
        if all_finite and not g.is_identity():
            assert res.proof["route"] == "exact-fold", (chain, g)
            folded += 1
    wide = FiniteSet.of(Z, range(500))
    res = prefix_sum_membership(Z.element(1), [wide, wide], FoldTable())
    assert res.status == "unknown" and res.proof == {
        "route": "exact-fold", "enumeration_cap": 200_000}
    assert folded >= 80
    assert any(searched for _, searched in planned)
    assert all(group == Z for group, searched in planned if searched)


def test_uncertified_tails_skip_divisor_scans(monkeypatch):
    """Fibonacci tails carry no divisor certificate, so the envelope
    routes stop at once: at most one ``tail_divisor`` call per tail (the
    divisor route's), and the same results as on a copy of the sequence
    whose certificate is the constant 1, which both envelope scans walk
    in full."""
    fib = get_sequence("fibonacci")
    scanned = dataclasses.replace(fib, _tail_divisor=lambda t: 1)
    real = IntegerSequence.tail_divisor
    calls = []

    def spy(seq, start):
        calls.append(start)
        return real(seq, start)

    rng = random.Random(5)
    routes = set()
    for _ in range(60):
        starts = [rng.randint(0, 4) for _ in range(rng.randint(2, 4))]
        g = Z.element(rng.choice([v for v in range(-40, 41) if v]))
        expected = prefix_sum_membership(
            g, [TailSet.of(scanned, t) for t in starts], FoldTable())
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(IntegerSequence, "tail_divisor", spy)
            res = prefix_sum_membership(g, [TailSet.of(fib, t)
                                            for t in starts], FoldTable())
        assert len(calls) <= len(starts)
        assert res == expected, (g, starts)
        routes.add((res.status, res.proof["route"]))
    assert routes == {("yes", "bounded-search"),
                      ("unknown", "bounded-search")}


def test_hausdorff_reads_each_tail_divisor_once_per_window(
        monkeypatch, tmp_path, capsys):
    """One ``hausdorff`` run on the shipped powers3 config reads every
    tail divisor through its command's table: at most one
    ``tail_divisor`` call per (sequence, start, index) of the table's
    windows and one per tail whose divisor certificate it keeps, where
    each membership used to rescan its tails."""
    from collections import Counter
    from pathlib import Path

    from grouptop import cli, filters
    from grouptop.setspec import FoldTable

    tables = []

    def recorded():
        tables.append(FoldTable())
        return tables[-1]

    calls = Counter()
    real = IntegerSequence.tail_divisor

    def spy(seq, t):
        calls[seq.name, t] += 1
        return real(seq, t)

    monkeypatch.setattr(filters, "FoldTable", recorded)
    monkeypatch.setattr(IntegerSequence, "tail_divisor", spy)
    config = Path(__file__).resolve().parents[1] / "configs" / "powers3.json"
    assert cli.main(["hausdorff", str(config),
                     "--out", str(tmp_path / "report.json")]) == 0
    capsys.readouterr()
    table, = tables
    windows = Counter()
    for (seq, start), window in table._divisors.items():
        windows.update((seq.name, start + i) for i in range(len(window)))
    windows.update((spec.base.sequence.name, spec.base.start)
                   for spec in table._certificates)  # the chains' stars
    assert calls and all(n <= windows[key] for key, n in calls.items()), \
        (calls, windows)
    assert sum(calls.values()) <= sum(windows.values()) < 200


def test_chain_must_share_ambient_group():
    with pytest.raises(ValueError):
        prefix_sum_membership(Z.element(1), [SymmetricInterval.of(1)],
                              FoldTable())
