"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance and runtime budget is pinned here; the suite is the
exit gate for the package.
"""

import itertools
import math
import random
import time

import pytest

from grouptop import (
    ChainFamily,
    CofiniteFamily,
    FiniteSet,
    Integers,
    ResidueSet,
    SeparationCertificate,
    TailSet,
    contains,
    cupcap_check,
    op_sum,
    prefix_sum_membership,
    separating_sequence,
    star,
    sumset,
)
from grouptop.examples import (
    hensel_sqrt,
    product_cover_witness,
    product_set,
    random_product_elements,
    small_representable,
    sqrt7_cover_witness,
    sqrt7_set,
    verify_interval_example,
    verify_product_sum_full,
    verify_product_union_small,
    verify_sqrt7_necessary,
)
from grouptop.filters import StuckReport
from grouptop.fixtures import dihedral8
from grouptop.nonabelian import (
    DyadicAssignment,
    Rescale,
    TowerChain,
    check_UU,
    check_inverse_closure,
    check_translation,
    commutator,
    fib_word,
    phi_iterate,
    s_in_u_reduce,
    verify_fib_identity,
    FREE_XY,
)
from grouptop.report import Status
from grouptop.setspec import FoldTable, witness_holds

Z = Integers()
D4_NAMES = ["e", "r", "r2", "r3", "s", "rs", "r2s", "r3s"]


def _report(criterion, elapsed, budget, detail):
    line = (f"criterion {criterion}: PASS ({elapsed:.2f}s / budget "
            f"{budget}s) - {detail}")
    print(line)
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s"


def test_criterion_1_sqrt7_necessary_condition():
    t0 = time.perf_counter()
    count = 0
    for g in range(1, 51):
        for n in range(1, 6):
            rep = verify_sqrt7_necessary(g, n, FoldTable())
            assert rep.status is Status.VERIFIED, (g, n)
            # the crude bound 3^k > max(g^2, 7 n^2) must also exclude
            assert rep.payload["bound_level_also_excludes"], (g, n)
            assert rep.payload["k"] <= rep.payload["k_bound"], (g, n)
            count += 1
    elapsed = time.perf_counter() - t0
    _report(1, elapsed, 5,
            f"{count} (g, n) pairs verified with exact residue arithmetic, "
            f"both signs of g")


def test_criterion_2_sqrt7_hausdorff_failure():
    t0 = time.perf_counter()
    m0 = 2
    base = star(sqrt7_set(m0)).base

    # exact residue-sumset for every multiset; commutativity of the exact
    # sumset (asserted in criterion 9) transfers the verdict to every list
    cover = {}
    for key in itertools.combinations_with_replacement(range(1, 6), 9):
        folded = base
        for m in key:
            folded = sumset(folded, star(sqrt7_set(m)))
        max_mod = 3 ** max(m0, *key)
        assert folded.is_all_integers(), key
        lifted = {r % folded.modulus for r in range(max_mod)}
        assert lifted <= folded.residues  # all classes mod 3^max covered
        cover[key] = True

    # literal sweep over all 5^9 lists via the multiset verdicts
    n_lists = 0
    for t in itertools.product(range(1, 6), repeat=9):
        assert cover[tuple(sorted(t))]
        n_lists += 1
    assert n_lists == 5 ** 9

    # per-g decomposition witnesses re-verify for every multiset
    n_witnesses = 0
    for key in cover:
        for g in range(-20, 21):
            w = sqrt7_cover_witness(g, m0, list(key))
            assert witness_holds(Z.element(g), w,
                                 [sqrt7_set(m) for m in (m0, *key)],
                                 FoldTable()), (key, g)
            n_witnesses += 1

    # the separating construction sticks at step 1 with exact blocks
    fam = ChainFamily(lambda i: sqrt7_set(i + 1), name="sqrt7")
    stuck = separating_sequence(Z.element(1), fam, max_len=5, depth=10,
                                table=FoldTable())
    assert isinstance(stuck, StuckReport)
    assert stuck.step == 1
    assert [s.member for s in stuck.prefix] == [sqrt7_set(2)]
    assert stuck.all_candidates_exactly_blocked()

    elapsed = time.perf_counter() - t0
    _report(2, elapsed, 30,
            f"{len(cover)} multisets covering {n_lists} lists; "
            f"{n_witnesses} witnesses re-verified; separation stuck at 1")


def test_criterion_3_hensel_oracle_equivalence():
    t0 = time.perf_counter()
    prev = None
    for k in range(1, 11):
        pk = 3 ** k
        brute = sorted(c for c in range(pk) if (c * c - 7) % pk == 0)
        w = hensel_sqrt(7, 3, k)
        assert w.root in brute, k
        assert brute == sorted({w.root, pk - w.root}), k
        if prev is not None:
            mod = pk // 3
            assert w.root % mod in (prev % mod, (-prev) % mod), k
        prev = w.root
    elapsed = time.perf_counter() - t0
    _report(3, elapsed, 1,
            "levels 1..10 match exhaustive residue search (moduli to 59049)")


def test_criterion_4_product_example():
    t0 = time.perf_counter()
    samples = random_product_elements(6, 50, seed=20260808)
    for m0 in (2, 3):
        ms = [min(m0 + i + 1, 6) for i in range(m0)]
        rep = verify_product_sum_full(6, m0, samples, FoldTable())
        assert rep.status is Status.VERIFIED, m0
        boxes = [product_set(6, m) for m in (m0, *ms)]
        for g in samples:
            assert witness_holds(g, product_cover_witness(g, m0, ms), boxes,
                                 FoldTable())

    for n in (1, 2):
        rep = verify_product_union_small(6, n, FoldTable())
        assert rep.status is Status.VERIFIED, n
        inter = rep.payload["intersection"]
        # brute force: intersect the n-fold boxes by full enumeration
        for vec in itertools.product(*(range(c) for c in range(1, 7))):
            in_all = all(
                all(vec[i] in small_representable(i + 1, n) for i in range(m))
                for m in range(1, 7)
            )
            boxed = all(vec[i] in set(inter["allowed"][i]) for i in range(6))
            assert in_all == boxed, (n, vec)
    elapsed = time.perf_counter() - t0
    _report(4, elapsed, 5,
            "50 random cover witnesses for m0 in {2,3}; small-union "
            "intersection matches 720-element brute force for n in {1,2}")


def test_criterion_5_interval_example():
    t0 = time.perf_counter()
    rep = verify_interval_example(10, FoldTable())
    assert rep.status is Status.VERIFIED
    sched = rep.payload["schedule"]
    assert len(sched) == 11 and sched[-1]["epsilon"] == "1/1024"
    elapsed = time.perf_counter() - t0
    _report(5, elapsed, 5,
            "exact rationals down the halving schedule to 2^-10")


def test_criterion_6_positive_separation(budget_sums):
    t0 = time.perf_counter()
    fam = CofiniteFamily("powers3")
    for g in range(1, 51):
        el = Z.element(g)
        cert = separating_sequence(el, fam, max_len=5, depth=14,
                                   table=FoldTable())
        assert isinstance(cert, SeparationCertificate), g
        assert len(cert) == 5
        members = cert.members()
        for n in range(1, 6):
            # no decomposition within the search budget, by plain set sums
            assert g not in budget_sums(g, members[:n]), (g, n)
            # necessity: the n-fold exclusion condition holds
            assert cupcap_check(el, n, fam, depth=14,
                                table=FoldTable()).found, (g, n)
    elapsed = time.perf_counter() - t0
    _report(6, elapsed, 60,
            "length-5 certificates for g=1..50, every step brute-force "
            "re-checked, necessity invariant across the corpus")


def test_criterion_7_nonabelian_d4_properties():
    t0 = time.perf_counter()
    d4 = dihedral8()
    rng = random.Random(20260808)
    for trial in range(100):
        levels = {
            lvl: FiniteSet.of(d4, rng.sample(D4_NAMES, rng.randint(1, 3)))
            for lvl in range(1, 6)
        }
        rep = check_UU(DyadicAssignment.of(levels),
                       Rescale(0, 2), Rescale(3, 2), depth=3)
        assert rep.status is Status.VERIFIED, trial

    fixture = DyadicAssignment.of({
        1: FiniteSet.of(d4, ["r"]),
        2: FiniteSet.of(d4, ["r", "s"]),
        3: FiniteSet.of(d4, ["r2"]),
    })
    table = FoldTable()
    assert check_translation(fixture, 3, table).status is Status.VERIFIED
    assert check_inverse_closure(fixture, 3, table).status is Status.VERIFIED

    for top in (1, 2, 3, 4):
        sets = [FiniteSet.of(Z, range(-3 ** (top - i), 3 ** (top - i) + 1))
                for i in range(top + 1)]
        tower = TowerChain(tuple(sets))
        cert = s_in_u_reduce(tower, top + 1)
        assert cert.final_set == tower.sets[0]

    d4_tower = TowerChain((
        FiniteSet.of(d4, D4_NAMES),
        FiniteSet.of(d4, ["e", "r", "r2", "r3"]),
        FiniteSet.of(d4, ["e", "r2"]),
        FiniteSet.of(d4, ["e"]),
    ))
    cert = s_in_u_reduce(d4_tower, 4)
    assert [s.level for s in cert.stages] == [4, 3, 2]

    elapsed = time.perf_counter() - t0
    _report(7, elapsed, 60,
            "100 random product-absorption checks at depth 3; translation "
            "and inverse closure exhaustive; collapse certificates exact")


def test_criterion_8_fibonacci_word_suite():
    t0 = time.perf_counter()
    x = FREE_XY.element("x")
    fib_a, fib_b = 1, 1
    for n in range(21):
        w = fib_word(n)
        assert w.word.value == phi_iterate(x, n).value, n
        assert w.length() == fib_a, n
        fib_a, fib_b = fib_b, fib_a + fib_b
    c = commutator(FREE_XY.element("x"), FREE_XY.element("y"))
    assert phi_iterate(c, 2).value == c.value
    from grouptop import op_neg
    assert phi_iterate(c, 1).value == op_neg(c).value
    for n in range(11):
        assert verify_fib_identity(n).status is Status.VERIFIED, n
    elapsed = time.perf_counter() - t0
    _report(8, elapsed, 1,
            "recurrence equals substitution to n=20; lengths Fibonacci; "
            "commutator identities to n=10")


def test_criterion_9_algebra_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(99)

    # star idempotence and negation symmetry on probe sets
    star_specs = [
        ResidueSet.of(9, {2, 3}), ResidueSet.of(27, {1, 13}),
        FiniteSet.of(Z, [1, 5, -7]), TailSet.of("powers3", 1),
        FiniteSet.of(Z, []),
    ]
    for spec in star_specs:
        once, twice = star(spec), star(star(spec))
        for v in range(-40, 41):
            el = Z.element(v)
            assert contains(once, el) == contains(twice, el)
            assert contains(once, el) == contains(once, Z.element(-v))

    # exact sumset equals brute-force enumeration (>= 1000 cases), and
    # sumsets commute (the reduction behind criterion 2's list sweep)
    for case in range(1000):
        xs = {rng.randrange(-40, 41) for _ in range(rng.randint(0, 20))}
        ys = {rng.randrange(-40, 41) for _ in range(rng.randint(0, 20))}
        out = sumset(FiniteSet.of(Z, xs), FiniteSet.of(Z, ys))
        assert {el.value for el in out.elements()} == \
            {x + y for x in xs for y in ys}, case
        back = sumset(FiniteSet.of(Z, ys), FiniteSet.of(Z, xs))
        assert back == out

    # residue-class sumset law with >= 100 sampled representatives per side
    for case in range(40):
        m1, m2 = rng.randint(1, 81), rng.randint(1, 81)
        a, b = rng.randrange(m1), rng.randrange(m2)
        out = sumset(ResidueSet.of(m1, {a}), ResidueSet.of(m2, {b}))
        g = math.gcd(m1, m2)
        assert out == ResidueSet.of(g, {(a + b) % g}), case
        for _ in range(100):
            x = a + m1 * rng.randrange(-60, 61)
            y = b + m2 * rng.randrange(-60, 61)
            assert out.contains_value(x + y)

    # prefix-sum monotonicity and witness re-verification (>= 500 cases)
    yes_cases = 0
    extensions = [ResidueSet.of(9, {7}), FiniteSet.of(Z, [2, 4]),
                  sqrt7_set(3)]
    attempts = 0
    while yes_cases < 500:
        attempts += 1
        assert attempts < 20000, "not enough yes-instances generated"
        depth = rng.randint(1, 3)
        chain = []
        for _ in range(depth):
            if rng.random() < 0.6:
                mod = rng.choice([3, 9, 27])
                chain.append(ResidueSet.of(
                    mod, {rng.randrange(mod) for _ in range(rng.randint(1, 3))}))
            else:
                chain.append(FiniteSet.of(
                    Z, [rng.randrange(-8, 9) for _ in range(rng.randint(1, 4))]))
        el = Z.element(rng.randrange(-30, 31))
        res = prefix_sum_membership(el, chain, FoldTable())
        if not res.is_yes():
            continue
        yes_cases += 1
        for s, spec in zip(res.witness, chain):
            assert contains(star(spec), s)
        assert op_sum(Z, res.witness).value == el.value
        extended = chain + [rng.choice(extensions)]
        assert prefix_sum_membership(el, extended, FoldTable()).is_yes()

    elapsed = time.perf_counter() - t0
    _report(9, elapsed, 30,
            f"star laws on probes; 1000 sumset-vs-brute-force cases; "
            f"residue law sampled; {yes_cases} witnesses re-verified with "
            f"monotone extensions")
