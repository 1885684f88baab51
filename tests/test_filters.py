"""Families, criteria checks, and separating certificates."""

import pytest

from grouptop import (
    ChainFamily,
    CofiniteFamily,
    ExplicitFamily,
    FiniteSet,
    Integers,
    ResidueSet,
    SeparationCertificate,
    StuckReport,
    SymmetricInterval,
    TailSet,
    check_directed,
    cupcap_check,
    family_from_json,
    hausdorff_verdict,
    n_fold_star,
    separating_sequence,
    star,
)
from grouptop.examples import sqrt7_set
from grouptop.filters import recheck_certificate
from grouptop.report import Status

Z = Integers()


def sqrt7_family():
    return ChainFamily(lambda i: sqrt7_set(i + 1), name="sqrt7")


# --- family construction and directedness ---

def test_check_directed_nested_chain():
    fam = ExplicitFamily([ResidueSet.of(3, {0, 1, 2}),
                          ResidueSet.of(9, {0, 4, 5}),
                          ResidueSet.of(27, {0, 13, 14})])
    assert check_directed(fam) is None


def test_check_directed_counterexample():
    fam = ExplicitFamily([FiniteSet.of(Z, [1]), FiniteSet.of(Z, [2])])
    assert check_directed(fam) == (0, 1)


def test_check_directed_sqrt7_prefix():
    fam = ExplicitFamily([sqrt7_set(1), sqrt7_set(2), sqrt7_set(3)])
    assert check_directed(fam) is None


def test_explicit_family_refuses_members_of_two_groups():
    """Members in the integers and in the rationals are refused when the
    family is built, not deep inside a later verdict."""
    with pytest.raises(ValueError, match="different groups"):
        ExplicitFamily([ResidueSet.of(3, [1]), SymmetricInterval.of(1)])


def test_chain_validation_rejects_non_decreasing():
    with pytest.raises(ValueError):
        # member(1) = {0,1} mod 3 is strictly larger than member(0) = {0}
        ChainFamily(lambda i: ResidueSet.of(3, set(range(i + 1))),
                    name="growing")


# --- cupcap ---

def test_cupcap_sqrt7_g1():
    res = cupcap_check(Z.element(1), 1, sqrt7_family(), depth=8)
    assert res.found and res.member == sqrt7_set(2)


def test_cupcap_sqrt7_g7_n2_with_crude_level_bound():
    res = cupcap_check(Z.element(7), 2, sqrt7_family(), depth=8)
    assert res.found
    # the crude level bound: 3^k > max(49, 28) gives k = 4, and the found
    # member may sit earlier in the chain
    assert res.member_index <= 3
    assert not n_fold_star(sqrt7_set(4), 2).contains_value(7)


def test_chain_and_cofinite_members_are_built_once_per_index():
    """A family hands out one object per index, so the fold table's
    entries for a member are found by identity as well as by value."""
    for fam in [sqrt7_family(), CofiniteFamily("powers3", 2)]:
        assert fam.member(3) is fam.member(3)
        assert fam.member(3) is not fam.member(4)


def test_cupcap_cofinite_with_brute_force_oracle():
    fam = CofiniteFamily("powers3")
    res = cupcap_check(Z.element(5), 2, fam, depth=8)
    assert res.found
    member = res.member
    # oracle: all 2-element signed sums from the capped tail avoid 5
    values = member.member_values(100)
    sums = {a + b for a in {0, *values, *(-v for v in values)}
            for b in {0, *values, *(-v for v in values)}}
    assert 5 not in sums


def test_cupcap_found_is_monotone_in_n():
    fam = sqrt7_family()
    for g in [1, 2, 7]:
        res = cupcap_check(Z.element(g), 3, fam, depth=10)
        assert res.found
        for m in (1, 2, 3):
            folded = n_fold_star(res.member, m)
            assert not folded.contains_value(g)


def test_cupcap_rejects_identity():
    with pytest.raises(ValueError):
        cupcap_check(Z.element(0), 1, sqrt7_family(), depth=3)


# --- separating sequences ---

def test_separating_sqrt7_sticks_at_step_one():
    res = separating_sequence(Z.element(1), sqrt7_family(),
                              max_len=5, depth=8)
    assert isinstance(res, StuckReport)
    assert res.step == 1
    assert [s.member for s in res.prefix] == [sqrt7_set(2)]
    assert res.all_candidates_exactly_blocked()
    for _, _, blocking in res.blocked:
        assert blocking.is_yes()  # exact memberships with witnesses


def test_separating_cofinite_builds_length5():
    cert = separating_sequence(Z.element(1), CofiniteFamily("powers3"),
                               max_len=5, depth=12)
    assert isinstance(cert, SeparationCertificate)
    assert len(cert) == 5
    starts = [s.member.start for s in cert.steps]
    assert starts == sorted(starts) and len(set(starts)) == 5
    assert recheck_certificate(cert)


def test_separating_over_nonabelian_family():
    """Over D4 every non-identity probe ends in a certificate or a stuck
    report, and each one agrees with brute-force products of the starred
    members (rs and r3s used to crash: summands came off the wrong side)."""
    import itertools
    from grouptop.fixtures import dihedral8
    from grouptop.groups import op_sum
    from grouptop.setspec import witness_holds
    d4 = dihedral8()
    fam = ExplicitFamily([FiniteSet.of(d4, ["r", "s"]),
                          FiniteSet.of(d4, ["s"])])

    def products(members):
        factors = [star(m).base.elements() for m in members]
        return {op_sum(d4, combo).value
                for combo in itertools.product(*factors)}

    for g in d4.elements():
        if g.is_identity():
            continue
        res = separating_sequence(g, fam, max_len=4, depth=2)
        assert isinstance(res, (SeparationCertificate, StuckReport)), str(g)
        members = [step.member for step in
                   (res.steps if isinstance(res, SeparationCertificate)
                    else res.prefix)]
        for n in range(1, len(members) + 1):
            assert g.value not in products(members[:n]), (str(g), n)
        if isinstance(res, StuckReport):
            assert res.all_candidates_exactly_blocked(), str(g)
            for index, _, blocking in res.blocked:
                chain = members + [fam.member(index)]
                assert witness_holds(g, blocking.witness, chain)


def test_separating_rejects_identity():
    with pytest.raises(ValueError):
        separating_sequence(Z.element(0), sqrt7_family(), max_len=3, depth=3)


def test_separating_trivial_explicit_family():
    fam = ExplicitFamily([FiniteSet.of(Z, [0])])
    cert = separating_sequence(Z.element(4), fam, max_len=3, depth=2)
    assert isinstance(cert, SeparationCertificate) and len(cert) == 3


def test_necessity_invariant_on_corpus():
    # every successful separation implies the n-fold exclusion for n up to
    # the certificate length
    fam = CofiniteFamily("powers3")
    for g in [1, 2, 5, 10, 27]:
        cert = separating_sequence(Z.element(g), fam, max_len=4, depth=12)
        assert isinstance(cert, SeparationCertificate)
        for n in range(1, len(cert) + 1):
            assert cupcap_check(Z.element(g), n, fam, depth=12).found


def test_separation_determinism():
    a = separating_sequence(Z.element(7), CofiniteFamily("powers3"),
                            max_len=4, depth=12)
    b = separating_sequence(Z.element(7), CofiniteFamily("powers3"),
                            max_len=4, depth=12)
    assert a.to_json() == b.to_json()


def test_certificate_steps_brute_force_recheck(budget_sums):
    cert = separating_sequence(Z.element(2), CofiniteFamily("powers3"),
                               max_len=4, depth=12)
    members = cert.members()
    for n in range(1, len(members) + 1):
        assert 2 not in budget_sums(2, members[:n])


# --- verdicts ---

def test_hausdorff_gap_verdict_sqrt7():
    rep = hausdorff_verdict(sqrt7_family(),
                            [Z.element(g) for g in range(1, 11)],
                            n_max=3, depth=12, max_len=5)
    assert rep.status is Status.REFUTED
    outcomes = [p["outcome"] for p in rep.payload["probes"]]
    # short prefixes can exclude some probes (covering all of Z needs on
    # the order of 3^m0 + 1 summands), but the blocked probes expose the gap
    assert set(outcomes) <= {"gap", "separated"}
    assert outcomes[0] == "gap"  # probe 1 sticks immediately
    assert "not Hausdorff" in rep.payload["verdict"]


def test_hausdorff_consistent_verdict_powers3():
    rep = hausdorff_verdict(CofiniteFamily("powers3"),
                            [Z.element(g) for g in range(1, 11)],
                            n_max=3, depth=12, max_len=5)
    assert rep.status is Status.VERIFIED
    assert rep.payload["verdict"] == "consistent-with-hausdorff"


def test_hausdorff_trivial_explicit_family():
    fam = ExplicitFamily([FiniteSet.of(Z, [0])])
    rep = hausdorff_verdict(fam, [Z.element(g) for g in range(1, 6)],
                            n_max=2, depth=3, max_len=3)
    assert rep.status is Status.VERIFIED


def test_hausdorff_rejects_identity_probe():
    with pytest.raises(ValueError):
        hausdorff_verdict(sqrt7_family(), [Z.element(0)],
                          n_max=1, depth=2, max_len=2)


def test_hausdorff_report_deterministic():
    probes = [Z.element(g) for g in (1, 2, 3)]
    a = hausdorff_verdict(sqrt7_family(), probes, 2, 10, 4)
    b = hausdorff_verdict(sqrt7_family(), probes, 2, 10, 4)
    assert a.body() == b.body()


# --- family JSON ---

def test_family_from_json():
    fam = family_from_json({"kind": "chain", "generator": "sqrt7"})
    assert fam.member(1) == sqrt7_set(2)
    cof = family_from_json({"kind": "cofinite", "sequence": "powers3"})
    assert cof.member(2) == TailSet.of("powers3", 2)
    exp = family_from_json({
        "kind": "explicit",
        "members": [{"kind": "residue", "modulus": 3, "residues": [0]}],
    })
    assert exp.member(0) == ResidueSet.of(3, {0})
    with pytest.raises(ValueError):
        family_from_json({"kind": "chain", "generator": "nope"})


def test_chain_descriptions_read_back():
    """A report's chain description, name and length, rebuilds the chain;
    a misspelt key, a mixed form and a wrong length are refused."""
    for doc in ({"kind": "chain", "generator": "sqrt7"},
                {"kind": "chain", "generator": "interval-halving"},
                {"kind": "chain", "generator": "product-boxes"}):
        fam = family_from_json(doc)
        back = family_from_json(fam.describe())
        assert back.describe() == fam.describe()
        assert [back.member(i) for i in range(4)] == \
            [fam.member(i) for i in range(4)]
    assert family_from_json({"kind": "chain", "name": "product-boxes-6",
                             "length": 6}).size() == 6
    for bad in ({"kind": "chain", "name": "sqrt7", "lenght": 3},
                {"kind": "chain", "name": "product-boxes-6", "coords": 6},
                {"kind": "chain", "name": "sqrt7", "generator": "sqrt7"},
                {"kind": "chain", "name": "sqrt7", "length": 3},
                {"kind": "chain", "name": "product-boxes-6", "length": 5},
                {"kind": "chain", "name": "product-boxes"},
                {"kind": "chain", "name": "nope"}):
        with pytest.raises(ValueError):
            family_from_json(bad)


def test_family_descriptions_read_back():
    """Every key ``describe`` writes for a readable family is accepted."""
    from grouptop.fixtures import dihedral8
    from grouptop.sequences import prefix_sequence
    d4 = dihedral8()
    families = [
        CofiniteFamily("powers3", 2),
        CofiniteFamily(prefix_sequence("user-q", [1, 5, 25]), 1),
        ExplicitFamily([FiniteSet.of(d4, ["r", "s"]),
                        FiniteSet.of(d4, ["s"])], name="d4"),
        ExplicitFamily([ResidueSet.of(3, [0]),
                        star(TailSet.of("powers3", 1, excluded={3}))],
                       name="integers"),
    ]
    for fam in families:
        back = family_from_json(fam.describe())
        assert back.describe() == fam.describe()
    with pytest.raises(ValueError):
        family_from_json({"kind": "explicit", "nmae": "x", "members": [
            {"kind": "finite", "elements": [1]}]})
