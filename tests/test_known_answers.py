"""No ``hausdorff`` outcome may contradict a known answer.

The finest group topology in which a family converges to the identity is
known for these families.  Its closure of the identity, N, is a normal
subgroup; a probe g is separable from the identity iff g is not in N, and
the topology is Hausdorff iff N is trivial:

* cofinite ``powers3``, ``factorial`` and ``fibonacci``, and the
  ``interval-halving`` chain: Hausdorff, N = {0} (the tails lie in
  subgroups meeting in {0}, the character x -> x theta, and the usual
  topology of Q);
* the ``sqrt7`` chain: indiscrete, N = Z (the cover witnesses decompose
  every integer along any choice of chain sets);
* an explicit family with a least member M: N is the normal subgroup M
  generates, computed here by gcd over Z and by brute-force normal
  closure in a finite group.

A claim may be ``verified`` only where the topology is Hausdorff and
``refuted`` only where it is not; a probe may be ``separated`` only when
it is separable and ``gap`` only when it is not.  The cases the program
still gets wrong are marked ``xfail(strict=True)``, each naming the
ROADMAP item whose fix turns it into an unexpected pass.
"""

import math

import pytest

from grouptop import ExplicitFamily, FiniteSet, Status, family_from_json, \
    hausdorff_verdict, op_add, op_conjugate
from grouptop.fixtures import dihedral8


# Each closure maps a family to (whether g lies in N, whether N is {e}).
def _identity_only(family):
    return (lambda g: g.is_identity()), True


def _whole_group(family):
    return (lambda g: True), False


def _least(family) -> FiniteSet:
    least = min(family.members, key=lambda m: len(m.values))
    assert all(least.values <= m.values for m in family.members)
    return least


def _gcd_closure(family):
    """N over Z: d Z for d the gcd of the least member's elements."""
    d = math.gcd(*_least(family).values)
    return (lambda g: g.value % d == 0 if d else g.value == 0), d == 0


def _normal_closure(family):
    """N in a finite group: the identity and every conjugate of the least
    member's elements, closed under the group law."""
    least = _least(family)
    group = least.group
    closure = {group.identity_value()} | {
        op_conjugate(x, s).value
        for x in group.elements() for s in least.elements()}
    while True:
        grown = closure | {op_add(group.element(a), group.element(b)).value
                           for a in closure for b in closure}
        if grown == closure:
            return (lambda g: g.value in closure), len(closure) == 1
        closure = grown


def _cofinite(sequence):
    return lambda: family_from_json({"kind": "cofinite",
                                     "sequence": sequence})


def _chain(generator):
    return lambda: family_from_json({"kind": "chain",
                                     "generator": generator})


def _explicit_1000():
    return family_from_json({"kind": "explicit", "members": [
        {"kind": "finite", "elements": [1000]}]})


def _d4_triple():
    d4 = dihedral8()
    return ExplicitFamily([FiniteSet.of(d4, ["r", "s"]),
                           FiniteSet.of(d4, ["s", "rs"]),
                           FiniteSet.of(d4, ["s"])], name="d4-triple")


def _xfail(item, reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"ROADMAP item {item}: {reason}")


CASES = [
    pytest.param(_cofinite(name), range(1, 13), (2, 8, 3), _identity_only,
                 id=f"cofinite-{name}")
    for name in ("powers3", "factorial", "fibonacci")
] + [
    pytest.param(_chain("interval-halving"), ["1/3", "-5/7", "3/2"],
                 (3, 6, 5), _identity_only, id="interval-halving",
                 marks=_xfail(1, "a stuck greedy run reads as a gap, so "
                              "the claim is refuted with three gaps")),
    pytest.param(_chain("sqrt7"), range(1, 11), (3, 12, 5), _whole_group,
                 id="sqrt7-config",
                 marks=_xfail(7, "probes 4, 5 and 9 are separated in the "
                              "indiscrete topology")),
    pytest.param(_explicit_1000, range(1, 11), (3, 12, 5), _gcd_closure,
                 id="explicit-1000",
                 marks=_xfail(6, "verified, though 1000 lies in the "
                              "closure of 0")),
    pytest.param(_d4_triple, ["r", "r2", "r3", "s", "rs", "r2s", "r3s"],
                 (2, 3, 3), _normal_closure,
                 id="d4-triple",
                 marks=_xfail(6, "r, rs and r3s are gaps, though they lie "
                              "outside N = {e, r2, s, r2s}")),
]


@pytest.mark.parametrize("family, probes, budgets, closure", CASES)
def test_no_outcome_contradicts_the_known_answer(family, probes, budgets,
                                                 closure):
    family = family()
    group = family.member(0).ambient()
    elements = [group.element(p) for p in probes]
    in_closure, hausdorff = closure(family)
    report = hausdorff_verdict(family, elements, *budgets)
    wrong = []
    if report.status is (Status.REFUTED if hausdorff else Status.VERIFIED):
        wrong.append(f"status {report.status.value}")
    for g, entry in zip(elements, report.payload["probes"]):
        if entry["outcome"] == ("gap" if not in_closure(g) else "separated"):
            wrong.append(f"probe {g}: {entry['outcome']}")
    assert not wrong, wrong
