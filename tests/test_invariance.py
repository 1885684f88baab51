"""Outcomes that depend only on the filter, checked without a known answer.

A family F converges to the identity in a group topology iff every
neighbourhood of the identity contains a member of F.  So two families
in which each member of one contains a member of the other converge in
the same topologies and have the same finest topology T: a tail of a
nested chain, a cofinite family from a later start, and the same members
listed in another order all qualify.  T depends on neither the probes
nor the budgets.  Hence three rules, each applied to every pair of runs
in a case:

* equivalent families: equal statuses or one side ``unknown``, and each
  shared probe's outcomes equal or one side ``unresolved``;
* probe subsets: never ``verified`` on one side and ``refuted`` on the
  other;
* budgets: no probe ``gap`` at one budget and ``separated`` at another.

The cases the program still gets wrong are marked ``xfail(strict=True)``,
each naming the ROADMAP item whose fix turns it into an unexpected pass.
"""

import itertools
import json
from pathlib import Path

import pytest

from grouptop import ChainFamily, ExplicitFamily, FiniteSet, Status, \
    family_from_json, hausdorff_verdict
from grouptop.filters import RunConfig
from grouptop.fixtures import dihedral8

SQRT7_CONFIG = Path(__file__).resolve().parents[1] / "configs" / \
    "sqrt7.json"
INTERVAL_PROBES = ["1/3", "-5/7", "3/2"]
D4_PROBES = ["r", "r2", "r3", "s", "rs", "r2s", "r3s"]


def _run(family, probes, budgets):
    """(status, {probe: outcome}) of ``hausdorff_verdict`` on a family
    built by ``family()``, with budgets (n_max, depth, max_len)."""
    family = family()
    group = family.member(0).ambient()
    report = hausdorff_verdict(family, [group.element(p) for p in probes],
                               *budgets)
    return report.status, {entry["probe"]: entry["outcome"]
                           for entry in report.payload["probes"]}


def _tail(generator, shift):
    """The chain S'_i = S_{i + shift} of a built-in chain generator."""
    def family():
        chain = family_from_json({"kind": "chain", "generator": generator})
        return ChainFamily(lambda i: chain.member(i + shift),
                           name=chain.name)
    return family


def _cofinite(sequence, start):
    return lambda: family_from_json({"kind": "cofinite",
                                     "sequence": sequence, "start": start})


def _d4_triple(order):
    """The members {r, s}, {s, rs}, {s}, listed in ``order``."""
    def family():
        d4 = dihedral8()
        members = [FiniteSet.of(d4, ["r", "s"]), FiniteSet.of(d4, ["s", "rs"]),
                   FiniteSet.of(d4, ["s"])]
        return ExplicitFamily([members[i] for i in order], name="d4-triple")
    return family


def _sqrt7_config(probes=None):
    """The shipped sqrt7 config, with its probes replaced when given."""
    doc = json.loads(SQRT7_CONFIG.read_text())
    if probes is not None:
        doc["probes"] = probes
    cfg = RunConfig.from_json(doc)
    return lambda: cfg.family, doc["probes"], \
        (cfg.n_max, cfg.depth, cfg.max_len)


def equivalent(one, other) -> list:
    (status, outcomes), (status2, outcomes2) = one, other
    wrong = [] if status == status2 or Status.UNKNOWN in (status, status2) \
        else [f"status {status.value} vs {status2.value}"]
    return wrong + [f"probe {p}: {outcomes[p]} vs {outcomes2[p]}"
                    for p in outcomes.keys() & outcomes2.keys()
                    if outcomes[p] != outcomes2[p]
                    and "unresolved" not in (outcomes[p], outcomes2[p])]


def probe_subset(one, other) -> list:
    statuses = {one[0], other[0]}
    return [f"statuses {sorted(s.value for s in statuses)}"] \
        if statuses == {Status.VERIFIED, Status.REFUTED} else []


def budgets(one, other) -> list:
    return [f"probe {p}: {one[1][p]} vs {other[1][p]}"
            for p in one[1].keys() & other[1].keys()
            if {one[1][p], other[1][p]} == {"gap", "separated"}]


def _xfail(item, reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"ROADMAP item {item}: {reason}")


_SQRT7_TAIL_WRONG = _xfail(7, "deeper tails of the indiscrete sqrt7 chain "
                           "separate probes the whole chain holds as gaps")
_INTERVAL_TAIL_WRONG = _xfail(1, "the whole chain's stuck greedy runs read "
                              "as gaps, which its tails separate")
_ORDER_WRONG = _xfail(6, "the greedy scan follows the listed order, so "
                      "gaps and separations move with it")

CASES = [
    pytest.param(equivalent, [(_tail("sqrt7", 0), range(1, 11), (3, 12, 5)),
                              (_tail("sqrt7", s), range(1, 11), (3, 12, 5))],
                 id=f"sqrt7-tail-{s}",
                 marks=[_SQRT7_TAIL_WRONG] if s >= 2 else [])
    for s in (1, 2, 3)
] + [
    pytest.param(equivalent,
                 [(_tail("interval-halving", 0), INTERVAL_PROBES, (3, 6, 5)),
                  (_tail("interval-halving", s), INTERVAL_PROBES, (3, 6, 5))],
                 id=f"interval-halving-tail-{s}", marks=_INTERVAL_TAIL_WRONG)
    for s in (1, 2, 3)
] + [
    pytest.param(equivalent, [(_d4_triple((0, 1, 2)), D4_PROBES, (3, 12, 5)),
                              (_d4_triple(order), D4_PROBES, (3, 12, 5))],
                 id="d4-triple-order-" + "".join(map(str, order)),
                 marks=_ORDER_WRONG)
    for order in itertools.permutations(range(3)) if order != (0, 1, 2)
] + [
    pytest.param(probe_subset, [_sqrt7_config([4, 5, 9]), _sqrt7_config()],
                 id="sqrt7-config-probes-4-5-9",
                 marks=_xfail(19, "the status follows the probe list: "
                              "verified on [4, 5, 9], refuted on 1..10")),
    pytest.param(budgets, [(_tail("sqrt7", 0), [2], b)
                           for b in [(2, 4, 2), (3, 6, 3), (3, 12, 5)]],
                 id="sqrt7-probe-2-budgets",
                 marks=_xfail(7, "probe 2 is separated at 2/4/2 and 3/6/3 "
                              "in the indiscrete topology, a gap at "
                              "3/12/5")),
    pytest.param(budgets, [(_tail("interval-halving", 0), ["1/3"], b)
                           for b in [(3, 6, 5), (3, 12, 5)]],
                 id="interval-halving-probe-budgets",
                 marks=_xfail(1, "probe 1/3 is a gap at 3/6/5, from a "
                              "stuck greedy run, and separated at 3/12/5")),
] + [
    pytest.param(equivalent, [(_cofinite(sequence, start), range(1, 31),
                               (3, 14, 5)) for start in (0, 1, 2, 4)],
                 id=f"cofinite-{sequence}-starts")
    for sequence in ("powers3", "factorial", "fibonacci")
]


@pytest.mark.parametrize("rule, runs", CASES)
def test_outcomes_depend_only_on_the_filter(rule, runs):
    outcomes = [_run(*run) for run in runs]
    wrong = [line for one, other in itertools.combinations(outcomes, 2)
             for line in rule(one, other)]
    assert not wrong, wrong
