"""A plain reference for the bounded search's budget, shared as fixtures.

It rebuilds each set's candidate list from ``SEARCH_BUDGET`` and enumerates
sums as Python sets and tuples, sharing no search code with
``grouptop.prefixsum``.
"""

import pytest

from grouptop.prefixsum import SEARCH_BUDGET
from grouptop.setspec import FiniteSet, star


def candidate_lists(g: int, chain) -> list:
    """Per set, the bounded search's candidates in list order: a finite
    set's starred elements in sorted order; for a tail, 0 and then x, -x
    for each of its first ``per_set_candidates`` values with
    |x| <= value_cap_factor * len(chain) * max(|g|, 1)."""
    cap = SEARCH_BUDGET["value_cap_factor"] * len(chain) * max(abs(g), 1)
    lists = []
    for spec in chain:
        if isinstance(spec, FiniteSet):
            lists.append([el.value for el in star(spec).base.elements()])
            continue
        tail = spec.member_values(cap)[:SEARCH_BUDGET["per_set_candidates"]]
        lists.append([0] + [s * x for x in tail for s in (1, -1)])
    return lists


def reachable_sums(g: int, chain) -> set:
    """Every sum of one candidate per set, within the budget for g."""
    sums = {0}
    for cands in candidate_lists(g, chain):
        sums = {s + v for s in sums for v in cands}
    return sums


@pytest.fixture
def budget_candidates():
    return candidate_lists


@pytest.fixture
def budget_sums():
    return reachable_sums
