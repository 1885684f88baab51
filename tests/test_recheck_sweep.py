"""Every recorded fact of a small ``hausdorff`` report is bound.

The sweep edits one payload or budgets leaf at a time in three small
reports and rechecks each edited copy: ints +1, bools flipped, strings
with ``x`` appended and with their first integer +1, and lists replaced
by ``[0]``, at most ``PER_PATTERN`` edits per path pattern (the path with
list indices and cupcap keys as ``*``).  Each edit must fail, unless its
path pattern is on the free list below, whose reasons are the contract: a
new field either joins the list with a reason or is bound by the replay.
"""

import copy
import json
import re

import pytest

from grouptop import Integers, family_from_json, hausdorff_verdict
from grouptop import examples as ex
from grouptop.nonabelian import verify_fib_identity, verify_fib_words
from grouptop.recheck import recheck_document
from grouptop.report import canonical_json, report_document

PER_PATTERN = 6

# family, probes, (n_max, depth, max_len): a consistent powers3 report,
# a sqrt7 gap next to a separated probe, and Fibonacci probes with unfound
# cupcap entries and a stuck report blocked by an unknown.
REPORTS = {
    "powers3": ({"kind": "cofinite", "sequence": "powers3"}, [1, 2, 5],
                (2, 8, 3)),
    "sqrt7": ({"kind": "chain", "generator": "sqrt7"}, [1, 4], (2, 6, 3)),
    "fibonacci": ({"kind": "cofinite", "sequence": "fibonacci"}, [4, 7],
                  (2, 5, 3)),
}

# Path patterns whose edits may pass, each with the reason why.
FREE = {
    "payload.probes.*.cupcap.*.skipped_unknown":
        "how many members the scan skipped as undecided; only a re-run "
        "of the scan derives it",
    "payload.probes.*.separation.blocked.*.result.proof":
        "how a blocking membership was decided; a yes stands on its "
        "re-checked witness, and only a re-run derives an unknown's route",
    "payload.probes.*.separation.blocked.*.result.note":
        "free text beside a blocking membership",
}


def _report(name: str) -> dict:
    family_doc, probes, budgets = REPORTS[name]
    family = family_from_json(family_doc)
    group = family.member(0).ambient()
    report = hausdorff_verdict(family, [group.element(p) for p in probes],
                               *budgets)
    return json.loads(canonical_json(report_document([report])))


def _free(doc: dict) -> dict:
    """``FREE``, and the budgets no record of ``doc`` reaches: the depth
    when every cupcap entry found a member and no probe is stuck, and
    max_len when no probe has a certificate."""
    probes = doc["claims"][0]["payload"]["probes"]
    free = dict(FREE)
    if all(cc["found"] for p in probes for cc in p["cupcap"].values()) and \
            not any("blocked" in p["separation"] for p in probes):
        free["budgets.depth"] = "no record reaches the scan limit"
    if not any("steps" in p["separation"] for p in probes):
        free["budgets.max_len"] = "no record reaches the step cap"
    return free


def _nodes(value, path=()):
    yield path, value
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _edits(value) -> list:
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1]
    if isinstance(value, list):
        return [[0]]
    if not isinstance(value, str):
        return []
    first = re.search(r"\d+", value)
    return [value + "x"] + ([
        value[:first.start()] + str(int(first.group()) + 1) +
        value[first.end():]] if first else [])


def _pattern(path: tuple) -> str:
    return ".".join("*" if isinstance(key, int) or key.isdigit() else key
                    for key in path)


def _is_free(pattern: str, free: dict) -> bool:
    return any(pattern == p or pattern.startswith(p + ".") for p in free)


def _edited(doc: dict, path: tuple, value) -> dict:
    edited = copy.deepcopy(doc)
    *parents, last = path
    node = edited["claims"][0]
    for key in parents:
        node = node[key]
    node[last] = value
    return edited


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_every_payload_and_budgets_edit_fails_unless_free(name):
    doc = _report(name)
    assert recheck_document(doc)[0]
    free = _free(doc)
    claim = doc["claims"][0]
    per_pattern: dict = {}
    passed = []
    for section in ("payload", "budgets"):
        for path, value in _nodes(claim[section], (section,)):
            pattern = _pattern(path)
            for edit in _edits(value):
                if per_pattern.get(pattern, 0) == PER_PATTERN:
                    break
                per_pattern[pattern] = per_pattern.get(pattern, 0) + 1
                if recheck_document(_edited(doc, path, edit))[0] and \
                        not _is_free(pattern, free):
                    passed.append((path, edit))
    assert sum(per_pattern.values()) > 100, per_pattern
    assert not passed, passed


def _claim(doc):
    return doc["claims"][0]


def _probe(doc, i=0):
    return _claim(doc)["payload"]["probes"][i]


@pytest.mark.parametrize("name, tamper, message", [
    ("powers3", lambda d: _probe(d)["separation"].update(policy="any"),
     "probe 1: the replay gives the entry at ['separation']['policy']"),
    ("powers3", lambda d: _probe(d)["separation"]["budget"].update(
        per_set_candidates=65), "probe 1: the replay gives the entry at "
     "['separation']['budget']['per_set_candidates']: 64, the report 65"),
    ("powers3", lambda d: _probe(d)["separation"]["steps"][0][
        "exclusion"].update(status="unknown"), "probe 1: the replay gives "
     "the entry at ['separation']['steps'][0]['exclusion']['status']: 'no', "
     "the report 'unknown'"),
    ("fibonacci", lambda d: _probe(d)["cupcap"]["2"].update(checked=4),
     "probe 4: the replay gives the entry at ['cupcap']['2']['checked']: 5, "
     "the report 4"),
    ("powers3", lambda d: _claim(d)["budgets"].update(value_cap_factor=2),
     "the replay gives budgets"),
    ("powers3", lambda d: _claim(d).update(claim="hausdorff:powers4"),
     "the replay gives claim 'hausdorff:powers3', the report "
     "'hausdorff:powers4'"),
    ("fibonacci", lambda d: _probe(d)["separation"]["blocked"][0][
        "result"].update(status="no"), "probe 4: candidate 1 is blocked by "
     "'no'"),
    ("powers3", lambda d: _claim(d)["payload"].update(extra=1),
     "the replay gives payload keys ['family', 'probes', 'verdict'], the "
     "report ['extra', 'family', 'probes', 'verdict']"),
], ids=["policy", "per-set-candidates", "step-exclusion-status",
        "unfound-cupcap-checked", "value-cap-factor", "id-tag",
        "blocking-status-no", "extra-payload-key"])
def test_recheck_binds_fields_nothing_read(name, tamper, message):
    """Fields the replay once left unread: the separation's policy and
    budget, a step's exclusion status, an unfound cupcap entry's count,
    the search budgets, the id's family tag, a blocking status, and a
    payload key the producer never writes."""
    doc = _report(name)
    tamper(doc)
    ok, details = recheck_document(doc)
    assert not ok and details[0].startswith(
        f"  FAIL   {_claim(doc)['claim']}: {message}"), details


def test_recheck_of_a_crafted_n_max_builds_one_entry_past_the_record():
    """Budgets claiming 10^9 cupcap entries fail at the first one the
    probe does not record, without building the rest."""
    doc = _report("powers3")
    _claim(doc)["budgets"]["n_max"] = 10 ** 9
    ok, details = recheck_document(doc)
    assert not ok and details[0].startswith(
        "  FAIL   hausdorff:powers3: probe 1: the replay gives the entry at "
        "['cupcap']['3']: {'found': False, 'n': 3, 'checked': 8}, the report "
        "nothing"), details


# One small report of every replayed kind.
SMALL = {
    "hausdorff": lambda: hausdorff_verdict(
        family_from_json(REPORTS["powers3"][0]), [Integers().element(1)],
        1, 2, 1),
    "sqrt7-necessary": lambda: ex.verify_sqrt7_necessary(1, 1),
    "hensel": lambda: ex.verify_hensel(7, 3, 2),
    "sqrt7-cover": lambda: ex.verify_sqrt7_U_full(
        1, ex.sqrt7_cover_levels(1), [2]),
    "product-cover": lambda: ex.verify_product_sum_full(
        4, 2, ex.product_cover_levels(4, 2),
        ex.random_product_elements(4, 1, 7)),
    "product-union-small": lambda: ex.verify_product_union_small(3, 1),
    "interval-no-extension": lambda: ex.verify_interval_example(2),
    "fibonacci-words": lambda: verify_fib_words(3),
    "fibonacci-commutator": lambda: verify_fib_identity(2),
}

# An edit of a claim, and the start of the message it must fail with.
EDITS = {
    "claim-key": (lambda claim: claim.update(note=""),
                  "the replay gives claim keys "),
    "payload-key": (lambda claim: claim["payload"].update(extra=0),
                    "the replay gives payload keys "),
    "budgets-key": (lambda claim: claim["budgets"].update(extra=0),
                    "the replay gives budgets {"),
    "id-leading-zero": (lambda claim: claim.update(
        claim=re.sub(r"(\d+)$", r"0\1", claim["claim"])),
        "the replay gives claim '"),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
@pytest.mark.parametrize("kind", sorted(SMALL))
def test_recheck_compares_keys_id_and_budgets_of_every_kind(kind, edit):
    """The one comparison of a replay with its claim covers every kind:
    a claim key, payload key or budgets key the producer never writes,
    and an id the replay would not write (a leading zero on its last
    number), each fail that claim."""
    doc = json.loads(canonical_json(report_document([SMALL[kind]()])))
    assert recheck_document(doc) == (True,
                                     [f"  ok     {_claim(doc)['claim']}"])
    tamper, message = EDITS[edit]
    tamper(_claim(doc))
    ok, details = recheck_document(doc)
    assert not ok and details[0].startswith(
        f"  FAIL   {_claim(doc)['claim']}: {message}"), details
