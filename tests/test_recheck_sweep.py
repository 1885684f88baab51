"""Every recorded fact of a small report of each replayed kind is bound.

The sweep edits one payload or budgets leaf at a time in three small
``hausdorff`` reports and one small claim of every other replayed kind,
and rechecks each edited copy: ints +1, bools flipped, strings with ``x``
appended and with their first integer +1, and lists replaced by ``[0]``
(skipped where the list is ``[0]`` already, since that changes nothing),
at most ``PER_PATTERN`` edits per path pattern (the path with list
indices and cupcap keys as ``*``).  A second sweep makes one more kind of
edit, an int 0 or 1 turned into the bool of equal value, which ``==``
takes alike.  Each edit must fail, unless its path pattern is on its
kind's free list below, whose reasons are the contract: a new field
either joins the list with a reason or is bound by the replay.
"""

import copy
import json
import re

import pytest

from grouptop import Integers, family_from_json, hausdorff_verdict
from grouptop import examples as ex
from grouptop.nonabelian import verify_fib_identity, verify_fib_words
from grouptop.recheck import recheck_document
from grouptop.report import canonical_json, report_document, same_json
from grouptop.setspec import FoldTable

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


# One small report of every replayed kind.
SMALL = {
    "hausdorff": lambda: hausdorff_verdict(
        family_from_json(REPORTS["powers3"][0]), [Integers().element(1)],
        1, 2, 1),
    "sqrt7-necessary": lambda: ex.verify_sqrt7_necessary(1, 1, FoldTable()),
    "hensel": lambda: ex.verify_hensel(7, 3, 2),
    "sqrt7-cover": lambda: ex.verify_sqrt7_U_full(
        1, ex.sqrt7_cover_levels(1), [2], FoldTable()),
    "product-cover": lambda: ex.verify_product_sum_full(
        4, 2, ex.random_product_elements(4, 1, 7), FoldTable()),
    "product-union-small": lambda: ex.verify_product_union_small(3, 1,
                                                                 FoldTable()),
    "interval-no-extension": lambda: ex.verify_interval_example(2,
                                                                FoldTable()),
    "fibonacci-words": lambda: verify_fib_words(3),
    "fibonacci-commutator": lambda: verify_fib_identity(2),
}

# Path patterns whose edits may pass in the small report of each kind
# but hausdorff, each with the reason why: none, since each of these
# kinds re-runs its producer on the inputs its id names.
SMALL_FREE = {
    "sqrt7-necessary": {},
    "hensel": {},
    "sqrt7-cover": {},
    "product-cover": {},
    "product-union-small": {},
    "interval-no-extension": {},
    "fibonacci-words": {},
    "fibonacci-commutator": {},
}

# Kinds whose small report holds no int 0 or 1 for the bool sweep to edit.
NO_BIT_INTS = {"interval-no-extension", "fibonacci-commutator"}


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


def _bool_edits(value) -> list:
    """The bool equal to an int 0 or 1."""
    return [bool(value)] if type(value) is int and value in (0, 1) else []


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


def _sweep(doc: dict, free: dict, edits=_edits) -> tuple:
    """(edits per path pattern, the edits outside ``free`` that pass),
    each of ``edits``' edits of every leaf."""
    assert recheck_document(doc)[0]
    claim = doc["claims"][0]
    per_pattern: dict = {}
    passed = []
    for section in ("payload", "budgets"):
        for path, value in _nodes(claim[section], (section,)):
            pattern = _pattern(path)
            for edit in edits(value):
                if same_json(edit, value):
                    continue  # a list that is [0] already: no edit
                if per_pattern.get(pattern, 0) == PER_PATTERN:
                    break
                per_pattern[pattern] = per_pattern.get(pattern, 0) + 1
                if recheck_document(_edited(doc, path, edit))[0] and \
                        not _is_free(pattern, free):
                    passed.append((path, edit))
    return per_pattern, passed


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_every_payload_and_budgets_edit_fails_unless_free(name):
    doc = _report(name)
    per_pattern, passed = _sweep(doc, _free(doc))
    assert sum(per_pattern.values()) > 100, per_pattern
    assert not passed, passed


def test_every_sqrt7_necessary_edit_fails():
    """A sqrt7-necessary claim re-runs its producer on the id's g and n,
    so no recorded fact is free: its ``n_fold`` and
    ``divisibility_targets`` edits passed while the replay took them from
    the record."""
    doc = _sqrt7_necessary()
    per_pattern, passed = _sweep(doc, SMALL_FREE["sqrt7-necessary"])
    assert {"payload.n_fold.residues.*", "payload.divisibility_targets.*",
            "payload.bound_level_also_excludes", "budgets.n"} <= \
        set(per_pattern), per_pattern
    assert not passed, passed


def _sqrt7_necessary() -> dict:
    return json.loads(canonical_json(report_document(
        [ex.verify_sqrt7_necessary(2, 2, FoldTable())])))


def _small(kind: str) -> dict:
    return json.loads(canonical_json(report_document([SMALL[kind]()])))


def _document(name: str) -> dict:
    """The report the sweeps edit for ``name``: a ``REPORTS`` entry, the
    g = 2, n = 2 sqrt7-necessary claim, or another kind's small report."""
    return _report(name) if name in REPORTS else _sqrt7_necessary() \
        if name == "sqrt7-necessary" else _small(name)


@pytest.mark.parametrize("kind", sorted(set(SMALL_FREE) - {"sqrt7-necessary"}))
def test_every_edit_of_each_replayed_kind_fails_unless_free(kind):
    """Every other replayed kind's small report is swept as the
    sqrt7-necessary claim is.  A cover witness's ``sets`` are bound: the
    replay writes them from the stars the claim folds."""
    doc = _small(kind)
    per_pattern, passed = _sweep(doc, SMALL_FREE[kind])
    assert per_pattern, per_pattern
    assert not passed, passed


@pytest.mark.parametrize("name", [
    *sorted(REPORTS), "sqrt7-necessary",
    *sorted(set(SMALL_FREE) - {"sqrt7-necessary"})])
def test_every_int_0_or_1_made_bool_fails_unless_free(name):
    """An int 0 or 1 turned into false or true fails wherever an edit
    by value fails: a hausdorff probe entry is compared with its replay
    by JSON type, as every other fact is.  Setting a separation's
    ``target`` or ``stuck_at_step`` to ``true`` passed while the replay
    compared the entries by ``==``."""
    doc = _document(name)
    free = _free(doc) if name in REPORTS else SMALL_FREE[name]
    per_pattern, passed = _sweep(doc, free, _bool_edits)
    assert bool(per_pattern) == (name not in NO_BIT_INTS), per_pattern
    assert not passed, passed


def _claim(doc):
    return doc["claims"][0]


def _probe(doc, i=0):
    return _claim(doc)["payload"]["probes"][i]


@pytest.mark.parametrize("name, tamper, message", [
    ("powers3", lambda d: _probe(d)["separation"].update(policy="any"),
     "the replay gives probes at [0]['separation']['policy']"),
    ("powers3", lambda d: _probe(d)["separation"]["budget"].update(
        per_set_candidates=65), "the replay gives probes at "
     "[0]['separation']['budget']['per_set_candidates']: 64, the report 65"),
    ("powers3", lambda d: _probe(d)["separation"]["steps"][0][
        "exclusion"].update(status="unknown"), "the replay gives probes at "
     "[0]['separation']['steps'][0]['exclusion']['status']: 'no', the "
     "report 'unknown'"),
    ("fibonacci", lambda d: _probe(d)["cupcap"]["2"].update(checked=4),
     "the replay gives probes at [0]['cupcap']['2']['checked']: 5, the "
     "report 4"),
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
    """Budgets claiming 446 cupcap entries, the most a config may ask
    for, fail at the first one the probe does not record, without
    building the rest."""
    doc = _report("powers3")
    _claim(doc)["budgets"]["n_max"] = 446
    ok, details = recheck_document(doc)
    assert not ok and details[0].startswith(
        "  FAIL   hausdorff:powers3: the replay gives probes at "
        "[0]['cupcap']['3']: {'found': False, 'n': 3, 'checked': 8}, the "
        "report nothing"), details


@pytest.mark.parametrize("n_max", [447, 10 ** 9])
def test_recheck_refuses_an_n_max_past_the_bound_in_one_line(n_max):
    """A claim whose budgets name an n_max past 446 fails in one line, as
    ``hausdorff`` refuses such a config, before any member is built."""
    doc = _report("powers3")
    _claim(doc)["budgets"]["n_max"] = n_max
    assert recheck_document(doc) == (False, [
        f"  FAIL   hausdorff:powers3: error: n_max={n_max} folds chains of "
        f"up to n_max copies, (n_max + 1)^2 = {(n_max + 1) ** 2}, past the "
        f"enumeration cap 200000"])


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
    doc = _small(kind)
    assert recheck_document(doc) == (True,
                                     [f"  ok     {_claim(doc)['claim']}"])
    tamper, message = EDITS[edit]
    tamper(_claim(doc))
    ok, details = recheck_document(doc)
    assert not ok and details[0].startswith(
        f"  FAIL   {_claim(doc)['claim']}: {message}"), details
