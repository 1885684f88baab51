"""Re-verify the witnesses embedded in an emitted report document.

Everything here rebuilds elements and set descriptions from their JSON
forms and replays membership and addition; no verdict from the original
run is trusted.  A ``hausdorff`` claim's outcomes, verdict and status are
derived again from its replayed payload, and the document's status from
its claims'.  A claim's kind, its id up to the first ":", picks its one
replayer; kinds whose payloads embed no witnesses are listed as skipped,
and a kind the program does not emit fails.
"""

from __future__ import annotations

import re
from typing import Iterable, Tuple

from .filters import (
    SeparationCertificate,
    SeparationStep,
    StuckReport,
    _nfold_exclusion,
    hausdorff_classification,
    recheck_certificate,
)
from .groups import FreeGroup, Rationals, group_from_json
from .prefixsum import MembershipResult
from .report import Status, aggregate_status
from .setspec import (
    FoldTable,
    SymmetricInterval,
    contains,
    spec_from_json,
    star,
    witness_holds,
)


def recheck_document(doc: dict) -> Tuple[bool, list]:
    ok = True
    details = []
    table = FoldTable()  # the claims share every star and fold
    statuses = []
    claims = doc.get("claims", []) if isinstance(doc, dict) else None
    if not isinstance(claims, list):
        return False, ["  FAIL   document: no list of claims"]
    for i, claim in enumerate(claims):
        cid = claim.get("claim") if isinstance(claim, dict) else None
        if not isinstance(cid, str):
            details.append(f"  FAIL   claim {i}: no claim id")
            ok = False
            continue
        try:
            statuses.append(Status(claim["status"]))
            result = _recheck_claim(cid, claim, table)
        except AssertionError as err:  # a replay that no longer holds
            result = str(err)
        except Exception as err:  # any replay failure is a finding
            result = f"error: {err}"
        if result is None:
            details.append(f"  skip   {cid} (no embedded witnesses)")
        elif result == "ok":
            details.append(f"  ok     {cid}")
        else:
            details.append(f"  FAIL   {cid}: {result}")
            ok = False
    derived = aggregate_status(statuses).value
    if doc.get("status") != derived:
        details.append(f"  FAIL   document status: the claims give "
                       f"{derived!r}, the document {doc.get('status')!r}")
        ok = False
    return ok, details


def _recheck_claim(cid: str, claim: dict, table: FoldTable):
    """Replay a claim by its kind, the id up to its first ":"."""
    kind = cid.partition(":")[0]
    replay = _REPLAYERS.get(kind)
    if replay is None:
        return f"unknown claim kind {kind!r}"
    return replay(claim, table)


def _no_witnesses(claim: dict, table: FoldTable):
    return None


def _recheck_decompositions(claim: dict, table: FoldTable):
    decomps = list(_find_decompositions(claim.get("payload", {})))
    if not decomps:
        return None
    for d in decomps:
        if not _decomposition_ok(d):
            return "a decomposition witness fails"
    return "ok"


def _find_decompositions(node) -> Iterable[dict]:
    if isinstance(node, dict):
        if node.get("type") == "decomposition":
            yield node
        else:
            for v in node.values():
                yield from _find_decompositions(v)
    elif isinstance(node, list):
        for v in node:
            yield from _find_decompositions(v)


def _decomposition_ok(d: dict) -> bool:
    group = group_from_json(d["group"])
    target = group.element(d["target"])
    summands = [group.element(v) for v in d["summands"]]
    sets = [spec_from_json(s, group=group) for s in d["sets"]]
    return witness_holds(target, summands, sets)


def _recheck_hensel(claim: dict, table: FoldTable):
    m = re.fullmatch(r"hensel:p=(-?\d+):a=(-?\d+):k=\d+", claim["claim"])
    if not m:
        return "unparseable claim id"
    p, a = int(m.group(1)), int(m.group(2))
    prev = None
    for row in claim["payload"]["levels"]:
        modulus, root = row["modulus"], row["root"]
        if (root * root - a) % modulus != 0:
            return f"root {root} fails mod {modulus}"
        if prev is not None and (root - prev) % (modulus // p) != 0:
            return "congruence chain broken"
        prev = root
    return "ok"


def _recheck_necessary(claim: dict, table: FoldTable):
    m = re.fullmatch(r"sqrt7-necessary:g=(-?\d+):n=(\d+)", claim["claim"])
    if not m:
        return "unparseable claim id"
    g, n = int(m.group(1)), int(m.group(2))
    member = spec_from_json(claim["payload"]["member"])
    folded = table.n_fold_star(member, n)
    if folded.contains_value(g) or folded.contains_value(-g):
        return "target re-enters the n-fold set"
    return "ok"


def _recheck_interval(claim: dict, table: FoldTable):
    group = Rationals()
    one = group.element(1)
    s0 = SymmetricInterval.of(1)
    if contains(star(s0), one):
        return "1 re-enters the unit interval"
    for entry in claim["payload"]["schedule"]:
        eps = group.element(entry["epsilon"]).value
        witness_lists = [entry.get("witness"),
                         entry["membership"].get("witness")]
        if not any(witness_lists):
            return f"no witness at epsilon {eps}"
        chain = [s0, SymmetricInterval(eps)]
        for witness in witness_lists:
            if witness is None:
                continue
            summands = [group.element(v) for v in witness]
            if not witness_holds(one, summands, chain):
                return f"witness fails at epsilon {eps}"
    return "ok"


def _recheck_hausdorff(claim: dict, table: FoldTable):
    """Replay every probe, then derive its outcome, the verdict and the
    status with the producer's own rule and compare them with the
    report's."""
    payload = claim["payload"]
    probes = payload["probes"]
    outcomes, verdict, status = hausdorff_classification(
        _replayed_probe(probe, table) for probe in probes)
    for probe, outcome in zip(probes, outcomes):
        if probe["outcome"] != outcome:
            return (f"probe {probe['probe']}: the replay gives outcome "
                    f"{outcome!r}, the report {probe['outcome']!r}")
    if payload["verdict"] != verdict:
        return (f"the replay gives verdict {verdict!r}, the report "
                f"{payload['verdict']!r}")
    if claim["status"] != status.value:
        return (f"the replay gives status {status.value!r}, the report "
                f"{claim['status']!r}")
    return "ok"


def _replayed_probe(probe: dict, table: FoldTable) -> tuple:
    """(cupcap_ok, separation) of one probe, decoded in the ambient group
    of the members its report names, after replaying each found n-fold
    exclusion and the separation through the producer's own routes; a
    replay that fails raises AssertionError."""
    sep = probe["separation"]
    found = [cc for cc in probe["cupcap"].values() if cc.get("found")]
    steps = sep.get("steps", sep.get("prefix"))
    blocked = sep.get("blocked", [])
    specs = [spec_from_json(e["member"]) for e in found + steps + blocked]
    group = g = None  # without members there is nothing to replay
    if specs:
        group = specs[0].ambient()
        g = group.element(probe["probe"])
        if group.element(sep["target"]) != g:
            raise AssertionError("separation target is not the probe")
    for cc, member in zip(found, specs):
        if not _nfold_exclusion(g, cc["n"], member, table).is_no():
            raise AssertionError(
                f"cupcap member no longer excludes {probe['probe']}")
    specs = specs[len(found):]
    chosen = tuple(SeparationStep(s["member_index"], member,
                                  _result(group, s["exclusion"]))
                   for s, member in zip(steps, specs))
    replay = SeparationCertificate(g, chosen, sep["family"])
    if "blocked" in sep:
        replay = StuckReport(g, sep["stuck_at_step"], chosen, tuple(
            (b["candidate_index"], member, _result(group, b["result"]))
            for b, member in zip(blocked, specs[len(steps):])),
            sep["family"])
    recheck_certificate(replay, table)
    return len(found) == len(probe["cupcap"]), replay


def _result(group, doc: dict) -> MembershipResult:
    witness = doc.get("witness")
    return MembershipResult(doc["status"], None if witness is None else
                            tuple(group.element(v) for v in witness))


def _recheck_fib(claim: dict, table: FoldTable):
    payload = claim["payload"]
    free = FreeGroup(("x", "y"))
    sides = {free.element(payload[key]) for key in ("lhs", "rhs", "expected")}
    return "ok" if len(sides) == 1 else "word identity fails on re-parse"


# One replayer per claim kind the program emits; the kinds whose payloads
# embed no witnesses yet are listed as skipped.  Any other kind fails.
_REPLAYERS = {
    "hausdorff": _recheck_hausdorff,
    "hensel": _recheck_hensel,
    "sqrt7-necessary": _recheck_necessary,
    "sqrt7-cover": _recheck_decompositions,
    "product-cover": _recheck_decompositions,
    "interval-no-extension": _recheck_interval,
    "fibonacci-commutator": _recheck_fib,
    **dict.fromkeys(["fibonacci-words", "product-union-small", "uu-product",
                     "u-inverse-closure", "u-translation"], _no_witnesses),
}
