"""Re-verify the witnesses embedded in an emitted report document.

Everything here rebuilds elements and set descriptions from their JSON
forms and replays membership and addition; no verdict from the original
run is trusted.  A ``hausdorff`` claim's outcomes, verdict and status are
derived again from its replayed payload, and the document's status from
its claims'.  Claims without embedded witnesses are listed as skipped.
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
    for claim in doc.get("claims", []):
        cid = claim["claim"]
        try:
            statuses.append(Status(claim["status"]))
            result = _recheck_claim(claim, table)
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


def _recheck_claim(claim: dict, table: FoldTable):
    cid = claim["claim"]
    payload = claim.get("payload", {})
    if cid.startswith("hensel:"):
        return _recheck_hensel(cid, payload)
    if "-necessary:" in cid:
        return _recheck_necessary(cid, payload, table)
    if cid.startswith("interval-no-extension"):
        return _recheck_interval(payload)
    if cid.startswith("hausdorff:"):
        return _recheck_hausdorff(claim, table)
    if cid.startswith("fibonacci-commutator"):
        return _recheck_fib(payload)
    decomps = list(_find_decompositions(payload))
    if decomps:
        for d in decomps:
            if not _decomposition_ok(d):
                return "a decomposition witness fails"
        return "ok"
    return None


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


def _recheck_hensel(cid: str, payload: dict):
    m = re.fullmatch(r"hensel:p=(-?\d+):a=(-?\d+):k=\d+", cid)
    if not m:
        return "unparseable claim id"
    p, a = int(m.group(1)), int(m.group(2))
    prev = None
    for row in payload["levels"]:
        modulus, root = row["modulus"], row["root"]
        if (root * root - a) % modulus != 0:
            return f"root {root} fails mod {modulus}"
        if prev is not None and (root - prev) % (modulus // p) != 0:
            return "congruence chain broken"
        prev = root
    return "ok"


def _recheck_necessary(cid: str, payload: dict, table: FoldTable):
    m = re.search(r":g=(-?\d+):n=(\d+)", cid)
    if not m:
        return "unparseable claim id"
    g, n = int(m.group(1)), int(m.group(2))
    member = spec_from_json(payload["member"])
    folded = table.n_fold_star(member, n)
    if folded.contains_value(g) or folded.contains_value(-g):
        return "target re-enters the n-fold set"
    return "ok"


def _recheck_interval(payload: dict):
    group = Rationals()
    one = group.element(1)
    s0 = SymmetricInterval.of(1)
    if contains(star(s0), one):
        return "1 re-enters the unit interval"
    for entry in payload["schedule"]:
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


def _recheck_fib(payload: dict):
    free = FreeGroup(("x", "y"))
    sides = {free.element(payload[key]) for key in ("lhs", "rhs", "expected")}
    return "ok" if len(sides) == 1 else "word identity fails on re-parse"
