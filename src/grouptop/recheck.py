"""Re-verify the witnesses embedded in an emitted report document.

Everything here rebuilds elements and set descriptions from their JSON
forms and replays membership and addition; no verdict from the original
run is trusted.  A claim's kind, its id up to the first ":", picks its one
replayer.  A replayer fails where a fact its payload records disagrees
with the replay, and returns the status that the producer's own rule
derives from the replayed facts; ``recheck_document`` compares it with
the claim's status, and the document's status with its claims'.  Kinds
without a replayer are listed as skipped, and a kind the program does
not emit fails.
"""

from __future__ import annotations

import re
from typing import Tuple

from . import examples as ex
from .filters import (
    SeparationCertificate,
    SeparationStep,
    StuckReport,
    _nfold_exclusion,
    hausdorff_classification,
    recheck_certificate,
)
from .groups import Rationals
from .nonabelian import FREE_XY, fib_identity_status
from .prefixsum import MembershipResult
from .report import Status, aggregate_status
from .setspec import FoldTable, spec_from_json


def recheck_document(doc: dict) -> Tuple[bool, list]:
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
            continue
        kind = cid.partition(":")[0]  # its id up to the first ":"
        try:
            statuses.append(Status(claim["status"]))
            if kind not in _REPLAYERS:
                raise AssertionError(f"unknown claim kind {kind!r}")
            replayed = _REPLAYERS[kind] and _REPLAYERS[kind](claim, table)
            if replayed is not None:
                _agrees(claim, "status", replayed.value)
            result = replayed and "ok"
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
    derived = aggregate_status(statuses).value
    if doc.get("status") != derived:
        details.append(f"  FAIL   document status: the claims give "
                       f"{derived!r}, the document {doc.get('status')!r}")
    return not any(line.startswith("  FAIL") for line in details), details


def _agrees(payload: dict, key: str, replayed) -> None:
    if payload[key] != replayed:
        raise AssertionError(f"the replay gives {key} {replayed!r}, the "
                             f"report {payload[key]!r}")


def _id_numbers(pattern: str, claim: dict) -> list:
    m = re.fullmatch(pattern, claim["claim"])
    if not m:
        raise AssertionError("unparseable claim id")
    return [int(v) for v in m.groups()]


def _recheck_cover(claim: dict, table: FoldTable) -> Status:
    payload = claim["payload"]
    covers, status = ex.cover_rule(
        spec_from_json(payload["fold"]),
        [ex.DecompositionWitness.from_json(w) for w in payload["witnesses"]])
    _agrees(payload, ex.COVER_FLAG_KEYS[claim["claim"].partition(":")[0]],
            covers)
    return status


def _recheck_hensel(claim: dict, table: FoldTable) -> Status:
    p, a = _id_numbers(r"hensel:p=(-?\d+):a=(-?\d+):k=\d+", claim)
    chain, status = ex.hensel_rule(p, a, claim["payload"]["levels"])
    _agrees(claim["payload"], "congruence_chain", chain)
    return status


def _recheck_necessary(claim: dict, table: FoldTable) -> Status:
    g, n = _id_numbers(r"sqrt7-necessary:g=(-?\d+):n=(\d+)", claim)
    payload = claim["payload"]
    folded = table.n_fold_star(spec_from_json(payload["member"]), n)
    excluded, status = ex.sqrt7_necessary_rule(
        g, folded, payload["bound_level_also_excludes"], payload["k"],
        payload["k_bound"])
    if payload["excluded"] and not excluded:
        raise AssertionError("target re-enters the n-fold set")
    _agrees(payload, "excluded", excluded)
    return status


def _recheck_interval(claim: dict, table: FoldTable) -> Status:
    group = Rationals()
    payload = claim["payload"]
    first_excluded, status = ex.interval_rule([
        (group.element(entry["epsilon"]).value,
         [group.element(v) for v in entry["witness"]],
         _result(group, entry["membership"]))
        for entry in payload["schedule"]])
    _agrees(payload, "one_outside_unit_interval", first_excluded)
    return status


def _recheck_hausdorff(claim: dict, table: FoldTable) -> Status:
    """Replay every probe, derive its outcome, the verdict and the status
    with the producer's own rule, and compare the outcomes and the verdict
    with the report's."""
    payload = claim["payload"]
    probes = payload["probes"]
    outcomes, verdict, status = hausdorff_classification(
        _replayed_probe(probe, table) for probe in probes)
    for probe, outcome in zip(probes, outcomes):
        if probe["outcome"] != outcome:
            raise AssertionError(
                f"probe {probe['probe']}: the replay gives outcome "
                f"{outcome!r}, the report {probe['outcome']!r}")
    _agrees(payload, "verdict", verdict)
    return status


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


def _recheck_fib(claim: dict, table: FoldTable) -> Status:
    payload = claim["payload"]
    return fib_identity_status(*(FREE_XY.element(payload[key])
                                 for key in ("lhs", "rhs", "expected")))


# One replayer per claim kind the program emits; the kinds without one
# yet map to None and are listed as skipped.  Any other kind fails.
_REPLAYERS = {
    "hausdorff": _recheck_hausdorff,
    "hensel": _recheck_hensel,
    "sqrt7-necessary": _recheck_necessary,
    "sqrt7-cover": _recheck_cover,
    "product-cover": _recheck_cover,
    "interval-no-extension": _recheck_interval,
    "fibonacci-commutator": _recheck_fib,
    **dict.fromkeys(["fibonacci-words", "product-union-small", "uu-product",
                     "u-inverse-closure", "u-translation"]),
}
