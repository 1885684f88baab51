"""Re-verify the witnesses embedded in an emitted report document.

A claim's kind, its id up to the first ":", picks its one replayer, which
lives beside its producer and returns the report it rebuilds: a re-run of
the capped producer on the inputs the id names, or what the producer's
rule derives from the replayed evidence, with the fields it checks itself
or cannot rebuild taken from the record as they stand.
``recheck_document`` is the one place that compares a replay with its
claim: the claim's keys, the payload's keys, the id, the budgets, each
payload fact in sorted order and the status, by JSON type as well as
value.  It then checks the document as ``report_document`` writes it:
its schema and keys, at least one claim, the claims in id order, and its
status from its claims'.  Kinds without a replayer are listed as skipped,
and a kind the program does not emit fails.
"""

from __future__ import annotations

from typing import Tuple

from . import examples as ex
from .filters import replay_hausdorff
from .nonabelian import rerun_fib_identity, rerun_fib_words
from .report import (SCHEMA_VERSION, Status, VerificationReport,
                     aggregate_status, mismatch, same_json)
from .setspec import FoldTable

_DOCUMENT_KEYS = ["claims", "schema", "status"]  # as report_document writes
_CLAIM_KEYS = VerificationReport("", Status.UNKNOWN, {}).body().keys()


def recheck_document(doc: dict) -> Tuple[bool, list]:
    details = []
    table = FoldTable()  # the claims share every star and fold
    statuses, ids = [], []
    claims = doc.get("claims", []) if isinstance(doc, dict) else None
    if not isinstance(claims, list):
        return False, ["  FAIL   document: no list of claims"]
    for i, claim in enumerate(claims):
        cid = claim.get("claim") if isinstance(claim, dict) else None
        if not isinstance(cid, str):
            details.append(f"  FAIL   claim {i}: no claim id")
            continue
        ids.append(cid)
        kind = cid.partition(":")[0]  # its id up to the first ":"
        try:
            statuses.append(Status(claim["status"]))
            if kind not in _REPLAYERS:
                raise AssertionError(f"unknown claim kind {kind!r}")
            replayer = _REPLAYERS[kind]
            if replayer:
                _compare(replayer(claim, table), claim)
            result = replayer and "ok"
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
    details += [f"  FAIL   document: {failure}" for failure in [
        not same_json(SCHEMA_VERSION, doc.get("schema")) and
        mismatch("schema", SCHEMA_VERSION, doc.get("schema")),
        sorted(doc) != _DOCUMENT_KEYS and
        mismatch("keys", _DOCUMENT_KEYS, sorted(doc)),
        not claims and "no claims",
        ids != sorted(ids) and "the claims are not in id order"] if failure]
    derived = aggregate_status(statuses).value
    if doc.get("status") != derived:
        details.append(f"  FAIL   document status: the claims give "
                       f"{derived!r}, the document {doc.get('status')!r}")
    return not any(line.startswith("  FAIL") for line in details), details


def _compare(replay: VerificationReport, claim: dict) -> None:
    """Raise AssertionError unless ``claim`` is ``replay`` as
    ``report_document`` writes it, at the first difference in this order:
    the claim's keys, the payload's keys, the id, the budgets, each payload
    fact in sorted order, then the status.  A fact the replay took from
    the record is the record's own object, and is not walked again."""
    if claim.keys() != _CLAIM_KEYS:
        raise AssertionError(mismatch("claim keys", sorted(_CLAIM_KEYS),
                                      sorted(claim)))
    payload, facts = claim["payload"], replay.payload
    if payload.keys() != facts.keys():
        raise AssertionError(mismatch("payload keys", sorted(facts),
                                      sorted(payload)))
    for key, value, reported in [
            ("claim", replay.claim, claim["claim"]),
            ("budgets", replay.budgets, claim["budgets"]),
            *[(k, facts[k], payload[k]) for k in sorted(facts)
              if facts[k] is not payload[k]],
            ("status", replay.status.value, claim["status"])]:
        if not same_json(value, reported):
            raise AssertionError(mismatch(key, value, reported))


# One replayer per claim kind the program emits, each beside its
# producer (``rerun_*`` re-run it); the kinds without one yet map to None
# and are listed as skipped.  Any other kind fails.
_REPLAYERS = {
    "hausdorff": replay_hausdorff,
    "sqrt7-necessary": ex.replay_sqrt7_necessary,
    "hensel": ex.rerun_hensel,
    "sqrt7-cover": ex.rerun_sqrt7_cover,
    "product-cover": ex.rerun_product_cover,
    "product-union-small": ex.rerun_product_union_small,
    "interval-no-extension": ex.rerun_interval,
    "fibonacci-commutator": rerun_fib_identity,
    "fibonacci-words": rerun_fib_words,
    **dict.fromkeys(["uu-product", "u-inverse-closure", "u-translation"]),
}
