"""Re-verify the witnesses embedded in an emitted report document.

A claim's kind, its id up to the first ":", picks its one replayer, which
lives beside its producer and returns a status and facts keyed as in the
payload: a re-run of the capped producer on the inputs the id names, or
what the producer's rule derives from the replayed evidence.
``recheck_document`` compares every fact with the payload's, by JSON type
as well as value, then the status with the claim's, and the document's
status with its claims'.  Kinds without a replayer are listed as skipped,
and a kind the program does not emit fails.
"""

from __future__ import annotations

from typing import Tuple

from . import examples as ex
from .filters import replay_hausdorff
from .nonabelian import rerun_fib_identity, rerun_fib_words
from .report import Status, aggregate_status, mismatch, same_json
from .setspec import FoldTable


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
            if replayed is not None:  # (status, facts keyed as in payload)
                status, facts = replayed
                for key, value in [*facts.items(), ("status", status.value)]:
                    reported = (claim if key == "status" else
                                claim["payload"])[key]
                    if not same_json(value, reported):
                        raise AssertionError(mismatch(key, value, reported))
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
