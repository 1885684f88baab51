"""Re-verify the witnesses embedded in an emitted report document.

Everything here rebuilds elements and set descriptions from their JSON
forms and replays membership and addition; no verdict from the original
run is trusted.  Claims without embedded witnesses are listed as skipped.
"""

from __future__ import annotations

import re
from typing import Iterable, Tuple

from .groups import FreeGroup, GroupElement, group_from_json, Integers
from .prefixsum import prefix_sum_membership
from .setspec import (
    contains,
    n_fold_star,
    spec_from_json,
    star,
    witness_holds,
)

_INTEGERS = Integers()


def recheck_document(doc: dict) -> Tuple[bool, list]:
    ok = True
    details = []
    for claim in doc.get("claims", []):
        cid = claim["claim"]
        payload = claim.get("payload", {})
        try:
            result = _recheck_claim(cid, payload)
        except Exception as err:  # any replay failure is a finding
            result = f"error: {err}"
        if result is None:
            details.append(f"  skip   {cid} (no embedded witnesses)")
        elif result == "ok":
            details.append(f"  ok     {cid}")
        else:
            details.append(f"  FAIL   {cid}: {result}")
            ok = False
    return ok, details


def _recheck_claim(cid: str, payload: dict):
    if cid.startswith("hensel:"):
        return _recheck_hensel(cid, payload)
    if "-necessary:" in cid:
        return _recheck_necessary(cid, payload)
    if cid.startswith("interval-no-extension"):
        return _recheck_interval(payload)
    if cid.startswith("hausdorff:"):
        return _recheck_hausdorff(payload)
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
    target = GroupElement(group, group.value_from_json(d["target"]))
    summands = [GroupElement(group, group.value_from_json(v))
                for v in d["summands"]]
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


def _recheck_necessary(cid: str, payload: dict):
    m = re.search(r":g=(-?\d+):n=(\d+)", cid)
    if not m:
        return "unparseable claim id"
    g, n = int(m.group(1)), int(m.group(2))
    member = spec_from_json(payload["member"])
    folded = n_fold_star(member, n)
    if folded.contains_value(g) or folded.contains_value(-g):
        return "target re-enters the n-fold set"
    return "ok"


def _recheck_interval(payload: dict):
    from fractions import Fraction
    from .groups import Rationals
    from .setspec import SymmetricInterval

    group = Rationals()
    one = group.element(1)
    s0 = SymmetricInterval.of(1)
    if contains(star(s0), one):
        return "1 re-enters the unit interval"
    for entry in payload["schedule"]:
        eps = Fraction(entry["epsilon"])
        witness_lists = [entry.get("witness"),
                         entry["membership"].get("witness")]
        if not any(witness_lists):
            return f"no witness at epsilon {eps}"
        chain = [s0, SymmetricInterval(eps)]
        for witness in witness_lists:
            if witness is None:
                continue
            summands = [GroupElement(group, group.value_from_json(v))
                        for v in witness]
            if not witness_holds(one, summands, chain):
                return f"witness fails at epsilon {eps}"
    return "ok"


def _recheck_separation(sep: dict):
    target = _INTEGERS.element(int(sep["target"]))
    steps = sep.get("steps") or sep.get("prefix") or []
    members = [spec_from_json(s["member"]) for s in steps]
    for n in range(1, len(members) + 1):
        res = prefix_sum_membership(target, members[:n])
        if not res.is_no():
            return f"prefix {n} no longer excludes the target"
    for block in sep.get("blocked", []):
        res = block["result"]
        if res["status"] == "yes":
            candidate = spec_from_json(block["member"])
            summands = [GroupElement(_INTEGERS, v) for v in res["witness"]]
            if not witness_holds(target, summands, members + [candidate]):
                return "blocking witness fails"
    return "ok"


def _recheck_hausdorff(payload: dict):
    for probe in payload["probes"]:
        g = _INTEGERS.element(int(probe["probe"]))
        sep_result = _recheck_separation(probe["separation"])
        if sep_result != "ok":
            return sep_result
        for n_str, cc in probe["cupcap"].items():
            if not cc.get("found"):
                continue
            member = spec_from_json(cc["member"])
            res = prefix_sum_membership(g, [member] * int(n_str))
            if not res.is_no():
                return f"cupcap member no longer excludes {g.value}"
    return "ok"


def _recheck_fib(payload: dict):
    free = FreeGroup(("x", "y"))
    lhs = free.element(payload["lhs"]) if payload["lhs"] != "e" \
        else free.identity()
    rhs = free.element(payload["rhs"]) if payload["rhs"] != "e" \
        else free.identity()
    expected = free.element(payload["expected"]) if payload["expected"] != "e" \
        else free.identity()
    if lhs.value == rhs.value == expected.value:
        return "ok"
    return "word identity fails on re-parse"
