"""Names, units and computation of the benchmark's metrics.

End-to-end metrics come from untraced repetitions; per-layer metrics come
from traced ones.  Every count and time is per repetition of the
workload, and each reported value is the median over the run's
repetitions.

``certify_s`` and ``recheck_s`` are given at a fixed processor speed:
each operation's wall time is divided by the time of the worker's
reference loop, timed just before and just after it, and multiplied by
``REFERENCE_S``.  The shared host changes its speed for seconds to
minutes at a time; the reference loop slows with it, the quotient much
less.  The loop never calls the program, so a change to the program
moves these metrics in full.
"""

from __future__ import annotations

import statistics

END_TO_END = (
    ("setup_s", "s"),
    ("certify_s", "s"),
    ("recheck_s", "s"),
    ("peak_rss_mb", "MB"),
    ("resolved_share", "ratio"),
)

# (route, status) pairs prefix_sum_membership can return; anything else
# (a new route, or the empty-chain route) lands in "other".
ROUTES = (
    ("exact-fold", "yes"), ("exact-fold", "no"),
    ("divisor", "no"),
    ("residue-envelope", "no"),
    ("bounded-search", "yes"), ("bounded-search", "unknown"),
    ("finite-enumeration", "no"),
    ("single-set", "yes"), ("single-set", "no"),
    ("identity", "yes"),
)

SETSPEC = ("sumset", "n_fold_star", "residue_envelope", "subset_of")

# The reference loop's time (worker.reference_s) at the speed the times
# are reported at: about its time in the fast state of the 2-vCPU Xeon
# host the bounds were set on, so the reported times are close to wall
# times there.
REFERENCE_S = 0.010


def _per_layer_units() -> list:
    out = [("prefixsum.prefix_sum_membership.calls", "count"),
           ("prefixsum.prefix_sum_membership.self_s", "s")]
    for route, status in ROUTES + (("other", "any"),):
        out += [(f"prefixsum.route.{route}.{status}.calls", "count"),
                (f"prefixsum.route.{route}.{status}.total_s", "s")]
    out += [("prefixsum.decided_share", "ratio"),
            ("filters.cupcap_check.calls", "count"),
            ("filters.cupcap_check.self_s", "s"),
            ("filters.cupcap_check.found_share", "ratio"),
            ("filters.separating_sequence.calls", "count"),
            ("filters.separating_sequence.self_s", "s"),
            ("filters.separating_sequence.memberships_per_call", "ratio"),
            ("filters.recheck_certificate.calls", "count"),
            ("filters.recheck_certificate.total_s", "s")]
    for fn in SETSPEC:
        out += [(f"setspec.{fn}.calls", "count"),
                (f"setspec.{fn}.self_s", "s")]
    out += [("sequences.tail_divisor.calls", "count"),
            ("sequences.tail_divisor.total_s", "s"),
            ("examples.verify_sqrt7_necessary.calls", "count"),
            ("examples.verify_sqrt7_necessary.self_s", "s"),
            ("examples.hensel_sqrt.hit_ratio", "ratio"),
            ("nonabelian.check_UU.calls", "count"),
            ("nonabelian.check_UU.self_s", "s"),
            ("nonabelian.enumerate_u_witnesses.calls", "count"),
            ("nonabelian.enumerate_u_witnesses.self_s", "s"),
            ("nonabelian.pairs_checked", "count"),
            ("nonabelian.pairs_per_s", "1/s"),
            ("recheck.recheck_document.total_s", "s"),
            ("recheck.prefix_sum_membership.calls", "count"),
            ("report.canonical_json.calls", "count"),
            ("report.canonical_json.self_s", "s"),
            ("report.canonical_json.bytes", "B"),
            ("report.report_document.self_s", "s"),
            ("trace.overhead_s", "s")]
    return out


PER_LAYER = tuple(_per_layer_units())


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def at_reference_speed(reps: list, phase: str) -> float:
    """Median over reps of a phase's time at the reference speed."""
    return REFERENCE_S * statistics.median(r[f"{phase}_refs"] for r in reps)


def end_to_end(reps: list) -> dict:
    """Medians over untraced repetitions."""
    tally = reps[0]["tally"]
    unresolved = tally["unresolved_probes"] + tally["unknown_claims"]
    total = tally["probes"] + tally["claims"]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "certify_s": at_reference_speed(reps, "certify"),
        "recheck_s": at_reference_speed(reps, "recheck"),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024
                                         for r in reps),
        "resolved_share": 1 - _share(unresolved, total),
    }


def _layer_values(layers: dict) -> dict:
    names, routes, extra = layers["names"], layers["routes"], layers["extra"]

    def get(name: str, key: str) -> float:
        return names.get(name, {}).get(key, 0)

    psm = "prefixsum.prefix_sum_membership"
    out = {f"{psm}.calls": get(psm, "calls"),
           f"{psm}.self_s": get(psm, "self_s")}
    known = {f"{r}.{s}" for r, s in ROUTES}
    other_calls, other_s, decided = 0, 0.0, 0
    for key, (calls, total_s) in routes.items():
        if key.endswith((".yes", ".no")):
            decided += calls
        if key not in known:
            other_calls += calls
            other_s += total_s
    for route, status in ROUTES:
        calls, total_s = routes.get(f"{route}.{status}", (0, 0.0))
        out[f"prefixsum.route.{route}.{status}.calls"] = calls
        out[f"prefixsum.route.{route}.{status}.total_s"] = total_s
    out["prefixsum.route.other.any.calls"] = other_calls
    out["prefixsum.route.other.any.total_s"] = other_s
    out["prefixsum.decided_share"] = _share(decided, get(psm, "calls"))

    cupcap = "filters.cupcap_check"
    sep = "filters.separating_sequence"
    out.update({
        f"{cupcap}.calls": get(cupcap, "calls"),
        f"{cupcap}.self_s": get(cupcap, "self_s"),
        f"{cupcap}.found_share": _share(extra["cupcap_found"],
                                        get(cupcap, "calls")),
        f"{sep}.calls": get(sep, "calls"),
        f"{sep}.self_s": get(sep, "self_s"),
        f"{sep}.memberships_per_call": _share(extra["separation_memberships"],
                                              get(sep, "calls")),
        "filters.recheck_certificate.calls":
            get("filters.recheck_certificate", "calls"),
        "filters.recheck_certificate.total_s":
            get("filters.recheck_certificate", "total_s"),
    })
    for fn in SETSPEC:
        out[f"setspec.{fn}.calls"] = get(f"setspec.{fn}", "calls")
        out[f"setspec.{fn}.self_s"] = get(f"setspec.{fn}", "self_s")
    hensel = layers["hensel"]
    uu = "nonabelian.check_UU"
    enum = "nonabelian.enumerate_u_witnesses"
    out.update({
        "sequences.tail_divisor.calls": get("sequences.tail_divisor", "calls"),
        "sequences.tail_divisor.total_s":
            get("sequences.tail_divisor", "total_s"),
        "examples.verify_sqrt7_necessary.calls":
            get("examples.verify_sqrt7_necessary", "calls"),
        "examples.verify_sqrt7_necessary.self_s":
            get("examples.verify_sqrt7_necessary", "self_s"),
        "examples.hensel_sqrt.hit_ratio":
            _share(hensel["hits"], hensel["hits"] + hensel["misses"]),
        f"{uu}.calls": get(uu, "calls"),
        f"{uu}.self_s": get(uu, "self_s"),
        f"{enum}.calls": get(enum, "calls"),
        f"{enum}.self_s": get(enum, "self_s"),
        "nonabelian.pairs_checked": extra["pairs_checked"],
        "nonabelian.pairs_per_s": _share(extra["pairs_checked"],
                                         get(uu, "total_s")),
        "recheck.recheck_document.total_s":
            get("recheck.recheck_document", "total_s"),
        "recheck.prefix_sum_membership.calls": extra["recheck_memberships"],
        "report.canonical_json.calls": get("report.canonical_json", "calls"),
        "report.canonical_json.self_s": get("report.canonical_json", "self_s"),
        "report.canonical_json.bytes": extra["canonical_bytes"],
        "report.report_document.self_s":
            get("report.report_document", "self_s"),
    })
    return out


def per_layer(traced: list, plain: list) -> dict:
    """Medians over traced repetitions, plus the tracing overhead: traced
    certify_s minus untraced certify_s, both at the reference speed."""
    values = [_layer_values(r["layers"]) for r in traced]
    out = {name: statistics.median(v[name] for v in values)
           for name, _ in PER_LAYER if name != "trace.overhead_s"}
    out["trace.overhead_s"] = (at_reference_speed(traced, "certify")
                               - at_reference_speed(plain, "certify"))
    return out
