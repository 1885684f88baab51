"""Span tracer that wraps ``grouptop``'s public functions from outside.

The program is not modified.  Modules import public functions by name
(``from .prefixsum import prefix_sum_membership``), so a wrapper is bound
into every ``grouptop`` module whose namespace holds the same function
object, not only into the defining module.  Element operations and
``star``/``contains`` are left unwrapped: they run hundreds of thousands
of times per workload and a wrapper would swamp the measurement.

Spans carry an id, name, start, end and parent id, and belong to the
tracer's run id.  They stay in memory and are written out by the caller
when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Optional

# (module, attribute, span name, annotation of the return value)
TARGETS = (
    ("grouptop.prefixsum", "prefix_sum_membership",
     "prefixsum.prefix_sum_membership", "membership"),
    ("grouptop.filters", "cupcap_check", "filters.cupcap_check", "cupcap"),
    ("grouptop.filters", "separating_sequence",
     "filters.separating_sequence", None),
    ("grouptop.filters", "recheck_certificate",
     "filters.recheck_certificate", None),
    ("grouptop.setspec", "sumset", "setspec.sumset", None),
    ("grouptop.setspec", "n_fold_star", "setspec.n_fold_star", None),
    ("grouptop.setspec", "residue_envelope", "setspec.residue_envelope", None),
    ("grouptop.setspec", "subset_of", "setspec.subset_of", None),
    ("grouptop.sequences", "IntegerSequence.tail_divisor",
     "sequences.tail_divisor", None),
    ("grouptop.examples", "verify_sqrt7_necessary",
     "examples.verify_sqrt7_necessary", None),
    ("grouptop.nonabelian", "check_UU", "nonabelian.check_UU", "uu"),
    ("grouptop.nonabelian", "enumerate_u_witnesses",
     "nonabelian.enumerate_u_witnesses", None),
    ("grouptop.recheck", "recheck_document", "recheck.recheck_document", None),
    ("grouptop.report", "canonical_json", "report.canonical_json", "text"),
    ("grouptop.report", "report_document", "report.report_document", None),
)


def _membership(result) -> tuple:
    proof = result.proof or {}
    return (proof.get("route", "none"), result.status)


def _cupcap(result) -> bool:
    return result.found


def _uu(report) -> int:
    return report.payload["pairs_checked"]


def _text(text: str) -> int:
    return len(text.encode())


ANNOTATIONS = {"membership": _membership, "cupcap": _cupcap, "uu": _uu,
               "text": _text}


class Tracer:
    """Collects spans for one run; ``install`` rebinds the wrapped
    functions and ``uninstall`` puts the originals back."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []   # [id, name, start, end, parent, note]
        self._stack: list = []  # ids of open spans
        self._undo: list = []   # (owner, attribute, original)

    def _wrap(self, name: str, fn: Callable,
              annotate: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if annotate is not None:
                rec[5] = annotate(result)
            return result

        return wrapper

    def open(self, name: str) -> list:
        """Open a span; the benchmark also opens one per operation."""
        rec = [len(self.spans), name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else None, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "grouptop" or n.startswith("grouptop.")]
        for module_name, attr, span_name, note in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:  # a method: wrap the class attribute
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._rebind(owner, attr, original,
                             self._wrap(span_name, original,
                                        ANNOTATIONS.get(note)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name, original, ANNOTATIONS.get(note))
            bound = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapper)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"{module_name}.{attr} not found to wrap")

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self) -> dict:
        return {"run_id": self.run_id,
                "fields": ["id", "name", "start", "end", "parent", "note"],
                "spans": self.spans}


def span_stats(spans: list) -> dict:
    """Per-name calls, total time and self time (span time minus the time
    its child spans cover; children are nested, so they never overlap),
    plus the annotations the per-layer metrics need."""
    child_time = [0.0] * len(spans)
    under_recheck = [False] * len(spans)
    by_name: dict = {}
    routes: dict = {}
    extra = {"cupcap_found": 0, "pairs_checked": 0, "canonical_bytes": 0,
             "recheck_memberships": 0, "separation_memberships": 0}
    for sid, name, start, end, parent, note in spans:
        duration = end - start
        if parent is not None:
            child_time[parent] += duration
            under_recheck[sid] = under_recheck[parent]
        if name == "recheck.recheck_document":
            under_recheck[sid] = True
        if name == "prefixsum.prefix_sum_membership":
            bucket = routes.setdefault(note, [0, 0.0])
            bucket[0] += 1
            bucket[1] += duration
            if under_recheck[sid]:
                extra["recheck_memberships"] += 1
            if parent is not None and \
                    spans[parent][1] == "filters.separating_sequence":
                extra["separation_memberships"] += 1
        elif name == "filters.cupcap_check":
            extra["cupcap_found"] += bool(note)
        elif name == "nonabelian.check_UU":
            extra["pairs_checked"] += note or 0
        elif name == "report.canonical_json":
            extra["canonical_bytes"] += note or 0
    for sid, name, start, end, parent, note in spans:
        stat = by_name.setdefault(name, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        stat["calls"] += 1
        stat["total_s"] += end - start
        stat["self_s"] += end - start - child_time[sid]
    return {"names": by_name,
            "routes": {f"{r}.{s}": v for (r, s), v in routes.items()},
            "extra": extra}
