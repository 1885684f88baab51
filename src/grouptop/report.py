"""Verification reports with deterministic serialization.

A report carries one claim, a three-valued status, and a certificate
payload built entirely from sorted, JSON-stable values.  Wall time is kept
out of the document so reports are byte-identical across runs; the CLI
prints it to stderr.
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable

SCHEMA_VERSION = 1


class Status(str, Enum):
    VERIFIED = "verified"
    REFUTED = "refuted"
    UNKNOWN = "unknown"


@dataclass
class VerificationReport:
    claim: str
    status: Status
    payload: dict
    budgets: dict = field(default_factory=dict)

    def body(self) -> dict:
        return {
            "claim": self.claim,
            "status": self.status.value,
            "payload": self.payload,
            "budgets": self.budgets,
        }


def id_numbers(pattern: str, claim: dict) -> list:
    """The integers of a claim id, one per group of its kind's pattern."""
    m = re.fullmatch(pattern, claim["claim"])
    if not m:
        raise AssertionError("unparseable claim id")
    return [int(v) for v in m.groups()]


def rerun_facts(claim: dict, report: VerificationReport) -> tuple:
    """(status, payload) of ``report``, the capped producer re-run on the
    inputs ``claim``'s id names, once the claim's id, payload keys and
    budgets are the re-run's; ``recheck_document`` then compares each
    payload key, in sorted order as a report lists them, and the status."""
    for what, replay, reported in [
            ("claim", report.claim, claim["claim"]),
            ("payload keys", sorted(report.payload), sorted(claim["payload"])),
            ("budgets", report.budgets, claim["budgets"])]:
        if not same_json(replay, reported):
            raise AssertionError(mismatch(what, replay, reported))
    return report.status, dict(sorted(report.payload.items()))


def same_json(replayed, reported) -> bool:
    """Whether ``reported``, a value read back from JSON, is ``replayed``
    as ``canonical_json`` writes it: equal, and of the same JSON type at
    every depth, so that True is not 1 and 1 is not 1.0."""
    kind = str if isinstance(replayed, str) else \
        list if isinstance(replayed, tuple) else type(replayed)
    if type(reported) is not kind:
        return False
    if kind is dict:
        return replayed.keys() == reported.keys() and \
            all(same_json(v, reported[k]) for k, v in replayed.items())
    if kind is list:
        return len(replayed) == len(reported) and \
            all(map(same_json, replayed, reported))
    return replayed == reported


_SHOWN = 200  # longest repr a mismatch message prints in full
_NOTHING = object()  # the side of a difference that has no value there


def mismatch(what: str, replayed, reported) -> str:
    """The message for a replayed value that is not the reported one:
    both values, while neither repr passes ``_SHOWN`` characters, else
    the first JSON path at which they differ (as ``same_json`` compares)
    and the two values there, each cut to ``_SHOWN`` // 2 characters."""
    shown = repr(replayed), repr(reported)
    if max(map(len, shown)) <= _SHOWN:
        return f"the replay gives {what} {shown[0]}, the report {shown[1]}"
    path, replayed, reported = _first_difference(replayed, reported, "")
    return (f"the replay gives {what} at {path or 'the top'}: "
            f"{_cut(replayed)}, the report {_cut(reported)}")


def _first_difference(replayed, reported, path: str) -> tuple:
    """(path, replayed value, reported value) where two values that are
    not ``same_json`` first differ, in the replayed value's key order; a
    key or index only one side has is paired with ``_NOTHING``."""
    if isinstance(replayed, dict) and isinstance(reported, dict):
        keys = [*replayed, *(k for k in reported if k not in replayed)]
    elif isinstance(replayed, (list, tuple)) and isinstance(reported, list):
        keys = range(max(len(replayed), len(reported)))
    else:
        keys = ()
    for key in keys:
        mine, theirs = _value_at(replayed, key), _value_at(reported, key)
        if mine is _NOTHING or theirs is _NOTHING or \
                not same_json(mine, theirs):
            return _first_difference(mine, theirs, f"{path}[{key!r}]")
    return path, replayed, reported


def _value_at(container, key):
    if isinstance(container, dict):
        return container.get(key, _NOTHING)
    return container[key] if key < len(container) else _NOTHING


def _cut(value) -> str:
    text = "nothing" if value is _NOTHING else repr(value)
    half = _SHOWN // 2
    return text if len(text) <= half else text[:half - 3] + "..."


def aggregate_status(statuses: Iterable[Status]) -> Status:
    """Refuted if any status is, else unknown if any is, else verified."""
    statuses = set(statuses)
    if Status.REFUTED in statuses:
        return Status.REFUTED
    if Status.UNKNOWN in statuses:
        return Status.UNKNOWN
    return Status.VERIFIED


def report_document(reports: list) -> dict:
    """Bundle reports into the versioned document the CLI writes."""
    return {
        "schema": SCHEMA_VERSION,
        "status": aggregate_status(r.status for r in reports).value,
        "claims": [r.body() for r in
                   sorted(reports, key=lambda r: r.claim)],
    }


def canonical_json(doc: dict) -> str:
    """The bytes of ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``.

    With ``indent`` set, ``json`` falls back to its generator-based encoder;
    this one joins a string per container instead.  It follows ``json``'s
    rules for str and int subclasses (``Status`` encodes as its value),
    bools, None, tuples and empty containers.  Reports carry exact values
    under string keys only, so a float, a key that is not a string, or any
    value ``json`` cannot encode raises TypeError.
    """
    return _encode(doc, "\n") + "\n"


def _encode(value, newline: str) -> str:
    # Containers come first, as most calls are for them: leaves of exact
    # type str or int are encoded inline by the comprehensions below, and
    # only subclasses, bools and None reach the checks after them.
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join([
            _quote(k) + ": " + (
                _quote(v) if type(v) is str else
                int.__repr__(v) if type(v) is int else _encode(v, inner))
            for k, v in sorted(value.items())]) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([
            _quote(v) if type(v) is str else
            int.__repr__(v) if type(v) is int else _encode(v, inner)
            for v in value]) + newline + "]"
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} "
                    f"is not JSON serializable")


@contextmanager
def stopwatch():
    """Yields a zero-arg callable reporting elapsed seconds."""
    t0 = time.perf_counter()
    yield lambda: time.perf_counter() - t0
