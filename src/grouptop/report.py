"""Verification reports with deterministic serialization.

A report carries one claim, a three-valued status, and a certificate
payload built entirely from sorted, JSON-stable values.  Wall time is kept
out of the document so reports are byte-identical across runs; the CLI
prints it to stderr.
"""

from __future__ import annotations

import io
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, TextIO

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


_INT = {int}  # the one type of an exact-int list
_NOTHING = object()  # no JSON value: what a side lacks at a key or index


def same_json(replayed, reported) -> bool:
    """Whether ``reported``, a value read back from JSON, is ``replayed``
    as ``canonical_json`` writes it: equal, and of the same JSON type at
    every depth, so that True is not 1 and 1 is not 1.0.  A value taken
    from the record, the same object, is the same at once."""
    if replayed is reported:
        return True
    kind = type(replayed)
    if kind is dict:
        if type(reported) is not dict or len(replayed) != len(reported):
            return False
        for key, value in replayed.items():  # exact leaves, int lists inline
            other, leaf = reported.get(key, _NOTHING), type(value)
            if leaf is str or leaf is int or leaf is bool:
                if type(other) is not leaf or value != other:
                    return False
            elif leaf is list and type(other) is list and \
                    {*map(type, value), *map(type, other)} <= _INT:
                if value != other:
                    return False
            elif not same_json(value, other):
                return False
        return True
    kind = str if isinstance(replayed, str) else \
        list if isinstance(replayed, tuple) else kind
    if type(reported) is not kind:
        return False
    if kind is list:
        if len(replayed) != len(reported):
            return False
        if {*map(type, replayed), *map(type, reported)} <= _INT:
            return list(replayed) == reported  # exact ints on both sides
        for value, other in zip(replayed, reported):  # exact leaves inline
            leaf = type(value)
            if leaf is str or leaf is int or leaf is bool:
                if type(other) is not leaf or value != other:
                    return False
            elif not same_json(value, other):
                return False
        return True
    return replayed == reported


_SHOWN = 200  # longest repr a mismatch message prints in full


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
        if not same_json(mine, theirs):  # _NOTHING is no JSON value
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


_BATCH = 256  # pieces per write: the most the writer joins into one string
_KEPT = 4096  # longest text of a dict the writer keeps for its next meeting
_EXACT_INT = frozenset({int})
_MET = object()  # a dict met once
_IN_FULL = object()  # a dict being kept, or too long to keep


def write_canonical_json(doc: dict, fp: TextIO) -> None:
    """Write ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` to the
    text file ``fp`` as it is encoded.

    With ``indent`` set, ``json`` falls back to its generator-based encoder;
    this one appends a piece (a key and an exact leaf, or a bracket) to a
    list per entry and writes the list out every ``_BATCH`` pieces, so the
    whole text is never held at once.  A list of at most ``_BATCH`` ints of
    exact type is one piece, joined in one step.  A dict object met again is
    written from its text: the second time it is met its text is kept, when
    it is at most ``_KEPT`` characters and no batch was written out while it
    was encoded (else the next meeting tries again), and every later meeting
    appends that text as one piece, re-indented when it is met at another
    depth.  So a description that many entries share, as a command's tables
    share them, is encoded twice, not once per entry.  Dicts are known by
    ``id`` (one entry per dict met) within this one call, so ``doc`` must
    not change while it is written.  It follows ``json``'s rules for str and
    int subclasses (``Status`` encodes as its value), bools, None, tuples
    and empty containers.  Reports carry exact values under string keys
    only, so a float, a key that is not a string, or any value ``json``
    cannot encode raises TypeError, after the pieces before it may have been
    written.
    """
    parts: list = []
    append = parts.append
    # id of each dict met -> _MET, _IN_FULL, or its (indent, text) once kept
    texts: dict = {}
    keys: dict = {}  # each key met -> its quoted form and ": "
    batches = 0  # batches written out so far

    def encode(value, newline: str) -> None:
        # Leaves of exact type str or int, and short lists of exact ints,
        # are encoded inline with their key or comma; only containers,
        # subclasses, bools and None recurse.
        nonlocal batches
        inner = newline + "  "
        if isinstance(value, dict):
            if not value:
                return append("{}")
            key = id(value)
            met = texts.get(key)
            if met is None:
                texts[key] = _MET
            elif met is _MET:
                return keep(value, newline)
            elif met is not _IN_FULL:
                indent, text = met
                return append(text if indent == newline
                              else text.replace(indent, newline))
            lead, nested = "{" + inner, inner + "  "
            for k in sorted(value):
                v = value[k]
                quoted = keys.get(k)
                if quoted is None:
                    quoted = keys[k] = _quote(k) + ": "
                head = lead + quoted
                if type(v) is str:
                    append(head + _quote(v))
                elif type(v) is int:
                    append(head + int.__repr__(v))
                elif type(v) is list and 0 < len(v) <= _BATCH and \
                        _EXACT_INT.issuperset(map(type, v)):
                    append(head + "[" + nested + ("," + nested).join(
                        map(int.__repr__, v)) + inner + "]")
                else:
                    append(head)
                    encode(v, inner)
                if len(parts) >= _BATCH:
                    fp.write("".join(parts))
                    parts.clear()
                    batches += 1
                lead = "," + inner
            return append(newline + "}")
        if isinstance(value, (list, tuple)):
            if not value:
                return append("[]")
            lead = "[" + inner
            if len(value) <= _BATCH and \
                    _EXACT_INT.issuperset(map(type, value)):
                return append(lead + ("," + inner).join(
                    map(int.__repr__, value)) + newline + "]")
            for v in value:
                if type(v) is str:
                    append(lead + _quote(v))
                elif type(v) is int:
                    append(lead + int.__repr__(v))
                else:
                    append(lead)
                    encode(v, inner)
                if len(parts) >= _BATCH:
                    fp.write("".join(parts))
                    parts.clear()
                    batches += 1
                lead = "," + inner
            return append(newline + "]")
        append(_leaf(value))

    def keep(value: dict, newline: str) -> None:
        """Encode a dict met a second time, and keep its text."""
        key = id(value)
        texts[key] = _IN_FULL
        start, written = len(parts), batches
        encode(value, newline)
        if batches != written:
            texts[key] = _MET  # try again at the next meeting
            return
        text = "".join(parts[start:])
        if len(text) <= _KEPT:
            parts[start:] = [text]
            texts[key] = newline, text

    encode(doc, "\n")
    append("\n")
    fp.write("".join(parts))


def _leaf(value) -> str:
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


def canonical_json(doc: dict) -> str:
    """The text ``write_canonical_json`` writes, as one string."""
    buffer = io.StringIO()
    write_canonical_json(doc, buffer)
    return buffer.getvalue()


@contextmanager
def stopwatch():
    """Yields a zero-arg callable reporting elapsed seconds."""
    t0 = time.perf_counter()
    yield lambda: time.perf_counter() - t0
