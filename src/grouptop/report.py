"""Verification reports with deterministic serialization.

A report carries one claim, a three-valued status, and a certificate
payload built entirely from sorted, JSON-stable values.  Wall time is kept
out of the document so reports are byte-identical across runs; the CLI
prints it to stderr.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
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
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@contextmanager
def stopwatch():
    """Yields a zero-arg callable reporting elapsed seconds."""
    t0 = time.perf_counter()
    yield lambda: time.perf_counter() - t0
