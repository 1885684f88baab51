"""Shipped data files: finite-group tables used by tests and the CLI."""

from __future__ import annotations

import json
from importlib import resources

from .groups import CayleyGroup, load_cayley


def fixture_text(name: str) -> str:
    return resources.files("grouptop.data").joinpath(name).read_text()


def load_fixture_group(name: str) -> CayleyGroup:
    return load_cayley(json.loads(fixture_text(f"{name}.json")))


def dihedral8() -> CayleyGroup:
    """The dihedral group of order 8 from the shipped table."""
    return load_fixture_group("d4")
