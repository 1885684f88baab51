"""A ledger of the definitions no command reaches.

The test builds a name-based call graph of ``src/grouptop`` with ``ast``
and walks it from ``cli.main``.  A name, an attribute or a string that
reads as an identifier, used anywhere in a reached definition, reaches
every top-level definition of that name in any module; a reached class
reaches its methods, since their bodies are part of it.  Every
module-level statement other than a definition or an import runs when
its module is imported, so each is a root as well.  A name shared by two
definitions reaches both, so the graph can miss dead code, but it flags
nothing a command reaches, short of ``getattr`` on a computed name.

Every top-level definition the walk leaves unreached must be listed in
``UNREACHED`` with the reason it stays: the open item that will emit or
delete it, or the bench or test code that uses it.  A new unreached
definition fails the test, and so does an entry whose definition a
command now reaches or that no longer exists.

A second test keeps ``nonabelian`` beside ``filters`` and ``prefixsum``:
it imports from the package only ``groups``, ``setspec`` and ``report``.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "grouptop"

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_NONCOMMUTATIVE = ("no command emits the noncommutative section's claims; "
                   "ROADMAP item 13 emits or deletes it (bench dyadic-d4 "
                   "and tier-1 call it)")

# module.name -> why it stays unreached from ``cli.main``.
UNREACHED = {
    "nonabelian.DyadicIndex": _NONCOMMUTATIVE,
    "nonabelian.dyadic_indices": _NONCOMMUTATIVE,
    "nonabelian.DyadicAssignment": _NONCOMMUTATIVE,
    "nonabelian.assignment_from_json": _NONCOMMUTATIVE,
    "nonabelian.enumerate_u_witnesses": _NONCOMMUTATIVE,
    "nonabelian._products_over": _NONCOMMUTATIVE,
    "nonabelian._sorted_witness_items": _NONCOMMUTATIVE,
    "nonabelian.Rescale": _NONCOMMUTATIVE,
    "nonabelian.check_UU": _NONCOMMUTATIVE,
    "nonabelian._validated": _NONCOMMUTATIVE,
    "nonabelian._Images": _NONCOMMUTATIVE,
    "nonabelian._star_member": _NONCOMMUTATIVE,
    "nonabelian._indices_valid": _NONCOMMUTATIVE,
    "nonabelian._pair_failures": _NONCOMMUTATIVE,
    "nonabelian.check_inverse_closure": _NONCOMMUTATIVE,
    "nonabelian.check_translation": _NONCOMMUTATIVE,
    "nonabelian.TowerChain": _NONCOMMUTATIVE,
    "nonabelian.ReductionStage": _NONCOMMUTATIVE,
    "nonabelian.ReductionCertificate": _NONCOMMUTATIVE,
    "nonabelian.s_in_u_reduce": _NONCOMMUTATIVE,
    "groups.op_sum": "a public group operation; tier-1 uses it",
    "groups.op_sub": "a public group operation; tier-1 uses it",
    "groups.op_conjugate": "a public group operation; tier-1 uses it",
    "fixtures.fixture_text": "reads the shipped tables for the bench "
                             "worker's D4 group and for tier-1",
    "fixtures.load_fixture_group": "loads the shipped tables for the bench "
                                   "worker's D4 group and for tier-1",
    "fixtures.dihedral8": "the bench worker's D4 group (dyadic-d4) and "
                          "tier-1's",
    "report.canonical_json": "the bench worker emits its uu-products "
                             "report with it; tier-1 uses it throughout",
}


def _used_names(nodes) -> set:
    """Every name, attribute and identifier-like string in ``nodes``."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.Constant) and \
                    isinstance(sub.value, str) and \
                    _IDENTIFIER.fullmatch(sub.value):
                names.add(sub.value)
    return names


def _graph() -> tuple:
    """(definitions: module.name -> names it uses, roots' names)."""
    definitions, roots = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                definitions[f"{path.stem}.{node.name}"] = \
                    _used_names([node])
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _used_names([node])
    return definitions, roots


def _unreached() -> set:
    definitions, roots = _graph()
    by_name: dict = {}
    for key in definitions:
        by_name.setdefault(key.partition(".")[2], []).append(key)
    reached, todo = set(), ["cli.main"]
    todo += [key for name in roots for key in by_name.get(name, ())]
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        todo += [found for name in definitions[key]
                 for found in by_name.get(name, ())]
    return set(definitions) - reached


def test_every_unreached_definition_is_in_the_ledger_with_a_reason():
    unreached = _unreached()
    assert sorted(unreached - set(UNREACHED)) == [], \
        "unreached from cli.main, and not in the ledger"
    assert sorted(set(UNREACHED) - unreached) == [], \
        "in the ledger, but reached from cli.main or gone"
    assert all(reason.strip() for reason in UNREACHED.values())


def test_nonabelian_rests_on_groups_setspec_and_report_only():
    """The noncommutative module sits beside ``filters`` and
    ``prefixsum``, not above them.  The package imports itself by
    relative imports only."""
    tree = ast.parse((PACKAGE / "nonabelian.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported |= {node.module} if node.module \
                else {alias.name for alias in node.names}
    assert imported <= {"groups", "setspec", "report"}
