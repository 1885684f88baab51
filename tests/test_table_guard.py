"""One FoldTable per command, passed down.

An ``ast`` scan of ``src/grouptop``: each command builds its table at
the top and hands it to everything below, so no function takes a table
that defaults to None (and so builds a throwaway one), and ``FoldTable()``
is called only where a command starts, plus the one-call wrapper
``setspec.n_fold_star`` and ``nonabelian.check_UU``, which the bench
calls directly.  Stars and memberships come from that table too: no
function outside ``setspec`` calls ``setspec.star`` or
``setspec.contains``, and no ``cached_property`` keeps a second cache
beside the table.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "grouptop"

# module.function -> the command (or wrapper) whose table it builds.
BUILDERS = {
    "cli._cmd_verify": "verify",
    "filters.hausdorff_verdict": "hausdorff",
    "nonabelian.check_UU": "the bench's dyadic-d4 entry",
    "recheck.recheck_document": "recheck",
    "setspec.n_fold_star": "the one-call wrapper the bench tracer wraps",
}


def _functions():
    """(module.qualified name, function node) for every function."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        todo = [(path.stem, node) for node in tree.body]
        while todo:
            prefix, node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                name = f"{prefix}.{node.name}"
                if not isinstance(node, ast.ClassDef):
                    yield name, node
                todo += [(name, child) for child in node.body]


def _callers(callee) -> set:
    """The innermost function around each call whose function node
    ``callee(module tree)`` accepts, or the module for a call outside
    every function."""
    found = set()

    def visit(node, owner: str, accepts) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            owner = f"{owner}.{name}"
        if isinstance(node, ast.Call) and accepts(node.func):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner, accepts)

    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visit(tree, path.stem, callee(tree))
    return found


def _table_builders() -> set:
    """The innermost function around each ``FoldTable()`` call."""
    return _callers(lambda tree: lambda func: "FoldTable" in (
        getattr(func, "id", None), getattr(func, "attr", None)))


def _setspec_names(tree: ast.Module, name: str) -> set:
    """The callee texts by which a module reaches ``setspec.NAME``: the
    name it imports NAME as, from setspec or from the package, and
    ``M.NAME`` for the name M it imports setspec itself as."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound = alias.asname or alias.name
                if alias.name == name:
                    names.add(bound)
                elif alias.name == "setspec":
                    names.add(f"{bound}.{name}")
    return names


def _setspec_callers(name: str) -> set:
    """The innermost function around each call of ``setspec.NAME``."""
    def callee(tree):
        names = _setspec_names(tree, name)
        return lambda func: ast.unparse(func) in names
    return _callers(callee)


def _defaults(args: ast.arguments):
    """(parameter, default) for every parameter that has a default."""
    positional = args.posonlyargs + args.args
    yield from zip(positional[len(positional) - len(args.defaults):],
                   args.defaults)
    yield from ((a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None)


def test_no_function_takes_a_table_that_defaults_to_none():
    optional = [name for name, fn in _functions()
                for arg, default in _defaults(fn.args)
                if arg.arg == "table" and isinstance(default, ast.Constant)
                and default.value is None]
    assert optional == []


def test_fold_tables_are_built_only_where_a_command_starts():
    assert _table_builders() == set(BUILDERS)


def test_stars_come_from_the_command_table():
    """Outside ``setspec``, whose ``FoldTable.star`` builds each star
    once per command, no function calls ``setspec.star``: every witness
    is checked against, and written from, the stars its claim reads from
    the table."""
    callers = {owner for owner in _setspec_callers("star")
               if owner.split(".")[0] != "setspec"}
    assert callers == set()


def test_memberships_come_from_the_command_table():
    """Outside ``setspec`` no function calls ``setspec.contains``: a
    single-set membership and every witness check ask the command's
    ``FoldTable.contains``, which reads each tail's terms once per
    command.  The rule's docstring says so."""
    from grouptop import setspec

    callers = {owner for owner in _setspec_callers("contains")
               if owner.split(".")[0] != "setspec"}
    assert callers == set()
    assert "Only ``setspec`` calls it" in " ".join(
        setspec.contains.__doc__.split())


def test_no_cached_property_caches_beside_the_table():
    """``functools.cached_property`` is neither imported nor used: a
    value worth keeping per command lives in the command's table."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [alias.name for alias in node.names] \
                if isinstance(node, ast.ImportFrom) else []
            if "cached_property" in names or "cached_property" in (
                    getattr(node, "id", None), getattr(node, "attr", None)):
                found.append(f"{path.stem}:{node.lineno}")
    assert found == []
