"""Command-line harness: parse arguments, read configs, and emit the
reports that the claims' producers build.

Exit codes follow the three-valued logic so automation can tell refutation
from budget exhaustion: 0 all claims verified, 2 some claim refuted,
3 some claim unknown at budget, 1 bad parameters (a usage error too) or
malformed input.

Report files are byte-identical across runs for identical configurations;
wall time goes to stderr, never into the certificate body.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence, TextIO

from . import examples as ex
from .filters import (ExplicitFamily, FilterFamily, check_directed,
                      family_from_json, hausdorff_verdict)
from .groups import (check_enumeration_cap, integer_from_json,
                     reject_unknown_keys)
from .nonabelian import verify_fib_identity, verify_fib_words
from .report import (Status, report_document, stopwatch,
                     write_canonical_json)
from .setspec import EnumerationBudgetError, FoldTable, SubsetUndecidable

_EXIT_FOR_STATUS = {
    Status.VERIFIED: 0,
    Status.REFUTED: 2,
    Status.UNKNOWN: 3,
}

_CONFIG_KEYS = {"family", "probes", "budgets"}
_BUDGET_KEYS = {"n_max", "depth", "max_len"}
_EXAMPLES = ("sqrt7", "product", "interval", "fibonacci")  # of verify


@dataclass
class RunConfig:
    """Parsed configuration for a family-level verification run."""

    family: FilterFamily
    probes: list  # list[GroupElement] of the family's ambient group
    n_max: int = 3
    depth: int = 12
    max_len: int = 5

    @classmethod
    def from_json(cls, doc: dict) -> "RunConfig":
        reject_unknown_keys(doc, _CONFIG_KEYS, "config")
        budgets = doc.get("budgets", {})
        reject_unknown_keys(budgets, _BUDGET_KEYS, "budgets")
        if not isinstance(doc["probes"], list):
            raise ValueError("probes must be a JSON list")
        # a budget the config leaves out takes its field's default
        limits = {key: budgets.get(key, getattr(cls, key))
                  for key in sorted(_BUDGET_KEYS)}
        family = family_from_json(doc["family"])
        if isinstance(family, ExplicitFamily):
            _require_directed(family)
        group = family.member(0).ambient()  # the probes' group
        cfg = cls(
            family=family,
            probes=[group.element(p) for p in doc["probes"]],
            **{key: integer_from_json(v) for key, v in limits.items()},
        )
        if min(cfg.n_max, cfg.depth, cfg.max_len) < 1:
            raise ValueError("budgets must be positive")
        if not cfg.probes:
            raise ValueError("probe list must be nonempty")
        if any(p.is_identity() for p in cfg.probes):
            raise ValueError("probes must exclude the identity")
        return cfg


def _require_directed(family: ExplicitFamily) -> None:
    """Refuse an explicit family with two members that contain no common
    member: the criteria speak about downward directed families.  A family
    with a pair of members that has no exact subset test is taken as
    given."""
    try:
        pair = check_directed(family)
    except SubsetUndecidable:
        return
    if pair is not None:
        raise ValueError(f"explicit family is not downward directed: no "
                         f"member lies inside both member {pair[0]} and "
                         f"member {pair[1]}")


def _emit(reports: list, out: Optional[str], fmt: str, elapsed: float) -> int:
    doc = report_document(reports)
    with _replacing(Path(out)) if out else nullcontext(sys.stdout) as fp:
        if fmt == "json":
            write_canonical_json(doc, fp)
        else:
            fp.write(f"status: {doc['status']}\n")
            for claim in doc["claims"]:
                fp.write(f"  {claim['status']:<9} {claim['claim']}\n")
    print(f"wall time: {elapsed:.3f}s ({len(reports)} claims)",
          file=sys.stderr)
    return _EXIT_FOR_STATUS[Status(doc["status"])]


@contextmanager
def _replacing(path: Path) -> Iterator[TextIO]:
    """A text file that replaces ``path`` once the ``with`` block has
    written it without raising; on a raise, ``path`` stays as it was and
    the temporary file beside it is removed."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fp:
            yield fp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cmd_verify(args) -> int:
    if args.example == "product" and max(args.m0) > args.coords:
        print("--m0 must not exceed --coords", file=sys.stderr)
        return 1
    if args.example == "sqrt7" and args.cover_gmax is not None and \
            not args.cover_m0:
        print("--cover-gmax needs --cover-m0", file=sys.stderr)
        return 1
    try:
        with stopwatch() as elapsed:
            if args.example == "sqrt7":
                claims = args.gmax * args.nmax
                check_enumeration_cap(f"the sqrt7 grid holds {claims} claims",
                                      claims)
                reports = []  # the cover first: its cap refuses at once
                if args.cover_m0:
                    m0 = args.cover_m0
                    gmax = 20 if args.cover_gmax is None else args.cover_gmax
                    reports.append(ex.verify_sqrt7_U_full(
                        m0, ex.sqrt7_cover_levels(m0),
                        range(-gmax, gmax + 1)))
                table = FoldTable()  # the grid shares every n-fold set
                reports += [
                    ex.verify_sqrt7_necessary(g, n, table=table)
                    for g in range(1, args.gmax + 1)
                    for n in range(1, args.nmax + 1)
                ]
            elif args.example == "product":
                coords = args.coords
                samples = ex.random_product_elements(coords, args.samples,
                                                     args.seed)
                reports = [ex.verify_product_sum_full(
                    coords, m0, ex.product_cover_levels(coords, m0), samples)
                    for m0 in args.m0]
                reports += [ex.verify_product_union_small(coords, n)
                            for n in args.union_n]
            elif args.example == "interval":
                reports = [ex.verify_interval_example(args.min_exp)]
            else:  # fibonacci; argparse restricts the examples
                reports = [verify_fib_words(args.n)]
                reports.extend(verify_fib_identity(n)
                               for n in range(min(args.n, 10) + 1))
    except EnumerationBudgetError as err:
        print(f"verify: {err}", file=sys.stderr)
        return 1
    return _emit(reports, args.out, args.format, elapsed())


def _read_json(path: str, what: str, **hooks):
    """The JSON document in the UTF-8 file ``path``, parsed with
    ``json.loads``' ``hooks``; a file that cannot be read or parsed prints
    one ``cannot read WHAT:`` line and exits 1."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), **hooks)
    except (OSError, ValueError, RecursionError) as err:
        print(f"cannot read {what}: {err}", file=sys.stderr)
        raise SystemExit(1)


def _cmd_hausdorff(args) -> int:
    doc = _read_json(args.config, "config")
    try:
        cfg = RunConfig.from_json(doc)
    except (KeyError, ValueError, EnumerationBudgetError) as err:
        print(f"bad config: {err}", file=sys.stderr)
        return 1
    with stopwatch() as elapsed:
        report = hausdorff_verdict(
            cfg.family, cfg.probes,
            n_max=cfg.n_max, depth=cfg.depth, max_len=cfg.max_len,
        )
    return _emit([report], args.out, args.format, elapsed())


def _cmd_hensel(args) -> int:
    try:
        with stopwatch() as elapsed:
            report = ex.verify_hensel(args.a, args.p, args.k)
    except (ex.HenselError, EnumerationBudgetError) as err:
        print(f"hensel: {err}", file=sys.stderr)
        return 1
    return _emit([report], args.out, args.format, elapsed())


def _cmd_recheck(args) -> int:
    from .recheck import recheck_document
    refused = []  # numbers the writer never emits, in document order

    def refuse(number: str) -> float:
        refused.append(f"  FAIL   report: non-integer number {number}")
        return float(number)
    doc = _read_json(args.report, "report", parse_float=refuse,
                     parse_constant=refuse)
    ok, details = recheck_document(doc)
    ok, details = ok and not refused, details + refused
    for line in details:
        print(line)
    print("recheck:", "ok" if ok else "FAILED")
    return 0 if ok else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 2 would read as "some claim refuted"
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_least(least: int):
    """An argparse ``type``: an integer no smaller than ``least``."""
    def integer(text: str) -> int:
        if int(text) < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {text}")
        return int(text)
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="grouptop",
        description="certified verifications of set-family convergence "
                    "criteria",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a named example suite")
    p_verify.add_argument("example", choices=_EXAMPLES)
    p_verify.add_argument("options", nargs=argparse.REMAINDER,
                          help="the example's own options (verify EXAMPLE "
                               "-h lists them)")
    p_verify.set_defaults(func=_cmd_verify)

    p_h = sub.add_parser("hausdorff",
                         help="run both criteria over a configured family")
    p_h.add_argument("config", help="JSON run configuration")
    _common_output(p_h)
    p_h.set_defaults(func=_cmd_hausdorff)

    p_hensel = sub.add_parser("hensel", help="square-root lifting table")
    p_hensel.add_argument("--p", type=int, default=3)
    p_hensel.add_argument("--a", type=int, default=7)
    p_hensel.add_argument("--k", type=_at_least(1), default=3)
    _common_output(p_hensel)
    p_hensel.set_defaults(func=_cmd_hensel)

    p_re = sub.add_parser("recheck",
                          help="re-verify every witness in a report file")
    p_re.add_argument("report")
    p_re.set_defaults(func=_cmd_recheck)
    return parser


def example_parser(example: str) -> argparse.ArgumentParser:
    """The options of one ``verify`` example and only those, built when
    that example is run, so no other command pays for them."""
    p = _Parser(prog=f"grouptop verify {example}")
    if example == "sqrt7":
        p.add_argument("--gmax", type=_at_least(1), default=50)
        p.add_argument("--nmax", type=_at_least(1), default=5)
        p.add_argument("--cover-m0", type=_at_least(0), default=0,
                       help="also verify the full-cover claim at this m0")
        p.add_argument("--cover-gmax", type=_at_least(0),
                       help="cover samples -G..G (default 20); needs "
                            "--cover-m0")
    elif example == "product":
        p.add_argument("--coords", type=_at_least(1), default=6)
        p.add_argument("--m0", type=_at_least(1), nargs="+", default=[2, 3])
        p.add_argument("--union-n", type=_at_least(1), nargs="+",
                       default=[1, 2])
        p.add_argument("--samples", type=_at_least(0), default=50)
        p.add_argument("--seed", type=int, default=7)
    elif example == "interval":
        p.add_argument("--min-exp", type=_at_least(0), default=10)
    else:  # fibonacci
        p.add_argument("--n", type=_at_least(1), default=20)
    _common_output(p)
    return p


def _common_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=["json", "text"], default="json")


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "verify":  # then the example's own options
            args = example_parser(args.example).parse_args(args.options,
                                                           args)
        return args.func(args)
    except SystemExit as done:  # a bad usage or input exits 1, --help 0
        return done.code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
