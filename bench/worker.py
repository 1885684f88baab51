"""One repetition of a benchmark workload, in a fresh interpreter.

The sequence registry is process-global and write-once and
``hensel_sqrt`` keeps an unbounded cache, so every repetition runs in a
new process: set-up time, peak memory and cache state then belong to that
repetition alone.  ``run.py`` starts these one after another (a closed
loop with one client) and aggregates what each prints.

Usage (normally only from ``run.py``):

    python3 bench/worker.py --workload NAME --seed N --workdir DIR \
        [--trace] [--size full|tiny] [--rep K]
    python3 bench/worker.py --warmup

Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import inputs  # noqa: E402  (sibling module; the script directory is on sys.path)

# The CLI's exit table: report status -> exit code.
EXIT_FOR_STATUS = {"verified": 0, "refuted": 2, "unknown": 3}
GAP_VERDICT = ("necessary-condition-holds-but-separation-blocked: "
               "finest topology not Hausdorff at desk scale")
HAUSDORFF_VERDICT = "consistent-with-hausdorff"
# Verdicts fixed by the paper, not by a budget: (exit code, verdict),
# by report name up to its batch number.
PINNED = {
    "sqrt7": (2, GAP_VERDICT),
    "powers3": (0, HAUSDORFF_VERDICT),
    "verify-sqrt7": (0, None),  # every necessary-condition claim verified
}
REFERENCE_LOOPS = 120_000


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop that never calls the program.

    The shared host changes the processor's speed for seconds to minutes
    at a time, so every operation is timed between two of these and
    reported at a fixed reference speed (``metrics.REFERENCE_S``).  The
    loop only makes small ints, so it never starts a garbage collection
    of the program's objects.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def import_program() -> SimpleNamespace:
    """Import every grouptop module the workloads call into."""
    sys.path.insert(0, str(SRC))
    import grouptop
    from grouptop import (cli, examples, filters, fixtures, nonabelian,
                          recheck, report, setspec)
    if Path(grouptop.__file__).resolve().parent != SRC / "grouptop":
        raise ImportError(f"grouptop imported from {grouptop.__file__}, "
                          f"not from {SRC}")
    return SimpleNamespace(cli=cli, examples=examples, filters=filters,
                           fixtures=fixtures, nonabelian=nonabelian,
                           recheck=recheck, report=report, setspec=setspec)


class Repetition:
    """Runs operations, times them and applies the correctness gate.

    An operation is one CLI invocation or one ``check_UU`` call.  It fails
    when it raises, exits 1, exits with a code that disagrees with its
    report's status, prints ``recheck: FAILED``, returns a ``check_UU``
    status other than verified, or changes a paper-fixed verdict.
    """

    def __init__(self, gt: SimpleNamespace, workdir: Path, tracer=None):
        self.gt = gt
        self.workdir = workdir
        self.tracer = tracer
        self.ops: list = []
        # per phase: wall seconds, and seconds in units of the reference
        # loop timed just before and just after each operation
        self.wall = {"certify": 0.0, "recheck": 0.0}
        self.in_refs = {"certify": 0.0, "recheck": 0.0}
        self.ref_s = None  # the latest reference timing
        self.digests: dict = {}
        self.tally = {"probes": 0, "unresolved_probes": 0,
                      "claims": 0, "unknown_claims": 0}

    def record(self, name: str, seconds: float, reason: str = "") -> None:
        self.ops.append({"op": name, "seconds": seconds,
                         "ok": not reason, "reason": reason})

    def timed(self, name: str, fn, phase: str = "certify"):
        """(result, seconds, error text) of fn(), whose time counts in
        phase; spans the call when tracing."""
        before = self.ref_s if self.ref_s is not None else reference_s()
        span = self.tracer.open(f"op.{name}") if self.tracer else None
        t0 = time.perf_counter()
        try:
            result, error = fn(), ""
        except SystemExit as exc:  # argparse rejects its arguments this way
            result, error = None, f"exited via SystemExit({exc.code})"
        except Exception as exc:  # noqa: BLE001 - any raise is a failed op
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if span is not None:
            self.tracer.close(span)
        self.ref_s = reference_s()
        self.wall[phase] += seconds
        self.in_refs[phase] += seconds / ((before + self.ref_s) / 2)
        return result, seconds, error

    def _cli(self, name: str, argv: list, phase: str = "certify"):
        out, err = io.StringIO(), io.StringIO()

        def call():
            with redirect_stdout(out), redirect_stderr(err):
                return self.gt.cli.main(argv)

        code, seconds, error = self.timed(name, call, phase)
        return code, out.getvalue(), seconds, error

    def certify(self, name: str, argv: list, out_path: Path,
                pin: tuple | None = None) -> None:
        out_path.unlink(missing_ok=True)
        code, _, seconds, error = self._cli(name, argv)
        if error:
            return self.record(name, seconds, error)
        if code == 1:
            return self.record(name, seconds, "exit 1")
        if not out_path.is_file():
            return self.record(name, seconds, "no report written")
        doc = self.emitted(name, out_path.read_bytes())
        if doc is None:
            return self.record(name, seconds, "report is not JSON")
        if EXIT_FOR_STATUS.get(doc["status"]) != code:
            return self.record(
                name, seconds, f"exit {code} but status {doc['status']}")
        if pin is not None:
            want_code, want_verdict = pin
            verdicts = {c["payload"].get("verdict") for c in doc["claims"]}
            if code != want_code or \
                    (want_verdict is not None and verdicts != {want_verdict}):
                return self.record(
                    name, seconds, f"paper-fixed verdict changed: exit {code},"
                                   f" verdicts {sorted(map(str, verdicts))}")
        self.record(name, seconds)

    def recheck(self, name: str, report_path: Path) -> None:
        code, text, seconds, error = self._cli(
            f"recheck-{name}", ["recheck", str(report_path)], "recheck")
        reason = error
        if not reason and (code != 0 or "recheck: FAILED" in text
                           or "recheck: ok" not in text):
            reason = f"recheck exit {code}: {text.strip().splitlines()[-1:]}"
        self.record(f"recheck-{name}", seconds, reason)

    def check_uu(self, index: int, assignment, sigma, tau):
        nonab = self.gt.nonabelian
        name = f"check_UU-{index}"
        rep, seconds, error = self.timed(
            name, lambda: nonab.check_UU(assignment, sigma, tau,
                                         inputs.D4_DEPTH))
        if error:
            self.record(name, seconds, error)
            return None
        if rep.status.value != "verified":
            self.record(name, seconds, f"check_UU status {rep.status.value}")
        else:
            self.record(name, seconds)
        return rep

    def emitted(self, name: str, data: bytes):
        """Record a report's digest and tally; its document, or None when
        it does not parse."""
        self.digests[name] = hashlib.sha256(data).hexdigest()
        try:
            doc = json.loads(data)
        except ValueError:
            return None
        self._tally(doc)
        return doc

    def _tally(self, doc: dict) -> None:
        for claim in doc["claims"]:
            self.tally["claims"] += 1
            self.tally["unknown_claims"] += claim["status"] == "unknown"
            for probe in claim["payload"].get("probes", []):
                self.tally["probes"] += 1
                self.tally["unresolved_probes"] += \
                    probe["outcome"] == "unresolved"


def _write_configs(workdir: Path, configs: dict) -> dict:
    paths = {}
    for name, doc in configs.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


def _hausdorff_workload(rep: Repetition, paths: dict, extra: list) -> None:
    """Certify every config (plus the extra (name, argv, out) ops), then
    recheck every emitted report."""
    outs = {}
    for name, path in paths.items():
        out = rep.workdir / f"report-{name}.json"
        outs[name] = out
        rep.certify(f"hausdorff-{name}",
                    ["hausdorff", str(path), "--out", str(out)], out,
                    PINNED.get(name.split(".")[0]))
    for name, argv, out in extra:
        outs[name] = out
        rep.certify(name, argv, out, PINNED.get(name))
    for name, out in outs.items():
        if out.exists():
            rep.recheck(name, out)


def run_repetition(workload: str, seed: int, size: str, workdir: Path,
                   trace: bool, run_id: str) -> dict:
    doc = inputs.generate(workload, seed, size)
    paths = _write_configs(workdir, doc.get("configs", {}))

    t0 = time.perf_counter()
    gt = import_program()
    if workload == "dyadic-d4":
        d4 = gt.fixtures.dihedral8()
        assignments = [
            gt.nonabelian.DyadicAssignment.of(
                {level: gt.setspec.FiniteSet.of(d4, names)
                 for level, names in levels.items()})
            for levels in doc["level_sets"]]
        sigma = gt.nonabelian.Rescale(*inputs.D4_SIGMA)
        tau = gt.nonabelian.Rescale(*inputs.D4_TAU)
    setup_s = time.perf_counter() - t0

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(run_id)
        tracer.install()
    rep = Repetition(gt, workdir, tracer)

    if workload == "dyadic-d4":
        reports = []
        for i, assignment in enumerate(assignments):
            report = rep.check_uu(i, assignment, sigma, tau)
            if report is not None:
                reports.append(report)
        # Emit the document the way the CLI would, so it has a digest and
        # can be replayed; uu-product claims have no replayer yet, so the
        # recheck only parses and dispatches them.
        out = workdir / "report-uu.json"

        def emit() -> str:
            text = gt.report.canonical_json(
                gt.report.report_document(reports))
            out.write_text(text)
            return text

        text, _, error = rep.timed("emit-uu-products", emit)
        if error:
            rep.record("uu-products", 0.0, error)
        elif rep.emitted("uu-products", text.encode()) is None:
            rep.record("uu-products", 0.0, "report is not JSON")
        else:
            rep.recheck("uu-products", out)
    elif workload == "residue-chain":
        grid = doc["verify"]
        out = workdir / "report-verify-sqrt7.json"
        argv = ["verify", "sqrt7", "--gmax", str(grid["gmax"]),
                "--nmax", str(grid["nmax"]), "--out", str(out)]
        _hausdorff_workload(rep, paths, [("verify-sqrt7", argv, out)])
    else:
        _hausdorff_workload(rep, paths, [])

    result = {
        "setup_s": setup_s,
        "certify_s": rep.wall["certify"],
        "recheck_s": rep.wall["recheck"],
        "certify_refs": rep.in_refs["certify"],
        "recheck_refs": rep.in_refs["recheck"],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": rep.ops,
        "digests": rep.digests,
        "tally": rep.tally,
    }
    if tracer is not None:
        tracer.uninstall()
        from tracer import span_stats
        result["layers"] = span_stats(tracer.spans)
        info = gt.examples.hensel_sqrt.cache_info()
        result["layers"]["hensel"] = {"hits": info.hits,
                                      "misses": info.misses}
        spans_path = workdir.parent / f"spans-{workload}-seed{seed}.json"
        spans_path.write_text(json.dumps(tracer.dump()))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=sorted(inputs.SIZES),
                        default="full")
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--warmup", action="store_true",
                        help="only import the program (fills bytecode "
                             "caches before anything is timed)")
    args = parser.parse_args(argv)
    if args.warmup:
        import_program()
        print(json.dumps({"warmup": True}))
        return 0
    if args.workload is None or args.workdir is None:
        parser.error("--workload and --workdir are required")
    result = run_repetition(args.workload, args.seed, args.size, args.workdir,
                            args.trace,
                            f"{args.workload}:seed{args.seed}:rep{args.rep}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
