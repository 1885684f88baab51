"""grouptop benchmark: certify and recheck workloads, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads: cofinite-search,
residue-chain, dyadic-d4 (see bench/README.md).  The load is a closed
loop with one client: repetitions of the workload run one after another,
each in a fresh single-threaded interpreter (bench/worker.py), until the
next one would end past ``--seconds``.  Every repetition uses the same
inputs, drawn from ``--seed``, so every emitted report must be byte
identical across the run.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` untraced and traced repetitions
alternate and it carries the per-layer metrics, including the tracing
overhead.  The lines before it give quartiles, sample counts, the shares
behind the correctness gate and each report's sha256.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import inputs  # noqa: E402  (sibling module)
import metrics  # noqa: E402

MIN_PLAIN = 3        # untraced repetitions per run, at least
MIN_TRACED = 2       # traced repetitions per traced run, at least
DEADLINE_S = 165.0   # every worker ends by then, so a run exits within 180 s


def _worker(args: list, deadline: float) -> dict:
    """Run one worker process to completion; {} when it fails or is still
    running at the deadline (it is then killed and waited for)."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        return {}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("worker stopped at the run's deadline", file=sys.stderr)
        return {}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return {}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _repetitions(args, workdir: Path, deadline: float) -> list:
    """Closed loop: one repetition at a time until the time is used."""
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size, "--workdir", str(workdir)]
    reps = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        t0 = time.perf_counter()
        result = _worker(common + ["--rep", str(len(reps))]
                         + (["--trace"] if traced else []), deadline)
        last = time.perf_counter() - t0
        reps.append({"traced": traced, "result": result})
        plain = sum(not r["traced"] for r in reps)
        need = plain < MIN_PLAIN or (args.trace and
                                     len(reps) - plain < MIN_TRACED)
        elapsed = time.perf_counter() - start
        if time.perf_counter() + last > deadline or \
                (not need and elapsed + last > args.seconds):
            return reps


def _gate(reps: list) -> tuple:
    """(attempted, failed, digests, notes).  A repetition whose worker
    died counts as one failed operation; a report whose bytes differ from
    the first repetition's fails its operation."""
    attempted = failed = 0
    digests: dict = {}
    notes = []
    for i, rep in enumerate(reps):
        result = rep["result"]
        if not result:
            attempted += 1
            failed += 1
            notes.append(f"repetition {i}: worker failed")
            continue
        bad = {op["op"] for op in result["ops"] if not op["ok"]}
        for op in result["ops"]:
            if not op["ok"]:
                notes.append(f"repetition {i}: {op['op']}: {op['reason']}")
        for name, digest in result["digests"].items():
            if digests.setdefault(name, digest) != digest:
                notes.append(f"repetition {i}: {name} bytes differ")
                bad.add(name)
        attempted += len(result["ops"])
        failed += len(bad)
    return attempted, failed, digests, notes


def _summary(workload: str, plain: list, attempted: int, failed: int,
             digests: dict, notes: list) -> None:
    print(f"workload {workload}: {len(plain)} untraced repetitions, "
          "closed loop, one client, fresh interpreter per repetition")
    ref = metrics.REFERENCE_S
    for name, unit, values in (
            ("setup_s", "s", [r["setup_s"] for r in plain]),
            ("certify_s", "s", [r["certify_refs"] * ref for r in plain]),
            ("recheck_s", "s", [r["recheck_refs"] * ref for r in plain]),
            ("certify_wall_s", "s", [r["certify_s"] for r in plain]),
            ("recheck_wall_s", "s", [r["recheck_s"] for r in plain]),
            ("peak_rss_mb", "MB", [r["peak_rss_kb"] / 1024 for r in plain])):
        q1, med, q3 = metrics.quartiles(values)
        print(f"  {name:<16} median {med:.4f} {unit}  "
              f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(plain)}")
    print(f"  certify_s and recheck_s are at the reference speed "
          f"({ref} s per reference loop); *_wall_s are wall times")
    tally = plain[0]["tally"]
    unresolved = tally["unresolved_probes"] + tally["unknown_claims"]
    total = tally["probes"] + tally["claims"]
    print(f"  unresolved_share {unresolved / total:.4f} ratio  "
          f"({tally['unresolved_probes']} unresolved probes + "
          f"{tally['unknown_claims']} unknown claims of "
          f"{tally['probes']} probes + {tally['claims']} claims)")
    print(f"  failed_share     {failed / max(attempted, 1):.4f} ratio  "
          f"({failed} of {attempted} operations)")
    for note in notes:
        print(f"  gate: {note}")
    for name, digest in sorted(digests.items()):
        print(f"  sha256 {name} {digest}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(inputs.SIZES),
                        default="full",
                        help="tiny: smallest inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "grouptop" / "__init__.py").is_file():
        print(f"no grouptop sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + DEADLINE_S
    try:
        if not _worker(["--warmup"], deadline):
            print("the program does not import", file=sys.stderr)
            return 2
        reps = _repetitions(args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, digests, notes = _gate(reps)
    plain = [r["result"] for r in reps if not r["traced"] and r["result"]]
    traced = [r["result"] for r in reps if r["traced"] and r["result"]]
    complete = plain and (traced or not args.trace)
    if complete:
        _summary(args.workload, plain, attempted, failed, digests, notes)
        if args.trace:
            values = metrics.per_layer(traced, plain)
            units = metrics.PER_LAYER
        else:
            values = metrics.end_to_end(plain)
            units = metrics.END_TO_END
    else:
        for note in notes:
            print(f"gate: {note}")
        units = metrics.PER_LAYER if args.trace else metrics.END_TO_END
        values = {name: 0.0 for name, _ in units}
    print(json.dumps({
        "correct": bool(complete) and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
