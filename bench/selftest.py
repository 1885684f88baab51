"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 bench/selftest.py

Checks that BENCHMARK.json lists exactly the metrics the benchmark
prints; that every workload, traced and untraced, prints each metric by
name with its unit, passes the correctness gate and prints report
digests; that the tracer rebinds a function in every module that
imported it; and that the benchmark refuses to run without the program's
sources.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import inputs  # noqa: E402  (sibling module)
import metrics  # noqa: E402

SUMMARY = ("setup_s", "certify_s", "recheck_s", "peak_rss_mb",
           "unresolved_share", "failed_share")

failures: list = []


def check(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_spec() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]]
          == list(metrics.END_TO_END), "BENCHMARK.json end_to_end differs")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]]
          == list(metrics.PER_LAYER), "BENCHMARK.json per_layer differs")
    check([w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS),
          "BENCHMARK.json workloads differ")


def check_run(workload: str, trace: int) -> None:
    proc = _run(workload, trace)
    tag = f"{workload} --trace {trace}"
    check(proc.returncode == 0, f"{tag}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        failures.append(f"{tag}: last line is not JSON")
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result keys {sorted(result)}")
    check(result.get("correct") is True and result.get("failed") == 0,
          f"{tag}: gate did not pass: {lines[:-1]}")
    check(isinstance(result.get("attempted"), int)
          and result["attempted"] >= 1, f"{tag}: attempted")
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    got = [(k, v.get("unit")) for k, v in result.get("metrics", {}).items()]
    check(got == list(expected), f"{tag}: metric names or units differ")
    for name, value in result.get("metrics", {}).items():
        v = value.get("value")
        check(isinstance(v, (int, float)) and not isinstance(v, bool)
              and math.isfinite(v), f"{tag}: {name} is not a number")
    text = "\n".join(lines[:-1])
    for name in SUMMARY:
        check(re.search(rf"^\s+{name}\s+(median\s+)?[-\d.]+ (s|MB|ratio) ",
                        text, re.MULTILINE) is not None,
              f"{tag}: no summary line for {name} with its unit")
    check("sha256 " in text, f"{tag}: no report digest printed")


def check_tracer() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import grouptop
    from grouptop import cli, examples, filters, prefixsum, recheck  # noqa: F401
    from tracer import Tracer

    original = prefixsum.prefix_sum_membership
    tracer = Tracer("selftest")
    tracer.install()
    holders = (grouptop, prefixsum, filters, examples, recheck)
    check(all(m.prefix_sum_membership is not original for m in holders),
          "tracer left an unwrapped reference to prefix_sum_membership")
    check(len({id(m.prefix_sum_membership) for m in holders}) == 1,
          "tracer bound different wrappers for one function")
    tracer.uninstall()
    check(all(m.prefix_sum_membership is original for m in holders),
          "tracer did not restore prefix_sum_membership")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("dyadic-d4", 0, cwd=bare)
        check(proc.returncode != 0, "ran without the program's sources")
        check(not proc.stdout.strip(),
              "printed a result without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_spec()
    check_tracer()
    for workload in inputs.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
    check_refuses_without_sources()
    for what in failures:
        print(f"FAIL {what}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
