"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--workloads a,b]
                            [--baseline bench/baseline.json]

For every workload, runs ``bench/run.py`` untraced once per seed, one run
at a time and for BENCHMARK.json's ``run_seconds``, and prints each
metric's median and its spread: the distance between the first and third
quartile of the per-seed values (statistics.quantiles, n=4) as a share of
their median.  End-to-end
spreads are compared with the bounds in BENCHMARK.json.  With
``--baseline`` the per-seed metrics and report digests are written there,
with the commit of the program they were measured on.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import metrics  # noqa: E402  (sibling module)


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["sha256"] = {parts[1]: parts[2] for parts in
                        (line.split() for line in lines[:-1])
                        if len(parts) == 3 and parts[0] == "sha256"}
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {"program_commit": _commit(),
                "loop": "closed, one client, fresh interpreter per repetition",
                "python": platform.python_version(),
                "machine": platform.machine(),
                "run_seconds": spec["run_seconds"], "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = {}
        for seed in _seeds(args.seeds):
            result = run_once(workload, seed, spec["run_seconds"])
            runs[seed] = result
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} " +
                  " ".join(f"{k}={v['value']:.4g}"
                           for k, v in result["metrics"].items()
                           if k in bounds), flush=True)
        summary = {}
        for name in runs[next(iter(runs))]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs.values()]
            q1, med, q3 = metrics.quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread}
            if name in bounds:
                flag = "ok" if spread < bounds[name] / 3 else \
                    "WIDE" if spread <= bounds[name] else "OVER BOUND"
                if name != "setup_s":
                    worst = max(worst, spread / bounds[name])
                print(f"  {workload} {name}: median {med:.4g} spread "
                      f"{spread:.3f} (bound {bounds[name]}) {flag}")
        baseline["workloads"][workload] = {
            "summary": summary,
            "seeds": {str(s): {"correct": r["correct"],
                               "metrics": {k: v["value"] for k, v in
                                           r["metrics"].items()},
                               "sha256": r["sha256"]}
                      for s, r in runs.items()}}
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"largest spread / bound (setup_s excepted): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
