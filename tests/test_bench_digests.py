"""The benchmark's byte-identity contract, checked in tier-1.

``bench/baseline.json`` records the sha256 of every report the benchmark
emits.  This test loads ``bench/inputs.py`` (only read, as
``test_bench_tracer.py`` reads the tracer), regenerates seed 1 of two
workloads, runs the CLI commands ``bench/worker.py`` runs for them, and
compares the digests, so a change of report bytes fails here and not
only in a full benchmark run.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from grouptop.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _load_inputs():
    spec = importlib.util.spec_from_file_location(
        "grouptop_bench_inputs", ROOT / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["residue-chain", "cofinite-search"])
def test_seed_1_reports_match_bench_baseline(workload, tmp_path, capsys):
    baseline = json.loads((ROOT / "bench" / "baseline.json").read_text())
    expected = baseline["workloads"][workload]["seeds"]["1"]["sha256"]
    doc = _load_inputs().generate(workload, 1)
    runs = []
    for name, config in doc["configs"].items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        runs.append((f"hausdorff-{name}", ["hausdorff", str(path)]))
    if "verify" in doc:
        grid = doc["verify"]
        runs.append(("verify-sqrt7", [
            "verify", "sqrt7", "--gmax", str(grid["gmax"]),
            "--nmax", str(grid["nmax"])]))
    digests = {}
    for name, argv in runs:
        out = tmp_path / f"report-{name}.json"
        main(argv + ["--out", str(out)])
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    capsys.readouterr()
    assert digests == expected
