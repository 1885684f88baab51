"""The benchmark's tracer still finds every function it wraps.

``bench/tracer.py`` rebinds named public functions of ``grouptop`` and
raises when one is missing, so a rename in the package would first break
``bench/run.py --trace 1``.  This test installs the tracer over the
current sources and takes it down again; the tracer file is only read.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from grouptop import filters, recheck
from grouptop.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "grouptop_bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_over_current_sources_and_uninstalls(tmp_path,
                                                              capsys):
    cfg, report = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_text(json.dumps({
        "family": {"kind": "cofinite", "sequence": "powers3"},
        "probes": [1], "budgets": {"n_max": 1, "depth": 6, "max_len": 2}}))
    assert main(["hausdorff", str(cfg), "--out", str(report)]) == 0
    capsys.readouterr()

    tracer_mod = _load_tracer()
    modules = [importlib.import_module(name)
               for name in sorted({t[0] for t in tracer_mod.TARGETS})]
    before = [dict(vars(m)) for m in modules]
    replay = filters.recheck_certificate
    tracer = tracer_mod.Tracer("tier-1")
    tracer.install()
    try:
        assert filters.recheck_certificate is not replay
        assert filters.recheck_certificate.__wrapped__ is replay
        ok, _ = recheck.recheck_document(json.loads(report.read_text()))
        assert ok
    finally:
        tracer.uninstall()
    assert {"recheck.recheck_document", "filters.recheck_certificate",
            "prefixsum.prefix_sum_membership"} <= \
        {span[1] for span in tracer.spans}
    assert [dict(vars(m)) for m in modules] == before
