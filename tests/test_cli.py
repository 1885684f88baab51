"""End-to-end CLI behavior: exit codes, reports, determinism, recheck."""

import hashlib
import json
from pathlib import Path

import pytest

from grouptop.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hensel_table(capsys):
    code, out, _ = run(["hensel", "--p", "3", "--a", "7", "--k", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    levels = doc["claims"][0]["payload"]["levels"]
    assert [row["root"] for row in levels] == [1, 4, 13]


def test_hensel_non_residue_exits_1(capsys):
    code, _, err = run(["hensel", "--p", "3", "--a", "2", "--k", "1"], capsys)
    assert code == 1 and "residue" in err


def test_hensel_bad_level_exits_1(capsys):
    code, _, _ = run(["hensel", "--k", "0"], capsys)
    assert code == 1


def test_verify_interval(capsys):
    code, out, _ = run(["verify", "interval"], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "verified"


def test_verify_fibonacci(capsys):
    code, out, _ = run(["verify", "fibonacci", "--n", "20"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "verified"
    assert len(doc["claims"]) == 12


def test_verify_sqrt7_small_and_recheck(tmp_path, capsys):
    report = tmp_path / "sq.json"
    code, _, _ = run(["verify", "sqrt7", "--gmax", "6", "--nmax", "2",
                      "--out", str(report)], capsys)
    assert code == 0
    doc = json.loads(report.read_text())
    assert len(doc["claims"]) == 12
    code2, out2, _ = run(["recheck", str(report)], capsys)
    assert code2 == 0 and "recheck: ok" in out2


def test_verify_sqrt7_rejects_empty_range(capsys):
    code, _, _ = run(["verify", "sqrt7", "--gmax", "0"], capsys)
    assert code == 1


def test_verify_product_and_recheck(tmp_path, capsys):
    report = tmp_path / "prod.json"
    code, _, _ = run(["verify", "product", "--samples", "10",
                      "--out", str(report)], capsys)
    assert code == 0
    code2, out2, _ = run(["recheck", str(report)], capsys)
    assert code2 == 0


def test_hausdorff_sqrt7_gap_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": {"kind": "chain", "generator": "sqrt7"},
        "probes": [1, 2, 3],
        "budgets": {"n_max": 2, "depth": 10, "max_len": 4},
    }))
    report = tmp_path / "report.json"
    code, _, _ = run(["hausdorff", str(cfg), "--out", str(report)], capsys)
    assert code == 2
    doc = json.loads(report.read_text())
    assert "not Hausdorff" in doc["claims"][0]["payload"]["verdict"]
    code2, out2, _ = run(["recheck", str(report)], capsys)
    assert code2 == 0 and "recheck: ok" in out2


def test_hausdorff_powers3_consistent_exits_0(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": {"kind": "cofinite", "sequence": "powers3"},
        "probes": [1, 2, 3, 4, 5],
        "budgets": {"n_max": 2, "depth": 10, "max_len": 4},
    }))
    report = tmp_path / "report.json"
    code, _, _ = run(["hausdorff", str(cfg), "--out", str(report)], capsys)
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["claims"][0]["payload"]["verdict"] == "consistent-with-hausdorff"
    code2, _, _ = run(["recheck", str(report)], capsys)
    assert code2 == 0


def test_hausdorff_user_sequence_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "sequences": {"cli-user-seq": {
            "prefix": [1, 4, 16, 64, 256, 1024, 4096],
        }},
        "family": {"kind": "cofinite", "sequence": "cli-user-seq"},
        "probes": [3],
        "budgets": {"n_max": 1, "depth": 4, "max_len": 2},
    }))
    code, out, _ = run(["hausdorff", str(cfg)], capsys)
    assert code in (0, 3)  # honest outcome either way for a finite prefix
    doc = json.loads(out)
    assert doc["claims"][0]["payload"]["family"]["sequence"] == "cli-user-seq"


def test_hausdorff_same_user_sequence_config_twice(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "sequences": {"cli-twice-seq": {"prefix": [1, 5, 25, 125, 625]}},
        "family": {"kind": "cofinite", "sequence": "cli-twice-seq"},
        "probes": [2, 5],
        "budgets": {"n_max": 1, "depth": 4, "max_len": 2},
    }))
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1, _, _ = run(["hausdorff", str(cfg), "--out", str(r1)], capsys)
    code2, _, err2 = run(["hausdorff", str(cfg), "--out", str(r2)], capsys)
    assert code1 == code2 != 1, err2
    assert r1.read_bytes() == r2.read_bytes()


@pytest.mark.parametrize("doc, key", [
    ({"family": {"kind": "cofinite", "sequence": "powers3"},
      "probes": [1], "window": 8}, "window"),
    ({"family": {"kind": "cofinite", "sequence": "powers3"},
      "probes": [1], "budgets": {"n-max": 50}}, "n-max"),
    ({"sequences": {"cli-stale-seq": {"prefix": [1, 4, 16],
                                      "doubling_from": 0}},
      "family": {"kind": "cofinite", "sequence": "cli-stale-seq"},
      "probes": [1]}, "doubling_from"),
], ids=["top-level", "budgets", "sequence-entry"])
def test_hausdorff_unknown_config_key_exits_1(tmp_path, capsys, doc, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run(["hausdorff", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and repr(key) in err


@pytest.mark.parametrize("config, digest", [
    ("sqrt7.json",
     "0c82c86153d9b398c731e533a79c65ad3dfe986ce36020c7807879b7f0194dc5"),
    ("powers3.json",
     "59926c1de9e8ef61b26ab09a04642952407716c52138126315c442970b48c63b"),
], ids=["sqrt7", "powers3"])
def test_shipped_config_report_bytes_pinned(tmp_path, capsys, config, digest):
    """Report bytes of the shipped configs; a deliberate change to the
    report body bumps ``schema`` and refreshes these digests."""
    report = tmp_path / "report.json"
    run(["hausdorff", str(CONFIGS / config), "--out", str(report)], capsys)
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def test_hausdorff_identity_probe_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": {"kind": "cofinite", "sequence": "powers3"},
        "probes": [0, 1],
    }))
    code, _, err = run(["hausdorff", str(cfg)], capsys)
    assert code == 1 and "identity" in err


def test_hausdorff_malformed_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code, _, err = run(["hausdorff", str(cfg)], capsys)
    assert code == 1 and "cannot read config" in err


def test_reports_byte_identical_across_runs(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": {"kind": "chain", "generator": "sqrt7"},
        "probes": [1, 2],
        "budgets": {"n_max": 2, "depth": 8, "max_len": 3},
    }))
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run(["hausdorff", str(cfg), "--out", str(r1)], capsys)
    run(["hausdorff", str(cfg), "--out", str(r2)], capsys)
    assert r1.read_bytes() == r2.read_bytes()


def test_text_format(capsys):
    code, out, _ = run(["hensel", "--format", "text"], capsys)
    assert code == 0
    assert out.startswith("status: verified")


def test_recheck_flags_tampered_report(tmp_path, capsys):
    report = tmp_path / "sq.json"
    run(["verify", "sqrt7", "--gmax", "2", "--nmax", "1",
         "--out", str(report)], capsys)
    doc = json.loads(report.read_text())
    # tamper: shrink the excluding member's level so the target re-enters
    claim = next(c for c in doc["claims"] if c["claim"].endswith("g=1:n=1"))
    claim["payload"]["member"] = {"kind": "residue", "modulus": 3,
                                  "residues": [0, 1, 2]}
    report.write_text(json.dumps(doc))
    code, out, _ = run(["recheck", str(report)], capsys)
    assert code == 2 and "FAIL" in out
