"""End-to-end CLI behavior: exit codes, reports, determinism, recheck."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from grouptop.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
SQRT7_SHA256 = \
    "0c82c86153d9b398c731e533a79c65ad3dfe986ce36020c7807879b7f0194dc5"
POWERS3_SHA256 = \
    "59926c1de9e8ef61b26ab09a04642952407716c52138126315c442970b48c63b"
FIBONACCI_SHA256 = \
    "54ee09caecd297de64275550077b9392e9ab674d5a080d7ce32b4596ed8cc993"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_fresh(argv):
    """The CLI in a new interpreter, sharing no state with this process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [x for x in [env.get("PYTHONPATH")] if x])
    return subprocess.run([sys.executable, "-m", "grouptop.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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


def test_hensel_past_prime_cap_exits_1(capsys):
    """A huge p is refused before trial division or the root scan."""
    from grouptop.examples import HENSEL_P_CAP, hensel_sqrt
    t0 = time.perf_counter()
    code, out, err = run(["hensel", "--p", "1000000000000000003"], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert err == f"hensel: p must not exceed {HENSEL_P_CAP}\n"
    assert hensel_sqrt.cache_info().maxsize is not None


def test_hensel_scans_roots_once(capsys, monkeypatch):
    """Every level lifts from one level-1 root scan, and the report keeps
    comparing consecutive iterates."""
    from grouptop import examples
    scans = []
    scan = examples._level1_roots
    monkeypatch.setattr(examples, "_level1_roots",
                        lambda a, p: scans.append(p) or scan(a, p))
    code, out, _ = run(["hensel", "--p", "999983", "--a", "7", "--k", "10"],
                       capsys)
    assert code == 0 and scans == [999983]
    payload = json.loads(out)["claims"][0]["payload"]
    assert payload["congruence_chain"] is True
    roots = [row["root"] for row in payload["levels"]]
    assert len(roots) == 10
    for k, (prev, root) in enumerate(zip(roots, roots[1:]), start=2):
        assert (root * root - 7) % 999983 ** k == 0
        assert (root - prev) % 999983 ** (k - 1) == 0


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


def test_hausdorff_report_family_is_a_config_family(tmp_path, capsys):
    """The family a chain report describes runs again as a config."""
    report = tmp_path / "report.json"
    run(["hausdorff", str(CONFIGS / "sqrt7.json"), "--out", str(report)],
        capsys)
    family = json.loads(report.read_text())["claims"][0]["payload"]["family"]
    cfg = json.loads((CONFIGS / "sqrt7.json").read_text())
    assert family != cfg["family"]
    (tmp_path / "cfg.json").write_text(json.dumps({**cfg, "family": family}))
    again = tmp_path / "again.json"
    code, _, _ = run(["hausdorff", str(tmp_path / "cfg.json"),
                      "--out", str(again)], capsys)
    assert code == 2 and sha256(again) == SQRT7_SHA256


def test_hausdorff_user_sequence_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    prefix = [1, 4, 16, 64, 256, 1024, 4096]
    cfg.write_text(json.dumps({
        "family": {"kind": "cofinite", "sequence": "cli-user-seq",
                   "prefix": prefix},
        "probes": [3],
        "budgets": {"n_max": 1, "depth": 4, "max_len": 2},
    }))
    code, out, _ = run(["hausdorff", str(cfg)], capsys)
    assert code in (0, 3)  # honest outcome either way for a finite prefix
    family = json.loads(out)["claims"][0]["payload"]["family"]
    assert family == {"kind": "cofinite", "sequence": "cli-user-seq",
                      "prefix": prefix, "start": 0}


def test_hausdorff_same_user_sequence_config_twice(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": {"kind": "cofinite", "sequence": "cli-twice-seq",
                   "prefix": [1, 5, 25, 125, 625]},
        "probes": [2, 5],
        "budgets": {"n_max": 1, "depth": 4, "max_len": 2},
    }))
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1, _, _ = run(["hausdorff", str(cfg), "--out", str(r1)], capsys)
    code2, _, err2 = run(["hausdorff", str(cfg), "--out", str(r2)], capsys)
    assert code1 == code2 != 1, err2
    assert r1.read_bytes() == r2.read_bytes()


def test_user_prefix_named_like_builtin_is_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": {"kind": "cofinite", "sequence": "powers3",
                   "prefix": [1, 2, 4, 8, 16]},
        "probes": [1, 2, 3],
    }))
    code, out, err = run(["hausdorff", str(cfg)], capsys)
    assert code == 1 and out == "" and "'powers3'" in err
    report = tmp_path / "report.json"
    code, _, _ = run(["hausdorff", str(CONFIGS / "powers3.json"),
                      "--out", str(report)], capsys)
    assert code == 0 and sha256(report) == POWERS3_SHA256


def test_user_prefix_report_rechecks_in_fresh_interpreter(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": {"kind": "cofinite", "sequence": "cli-fresh-seq",
                   "prefix": [1, 4, 16, 64, 256, 1024, 4096]},
        "probes": [2, 3, 5],
        "budgets": {"n_max": 2, "depth": 5, "max_len": 3},
    }))
    report = tmp_path / "report.json"
    code, _, err = run(["hausdorff", str(cfg), "--out", str(report)], capsys)
    assert code in (0, 2, 3), err
    proc = run_fresh(["recheck", str(report)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "  ok     hausdorff:cli-fresh-seq" in proc.stdout


def test_one_name_two_prefixes_in_one_process(tmp_path, capsys):
    """Each config gives the bytes it gives in a process of its own."""
    alone, together = {}, {}
    for tag, prefix in (("a", [1, 4, 16, 64, 256]),
                        ("b", [1, 5, 25, 125, 625])):
        cfg = tmp_path / f"{tag}.json"
        cfg.write_text(json.dumps({
            "family": {"kind": "cofinite", "sequence": "cli-shared-seq",
                       "prefix": prefix},
            "probes": [2, 5],
            "budgets": {"n_max": 1, "depth": 4, "max_len": 2},
        }))
        out = tmp_path / f"{tag}-alone.json"
        proc = run_fresh(["hausdorff", str(cfg), "--out", str(out)])
        assert proc.returncode != 1, proc.stderr
        alone[tag] = (cfg, out.read_bytes())
    for tag, (cfg, _) in alone.items():
        out = tmp_path / f"{tag}-together.json"
        code, _, err = run(["hausdorff", str(cfg), "--out", str(out)], capsys)
        assert code != 1, err
        together[tag] = out.read_bytes()
    assert together == {tag: body for tag, (_, body) in alone.items()}
    assert together["a"] != together["b"]


@pytest.mark.parametrize("doc, key", [
    ({"family": {"kind": "cofinite", "sequence": "powers3"},
      "probes": [1], "window": 8}, "window"),
    ({"family": {"kind": "cofinite", "sequence": "powers3"},
      "probes": [1], "budgets": {"n-max": 50}}, "n-max"),
    ({"sequences": {"cli-stale-seq": {"prefix": [1, 4, 16]}},
      "family": {"kind": "cofinite", "sequence": "cli-stale-seq"},
      "probes": [1]}, "sequences"),
], ids=["top-level", "budgets", "sequences"])
def test_hausdorff_unknown_config_key_exits_1(tmp_path, capsys, doc, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run(["hausdorff", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and repr(key) in err


POWERS3 = {"kind": "cofinite", "sequence": "powers3"}
INTERVAL_CHAIN = {"kind": "chain", "generator": "interval-halving"}
BOXES_CHAIN = {"kind": "chain", "generator": "product-boxes", "coords": 6}


@pytest.mark.parametrize("doc", [
    {"family": POWERS3, "probes": 5},
    {"family": POWERS3, "probes": ["a"]},
    {"family": [], "probes": [1]},
    {"family": POWERS3, "probes": [1.5]},
    {"family": POWERS3, "probes": [True]},
    {"family": POWERS3, "probes": [1], "budgets": {"n_max": 1.5}},
    {"family": {"kind": "cofinite", "sequence": 5}, "probes": [1]},
    {"family": INTERVAL_CHAIN, "probes": [[1]]},
    {"family": INTERVAL_CHAIN, "probes": [True]},
    {"family": INTERVAL_CHAIN, "probes": ["1/0"]},
    {"family": BOXES_CHAIN, "probes": [[0, 1]]},
    {"family": {"kind": "explicit", "members": [
        {"kind": "residue", "modulus": 3, "residues": [1]},
        {"kind": "interval", "epsilon": "1/2"}]}, "probes": [1]},
], ids=["probes-number", "probes-string", "family-list", "probes-float",
        "probes-bool", "budget-float", "sequence-number", "rational-list",
        "rational-bool", "rational-zero-denominator", "box-length",
        "members-in-two-groups"])
def test_hausdorff_malformed_config_value_exits_1(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run(["hausdorff", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("bad config: ") and err.count("\n") == 1


FREE_X = {"kind": "explicit", "members": [{"kind": "finite", "group": {
    "kind": "free", "generators": ["x", "y"]}, "elements": ["x"]}]}


@pytest.mark.parametrize("doc", [
    {"family": FREE_X, "probes": ["x^200001"]},
    {"family": {"kind": "explicit", "members": [{**FREE_X["members"][0],
                                                 "elements": ["x y^-200000"]}]},
     "probes": ["x"]},
], ids=["probe", "member"])
def test_hausdorff_refuses_a_word_past_the_cap(tmp_path, capsys, doc):
    """A free-group word's letters are counted from its powers before any
    is built: one past the cap exits 1 with one line, no traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run(["hausdorff", str(cfg)], capsys)
    assert (code, out, err) == (1, "", "bad config: a word of 200001 "
                                "letters, past the enumeration cap 200000\n")


def test_hausdorff_takes_a_family_with_no_exact_subset_test(tmp_path,
                                                            capsys):
    """A residue class and a tail have no exact subset test, so whether
    the family is directed is not decided and the family is run."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": {"kind": "explicit", "members": [
        {"kind": "residue", "modulus": 3, "residues": [0]},
        {"kind": "tail", "sequence": "powers3", "start": 1}]},
        "probes": [1, 5], "budgets": {"n_max": 2, "depth": 4,
                                      "max_len": 2}}))
    code, out, err = run(["hausdorff", str(cfg)], capsys)
    assert code == 0 and json.loads(out)["status"] == "verified"
    assert "bad config" not in err


@pytest.mark.parametrize("family, named", [
    ({"kind": "cofinite", "sequence": "powers3", "start": 1.5,
      "prefx": [1, 2]}, "'prefx'"),
    ({"kind": "cofinite", "sequence": "powers3", "start": 1.5}, "1.5"),
    ({"kind": "explicit", "members": [
        {"kind": "tail", "sequence": "powers3", "start": 2.7, "bogus": 1}]},
     "'bogus'"),
    ({"kind": "explicit", "members": [
        {"kind": "tail", "sequence": "powers3", "start": 2.7}]}, "2.7"),
    ({"kind": "explicit", "members": [
        {"kind": "residue", "modulus": "9", "residues": [0]}]}, "'9'"),
    ({"kind": "chain", "generator": "product-boxes", "coords": 4.0}, "4.0"),
    ({"kind": "chain", "generator": "sqrt7", "length": 3}, "'length'"),
    ({"kind": "chain", "generator": "sqrt7", "coords": 3}, "'coords'"),
    ({"kind": "explicit", "members": 5}, "'members'"),
    ({"kind": "explicit", "members": [{"kind": "finite", "elements": 3}]},
     "'elements'"),
    ({"kind": "explicit", "members": [
        {"kind": "residue", "modulus": 9, "residues": 0}]}, "'residues'"),
    ({"kind": "explicit", "members": [
        {"kind": "box", "coords": 3, "allowed": 0}]}, "'allowed'"),
    ({"kind": "explicit", "members": [
        {"kind": "tail", "sequence": "powers3", "start": 1, "excluded": 2}]},
     "'excluded'"),
    ({"kind": "explicit", "members": [
        {"kind": "finite", "group": 5, "elements": [1]}]},
     "group must be a JSON object, got 5"),
    ({"kind": "explicit", "members": [
        {"kind": "finite", "group": {"kind": "free", "generators": 5},
         "elements": []}]}, "'generators'"),
    ({"kind": "explicit", "members": [
        {"kind": "finite", "group": {"kind": "cayley", "order": 2,
                                     "table": 5}, "elements": []}]},
     "'table'"),
    ({"kind": "explicit", "members": [
        {"kind": "finite", "group": {"kind": "product", "coords": 3},
         "elements": [5]}]}, "coordinate list expected, got 5"),
    ({"kind": "explicit", "members": [
        {"kind": "finite", "group": {"kind": "product", "coords": 3,
                                     "bogus": 1}, "elements": []}]},
     "'bogus'"),
    ({"kind": "explicit", "members": [
        {"kind": "finite", "elements": [1, 2]},
        {"kind": "finite", "elements": [2, 3]}]},
     "not downward directed: no member lies inside both member 0 and "
     "member 1"),
], ids=["cofinite-key", "cofinite-start-float", "tail-key",
        "tail-start-float", "residue-modulus-string", "chain-coords-float",
        "chain-key", "chain-coords-unused", "members-number",
        "elements-number", "residues-number", "allowed-number",
        "excluded-number", "group-number", "free-generators-number",
        "cayley-table-number", "product-element-number", "group-key",
        "not-directed"])
def test_hausdorff_malformed_family_description_exits_1(tmp_path, capsys,
                                                        family, named):
    """Unknown keys in a family or set description, integer fields that
    are not integers and list fields that are not lists are refused
    instead of ignored, coerced or ending in a traceback.  So is an
    explicit family that is not downward directed ({1, 2} and {2, 3}
    contain no common member), since the criteria do not apply to it."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": family, "probes": [1, 2]}))
    code, out, err = run(["hausdorff", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("bad config: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("config, digest", [
    ("sqrt7.json", SQRT7_SHA256),
    ("powers3.json", POWERS3_SHA256),
], ids=["sqrt7", "powers3"])
def test_shipped_config_report_bytes_pinned(tmp_path, capsys, config, digest):
    """Report bytes of the shipped configs; a deliberate change to the
    report body bumps ``schema`` and refreshes these digests."""
    report = tmp_path / "report.json"
    run(["hausdorff", str(CONFIGS / config), "--out", str(report)], capsys)
    assert sha256(report) == digest


FIBONACCI_CONFIG = {
    "family": {"kind": "cofinite", "sequence": "fibonacci"},
    "probes": [1, 7, 20, -55, 72, 80, 98, -101, 103, 109, 111, 114,
               116, -117, 119, 120],
    "budgets": {"n_max": 3, "depth": 14, "max_len": 5},
}


@pytest.mark.parametrize("argv, digest", [
    (["verify", "sqrt7", "--cover-m0", "2"],
     "6db0332a56bb658abe4e422df607d3bb3f0f6840606fea9ddf63b8c583dca1d8"),
    (["verify", "product"],
     "ec47c27c34dfac51e81a56144bd55c17777dbdeb820a968c51bb4dd12685cb0e"),
], ids=["sqrt7-cover", "product"])
def test_verify_cover_report_bytes_pinned(tmp_path, capsys, argv, digest):
    """Report bytes of the two cover claims, whose folds are suffix folds
    of the chain's stars."""
    report = tmp_path / "report.json"
    code, _, _ = run(argv + ["--out", str(report)], capsys)
    assert code == 0 and sha256(report) == digest


@pytest.mark.parametrize("argv, digest", [
    (["hensel"],
     "0c7fba4ff5c129d3417f87c5033835953a53059ddaa9e66f79d43d52a16b0533"),
    (["hensel", "--p", "999983", "--k", "10"],
     "6752093a5e828f55feebb2aaccd5edc2e3d0514a81c1488d4c62a2877fe81567"),
    (["verify", "fibonacci"],
     "74c4879859420f2b332405de83bd2d427827e32f4fb83c01164f12b20c8f28db"),
    (["verify", "interval"],
     "9fc1fd6de6bb744e6cd2500d31083a8748f0033d9dff63cac5d9e67ccb629a86"),
], ids=["hensel", "hensel-large-p", "fibonacci", "interval"])
def test_hensel_fibonacci_interval_report_bytes_pinned(tmp_path, capsys,
                                                       argv, digest):
    """Report bytes of the hensel table, the Fibonacci word claims and the
    interval claim, whose producers live beside their constructions."""
    report = tmp_path / "report.json"
    code, _, _ = run(argv + ["--out", str(report)], capsys)
    assert code == 0 and sha256(report) == digest


def test_fibonacci_report_bytes_pinned(tmp_path, capsys):
    """Fibonacci tails carry no divisor, so every probe stays unresolved:
    these bytes pin the bounded search's yes witnesses and its exhausted
    unknowns."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FIBONACCI_CONFIG))
    report = tmp_path / "report.json"
    code, _, _ = run(["hausdorff", str(cfg), "--out", str(report)], capsys)
    assert code == 3 and sha256(report) == FIBONACCI_SHA256


def test_hausdorff_past_enumeration_cap_exits_3(tmp_path, capsys):
    """Folds of a 677-element starred set outgrow the enumeration cap:
    the n-fold exclusion and the second separation step are unknown with
    the cap in their proof, instead of a traceback."""
    elements = sorted({3 ** k for k in range(1, 40)} |
                      {5 ** k + 7 for k in range(1, 300)})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": {"kind": "explicit",
                   "members": [{"kind": "finite", "elements": elements}]},
        "probes": [1],
        "budgets": {"n_max": 2, "depth": 1, "max_len": 2},
    }))
    report = tmp_path / "report.json"
    code, _, err = run(["hausdorff", str(cfg), "--out", str(report)], capsys)
    assert code == 3 and "Traceback" not in err
    probe = json.loads(report.read_text())["claims"][0]["payload"]["probes"][0]
    assert probe["cupcap"]["2"]["skipped_unknown"] == 1
    blocked = probe["separation"]["blocked"]
    assert [b["result"]["proof"] for b in blocked] == [
        {"route": "exact-fold", "enumeration_cap": 200_000}]
    code2, out2, _ = run(["recheck", str(report)], capsys)
    assert code2 == 0 and "recheck: ok" in out2


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


@pytest.mark.parametrize("command, what", [("hausdorff", "config"),
                                           ("recheck", "report")])
@pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[" * 100000],
                         ids=["not-utf8", "nested-100000"])
def test_unreadable_input_exits_1_in_one_line(tmp_path, capsys, command,
                                              what, data):
    """Bytes that are not UTF-8, and arrays nested past the parser's
    recursion limit, end in one ``cannot read`` line, not a traceback."""
    path = tmp_path / "input.json"
    path.write_bytes(data)
    code, out, err = run([command, str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"cannot read {what}: ") and \
        err.count("\n") == 1, err


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


@pytest.mark.parametrize("number", ["2.0", "NaN"])
def test_recheck_refuses_a_number_the_writer_never_emits(tmp_path, capsys,
                                                        number):
    """The writer emits integers only, so a float or a JSON constant in a
    report fails the recheck by itself, after the claims' own lines, even
    where the replay takes it as equal (a cupcap ``checked`` of 2.0)."""
    report = tmp_path / "powers3.json"
    run(["hausdorff", str(CONFIGS / "powers3.json"), "--out", str(report)],
        capsys)
    text = report.read_text()
    assert '"checked": 2,' in text
    report.write_text(text.replace('"checked": 2,', f'"checked": {number},',
                                   1))
    code, out, err = run(["recheck", str(report)], capsys)
    assert (code, err) == (2, "")
    assert out.splitlines()[-2:] == [
        f"  FAIL   report: non-integer number {number}", "recheck: FAILED"]
    assert out.count("non-integer") == 1


def test_hausdorff_refuses_undirected_family_with_a_tail(tmp_path, capsys):
    """An infinite tail lies in neither of two finite members, so the
    directedness check decides the family instead of giving up."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": {"kind": "explicit", "members": [
        {"kind": "finite", "elements": [1, 2]},
        {"kind": "finite", "elements": [2, 3]},
        {"kind": "tail", "sequence": "powers3", "start": 1}]},
        "probes": [1, 5], "budgets": {"n_max": 3, "depth": 12,
                                      "max_len": 5}}))
    code, out, err = run(["hausdorff", str(cfg)], capsys)
    assert (code, out) == (1, "")
    assert err == ("bad config: explicit family is not downward directed: "
                   "no member lies inside both member 0 and member 1\n")


def test_recheck_flags_tampered_copy_of_an_intact_claim(tmp_path, capsys):
    """A claim rechecked after an intact copy of itself still fails: the
    replay's shared table keys sets by value, so the tampered member is
    folded afresh."""
    report = tmp_path / "sq.json"
    run(["verify", "sqrt7", "--gmax", "1", "--nmax", "1",
         "--out", str(report)], capsys)
    doc = json.loads(report.read_text())
    tampered = json.loads(json.dumps(doc["claims"][0]))
    tampered["payload"]["member"] = {"kind": "residue", "modulus": 3,
                                     "residues": [0, 1, 2]}
    doc["claims"].append(tampered)
    report.write_text(json.dumps(doc))
    code, out, _ = run(["recheck", str(report)], capsys)
    assert code == 2
    assert out.splitlines()[:2] == [
        "  ok     sqrt7-necessary:g=1:n=1",
        "  FAIL   sqrt7-necessary:g=1:n=1: target re-enters the n-fold set"]


def test_hausdorff_folds_each_distinct_sum_once(tmp_path, capsys,
                                                monkeypatch):
    """One run computes each distinct (member, n) n-fold star and each
    distinct tuple of stars' suffix folds once, for all probes: every
    star S* is added to its k-fold sum once per k the run asks for."""
    from collections import Counter
    from grouptop import setspec
    steps, deepest, folds = Counter(), {}, Counter()
    sumset, suffix_folds = setspec.sumset, setspec.suffix_folds
    n_fold_star = setspec.FoldTable.n_fold_star

    def counted_sumset(a, b):
        if isinstance(b, setspec.StarSet):  # a step A_k + S* of a fold
            steps[b] += 1
        return sumset(a, b)

    def recorded_n_fold_star(table, spec, n):
        starred = setspec.star(spec)
        deepest[starred] = max(deepest.get(starred, 0), n)
        return n_fold_star(table, spec, n)

    def counted_suffix_folds(stars):
        folds[tuple(stars)] += 1
        return suffix_folds(stars)

    monkeypatch.setattr(setspec, "sumset", counted_sumset)
    monkeypatch.setattr(setspec.FoldTable, "n_fold_star",
                        recorded_n_fold_star)
    monkeypatch.setattr(setspec, "suffix_folds", counted_suffix_folds)
    report = tmp_path / "report.json"
    code, _, _ = run(["hausdorff", str(CONFIGS / "sqrt7.json"),
                      "--out", str(report)], capsys)
    assert code == 2 and sha256(report) == SQRT7_SHA256
    assert max(deepest.values()) > 1
    assert steps == Counter({st: n - 1 for st, n in deepest.items()
                             if n > 1})
    assert folds and set(folds.values()) == {1}


def _grouptop_containers() -> dict:
    """Size of every dict, list and set held by a grouptop module or by a
    class that one defines."""
    import importlib
    import pkgutil
    import grouptop
    for info in pkgutil.iter_modules(grouptop.__path__):
        importlib.import_module(f"grouptop.{info.name}")
    sizes = {}
    for name, module in sorted(sys.modules.items()):
        if name != "grouptop" and not name.startswith("grouptop."):
            continue
        owners = [(name, module)] + [
            (f"{name}.{key}", value) for key, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == name]
        for owner_name, owner in owners:
            for key, value in vars(owner).items():
                if not key.startswith("__") and \
                        isinstance(value, (dict, list, set)):
                    sizes[f"{owner_name}.{key}"] = len(value)
    return sizes


def check_commands_leave_no_global_state(workdir: str) -> None:
    """hausdorff, verify sqrt7 and recheck, run in this process, grow no
    module-level container; the only cache is hensel_sqrt's bounded one.
    Meant for a fresh interpreter, where no earlier call can have filled
    a cache with the entries these commands would add."""
    import grouptop
    before = _grouptop_containers()
    assert "grouptop.cli._EXIT_FOR_STATUS" in before
    sqrt7, grid = Path(workdir, "sqrt7.json"), Path(workdir, "grid.json")
    assert main(["hausdorff", str(CONFIGS / "sqrt7.json"),
                 "--out", str(sqrt7)]) == 2
    assert main(["verify", "sqrt7", "--gmax", "6", "--nmax", "4",
                 "--out", str(grid)]) == 0
    for report in (sqrt7, grid):
        assert main(["recheck", str(report)]) == 0
    after = _grouptop_containers()
    assert after == before, {k: (before.get(k), v) for k, v in after.items()
                             if before.get(k) != v}
    caches = {(name, key) for name, module in sys.modules.items()
              if name.startswith("grouptop.")
              for key, value in vars(module).items()
              if hasattr(value, "cache_info")}
    assert caches == {("grouptop.examples", "hensel_sqrt")}, caches
    assert grouptop.examples.hensel_sqrt.cache_info().maxsize == 1024


def test_commands_leave_no_process_global_state(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")] +
        [x for x in [env.get("PYTHONPATH")] if x])
    proc = subprocess.run(
        [sys.executable, "-c", "import test_cli; test_cli."
         f"check_commands_leave_no_global_state({str(tmp_path)!r})"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _hausdorff_report(path, family, probes, **budgets):
    from grouptop import hausdorff_verdict
    from grouptop.report import canonical_json, report_document
    report = hausdorff_verdict(family, probes, **budgets)
    path.write_text(canonical_json(report_document([report])))
    return path


def test_recheck_replays_d4_and_interval_reports(tmp_path, capsys):
    """Reports over nonabelian finite families and over the rationals are
    decoded in their own ambient group, not in the integers."""
    from fractions import Fraction
    from grouptop import ExplicitFamily, FiniteSet, Rationals
    from grouptop import family_from_json
    from grouptop.fixtures import dihedral8
    d4 = dihedral8()
    fam = ExplicitFamily([FiniteSet.of(d4, ["r", "s"]),
                          FiniteSet.of(d4, ["s"])], name="d4")
    d4_report = _hausdorff_report(
        tmp_path / "d4.json", fam,
        [g for g in d4.elements() if not g.is_identity()],
        n_max=2, depth=2, max_len=3)
    outcomes = {p["outcome"] for p in json.loads(d4_report.read_text())
                ["claims"][0]["payload"]["probes"]}
    assert {"separated", "gap"} <= outcomes
    q = Rationals()
    interval_report = _hausdorff_report(
        tmp_path / "interval.json",
        family_from_json({"kind": "chain", "generator": "interval-halving"}),
        [q.element(1), q.element(Fraction(1, 3))],
        n_max=2, depth=6, max_len=3)
    for report, tag in ((d4_report, "d4"),
                        (interval_report, "interval-halving")):
        code, out, _ = run(["recheck", str(report)], capsys)
        assert code == 0, out
        assert f"  ok     hausdorff:{tag}" in out


def _tamper_powers3_step(probe):
    probe["separation"]["steps"][1]["member"]["start"] = 0


def _tamper_powers3_cupcap(probe):
    probe["cupcap"]["2"]["member"]["start"] = 0


def _tamper_powers3_target(probe):
    probe["separation"]["target"] = 2


def _tamper_sqrt7_witness(probe):
    probe["separation"]["blocked"][0]["result"]["witness"] = [-13, 15]


def _tamper_interval_witness(probe):
    probe["separation"]["blocked"][0]["result"]["witness"] = ["2/3", "1/2"]


@pytest.mark.parametrize("source, tamper, message", [
    ("powers3", _tamper_powers3_step, "probe 1: member 2 is not the family's"),
    ("powers3", _tamper_powers3_cupcap,
     "probe 1: member 1 is not the family's"),
    ("powers3", _tamper_powers3_target, "probe 1: the replay gives the entry "
     "at ['separation']['target']: 1, the report 2"),
    ("sqrt7", _tamper_sqrt7_witness, "blocking witness at candidate 2 fails"),
    ("interval", _tamper_interval_witness,
     "blocking witness at candidate 1 fails"),
], ids=["powers3-shallower-step", "powers3-cupcap-member",
        "powers3-target", "sqrt7-blocking-witness", "interval-witness"])
def test_recheck_flags_tampered_separation(tmp_path, capsys, source, tamper,
                                           message):
    """A certificate step replaced by a shallower tail, a wrong cupcap
    member, a moved target and an altered blocking witness all fail."""
    report = tmp_path / "report.json"
    if source == "interval":
        from grouptop import Rationals, family_from_json
        _hausdorff_report(
            report,
            family_from_json({"kind": "chain",
                              "generator": "interval-halving"}),
            [Rationals().element(1)], n_max=1, depth=3, max_len=2)
    else:
        run(["hausdorff", str(CONFIGS / f"{source}.json"),
             "--out", str(report)], capsys)
    doc = json.loads(report.read_text())
    tamper(doc["claims"][0]["payload"]["probes"][0])
    report.write_text(json.dumps(doc))
    code, out, _ = run(["recheck", str(report)], capsys)
    line = out.splitlines()[0]
    assert code == 2 and line.startswith("  FAIL   hausdorff:")
    assert line.endswith(f": {message}")


def _claim_status_verified(doc):
    doc["claims"][0]["status"] = "verified"


def _document_status_verified(doc):
    doc["status"] = "verified"


def _verdict_consistent(doc):
    doc["claims"][0]["payload"]["verdict"] = "consistent-with-hausdorff"


def _outcomes_separated(doc):
    for probe in doc["claims"][0]["payload"]["probes"]:
        probe["outcome"] = "separated"


SQRT7_GAP_VERDICT = ("necessary-condition-holds-but-separation-blocked: "
                     "finest topology not Hausdorff at desk scale")


@pytest.mark.parametrize("tamper, message", [
    (_claim_status_verified, "  FAIL   hausdorff:sqrt7: the replay gives "
     "status 'refuted', the report 'verified'"),
    (_document_status_verified, "  FAIL   document status: the claims give "
     "'refuted', the document 'verified'"),
    (_verdict_consistent, f"  FAIL   hausdorff:sqrt7: the replay gives "
     f"verdict {SQRT7_GAP_VERDICT!r}, the report "
     f"'consistent-with-hausdorff'"),
    (_outcomes_separated, "  FAIL   hausdorff:sqrt7: probe 1: the replay "
     "gives the entry at ['outcome']: 'gap', the report 'separated'"),
], ids=["claim-status", "document-status", "verdict", "outcomes"])
def test_recheck_rederives_hausdorff_conclusions(tmp_path, capsys, tamper,
                                                 message):
    """A sqrt7 report edited to conclude what its payload does not fails:
    recheck derives each probe's outcome, the verdict and the claim's
    status from the replayed payload, and the document's status from the
    claims'."""
    report = tmp_path / "report.json"
    run(["hausdorff", str(CONFIGS / "sqrt7.json"), "--out", str(report)],
        capsys)
    doc = json.loads(report.read_text())
    tamper(doc)
    report.write_text(json.dumps(doc))
    code, out, _ = run(["recheck", str(report)], capsys)
    assert code == 2 and message in out.splitlines(), out


def _cut_certificates(probes):
    for probe in probes:
        if "steps" in probe["separation"]:
            del probe["separation"]["steps"][1:]


def _cupcap_only_n1(probes):
    for probe in probes:
        probe["cupcap"] = {"1": probe["cupcap"]["1"]}


def _step_deeper_tail(probes):
    probes[0]["separation"]["steps"][1]["member"]["start"] += 5


def _cupcap_deeper_tail(probes):
    probes[0]["cupcap"]["2"]["member"]["start"] += 5


def _cut_blocked(probes):
    for probe in probes:
        if "blocked" in probe["separation"]:
            del probe["separation"]["blocked"][1:]


def _step_proof_made_up(probes):
    probes[0]["separation"]["steps"][2]["exclusion"]["proof"] = {
        "route": "made-up", "chain_divisor": 5}


def _cupcap_proof_nonsense(probes):
    probes[0]["cupcap"]["2"]["proof"] = {"route": "nonsense"}


def _cupcap_checked_99(probes):
    probes[0]["cupcap"]["2"]["checked"] = 99


def _prefix_proof_invented(probes):
    probes[0]["separation"]["prefix"][0]["exclusion"]["proof"]["invented"] = \
        True


@pytest.mark.parametrize("source, tamper, message", [
    ("powers3", _cut_certificates, "probe 1: the certificate has 1 steps, "
                                   "max_len 5"),
    ("powers3", _cupcap_only_n1, "probe 1: the replay gives the entry at "
     "['cupcap']['2']: {'found': False, 'n': 2, 'checked': 14}, the report "
     "nothing"),
    ("powers3", _step_deeper_tail, "probe 1: member 2 is not the family's"),
    ("powers3", _cupcap_deeper_tail, "probe 1: member 1 is not the "
                                     "family's"),
    ("sqrt7", _cut_blocked, "probe 1: the blocked candidates are not "
                            "2..11"),
    ("powers3", _step_proof_made_up, "probe 1: the replay gives the entry at "
     "['separation']['steps'][2]['exclusion']['proof']['route']: 'divisor', "
     "the report 'made-up'"),
    ("powers3", _cupcap_proof_nonsense, "probe 1: the replay gives the entry "
     "at ['cupcap']['2']['proof']['route']: 'divisor', the report "
     "'nonsense'"),
    ("powers3", _cupcap_checked_99, "probe 1: the replay gives the entry at "
     "['cupcap']['2']['checked']: 2, the report 99"),
    ("sqrt7", _prefix_proof_invented, "probe 1: the replay gives the entry at "
     "['separation']['prefix'][0]['exclusion']['proof']['invented']: "
     "nothing, the report True"),
], ids=["powers3-certificates-cut", "powers3-cupcap-only-n1",
        "powers3-step-deeper-tail", "powers3-cupcap-deeper-tail",
        "sqrt7-blocked-cut", "powers3-step-proof-made-up",
        "powers3-cupcap-proof-nonsense", "powers3-cupcap-checked-99",
        "sqrt7-prefix-proof-invented"])
def test_recheck_holds_hausdorff_payload_to_the_producers_scan(
        tmp_path, capsys, source, tamper, message):
    """Edits that every replayed exclusion and witness survives still
    fail: the payload must have the shape the producer's scan gives under
    the claim's own budgets and family, and each replayed exclusion must
    carry the recorded proof."""
    report = tmp_path / "report.json"
    run(["hausdorff", str(CONFIGS / f"{source}.json"), "--out",
         str(report)], capsys)
    doc = json.loads(report.read_text())
    tamper(doc["claims"][0]["payload"]["probes"])
    report.write_text(json.dumps(doc))
    code, out, _ = run(["recheck", str(report)], capsys)
    assert code == 2 and out.splitlines()[0] == \
        f"  FAIL   {doc['claims'][0]['claim']}: {message}", out


@pytest.mark.parametrize("field, probe", [("n", 1), ("checked", 2)])
def test_recheck_holds_each_cupcap_map_to_its_json_type(tmp_path, capsys,
                                                        field, probe):
    """The first ``"n": 1`` or ``"checked": 1`` of a powers3 report turned
    into ``true`` fails, though ``==`` takes True for 1."""
    report = tmp_path / "report.json"
    run(["hausdorff", str(CONFIGS / "powers3.json"), "--out", str(report)],
        capsys)
    text = report.read_text()
    report.write_text(text.replace(f'"{field}": 1,', f'"{field}": true,', 1))
    code, out, _ = run(["recheck", str(report)], capsys)
    assert code == 2 and out.splitlines()[0] == (
        f"  FAIL   hausdorff:powers3: probe {probe}: the replay gives the "
        f"entry at ['cupcap']['1']['{field}']: 1, the report True"), out


def test_recheck_takes_each_star_and_decodes_each_member_once(
        tmp_path, capsys, monkeypatch):
    """Rechecking the shipped sqrt7 report materializes each distinct
    member's star once and decodes no member description: every member is
    the family's own at its recorded index, although its probes record the
    same members again and again."""
    from collections import Counter
    from grouptop import filters, setspec
    report = tmp_path / "report.json"
    run(["hausdorff", str(CONFIGS / "sqrt7.json"), "--out", str(report)],
        capsys)
    stars, decodes = Counter(), Counter()
    star, spec_from_json = setspec.star, filters.spec_from_json

    def counted_star(spec):
        if not isinstance(spec, setspec.StarSet):
            stars[spec] += 1
        return star(spec)

    def counted_decode(doc, *args):
        decodes[json.dumps(doc, sort_keys=True)] += 1
        return spec_from_json(doc, *args)

    monkeypatch.setattr(setspec, "star", counted_star)
    monkeypatch.setattr(filters, "spec_from_json", counted_decode)
    code, out, _ = run(["recheck", str(report)], capsys)
    assert code == 0 and out.endswith("recheck: ok\n"), out
    assert stars and max(stars.values()) == 1, stars
    assert not decodes, decodes


def _blocked_member_moved_up(probes):
    # the probe before records member 4 untouched as a blocked candidate
    blocked = probes[1]["separation"]["blocked"]
    assert blocked[0]["candidate_index"] == 4
    blocked[0]["member"] = json.loads(json.dumps(blocked[1]["member"]))


def _repeated_prefix_member_residue(probes):
    # the probe before records member 1 untouched as its prefix step
    probes[1]["separation"]["prefix"][0]["member"]["residues"][1] += 1


def _repeated_blocked_modulus_float(probes):
    member = probes[1]["separation"]["blocked"][0]["member"]
    member["modulus"] = float(member["modulus"])


def _repeated_prefix_residue_false(probes):
    probes[1]["separation"]["prefix"][0]["member"]["residues"][0] = False


@pytest.mark.parametrize("tamper, message", [
    (_blocked_member_moved_up, "probe 2: member 4 is not the family's"),
    (_repeated_prefix_member_residue,
     "probe 2: member 1 is not the family's"),
    (_repeated_blocked_modulus_float, "probe 2: member 4 is not the family's"),
    (_repeated_prefix_residue_false, "probe 2: member 1 is not the family's"),
], ids=["blocked-member-moved-up", "prefix-member-residue",
        "modulus-float", "residue-false"])
def test_recheck_decodes_every_edited_member_record(tmp_path, capsys,
                                                    tamper, message):
    """A member record edited after an earlier probe recorded the same
    member untouched is held to the family's own member afresh and fails
    as on its own: by value, or by type where an integer is replaced by an
    equal float or bool."""
    report = tmp_path / "report.json"
    run(["hausdorff", str(CONFIGS / "sqrt7.json"), "--out", str(report)],
        capsys)
    doc = json.loads(report.read_text())
    tamper(doc["claims"][0]["payload"]["probes"])
    report.write_text(json.dumps(doc))
    code, out, _ = run(["recheck", str(report)], capsys)
    assert code == 2 and out.splitlines()[0] == \
        f"  FAIL   {doc['claims'][0]['claim']}: {message}", out


@pytest.mark.parametrize("config", ["sqrt7", "powers3", "fibonacci"])
def test_recheck_accepts_untouched_hausdorff_reports(tmp_path, capsys,
                                                     config):
    cfg = CONFIGS / f"{config}.json"
    if config == "fibonacci":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FIBONACCI_CONFIG))
    report = tmp_path / "report.json"
    run(["hausdorff", str(cfg), "--out", str(report)], capsys)
    code, out, _ = run(["recheck", str(report)], capsys)
    assert code == 0 and out.endswith("recheck: ok\n"), out
    assert "FAIL" not in out and "skip" not in out


def _flip_claim_and_document(claim, doc):
    claim["status"] = doc["status"] = "refuted"


def _cover_flag_off(claim, doc):
    claim["payload"]["sum_covers_group"] = False


def _cover_flag_off_fold_cut(claim, doc):
    claim["payload"]["sum_covers_group"] = False
    claim["payload"]["fold"]["allowed"][1] = [0]


REFUTED_BY_REPLAY = ("the replay gives status 'verified', the report "
                     "'refuted'")


@pytest.mark.parametrize("argv, kind, tamper, message", [
    (["hausdorff", str(CONFIGS / "powers3.json")], "hausdorff",
     _flip_claim_and_document, REFUTED_BY_REPLAY),
    (["hensel"], "hensel", _flip_claim_and_document, REFUTED_BY_REPLAY),
    (["verify", "sqrt7", "--gmax", "2", "--nmax", "1"], "sqrt7-necessary",
     _flip_claim_and_document, REFUTED_BY_REPLAY),
    (["verify", "sqrt7", "--gmax", "1", "--nmax", "1", "--cover-m0", "1"],
     "sqrt7-cover", _flip_claim_and_document, REFUTED_BY_REPLAY),
    (["verify", "product", "--samples", "2"], "product-cover",
     _flip_claim_and_document, REFUTED_BY_REPLAY),
    (["verify", "interval", "--min-exp", "2"], "interval-no-extension",
     _flip_claim_and_document, REFUTED_BY_REPLAY),
    (["verify", "fibonacci", "--n", "3"], "fibonacci-commutator",
     _flip_claim_and_document, REFUTED_BY_REPLAY),
    (["verify", "product", "--samples", "0"], "product-cover",
     _cover_flag_off, "the replay gives sum_covers_group True, the report "
                      "False"),
    (["verify", "product", "--samples", "0"], "product-cover",
     _cover_flag_off_fold_cut, "the replay gives fold {'kind': 'box', "
                               "'coords': 6, 'allowed': [[0], [0, 1]]}, the "
                               "report {'allowed': [[0], [0]], 'coords': 6, "
                               "'kind': 'box'}"),
], ids=["hausdorff", "hensel", "sqrt7-necessary", "sqrt7-cover",
        "product-cover",
        "interval", "fibonacci-commutator", "cover-flag-off",
        "cover-flag-off-fold-cut"])
def test_recheck_derives_each_replayed_claim_status(tmp_path, capsys, argv,
                                                    kind, tamper, message):
    """Every replayed kind derives its status by its producer's rule: a
    claim flipped to refuted with its document fails, and so does a cover
    claim whose flag disagrees with the re-run, or whose fold was cut: the
    fold, listed before the flag, is the first key to differ."""
    report = tmp_path / "report.json"
    assert run(argv + ["--out", str(report)], capsys)[0] == 0
    doc = json.loads(report.read_text())
    claim = next(c for c in doc["claims"]
                 if c["claim"].partition(":")[0] == kind)
    tamper(claim, doc)
    report.write_text(json.dumps(doc))
    code, out, _ = run(["recheck", str(report)], capsys)
    assert code == 2 and f"  FAIL   {claim['claim']}: {message}" in \
        out.splitlines(), out


def test_recheck_replays_cover_claims_without_samples(tmp_path, capsys):
    """A cover claim with no samples still re-runs its fold, flag and
    status, and the product-union-small claims re-run too."""
    report = tmp_path / "report.json"
    run(["verify", "product", "--samples", "0", "--out", str(report)], capsys)
    code, out, _ = run(["recheck", str(report)], capsys)
    assert code == 0 and out.splitlines() == [
        "  ok     product-cover:N=6:m0=2",
        "  ok     product-cover:N=6:m0=3",
        "  ok     product-union-small:N=6:n=1",
        "  ok     product-union-small:N=6:n=2",
        "recheck: ok"]


def test_recheck_replays_fibonacci_words(tmp_path, capsys):
    """The words claim replays through its capped producer: an untouched
    report rechecks, edited lengths fail, and an id past the cap fails
    without building its words."""
    report = tmp_path / "report.json"
    run(["verify", "fibonacci", "--n", "5", "--out", str(report)], capsys)
    code, out, _ = run(["recheck", str(report)], capsys)
    assert code == 0 and "  ok     fibonacci-words:n<=5" in out.splitlines()
    doc = json.loads(report.read_text())
    words = next(c for c in doc["claims"]
                 if c["claim"] == "fibonacci-words:n<=5")
    words["payload"]["lengths"][-1] = 13
    report.write_text(json.dumps(doc))
    code, out, _ = run(["recheck", str(report)], capsys)
    assert code == 2 and "  FAIL   fibonacci-words:n<=5: the replay gives " \
        "lengths [1, 1, 2, 3, 5, 8], the report [1, 1, 2, 3, 5, 13]" in \
        out.splitlines(), out
    words["claim"] = "fibonacci-words:n<=60"
    report.write_text(json.dumps(doc))
    code, out, _ = run(["recheck", str(report)], capsys)
    assert code == 2 and "  FAIL   fibonacci-words:n<=60: error: the " \
        "fibonacci words up to n=60 run to at least 317811 letters, past " \
        "the enumeration cap 200000" in out.splitlines(), out


def _recheck_tampered(tmp_path, capsys, argv, kind, tamper):
    """Emit ``argv``'s report, tamper with its first claim whose id starts
    with ``kind`` and recheck it: (exit code, output lines, the tampered
    claim's id)."""
    report = tmp_path / "report.json"
    assert run(argv + ["--out", str(report)], capsys)[0] == 0
    doc = json.loads(report.read_text())
    claim = next(c for c in doc["claims"] if c["claim"].startswith(kind))
    tamper(claim)
    report.write_text(json.dumps(doc))
    code, out, _ = run(["recheck", str(report)], capsys)
    return code, out.splitlines(), claim["claim"]


def _set(path, value):
    """A tamper that sets the payload value at ``path``, a list of keys."""
    def tamper(claim):
        *parents, last = path
        node = claim["payload"]
        for key in parents:
            node = node[key]
        node[last] = value
    return tamper


def _rename(cid):
    def tamper(claim):
        claim["claim"] = cid
    return tamper


def _words_x(claim):
    claim["payload"].update(lhs="x", rhs="x", expected="x")


@pytest.mark.parametrize("argv, kind, tamper, message", [
    (["hensel"], "hensel", _rename("hensel:p=3:a=7:k=99"),
     "the replay gives levels at [3]: {'k': 4, 'modulus': 81, 'root': 13}, "
     "the report nothing"),
    (["verify", "fibonacci", "--n", "2"], "fibonacci-commutator:n=2",
     _words_x, "the replay gives expected 'x y x^-1 y^-1', the report 'x'"),
    (["verify", "sqrt7", "--gmax", "1", "--nmax", "1", "--cover-m0", "1",
      "--cover-gmax", "1"], "sqrt7-cover",
     _set(["fold"], {"kind": "residue", "modulus": 1, "residues": [0]}),
     "the replay gives fold {'kind': 'residue', 'modulus': 3, 'residues': "
     "[0, 1, 2]}, the report {'kind': 'residue', 'modulus': 1, "
     "'residues': [0]}"),
    (["verify", "product", "--m0", "2", "--samples", "0"], "product-cover",
     _set(["fold", "allowed"], []),
     "the replay gives fold {'kind': 'box', 'coords': 6, 'allowed': [[0], "
     "[0, 1]]}, the report {'allowed': [], 'coords': 6, 'kind': 'box'}"),
    (["verify", "interval", "--min-exp", "3"], "interval-no-extension",
     _set(["schedule", 3, "epsilon"], "1/4"), "the replay gives schedule "),
    (["verify", "product", "--union-n", "1", "--samples", "0"],
     "product-union-small", _set(["matches"], False),
     "the replay gives matches True, the report False"),
    (["verify", "product", "--union-n", "1", "--samples", "0"],
     "product-union-small", _set(["intersection", "allowed", 3], [0, 1, 2, 3]),
     "the replay gives intersection "),
    (["verify", "product", "--m0", "2", "--samples", "1"], "product-cover",
     _set(["witnesses", 0, "target"], [0, 1, 2, 3, 4, 11]),
     "error: coordinate 6 lies in 0..5, got 11"),
    (["verify", "sqrt7", "--gmax", "1", "--nmax", "1"], "sqrt7-necessary",
     _set(["excluded"], 1), "the replay gives excluded True, the report 1"),
    (["verify", "sqrt7", "--gmax", "1", "--nmax", "2"],
     "sqrt7-necessary:g=1:n=2", _set(["extra"], 1),
     "the replay gives payload keys ['bound_level_also_excludes', "
     "'divisibility_targets', 'excluded', 'k', 'k_bound', 'member', "
     "'n_fold'], the report ['bound_level_also_excludes', "
     "'divisibility_targets', 'excluded', 'extra', 'k', 'k_bound', "
     "'member', 'n_fold']"),
    (["verify", "fibonacci", "--n", "1"], "fibonacci-words",
     lambda claim: claim["budgets"].update(n=True),
     "the replay gives budgets {'n': 1}, the report {'n': True}"),
    (["verify", "fibonacci", "--n", "1"], "fibonacci-words",
     _rename("fibonacci-words:n<=01"),
     "the replay gives claim 'fibonacci-words:n<=1', the report "
     "'fibonacci-words:n<=01'"),
    (["verify", "sqrt7", "--gmax", "1", "--nmax", "1"], "sqrt7-necessary",
     lambda claim: claim["budgets"].update(n=7),
     "the replay gives budgets {'n': 1}, the report {'n': 7}"),
    (["verify", "sqrt7", "--gmax", "1", "--nmax", "1"], "sqrt7-necessary",
     _rename("sqrt7-necessary:g=01:n=1"),
     "the replay gives claim 'sqrt7-necessary:g=1:n=1', the report "
     "'sqrt7-necessary:g=01:n=1'"),
    (["verify", "sqrt7", "--gmax", "1", "--nmax", "1"], "sqrt7-necessary",
     lambda claim: claim.update(note=""),
     "the replay gives claim keys ['budgets', 'claim', 'payload', "
     "'status'], the report ['budgets', 'claim', 'note', 'payload', "
     "'status']"),
], ids=["hensel-k-99", "commutator-words-x", "sqrt7-cover-fold-z",
        "product-cover-fold-box", "interval-epsilon-raised",
        "union-small-matches", "union-small-intersection",
        "product-target-unreduced", "excluded-1", "sqrt7-extra-key",
        "budgets-n-true",
        "id-leading-zero", "sqrt7-budgets-n-7", "sqrt7-id-g-01",
        "sqrt7-claim-key-note"])
def test_recheck_fails_forged_facts(tmp_path, capsys, argv, kind, tamper,
                                    message):
    """Each kind whose id names its inputs re-runs its producer, so a
    forged fact fails even where its rule would still hold on it: a hensel
    id naming more levels than its table, commutator words that agree
    with one another, a cover fold swapped for the whole group, an
    interval schedule with a raised epsilon, an edited union claim.  Facts
    compare by JSON type as well as value, targets are read strictly, a
    re-run must give the claim's own id and budgets, and a payload key
    the producer never writes fails.  The sqrt7-necessary replay, which
    applies the producer's rule, rebuilds its id and budgets from the
    id's g and n, and every claim's keys are compared with the
    replay's."""
    code, lines, cid = _recheck_tampered(tmp_path, capsys, argv, kind,
                                         tamper)
    fail = f"  FAIL   {cid}: {message}"
    assert code == 2 and any(line.startswith(fail) for line in lines), lines


@pytest.mark.parametrize("cid, message", [
    ("hensel:p=3:a=7:k=1000000000",
     "error: the hensel table to k=1000000000 writes about "
     "1000000000000000000 bits, past the enumeration cap 200000"),
    ("interval-no-extension:min_eps=2^-1000000",
     "error: the schedule to 2^-1000000 writes about 1000002000001 bits, "
     "past the enumeration cap 200000"),
    ("product-union-small:N=1000000:n=2",
     "error: product-union-small at N=1000000, n=2 folds up to "
     "1000001000000 residues, past the enumeration cap 200000"),
    ("fibonacci-commutator:n=60",
     "error: the fibonacci words up to n=61 run to at least 317811 letters, "
     "past the enumeration cap 200000"),
    ("sqrt7-cover:m0=1000000000:ms=1",
     "error: the sqrt7 cover at m0=1000000000 folds more than "
     "3^2000000000 residues, past the enumeration cap 200000"),
    ("product-cover:N=1000000:m0=1000000",
     "error: the product cover at m0=1000000 folds up to "
     "500001000000500000 residues, past the enumeration cap 200000"),
], ids=["hensel", "interval", "product-union-small", "fibonacci-commutator",
        "sqrt7-cover", "product-cover"])
def test_recheck_refuses_crafted_ids_at_once(tmp_path, capsys, cid, message):
    """An id naming a huge input fails in one line, refused by the
    producer's cap before anything is built."""
    argv = {"hensel": ["hensel"],
            "interval-no-extension": ["verify", "interval"],
            "product-union-small": ["verify", "product", "--samples", "1"],
            "fibonacci-commutator": ["verify", "fibonacci", "--n", "2"],
            "sqrt7-cover": ["verify", "sqrt7", "--gmax", "1", "--nmax", "1",
                            "--cover-m0", "1", "--cover-gmax", "1"],
            "product-cover": ["verify", "product", "--samples", "1"],
            }[cid.partition(":")[0]]
    report = tmp_path / "report.json"
    assert run(argv + ["--out", str(report)], capsys)[0] == 0
    doc = json.loads(report.read_text())
    claim = next(c for c in doc["claims"]
                 if c["claim"].partition(":")[0] == cid.partition(":")[0])
    doc["claims"] = [dict(claim, claim=cid)]
    report.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    code, out, _ = run(["recheck", str(report)], capsys)
    elapsed = time.perf_counter() - t0
    assert code == 2 and out.splitlines() == [
        f"  FAIL   {cid}: {message}", "recheck: FAILED"], out
    assert elapsed < 1.0, elapsed


def _subcommands(parser):
    import argparse
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def test_every_default_report_rechecks_without_skips(tmp_path, capsys):
    """Each verify example's default report, and hensel's, rechecks
    ``ok``: every kind they emit has a replayer.  Only the three
    noncommutative kinds may print skip, and none of them is emitted
    here."""
    from grouptop.cli import build_parser
    verify = _subcommands(build_parser())["verify"]
    examples = next(action.choices for action in verify._actions
                    if action.dest == "example")
    assert sorted(examples) == ["fibonacci", "interval", "product", "sqrt7"]
    kinds = set()
    for argv in [["verify", example] for example in examples] + [["hensel"]]:
        report = tmp_path / f"{argv[-1]}.json"
        assert run(argv + ["--out", str(report)], capsys)[0] == 0, argv
        code, out, _ = run(["recheck", str(report)], capsys)
        skipped = {line.split()[1].partition(":")[0]
                   for line in out.splitlines() if line.startswith("  skip")}
        assert code == 0 and "FAIL" not in out, out
        assert skipped <= {"uu-product", "u-inverse-closure",
                           "u-translation"}, skipped
        kinds |= {c["claim"].partition(":")[0]
                  for c in json.loads(report.read_text())["claims"]}
    assert kinds == {"sqrt7-necessary", "product-cover",
                     "product-union-small", "interval-no-extension",
                     "fibonacci-words", "fibonacci-commutator", "hensel"}


@pytest.mark.parametrize("argv", [
    ["verify", "fibonacci", "--n", "27"],
    ["verify", "sqrt7", "--cover-m0", "6"],
    ["verify", "sqrt7", "--cover-m0", "1000000000"],
    ["verify", "product", "--coords", "1000"],
], ids=["fibonacci-n-27", "sqrt7-cover-m0-6", "sqrt7-cover-m0-10^9",
        "product-coords-1000"])
def test_verify_past_enumeration_cap_exits_1(tmp_path, capsys, argv):
    """Words of length F(28), cover folds of 730 * 3^6 residues (or more
    than 3^(2 * 10^9), refused before that power is taken) and the union
    claims' folds over 1,000 coordinates pass the enumeration cap: one
    line, no traceback, no report."""
    report = tmp_path / "report.json"
    code, out, err = run(argv + ["--out", str(report)], capsys)
    assert code == 1 and out == "" and err.count("\n") == 1, err
    assert "enumeration cap" in err and not report.exists()


@pytest.mark.parametrize("argv, message", [
    (["verify", "sqrt7", "--gmax", "1000000", "--nmax", "20"],
     "verify: the sqrt7 grid holds 20000000 claims, past the enumeration "
     "cap 200000"),
    (["verify", "interval", "--min-exp", "100000"],
     "verify: the schedule to 2^-100000 writes about 10000200001 bits, past "
     "the enumeration cap 200000"),
    (["hensel", "--k", "100000"], "hensel: the hensel table to k=100000 "
     "writes about 10000000000 bits, past the enumeration cap 200000"),
], ids=["verify-sqrt7-grid", "verify-interval", "hensel"])
def test_oversized_grid_and_tables_exit_1_at_once(tmp_path, capsys, argv,
                                                  message):
    """A sqrt7 grid of 2 * 10^7 claims, an interval schedule of 10^5 rows
    and a Hensel table of 10^5 levels are refused from their arguments
    before anything is built: one line, no report, within a second."""
    report = tmp_path / "report.json"
    t0 = time.perf_counter()
    code, out, err = run(argv + ["--out", str(report)], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == "" and err == message + "\n", err
    assert not report.exists()


def test_cover_m0_refuses_before_building_followers(tmp_path, capsys):
    """The cover's cap is checked from m0 alone: ``--cover-m0 15`` exits 1
    with one line before 3^15 follower levels (115 MB as a list) exist."""
    import tracemalloc
    report = tmp_path / "report.json"
    tracemalloc.start()
    try:
        code, out, err = run(["verify", "sqrt7", "--gmax", "1", "--nmax", "1",
                              "--cover-m0", "15", "--out", str(report)],
                             capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == "" and err.count("\n") == 1, err
    assert "enumeration cap" in err and not report.exists()
    assert peak < 10 * 2 ** 20, peak


@pytest.mark.parametrize("argv, message", [
    (["verify", "sqrt7", "--gmax", "1", "--nmax", "1", "--cover-m0", "1",
      "--cover-gmax", "3"], "the sqrt7 cover at m0=1 writes 7 witnesses of "
     "4 summand values each, past the enumeration cap 20"),
    (["verify", "product", "--m0", "2", "--union-n", "1", "--samples", "3"],
     "the product cover at m0=2 writes 3 witnesses of 18 summand values "
     "each, past the enumeration cap 20"),
    (["verify", "product", "--m0", "2", "--union-n", "1", "--samples", "4"],
     "4 samples of 6 coordinates, past the enumeration cap 20"),
], ids=["sqrt7-cover-samples", "product-cover-samples", "product-samples"])
def test_cover_samples_refuse_before_witnesses_are_built(
        tmp_path, capsys, monkeypatch, argv, message):
    """The cover witnesses are capped before any is built: the sqrt7
    cover's 2G + 1 samples of 3^m0 + 1 summands each, the product cover's
    samples of m0 + 1 summands of N coordinates each, and the product
    samples themselves (refused before they are drawn).  A run past the
    cap exits 1 with one line and no report; a lowered cap stands in for
    ``--cover-m0 5 --cover-gmax 1000``, which ran 23 s at 790 MB before
    the cap."""
    from grouptop import groups
    monkeypatch.setattr(groups, "_ENUMERATION_CAP", 20)
    report = tmp_path / "report.json"
    code, out, err = run(argv + ["--out", str(report)], capsys)
    assert (code, out, err) == (1, "", f"verify: {message}\n")
    assert not report.exists()


@pytest.mark.parametrize("argv, message", [
    (["verify", "sqrt7", "--gmax", "1", "--nmax", "1", "--cover-m0", "1",
      "--cover-gmax", "3"], "  FAIL   sqrt7-cover:m0=1:ms=1,1,1: error: the "
     "sqrt7 cover at m0=1 writes 7 witnesses of 4 summand values each, past "
     "the enumeration cap 20"),
    (["verify", "product", "--m0", "2", "--union-n", "1", "--samples", "3"],
     "  FAIL   product-cover:N=6:m0=2: error: the product cover at m0=2 "
     "writes 3 witnesses of 18 summand values each, past the enumeration "
     "cap 20"),
], ids=["sqrt7-cover", "product-cover"])
def test_recheck_refuses_cover_witnesses_past_the_cap(tmp_path, capsys,
                                                      monkeypatch, argv,
                                                      message):
    """A cover claim re-runs its producer on the witnesses' targets, so a
    report with more witnesses than the cap allows fails on one line
    before any is rebuilt (a lowered cap stands in for a crafted report)."""
    from grouptop import groups
    report = tmp_path / "report.json"
    assert run(argv + ["--out", str(report)], capsys)[0] == 0
    monkeypatch.setattr(groups, "_ENUMERATION_CAP", 20)
    code, out, _ = run(["recheck", str(report)], capsys)
    assert code == 2 and message in out.splitlines(), out


def test_recheck_fail_line_names_the_first_differing_path(tmp_path, capsys):
    """One summand moved between two slots of one sqrt7 cover witness: the
    replay's witnesses differ from the report's only there, and the FAIL
    line names that path and its two values instead of printing both
    lists (97,453 characters at m0 = 2)."""
    def resplit(claim):
        summands = claim["payload"]["witnesses"][3]["summands"]
        summands[0] -= 9
        summands[1] += 9

    code, lines, cid = _recheck_tampered(
        tmp_path, capsys, ["verify", "sqrt7", "--gmax", "1", "--nmax", "1",
                           "--cover-m0", "2"], "sqrt7-cover", resplit)
    fail = [line for line in lines if line.startswith("  FAIL")]
    assert code == 2 and len(fail) == 1, lines
    assert fail[0].startswith(f"  FAIL   {cid}: the replay gives witnesses "
                              f"at [3]['summands'][0]: "), fail
    assert len(fail[0]) < 300, len(fail[0])


@pytest.mark.parametrize("argv", [
    ["hensel", "--k", "abc"],
    ["verify", "sqrt7", "--bogus"],
    ["verify", "interval", "--gmax", "3"],
    ["verify", "interval", "--coords", "3"],
    ["verify", "fibonacci", "--seed", "4"],
], ids=["hensel-k-abc", "verify-bogus-option", "interval-gmax",
        "interval-coords", "fibonacci-seed"])
def test_usage_error_exits_1(capsys, argv):
    """Exit 2 means some claim refuted, so a usage error exits 1 with
    argparse's one-line message, in-process and from the shell."""
    code, out, err = run(argv, capsys)
    assert code == 1 and out == "" and err.count("\n") == 1, err
    assert err.startswith("grouptop") and ": error: " in err
    proc = run_fresh(argv)
    assert proc.returncode == 1 and proc.stderr == err


def test_verify_example_help_lists_its_own_options(capsys):
    """Each example parses its own options, so its help lists only them."""
    code, out, _ = run(["verify", "interval", "--help"], capsys)
    assert code == 0 and out.startswith("usage: grouptop verify interval")
    assert "--min-exp" in out and "--out" in out and "--gmax" not in out


@pytest.mark.parametrize("argv", [
    ["verify", "product", "--m0", "0"],
    ["verify", "product", "--union-n", "0"],
    ["verify", "product", "--coords", "3", "--m0", "5"],
    ["verify", "sqrt7", "--cover-m0", "-1"],
    ["verify", "interval", "--min-exp", "-1"],
    ["verify", "sqrt7", "--cover-gmax", "3"],
], ids=["m0-0", "union-n-0", "m0-past-coords", "cover-m0-negative",
        "min-exp-negative", "cover-gmax-without-cover-m0"])
def test_verify_bad_value_exits_1(tmp_path, capsys, argv):
    """A value outside an option's range exits 1 with one line, no
    traceback and no report."""
    report = tmp_path / "report.json"
    code, out, err = run(argv + ["--out", str(report)], capsys)
    assert code == 1 and out == "" and err.count("\n") == 1, err
    assert "Traceback" not in err and not report.exists()



def _box(*allowed):
    return {"kind": "box", "coords": 6, "allowed": [list(a) for a in allowed]}


def _explicit_boxes_config():
    full = ([0], [0, 1], [0, 1, 2], [0, 1, 3], [0, 1, 4], [0, 1, 5])
    return {
        "family": {"kind": "explicit", "name": "hexad", "members": [
            _box([0], [0, 1], [0], [0], [0, 1, 4], [0, 1, 5]),
            _box([0], [0, 1], [0, 1, 2], [0], [0, 1, 4], [0, 1, 5]),
            _box(*full), _box(*full), _box(*full)]},
        "probes": [[0, 0, 0, 0, 0, 3], [0, 1, 1, 2, 2, 3],
                   [0, 0, 0, 2, 2, 3], [0, 1, 0, 0, 3, 2]],
        "budgets": {"n_max": 2, "depth": 5, "max_len": 5},
    }


def _d4_config():
    from grouptop import ExplicitFamily, FiniteSet
    from grouptop.fixtures import dihedral8
    d4 = dihedral8()
    family = ExplicitFamily([FiniteSet.of(d4, ["r", "s"]),
                             FiniteSet.of(d4, ["s", "rs"]),
                             FiniteSet.of(d4, ["s"])], name="d4-triple")
    return {"family": family.describe(), "probes": list(d4.names[1:]),
            "budgets": {"n_max": 2, "depth": 3, "max_len": 3}}


@pytest.mark.parametrize("config, digest", [
    (lambda: {"family": INTERVAL_CHAIN,
              "probes": ["1/3", "-5/7", "3/2", "1/10", "-2/9", "11/12"],
              "budgets": {"n_max": 3, "depth": 6, "max_len": 5}},
     "287acb10016da82073a54987f7f54e6338707e65a3c4c7c94bb0b6f69482ddbe"),
    (lambda: {"family": BOXES_CHAIN,
              "probes": [[0, 1, 0, 0, 0, 0], [0, 1, 2, 3, 4, 5],
                         [0, 0, 1, 2, 0, 3], [0, 1, 1, 1, 1, 1],
                         [0, 0, 0, 0, 2, 0], [0, 1, 2, 0, 3, 2]],
              "budgets": {"n_max": 3, "depth": 12, "max_len": 5}},
     "e19fd106827e9edfcb2297c57da42c3157acfd20611500b18672553f98a4b92d"),
    (_explicit_boxes_config,
     "f5d13a9abcebe43a7170c4f6b7c6dcdee5a61385a50136cc1dc85b07184b821c"),
    (_d4_config,
     "bdc0ded7f2a7d741c3e6ed74a3abce6a6e78e68ce52955a0202aeba5b62d85af"),
], ids=["interval-halving", "product-boxes-6", "explicit-boxes", "d4"])
def test_witness_report_bytes_pinned_outside_the_integers(tmp_path, capsys,
                                                          config, digest):
    """Stuck probes list the witness that blocked each candidate, so these
    bytes pin the exact folds' witnesses: an interval's share of the
    remainder, a box's smallest digit per coordinate, and a finite set's
    first element over D4.  The probes are read in the family's group;
    the digests are those of ``hausdorff_verdict`` called in-process."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config()))
    report = tmp_path / "report.json"
    code, _, err = run(["hausdorff", str(cfg), "--out", str(report)], capsys)
    assert code == 3 and sha256(report) == digest, err
    code, out, _ = run(["recheck", str(report)], capsys)
    assert code == 0 and out.endswith("recheck: ok\n"), out


def test_hausdorff_reads_probes_in_the_family_group(tmp_path, capsys):
    """An integer probe of a rational chain is the rational 1/1, not an
    integer the chain's sets cannot be added to."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": INTERVAL_CHAIN, "probes": [1],
                               "budgets": {"n_max": 1, "depth": 3,
                                           "max_len": 2}}))
    report = tmp_path / "report.json"
    code, _, err = run(["hausdorff", str(cfg), "--out", str(report)], capsys)
    assert code != 1 and "Traceback" not in err, err
    probes = json.loads(report.read_text())["claims"][0]["payload"]["probes"]
    assert [p["probe"] for p in probes] == ["1/1"]


def test_recheck_dispatches_on_the_exact_claim_kind(tmp_path, capsys):
    """A claim's kind is its id up to the first ":": a hausdorff claim on
    a family named like another kind's id replays as a hausdorff claim, a
    kind the program does not emit fails, a re-run kind whose payload
    lacks the producer's keys fails, and a kind without a replayer yet is
    skipped."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": {"kind": "explicit", "name": "a-necessary:g=1:n=1",
                   "members": [{"kind": "residue", "modulus": 9,
                                "residues": [3]}]},
        "probes": [1], "budgets": {"n_max": 1, "depth": 1, "max_len": 1}}))
    report = tmp_path / "report.json"
    run(["hausdorff", str(cfg), "--out", str(report)], capsys)
    code, out, _ = run(["recheck", str(report)], capsys)
    assert code == 0, out
    assert "  ok     hausdorff:a-necessary:g=1:n=1" in out.splitlines()
    report.write_text(json.dumps({"schema": 1, "status": "verified",
                                  "claims": [
        {"claim": "foo:1", "status": "verified", "payload": {}},
        {"claim": "product-union-small:N=6:n=1", "status": "verified",
         "payload": {"matches": True}, "budgets": {"n": 1}},
        {"claim": "u-translation:depth=1", "status": "verified",
         "payload": {}}]}))
    code, out, _ = run(["recheck", str(report)], capsys)
    assert code == 2 and out.splitlines() == [
        "  FAIL   foo:1: unknown claim kind 'foo'",
        "  FAIL   product-union-small:N=6:n=1: the replay gives payload keys "
        "['excluded_element', 'expected', 'intersection', 'matches', "
        "'note', 'truncation_artifact', 'whole_group'], the report "
        "['matches']",
        "  skip   u-translation:depth=1 (no embedded witnesses)",
        "recheck: FAILED"]


def _emptied(doc):
    doc.update(claims=[], status="verified")


@pytest.mark.parametrize("argv, tamper, lines", [
    (["hausdorff", str(CONFIGS / "sqrt7.json")], _emptied,
     ["  FAIL   document: no claims"]),
    (["hausdorff", str(CONFIGS / "sqrt7.json")],
     lambda doc: doc.update(schema=99),
     ["  ok     hausdorff:sqrt7",
      "  FAIL   document: the replay gives schema 1, the report 99"]),
    (["hausdorff", str(CONFIGS / "sqrt7.json")],
     lambda doc: doc.update(note=""),
     ["  ok     hausdorff:sqrt7",
      "  FAIL   document: the replay gives keys ['claims', 'schema', "
      "'status'], the report ['claims', 'note', 'schema', 'status']"]),
    (["verify", "sqrt7", "--gmax", "1", "--nmax", "2"],
     lambda doc: doc["claims"].reverse(),
     ["  ok     sqrt7-necessary:g=1:n=2", "  ok     sqrt7-necessary:g=1:n=1",
      "  FAIL   document: the claims are not in id order"]),
], ids=["emptied", "schema-99", "extra-key", "reversed"])
def test_recheck_checks_the_document_envelope(tmp_path, capsys, argv,
                                              tamper, lines):
    """A document must be as ``report_document`` writes it: its schema,
    exactly its three keys, at least one claim, and the claims in id
    order."""
    report = tmp_path / "report.json"
    run(argv + ["--out", str(report)], capsys)
    doc = json.loads(report.read_text())
    tamper(doc)
    report.write_text(json.dumps(doc))
    code, out, _ = run(["recheck", str(report)], capsys)
    assert code == 2 and out.splitlines() == lines + ["recheck: FAILED"]


def test_recheck_takes_duplicate_ids_in_id_order(tmp_path, capsys):
    """``verify product --m0 2 2`` writes two identical claims, which
    recheck ``ok``; the same claims reversed are out of id order."""
    report = tmp_path / "report.json"
    run(["verify", "product", "--m0", "2", "2", "--union-n", "1",
         "--samples", "1", "--out", str(report)], capsys)
    doc = json.loads(report.read_text())
    ids = [claim["claim"] for claim in doc["claims"]]
    assert ids == ["product-cover:N=6:m0=2"] * 2 + \
        ["product-union-small:N=6:n=1"]
    assert run(["recheck", str(report)], capsys)[:2] == (0, "".join(
        f"  ok     {cid}\n" for cid in ids) + "recheck: ok\n")
    doc["claims"].reverse()
    report.write_text(json.dumps(doc))
    code, out, _ = run(["recheck", str(report)], capsys)
    assert code == 2 and out.splitlines()[-2:] == [
        "  FAIL   document: the claims are not in id order", "recheck: FAILED"]


def test_recheck_claim_without_id_fails(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"schema": 1, "status": "verified",
                                  "claims": [{"status": "verified",
                                              "payload": {}}]}))
    code, out, _ = run(["recheck", str(report)], capsys)
    assert code == 2 and out.splitlines() == [
        "  FAIL   claim 0: no claim id", "recheck: FAILED"]
