"""Report serialization: the writer is pinned to ``json.dumps``, streams
what it encodes, and the CLI replaces a report file only once it is whole."""

import enum
import io
import json
import tracemalloc
from collections import OrderedDict
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from grouptop import cli, report
from grouptop.report import (Status, VerificationReport, canonical_json,
                             write_canonical_json)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class Level(enum.IntEnum):
    ONE = 1
    BIG = 10 ** 30


escapes = st.text(alphabet=st.sampled_from(
    list('"\\/\n\r\t\b\f\x00\x1f\x7f') + ["é", "€", " ", "😀", "a"]))
strings = st.text() | escapes
leaves = (st.none() | st.booleans() | st.integers()
          | st.integers(min_value=-10 ** 80, max_value=10 ** 80)
          | strings | st.sampled_from(list(Status) + list(Level)))
documents = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(strings | st.sampled_from(list(Status)),
                                     inner, max_size=5)),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(documents)
def test_canonical_json_matches_json_dumps(doc):
    assert canonical_json(doc) == reference(doc)


@pytest.mark.parametrize("doc", [
    {}, [], {"a": {}, "b": [], "c": [[]], "d": [{}]},
    OrderedDict([("b", 1), ("a", 2)]), {"status": Status.REFUTED},
], ids=repr)
def test_canonical_json_edge_cases(doc):
    assert canonical_json(doc) == reference(doc)


def written(doc, batch: int) -> bytes:
    """The bytes ``write_canonical_json`` writes to a binary-backed text
    file when it writes out every ``batch`` pieces."""
    raw = io.BytesIO()
    fp = io.TextIOWrapper(raw, encoding="utf-8")
    with mock.patch.object(report, "_BATCH", batch):
        write_canonical_json(doc, fp)
    fp.flush()
    return raw.getvalue()


@settings(max_examples=200, deadline=None)
@given(documents,
       st.integers(min_value=1, max_value=4) | st.just(report._BATCH))
def test_writer_streams_the_bytes_of_json_dumps(doc, batch):
    assert written(doc, batch) == reference(doc).encode()


REFUSED = [
    {"x": 0.5}, [float("nan")], {"x": {1, 2}}, {"x": object()},
    {1: "a"}, {None: 0}, {True: 1}, {(1, 2): 3},
]


@pytest.mark.parametrize("doc", REFUSED, ids=repr)
def test_canonical_json_refuses_what_reports_never_carry(doc):
    with pytest.raises(TypeError):
        canonical_json(doc)
    with pytest.raises(TypeError):
        written(doc, 1)


@pytest.mark.parametrize("argv", [
    ["hausdorff", str(CONFIGS / "powers3.json")],
    ["verify", "sqrt7", "--gmax", "4", "--nmax", "3"],
], ids=["hausdorff", "verify"])
def test_out_file_and_stdout_get_the_same_bytes(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    assert out.read_bytes() == printed.encode()
    assert json.loads(printed)["claims"]


def test_emit_never_holds_the_whole_report_text(tmp_path, capsys):
    """A report of more than 2 MB of text is written to its file with
    under 1 MB allocated at the peak: the document exists beforehand, and
    what the writer holds is one batch of pieces."""
    reports = [VerificationReport(f"big:{i}", Status.VERIFIED,
                                  {"values": list(range(i, i + 2_000))})
               for i in range(100)]
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        cli._emit(reports, str(out), "json", 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 2 * 2 ** 20
    assert peak < 2 ** 20, peak
    capsys.readouterr()


def test_report_that_fails_to_encode_leaves_the_old_file(tmp_path, capsys,
                                                         monkeypatch):
    """A float past the pieces already written (the batch is one piece)
    raises; the old ``--out`` file keeps its bytes and no temporary file
    is left beside it."""
    out = tmp_path / "report.json"
    out.write_text("the previous report\n")

    produce = cli.hausdorff_verdict

    def with_float(*args, **kwargs):
        made = produce(*args, **kwargs)
        made.payload["zz-last"] = 0.5
        return made

    monkeypatch.setattr(cli, "hausdorff_verdict", with_float)
    monkeypatch.setattr(report, "_BATCH", 1)
    with pytest.raises(TypeError):
        cli.main(["hausdorff", str(CONFIGS / "powers3.json"),
                  "--out", str(out)])
    assert out.read_bytes() == b"the previous report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
    capsys.readouterr()


def test_mismatch_names_the_first_differing_path_of_long_values():
    """Values whose reprs stay short are printed whole; past that, the
    message names the first path at which they differ as ``same_json``
    compares (type included) and the two values there, cut short."""
    from grouptop.report import mismatch
    assert mismatch("fold", {"modulus": 3}, {"modulus": 1}) == \
        "the replay gives fold {'modulus': 3}, the report {'modulus': 1}"
    long = [{"summands": list(range(50)), "target": 7} for _ in range(3)]

    def edited(index: int, key: str, value) -> list:
        doc = json.loads(json.dumps(long))
        if key == "summands":
            doc[index][key][1] = value
        else:
            doc[index][key] = value
        return doc

    for index, key, value, where in [
            (2, "summands", 2, "[2]['summands'][1]: 1, the report 2"),
            (1, "summands", 1.0, "[1]['summands'][1]: 1, the report 1.0"),
            (0, "target", True, "[0]['target']: 7, the report True"),
            (2, "extra", "x", "[2]['extra']: nothing, the report 'x'")]:
        assert mismatch("witnesses", long, edited(index, key, value)) == \
            f"the replay gives witnesses at {where}"
    text = mismatch("witnesses", long, long[:2])
    assert text.startswith("the replay gives witnesses at [2]: {'summands': "
                           "[0, 1, 2,") and text.endswith(
        "..., the report nothing") and len(text) < 160, text
    text = mismatch("witnesses", long, 5)
    assert text.startswith("the replay gives witnesses at the top: [{") and \
        text.endswith(", the report 5") and len(text) < 160, text
