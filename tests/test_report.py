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


def written(doc, batch: int, kept: int = report._KEPT) -> bytes:
    """The bytes ``write_canonical_json`` writes to a binary-backed text
    file when it writes out every ``batch`` pieces and keeps the text of
    dicts up to ``kept`` characters."""
    raw = io.BytesIO()
    fp = io.TextIOWrapper(raw, encoding="utf-8")
    with mock.patch.object(report, "_BATCH", batch), \
            mock.patch.object(report, "_KEPT", kept):
        write_canonical_json(doc, fp)
    fp.flush()
    return raw.getvalue()


@settings(max_examples=200, deadline=None)
@given(documents,
       st.integers(min_value=1, max_value=4) | st.just(report._BATCH))
def test_writer_streams_the_bytes_of_json_dumps(doc, batch):
    assert written(doc, batch) == reference(doc).encode()


def _containers(inner):
    return (st.lists(inner, max_size=5)
            | st.lists(inner, max_size=3).map(tuple)
            | st.dictionaries(strings, inner, max_size=5))


# Lists of ints around the one-step join's bound, and short ones holding
# bools or int subclasses, which keep the per-item path.
int_lists = st.builds(
    lambda start, size, step: list(range(start, start + size * step, step)),
    st.integers(-10 ** 20, 10 ** 20),
    st.integers(report._BATCH - 2, report._BATCH + 2),
    st.integers(1, 10 ** 6)) | st.lists(
    st.integers() | st.booleans() | st.sampled_from(list(Level)),
    max_size=6)


@st.composite
def shared_documents(draw):
    """A tree that holds each of a few container objects at many places
    and depths: each pooled container may hold the ones before it, the
    last is a non-empty dict, and the tree's leaves may be any of them."""
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        held = leaves | int_lists
        if pool:
            held = held | st.sampled_from(pool)
        pool.append(draw(_containers(st.recursive(held, _containers,
                                                  max_leaves=6))))
    shared = draw(st.dictionaries(strings, leaves | st.sampled_from(pool)
                                  | int_lists, min_size=1, max_size=4))
    pool.append(shared)
    tree = draw(st.recursive(leaves | int_lists | st.sampled_from(pool),
                             _containers, max_leaves=30))
    return {"tree": tree, "again": [shared, shared, (shared,)],
            "deeper": {"a": [{"b": shared}], "c": shared},
            "pool": pool}


@settings(max_examples=200, deadline=None)
@given(shared_documents(),
       st.integers(min_value=1, max_value=4) | st.just(report._BATCH),
       st.sampled_from([1, 40, report._KEPT]))
def test_writer_reuses_shared_containers_as_json_dumps_writes_them(
        doc, batch, kept):
    """A container object met many times, at the same and at other
    depths, is written as ``json.dumps`` writes each copy, whatever the
    batch size and whichever dicts are short enough to keep."""
    assert canonical_json(doc) == reference(doc)
    assert written(doc, batch, kept) == reference(doc).encode()


REFUSED = [
    {"x": 0.5}, [float("nan")], {"x": {1, 2}}, {"x": object()},
    {1: "a"}, {None: 0}, {True: 1}, {(1, 2): 3},
    [1, 2.0], {"x": [1, 2.0]}, {"x": (1, 2.0)},
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
    what the writer holds is one batch of pieces.  So it is when the
    reports share one 2,000-int list, or one payload dict, whose text is
    too long to keep."""
    shared = list(range(2_000))
    payload = {"values": shared}
    for payloads in ([{"values": list(range(i, i + 2_000))}
                      for i in range(100)],
                     [{"values": shared} for _ in range(100)],
                     [payload] * 100):
        reports = [VerificationReport(f"big:{i}", Status.VERIFIED, doc)
                   for i, doc in enumerate(payloads)]
        out = tmp_path / "report.json"
        tracemalloc.start()
        try:
            cli._emit(reports, str(out), "json", 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size > 2 * 2 ** 20
        assert peak < 2 ** 20, peak
        claims = json.loads(out.read_text())["claims"]
        assert {c["claim"]: c["payload"] for c in claims}["big:7"] == \
            payloads[7]
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


def oracle_same_json(replayed, reported) -> bool:
    """``same_json`` as first written, the definition the faster one
    must keep."""
    kind = str if isinstance(replayed, str) else \
        list if isinstance(replayed, tuple) else type(replayed)
    if type(reported) is not kind:
        return False
    if kind is dict:
        return replayed.keys() == reported.keys() and \
            all(oracle_same_json(v, reported[k]) for k, v in replayed.items())
    if kind is list:
        return len(replayed) == len(reported) and \
            all(map(oracle_same_json, replayed, reported))
    return replayed == reported


class Text(str):
    pass


json_values = st.recursive(
    st.none() | st.booleans()
    | st.integers(min_value=-10 ** 40, max_value=10 ** 40)
    | st.floats(allow_nan=False, allow_infinity=False) | st.just(1.0)
    | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=6)
                   | st.dictionaries(st.text(max_size=2), inner, max_size=4)),
    max_leaves=30,
)


@st.composite
def replays(draw) -> tuple:
    """(replayed, reported): a value read back from JSON and a replayed
    value made from it, which keeps each part as the same object, copies
    it, or turns it into a look-alike: a bool or float for an int, an int
    for a bool or an integral float, Level.ONE for 1, a str subclass,
    Status.VERIFIED for "verified", a tuple for a list, or a changed
    value."""
    reported = json.loads(json.dumps(draw(json_values)))

    def twin(value, lowest: int = 0):
        choice = draw(st.integers(min_value=lowest, max_value=3))
        if choice == 0:
            return value  # the same object
        if isinstance(value, dict):
            return {key: twin(v) for key, v in value.items()}
        if isinstance(value, list):
            items = [twin(v) for v in value]
            return tuple(items) if choice == 1 else \
                items + [0] if choice == 2 and not items else items
        if isinstance(value, bool):
            return int(value) if choice == 1 else value
        if isinstance(value, int):
            return [bool(value % 2), float(value),
                    Level.ONE if value == 1 else value + 1][choice - 1]
        if isinstance(value, float):
            return int(value) if choice == 1 and value.is_integer() else \
                value + 1 if choice == 2 else value
        if isinstance(value, str):
            return [Text(value), Status.VERIFIED if value == "verified"
                    else value + "x", str(value)][choice - 1]
        return value  # None
    return twin(reported, 1), reported  # never the whole record


@settings(max_examples=500, deadline=None)
@given(replays() | st.tuples(documents, json_values.map(
    lambda value: json.loads(json.dumps(value)))))
def test_same_json_agrees_with_its_first_definition(pair):
    """The faster ``same_json`` (the same object at once, exact-int lists
    by one comparison) gives what its first definition gives, on
    replayed values against values read back from JSON: bool against
    int, 1.0 against 1, tuple against list, str subclasses and str enums,
    at every depth of nesting."""
    replayed, reported = pair
    assert report.same_json(replayed, reported) == \
        oracle_same_json(replayed, reported)
    assert report.same_json(reported, reported)
