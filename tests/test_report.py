"""Report serialization: ``canonical_json`` is pinned to ``json.dumps``."""

import enum
import json
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from grouptop.report import Status, canonical_json


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


@pytest.mark.parametrize("doc", [
    {"x": 0.5}, [float("nan")], {"x": {1, 2}}, {"x": object()},
    {1: "a"}, {None: 0}, {True: 1}, {(1, 2): 3},
], ids=repr)
def test_canonical_json_refuses_what_reports_never_carry(doc):
    with pytest.raises(TypeError):
        canonical_json(doc)


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
