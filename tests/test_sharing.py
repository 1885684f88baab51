"""One description per set per command.

A command's ``FoldTable`` keeps one instance of each set value, and a set
value describes itself once, so every report entry that names a set holds
the same dict and the writer encodes it from the text it kept.  These
tests pin the sharing itself: a refactor that stopped it would change no
report byte and show only in the benchmark.
"""

import json
import random
from collections import defaultdict
from pathlib import Path

import pytest

from grouptop import cli
from grouptop import examples as ex
from grouptop.prefixsum import _exact_candidates
from grouptop.report import canonical_json
from grouptop.setspec import (
    _SPEC_KEYS,
    FoldTable,
    ResidueSet,
    crt_candidates,
    spec_from_json,
    star,
    sumset,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _emitted_document(monkeypatch, capsys, argv) -> dict:
    """The document the CLI hands its writer for ``argv``."""
    documents = []
    write = cli.write_canonical_json

    def keep(doc, fp):
        documents.append(doc)
        write(doc, fp)

    monkeypatch.setattr(cli, "write_canonical_json", keep)
    assert cli.main(argv) in (0, 2)
    capsys.readouterr()
    (doc,) = documents
    return doc


def _set_descriptions(value, found: list) -> list:
    """Every dict in ``value`` that is a set description."""
    if isinstance(value, dict):
        kind = value.get("kind")
        if kind in _SPEC_KEYS and value.keys() <= _SPEC_KEYS[kind]:
            found.append(value)
        for item in value.values():
            _set_descriptions(item, found)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _set_descriptions(item, found)
    return found


@pytest.mark.parametrize("argv, kinds", [
    (["verify", "sqrt7", "--gmax", "6", "--nmax", "4"], {"residue"}),
    (["hausdorff", str(CONFIGS / "sqrt7.json")], {"residue"}),
], ids=["verify-grid", "hausdorff-sqrt7"])
def test_equal_set_descriptions_are_one_object(monkeypatch, capsys, argv,
                                               kinds):
    """In the document a command writes, every set description with the
    same text is the same dict, and descriptions do repeat: members,
    n-fold sets and the folds in exact-fold proofs."""
    doc = _emitted_document(monkeypatch, capsys, argv)
    found = _set_descriptions(doc, [])
    objects = defaultdict(set)
    for description in found:
        objects[canonical_json(description)].add(id(description))
    assert {d["kind"] for d in found} == kinds
    assert len(found) > 2 * len(objects)
    assert all(len(ids) == 1 for ids in objects.values()), \
        [text for text, ids in objects.items() if len(ids) > 1][:2]


@pytest.mark.parametrize("argv, covers", [
    (["verify", "sqrt7", "--gmax", "1", "--nmax", "1", "--cover-m0", "2"], 1),
    (["verify", "product", "--samples", "5"], 2),
], ids=["sqrt7-cover", "product-cover"])
def test_cover_witnesses_name_the_claims_own_stars(monkeypatch, capsys,
                                                   argv, covers):
    """A cover claim's witnesses are written from the stars it folds, so
    every witness's ``sets[j]`` is the first witness's ``sets[j]``, one
    dict.  Descriptions of equal text elsewhere need not be shared: each
    star's closed base is its own set value."""
    doc = _emitted_document(monkeypatch, capsys, argv)
    claims = [c for c in doc["claims"]
              if c["claim"].startswith(("sqrt7-cover:", "product-cover:"))]
    assert len(claims) == covers
    for claim in claims:
        first, *rest = claim["payload"]["witnesses"]
        assert rest
        for witness in rest:
            assert len(witness["sets"]) == len(first["sets"])
            assert all(mine is theirs for mine, theirs
                       in zip(witness["sets"], first["sets"]))


def test_the_table_keeps_one_instance_per_set_value():
    """Equal values intern to the first one; levels, n-fold sets and
    suffix folds are interned, so an n-fold set equal to its member is
    that member; route proofs are one dict per route and fold."""
    table = FoldTable()
    member = table.level(ex.sqrt7_set, 2)
    assert member is table.level(ex.sqrt7_set, 2)
    assert member is table.intern(ex.sqrt7_set(2))
    assert member is table.intern(spec_from_json(member.to_json()))
    assert member.to_json() is member.to_json()
    assert table.n_fold_star(member, 1) is member  # sqrt7 sets are symmetric
    two = table.n_fold_star(member, 2)
    assert two is table.intern(sumset(star(member), star(member)))
    deeper = table.level(ex.sqrt7_set, 3)
    folds = table.suffix_folds([table.star(member), table.star(deeper)])
    assert folds[1] is deeper
    assert folds[0] is table.intern(sumset(star(member), star(deeper)))
    proof = table.proof("exact-fold", two)
    assert proof == {"route": "exact-fold", "fold": two.to_json()}
    assert proof is table.proof("exact-fold", table.intern(
        spec_from_json(two.to_json())))
    assert proof["fold"] is two.to_json()
    assert table.proof("single-set") is table.proof("single-set")
    assert FoldTable().level(ex.sqrt7_set, 2) is not member


def test_table_crt_candidates_equal_the_uncached_rule():
    """For residue stars against residue folds, the candidates the table
    keeps per class of the remainder are the ones ``_exact_candidates``
    computes afresh for every remainder (with a fresh table), in the same
    order."""
    rng = random.Random(28)
    table = FoldTable()
    specs = [ex.sqrt7_set(k) for k in range(1, 5)] + [
        ResidueSet.of(m, rng.sample(range(m), rng.randint(1, min(m, 4))))
        for m in (2, 4, 6, 9, 10, 12, 27, 45) for _ in range(2)]
    for _ in range(400):
        st = table.star(rng.choice(specs))
        fold = table.star(rng.choice(specs)).base
        rem = rng.randint(-10 ** 6, 10 ** 6)
        want = tuple(_exact_candidates(st, rem, fold, FoldTable()))
        assert table.crt_candidates(st.base, fold, rem) == want
        assert crt_candidates(st.base, fold, rem) == want
        assert tuple(_exact_candidates(st, rem, fold, table)) == want
    assert len(table._candidates) < 400  # classes repeat


def test_shared_descriptions_write_the_bytes_of_unshared_copies(
        monkeypatch, capsys):
    """The document as the CLI builds it, shared descriptions and all,
    and a copy with no object shared write the same text."""
    doc = _emitted_document(monkeypatch, capsys,
                            ["hausdorff", str(CONFIGS / "sqrt7.json")])
    text = canonical_json(doc)
    assert canonical_json(json.loads(text)) == text
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _rechecked_table(monkeypatch, capsys, tmp_path, argv) -> tuple:
    """(table, document): the one table ``recheck_document`` builds to
    recheck the report ``argv`` writes, and that report."""
    from grouptop import recheck

    report = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(report)]) == 0
    capsys.readouterr()
    doc = json.loads(report.read_text())
    tables = []

    def recorded():
        tables.append(FoldTable())
        return tables[-1]

    monkeypatch.setattr(recheck, "FoldTable", recorded)
    ok, details = recheck.recheck_document(doc)
    assert ok, details
    table, = tables
    return table, doc


def test_recheck_replays_the_examples_through_its_one_table(
        monkeypatch, capsys, tmp_path):
    """The replayers of the examples whose producers fold sets pass the
    recheck's table on: the two product-union-small claims of one
    document extend one n-fold list, and a sqrt7 cover's fold is the
    table's interned suffix fold."""
    table, doc = _rechecked_table(
        monkeypatch, capsys, tmp_path,
        ["verify", "product", "--m0", "2", "--union-n", "1", "2",
         "--samples", "1"])
    unions = [c for c in doc["claims"]
              if c["claim"].startswith("product-union-small:")]
    assert len(unions) == 2
    (folds,) = table._n_folds.values()
    assert [f.to_json() for f in folds] == \
        [c["payload"]["intersection"] for c in unions]

    table, doc = _rechecked_table(
        monkeypatch, capsys, tmp_path,
        ["verify", "sqrt7", "--gmax", "1", "--nmax", "1",
         "--cover-m0", "1", "--cover-gmax", "2"])
    (cover,) = [c for c in doc["claims"]
                if c["claim"].startswith("sqrt7-cover:")]
    fold = spec_from_json(cover["payload"]["fold"])
    (suffix,) = table._suffix_folds.values()
    assert table.intern(fold) is suffix[0]
    assert table.level(ex.sqrt7_set, 1) is suffix[-1]


def test_hausdorff_builds_each_envelope_sum_and_tail_term_once(
        monkeypatch, capsys, tmp_path):
    """One ``hausdorff`` run over a cofinite powers3 batch, at the bench's
    budgets, builds each (chain, modulus) envelope sum once however many
    probes ask for it, and computes each (sequence, start)'s terms once
    for the search's candidates, the single-set memberships and the
    witness checks alike."""
    from collections import Counter

    from grouptop import prefixsum
    from grouptop.sequences import IntegerSequence

    requests, builds, stack = Counter(), Counter(), []
    real_sum, real_build = FoldTable.envelope_sum, prefixsum._envelope_sum

    def envelope_sum(self, stars, modulus, build):
        stack.append((tuple(stars), modulus))
        requests[stack[-1]] += 1
        try:
            return real_sum(self, stars, modulus, build)
        finally:
            stack.pop()

    def counted_build(envelopes, m):
        builds[stack[-1]] += 1
        return real_build(envelopes, m)

    computed = Counter()
    real_terms = IntegerSequence.terms

    def terms(seq, start, bound, known=None):
        known = [] if known is None else known
        before = len(known)
        found = real_terms(seq, start, bound, known)
        computed.update((seq, start, k) for k, _ in known[before:])
        return found

    monkeypatch.setattr(FoldTable, "envelope_sum", envelope_sum)
    monkeypatch.setattr(prefixsum, "_envelope_sum", counted_build)
    monkeypatch.setattr(IntegerSequence, "terms", terms)
    config = tmp_path / "powers3.json"
    config.write_text(json.dumps({
        "family": {"kind": "cofinite", "sequence": "powers3"},
        "probes": [1, -4, 5, 8, -10, 11, 14, -16, 17, 20],
        "budgets": {"n_max": 5, "depth": 30, "max_len": 8}}))
    assert cli.main(["hausdorff", str(config),
                     "--out", str(tmp_path / "report.json")]) == 0
    capsys.readouterr()
    assert builds and set(builds.values()) == {1}, builds.most_common(2)
    assert sum(requests.values()) > len(requests)
    assert all(m <= 200_000 for _, m in requests)
    assert computed and set(computed.values()) == {1}, \
        computed.most_common(2)
