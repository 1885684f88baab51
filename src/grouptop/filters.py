"""Downward-directed set families and the convergence criteria over them.

Families come in three presentations: decreasing chains, cofinite tails of
an integer sequence, and explicit finite lists.  On top of them live the
two Hausdorff-style checks (the n-fold exclusion condition and the
separating-sequence construction) and the verdict drawn from them, by
``hausdorff_verdict`` and by its replayer ``replay_hausdorff`` with the
same scan helpers and rules; the replayer rebuilds each recorded probe
entry with the producer's writer, ``_probe_record``, and returns the
producer's ``_hausdorff_report`` on them for ``recheck._compare``.
One reader, ``RunConfig``, reads a run from a ``hausdorff`` config and
from a recorded claim alike, so the replay refuses what the command does.

Every bounded search reports three-valued outcomes; "verified" and
"refuted" are reserved for exact arithmetic or re-checked witnesses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .groups import (
    GroupElement,
    check_enumeration_cap,
    description_kind,
    integer_from_json,
    list_from_json,
    reject_unknown_keys,
)
from .prefixsum import (
    SEARCH_BUDGET,
    MembershipResult,
    enumeration_capped,
    prefix_sum_membership,
)
from .report import Status, VerificationReport
from .sequences import IntegerSequence, sequence_from_json, sequence_to_json
from .setspec import (
    EnumerationBudgetError,
    FoldTable,
    SetSpec,
    SubsetUndecidable,
    SumsetUnsupported,
    TailSet,
    _base_of,
    spec_from_json,
    subset_of,
    witness_holds,
)


class FilterFamily:
    """Base for downward directed families enumerated in chain order:
    member(0), member(1), ... with deeper members at larger indices."""

    def member(self, i: int) -> SetSpec:
        raise NotImplementedError

    def size(self) -> Optional[int]:
        return None

    def monotone_chain(self) -> bool:
        """True when member(i+1) is contained in member(i) for all i."""
        return False

    def describe(self) -> dict:
        raise NotImplementedError


class ChainFamily(FilterFamily):
    """A decreasing chain S(0) >= S(1) >= ... given by a generator."""

    validate_depth = 4  # leading members whose nesting is checked on build

    def __init__(self, generator: Callable[[int], SetSpec],
                 length: Optional[int] = None,
                 name: str = "chain"):
        self._generator = generator
        self._length = length
        self.name = name
        self._validate()

    def _validate(self) -> None:
        depth = self.validate_depth
        top = depth if self._length is None else min(depth, self._length - 1)
        for i in range(top):
            try:
                if not subset_of(self.member(i + 1), self.member(i)):
                    raise ValueError(
                        f"{self.name}: member {i + 1} is not inside member {i}"
                    )
            except SubsetUndecidable:
                break  # no exact test for this representation; accept

    def member(self, i: int) -> SetSpec:
        if i < 0 or (self._length is not None and i >= self._length):
            raise IndexError(f"chain index {i} out of range")
        return self._generator(i)

    def size(self) -> Optional[int]:
        return self._length

    def monotone_chain(self) -> bool:
        return True

    def describe(self) -> dict:
        doc = {"kind": "chain", "name": self.name}
        if self._length is not None:
            doc["length"] = self._length
        return doc


class CofiniteFamily(FilterFamily):
    """Complements of finite sets inside an integer sequence.

    Enumeration follows the cofinal chain of plain tails: every member, a
    tail with finitely many terms removed, contains a plain tail.
    """

    def __init__(self, sequence: Union[IntegerSequence, str],
                 base_start: int = 0):
        self.sequence = TailSet.of(sequence, base_start).sequence
        self.base_start = base_start

    def member(self, i: int) -> TailSet:
        if i < 0:
            raise IndexError("member index must be nonnegative")
        return TailSet.of(self.sequence, self.base_start + i)

    def monotone_chain(self) -> bool:
        return True

    def describe(self) -> dict:
        return {"kind": "cofinite", **sequence_to_json(self.sequence),
                "start": self.base_start}


class ExplicitFamily(FilterFamily):
    """A finite list of members, all in one ambient group."""

    def __init__(self, members: Sequence[SetSpec], name: str = "explicit"):
        if not members:
            raise ValueError("explicit family needs at least one member")
        if any(m.ambient() != members[0].ambient() for m in members):
            raise ValueError("family members lie in different groups")
        self.members = tuple(members)
        self.name = name

    def member(self, i: int) -> SetSpec:
        return self.members[i]

    def size(self) -> int:
        return len(self.members)

    def describe(self) -> dict:
        return {"kind": "explicit", "name": self.name,
                "members": [m.to_json() for m in self.members]}


# Every key a family description may carry, per kind.
_FAMILY_KEYS = {
    "cofinite": {"kind", "sequence", "prefix", "start"},
    "explicit": {"kind", "name", "members"},
    "chain": {"kind", "generator", "coords", "name", "length"},
}
# A chain is given by its generator (a config) or by the name and length
# ``ChainFamily.describe`` writes (a report); the two forms do not mix.
_CHAIN_GENERATOR_KEYS = {"kind", "generator", "coords"}
_CHAIN_NAME_KEYS = {"kind", "name", "length"}
_BOXES_NAME = re.compile(r"product-boxes-([1-9][0-9]*)")


def family_from_json(doc: dict) -> FilterFamily:
    """Build a family from its JSON description.

    Chain generators are looked up by name: "sqrt7" (square-root residue
    chains), "interval-halving", and "product-boxes" are built in.  A
    chain's own description, {"kind": "chain", "name": ..., "length": ...},
    builds the same chain.  Unknown kinds and keys and non-integer integers
    raise ValueError.
    """
    kind = description_kind(doc, _FAMILY_KEYS, "family")
    if kind == "cofinite":
        return CofiniteFamily(sequence_from_json(doc),
                              integer_from_json(doc.get("start", 0)))
    if kind == "explicit":
        members = list_from_json(doc["members"], "members")
        return ExplicitFamily([spec_from_json(m) for m in members],
                              name=doc.get("name", "explicit"))
    if "name" not in doc:
        reject_unknown_keys(doc, _CHAIN_GENERATOR_KEYS, "chain family")
        if "coords" in doc and doc["generator"] != "product-boxes":
            raise ValueError(f"'coords' does not apply to chain generator "
                             f"{doc['generator']!r}")
        return _chain_family(doc["generator"],
                             integer_from_json(doc.get("coords", 6)))
    reject_unknown_keys(doc, _CHAIN_NAME_KEYS, "chain family")
    name = doc["name"]
    boxes = _BOXES_NAME.fullmatch(name) if isinstance(name, str) else None
    family = _chain_family("product-boxes", int(boxes.group(1))) if boxes \
        else _chain_family(name, 6)
    if family.name != name:
        raise ValueError(f"unknown chain name {name!r}")
    if "length" in doc and \
            integer_from_json(doc["length"]) != family.size():
        raise ValueError(f"length {doc['length']!r} does not match chain "
                         f"{name!r}")
    return family


def _chain_family(generator, coords: int) -> ChainFamily:
    if generator == "sqrt7":
        from .examples import sqrt7_set
        return ChainFamily(lambda i: sqrt7_set(i + 1), name="sqrt7")
    if generator == "interval-halving":
        from fractions import Fraction
        from .setspec import SymmetricInterval
        return ChainFamily(
            lambda i: SymmetricInterval(Fraction(1, 2 ** i)),
            name="interval-halving",
        )
    if generator == "product-boxes":
        if coords < 1:
            raise ValueError(f"product-boxes needs at least 1 coordinate, "
                             f"got {coords}")
        from .examples import product_set
        return ChainFamily(lambda i: product_set(coords, i + 1),
                           length=coords, name=f"product-boxes-{coords}")
    raise ValueError(f"unknown chain generator {generator!r}")


def _lower_bound_among(members: Sequence[SetSpec], a: SetSpec,
                       b: SetSpec) -> Optional[SetSpec]:
    return next((c for c in members if subset_of(c, a) and subset_of(c, b)),
                None)


def check_directed(family: ExplicitFamily) -> Optional[tuple]:
    """The first pair of member indices (i, j), i < j, with no lower bound
    in the family; None when the family is downward directed."""
    members = family.members
    return next(((i, j) for i in range(len(members))
                 for j in range(i + 1, len(members))
                 if _lower_bound_among(members, members[i], members[j])
                 is None), None)


_CONFIG_KEYS = {"family", "probes", "budgets"}
_BUDGET_KEYS = {"n_max", "depth", "max_len"}


@dataclass
class RunConfig:
    """The inputs of a hausdorff run, read from a config or a claim."""

    family: FilterFamily
    probes: list  # list[GroupElement] of the family's ambient group
    n_max: int = 3
    depth: int = 12
    max_len: int = 5

    @classmethod
    def from_json(cls, doc: dict) -> "RunConfig":
        """Raise ValueError on any run ``hausdorff`` refuses, and
        EnumerationBudgetError, before any member is built, on an n_max
        past the bound ``examples.check_sqrt7_necessary_cap`` puts on n
        (so n_max <= 446) or a tail scanned past the cap.  A budget left
        out takes its field's default.  An explicit family must be
        downward directed."""
        reject_unknown_keys(doc, _CONFIG_KEYS, "config")
        budgets = doc.get("budgets", {})
        reject_unknown_keys(budgets, _BUDGET_KEYS, "budgets")
        if not isinstance(doc["probes"], list):
            raise ValueError("probes must be a JSON list")
        family = family_from_json(doc["family"])
        sizes = {k: integer_from_json(budgets.get(k, getattr(cls, k)))
                 for k in sorted(_BUDGET_KEYS)}
        if min(sizes.values()) < 1:
            raise ValueError("budgets must be positive")
        folds = (sizes["n_max"] + 1) ** 2  # sqrt7-necessary's bound on n
        check_enumeration_cap(f"n_max={sizes['n_max']} folds chains of up "
                              f"to n_max copies, (n_max + 1)^2 = {folds}",
                              folds)
        deepest = _deepest_tail_index(family, sizes["depth"])
        check_enumeration_cap(f"the scan reads index {deepest} of a tail",
                              deepest)
        if isinstance(family, ExplicitFamily):
            try:
                pair = check_directed(family)
            except SubsetUndecidable:
                pair = None  # no exact subset test: taken as given
            if pair is not None:
                raise ValueError(f"explicit family is not downward "
                                 f"directed: no member lies inside both "
                                 f"member {pair[0]} and member {pair[1]}")
        group = family.member(0).ambient()  # the probes' group
        cfg = cls(family, [group.element(p) for p in doc["probes"]], **sizes)
        if not cfg.probes:
            raise ValueError("probe list must be nonempty")
        if any(p.is_identity() for p in cfg.probes):
            raise ValueError("probes must exclude the identity")
        return cfg


def _deepest_tail_index(family: FilterFamily, depth: int) -> int:
    """The deepest sequence index a scan of ``depth`` members names."""
    if isinstance(family, CofiniteFamily):
        return family.base_start + depth
    members = family.members if isinstance(family, ExplicitFamily) else ()
    return max((m.start for m in map(_base_of, members)
                if isinstance(m, TailSet)), default=0)


@dataclass(frozen=True)
class CupcapResult:
    """Outcome of the n-fold exclusion search over the first members."""

    found: bool
    n: int
    member_index: Optional[int] = None
    member: Optional[SetSpec] = None
    proof: Optional[dict] = None
    checked: int = 0
    skipped_unknown: int = 0

    def to_json(self) -> dict:
        doc = {"found": self.found, "n": self.n, "checked": self.checked}
        if self.found:
            doc["member_index"] = self.member_index
            doc["member"] = self.member.to_json()
            doc["proof"] = self.proof
        if self.skipped_unknown:
            doc["skipped_unknown"] = self.skipped_unknown
        return doc


def _nfold_exclusion(g: GroupElement, n: int, spec: SetSpec,
                     table: FoldTable) -> MembershipResult:
    """Membership of g in the n-fold sum of the starred member, exact when
    the representation allows, else the prefix-sum machinery.  Finite sets
    over nonabelian groups fold exactly as n-fold product sets; a fold past
    the enumeration cap is unknown, never a bounded search."""
    try:
        folded = table.n_fold_star(spec, n)
        if folded.contains_value(g.value):
            return MembershipResult("yes", proof=table.proof("exact-fold"))
        return MembershipResult(
            "no", proof=table.proof("exact-fold", folded))
    except SumsetUnsupported:
        return prefix_sum_membership(g, [spec] * n, table)
    except EnumerationBudgetError as err:
        return enumeration_capped(err)


def scan_limit(family: FilterFamily, depth: int) -> int:
    """How many leading members a scan reads, at most ``depth``."""
    return depth if family.size() is None else min(depth, family.size())


def resume_index(family: FilterFamily, steps: Sequence) -> int:
    """The first member the next separation step scans: along chains,
    past the last chosen index."""
    return steps[-1].member_index + 1 if steps and family.monotone_chain() \
        else 0


def cupcap_check(g: GroupElement, n: int, family: FilterFamily,
                 depth: int, table: FoldTable) -> CupcapResult:
    """Search the first ``depth`` members for one whose n-fold starred sum
    misses g.  Only exact exclusions count as found; inconclusive members
    are skipped and tallied.  Members are the levels of, and folds come
    from, ``table``."""
    if g.is_identity():
        raise ValueError("probe must not be the identity")
    if n < 1:
        raise ValueError("n must be positive")
    top = scan_limit(family, depth)
    skipped = 0
    for i in range(top):
        member = table.level(family.member, i)
        res = _nfold_exclusion(g, n, member, table)
        if res.is_no():
            return CupcapResult(True, n, i, member, res.proof, checked=i + 1,
                                skipped_unknown=skipped)
        if res.status == "unknown":
            skipped += 1
    return CupcapResult(False, n, checked=top, skipped_unknown=skipped)


@dataclass(frozen=True)
class SeparationStep:
    member_index: int
    member: SetSpec
    exclusion: MembershipResult

    def to_json(self) -> dict:
        return {
            "member_index": self.member_index,
            "member": self.member.to_json(),
            "exclusion": self.exclusion.to_json(),
        }


@dataclass(frozen=True)
class SeparationCertificate:
    """Members S_0,...,S_{L-1} with per-step proofs that the target stays
    outside each prefix sum of starred members."""

    target: GroupElement
    steps: tuple  # tuple[SeparationStep, ...]
    family: dict
    policy = "first-excluding-member, indices increasing along chains"

    def members(self) -> list:
        return [s.member for s in self.steps]

    def __len__(self) -> int:
        return len(self.steps)

    def to_json(self) -> dict:
        return {
            "target": self.target.group.value_to_json(self.target.value),
            "family": self.family,
            "policy": self.policy,
            "steps": [s.to_json() for s in self.steps],
            "budget": dict(SEARCH_BUDGET),
        }


@dataclass(frozen=True)
class StuckReport:
    """The step at which no candidate member could extend the prefix,
    with the membership result that blocked every candidate."""

    target: GroupElement
    step: int
    prefix: tuple  # tuple[SeparationStep, ...]
    blocked: tuple  # tuple[(candidate_index, SetSpec, MembershipResult)]
    family: dict

    def all_candidates_exactly_blocked(self) -> bool:
        return len(self.blocked) > 0 and \
            all(res.is_yes() for _, _, res in self.blocked)

    def to_json(self) -> dict:
        return {
            "target": self.target.group.value_to_json(self.target.value),
            "stuck_at_step": self.step,
            "prefix": [s.to_json() for s in self.prefix],
            "blocked": [
                {"candidate_index": i, "member": m.to_json(),
                 "result": res.to_json()}
                for i, m, res in self.blocked
            ],
            "family": self.family,
        }


def separating_sequence(
    g: GroupElement,
    family: FilterFamily,
    max_len: int,
    depth: int,
    table: FoldTable,
):
    """Greedily extend a member sequence keeping g outside the prefix sum.

    At each step the first ``depth`` members are scanned in chain order for
    one whose addition still excludes g; exact exclusion proofs are
    required.  Along chains the scan resumes past the last chosen index,
    which loses nothing: members only shrink, so a deeper member excludes
    whenever a shallower one does.  Returns a certificate on success and a
    stuck report (prefix plus every candidate's blocking membership)
    otherwise.  Every membership is decided, and every member built,
    through ``table``.
    """
    if g.is_identity():
        raise ValueError("the identity cannot be separated")
    steps: list = []
    fam_desc = family.describe()
    for step_no in range(max_len):
        blocked = []
        chosen = None
        for i in range(resume_index(family, steps), scan_limit(family, depth)):
            member = table.level(family.member, i)
            chain = [s.member for s in steps] + [member]
            res = prefix_sum_membership(g, chain, table)
            if res.is_no():
                chosen = SeparationStep(i, member, res)
                break
            blocked.append((i, member, res))
        if chosen is None:
            return StuckReport(g, step_no, tuple(steps), tuple(blocked),
                               fam_desc)
        steps.append(chosen)
    return SeparationCertificate(g, tuple(steps), fam_desc)


def recheck_certificate(
        cert: Union[SeparationCertificate, StuckReport],
        table: FoldTable):
    """Replay a separation from its member descriptions alone: every
    prefix sum still excludes the target, and every witness that blocked a
    stuck report still holds.  The first failure raises AssertionError;
    returns the separation rebuilt with the replayed exclusion of each
    prefix.  Every membership is decided, and every star taken, through
    ``table``; each witness is still checked in full."""
    stuck = isinstance(cert, StuckReport)
    prefix = cert.prefix if stuck else cert.steps
    members = [s.member for s in prefix]
    stars = [table.star(m) for m in members]
    steps = []
    for n, step in enumerate(prefix, 1):
        res = prefix_sum_membership(cert.target, members[:n], table)
        if not res.is_no():
            raise AssertionError(f"prefix {n} no longer excludes the target")
        steps.append(SeparationStep(step.member_index, step.member, res))
    for i, member, res in cert.blocked if stuck else ():
        if res.is_yes() and not witness_holds(
                cert.target, res.witness, stars + [table.star(member)],
                table):
            raise AssertionError(f"blocking witness at candidate {i} fails")
    return StuckReport(cert.target, cert.step, tuple(steps), cert.blocked,
                       cert.family) if stuck \
        else SeparationCertificate(cert.target, tuple(steps), cert.family)


def hausdorff_verdict(
    family: FilterFamily,
    probes: Sequence[GroupElement],
    n_max: int,
    depth: int,
    max_len: int,
) -> VerificationReport:
    """Run both criteria on every probe and classify the outcome.

    Per probe: the n-fold exclusion search for each n <= n_max, and the
    separating-sequence construction, classified by ``probe_outcome``.
    """
    if any(p.is_identity() for p in probes):
        raise ValueError("probes must exclude the identity")
    table = FoldTable()  # the probes share every star and fold
    per_probe = []
    for g in probes:
        cupcaps = [cupcap_check(g, n, family, depth, table)
                   for n in range(1, n_max + 1)]
        sep = separating_sequence(g, family, max_len, depth, table)
        per_probe.append(_probe_record(g, cupcaps, sep))
    return _hausdorff_report(family, per_probe, n_max, depth, max_len)


def _hausdorff_report(family: FilterFamily, per_probe: list, n_max: int,
                      depth: int, max_len: int) -> VerificationReport:
    """A hausdorff claim on its probe entries, as ``hausdorff_verdict``
    writes it and ``replay_hausdorff`` rebuilds it."""
    verdict, status = verdict_rule([p["outcome"] for p in per_probe])
    doc = family.describe()
    return VerificationReport(
        claim="hausdorff:" + (doc.get("name") or doc.get("sequence")
                              or doc["kind"]),
        status=status,
        payload={"verdict": verdict, "probes": per_probe, "family": doc},
        budgets={"n_max": n_max, "depth": depth, "max_len": max_len,
                 **SEARCH_BUDGET},
    )


def _probe_record(g: GroupElement, cupcaps: Sequence[CupcapResult],
                  sep: Union[SeparationCertificate, StuckReport]) -> dict:
    """One probe's entry in a hausdorff payload, as ``hausdorff_verdict``
    writes it and ``replay_hausdorff`` rebuilds it."""
    return {
        "probe": g.group.value_to_json(g.value),
        "cupcap": {str(c.n): c.to_json() for c in cupcaps},
        "separation": sep.to_json(),
        "outcome": probe_outcome(all(c.found for c in cupcaps), sep),
    }


def probe_outcome(cupcap_ok: bool,
                  sep: Union[SeparationCertificate, StuckReport]) -> str:
    """A probe's outcome from whether the n-fold exclusion search found a
    member for every n and from its separation certificate or stuck
    report, as ``_probe_record`` writes it."""
    if isinstance(sep, SeparationCertificate):
        # Necessity says the exclusion search must succeed wherever a
        # certificate this long exists; within depth that can only be
        # missed on families without chain structure.
        return "separated" if cupcap_ok \
            else "separated-necessity-unconfirmed"
    if cupcap_ok and sep.all_candidates_exactly_blocked():
        return "gap"
    return "unresolved"


def verdict_rule(outcomes: Sequence[str]) -> tuple:
    """(verdict, status) of a hausdorff claim from its probes' outcomes.

    The verdict distinguishes "consistent-with-hausdorff" (everything
    separates) from the gap where the necessary condition holds but the
    construction sticks against exact blocking memberships -- the
    desk-scale signature of a family whose finest topology is not
    Hausdorff.
    """
    if all(o == "separated" for o in outcomes):
        return "consistent-with-hausdorff", Status.VERIFIED
    if all(o in ("separated", "gap") for o in outcomes):  # a gap, then
        return ("necessary-condition-holds-but-separation-blocked: "
                "finest topology not Hausdorff at desk scale"), Status.REFUTED
    return "unresolved-at-budget", Status.UNKNOWN


def replay_hausdorff(claim: dict, table: FoldTable) -> VerificationReport:
    """The claim the replayed evidence gives, for ``recheck._compare`` to
    compare with the record; a failed replay raises AssertionError.

    Each probe entry is rebuilt by ``_probe_record`` from the family's own
    members at the recorded indices, the re-decided n-fold exclusions and
    the separation ``recheck_certificate`` replays, and the verdict is
    drawn from the rebuilt outcomes.  Taken from the record is only what a
    re-run of the scan would derive: each cupcap entry's
    ``skipped_unknown``, and each blocking result's ``proof`` and ``note``
    (a ``yes``, whose witness is re-checked, or an ``unknown``).  Checked
    here, as no comparison can: index types and ranges, step and blocked
    counts, and each blocking status.  ``RunConfig`` reads the family,
    probes and budgets."""
    payload, budgets = claim["payload"], claim["budgets"]
    cfg = RunConfig.from_json({
        "family": payload["family"],
        "probes": [entry["probe"] for entry in payload["probes"]],
        "budgets": {k: budgets[k] for k in ("depth", "max_len", "n_max")}})
    family, max_len = cfg.family, cfg.max_len
    limit = scan_limit(family, cfg.depth)
    described = family.describe()

    def member(name, index, lowest: int) -> SetSpec:
        """The member at a recorded index in the scan from ``lowest``."""
        if type(index) is not int or not lowest <= index < limit:
            raise AssertionError(f"probe {name}: member index {index!r} lies "
                                 f"outside the scan {lowest}..{limit - 1}")
        return table.level(family.member, index)

    def cupcap(name, g: GroupElement, n: int, doc: dict) -> CupcapResult:
        skipped = doc.get("skipped_unknown", 0)
        if doc.get("found") is not True:
            return CupcapResult(False, n, checked=limit,
                                skipped_unknown=skipped)
        i = doc.get("member_index")
        spec = member(name, i, 0)
        res = _nfold_exclusion(g, n, spec, table)
        if not res.is_no():
            raise AssertionError(f"cupcap member no longer excludes {name}")
        return CupcapResult(True, n, i, spec, res.proof, checked=i + 1,
                            skipped_unknown=skipped)

    def separation(name, g: GroupElement, doc: dict):
        stuck = "blocked" in doc
        steps: list = []  # exclusions are the replay's
        for step in doc["prefix" if stuck else "steps"]:
            i = step["member_index"]
            steps.append(SeparationStep(i, member(
                name, i, resume_index(family, steps)), None))
        if len(steps) >= max_len if stuck else len(steps) != max_len:
            what = "stuck report" if stuck else "certificate"
            raise AssertionError(f"probe {name}: the {what} has "
                                 f"{len(steps)} steps, max_len {max_len}")
        blocked = []
        start = resume_index(family, steps)
        if stuck and len(doc["blocked"]) != limit - start:
            raise AssertionError(f"probe {name}: the blocked candidates are "
                                 f"not {start}..{limit - 1}")
        for i, b in enumerate(doc["blocked"] if stuck else (), start):
            res = MembershipResult.from_json(g.group, b["result"])
            if res.status not in ("yes", "unknown"):
                raise AssertionError(f"probe {name}: candidate {i} is "
                                     f"blocked by {res.status!r}")
            blocked.append((i, member(name, i, start), res))
        return recheck_certificate(
            StuckReport(g, len(steps), tuple(steps), tuple(blocked),
                        described) if stuck
            else SeparationCertificate(g, tuple(steps), described), table)

    per_probe = []
    for probe, g in zip(payload["probes"], cfg.probes):
        name, cupcaps = probe["probe"], probe["cupcap"]
        top = min(cfg.n_max, len(cupcaps) + 1)  # past it, the record differs
        per_probe.append(_probe_record(
            g, [cupcap(name, g, n, cupcaps.get(str(n), {}))
                for n in range(1, top + 1)],
            separation(name, g, probe["separation"])))
    return _hausdorff_report(family, per_probe, cfg.n_max, cfg.depth,
                             max_len)
