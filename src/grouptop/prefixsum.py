"""Membership of an element in a sum of symmetrized sets.

``prefix_sum_membership`` decides g in S_0* + ... + S_{n-1}* with honest
three-valued semantics:

* yes  -- always accompanied by an explicit summand witness, re-verified
          by group addition before it is returned;
* no   -- only from an exact route: a folded exact sumset, a divisor
          certificate over integer chains, or a residue envelope;
* unknown -- a bounded search ran out of candidates without deciding, or
          an exact fold would pass the enumeration cap.

Every witness comes from one peel, ``_peel``: summands peel off the left
as (-s) + remainder, each position takes its first candidate whose
remainder the rest of the chain can still reach, and the last summand is
what remains.  Routes differ only in their candidates and in the oracle
that says what the rest reaches.  An exact fold asks the suffix fold of
the remaining sets; its candidates are a finite set's elements, residue
representatives solved against that fold, a box's smallest digit per
coordinate, or an interval's share of the remainder.  The bounded search
asks one of two reachability oracles over its candidate lists: suffix
reachability bitsets on integer chains up to ``_BITSET_CAP`` bits wide, a
memoized predicate past it.  Either way its witness is the
lexicographically first in candidate order.

Bounded searches never produce a "no": growth certificates cap where
witnesses are *looked for*, not where they can exist.  Residue-envelope
sums are bitsets of residues up to ``_ENVELOPE_BITSET_CAP``, and past it
sets of residues up to the enumeration cap; a tail's share of the
envelope modulus is the divisor ``IntegerSequence.divisor_index`` finds.

Everything a membership reads of its sets alone comes from the command's
``FoldTable``: stars, exact folds, the CRT candidates of a residue set
per class of the remainder, divisor certificates, each tail's window of
tail divisors (the envelope modulus), residue envelopes per modulus, the
envelope sum of a chain per modulus and each tail's terms (the bounded
search's candidates, and the single-set and witness memberships).  So a
command reads each tail once, not once per membership, and an envelope
exclusion is one bit test against a kept sum; only the peel and the
witness check run per membership.  Proofs that name only a route, or a
route and a fold, are the table's one dict for them, shared by every
result that carries them and never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .groups import (GroupElement, Integers, enumeration_cap,
                     within_enumeration_cap)
from .setspec import (
    BoxSet,
    EnumerationBudgetError,
    FiniteSet,
    FoldTable,
    ResidueSet,
    SetLike,
    StarSet,
    SumsetUnsupported,
    SymmetricInterval,
    TailSet,
    divides,
    witness_holds,
)

_INTEGERS = Integers()


# Caps for the bounded decomposition search: at most per_set_candidates
# tail values per set, each with |x| <= value_cap_factor * n * max(|g|, 1).
SEARCH_BUDGET = {"per_set_candidates": 64, "value_cap_factor": 1}


@dataclass(frozen=True)
class MembershipResult:
    status: str  # "yes" | "no" | "unknown"
    witness: Optional[tuple] = None  # tuple[GroupElement, ...], summands
    proof: Optional[dict] = None
    note: str = ""

    def is_yes(self) -> bool:
        return self.status == "yes"

    def is_no(self) -> bool:
        return self.status == "no"

    def to_json(self) -> dict:
        doc = {"status": self.status}
        if self.witness is not None:
            doc["witness"] = [el.group.value_to_json(el.value)
                              for el in self.witness]
        if self.proof is not None:
            doc["proof"] = self.proof
        if self.note:
            doc["note"] = self.note
        return doc

    @classmethod
    def from_json(cls, group, doc: dict) -> "MembershipResult":
        """The result ``to_json`` wrote, the witness read in ``group``."""
        witness = doc.get("witness")
        return cls(doc["status"], None if witness is None else
                   tuple(group.element(v) for v in witness),
                   doc.get("proof"), doc.get("note", ""))


def _verify_witness(g: GroupElement, stars: Sequence[StarSet],
                    summands: Optional[Sequence[GroupElement]],
                    table: FoldTable) -> None:
    if summands is None or not witness_holds(g, summands, stars, table):
        raise AssertionError(f"witness for {g} does not re-verify")


def enumeration_capped(err: EnumerationBudgetError) -> MembershipResult:
    """An exact fold that would outgrow the enumeration cap decides
    nothing; the proof names the cap."""
    return MembershipResult(
        "unknown", note=str(err),
        proof={"route": "exact-fold", "enumeration_cap": enumeration_cap()},
    )


def _peel(g: GroupElement, n: int, candidates: Callable,
          rest_holds: Callable) -> Optional[tuple]:
    """The summand witness of g across n positions, by the one rule every
    route shares.

    Summands s peel off the left as (-s) + remainder: position i takes the
    first of ``candidates(i, remainder)`` (raw values) whose remainder
    ``rest_holds(i + 1, ...)``, and the last summand is whatever remains.
    None when position 0 has no such candidate.
    """
    group = g.group
    remainder = g.value
    values = []
    for i in range(n - 1):
        for cand in candidates(i, remainder):
            rest = group._add(group._neg(cand), remainder)
            if rest_holds(i + 1, rest):
                break
        else:
            return None  # only at i == 0: rest_holds vouched for the rest
        values.append(cand)
        remainder = rest
    values.append(remainder)
    return tuple(GroupElement(group, v) for v in values)


def _exact_candidates(st: StarSet, rem, rest_fold, table: FoldTable):
    """Candidate summands from a materialized star against the folded sum
    of the sets after it, given the raw remainder ``rem``.

    Residue-class summands are solved by CRT against the next fold, read
    from ``table`` (``FoldTable.crt_candidates``), since the right
    representative depends on the finer modulus downstream.  A box
    and an interval offer one candidate each: coordinate by coordinate
    the smallest digit the rest allows, and the share of the remainder in
    proportion to the radii.
    """
    base = st.base
    if isinstance(base, FiniteSet):
        for el in base.elements():
            yield el.value
        return
    if isinstance(base, ResidueSet):
        if isinstance(rest_fold, ResidueSet):
            yield from table.crt_candidates(base, rest_fold, rem)
            return
        if isinstance(rest_fold, FiniteSet):
            for el in rest_fold.elements():
                x = rem - el.value
                if x % base.modulus in base.residues:
                    yield x
            return
        raise SumsetUnsupported(
            f"no candidate rule against {type(rest_fold).__name__}"
        )
    if isinstance(base, BoxSet):
        yield tuple(min(d for d in base.coordinate_options(c)
                        if (r - d) % c in rest_fold.coordinate_options(c))
                    for c, r in enumerate(rem, start=1))
        return
    if isinstance(base, SymmetricInterval):
        yield rem * base.epsilon / (base.epsilon + rest_fold.epsilon)
        return
    raise SumsetUnsupported(f"no candidate rule for {type(base).__name__}")


def prefix_sum_membership(g: GroupElement, chain: Sequence[SetLike],
                          table: FoldTable) -> MembershipResult:
    """Decide g in S_0* + ... + S_{n-1}* for the given chain.

    Exact when every set supports exact sumsets or a divisor certificate
    applies; otherwise a bounded witness search that can only answer yes
    or unknown.  Inconclusiveness is a value, not an error.  The chain's
    stars and exact folds come from ``table``.
    """
    group = g.group
    for spec in chain:
        if spec.ambient() != group:
            raise ValueError("chain sets must share the probe's ambient group")
    stars = [table.star(s) for s in chain]
    n = len(stars)

    if n == 0:
        if g.is_identity():
            return MembershipResult("yes", witness=(),
                                    proof={"route": "empty-chain"})
        return MembershipResult("no", proof={"route": "empty-chain"})

    if g.is_identity():
        zeros = tuple(group.identity() for _ in stars)
        _verify_witness(g, stars, zeros, table)
        return MembershipResult("yes", witness=zeros,
                                proof={"route": "identity"})

    if n == 1:
        # Single-set membership is exact for every representation.
        if table.contains(stars[0], g):
            _verify_witness(g, stars, (g,), table)
            return MembershipResult("yes", witness=(g,),
                                    proof=table.proof("single-set"))
        return MembershipResult("no", proof=table.proof("single-set"))

    try:
        folds = table.suffix_folds(stars)
    except EnumerationBudgetError as err:
        return enumeration_capped(err)  # the bounded search may not finish
    if folds is not None:
        if not folds[0].contains_value(g.value):
            return MembershipResult(
                "no", proof=table.proof("exact-fold", folds[0]))
        witness = _peel(
            g, n,
            lambda i, r: _exact_candidates(stars[i], r, folds[i + 1], table),
            lambda i, r: folds[i].contains_value(r))
        _verify_witness(g, stars, witness, table)
        return MembershipResult("yes", witness=witness,
                                proof=table.proof("exact-fold"))

    # Integer chains: a common divisor of all candidate summands gives an
    # exact exclusion whenever it fails to divide the target.  Only they
    # can reach the bounded search with candidates: a chain of finite sets
    # over any group was decided by the exact fold above.
    if group == _INTEGERS:
        divisors = [table.divisor_certificate(st) for st in stars]
        d = 0
        for di in divisors:
            d = math.gcd(d, di)
        if not divides(d, g.value):
            return MembershipResult(
                "no",
                proof={"route": "divisor", "chain_divisor": d,
                       "per_set": divisors},
            )
        env_no = _envelope_exclusion(g, stars, table)
        if env_no is not None:
            return env_no
        found = _bounded_search(g, _plan(g, stars, table))
        if found is not None:
            _verify_witness(g, stars, found, table)
            return MembershipResult("yes", witness=found,
                                    proof={"route": "bounded-search"})

    return MembershipResult(
        "unknown",
        note="bounded search exhausted without a witness",
        proof={"route": "bounded-search", "budget": dict(SEARCH_BUDGET)},
    )


_ENVELOPE_LCM_CAP = 10 ** 12
_ENVELOPE_DIVISOR_SCAN = 40
# Widest Python-int bitset the bounded search builds, the suffix
# reachability of an integer chain of width 2R + 1.  At 2^22 bits a 5-set
# chain of 65 candidates per set builds its bitsets in about 0.06 s, where
# a memoized search over 3 such sets takes 0.1 s; the bitsets cost 2.6 s
# at 2^26.  Wider chains take the memoized reachability predicate.
_BITSET_CAP = 1 << 22
# Widest envelope sum kept as a bitset.  An envelope holds a few residues,
# so adding one is a few shifts of at most 8 MB.  Wider sums are sets of
# residues, given up past the enumeration cap.
_ENVELOPE_BITSET_CAP = 1 << 26


def _envelope_modulus(g: GroupElement, stars: Sequence[StarSet],
                      table: FoldTable) -> int:
    """A modulus at which every chain set should reduce exactly.

    Residue sets contribute their own moduli; for each tail the first tail
    divisor, read from ``table``, beyond the magnitude that n summands
    around g can reach.  Any choice is sound; this one keeps envelopes
    informative and small.
    """
    threshold = 2 * len(stars) * max(abs(g.value), 1)
    m = 1
    for st in dict.fromkeys(stars):  # an n-fold chain repeats one star
        base = st.base
        if isinstance(base, ResidueSet):
            m = math.lcm(m, base.modulus)
        elif isinstance(base, TailSet):
            found = table.divisor_index(base.sequence, base.start,
                                        _ENVELOPE_DIVISOR_SCAN,
                                        above=threshold)
            if found is None:
                return 1
            m = math.lcm(m, found[1])
        if m > _ENVELOPE_LCM_CAP:
            return 1
    return m


def _envelope_exclusion(g: GroupElement, stars: Sequence[StarSet],
                        table: FoldTable) -> Optional[MembershipResult]:
    """Exact exclusion by reducing every set to its residues mod a common
    modulus; applicable only when every envelope is exactly computable.
    The modulus, and the envelopes' sum and sizes, come from ``table``."""
    m = _envelope_modulus(g, stars, table)
    if m <= 1:
        return None
    found = table.envelope_sum(stars, m, _envelope_sum)
    if found is None or _in_envelope_sum(found[0], g.value % m):
        return None
    return MembershipResult(
        "no",
        proof={"route": "residue-envelope", "modulus": m,
               "envelope_sizes": list(found[1])},
    )


def _envelope_sum(envelopes: Sequence[frozenset], m: int):
    """The residues of the sum of the envelopes mod m; None when that sum
    saturates, so no exclusion is possible, or when a sum past
    ``_ENVELOPE_BITSET_CAP`` would pair more residues than the enumeration
    cap.  Up to the bitset cap the sum is a bitset of m residues, each
    envelope added by shifting and folding the overflow back (a
    rotate-and-OR); past it, a frozenset of residues.
    ``_in_envelope_sum`` reads either."""
    if m <= _ENVELOPE_BITSET_CAP:
        full = (1 << m) - 1
        acc = 1
        for env in envelopes:
            shifted = 0
            for b in env:
                shifted |= acc << b
            acc = (shifted & full) | (shifted >> m)
            if acc == full:
                return None
        return acc
    acc = {0}
    for env in envelopes:
        if not within_enumeration_cap(len(acc) * len(env)):
            return None
        acc = {(a + b) % m for a in acc for b in env}
        if len(acc) == m:
            return None
    return frozenset(acc)


def _in_envelope_sum(residues, r: int) -> bool:
    """Whether residue r lies in a sum ``_envelope_sum`` built."""
    if isinstance(residues, int):
        return residues >> r & 1 == 1
    return r in residues


def _plan(g: GroupElement, stars: Sequence[StarSet],
          table: FoldTable) -> Optional[list]:
    """One candidate list per set of an integer chain: a finite set's
    elements, or 0 and then +v, -v for each tail value v under the
    budget's caps, read from ``table``.  None when some set has no finite
    candidate list."""
    cap = SEARCH_BUDGET["value_cap_factor"] * len(stars) * max(abs(g.value), 1)
    per_set = SEARCH_BUDGET["per_set_candidates"]
    plan = []
    for i, st in enumerate(stars):
        if i and st is stars[i - 1]:  # an n-fold chain repeats its star
            plan.append(plan[-1])
        elif isinstance(st.base, FiniteSet):
            plan.append([el.value for el in st.base.elements()])
        elif isinstance(st.base, TailSet):
            cand = [0]
            for v in table.member_values(st.base, cap)[:per_set]:
                cand.extend((v, -v))
            plan.append(cand)
        else:
            return None
    return plan


def _bounded_search(g: GroupElement,
                    cands: Optional[list]) -> Optional[tuple]:
    """The lexicographically first witness in candidate order, or None.

    Only applicable to integer chains whose every set yields candidates
    (finite sets and tails).  Chains of width 2R + 1 <= ``_BITSET_CAP``,
    R the sum of the largest candidate magnitudes, ask suffix reachability
    bitsets what the rest reaches, wider ones a memoized predicate; both
    answer the same, so the peel returns the same witness.
    """
    if cands is None:
        return None
    suffix_abs = [0] * (len(cands) + 1)
    for i in range(len(cands) - 1, -1, -1):
        suffix_abs[i] = suffix_abs[i + 1] + max(map(abs, cands[i]),
                                                default=0)
    if 2 * suffix_abs[0] + 1 <= _BITSET_CAP:
        reaches = _reach_by_bitsets(cands, suffix_abs[0])
    else:
        reaches = _reach_by_memo(cands, suffix_abs)
    return _peel(g, len(cands), lambda i, r: cands[i], reaches)


def _reach_by_bitsets(cands: list, span: int) -> Callable:
    """Suffix reachability: bit r + span of reach[i] says that lists
    i..n-1 can sum to r."""
    n = len(cands)
    reach = [0] * (n + 1)
    reach[n] = 1 << span
    for i in range(n - 1, 0, -1):
        nxt = reach[i + 1]
        bits = 0
        for v in set(cands[i]):
            bits |= nxt << v if v >= 0 else nxt >> -v
        reach[i] = bits

    def reaches(i: int, r: int) -> bool:
        return abs(r) <= span and reach[i] >> (r + span) & 1 == 1

    return reaches


def _reach_by_memo(cands: list, suffix_abs: list) -> Callable:
    """Whether lists i..n-1 can sum to r, tried in candidate order.  The
    lists depend only on the position, so each (position, remainder)
    state is decided once and remembered; remainders beyond what the rest
    can reach (``suffix_abs``) are pruned."""
    n = len(cands)
    known: dict = {}

    def reaches(i: int, r: int) -> bool:
        if i == n:
            return r == 0
        if abs(r) > suffix_abs[i]:
            return False
        if (i, r) not in known:
            known[i, r] = any(reaches(i + 1, r - v) for v in cands[i])
        return known[i, r]

    return reaches
