"""Membership of an element in a sum of symmetrized sets.

``prefix_sum_membership`` decides g in S_0* + ... + S_{n-1}* with honest
three-valued semantics:

* yes  -- always accompanied by an explicit summand witness, re-verified
          by group addition before it is returned;
* no   -- only from an exact route: a folded exact sumset, a divisor
          certificate over integer chains, or full enumeration of finite
          sets;
* unknown -- a bounded search ran out of candidates without deciding.

Bounded searches never produce a "no": growth certificates cap where
witnesses are *looked for*, not where they can exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .groups import GroupElement, Integers, op_add
from .setspec import (
    BoxSet,
    FiniteSet,
    ResidueSet,
    SetLike,
    StarSet,
    SumsetUnsupported,
    SymmetricInterval,
    TailSet,
    contains,
    divides,
    divisor_certificate,
    residue_envelope,
    star,
    sumset,
    witness_holds,
)

_INTEGERS = Integers()


# Caps for the bounded decomposition search: at most per_set_candidates
# tail values per set, each with |x| <= value_cap_factor * n * max(|g|, 1).
SEARCH_BUDGET = {"per_set_candidates": 64, "value_cap_factor": 1}


@dataclass(frozen=True)
class MembershipResult:
    status: str  # "yes" | "no" | "unknown"
    # tuple[GroupElement, ...]; uq_membership's are (DyadicIndex, element)
    witness: Optional[tuple] = None
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


def _verify_witness(g: GroupElement, stars: Sequence[StarSet],
                    summands: Sequence[GroupElement]) -> None:
    if not witness_holds(g, summands, stars):
        raise AssertionError(f"witness for {g} does not re-verify")


def _fold_exact(stars: Sequence[StarSet]):
    """Fold stars into suffix sumsets; None when some pair is unsupported.

    Returns folds with folds[i] = S_i* + ... + S_{n-1}*.
    """
    folds: list = [None] * len(stars)
    acc = None
    try:
        for i in range(len(stars) - 1, -1, -1):
            st = stars[i]
            if not st.materialized:
                return None
            acc = st.base if acc is None else sumset(st, acc)
            folds[i] = acc
    except SumsetUnsupported:
        return None
    return folds


def _crt(a: int, m: int, b: int, n: int) -> Optional[int]:
    """x with x = a (mod m) and x = b (mod n), or None when incompatible."""
    g = math.gcd(m, n)
    if (b - a) % g != 0:
        return None
    step = n // g
    t = ((b - a) // g * pow(m // g, -1, step)) % step if step > 1 else 0
    return a + m * t


def _decompose_exact(g: GroupElement, stars: Sequence[StarSet],
                     folds: Sequence) -> tuple:
    """Build a summand witness for an exact-fold "yes", variant by variant.

    Peels each summand s off the left, keeping (-s) + remainder inside the
    folded sum of the remaining sets; the final summand is the remainder.
    Residue-class summands are solved by CRT against the next fold, since
    the right representative depends on the finer modulus downstream.
    """
    group = g.group
    remainder = g
    summands = []
    for i, st in enumerate(stars[:-1]):
        nxt = folds[i + 1]
        choice = None
        for cand in _exact_candidates(st, remainder, nxt):
            rest = op_add(GroupElement(group, group._neg(cand)), remainder)
            if nxt.contains_value(rest.value):
                choice = GroupElement(group, cand)
                remainder = rest
                break
        if choice is None:
            raise AssertionError(
                "exact fold said yes but no summand choice works"
            )
        summands.append(choice)
    summands.append(remainder)
    return tuple(summands)


def _exact_candidates(st: StarSet, remainder: GroupElement, rest_fold):
    """Deterministic candidate summands from a materialized star-set.

    Only finite and residue sets reach this point; interval and box chains
    have dedicated decomposition rules.
    """
    base = st.base
    if isinstance(base, FiniteSet):
        for el in base.elements():
            yield el.value
        return
    if isinstance(base, ResidueSet):
        m = base.modulus
        rem = remainder.value
        if isinstance(rest_fold, ResidueSet):
            n = rest_fold.modulus
            seen = set()
            for r in sorted(base.residues):
                for r2 in sorted(rest_fold.residues):
                    x = _crt(r, m, (rem - r2) % n, n)
                    if x is not None and x not in seen:
                        seen.add(x)
                        lcm = m * n // math.gcd(m, n)
                        yield x if x <= lcm // 2 else x - lcm
            return
        if isinstance(rest_fold, FiniteSet):
            for el in rest_fold.elements():
                x = rem - el.value
                if x % m in base.residues:
                    yield x
            return
        raise SumsetUnsupported(
            f"no candidate rule against {type(rest_fold).__name__}"
        )
    raise SumsetUnsupported(f"no candidate rule for {type(base).__name__}")


def _interval_decompose(g: GroupElement, stars: Sequence[StarSet]) -> tuple:
    """Proportional exact split of a rational across interval star-sets."""
    eps = [st.base.epsilon for st in stars]
    total = sum(eps)
    group = g.group
    value = g.value
    summands = []
    for i, e in enumerate(eps[:-1]):
        share = value * e / total
        summands.append(GroupElement(group, share))
        value -= share
        total -= e
    summands.append(GroupElement(group, value))
    return tuple(summands)


def _box_decompose(g: GroupElement, stars: Sequence[StarSet],
                   folds: Sequence) -> tuple:
    """Coordinatewise digit choice with lookahead into the folded rest."""
    n = len(stars)
    n_coords = g.group.n_coords
    vectors = [[0] * n_coords for _ in range(n)]
    for i in range(n_coords):
        coord = i + 1
        rem = g.value[i]
        for s in range(n - 1):
            rest_opts = folds[s + 1].coordinate_options(coord)
            chosen = None
            for d in sorted(stars[s].base.coordinate_options(coord)):
                if (rem - d) % coord in rest_opts:
                    chosen = d
                    break
            assert chosen is not None, "coordinate fold inconsistent"
            vectors[s][i] = chosen
            rem = (rem - chosen) % coord
        vectors[n - 1][i] = rem
    return tuple(g.group.element(v) for v in vectors)


def _search_candidates(st: StarSet, g_abs: int,
                       n_sets: int) -> Optional[list]:
    """Finite candidate list for the bounded search, or None if unbounded."""
    base = st.base
    if isinstance(base, FiniteSet):
        vals = [el.value for el in base.elements()]
        return vals, True  # complete enumeration
    if isinstance(base, TailSet):
        cap = SEARCH_BUDGET["value_cap_factor"] * n_sets * max(g_abs, 1)
        vals = base.member_values(cap)
        out = [0]
        for v in vals[: SEARCH_BUDGET["per_set_candidates"]]:
            out.extend((v, -v))
        return out, False
    return None


def prefix_sum_membership(g: GroupElement,
                          chain: Sequence[SetLike]) -> MembershipResult:
    """Decide g in S_0* + ... + S_{n-1}* for the given chain.

    Exact when every set supports exact sumsets or a divisor certificate
    applies; otherwise a bounded witness search that can only answer yes
    or unknown.  Inconclusiveness is a value, not an error.
    """
    group = g.group
    for spec in chain:
        if spec.ambient() != group:
            raise ValueError("chain sets must share the probe's ambient group")
    stars = [star(s) for s in chain]
    n = len(stars)

    if n == 0:
        if g.is_identity():
            return MembershipResult("yes", witness=(),
                                    proof={"route": "empty-chain"})
        return MembershipResult("no", proof={"route": "empty-chain"})

    if g.is_identity():
        zeros = tuple(group.identity() for _ in stars)
        _verify_witness(g, stars, zeros)
        return MembershipResult("yes", witness=zeros,
                                proof={"route": "identity"})

    if n == 1:
        # Single-set membership is exact for every representation.
        if contains(stars[0], g):
            _verify_witness(g, stars, (g,))
            return MembershipResult("yes", witness=(g,),
                                    proof={"route": "single-set"})
        return MembershipResult("no", proof={"route": "single-set"})

    folds = _fold_exact(stars)
    if folds is not None:
        if not folds[0].contains_value(g.value):
            return MembershipResult(
                "no",
                proof={"route": "exact-fold", "fold": folds[0].to_json()},
            )
        if all(isinstance(st.base, SymmetricInterval) for st in stars):
            witness = _interval_decompose(g, stars)
        elif all(isinstance(st.base, BoxSet) for st in stars):
            witness = _box_decompose(g, stars, folds)
        else:
            witness = _decompose_exact(g, stars, folds)
        _verify_witness(g, stars, witness)
        return MembershipResult("yes", witness=witness,
                                proof={"route": "exact-fold"})

    # Integer chains: a common divisor of all candidate summands gives an
    # exact exclusion whenever it fails to divide the target.
    if group == _INTEGERS:
        divisors = [divisor_certificate(st) for st in stars]
        d = 0
        for di in divisors:
            d = math.gcd(d, di)
        if not divides(d, g.value):
            return MembershipResult(
                "no",
                proof={"route": "divisor", "chain_divisor": d,
                       "per_set": divisors},
            )
        env_no = _envelope_exclusion(g, stars)
        if env_no is not None:
            return env_no

    plan = _plan(g, stars)
    found = _bounded_search(g, stars, plan)
    if found is not None:
        _verify_witness(g, stars, found)
        return MembershipResult("yes", witness=found,
                                proof={"route": "bounded-search"})

    if plan is not None and all(complete for _, complete in plan):
        return MembershipResult("no", proof={"route": "finite-enumeration"})
    return MembershipResult(
        "unknown",
        note="bounded search exhausted without a witness",
        proof={"route": "bounded-search", "budget": dict(SEARCH_BUDGET)},
    )


_ENVELOPE_LCM_CAP = 10 ** 12
_ENVELOPE_DIVISOR_SCAN = 40


def _envelope_modulus(g: GroupElement, stars: Sequence[StarSet],
                      n_sets: int) -> int:
    """A modulus at which every chain set should reduce exactly.

    Residue sets contribute their own moduli; for each tail the first tail
    divisor beyond the magnitude that n summands around g can reach.  Any
    choice is sound; this one keeps envelopes informative and small.
    """
    g_abs = abs(g.value)
    threshold = 2 * n_sets * max(g_abs, 1)
    m = 1
    for st in stars:
        base = st.base
        if isinstance(base, ResidueSet):
            m = math.lcm(m, base.modulus)
        elif isinstance(base, TailSet):
            seq = base.sequence
            t = base.start
            chosen = None
            while seq.in_range(t) and t <= base.start + _ENVELOPE_DIVISOR_SCAN:
                d = seq.tail_divisor(t)
                if d > threshold:
                    chosen = d
                    break
                t += 1
            if chosen is None:
                return 1
            m = math.lcm(m, chosen)
        if m > _ENVELOPE_LCM_CAP:
            return 1
    return m


def _envelope_exclusion(g: GroupElement, stars: Sequence[StarSet]
                        ) -> Optional[MembershipResult]:
    """Exact exclusion by reducing every set to its residues mod a common
    modulus; applicable only when every envelope is exactly computable."""
    m = _envelope_modulus(g, stars, len(stars))
    if m <= 1:
        return None
    envelopes = []
    for st in stars:
        env = residue_envelope(st, m)
        if env is None:
            return None
        envelopes.append(env)
    acc = {0}
    for env in envelopes:
        acc = {(a + b) % m for a in acc for b in env}
        if len(acc) == m:
            return None  # envelope sum saturates; no exclusion possible
    if g.value % m in acc:
        return None
    return MembershipResult(
        "no",
        proof={"route": "residue-envelope", "modulus": m,
               "envelope_sizes": [len(e) for e in envelopes]},
    )


def _plan(g, stars) -> Optional[list]:
    """One (candidates, complete) pair per set, or None when some set has
    no finite candidate list."""
    g_abs = abs(g.value) if isinstance(g.value, int) else 0
    plan = []
    for st in stars:
        cand = _search_candidates(st, g_abs, len(stars))
        if cand is None:
            return None
        plan.append(cand)
    return plan


def _bounded_search(g: GroupElement, stars: Sequence[StarSet],
                    plan: Optional[list]) -> Optional[tuple]:
    """Depth-first decomposition search over finite candidate lists.

    Only applicable when every set yields candidates (finite sets and
    certified tails).  Summands v peel off the left: (-v) + remainder.
    Prunes on the reachable-magnitude envelope of the rest for integers.
    """
    if plan is None:
        return None
    group = g.group
    is_int = group == _INTEGERS
    cands = [c for c, _ in plan]
    max_abs = [max((abs(v) for v in c), default=0) if is_int else None
               for c in cands]
    suffix_reach = [0] * (len(stars) + 1)
    if is_int:
        for i in range(len(stars) - 1, -1, -1):
            suffix_reach[i] = suffix_reach[i + 1] + max_abs[i]

    out: list = []

    def dfs(i: int, remainder) -> bool:
        if i == len(stars):
            return remainder == group.identity_value()
        if is_int and abs(remainder) > suffix_reach[i]:
            return False
        for v in cands[i]:
            out.append(GroupElement(group, v))
            nxt = group._add(group._neg(v), remainder)
            if dfs(i + 1, nxt):
                return True
            out.pop()
        return False

    if dfs(0, g.value):
        return tuple(out)
    return None


def decomposition_recheck(g: GroupElement, chain: Sequence[SetLike]) -> bool:
    """Independent brute-force search: True when some witness exists within
    the ``SEARCH_BUDGET`` caps.  Used to cross-examine "no" proofs."""
    stars = [star(s) for s in chain]
    if g.is_identity():
        return True
    return _bounded_search(g, stars, _plan(g, stars)) is not None
