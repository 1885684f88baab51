"""Certified reproductions of the three counterexample constructions.

* square-root residue chains over the integers: the family satisfying the
  n-fold exclusion condition whose prefix sums nevertheless cover all of Z
  (so the finest topology it determines is not Hausdorff);
* coordinate boxes in a truncated product of cyclic groups: prefix sums
  cover the whole group while the n-fold exclusion union stays small;
* symmetric rational intervals: a one-step exclusion that cannot be
  extended.

Every verification returns a report whose witnesses re-verify by plain
group addition.  Each kind's replayer sits beside its producer and
returns the report it rebuilds: ``replay_sqrt7_necessary`` applies the
producer's rule (``sqrt7_necessary_rule``) to the payload, and every
other kind's id names its inputs, so its ``rerun_*`` replayer re-runs
the capped producer on them, whose cap refuses a crafted id before
anything is built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .groups import (
    GroupElement,
    Integers,
    ProductMod,
    Rationals,
    check_enumeration_cap,
    enumeration_cap,
)
from .prefixsum import prefix_sum_membership
from .report import Status, VerificationReport, id_numbers
from .setspec import (
    BoxSet,
    FoldTable,
    ResidueSet,
    SetLike,
    SymmetricInterval,
    contains,
    n_fold_star,
    spec_from_json,
    star,
    subset_of,
    suffix_folds,
    witness_holds,
)

_INTEGERS = Integers()
_RATIONALS = Rationals()
_ONE = _RATIONALS.element(1)
_UNIT = SymmetricInterval.of(1)  # the open unit interval


class HenselError(ValueError):
    pass


@dataclass(frozen=True)
class HenselWitness:
    """A square root of ``a`` modulo p^k, lifted level by level."""

    p: int
    a: int
    k: int
    root: int

    def __post_init__(self):
        pk = self.p ** self.k
        if (self.root * self.root - self.a) % pk != 0:
            raise HenselError("root fails its congruence")
        if (2 * self.root) % self.p == 0:
            raise HenselError("derivative not a unit; lifting undefined")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


# Largest prime accepted: the level-1 root is found by scanning all p
# residues (about 0.2 s at the cap) after trial division up to sqrt(p).
HENSEL_P_CAP = 10 ** 6


def _level1_roots(a: int, p: int) -> list:
    """Every square root of a modulo p, by scanning all p residues."""
    return [c for c in range(p) if (c * c - a) % p == 0]


def hensel_roots(a: int, p: int, k: int) -> Iterator[int]:
    """The canonical square roots of a modulo p, p^2, ..., p^k.

    One scan finds the level-1 root min(c, p - c); every later level is
    the Newton iterate of the one before.  Raises when a is not a
    quadratic residue mod p (e.g. a = 2, p = 3), and for p past
    ``HENSEL_P_CAP`` before any search starts.
    """
    if k < 1:
        raise HenselError("level k must be positive")
    if p > HENSEL_P_CAP:
        raise HenselError(f"p must not exceed {HENSEL_P_CAP}")
    if p < 3 or not _is_prime(p):
        raise HenselError("p must be an odd prime")
    if a % p == 0:
        raise HenselError("p must not divide a")
    roots = _level1_roots(a, p)
    if not roots:
        raise HenselError(f"{a} is not a quadratic residue mod {p}")
    c = min(roots)
    yield c
    modulus = p
    for level in range(2, k + 1):
        modulus *= p
        # Newton step: c <- c - (c^2 - a) / (2c), exact modulo p^level.
        inv = pow(2 * c, -1, modulus)
        c = (c - (c * c - a) * inv) % modulus
        yield c


@lru_cache(maxsize=1024)
def hensel_sqrt(a: int = 7, p: int = 3, k: int = 1) -> HenselWitness:
    """Square root of a modulo p^k by iterated lifting from level 1.

    The canonical representative is the lift of min(c, p - c) for the
    level-1 root c, so certificates are reproducible byte for byte.
    Raises as ``hensel_roots`` does.
    """
    for root in hensel_roots(a, p, k):
        pass
    return HenselWitness(p=p, a=a, k=k, root=root)


def verify_hensel(a: int, p: int, k: int) -> VerificationReport:
    """The table of canonical square roots of a modulo p, ..., p^k, each
    accepted by ``HenselWitness``, and their congruence chain: verified
    when each root agrees with the one before it modulo that one's
    modulus.  Raises as ``hensel_roots`` does, and EnumerationBudgetError
    before any root is lifted when the table's bits pass the cap: level j
    writes numbers of about j digits in base p."""
    bits = k * k * p.bit_length() // 2
    check_enumeration_cap(f"the hensel table to k={k} writes about {bits} "
                          f"bits", bits)
    levels = [{"k": level, "modulus": p ** level,
               "root": HenselWitness(p, a, level, root).root}
              for level, root in enumerate(hensel_roots(a, p, k), start=1)]
    chain = all((row["root"] - prev["root"]) % prev["modulus"] == 0
                for prev, row in zip(levels, levels[1:]))
    return VerificationReport(
        claim=f"hensel:p={p}:a={a}:k={k}",
        status=Status.VERIFIED if chain else Status.REFUTED,
        payload={"levels": levels, "congruence_chain": chain},
    )


def rerun_hensel(claim: dict, table: FoldTable) -> VerificationReport:
    p, a, k = id_numbers(r"hensel:p=(-?\d+):a=(-?\d+):k=(-?\d+)", claim)
    return verify_hensel(a, p, k)


# The paper's chain lives in the 3-adic square roots of 7.
SQRT7_A, SQRT7_P = 7, 3


def sqrt7_set(k: int) -> ResidueSet:
    """Integers whose residue mod 3^k is 0 or a square root of 7."""
    if k < 1:
        raise ValueError("k must be positive")
    w = hensel_sqrt(SQRT7_A, SQRT7_P, k)
    pk = SQRT7_P ** k
    return ResidueSet.of(pk, {0, w.root, (pk - w.root) % pk})


@dataclass(frozen=True)
class DecompositionWitness:
    """Summands drawn from named star-sets totalling the target."""

    target: GroupElement
    summands: tuple  # tuple[GroupElement, ...]
    sources: tuple  # tuple[SetLike, ...], parallel to summands

    def verify(self) -> bool:
        return witness_holds(self.target, self.summands, self.sources)

    def to_json(self) -> dict:
        group = self.target.group
        return {
            "type": "decomposition",
            "group": group.describe(),
            "target": group.value_to_json(self.target.value),
            "summands": [group.value_to_json(s.value) for s in self.summands],
            "sets": [star(src).to_json() for src in self.sources],
        }


def verify_sqrt7_necessary(g: int, n: int,
                           table: Optional[FoldTable] = None
                           ) -> VerificationReport:
    """Exact check that g avoids the n-fold sum of a deep enough chain set.

    Picks the smallest level k at which p^k divides none of the integers
    g^2 - a m^2 for 0 <= m <= n, confirms by residue arithmetic that g is
    outside the n-fold starred set at that level, and cross-checks that
    the crude level bound p^k > max(g^2, a n^2) also works.  The n-fold
    sets come from ``table``, a fresh one when None.
    """
    if g == 0:
        raise ValueError("g must be nonzero")
    if n < 1:
        raise ValueError("n must be positive")
    if table is None:
        table = FoldTable()
    a, p = SQRT7_A, SQRT7_P
    targets = [g * g - a * m * m for m in range(n + 1)]  # 7 is no square

    def divides_none(k: int) -> bool:
        pk = p ** k
        return all(t % pk != 0 for t in targets)

    k = 1
    while not divides_none(k):
        k += 1
    member = sqrt7_set(k)
    folded = table.n_fold_star(member, n)

    k_bound = 1
    while p ** k_bound <= max(g * g, a * n * n):
        k_bound += 1
    bound_fold = table.n_fold_star(sqrt7_set(k_bound), n)
    bound_ok = divides_none(k_bound) and \
        not bound_fold.contains_value(g) and not bound_fold.contains_value(-g)

    excluded, status = sqrt7_necessary_rule(g, folded, bound_ok, k, k_bound)
    return _sqrt7_necessary_report(g, n, status, {
        "k": k,
        "k_bound": k_bound,
        "divisibility_targets": targets,
        "member": member.to_json(),
        "n_fold": folded.to_json(),
        "excluded": excluded,
        "bound_level_also_excludes": bound_ok,
    })


def _sqrt7_necessary_report(g: int, n: int, status: Status,
                            payload: dict) -> VerificationReport:
    """The one writer of a sqrt7-necessary claim's id and budgets."""
    return VerificationReport(f"sqrt7-necessary:g={g}:n={n}", status,
                              payload, {"n": n})


def sqrt7_necessary_rule(g: int, folded: ResidueSet, bound_ok: bool,
                         k: int, k_bound: int) -> tuple:
    """(excluded, status) of a sqrt7-necessary claim: whether the n-fold
    set ``folded`` misses g and -g, and verified when it does, so does the
    bound-level fold, and the level k is at most the bound level."""
    excluded = not folded.contains_value(g) and not folded.contains_value(-g)
    ok = excluded and bound_ok and k <= k_bound
    return excluded, Status.VERIFIED if ok else Status.REFUTED


def replay_sqrt7_necessary(claim: dict,
                           table: FoldTable) -> VerificationReport:
    """The rule's ``excluded`` and status on the recorded member and
    bound-level facts, which are not re-folded; the id and budgets are
    rebuilt from g and n, and the other payload fields pass through."""
    g, n = id_numbers(r"sqrt7-necessary:g=(-?\d+):n=(\d+)", claim)
    payload = claim["payload"]
    folded = table.n_fold_star(spec_from_json(payload["member"]), n)
    excluded, status = sqrt7_necessary_rule(
        g, folded, payload["bound_level_also_excludes"], payload["k"],
        payload["k_bound"])
    if payload["excluded"] and not excluded:
        raise AssertionError("target re-enters the n-fold set")
    kept = ("bound_level_also_excludes", "divisibility_targets", "k",
            "k_bound", "member", "n_fold")
    return _sqrt7_necessary_report(
        g, n, status, {**{k: payload[k] for k in kept}, "excluded": excluded})


def _lifted_member(m_i: int, m0: int) -> int:
    """An element of the level-m_i chain set congruent mod 3^m0 to the
    canonical level-m0 root."""
    c0 = hensel_sqrt(SQRT7_A, SQRT7_P, m0).root
    if m_i <= m0:
        return c0  # the chain set at a shallower level contains it already
    # the canonical lift stays congruent
    return hensel_sqrt(SQRT7_A, SQRT7_P, m_i).root


def sqrt7_cover_witness(g: int, m0: int,
                        ms: Sequence[int]) -> DecompositionWitness:
    """The explicit decomposition of g across the chain sets at levels
    m0, m1, ..., following the residue recipe.

    h copies of a lifted root plus zeros land in the right class modulo
    3^m0; one multiple of 3^m0 drawn from the level-m0 set closes the gap.
    """
    pk = SQRT7_P ** m0
    if len(ms) != pk:
        raise ValueError(f"need exactly {pk} follower levels")
    c0 = hensel_sqrt(SQRT7_A, SQRT7_P, m0).root
    h = (g * pow(c0, -1, pk)) % pk
    summands = [0] * len(ms)
    for slot in range(h):
        summands[slot] = _lifted_member(ms[slot], m0)
    corrector = g - sum(summands)
    assert corrector % pk == 0, "recipe must leave a multiple of 3^m0"
    group = _INTEGERS
    return DecompositionWitness(
        target=group.element(g),
        summands=tuple(group.element(v) for v in [corrector] + summands),
        sources=tuple(sqrt7_set(m) for m in [m0, *ms]),
    )


def _check_cover_cap(m0: int, deepest: int) -> None:
    """Each of the cover's 3^m0 + 1 suffix folds holds at most 3^deepest
    residues; refuse when they could pass the enumeration cap together.
    3^(m0 + deepest) alone passes it once m0 + deepest reaches the cap's
    bit length, so no larger power is taken: 2 to that length stands in
    for it."""
    what, top = f"the sqrt7 cover at m0={m0}", m0 + deepest
    reach = enumeration_cap().bit_length()
    if top >= reach:
        check_enumeration_cap(f"{what} folds more than 3^{top} residues",
                              2 ** reach)
    held = (SQRT7_P ** m0 + 1) * SQRT7_P ** deepest
    check_enumeration_cap(f"{what} folds up to {held} residues", held)


def sqrt7_cover_levels(m0: int) -> list:
    """The follower levels ``verify sqrt7 --cover-m0`` draws: 3^m0 copies
    of m0.  The cap is checked from m0 alone, before the list is built."""
    _check_cover_cap(m0, m0)
    return [m0] * SQRT7_P ** m0


def verify_sqrt7_U_full(m0: int, ms: Sequence[int],
                        sample_gs: Sequence[int]) -> VerificationReport:
    """Exact proof that the starred chain sets at levels m0, m1, ... sum to
    all of Z, with explicit re-verified witnesses for the samples.

    Raises EnumerationBudgetError before any set is built when the suffix
    folds could hold more than the enumeration cap between them, or the
    samples' witnesses of 3^m0 + 1 summands each could.
    """
    if m0 < 1:
        raise ValueError("m0 must be positive")
    _check_cover_cap(m0, max([m0, *ms]))
    if len(ms) != SQRT7_P ** m0:
        raise ValueError(f"need exactly {SQRT7_P ** m0} follower levels")
    check_enumeration_cap(
        f"the sqrt7 cover at m0={m0} writes {len(sample_gs)} witnesses of "
        f"{len(ms) + 1} summand values each", len(sample_gs) * (len(ms) + 1))
    return _verify_cover(
        f"sqrt7-cover:m0={m0}:ms={','.join(map(str, ms))}",
        "sum_equals_all_residues",
        [sqrt7_set(m) for m in [m0, *ms]],
        [sqrt7_cover_witness(g, m0, ms) for g in sample_gs])


def rerun_sqrt7_cover(claim: dict, table: FoldTable) -> VerificationReport:
    """The id names m0 and the follower levels, and the witnesses name
    their targets, read as integers."""
    m0, = id_numbers(r"sqrt7-cover:m0=(\d+):ms=(?:\d+,)*\d+", claim)
    ms = [int(m) for m in claim["claim"].partition(":ms=")[2].split(",")]
    return verify_sqrt7_U_full(m0, ms, [
        _INTEGERS.element(w["target"]).value
        for w in claim["payload"]["witnesses"]])


def _verify_cover(claim: str, flag: str, sources: Sequence[SetLike],
                  witnesses: Sequence[DecompositionWitness]
                  ) -> VerificationReport:
    """A cover claim on the suffix fold of the starred ``sources``: its
    ``flag`` says whether the fold contains the whole group (Z as 0 mod 1,
    a product as the unconstrained box), and it is verified when it does
    and every sample's witness holds."""
    folded = suffix_folds([star(src) for src in sources])[0]
    whole = BoxSet(folded.n_coords, ()) if isinstance(folded, BoxSet) \
        else ResidueSet.of(1, [0])
    covers = subset_of(whole, folded)
    ok = covers and all(w.verify() for w in witnesses)
    return VerificationReport(
        claim=claim,
        status=Status.VERIFIED if ok else Status.REFUTED,
        payload={
            flag: covers,
            "fold": folded.to_json(),
            "witnesses": [w.to_json() for w in witnesses],
        },
        budgets={"samples": len(witnesses)},
    )


def product_set(n_coords: int, m: int) -> BoxSet:
    """Box whose first m coordinates are images of {-1, 0, 1}."""
    if not 1 <= m <= n_coords:
        raise ValueError("need 1 <= m <= coordinate count")
    allowed = []
    for coord in range(1, m + 1):
        allowed.append({v % coord for v in (-1, 0, 1)})
    return BoxSet.of(n_coords, allowed)


def product_cover_witness(g: GroupElement, m0: int,
                          ms: Sequence[int]) -> DecompositionWitness:
    """Decomposition of g across box sets at levels m0, m1, ..., m_{m0}.

    Coordinates up to m0 are written as sums of digits in {-1, 0, 1}
    spread over the follower summands; the level-m0 summand carries every
    later coordinate of g unchanged.
    """
    group = g.group
    if not isinstance(group, ProductMod):
        raise ValueError("witness lives in a truncated product group")
    if len(ms) != m0:
        raise ValueError(f"need exactly {m0} follower levels")
    n_coords = group.n_coords
    vectors = [[0] * n_coords for _ in range(m0 + 1)]
    for i in range(n_coords):
        coord = i + 1
        if coord <= m0:
            r = g.value[i] if g.value[i] <= coord // 2 else g.value[i] - coord
            digit = 1 if r > 0 else -1
            for slot in range(1, abs(r) + 1):
                vectors[slot][i] = digit % coord
        else:
            vectors[0][i] = g.value[i]
    sources = [product_set(n_coords, m0)] + \
        [product_set(n_coords, m) for m in ms]
    return DecompositionWitness(
        target=g,
        summands=tuple(group.element(v) for v in vectors),
        sources=tuple(sources),
    )


def product_cover_levels(n_coords: int, m0: int) -> list:
    """The follower levels min(m0 + i + 1, N) for i < m0, the ones a
    product-cover id names.  Each of the cover's m0 + 1 suffix folds
    holds at most 1 + 2 + ... + m0 residues, and the cap is checked from
    m0 alone before the list is built."""
    held = (m0 + 1) * m0 * (m0 + 1) // 2
    check_enumeration_cap(f"the product cover at m0={m0} folds up to {held} "
                          f"residues", held)
    return [min(m0 + i + 1, n_coords) for i in range(m0)]


def verify_product_sum_full(n_coords: int, m0: int, ms: Sequence[int],
                            sample_gs: Sequence[GroupElement]
                            ) -> VerificationReport:
    """Exact box-sumset proof that the starred boxes cover the whole
    truncated product, with re-verified per-sample witnesses.  The
    follower levels must be ``product_cover_levels``', which the claim's
    id names.  Raises EnumerationBudgetError before any witness is built
    when the samples' witnesses, m0 + 1 summands of N coordinates each,
    could pass the enumeration cap."""
    if list(ms) != product_cover_levels(n_coords, m0):
        raise ValueError("the follower levels must be min(m0 + i + 1, N) "
                         "for i < m0")
    values = (m0 + 1) * n_coords
    check_enumeration_cap(
        f"the product cover at m0={m0} writes {len(sample_gs)} witnesses of "
        f"{values} summand values each", len(sample_gs) * values)
    return _verify_cover(
        f"product-cover:N={n_coords}:m0={m0}", "sum_covers_group",
        [product_set(n_coords, m) for m in [m0, *ms]],
        [product_cover_witness(g, m0, ms) for g in sample_gs])


def rerun_product_cover(claim: dict, table: FoldTable) -> VerificationReport:
    """The id names N and m0, and the witnesses name their targets, read
    in the N-coordinate product."""
    n_coords, m0 = id_numbers(r"product-cover:N=(\d+):m0=(\d+)", claim)
    group = ProductMod(n_coords)
    return verify_product_sum_full(
        n_coords, m0, product_cover_levels(n_coords, m0),
        [group.element(w["target"]) for w in claim["payload"]["witnesses"]])


def small_representable(coord: int, n: int) -> frozenset:
    """Residues mod ``coord`` of integers with absolute value <= n."""
    return frozenset(v % coord for v in range(-n, n + 1))


def verify_product_union_small(n_coords: int, n: int) -> VerificationReport:
    """The intersection of the n-fold starred boxes is exactly the box of
    small-representable coordinates.

    Exhibits an excluded element when one exists; when every coordinate is
    small-representable the whole truncated group is covered, which is a
    truncation artifact and flagged as such.
    """
    if n_coords < 1 or n < 1:
        raise ValueError("need positive coordinate count and n")
    # each n-fold sum A_1, ..., A_n holds up to c residues at coordinate c
    held = n * n_coords * (n_coords + 1) // 2
    check_enumeration_cap(f"product-union-small at N={n_coords}, n={n} "
                          f"folds up to {held} residues", held)
    # The boxes shrink as m grows, so their n-fold stars do too, and the
    # intersection is the deepest box's n-fold star.
    boxes = [product_set(n_coords, m) for m in range(1, n_coords + 1)]
    if not all(subset_of(inner, outer)
               for outer, inner in zip(boxes, boxes[1:])):
        raise AssertionError("product sets must nest")
    intersection = n_fold_star(boxes[-1], n)

    expected = BoxSet(
        n_coords,
        tuple(small_representable(c, n) for c in range(1, n_coords + 1)),
    )
    matches = all(
        intersection.coordinate_options(c) == expected.coordinate_options(c)
        for c in range(1, n_coords + 1)
    )

    excluded_example = None
    for coord in range(1, n_coords + 1):
        missing = sorted(frozenset(range(coord)) -
                         intersection.coordinate_options(coord))
        if missing:
            vec = [0] * n_coords
            vec[coord - 1] = missing[0]
            excluded_example = vec
            break
    whole_group = excluded_example is None

    status = Status.VERIFIED if matches else Status.REFUTED
    return VerificationReport(
        claim=f"product-union-small:N={n_coords}:n={n}",
        status=status,
        payload={
            "intersection": intersection.to_json(),
            "expected": expected.to_json(),
            "matches": matches,
            "excluded_element": excluded_example,
            "whole_group": whole_group,
            "truncation_artifact": whole_group,
            "note": ("every coordinate is small-representable at this "
                     "truncation; a proper subgroup only shows at larger "
                     "coordinate counts") if whole_group else "",
        },
        budgets={"n": n},
    )


def rerun_product_union_small(claim: dict,
                              table: FoldTable) -> VerificationReport:
    n_coords, n = id_numbers(r"product-union-small:N=(\d+):n=(\d+)", claim)
    return verify_product_union_small(n_coords, n)


def verify_interval_example(min_exp: int = 10) -> VerificationReport:
    """The one-step interval exclusion that cannot be extended.

    With exact rationals: 1 lies outside the open unit interval, yet for
    every epsilon in the halving schedule the witness
    1 = (1 - eps/2) + eps/2 puts 1 back inside the two-set sum, so no
    second family member extends the exclusion.  Verified when each
    step's membership is a ``yes`` and both its witnesses sum to 1 in the
    unit and epsilon intervals.
    """
    if min_exp < 0:
        raise ValueError("min_exp must be nonnegative")
    bits = (min_exp + 1) ** 2  # row j writes 2^-j, of about j bits
    check_enumeration_cap(f"the schedule to 2^-{min_exp} writes about "
                          f"{bits} bits", bits)
    group = _RATIONALS
    # Pinned witness: 1 = (1 - eps/2) + eps/2, valid for every eps <= 2.
    steps = [(eps, (group.element(1 - eps / 2), group.element(eps / 2)),
              prefix_sum_membership(_ONE, [_UNIT, SymmetricInterval(eps)]))
             for eps in (Fraction(1, 2 ** j) for j in range(min_exp + 1))]
    first_excluded = not contains(star(_UNIT), _ONE)
    ok = first_excluded and all(
        res.is_yes() and all(witness_holds(_ONE, summands,
                                           [_UNIT, SymmetricInterval(eps)])
                             for summands in (pinned, res.witness))
        for eps, pinned, res in steps)
    return VerificationReport(
        claim=f"interval-no-extension:min_eps=2^-{min_exp}",
        status=Status.VERIFIED if ok else Status.REFUTED,
        payload={
            "one_outside_unit_interval": first_excluded,
            "schedule": [{
                "epsilon": str(eps),
                "witness": [group.value_to_json(s.value) for s in pinned],
                "membership": res.to_json(),
            } for eps, pinned, res in steps],
        },
        budgets={"min_exp": min_exp},
    )


def rerun_interval(claim: dict, table: FoldTable) -> VerificationReport:
    min_exp, = id_numbers(r"interval-no-extension:min_eps=2\^-(\d+)", claim)
    return verify_interval_example(min_exp)


def random_product_elements(n_coords: int, count: int,
                            seed: int) -> list:
    """Deterministic sample of elements of the truncated product,
    refused before it is drawn when its count * N coordinates pass the
    enumeration cap."""
    check_enumeration_cap(f"{count} samples of {n_coords} coordinates",
                          count * n_coords)
    rng = random.Random(seed)
    group = ProductMod(n_coords)
    out = []
    for _ in range(count):
        out.append(group.element(
            [rng.randrange(c) for c in range(1, n_coords + 1)]
        ))
    return out
