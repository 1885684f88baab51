"""Seeded inputs for the benchmark workloads.

Everything here is plain Python and never imports ``grouptop``: the seed
stays on the benchmark's side, and the program only ever receives the
ordinary run configurations and library arguments built from it.

Probe magnitudes are drawn one from each pair {2i+1, 2i+2} of a magnitude
range, with a random sign and in random order.  The range sets the
bounded search's value cap n*|g| and so its cost; drawing one probe per
pair keeps the workload's total cost close to the same for every seed,
although neighbouring magnitudes can differ in cost by two orders of
magnitude (fibonacci 21 against 22).  Sign and order do not change the
search cost, because every starred set is symmetric.

The cofinite families' probes go to the CLI in batches of
``COFINITE_BATCH``, one config and one report per batch.  The benchmark
times every operation between two runs of a reference loop, and a
shorter operation lets those two see the processor's speed during it
(see ``worker.reference_s``).  Each batch's verdict is still fixed: a
powers3 batch separates every probe, as the whole set does.
"""

from __future__ import annotations

import random

# Element names of the shipped dihedral table, as the acceptance suite's
# criterion 7 samples them.
D4_NAMES = ("e", "r", "r2", "r3", "s", "rs", "r2s", "r3s")
D4_LEVELS = (1, 2, 3, 4, 5)
D4_DEPTH = 3
D4_SIGMA = (0, 2)  # Rescale(offset, shift): image [0, 1/4)
D4_TAU = (3, 2)    # image [3/4, 1)

# Budgets per family.  The fibonacci search never certifies (its tails
# carry no divisor), so it gets the shipped configs' budgets, which keep
# one exhaustive DFS per probe affordable at desk scale.
POWERS3_BUDGETS = {"n_max": 5, "depth": 30, "max_len": 8}
FIBONACCI_BUDGETS = {"n_max": 3, "depth": 14, "max_len": 5}
SQRT7_BUDGETS = {"n_max": 5, "depth": 30, "max_len": 8}
COFINITE_BATCH = 10  # probes per hausdorff call on the cofinite families

# Workload sizes.  "full" is what the benchmark measures; "tiny" only
# exercises every code path for the self-test.
SIZES = {
    "full": {
        "powers3_pairs": 30,     # magnitudes 1..60
        "fibonacci_pairs": 60,   # magnitudes 1..120
        "sqrt7_pairs": 200,      # magnitudes 1..400
        "verify_gmax": 150,
        "verify_nmax": 20,       # 3000 claims
        "d4_pairs": 90_000,      # about 40 check_UU calls
    },
    "tiny": {
        "powers3_pairs": 3,
        "fibonacci_pairs": 3,
        "sqrt7_pairs": 4,
        "verify_gmax": 5,
        "verify_nmax": 3,
        "d4_pairs": 3_000,
    },
}

WORKLOADS = ("cofinite-search", "residue-chain", "dyadic-d4")


def rng_for(workload: str, seed: int) -> random.Random:
    """Deterministic per (workload, seed); str seeds do not depend on the
    interpreter's hash randomisation."""
    return random.Random(f"{workload}:{seed}")


def paired_probes(rng: random.Random, pairs: int) -> list:
    """One magnitude from each pair {2i+1, 2i+2}, random sign, shuffled."""
    probes = []
    for i in range(pairs):
        magnitude = 2 * i + 1 + rng.randrange(2)
        probes.append(magnitude if rng.randrange(2) else -magnitude)
    rng.shuffle(probes)
    return probes


def hausdorff_config(family: dict, probes: list, budgets: dict) -> dict:
    return {"family": family, "probes": probes, "budgets": dict(budgets)}


def batched_configs(name: str, family: dict, probes: list,
                    budgets: dict) -> dict:
    """One config per COFINITE_BATCH probes, named name.1, name.2, ..."""
    return {f"{name}.{i // COFINITE_BATCH + 1}": hausdorff_config(
                family, probes[i:i + COFINITE_BATCH], budgets)
            for i in range(0, len(probes), COFINITE_BATCH)}


def _d4_mul(a: int, b: int) -> int:
    """Product in D4 with r^k s^f encoded as k + 4f (the order of
    D4_NAMES)."""
    ka, fa, kb, fb = a % 4, a // 4, b % 4, b // 4
    return (ka + (-kb if fa else kb)) % 4 + 4 * ((fa + fb) % 2)


def _d4_inv(a: int) -> int:
    return (-a) % 4 if a < 4 else a


def uu_pairs(level_sets: dict) -> int:
    """Cost model of one check_UU call: the number of witness pairs it
    walks.  Both rescalings add D4_SIGMA[1] levels, so both sides
    enumerate the same states: (product, position of the last index) over
    increasing dyadic indices of the remaining levels, with at most
    D4_DEPTH factors."""
    shift = D4_SIGMA[1]
    top = len(D4_LEVELS) - shift
    stars = {}
    for level in range(1, top + 1):
        codes = {D4_NAMES.index(n) for n in level_sets[level + shift]}
        stars[level] = codes | {_d4_inv(c) for c in codes} | {0}
    # the index m/2^top has level top - v2(m); listed in increasing order
    order = []
    for m in range(1, 2 ** top):
        level = top
        while m % 2 == 0:
            m //= 2
            level -= 1
        order.append(level)
    states = {(0, -1)}
    frontier = [(0, -1)]
    for _ in range(D4_DEPTH):
        nxt = []
        for value, pos in frontier:
            for j in range(pos + 1, len(order)):
                for el in stars[order[j]]:
                    key = (_d4_mul(value, el), j)
                    if key not in states:
                        states.add(key)
                        nxt.append(key)
        frontier = nxt
    return len(states) ** 2


def _d4_draw(rng: random.Random) -> dict:
    """One assignment drawn as acceptance criterion 7 draws it."""
    return {level: sorted(rng.sample(D4_NAMES, rng.randint(1, 3)))
            for level in D4_LEVELS}


def d4_level_sets(rng: random.Random, pair_budget: int) -> list:
    """Assignments drawn as criterion 7 draws them until their witness
    pairs (uu_pairs) total close to pair_budget.

    The number of pairs varies 40-fold between draws, so a fixed number
    of calls would make the cost depend on the seed; a fixed pair budget
    keeps it close to the same.  The last call is the one of 256 further
    draws that lands the total nearest the budget.
    """
    out, total = [], 0
    largest = uu_pairs({level: D4_NAMES for level in D4_LEVELS})
    while pair_budget - total > largest:
        out.append(_d4_draw(rng))
        total += uu_pairs(out[-1])
    remaining = pair_budget - total
    candidates = [_d4_draw(rng) for _ in range(256)]
    miss, last = min(((abs(remaining - uu_pairs(c)), i)
                      for i, c in enumerate(candidates)))
    return out + [candidates[last]] if miss < remaining else out


def generate(workload: str, seed: int, size: str = "full") -> dict:
    """The workload's inputs: run configurations, CLI grids and D4 level
    sets, all as plain JSON-able values."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    dims = SIZES[size]
    rng = rng_for(workload, seed)
    if workload == "cofinite-search":
        powers3 = paired_probes(rng, dims["powers3_pairs"])
        fibonacci = paired_probes(rng, dims["fibonacci_pairs"])
        return {"configs": {
            **batched_configs("powers3",
                              {"kind": "cofinite", "sequence": "powers3"},
                              powers3, POWERS3_BUDGETS),
            **batched_configs("fibonacci",
                              {"kind": "cofinite", "sequence": "fibonacci"},
                              fibonacci, FIBONACCI_BUDGETS),
        }}
    if workload == "residue-chain":
        return {
            "configs": {"sqrt7": hausdorff_config(
                {"kind": "chain", "generator": "sqrt7"},
                paired_probes(rng, dims["sqrt7_pairs"]), SQRT7_BUDGETS)},
            "verify": {"gmax": dims["verify_gmax"],
                       "nmax": dims["verify_nmax"]},
        }
    return {"level_sets": d4_level_sets(rng, dims["d4_pairs"])}
