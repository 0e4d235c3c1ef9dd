"""Seeded workload inputs.

Everything the library or the CLI receives is made here from the workload
seed: order pairs, profile files, rational parameter vectors and profile
vectors.  Generators are keyed by (seed, purpose, index) through string
seeds, which ``random`` hashes with SHA-512, so the same seed gives the same
inputs under any PYTHONHASHSEED.  This module imports nothing from the
library.
"""
from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import permutations

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

#: The library's reference enumeration of the six 4-item cyclic orders.
ORDERS_4 = ("ACBD", "ADBC", "ABCD", "ADCB", "ABDC", "ACDB")

#: (family, parameter count, ballot degree), taken round-robin by sweep_warm.
#: rolo_x1 sits between the light and the heavy families so that the median
#: op falls inside a cluster of similar ops, not on the gap between two.
SWEEP_FAMILIES = (
    ("generic4", 3, 4),
    ("rolo_generic", 6, 4),
    ("rolo_x1", 1, 4),
    ("generic5", 8, 5),
    ("distance5", 5, 5),
)

#: Number of seeded profiles tallied per analysed rule in sweep_warm.
SWEEP_TALLIES = 8

#: The two 120-dimensional spaces of group_sums: (ballot kind, n).
GROUP_SPACES = (("cyclic", 6), ("rolo", 6))

#: Ids of the cli_cold commands, in the order one pass runs them.
CLI_IDS = (
    "orders4",
    "matrix_adjusted_distance5",
    "matrix_distance5",
    "scaling_generic5",
    "scaling_rolo21",
    "kernel_rolo21",
    "effective_trad21",
    "decompose_rolo5",
    "characters_co7",
    "catalog_co5",
    "distance7",
    "classify5",
    "mask_rolo21",
    "project_cyclic6",
    "tally_generic5",
)

#: Partition projected by the CLI `project` command.
PROJECT_PARTITION = "3+2+1"


def rng_for(seed: int, *key) -> random.Random:
    return random.Random(repr((seed,) + key))


def order_words(n: int) -> list[str]:
    """All cyclic orders of n items as letter words starting at A."""
    return ["A" + "".join(LETTERS[i] for i in rest) for rest in permutations(range(1, n))]


def random_order(rng: random.Random, n: int) -> str:
    rest = list(range(1, n))
    rng.shuffle(rest)
    return "A" + "".join(LETTERS[i] for i in rest)


def profile_text(rng: random.Random, n: int, low: int, high: int) -> str:
    return "".join(f"({w})\t{rng.randint(low, high)}\n" for w in order_words(n))


def cli_commands(seed: int, workdir: str) -> list[tuple[str, list[str]]]:
    """The fixed cli_cold command list, with its seeded pairs and files.

    Returns (command id, argv) pairs; profile files are written to workdir.
    """
    rng = rng_for(seed, "cli")
    x7, y7 = random_order(rng, 7), random_order(rng, 7)
    x5, y5 = random_order(rng, 5), random_order(rng, 5)
    target = rng.choice(ORDERS_4)
    decoys = rng.sample([w for w in ORDERS_4 if w != target], rng.randint(1, 3))
    magnitude = rng.randint(1, 5)
    project_file = os.path.join(workdir, "project6.tsv")
    tally_file = os.path.join(workdir, "tally5.tsv")
    with open(project_file, "w") as fh:
        fh.write(profile_text(rng, 6, -3, 3))
    with open(tally_file, "w") as fh:
        fh.write(profile_text(rng, 5, 0, 5))
    argvs = [
        ["orders", "--n", "4"],
        ["matrix", "--rule", "adjusted_distance5"],
        ["matrix", "--rule", "distance5", "--params", "0,1,2,3,4"],
        ["scaling", "--rule", "generic5", "--params", "4,0,3,1,2,2,1,1"],
        ["scaling", "--rule", "rolo21"],
        ["kernel", "--rule", "rolo21"],
        ["effective", "--rule", "trad21"],
        ["decompose", "--space", "rolo", "--n", "5"],
        ["characters", "--space", "co", "--n", "7"],
        ["catalog", "--space", "co5"],
        ["distance", "--x", f"({x7})", "--y", f"({y7})"],
        ["classify", "--x", f"({x5})", "--y", f"({y5})"],
        ["mask", "--rule", "rolo21", "--target", f"({target})",
         "--decoys", ",".join(f"({d})" for d in decoys), "--magnitude", str(magnitude)],
        ["project", "--space", "cyclic", "--n", "6",
         "--partition", PROJECT_PARTITION, "--profile", project_file],
        ["tally", "--rule", "generic5", "--params", "4,0,3,1,2,2,1,1", "--profile", tally_file],
    ]
    return list(zip(CLI_IDS, argvs))


def sweep_op(seed: int, i: int) -> dict:
    """Inputs of the i-th analysed rule: family, parameters, profiles, masking."""
    family, arity, n = SWEEP_FAMILIES[i % len(SWEEP_FAMILIES)]
    rng = rng_for(seed, "sweep", i)
    # Parameters of size 250 to 500 keep every rule in general position (a
    # subspace scalar that vanished by chance would grow the kernel) and keep
    # the masking search at a similar number of doublings from seed to seed.
    params = [Fraction(rng.choice((-1, 1)) * rng.randint(500, 999), 2) for _ in range(arity)]
    dim = 6 if family == "generic4" else 24
    profiles = [[rng.randint(0, 5) for _ in range(dim)] for _ in range(SWEEP_TALLIES)]
    words = list(ORDERS_4) if n == 4 else order_words(5)
    target = rng.choice(words)
    decoys = rng.sample([w for w in words if w != target], 2)
    return {
        "family": family,
        "params": params,
        "profiles": profiles,
        "target": target,
        "decoys": decoys,
        "magnitude": 1,
    }


def group_profile(seed: int, round_no: int, space_no: int, dim: int) -> list[int]:
    rng = rng_for(seed, "group", round_no, space_no)
    return [rng.randint(-3, 3) for _ in range(dim)]


def order_pair(seed: int, purpose: str, n: int) -> tuple[str, str]:
    rng = rng_for(seed, purpose, n)
    return random_order(rng, n), random_order(rng, n)
