"""Seeded input generators for the benchmark workloads.

Every input is a pure function of the workload's seed: the same seed
gives the same spec lines, in the same order, with the same solver
seeds. The program under test only ever sees the generated spec lines,
each of which carries its own `seed=`.
"""

import random

# dense_qft: the dense distribution build (QFT cell, qubit circuit) does
# the work. Timings on a 4-core machine: 0.4-1.4 s, 1.2 s, 0.2 s, 0.3 s.
DENSE = [
    ("heavy", "dihedral n=750 k=2"),
    ("heavy", "shor modulus=2047 base=3"),
    ("light", "elem_abelian2 k=12 backend=qubit"),
    ("light", "quaternion order=512"),
]

# sparse_span: the O(|A|) label sweep and the sparse span enumeration
# do the work. Timings: 6.5 s, 0.9 s, 1.3 s, 0.8 s.
SPARSE = [
    ("heavy", "elem_abelian2 k=20 backend=sparse"),
    ("light", "elem_abelian2 k=18 backend=sparse"),
    ("heavy", "wreath k=9"),
    ("light", "gf2affine k=8 coeffs=9 hidden=3"),
]

# Small stand-ins of the two sets for the self-check mode.
DENSE_SMALL = [
    ("heavy", "dihedral n=60 k=2"),
    ("heavy", "shor modulus=33 base=5"),
    ("light", "elem_abelian2 k=6 backend=qubit"),
    ("light", "quaternion order=16"),
]
SPARSE_SMALL = [
    ("heavy", "elem_abelian2 k=10 backend=sparse"),
    ("light", "elem_abelian2 k=8 backend=sparse"),
    ("heavy", "wreath k=3"),
    ("light", "gf2affine k=4 coeffs=3 hidden=3"),
]

# Families solved by the Theorem 3 / 11 routes count as the light class
# of batch_small; the Theorem 8 / 13 routes as heavy.
LIGHT_FAMILIES = {"abelian", "random_abelian", "shor", "elem_abelian2",
                  "extraspecial", "heisenberg", "quaternion"}

FAMILIES = ["abelian", "dihedral", "elem_abelian2", "extraspecial", "gf2affine",
            "heisenberg", "quaternion", "random_abelian", "random_normal",
            "shor", "symmetric", "tower", "wreath"]

SHOR_MODULI = [15, 21, 33, 35, 39, 51, 55, 57]


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def small_spec(rng):
    """One small instance from one of the 13 non-adversarial families."""
    family = rng.choice(FAMILIES)
    r = rng.randint
    if family == "abelian":
        m1, m2 = r(2, 8), r(2, 8)
        p = f"m1={m1} m2={m2} h1={r(0, m1 - 1)} h2={r(0, m2 - 1)}"
    elif family == "dihedral":
        n = r(3, 48)
        p = f"n={n} k={r(0, n)}"
    elif family == "elem_abelian2":
        p = f"k={r(2, 8)} hidden={r(0, 3)}"
    elif family == "extraspecial":
        q = rng.choice([3, 5, 7])
        p = f"p={q} ha={r(0, q - 1)} hb={r(0, q - 1)} with_centre={r(0, 1)}"
    elif family == "gf2affine":
        k = r(2, 5)
        p = f"k={k} coeffs={2 * r(0, (1 << (k - 1)) - 1) + 1} hidden={r(0, 3)}"
    elif family == "heisenberg":
        p = f"p={rng.choice([3, 5, 7])} n=1"
    elif family == "quaternion":
        p = f"order={rng.choice([8, 16, 32])} hidden={r(0, 2)}"
    elif family == "random_abelian":
        p = (f"gen_seed={r(1, 1 << 30)} max_order={r(8, 256)} "
             f"factors={r(1, 3)} hidden={r(0, 3)}")
    elif family == "random_normal":
        p = f"gen_seed={r(1, 1 << 30)} base={r(0, 3)} size={r(1, 2)} picks={r(0, 3)}"
    elif family == "shor":
        m = rng.choice(SHOR_MODULI)
        base = rng.choice([b for b in range(2, m) if _gcd(b, m) == 1])
        p = f"modulus={m} base={base}"
    elif family == "symmetric":
        d = r(3, 4)
        p = f"d={d} hidden={r(0, 3 if d == 4 else 2)}"
    elif family == "tower":
        p = (f"gen_seed={r(1, 1 << 30)} depth={r(1, 3)} shape={r(0, 1)} "
             f"k={r(2, 5)} picks={r(0, 3)}")
    else:
        p = f"k={r(1, 3)} hidden={r(0, 3)}"
    cls = "light" if family in LIGHT_FAMILIES else "heavy"
    return cls, f"{family} {p}"


def closed_rounds(base, warm):
    """One round of a fixed instance set, after warm-up lines:
    "<round> <class> <spec> seed=<n>", round "w" for warm-up.

    The runner repeats the round for the whole run, so every round
    solves the same instances, in the same order, with the same solver
    seeds, whatever the workload seed. Both are deliberate. The solvers
    are Las Vegas algorithms whose time depends strongly on their seed
    (shor modulus=2047 takes 0.9-1.8 s on most seeds and 4.6-6.6 s on
    about one in six), which a run of a few rounds cannot average out.
    And the order moves solve times by about 10%: a solve that follows
    a large one pays for the memory that one released. Warm-up solves
    small instances of the same routes, so no route runs for the first
    time inside a timed round.
    """
    lines = [f"w {cls} {spec} seed=1" for cls, spec in warm]
    lines += [f"0 {cls} {spec} seed={i + 1}" for i, (cls, spec) in enumerate(base)]
    return lines


def batch_rounds(seed, rounds, size):
    """`rounds` batches of `size` seeded small instances, after a fixed
    warm-up of every family at its default parameters."""
    rng = random.Random(f"batch:{seed}")
    lines = [f"w light {family} seed=1" for family in FAMILIES]
    for rnd in range(rounds):
        for _ in range(size):
            cls, spec = small_spec(rng)
            lines.append(f"{rnd} {cls} {spec} seed={rng.randint(1, 1 << 31)}")
    return lines
