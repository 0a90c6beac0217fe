"""The two workloads' inputs, as plain data.

The ``certify`` workload runs fixed configs (each keeps its ``seed`` 0); the
benchmark's ``--seed`` drives only the checker's own loop sampler there.
``primitives`` builds its subgroups from ``--seed``: every wedge has the
same generator count and product-letter budget and every intersection
pair the same generator lengths, so seeds change the words more than the
amount of work (the cores' sizes, and so the fiber products', still vary).
"""

from __future__ import annotations

import random

import checker

CERTIFY = {
    "certify": ("green_pair", "obstructed_pair", "identical_rank2", "identical_rank3"),
}
WORKLOADS = ("certify", "primitives")

# Rose fixtures and their filtration depths: the deepest level of each
# growing fixture takes 0.2-1.7 s here; "perm" never grows, so its levels
# stay tiny at any depth.
FIXTURES = {
    "swap": (((1, 2), (2, 1)), 5),
    "doubles": (((1, 1), (2, 2)), 5),
    "lam1": (((1, 1, 2), (2, 2, 1)), 4),
    "lam2": (((1, 2, 2), (2, 1, 1)), 4),
    "square1": (((1, 1),), 6),
    "perm": (((2,), (1,)), 8),
}

FOLD_WEDGES = 30  # wedges folded per round
FOLD_GENERATORS = 3  # generators per wedge, 6..10 letters each
FOLD_PRODUCT_LETTERS = 1000  # letters of generator products added to each wedge
INTERSECTIONS = 15  # core pairs intersected per round
INTERSECTION_LETTERS = 40  # length of each random generator


def random_word(rng: random.Random, rank: int, length: int) -> checker.Word:
    letters = [s for i in range(1, rank + 1) for s in (i, -i)]
    w = [rng.choice(letters)]
    while len(w) < length:
        x = rng.choice(letters)
        if x != -w[-1]:
            w.append(x)
    return tuple(w)


def random_product(rng: random.Random, gens, factors: int) -> checker.Word:
    seq: list[int] = []
    for _ in range(factors):
        g = rng.choice(gens)
        seq.extend(g if rng.random() < 0.5 else checker.inverse(g))
    return checker.free_reduce(seq)


def primitive_inputs(seed: int) -> dict:
    """Rank-2 words for the fold and intersection tasks, plus the fixtures."""
    rng = random.Random(seed)
    folds = []
    for _ in range(FOLD_WEDGES):
        gens = [random_word(rng, 2, rng.randint(6, 10)) for _ in range(FOLD_GENERATORS)]
        products: list[checker.Word] = []
        while sum(map(len, products)) < FOLD_PRODUCT_LETTERS:
            p = random_product(rng, gens, rng.randint(4, 16))
            if p:
                products.append(p)
        folds.append((gens, products))
    intersections = []
    for _ in range(INTERSECTIONS):
        h = [random_word(rng, 2, INTERSECTION_LETTERS) for _ in range(3)]
        # two products of H's generators make the intersection non-trivial
        k = [p for p in (random_product(rng, h, 3) for _ in range(2)) if p]
        k.append(random_word(rng, 2, INTERSECTION_LETTERS))
        intersections.append((h, k))
    return {"folds": folds, "intersections": intersections, "fixtures": FIXTURES}
