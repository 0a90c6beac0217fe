"""Tests for the expansion power of train track rose maps."""

import collections
import random

import pytest

from hnncert.expansion import ExpansionVerdict, PeriodicLoopWitness, expansion_power
from hnncert.graphmap import (
    GraphMap,
    compose_maps,
    iterate_map,
    map_loop,
    path_length,
    random_legal_loop,
    rose,
    verify_train_track,
)
from hnncert.words import free_reduce


def rose_map(*paths, rank=2):
    g = rose(rank)
    return GraphMap(g, g, (0,), tuple(tuple(p) for p in paths))


FIB = rose_map((1, 2), (1,))  # a -> ab, b -> a
DOUBLE = rose_map((1, 1), rank=1)  # a -> aa
SWAP = rose_map((1, 2), (2, 1))  # a -> ab, b -> ba
PERM = rose_map((2,), (1,))  # swaps the petals
FIXED_PETAL = rose_map((1, 1), (2,))  # a -> aa, the b petal is never stretched
ILLEGAL = rose_map((1, 2), (-1, 2))  # the turn {-1, 2} degenerates


class TestExpansionPower:
    def test_fibonacci_example(self):
        verdict = expansion_power(FIB, cap=8)
        assert verdict.kind == "power"
        assert verdict.n == 3
        assert verdict.per_edge == ((1, 2), (2, 3))

    def test_doubling_example(self):
        verdict = expansion_power(DOUBLE, cap=8)
        assert verdict == ExpansionVerdict("power", n=2, per_edge=((1, 2),))

    def test_per_edge_matches_direct_iteration(self):
        verdict = expansion_power(FIB, cap=8)
        for e, n_e in verdict.per_edge:
            for n in range(1, n_e + 1):
                length = path_length(
                    FIB.domain, iterate_map(FIB, n).edge_map[e - 1]
                )
                assert (length >= 3) == (n == n_e)

    def test_permutation_is_periodic(self):
        verdict = expansion_power(PERM, cap=8)
        assert verdict.kind == "periodic_loop_obstruction"
        assert verdict.witness.edge == 1
        assert verdict.witness.period == 2
        assert verdict.witness.orbit == ((1,), (2,))

    def test_fixed_petal_blocks_expansion(self):
        verdict = expansion_power(FIXED_PETAL, cap=8)
        assert verdict.kind == "periodic_loop_obstruction"
        assert verdict.witness.edge == 2
        assert verdict.witness.period == 1

    def test_illegal_turn_rejected(self):
        with pytest.raises(ValueError, match="illegal turn"):
            expansion_power(ILLEGAL, cap=4)

    def test_cap_exceeded_reports_stuck_edges(self):
        verdict = expansion_power(FIB, cap=2)
        assert verdict.kind == "cap_exceeded"
        assert "2" in verdict.note

    def test_larger_target_factor(self):
        assert expansion_power(FIB, cap=20, target_factor=10).n == 6
        assert expansion_power(DOUBLE, cap=20, target_factor=5).n == 3

    def test_needs_self_map(self):
        # a map between roses of different ranks is refused when it is built
        with pytest.raises(ValueError, match="self-map"):
            expansion_power(GraphMap(rose(2), rose(3), (0,), ((1,), (2, 3))))

    def test_input_validation(self):
        with pytest.raises(ValueError, match="cap"):
            expansion_power(FIB, cap=0)
        with pytest.raises(ValueError, match="factor"):
            expansion_power(FIB, cap=4, target_factor=1)

    @pytest.mark.parametrize(
        "f,label", [(FIB, "fib"), (DOUBLE, "double"), (SWAP, "swap")]
    )
    def test_certificate_soundness_on_random_loops(self, f, label):
        verdict = expansion_power(f, cap=8)
        assert verdict.kind == "power"
        iterated = iterate_map(f, verdict.n)
        rng = random.Random(20240811)
        checked = 0
        while checked < 1000:
            length = rng.randint(1, 30)
            try:
                loop = random_legal_loop(f, length, rng)
            except RuntimeError:
                continue
            before = path_length(f.domain, loop)
            after = path_length(f.domain, map_loop(iterated, loop))
            assert after >= 3 * before, (label, loop)
            checked += 1


def composed_expansion_power(f, cap, target_factor):
    """Reference: composes the whole map once per power and reads every
    edge's length off the composite."""
    g = f.domain
    edges = range(1, g.num_edges + 1)
    first_power = {}
    seen = {e: {(e,): 0} for e in edges}
    current = f
    for n in range(1, cap + 1):
        if n > 1:
            current = compose_maps(f, current)
        lens = {e: path_length(g, current.edge_map[e - 1]) for e in edges}
        for e in edges:
            if e in first_power:
                continue
            if lens[e] >= target_factor:
                first_power[e] = n
                continue
            path = current.edge_map[e - 1]
            if path in seen[e]:
                m = seen[e][path]
                by_power = {power: p for p, power in seen[e].items()}
                orbit = tuple(by_power[i] for i in range(m, n))
                return ExpansionVerdict(
                    "periodic_loop_obstruction",
                    witness=PeriodicLoopWitness(e, m, n - m, orbit),
                )
            seen[e][path] = n
        if all(lens[e] >= target_factor for e in edges):
            note = ""
            if n > max(first_power.values()):
                note = "per-edge powers not simultaneous; certified at first common power"
            return ExpansionVerdict(
                "power", n=n, per_edge=tuple(sorted(first_power.items())), note=note
            )
    stuck = [e for e in edges if e not in first_power]
    if stuck:
        note = f"edges {stuck} below target after {cap} iterations"
    else:
        note = f"per-edge powers never simultaneous within {cap} iterations"
    return ExpansionVerdict("cap_exceeded", note=note)


def random_train_track_rose(rng):
    """A rose map of rank 1–3 with tight images of 1–4 letters, redrawn
    until it is a train track map."""
    while True:
        rank = rng.randint(1, 3)
        letters = [s for i in range(1, rank + 1) for s in (i, -i)]
        images = []
        while len(images) < rank:
            p = free_reduce(rng.choice(letters) for _ in range(rng.randint(1, 4)))
            if p:
                images.append(p)
        f = rose_map(*images, rank=rank)
        if verify_train_track(f).kind == "train_track":
            return f


def test_matches_the_composed_reference_on_random_roses():
    rng = random.Random(14)
    kinds = collections.Counter()
    for _ in range(1000):
        f = random_train_track_rose(rng)
        cap, target = rng.randint(1, 12), rng.randint(2, 60)
        verdict = expansion_power(f, cap=cap, target_factor=target)
        assert verdict == composed_expansion_power(f, cap, target), (f.edge_map, cap, target)
        kinds[verdict.kind] += 1
    assert set(kinds) == {"power", "periodic_loop_obstruction", "cap_exceeded"}
