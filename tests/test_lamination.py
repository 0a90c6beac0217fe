from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnncert.graphmap import (
    GraphMap,
    iterate_map,
    map_loop,
    mat_power,
    pf_eigenvalue,
    rose,
    transition_matrix,
)
from hnncert.lamination import (
    IndependenceVerdict,
    LeafSegment,
    catalog_scale,
    independence_probe,
    leaf_segment,
    quasi_periodicity_probe,
    weak_convergence_fraction,
)


def rose_map(*paths, rank=2):
    g = rose(rank)
    return GraphMap(g, g, (0,), tuple(tuple(p) for p in paths))


FIB = rose_map((1, 2), (1,))  # a -> ab, b -> a
REV = rose_map((2, 1), (1,))  # a -> ba, b -> a: the mirror-image dynamics
OTHER = rose_map((1, 2, 2), (1, 2))  # a -> abb, b -> ab: has a bb block
DOUBLE = rose_map((1, 1), rank=1)
PERM = rose_map((2,), (1,))  # permutes the petals, never grows
ILLEGAL = rose_map((1, 2), (-1, 2))


def catalog(f, k):
    """The depth-k leaf segments of every seed edge."""
    return frozenset(leaf_segment(f, e, k) for e in range(1, f.domain.num_edges + 1))


class TestLeafSegment:
    def test_iterated_images(self):
        assert leaf_segment(FIB, 1, 2).path == (1, 2, 1)
        assert leaf_segment(FIB, 2, 3).path == (1, 2, 1)

    def test_depth_zero_is_the_seed(self):
        seg = leaf_segment(FIB, 2, 0)
        assert seg == LeafSegment((2,), 2, 0)
        assert len(seg) == 1

    @given(st.integers(0, 8), st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_length_matches_transition_column(self, k, seed):
        # unit edge lengths: segment length = seed-column sum of A^k
        for f in (FIB, OTHER):
            a = mat_power(transition_matrix(f), k)
            column_sum = sum(a[i][seed - 1] for i in range(len(a)))
            assert len(leaf_segment(f, seed, k)) == column_sum

    @given(st.integers(1, 7))
    @settings(max_examples=20, deadline=None)
    def test_segments_are_immersed(self, k):
        for f in (FIB, REV, OTHER, DOUBLE):
            for seed in range(1, f.domain.num_edges + 1):
                p = leaf_segment(f, seed, k).path
                assert all(p[i] != -p[i + 1] for i in range(len(p) - 1))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="seed edge"):
            leaf_segment(FIB, 3, 1)
        with pytest.raises(ValueError, match=">= 0"):
            leaf_segment(FIB, 1, -1)
        with pytest.raises(ValueError, match="not expanding"):
            leaf_segment(PERM, 1, 2)
        with pytest.raises(ValueError, match="illegal turn"):
            leaf_segment(ILLEGAL, 1, 2)


class TestWeakConvergence:
    def test_loop_disjoint_from_lamination(self):
        # bb is not a leaf factor, so every window of the b-loop misses
        cat = catalog(FIB, 2)
        assert weak_convergence_fraction((2,), cat, 1) == 0

    def test_loop_inside_lamination(self):
        cat = catalog(FIB, 4)
        for k in (2, 4, 6):
            loop = iterate_map(FIB, k).edge_map[0]
            assert weak_convergence_fraction(loop, cat, 2) == 1

    def test_partial_overlap_counts_positions(self):
        # f^4(a) with the last letter doubled: windows that see the bb
        # defect miss the catalog, everything else still matches
        loop = (1, 2, 1, 1, 2, 1, 2, 2)
        cat = catalog(FIB, 4)
        fraction = weak_convergence_fraction(loop, cat, 2)
        # independent recount via plain string containment
        leaf = "".join("ab"[x - 1] for x in leaf_segment(FIB, 1, 12).path)
        text = "".join("ab"[x - 1] for x in loop)
        hits = 0
        for i in range(len(loop)):
            window = "".join(text[(i + j) % len(loop)] for j in range(-2, 2))
            hits += window in leaf
        assert 0 < fraction < 1
        assert fraction == Fraction(hits, len(loop))

    def test_windows_wrap_past_short_loops(self):
        # a 1-letter loop is compared through its periodic extension
        cat = catalog(FIB, 5)
        assert weak_convergence_fraction((1,), cat, 3) == 0  # aaaaaa never a factor

    def test_junction_bound(self):
        # a concatenation of m depth-k segments fails only near junctions:
        # fraction >= 1 - 2L/delta_k with delta_k the shortest segment
        for k in (4, 6, 8):
            fk = iterate_map(FIB, k)
            delta = min(len(p) for p in fk.edge_map)
            cat = catalog(FIB, k)
            loop = map_loop(fk, (1, 2))
            for L in range(1, 5):
                if catalog_scale(cat) < L:
                    continue
                fraction = weak_convergence_fraction(loop, cat, L)
                assert fraction >= 1 - Fraction(2 * L, delta)

    def test_rejects_bad_input(self):
        cat = catalog(FIB, 2)
        with pytest.raises(ValueError, match="scale 1 below window radius 4"):
            weak_convergence_fraction((1, 2), cat, 4)
        with pytest.raises(ValueError, match="radius"):
            weak_convergence_fraction((1, 2), cat, 0)
        with pytest.raises(ValueError, match="empty"):
            weak_convergence_fraction((), cat, 1)


class TestQuasiPeriodicity:
    def test_constant_leaf(self):
        assert quasi_periodicity_probe(leaf_segment(DOUBLE, 1, 5), 1, 8) == 1

    def test_scale_beyond_leaf(self):
        assert quasi_periodicity_probe(leaf_segment(FIB, 1, 2), 9, 64) is None

    def test_fibonacci_recurrence_scales(self):
        leaf = leaf_segment(FIB, 1, 10)
        assert [quasi_periodicity_probe(leaf, L, 64) for L in (1, 2, 3, 4)] == [
            3,
            6,
            10,
            11,
        ]

    def test_cap_exceeded(self):
        leaf = leaf_segment(FIB, 1, 10)
        assert quasi_periodicity_probe(leaf, 2, 5) is None

    @given(st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_result_windows_really_contain_everything(self, L):
        leaf = leaf_segment(FIB, 1, 9).path
        span = quasi_periodicity_probe(leaf, L, 64)
        assert span is not None and span >= L
        subwords = {leaf[i : i + L] for i in range(len(leaf) - L + 1)}
        for i in range(len(leaf) - span + 1):
            window = leaf[i : i + span]
            for s in subwords:
                assert any(
                    window[j : j + L] == s for j in range(span - L + 1)
                )

    def test_accepts_raw_paths(self):
        assert quasi_periodicity_probe((1, 2, 1, 2, 1), 2, 4) == 3

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match=">= 1"):
            quasi_periodicity_probe((1, 2), 0, 4)
        with pytest.raises(ValueError, match=">= 1"):
            quasi_periodicity_probe((1, 2), 1, 0)


class TestIndependence:
    def test_map_against_itself(self):
        v = independence_probe(FIB, FIB, 3, 6)
        assert v == IndependenceVerdict("indistinguishable_at_scale", 3)

    def test_map_against_its_square(self):
        fib2 = iterate_map(FIB, 2)
        assert independence_probe(FIB, fib2, 3, 6).kind == "indistinguishable_at_scale"
        assert independence_probe(FIB, fib2, 4, 8).kind == "indistinguishable_at_scale"

    def test_mirror_dynamics_indistinguishable(self):
        # the reversed-image map generates the reversed leaves; leaf windows
        # are read in both directions, so the probe cannot separate them
        for L in (2, 4, 6):
            assert independence_probe(FIB, REV, L, 10).kind == (
                "indistinguishable_at_scale"
            )

    def test_distinct_laminations(self):
        v = independence_probe(FIB, OTHER, 2, 8)
        assert v.kind == "distinct_at_scale"
        assert v.scale == 2
        assert v.witness is not None and len(v.witness) == 2

    def test_witness_occurs_on_one_side_only(self):
        v = independence_probe(FIB, OTHER, 2, 8)
        leaf_f = leaf_segment(FIB, 1, 12).path
        leaf_g = leaf_segment(OTHER, 1, 8).path

        def occurs(window, leaf):
            both = [leaf, tuple(-x for x in reversed(leaf))]
            return any(
                p[i : i + len(window)] == tuple(window)
                for p in both
                for i in range(len(p) - len(window) + 1)
            )

        assert occurs(v.witness, leaf_f) != occurs(v.witness, leaf_g)

    def test_symmetry(self):
        for L in (2, 3):
            a = independence_probe(FIB, OTHER, L, 8)
            b = independence_probe(OTHER, FIB, L, 8)
            assert a.kind == b.kind == "distinct_at_scale"
            assert a.witness == b.witness

    def test_distinctness_persists_at_larger_scales(self):
        for L in (2, 3, 4, 5):
            assert independence_probe(FIB, OTHER, L, 8).kind == "distinct_at_scale"

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="different graphs"):
            independence_probe(FIB, DOUBLE, 2, 4)
        with pytest.raises(ValueError, match="L >= 1"):
            independence_probe(FIB, REV, 0, 4)
        with pytest.raises(ValueError, match="not expanding"):
            independence_probe(FIB, PERM, 2, 4)


class TestGrowthRate:
    def test_segment_growth_approaches_stretch_factor(self):
        for f in (FIB, OTHER):
            lam = pf_eigenvalue(transition_matrix(f))
            for k in (8, 10):
                ratio = len(leaf_segment(f, 1, k + 1)) / len(leaf_segment(f, 1, k))
                assert abs(ratio - lam) / lam < 0.10
