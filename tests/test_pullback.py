"""Fiber products, the pullback filtration, and stabilization verdicts."""

import collections
import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hnncert import pullback
from hnncert.graphmap import GraphMap, iterate_map
from hnncert.pullback import (
    ProductBudgetError,
    StabilizationVerdict,
    _subdivision_fractions,
    as_product_factor,
    fiber_product,
    immersion_offender,
    new_components,
    point_image,
    point_image_power,
    product_edges,
    pullback_filtration,
    stabilization_power,
    subdivide_level,
    subdivide_map,
)
from hnncert.stallings import (
    LabeledGraph,
    canonical_code,
    core,
    is_folded,
    membership,
    subgraph_on,
    subgroup_graph,
)
from hnncert.words import (
    Endomorphism,
    Word,
    cyclic_core,
    free_reduce,
    least_rotation,
    reduce,
    word_from_string,
)


def endo(*images, rank=2):
    return Endomorphism(rank, tuple(word_from_string(s, rank) for s in images))


def rose_map(*images, rank=2):
    return GraphMap.from_endomorphism(endo(*images, rank=rank))


def stallings(*gens, rank=2):
    return subgroup_graph([word_from_string(s, rank) for s in gens], rank)


IDENT = rose_map("a", "b")
SAPIR = rose_map("ab", "ba")
MIXED = rose_map("ab", "bba")  # image <ab, bba> meets no conjugate of itself
SQUARES = rose_map("aa", "bb")
DOUBLE = rose_map("aa", rank=1)
FLIP = rose_map("A", rank=1)
NON_IMMERSION = rose_map("ab", "a")  # both a and b start with a


def frac(p, q):
    return Fraction(p, q)


class TestPointImage:
    def test_vertex(self):
        assert point_image(SAPIR, ("v", 0)) == ("v", 0)

    def test_interior_before_junction(self):
        assert point_image(DOUBLE, ("e", 1, frac(1, 4))) == ("e", 1, frac(1, 2))

    def test_junction_is_vertex(self):
        assert point_image(DOUBLE, ("e", 1, frac(1, 2))) == ("v", 0)

    def test_second_letter(self):
        # f(a) = ab: the point at 3/4 sits halfway along the b-letter
        assert point_image(SAPIR, ("e", 1, frac(3, 4))) == ("e", 2, frac(1, 2))

    def test_reversed_letter_flips_offset(self):
        assert point_image(FLIP, ("e", 1, frac(1, 4))) == ("e", 1, frac(3, 4))

    def test_power_composes(self):
        p = ("e", 1, frac(1, 8))
        q = point_image(DOUBLE, point_image(DOUBLE, p))
        assert point_image_power(DOUBLE, p, 2) == q == ("e", 1, frac(1, 2))
        assert point_image_power(DOUBLE, p, 3) == ("v", 0)

    @pytest.mark.parametrize("f", [SAPIR, MIXED, DOUBLE, FLIP])
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_subdivision_points_map_to_vertices(self, f, level):
        # the interior points of level i are exactly the i-fold preimages of
        # vertices, so each must land on a vertex after i applications
        for e, fracs in enumerate(_subdivision_fractions(f, level), start=1):
            for t in fracs:
                image = point_image_power(f, ("e", e, t), level)
                assert image[0] == "v"

    @pytest.mark.parametrize("f", [SAPIR, MIXED, DOUBLE, FLIP])
    def test_subdivision_points_are_nested(self, f):
        previous = _subdivision_fractions(f, 1)
        for level in (2, 3):
            current = _subdivision_fractions(f, level)
            for prev_e, cur_e in zip(previous, current):
                assert set(prev_e) <= set(cur_e)
            previous = current


class TestSubdivide:
    def test_sapir_shape(self):
        sub = subdivide_level(SAPIR, 1)
        # one midpoint per edge; pieces relabeled by the letters of ab and ba
        assert sub.graph.num_vertices == 3
        assert sub.graph.edges == ((0, 1, 1), (1, 0, 2), (0, 2, 2), (2, 0, 1))
        assert sub.vertex_point[1] == ("e", 1, frac(1, 2))
        assert is_folded(sub.graph)

    def test_single_letter_images_add_no_vertices(self):
        sub = subdivide_level(IDENT, 1)
        assert sub.graph.num_vertices == 1
        assert sub.graph.edges == ((0, 0, 1), (0, 0, 2))

    def test_reversed_letter_is_stored_flipped(self):
        sub = subdivide_map(FLIP)
        assert sub.graph.edges == ((0, 0, 1),)
        assert sub.edge_meta[0][3] is False  # stored orientation descends a

    def test_level_two_uses_composite_positions(self):
        sub = subdivide_level(MIXED, 2)
        # f²(a) = ab·bba has length 5, but the five pieces of a are cut at the
        # f-preimages of the junctions of f(a) = ab, not at fifths
        pts = [p for p in sub.vertex_point if p[0] == "e" and p[1] == 1]
        assert [t for _, _, t in pts] == [
            frac(1, 4),
            frac(1, 2),
            frac(2, 3),
            frac(5, 6),
        ]


class TestFiberProduct:
    def test_identity_product_is_diagonal_rose(self):
        fp = fiber_product(IDENT, IDENT)
        assert fp.graph.num_vertices == 1
        assert len(fp.graph.edges) == 2
        comps = fp.components()
        assert len(comps) == 1 and comps[0].contains_diagonal

    def test_spec_trivial_intersection(self):
        fp = fiber_product(stallings("a"), stallings("b"))
        assert fp.graph.num_vertices == 1
        assert fp.graph.edges == ()
        assert fp.graph.basepoint == 0
        c = core(fp.graph)
        assert c.num_vertices == 1 and c.edges == ()

    def test_spec_cyclic_intersection(self):
        fp = fiber_product(stallings("aa", rank=1), stallings("aaa", rank=1))
        assert fp.graph.num_vertices == 6
        assert len(fp.graph.edges) == 6
        comps = fp.components()
        assert [c.rank for c in comps] == [1]
        # the based component accepts exactly the powers of a^6
        assert membership(fp.graph, word_from_string("aaaaaa", 1))
        assert membership(fp.graph, word_from_string("a" * 12, 1))
        assert not membership(fp.graph, word_from_string("aa", 1))
        assert not membership(fp.graph, word_from_string("aaa", 1))

    def test_sapir_level_one_census(self):
        fp = fiber_product(SAPIR, SAPIR)
        assert fp.graph.num_vertices == 9
        assert len(fp.graph.edges) == 8
        census = sorted(
            (c.rank, c.contains_diagonal, len(c.vertex_ids), len(c.edge_ids))
            for c in fp.components()
        )
        assert census == [
            (0, False, 1, 0),
            (0, False, 1, 0),
            (1, False, 2, 2),
            (1, False, 2, 2),
            (2, True, 3, 4),
        ]

    def test_product_of_folded_factors_is_folded(self):
        for f in (SAPIR, MIXED, SQUARES):
            assert is_folded(fiber_product(f, f).graph)

    def test_diagonal_component_copies_the_factor(self):
        for f in (SAPIR, MIXED):
            sub = subdivide_level(f, 1)
            fp = fiber_product(sub, sub)
            diag = [c for c in fp.components() if c.contains_diagonal]
            assert len(diag) == 1
            piece, _ = subgraph_on(fp.graph, diag[0].vertex_ids)
            assert canonical_code(piece) == canonical_code(sub.graph)

    def test_based_self_product_recovers_subgroup(self):
        h = stallings("ab", "ba")
        fp = fiber_product(h, h)
        for s in ("ab", "ba", "abba", "baab"):
            assert membership(fp.graph, word_from_string(s, 2))
        for s in ("a", "b", "aab"):
            assert not membership(fp.graph, word_from_string(s, 2))

    def test_rejects_non_immersion_map(self):
        with pytest.raises(ValueError, match="immersion"):
            fiber_product(NON_IMMERSION, NON_IMMERSION)

    def test_rejects_unfolded_graph(self):
        g = LabeledGraph(2, 3, ((0, 1, 1), (0, 2, 1)))
        with pytest.raises(ValueError, match="vertex 0"):
            as_product_factor(g)

    def test_rejects_codomain_mismatch(self):
        with pytest.raises(ValueError, match="codomain"):
            fiber_product(DOUBLE, SAPIR)

    def test_budget_guard(self):
        with pytest.raises(ProductBudgetError):
            fiber_product(SAPIR, SAPIR, max_edges=3)

    def test_offender_is_named(self):
        assert immersion_offender(NON_IMMERSION) == 0
        assert immersion_offender(SAPIR) is None


def dict_indexed_product(a, b):
    """Edges and edge pairs of the product of two labeled graphs, numbered
    through a dict over all vertex pairs: the construction fiber_product
    used before it was built on the edge stream."""
    by_label_a, by_label_b = {}, {}
    for i, (_, _, l) in enumerate(a.edges):
        by_label_a.setdefault(l, []).append(i)
    for j, (_, _, l) in enumerate(b.edges):
        by_label_b.setdefault(l, []).append(j)
    pairs = [(x, y) for x in range(a.num_vertices) for y in range(b.num_vertices)]
    index = {p: n for n, p in enumerate(pairs)}
    edges, edge_pairs = [], []
    for l in sorted(by_label_b):
        for i in by_label_a.get(l, ()):
            ua, va, _ = a.edges[i]
            for j in by_label_b[l]:
                ub, vb, _ = b.edges[j]
                edges.append((index[(ua, ub)], index[(va, vb)], l))
                edge_pairs.append((i, j))
    return tuple(pairs), edges, edge_pairs


@st.composite
def subgroup_graphs(draw, rank):
    gens = draw(
        st.lists(
            st.lists(
                st.sampled_from([x for x in range(-rank, rank + 1) if x]),
                min_size=1,
                max_size=5,
            ),
            min_size=1,
            max_size=3,
        )
    )
    return subgroup_graph([reduce(tuple(g), rank) for g in gens], rank)


class TestProductEdgeStream:
    """product_edges is the one home of the product's edges and their order."""

    def check(self, left, right):
        fp = fiber_product(left, right)
        a, b = fp.left.graph, fp.right.graph
        streamed = list(product_edges(a, b))
        assert [s[:3] for s in streamed] == list(fp.graph.edges)
        assert [s[3:] for s in streamed] == list(fp.edge_pairs)
        pairs, edges, edge_pairs = dict_indexed_product(a, b)
        assert fp.vertex_pairs == pairs
        assert list(fp.graph.edges) == edges
        assert list(fp.edge_pairs) == edge_pairs
        for v, (x, y) in enumerate(pairs):
            assert divmod(v, b.num_vertices) == (x, y)
        if a.basepoint is not None and b.basepoint is not None:
            assert pairs[fp.graph.basepoint] == (a.basepoint, b.basepoint)

    @given(st.data(), st.sampled_from([2, 3]))
    @settings(max_examples=150, deadline=None)
    def test_matches_fiber_product_on_subgroup_graphs(self, data, rank):
        h = data.draw(subgroup_graphs(rank))
        k = data.draw(subgroup_graphs(rank))
        self.check(h, k)
        self.check(core(h, keep_basepoint=False), core(k, keep_basepoint=False))

    def test_matches_fiber_product_on_filtration_levels(self):
        for f in (SAPIR, MIXED, SQUARES, IDENT):
            for level in (1, 2, 3):
                sub = subdivide_level(f, level)
                self.check(sub, sub)
        self.check(DOUBLE, DOUBLE)

    def test_budget_is_checked_on_call(self):
        a = stallings("ab", "ba")
        # two edges of each label on each side: 2·2 + 2·2 product edges
        with pytest.raises(ProductBudgetError, match="8 edges"):
            product_edges(a, a, max_edges=7)
        assert len(list(product_edges(a, a, max_edges=8))) == 8


def intersection_membership(a, b, letters, rank=2):
    """Membership in H ∩ K decided on the two factor graphs only."""
    w = Word(letters, rank)
    return membership(a, w) and membership(b, w)


class TestProductMembershipOracle:
    """The based product accepts exactly the loops both factors accept."""

    @given(st.lists(st.sampled_from([1, 2, -1, -2]), max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_against_two_subgroups(self, raw):
        a = stallings("ab", "ba")
        b = stallings("aa", "bb", "ab")
        w = reduce(tuple(raw), 2)
        fp = fiber_product(a, b)
        assert membership(fp.graph, w) == intersection_membership(a, b, w.letters)

    def test_known_elements(self):
        a = stallings("ab", "ba")
        b = stallings("aa", "bb", "ab")
        fp = fiber_product(a, b)
        # abba = (ab)(ba) lies in both subgroups; ab itself does too
        assert membership(fp.graph, word_from_string("abba", 2))
        assert membership(fp.graph, word_from_string("ab", 2))
        # aabb is a product of the right factor's generators only
        assert not membership(fp.graph, word_from_string("aabb", 2))
        assert not membership(fp.graph, word_from_string("a", 2))


class TestFiltration:
    def test_identity_has_no_new_components(self):
        filt = pullback_filtration(IDENT, 4)
        for i in range(1, 5):
            assert new_components(filt, i) == ()

    def test_doubling_census(self):
        filt = pullback_filtration(DOUBLE, 3)
        for i, expected in ((1, 1), (2, 2), (3, 4)):
            reps = new_components(filt, i)
            assert len(reps) == expected
            assert all(r.classification == "single_loop" for r in reps)
            assert all(r.rank == 1 for r in reps)
            # each new loop is a cycle of label-length 2^i
            assert all(r.edge_count == 2 ** i for r in reps)
            assert all(r.core_edge_count == r.edge_count for r in reps)

    def test_sapir_level_one_reports(self):
        filt = pullback_filtration(SAPIR, 2)
        reps = sorted((r.rank, r.classification) for r in new_components(filt, 1))
        assert reps == [
            (0, "tree"),
            (0, "tree"),
            (1, "single_loop"),
            (1, "single_loop"),
        ]
        # isolated points have empty cores
        trees = [r for r in new_components(filt, 1) if r.rank == 0]
        assert all(r.core_edge_count == 0 for r in trees)

    def test_mixed_level_one_is_loop_free(self):
        filt = pullback_filtration(MIXED, 2)
        assert all(r.rank == 0 for r in new_components(filt, 1))
        assert all(r.rank == 0 for r in new_components(filt, 2))

    def test_containment_assertions_run(self):
        # deeper filtration exercises the cross-level signature matching
        pullback_filtration(SQUARES, 3)
        pullback_filtration(MIXED, 3)

    def test_depth_errors(self):
        filt = pullback_filtration(DOUBLE, 2)
        with pytest.raises(ValueError, match="depth"):
            new_components(filt, 3)
        with pytest.raises(ValueError):
            pullback_filtration(DOUBLE, 0)

    def test_rejects_non_immersion(self):
        with pytest.raises(ValueError, match="immersion"):
            pullback_filtration(NON_IMMERSION, 2)


def fraction_signature(fp, comp):
    """A component's signature keyed by exact ``Fraction`` points, as the
    filtration computed it before its per-factor integer tables: intrinsic
    point pairs, and arcs between them as segments with rational ends."""
    g = fp.graph

    def point_pair(v):
        x, y = fp.vertex_pairs[v]
        return (fp.left.vertex_point[x], fp.right.vertex_point[y])

    def key(pp):
        return tuple((p[0], p[1], p[2] if len(p) > 2 else Fraction(0)) for p in pp)

    def flip(seg):
        return (seg[0], seg[2], seg[1])

    def segment(edge_id, direction, side):
        sub, k = (fp.left, fp.edge_pairs[edge_id][0]) if side == 0 else (fp.right, fp.edge_pairs[edge_id][1])
        e, lo, hi, ascending = sub.edge_meta[k]
        return (e, lo, hi) if ascending == (direction == 1) else (e, hi, lo)

    incident = collections.defaultdict(list)
    for i in comp.edge_ids:
        u, v, _ = g.edges[i]
        incident[u].append((i, 1))
        incident[v].append((i, -1))
    intrinsic = [
        v
        for v in comp.vertex_ids
        if "v" in (point_pair(v)[0][0], point_pair(v)[1][0]) or len(incident[v]) != 2
    ]
    arcs, walked = [], set()
    for v0 in intrinsic:
        for edge_id, direction in incident[v0]:
            if (edge_id, direction) in walked:
                continue
            eid, d, segs = edge_id, direction, []
            while True:
                walked.update({(eid, d), (eid, -d)})
                segs.append((segment(eid, d, 0), segment(eid, d, 1)))
                u, v, _ = g.edges[eid]
                pos = v if d == 1 else u
                if pos in intrinsic:
                    break
                first, second = incident[pos]
                eid, d = second if first == (eid, -d) else first
            seg_l = (segs[0][0][0], segs[0][0][1], segs[-1][0][2])
            seg_r = (segs[0][1][0], segs[0][1][1], segs[-1][1][2])
            a, b = key(point_pair(v0)), key(point_pair(pos))
            arcs.append(min((a, b, seg_l, seg_r), (b, a, flip(seg_l), flip(seg_r))))
    return (tuple(sorted(key(point_pair(v)) for v in intrinsic)), tuple(sorted(arcs)))


def partition(keys):
    """The partition of positions that ``keys`` induces, as sorted blocks."""
    blocks = collections.defaultdict(list)
    for n, k in enumerate(keys):
        blocks[k].append(n)
    return sorted(blocks.values())


class TestFiltrationOracle:
    """The per-factor tables against the per-pair Fraction arithmetic they
    replaced."""

    @pytest.mark.parametrize(
        "f",
        [SAPIR, DOUBLE, MIXED, rose_map("aab", "bba")],
        ids=["SAPIR", "DOUBLE", "MIXED", "aab_bba"],
    )
    def test_flags_and_signature_classes_match(self, f):
        filt = pullback_filtration(f, 3)
        new_keys, old_keys = [], []
        for level in filt.levels:
            i = level.index
            fp = level.product
            for comp, flag in zip(level.components, level.in_previous):
                votes = set()
                for v in comp.vertex_ids:
                    x, y = fp.vertex_pairs[v]
                    p, q = fp.left.vertex_point[x], fp.right.vertex_point[y]
                    votes.add(point_image_power(f, p, i - 1) == point_image_power(f, q, i - 1))
                assert votes == {flag}, (i, comp.vertex_ids)
                new_keys.append(comp.signature)
                old_keys.append(fraction_signature(fp, comp))
        # components share a signature, within a level and across levels,
        # exactly when they shared one under the Fraction keys
        assert partition(new_keys) == partition(old_keys)
        assert len(partition(new_keys)) < len(new_keys)  # some classes repeat

    def test_no_point_image_power_per_product_vertex(self, monkeypatch):
        calls = collections.Counter()
        real = pullback.point_image

        def counted(f, p):
            calls["point_image"] += 1
            return real(f, p)

        monkeypatch.setattr(pullback, "point_image", counted)
        monkeypatch.setattr(pullback, "point_image_power", None)
        filt = pullback_filtration(MIXED, 3)
        # one one-step image per subdivided vertex of levels 2 and 3
        sizes = [lv.product.left.graph.num_vertices for lv in filt.levels]
        assert calls["point_image"] == sizes[1] + sizes[2]


class TestSubdivisionInvariance:
    def test_refolding_subdivision_is_idempotent(self):
        # subdividing an already-subdivided factor changes nothing
        sub = subdivide_level(SAPIR, 1)
        again = fiber_product(sub, sub)
        direct = fiber_product(SAPIR, SAPIR)
        assert canonical_code(again.graph) == canonical_code(direct.graph)


class TestStabilization:
    def test_identity_stabilizes_immediately(self):
        v = stabilization_power(IDENT)
        assert (v.kind, v.n) == ("stabilized_at", 1)

    def test_flip_stabilizes(self):
        v = stabilization_power(FLIP)
        assert (v.kind, v.n) == ("stabilized_at", 1)

    def test_mixed_stabilizes_despite_tree_components(self):
        # level one has off-diagonal point components but no loops
        v = stabilization_power(MIXED)
        assert (v.kind, v.n) == ("stabilized_at", 1)

    def test_doubling_has_invariant_loop(self):
        v = stabilization_power(DOUBLE)
        assert v.kind == "invariant_loop"
        assert v.loop == (1,)
        assert v.degree == 2
        assert v.power == 1

    def test_squares_have_invariant_loop(self):
        v = stabilization_power(SQUARES)
        assert v.kind == "invariant_loop"
        assert v.degree == 2
        assert len(v.loop) == 1

    def test_sapir_exceeds_cap(self):
        v = stabilization_power(SAPIR, cap=8)
        assert v.kind == "cap_exceeded"
        assert v.surviving == ((1, 2, 2), (1, 2, 2))

    def test_rejects_non_immersion(self):
        with pytest.raises(ValueError, match="vertex 0"):
            stabilization_power(NON_IMMERSION)

    @pytest.mark.parametrize("n", [2, 3])
    def test_power_dirtiness_matches_level_one(self, n):
        # an off-diagonal loop at one power exists iff one exists at power 1,
        # checked here directly on the products of iterated maps
        for f, dirty in ((SAPIR, True), (MIXED, False), (SQUARES, True)):
            g = iterate_map(f, n)
            fp = fiber_product(g, g)
            found = any(
                c.rank >= 1 and not c.contains_diagonal for c in fp.components()
            )
            assert found == dirty

    def test_invariant_loop_witness_checks_out(self):
        from hnncert.graphmap import cyclic_paths_equal, map_loop

        v = stabilization_power(SQUARES)
        image = v.loop
        for _ in range(v.power):
            image = map_loop(SQUARES, image)
        assert cyclic_paths_equal(image, v.loop * v.degree)


def booth_scan(f, gamma, cap):
    """Oracle for ``pullback._invariant_loop``: build every iterate up to the
    cap, then test each pair k < kp in (kp, k) order by Booth-rotating
    f^kp(γ) and (f^k(γ))^d whole."""
    from hnncert.graphmap import cyclic_paths_equal, map_loop

    iterates = [gamma]
    for _ in range(cap):
        nxt = map_loop(f, iterates[-1])
        if not nxt or len(nxt) > 200_000:
            break
        iterates.append(nxt)
    for kp in range(1, len(iterates)):
        for k in range(kp):
            lk, lkp = len(iterates[k]), len(iterates[kp])
            if lk == 0 or lkp % lk != 0:
                continue
            d = lkp // lk
            if cyclic_paths_equal(iterates[kp], iterates[k] * d):
                return StabilizationVerdict(
                    "invariant_loop", loop=iterates[k], degree=d, power=kp - k
                )
    return None


def rank_two_immersions(max_len):
    words = [
        w
        for n in range(1, max_len + 1)
        for w in itertools.product((1, -1, 2, -2), repeat=n)
        if reduce(w, 2).letters == w
    ]
    for a, b in itertools.product(words, repeat=2):
        f = GraphMap.from_endomorphism(Endomorphism(2, (Word(a, 2), Word(b, 2))))
        if immersion_offender(f) is None:
            yield f


class TestInvariantLoopSearch:
    """The primitive-root scan against the pairwise Booth scan it replaced,
    and the work it does."""

    @staticmethod
    def fields(v):
        return (v.kind, v.n, v.loop, v.degree, v.power, v.surviving)

    def both(self, f, cap, monkeypatch):
        fast = stabilization_power(f, cap=cap)
        with monkeypatch.context() as m:
            m.setattr(pullback, "_invariant_loop", booth_scan)
            slow = stabilization_power(f, cap=cap)
        return self.fields(fast), self.fields(slow)

    def test_matches_booth_scan_on_small_rank_two_immersions(self, monkeypatch):
        kinds = collections.Counter()
        maps = list(rank_two_immersions(3))
        assert len(maps) == 344
        for f in maps:
            fast, slow = self.both(f, 6, monkeypatch)
            assert fast == slow, f.edge_map
            kinds[fast[0]] += 1
        # every verdict kind occurs, so the comparison is not vacuous
        assert set(kinds) == {"stabilized_at", "invariant_loop", "cap_exceeded"}

    @pytest.mark.parametrize(
        "f", [IDENT, FLIP, MIXED, DOUBLE, SQUARES, SAPIR],
        ids=["IDENT", "FLIP", "MIXED", "DOUBLE", "SQUARES", "SAPIR"],
    )
    def test_matches_booth_scan_on_fixtures(self, f, monkeypatch):
        fast, slow = self.both(f, 8, monkeypatch)
        assert fast == slow

    @staticmethod
    def count(monkeypatch, module, name, tally, size):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            tally[name] += size(args)
            tally[name + "_calls"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def test_rotates_no_more_than_the_candidate_loops(self, monkeypatch):
        tally = collections.Counter()
        self.count(monkeypatch, pullback, "_canonical_loop", tally, lambda a: len(a[0]))
        # wherever a module of the package binds the name
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "hnncert" and (
                getattr(module, "least_rotation", None) is least_rotation
            ):
                self.count(monkeypatch, module, "least_rotation", tally, lambda a: len(a[0]))
        v = stabilization_power(SAPIR)
        assert v.kind == "cap_exceeded"
        # each candidate class is keyed in both orientations; the scan
        # itself rotates no iterate of SAPIR, whose roots all differ in length
        assert tally["_canonical_loop"] > 0
        assert tally["least_rotation"] <= 2 * tally["_canonical_loop"]

    @given(
        st.sampled_from(list(rank_two_immersions(3))),
        st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_immersed_loop_images_need_no_reduction(self, f, raw):
        from hnncert.graphmap import map_loop

        loop = cyclic_core(free_reduce(raw))
        assume(loop)
        assert pullback._immersed_loop_image(f, loop) == map_loop(f, loop)

    def test_stops_mapping_at_the_first_witness(self, monkeypatch):
        tally = collections.Counter()
        self.count(monkeypatch, pullback, "_immersed_loop_image", tally, lambda a: len(a[1]))
        v = stabilization_power(SQUARES)
        assert (v.kind, v.power, v.degree) == ("invariant_loop", 1, 2)
        assert tally["_immersed_loop_image_calls"] == 1


class TestDoubleCosetOracle:
    """Level-one loop components against a membership-only conjugacy scan.

    H ∩ gHg⁻¹ is nontrivial for some g outside H exactly when the
    off-diagonal part of the self product has a loop; the scan decides the
    dirty side with factor-graph membership alone.
    """

    @staticmethod
    def _reduced_words(rank, max_len):
        out, stack = [], [()]
        while stack:
            prefix = stack.pop()
            if prefix:
                out.append(prefix)
            if len(prefix) == max_len:
                continue
            for s in range(-rank, rank + 1):
                if s == 0 or (prefix and prefix[-1] == -s):
                    continue
                stack.append(prefix + (s,))
        return out

    def _scan(self, images, rank=2, gmax=3, wmax=6):
        e = endo(*images, rank=rank)
        h = subgroup_graph(list(e.images), rank)
        members = [
            Word(w, rank)
            for w in self._reduced_words(rank, wmax)
            if membership(h, Word(w, rank))
        ]
        for g in self._reduced_words(rank, gmax):
            gw = Word(g, rank)
            if membership(h, gw):
                continue
            for w in members:
                conj = reduce(gw.inverse().letters + w.letters + gw.letters, rank)
                if membership(h, conj):
                    return True
        return False

    @pytest.mark.parametrize(
        "images,rank,dirty",
        [
            (("ab", "ba"), 2, True),
            (("aa", "bb"), 2, True),
            (("aa",), 1, True),
            (("ab", "bba"), 2, False),
        ],
    )
    def test_scan_matches_product(self, images, rank, dirty):
        assert self._scan(images, rank=rank) == dirty
        f = rose_map(*images, rank=rank)
        fp = fiber_product(f, f)
        found = any(
            c.rank >= 1 and not c.contains_diagonal for c in fp.components()
        )
        assert found == dirty
