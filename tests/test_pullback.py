"""Fiber products, the pullback filtration, and stabilization verdicts."""

import collections
import itertools
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hnncert import pullback
from hnncert import stallings as stallings_module
from hnncert.graphmap import (
    GraphMap,
    is_immersion,
    iterate_map,
    letter_counts,
    rose,
    transition_matrix,
)
from hnncert.pullback import (
    ComponentReport,
    ProductBudgetError,
    ProductComponent,
    ProductPairs,
    StabilizationVerdict,
    _subdivision_fractions,
    as_product_factor,
    fiber_product,
    new_components,
    point_image,
    point_image_power,
    product_components,
    pullback_filtration,
    stabilization_power,
    subdivide_level,
    subdivide_map,
)
from hnncert.stallings import (
    LabeledGraph,
    canonical_code,
    component_labels,
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
        fp = fiber_product(subdivide_map(IDENT), subdivide_map(IDENT))
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
        fp = fiber_product(subdivide_map(SAPIR), subdivide_map(SAPIR))
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
            sub = subdivide_map(f)
            assert is_folded(fiber_product(sub, sub).graph)

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
        # a map enters as its subdivision; a non-immersion's is not folded
        g = subdivide_map(NON_IMMERSION).graph
        with pytest.raises(ValueError, match="immersion"):
            fiber_product(g, g)

    def test_rejects_unfolded_graph(self):
        g = LabeledGraph(2, 3, ((0, 1, 1), (0, 2, 1)))
        with pytest.raises(ValueError, match="vertex 0"):
            as_product_factor(g)

    def test_rejects_codomain_mismatch(self):
        with pytest.raises(ValueError, match="codomain"):
            fiber_product(subdivide_map(DOUBLE), subdivide_map(SAPIR))

    def test_budget_guard(self):
        with pytest.raises(ProductBudgetError):
            fiber_product(subdivide_map(SAPIR), subdivide_map(SAPIR), max_edges=3)

    def test_offender_is_named(self):
        for build in (lambda f: pullback_filtration(f, 1), stabilization_power):
            with pytest.raises(ValueError, match="direction clash at vertex 0"):
                build(NON_IMMERSION)
            build(SAPIR)


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
    """fiber_product's edges, streamed per label block, and their order."""

    def check(self, left, right):
        fp = fiber_product(left, right)
        a, b = fp.left.graph, fp.right.graph
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
        self.check(subdivide_map(DOUBLE), subdivide_map(DOUBLE))

    def test_budget_is_checked_on_call(self):
        a = stallings("ab", "ba")
        # two edges of each label on each side: 2·2 + 2·2 product edges
        with pytest.raises(ProductBudgetError, match="8 edges"):
            fiber_product(a, a, max_edges=7)
        assert len(fiber_product(a, a, max_edges=8).graph.edges) == 8
        with pytest.raises(ProductBudgetError, match="8 edges"):
            product_components(a, a, max_edges=7)
        assert sum(len(edges) for _, edges in product_components(a, a, max_edges=8)) == 8


class TestProductComponents:
    """product_components walks the components with edges of fiber_product's
    product, least vertex first."""

    def check(self, a, b):
        fp = fiber_product(a, b)
        labels = component_labels(fp.graph)
        walked = list(product_components(a, b))
        assert len(walked) == len({labels[u] for u, _, _ in fp.graph.edges})
        edges = sorted(e for _, comp in walked for e in comp)
        assert edges == [
            (l, i, j, u, v) for (u, v, l), (i, j) in zip(fp.graph.edges, fp.edge_pairs)
        ]
        least = []
        for vertices, comp in walked:
            (c,) = {labels[u] for _, _, _, u, _ in comp}
            members = [v for v, lab in enumerate(labels) if lab == c]
            assert vertices == len(members)
            least.append(members[0])
        assert least == sorted(least)

    @given(st.data(), st.sampled_from([2, 3]))
    @settings(max_examples=150, deadline=None)
    def test_matches_fiber_product_on_subgroup_graphs(self, data, rank):
        h = data.draw(subgroup_graphs(rank))
        k = data.draw(subgroup_graphs(rank))
        self.check(h, k)
        self.check(core(h, keep_basepoint=False), core(k, keep_basepoint=False))


# --- the filtration's components as they were built before isolated product
# vertices skipped the signature walk (test-local oracle) ---


def oracle_components(fp):
    g = fp.graph
    labels = component_labels(g)
    n_comp = max(labels) + 1 if labels else 0
    comp_vertices = [[] for _ in range(n_comp)]
    for v in range(g.num_vertices):
        comp_vertices[labels[v]].append(v)
    comp_edges = [[] for _ in range(n_comp)]
    incident = [[] for _ in range(g.num_vertices)]
    for i, (u, v, _) in enumerate(g.edges):
        comp_edges[labels[u]].append(i)
        incident[u].append((i, 1))
        incident[v].append((i, -1))

    out = []
    for verts, edges in zip(comp_vertices, comp_edges):
        rank = len(edges) - len(verts) + 1
        signature = oracle_signature(fp, verts, incident)
        diag = any(x == y for x, y in (fp.vertex_pairs[v] for v in verts))
        out.append(ProductComponent(tuple(verts), tuple(edges), rank, signature, diag))
    return tuple(out)


def oracle_signature(fp, verts, incident):
    g = fp.graph
    pairs = fp.vertex_pairs
    left, right = fp.left, fp.right
    key_l, key_r = left.point_keys, right.point_keys
    on_l, on_r = left.on_vertex, right.on_vertex
    seg_l_of, seg_r_of = left.segments, right.segments
    intrinsic = {}
    for v in verts:
        x, y = pairs[v]
        if on_l[x] or on_r[y] or len(incident[v]) != 2:
            intrinsic[v] = (key_l[x], key_r[y])
    if not intrinsic:
        raise RuntimeError("component without intrinsic vertices; product structure violated")

    arcs = []
    walked = set()  # (edge, direction) half-edges
    for v0, key0 in intrinsic.items():
        for edge_id, direction in incident[v0]:
            if (edge_id, direction) in walked:
                continue
            seg_l = seg_r = None
            eid, d = edge_id, direction
            while True:
                walked.add((eid, d))
                walked.add((eid, -d))
                i, j = fp.edge_pairs[eid]
                side = 0 if d == 1 else 1
                seg_l = oracle_chain(seg_l, seg_l_of[i][side])
                seg_r = oracle_chain(seg_r, seg_r_of[j][side])
                u, w, _ = g.edges[eid]
                pos = w if d == 1 else u
                if pos in intrinsic:
                    break
                first, second = incident[pos]
                eid, d = second if first == (eid, -d) else first
            key1 = intrinsic[pos]
            arcs.append(
                min(
                    (key0, key1, seg_l, seg_r),
                    (key1, key0, oracle_flip(seg_l), oracle_flip(seg_r)),
                )
            )
    return (tuple(sorted(intrinsic.values())), tuple(sorted(arcs)))


def oracle_chain(acc, seg):
    if acc is None:
        return seg
    e, a, b = acc
    e2, a2, b2 = seg
    if e2 != e or a2 != b:
        raise RuntimeError("arc left its edge without an intrinsic vertex")
    return (e, a, b2)


def oracle_flip(seg):
    return (seg[0], seg[2], seg[1])


def oracle_level_flags(fp, comps, images):
    flags = []
    for comp in comps:
        votes = {images[x] == images[y] for x, y in (fp.vertex_pairs[v] for v in comp.vertex_ids)}
        assert len(votes) == 1
        flags.append(votes.pop())
    return tuple(flags)


# the rose fixtures of perfbench's primitives workload, at its depths
ROSE_FIXTURES = {
    "swap": (((1, 2), (2, 1)), 5),
    "doubles": (((1, 1), (2, 2)), 5),
    "lam1": (((1, 1, 2), (2, 2, 1)), 4),
    "lam2": (((1, 2, 2), (2, 1, 1)), 4),
    "square1": (((1, 1),), 6),
    "perm": (((2,), (1,)), 8),
}


class TestComponentWalkOracle:
    """Components and flags equal the construction that walked every
    component, isolated product vertices included."""

    def test_rose_fixtures(self):
        isolated = 0
        for name, (images, depth) in ROSE_FIXTURES.items():
            r = rose(len(images))
            f = GraphMap(r, r, (0,), images)
            previous = None
            for level in pullback_filtration(f, depth).levels:
                fp = level.product
                sub = fp.left
                point_images = pullback._previous_images(f, sub, previous)
                previous = (sub, point_images)
                comps = oracle_components(fp)
                assert level.components == comps, (name, level.index)
                assert level.in_previous == oracle_level_flags(fp, comps, point_images), (
                    name,
                    level.index,
                )
                isolated += sum(1 for c in comps if not c.edge_ids)
        assert isolated > 1000

    def test_random_subgroup_graph_products(self):
        rng = random.Random(16)
        checked = 0
        for _ in range(300):
            rank = rng.choice([2, 3])
            pair = []
            for _ in range(2):
                gens = []
                for _ in range(rng.randint(1, 3)):
                    w = [rng.choice([x for x in range(-rank, rank + 1) if x])]
                    while len(w) < rng.randint(1, 8):
                        w.append(rng.choice([x for x in range(-rank, rank + 1) if x and x != -w[-1]]))
                    gens.append(Word(tuple(w), rank))
                g = subgroup_graph(gens, rank)
                pair.append(g if rng.random() < 0.5 else core(g, keep_basepoint=False))
            fp = fiber_product(*pair)
            assert fp.components() == oracle_components(fp)
            checked += len(fp.components())
        assert checked > 1000


class TestProductPairs:
    """ProductPairs is the sequence tuple(product(range(na), range(nb)))."""

    SLICES = (
        slice(None),
        slice(1, None),
        slice(None, -1),
        slice(None, None, -1),
        slice(1, 5, 2),
        slice(-3, None),
        slice(4, 1, -1),
        slice(40, 50),
    )

    def test_matches_the_tuple_of_pairs(self):
        for na, nb in itertools.product(range(7), repeat=2):
            pairs = ProductPairs(na, nb)
            want = tuple(itertools.product(range(na), range(nb)))
            assert len(pairs) == len(want)
            for v in range(-len(want), len(want)):
                assert pairs[v] == want[v]
            for v in (len(want), -len(want) - 1):
                with pytest.raises(IndexError):
                    pairs[v]
            for s in self.SLICES:
                assert pairs[s] == want[s]
            assert tuple(pairs) == want
            for v, pair in enumerate(want):
                assert pair in pairs
                assert pairs.index(pair) == v
            for missing in ((na, 0), (0, nb), (-1, 0)):
                assert missing not in pairs
                with pytest.raises(ValueError):
                    pairs.index(missing)
            assert pairs == want and want == pairs
            assert pairs == list(want) and list(want) == pairs
            assert pairs != want + ((na, nb),) and want + ((na, nb),) != pairs
            assert pairs == ProductPairs(na, nb)
            assert hash(pairs) == hash(ProductPairs(na, nb)) == hash(want)

    def test_unequal_shapes(self):
        assert ProductPairs(2, 3) != ProductPairs(3, 2)
        assert ProductPairs(2, 3) != tuple(itertools.product(range(3), range(2)))
        assert ProductPairs(0, 3) == ProductPairs(2, 0) == ()

    def test_fiber_product_index_is_the_vertex_id(self):
        a = core(stallings("aab", "ba"), keep_basepoint=True)
        b = core(stallings("ab", "bba"), keep_basepoint=True)
        fp = fiber_product(a, b)
        assert fp.vertex_pairs == ProductPairs(a.num_vertices, b.num_vertices)
        assert fp.vertex_pairs.index((a.basepoint, b.basepoint)) == fp.graph.basepoint


class TestProductStructureErrors:
    """The component pass rejects products that no two subdivided
    immersions give."""

    THIRD, TWO_THIRDS = Fraction(1, 3), Fraction(2, 3)

    def test_component_without_intrinsic_vertices(self):
        # a 2-cycle of interior points: its self product has two 2-cycles
        # whose vertices are interior points of valence two
        graph = LabeledGraph(1, 2, ((0, 1, 1), (1, 0, 1)))
        points = (("e", 1, self.THIRD), ("e", 1, self.TWO_THIRDS))
        metas = ((1, self.THIRD, self.TWO_THIRDS, True), (1, self.TWO_THIRDS, self.THIRD, True))
        sub = pullback.Subdivided(rose(1), graph, points, metas)
        with pytest.raises(RuntimeError, match="without intrinsic vertices"):
            fiber_product(sub, sub).components()

    def test_arc_leaving_its_edge(self):
        # the middle piece of a petal claims another parent edge
        graph = LabeledGraph(1, 3, ((0, 1, 1), (1, 2, 1), (2, 0, 1)))
        points = (("v", 0), ("e", 1, self.THIRD), ("e", 1, self.TWO_THIRDS))
        metas = (
            (1, Fraction(0), self.THIRD, True),
            (2, self.THIRD, self.TWO_THIRDS, True),
            (1, self.TWO_THIRDS, Fraction(1), True),
        )
        sub = pullback.Subdivided(rose(1), graph, points, metas)
        with pytest.raises(RuntimeError, match="arc left its edge"):
            fiber_product(sub, sub).components()


def induced_new_components(filtration, i):
    """new_components as it was built before it read each component's own
    edges: the subgraph induced on the component's vertices from the whole
    product (test-local copy)."""
    level = filtration.level(i)
    out = []
    for comp, old in zip(level.components, level.in_previous):
        if old:
            continue
        sub, _ = subgraph_on(level.product.graph, comp.vertex_ids)
        c = core(sub, keep_basepoint=False)
        out.append(
            ComponentReport(
                comp.rank,
                comp.classification,
                len(comp.vertex_ids),
                len(comp.edge_ids),
                c.num_vertices,
                len(c.edges),
            )
        )
    return tuple(out)


def rose_fixture(name):
    images, depth = ROSE_FIXTURES[name]
    r = rose(len(images))
    return GraphMap(r, r, (0,), images), depth


class TestNewComponents:
    def test_matches_the_induced_subgraphs_on_rose_fixtures(self):
        reported = 0
        for name in ROSE_FIXTURES:
            f, depth = rose_fixture(name)
            filt = pullback_filtration(f, depth)
            for i in range(1, depth + 1):
                reps = new_components(filt, i)
                assert reps == induced_new_components(filt, i), (name, i)
                reported += len(reps)
        assert reported > 20_000

    def test_lam1_level_four_is_linear(self):
        # the induced subgraphs scanned every product edge per component:
        # 11,448 components against 13,122 edges took 5 s
        f, _ = rose_fixture("lam1")
        filt = pullback_filtration(f, 4)
        t0 = time.perf_counter()
        reps = new_components(filt, 4)
        assert time.perf_counter() - t0 < 1.0
        assert len(reps) == 11_448


class TestFiltrationMemory:
    def test_lam1_depth_four_peak(self):
        f, depth = rose_fixture("lam1")
        tracemalloc.start()
        try:
            pullback_filtration(f, depth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 19.5 MB with a vertex pair tuple per product vertex and per-vertex
        # incidence lists; 13.3 MB with lazy pairs and the flat pass
        assert peak < 16_000_000


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
        direct = fiber_product(subdivide_map(SAPIR), subdivide_map(SAPIR))
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
            sub = subdivide_map(iterate_map(f, n))
            fp = fiber_product(sub, sub)
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


def kmp_primitive_root(seq):
    """``words.primitive_root`` as the Knuth–Morris–Pratt failure function."""
    n = len(seq)
    if not n:
        return 0, 0
    fail = [0] * n
    k = 0
    for i in range(1, n):
        x = seq[i]
        while k and x != seq[k]:
            k = fail[k - 1]
        if x == seq[k]:
            k += 1
        fail[i] = k
    period = n - k
    if n % period:
        return n, 1
    return period, n // period


def per_letter_scan(f, gamma, cap):
    """Oracle for ``pullback._invariant_loop`` as it was before the
    whole-iterate search: each iterate mapped one ``edge_image`` call per
    letter and reduced to its root by :func:`kmp_primitive_root`, with the
    same length guard and (kp, k) scan."""
    m = transition_matrix(f)
    counts = letter_counts(gamma, len(m))
    iterates = [gamma]
    roots = [kmp_primitive_root(gamma)]
    keys = {}
    for kp in range(1, cap + 1):
        counts = [sum(map(mul, row, counts)) for row in m]
        if not 0 < sum(counts) <= 200_000:
            return None
        nxt = tuple(x for s in iterates[-1] for x in f.edge_image(s))
        iterates.append(nxt)
        period, exponent = kmp_primitive_root(nxt)
        roots.append((period, exponent))
        for k in range(kp):
            if roots[k][0] != period or exponent % roots[k][1]:
                continue
            for i in (k, kp):
                if i not in keys:
                    keys[i] = pullback._least_rotated(iterates[i][:period])
            if keys[k] == keys[kp]:
                return StabilizationVerdict(
                    "invariant_loop", loop=iterates[k], degree=exponent // roots[k][1],
                    power=kp - k,
                )
    return None


def seeded_immersions(seed, rank, count, max_image):
    """``count`` immersions of the rank-``rank`` rose with random reduced
    images of 1..``max_image`` letters, drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    out = []
    while len(out) < count:
        images = []
        for _ in range(rank):
            w, length = [rng.choice(letters)], rng.randint(1, max_image)
            while len(w) < length:
                w.append(rng.choice([x for x in letters if x != -w[-1]]))
            images.append(tuple(w))
        f = GraphMap(rose(rank), rose(rank), (0,), tuple(images))
        if is_immersion(f):
            out.append(f)
    return out


def rank_two_immersions(max_len):
    words = [
        w
        for n in range(1, max_len + 1)
        for w in itertools.product((1, -1, 2, -2), repeat=n)
        if reduce(w, 2).letters == w
    ]
    for a, b in itertools.product(words, repeat=2):
        f = GraphMap.from_endomorphism(Endomorphism(2, (Word(a, 2), Word(b, 2))))
        if is_immersion(f):
            yield f


class TestInvariantLoopSearch:
    """The primitive-root scan against the pairwise Booth scan it replaced,
    and the work it does."""

    @staticmethod
    def fields(v):
        return (v.kind, v.n, v.loop, v.degree, v.power, v.surviving)

    def both(self, f, cap, monkeypatch, oracle=booth_scan):
        fast = stabilization_power(f, cap=cap)
        with monkeypatch.context() as m:
            m.setattr(pullback, "_invariant_loop", oracle)
            slow = stabilization_power(f, cap=cap)
        return self.fields(fast), self.fields(slow)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_matches_the_per_letter_search_on_seeded_immersions(self, rank, monkeypatch):
        kinds = collections.Counter()
        for f in seeded_immersions(rank, rank, 120, 5):
            fast, slow = self.both(f, 8, monkeypatch, per_letter_scan)
            assert fast == slow, f.edge_map
            kinds[fast[0]] += 1
        assert set(kinds) == {"stabilized_at", "invariant_loop", "cap_exceeded"}

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
        from hnncert.graphmap import immersed_loop_image, map_path

        loop = cyclic_core(free_reduce(raw))
        assume(loop)
        assert immersed_loop_image(f, loop) == cyclic_core(map_path(f, loop))

    def test_stops_mapping_at_the_first_witness(self, monkeypatch):
        tally = collections.Counter()
        self.count(monkeypatch, pullback, "immersed_loop_image", tally, lambda a: len(a[1]))
        v = stabilization_power(SQUARES)
        assert (v.kind, v.power, v.degree) == ("invariant_loop", 1, 2)
        assert tally["immersed_loop_image_calls"] == 1

    def test_builds_no_iterate_over_the_length_guard(self, monkeypatch):
        # iterates of a single letter grow 20-fold: 160,000 letters, then
        # 3,200,000, which the guard rejects from the letter counts alone
        lengths = []
        real = pullback.immersed_loop_image

        def measured(f, loop):
            image = real(f, loop)
            lengths.append(len(image))
            return image

        monkeypatch.setattr(pullback, "immersed_loop_image", measured)
        v = stabilization_power(rose_map("ab" * 10, "ba" * 10))
        assert v.kind == "cap_exceeded"
        assert max(lengths) == 160_000


def strip_backtracks(cycle):
    """Free and then cyclic reduction of a cycle of (edge id, direction)."""
    out = []
    for item in cycle:
        if out and out[-1][0] == item[0] and out[-1][1] == -item[1]:
            out.pop()
        else:
            out.append(item)
    while len(out) >= 2 and out[0][0] == out[-1][0] and out[0][1] == -out[-1][1]:
        out = out[1:-1]
    return out


def fiber_product_cycles(fp, comp, limit=8):
    """Up to ``limit`` fundamental cycles of a FiberProduct component, as
    (edge id, direction) lists: a BFS tree from the component's first
    vertex, then the non-tree edges in edge-id order."""
    g = fp.graph
    root = comp.vertex_ids[0]
    parent, queue, tree = {}, [root], set()
    adj = {v: [] for v in comp.vertex_ids}
    for i in comp.edge_ids:
        u, v, _ = g.edges[i]
        adj[u].append((v, i, 1))
        adj[v].append((u, i, -1))
    for v in queue:
        for w, i, d in adj[v]:
            if w != root and w not in parent:
                parent[w] = (v, i, d)
                tree.add(i)
                queue.append(w)

    def path_to_root(v):
        out = []
        while v != root:
            p, i, d = parent[v]
            out.append((i, -d))
            v = p
        return out

    cycles = []
    for i in comp.edge_ids:
        if i in tree:
            continue
        u, v, _ = g.edges[i]
        cycle = [(e, -d) for e, d in reversed(path_to_root(u))] + [(i, 1)] + path_to_root(v)
        cycles.append(strip_backtracks(cycle))
        if len(cycles) >= limit:
            break
    return cycles


def fraction_projection(fp, cycle, side):
    """A product cycle's projection to one factor: the tightened pieces
    merged into runs of exact ``Fraction`` segments, the seam run merged
    with the first, and each run read as a full parent edge."""
    pieces = cyclic_core(
        free_reduce(d * (fp.edge_pairs[e][side] + 1) for e, d in cycle)
    )
    sub = fp.left if side == 0 else fp.right
    runs = []
    for signed in pieces:
        e, lo, hi, ascending = sub.edge_meta[abs(signed) - 1]
        seg = (e, lo, hi) if ascending == (signed > 0) else (e, hi, lo)
        if runs and runs[-1][0] == seg[0] and runs[-1][2] == seg[1]:
            runs[-1] = (seg[0], runs[-1][1], seg[2])
        else:
            runs.append(seg)
    if len(runs) >= 2 and runs[-1][0] == runs[0][0] and runs[-1][2] == runs[0][1]:
        runs[0] = (runs[0][0], runs[-1][1], runs[0][2])
        runs.pop()
    letters = []
    for e, a, b in runs:
        assert (a, b) in ((0, 1), (1, 0)), "a run ended mid-edge"
        letters.append(e if a == 0 else -e)
    return cyclic_core(free_reduce(letters))


def fiber_product_stabilization(f, cap):
    """Oracle for ``stabilization_power``: level 1 from the whole
    FiberProduct, its labelled components and their ProductComponent
    records, with the same candidate order and invariant-loop search."""
    sub = subdivide_level(f, 1)
    fp = fiber_product(sub, sub)
    dirty = [c for c in fp.components() if not c.contains_diagonal and c.rank >= 1]
    if not dirty:
        return StabilizationVerdict("stabilized_at", n=1)
    candidates, seen = [], set()
    loops = [
        fraction_projection(fp, cycle, side)
        for comp in dirty
        for cycle in fiber_product_cycles(fp, comp)
        if cycle
        for side in (0, 1)
    ]
    for loop in [l for l in loops if l] + [(e,) for e in range(1, f.domain.num_edges + 1)]:
        key = pullback._canonical_loop(loop)
        if key not in seen:
            seen.add(key)
            candidates.append(loop)
    for gamma in candidates:
        found = pullback._invariant_loop(f, gamma, cap)
        if found is not None:
            return found
    surviving = tuple((c.rank, len(c.vertex_ids), len(c.edge_ids)) for c in dirty)
    return StabilizationVerdict("cap_exceeded", surviving=surviving)


def long_image_immersion(length, seed):
    """A rank-2 immersion whose generators map to seeded random reduced
    words of ``length`` letters, a's image opening and closing with a and
    b's with b (so the four directions have distinct images)."""
    rng = random.Random(seed)
    images = []
    for first in (1, 2):
        w = [first]
        while len(w) < length - 1:
            x = rng.choice((1, -1, 2, -2))
            if x != -w[-1] and (len(w) < length - 2 or x != -first):
                w.append(x)
        images.append(Word(tuple(w) + (first,), 2))
    f = GraphMap.from_endomorphism(Endomorphism(2, tuple(images)))
    assert is_immersion(f)
    return f


class TestLevelOneWalk:
    """stabilization_power reads level 1 from the component walk, and
    matches the whole-FiberProduct route it replaced."""

    @staticmethod
    def fields(v):
        return (v.kind, v.n, v.loop, v.degree, v.power, v.surviving)

    def check(self, maps, cap):
        kinds = collections.Counter()
        for f in maps:
            got = self.fields(stabilization_power(f, cap=cap))
            assert got == self.fields(fiber_product_stabilization(f, cap)), f.edge_map
            kinds[got[0]] += 1
        # every verdict kind occurs, so the comparison is not vacuous
        assert set(kinds) == {"stabilized_at", "invariant_loop", "cap_exceeded"}

    def test_matches_the_fiber_product_route_on_small_rank_two_immersions(self):
        maps = list(rank_two_immersions(3))
        assert len(maps) == 344
        self.check(maps, 6)

    def test_matches_the_fiber_product_route_on_a_rank_three_sweep(self):
        rng = random.Random(13)
        letters = (1, -1, 2, -2, 3, -3)
        maps = []
        while len(maps) < 300:
            images = []
            for _ in range(3):
                w = [rng.choice(letters)]
                for _ in range(rng.randint(0, 3)):
                    w.append(rng.choice([x for x in letters if x != -w[-1]]))
                images.append(Word(tuple(w), 3))
            f = GraphMap.from_endomorphism(Endomorphism(3, tuple(images)))
            if is_immersion(f):
                maps.append(f)
        self.check(maps, 6)

    @pytest.mark.parametrize(
        "f, kind",
        [
            (SAPIR, "cap_exceeded"),
            (rose_map("ab" * 30, "ba" * 30), "cap_exceeded"),
            (long_image_immersion(60, 1), "stabilized_at"),
        ],
        ids=["SAPIR", "sapir_60", "random_60"],
    )
    def test_builds_no_whole_product(self, f, kind, monkeypatch):
        calls = collections.Counter()

        def count(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(pullback, "fiber_product")
        count(pullback, "_product_components")
        count(pullback, "component_labels")
        count(stallings_module, "component_labels")
        tracemalloc.start()
        try:
            v = stabilization_power(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.kind == kind
        assert calls == {}
        # building the whole level-1 product (fiber_product) of a 60-letter
        # map peaks at 9-10 MB; SAPIR's 3.5 MB are its iterates of up to
        # 2^16 letters
        assert peak < 5_000_000


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
        sub = subdivide_map(rose_map(*images, rank=rank))
        fp = fiber_product(sub, sub)
        found = any(
            c.rank >= 1 and not c.contains_diagonal for c in fp.components()
        )
        assert found == dirty
