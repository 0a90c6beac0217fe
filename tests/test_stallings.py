"""Stallings graphs: folding, membership, cores, ranks, isomorphism codes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnncert import stallings as stallings_module
from hnncert.stallings import (
    LabeledGraph,
    canonical_code,
    component_labels,
    core,
    fold,
    fold_with_map,
    graph_rank,
    is_folded,
    membership,
    subgraph_on,
    subgroup_graph,
)
from hnncert.words import Word, free_reduce, reduce, word_from_string


def W(s, rank=2):
    return word_from_string(s, rank)


# --- independent reference implementations (test-local oracles) ---


def wedge_edges(gens):
    """Unfolded wedge of loops for the given generator words (basepoint 0)."""
    edges = []
    nv = 1
    for w in gens:
        if not w.letters:
            continue
        prev = 0
        for i, x in enumerate(w.letters):
            last = i == len(w.letters) - 1
            nxt = 0 if last else nv
            if not last:
                nv += 1
            edges.append((prev, nxt, x) if x > 0 else (nxt, prev, -x))
            prev = nxt
    return nv, edges


class UnionFindLabels:
    """component_labels as a union-find class computed it before the flat
    labelling: union keeps the smaller root, then one find per vertex."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True

    @classmethod
    def labels(cls, g):
        uf = cls(g.num_vertices)
        for u, v, _ in g.edges:
            uf.union(u, v)
        index = {}
        out = []
        for v in range(g.num_vertices):
            c = uf.find(v)
            if c not in index:
                index[c] = len(index)
            out.append(index[c])
        return out


def component_sum_rank(g, labels):
    """graph_rank as the sum over components of (edges − vertices + 1)."""
    n_comp = max(labels) + 1 if labels else 0
    v_count = [0] * n_comp
    e_count = [0] * n_comp
    for v in range(g.num_vertices):
        v_count[labels[v]] += 1
    for u, _, _ in g.edges:
        e_count[labels[u]] += 1
    return sum(e_count[c] - v_count[c] + 1 for c in range(n_comp))


def random_multigraph(rng):
    """0-40 vertices, self-loops, parallel edges and isolated vertices, in
    random edge order; based half of the time."""
    rank = rng.randint(1, 3)
    nv = rng.randint(0, 40)
    edges = []
    if nv:
        for _ in range(rng.randint(0, 2 * nv)):
            u = rng.randrange(nv)
            v = u if rng.random() < 0.1 else rng.randrange(nv)
            edges.append((u, v, rng.randint(1, rank)))
        edges += rng.sample(edges, min(len(edges), rng.randint(0, 3)))
        rng.shuffle(edges)
    base = rng.randrange(nv) if nv and rng.random() < 0.5 else None
    return LabeledGraph(rank, nv, tuple(edges), base)


def reference_fold(rank, num_vertices, edges, basepoint):
    """Naive quadratic folding by global relabeling; no union-find."""
    edges = list(edges)
    base = basepoint
    changed = True
    while changed:
        changed = False
        uniq = []
        seen = set()
        for e in edges:
            if e not in seen:
                seen.add(e)
                uniq.append(e)
        if len(uniq) != len(edges):
            edges = uniq
            changed = True
            continue
        out = {}
        for u, v, l in edges:
            for s, sl, t in ((u, l, v), (v, -l, u)):
                if (s, sl) in out and out[(s, sl)] != t:
                    a, b = sorted((out[(s, sl)], t))
                    if base == b:
                        base = a
                    edges = [
                        (a if x == b else x, a if y == b else y, ll)
                        for x, y, ll in edges
                    ]
                    changed = True
                    break
                out[(s, sl)] = t
            if changed:
                break
    verts = sorted({x for u, v, _ in edges for x in (u, v)} | ({base} if base is not None else set()))
    idx = {v: i for i, v in enumerate(verts)}
    return LabeledGraph(
        rank,
        len(verts),
        tuple(sorted((idx[u], idx[v], l) for u, v, l in edges)),
        idx[base] if base is not None else None,
    )


def multi_pass_fold(g):
    """The multi-pass fold that ``fold_with_map`` replaced: each pass
    rebuilds the edge set on class representatives, scans it in sorted order
    and merges the targets of equal (vertex, signed label) keys, until a pass
    merges nothing.  Classes are numbered in order of their least vertex."""
    parent = list(range(g.num_vertices))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    edges = set(g.edges)
    while True:
        edges = {(find(u), find(v), l) for u, v, l in edges}
        merged_any = False
        target = {}
        for u, v, l in sorted(edges):
            for src, s, dst in ((u, l, v), (v, -l, u)):
                if (src, s) not in target:
                    target[(src, s)] = dst
                    continue
                a, b = sorted((find(target[(src, s)]), find(dst)))
                if a != b:
                    parent[b] = a
                    merged_any = True
        if not merged_any:
            break
    index = {}
    vertex_map = []
    for v in range(g.num_vertices):
        vertex_map.append(index.setdefault(find(v), len(index)))
    new_edges = tuple(sorted({(vertex_map[u], vertex_map[v], l) for u, v, l in edges}))
    base = vertex_map[g.basepoint] if g.basepoint is not None else None
    return LabeledGraph(g.rank, len(index), new_edges, base), vertex_map


def subgroup_products(gens, max_factors):
    """All reduced products of ≤ max_factors factors from gens ∪ gens⁻¹."""
    basis = []
    for w in gens:
        if w.letters:
            basis.append(w.letters)
            basis.append(w.inverse().letters)
    elems = {()}
    frontier = {()}
    for _ in range(max_factors):
        nxt = set()
        for p in frontier:
            for b in basis:
                q = free_reduce(p + b)
                if q not in elems:
                    nxt.add(q)
        elems |= nxt
        frontier = nxt
        if not frontier:
            break
    return elems


gen_word_st = st.lists(
    st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0), min_size=1, max_size=4
).map(lambda raw: reduce(raw, 2))
gens_st = st.lists(gen_word_st.filter(lambda w: not w.is_empty()), min_size=1, max_size=2)


class TestSubgroupGraph:
    def test_whole_group_is_rose(self):
        g = subgroup_graph([W("a"), W("b")], 2)
        assert g.num_vertices == 1
        assert sorted(g.edges) == [(0, 0, 1), (0, 0, 2)]
        assert g.basepoint == 0

    def test_conjugated_loop(self):
        g = subgroup_graph([W("abA")], 2)
        assert g.num_vertices == 2
        assert is_folded(g)
        # an a-edge from the basepoint to a vertex carrying a b-loop
        assert set(g.edges) == {(0, 1, 1), (1, 1, 2)}

    def test_two_loop_words(self):
        g = subgroup_graph([W("ab"), W("ba")], 2)
        assert g.num_vertices == 3
        assert len(g.edges) == 4
        assert graph_rank(g) == 2
        assert is_folded(g)

    def test_empty_generators(self):
        g = subgroup_graph([], 2)
        assert g.num_vertices == 1
        assert g.edges == ()
        assert g.basepoint == 0

    @given(gens_st)
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_fold(self, gens):
        nv, edges = wedge_edges(gens)
        ref = reference_fold(2, nv, tuple(edges), 0)
        assert canonical_code(subgroup_graph(gens, 2)) == canonical_code(ref)


class TestFold:
    def test_duplicate_loops_merge(self):
        g = LabeledGraph(2, 1, ((0, 0, 1), (0, 0, 1)), 0)
        assert fold(g).edges == ((0, 0, 1),)

    def test_idempotent_on_folded(self):
        g = subgroup_graph([W("ab"), W("ba")], 2)
        assert fold(g) == g

    def test_same_word_twice(self):
        g = subgroup_graph([W("ab"), W("ab")], 2)
        assert g.num_vertices == 2
        assert set(g.edges) == {(0, 1, 1), (1, 0, 2)}

    @given(gens_st)
    @settings(max_examples=50, deadline=None)
    def test_fold_bounds(self, gens):
        nv, edges = wedge_edges(gens)
        g = LabeledGraph(2, nv, tuple(edges), 0)
        folded, vmap = fold_with_map(g)
        assert is_folded(folded)
        assert len(folded.edges) <= len(g.edges)
        # each fold step merges two vertex classes
        assert g.num_vertices - folded.num_vertices <= len(g.edges)
        assert vmap[0] == folded.basepoint
        assert len(vmap) == g.num_vertices


@st.composite
def wedge_generators(draw):
    """Rank 2 or 3 generators, plus reduced products of them, as test_03's
    conjugated generators and common loops are."""
    rank = draw(st.sampled_from([2, 3]))
    letter = st.sampled_from([x for x in range(-rank, rank + 1) if x])
    gens = draw(
        st.lists(
            st.lists(letter, min_size=1, max_size=6).map(lambda w: reduce(w, rank)),
            min_size=1,
            max_size=3,
        )
    )
    picks = st.tuples(st.integers(0, len(gens) - 1), st.booleans())
    products = draw(st.lists(st.lists(picks, min_size=2, max_size=6), max_size=4))
    for factors in products:
        letters = []
        for i, inverted in factors:
            w = gens[i].inverse() if inverted else gens[i]
            letters.extend(w.letters)
        gens.append(reduce(letters, rank))
    return rank, gens


class TestWorklistFold:
    """The worklist fold against the multi-pass fold it replaced."""

    @given(wedge_generators())
    @settings(max_examples=300, deadline=None)
    def test_matches_multi_pass_fold_on_wedges(self, drawn):
        rank, gens = drawn
        nv, edges = wedge_edges(gens)
        wedge = LabeledGraph(rank, nv, tuple(edges), 0)
        expected = multi_pass_fold(wedge)
        assert fold_with_map(wedge) == expected
        # the builder reads along existing edges, yet lands on the same bytes
        assert subgroup_graph(gens, rank) == expected[0]

    @given(
        st.integers(1, 3),
        st.integers(1, 8),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(1, 3)), max_size=12),
        st.one_of(st.none(), st.integers(0, 7)),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_multi_pass_fold_on_arbitrary_graphs(self, rank, nv, raw, base):
        edges = tuple((u % nv, v % nv, (l - 1) % rank + 1) for u, v, l in raw)
        g = LabeledGraph(rank, nv, edges, None if base is None else base % nv)
        assert fold_with_map(g) == multi_pass_fold(g)

    def test_merge_cascades_through_several_classes(self):
        # a^6 and a^4 at one basepoint: merging the first a-edges' ends
        # forces the next pair, and so on round both loops, until the
        # wedge collapses onto the loop of a^2
        g = LabeledGraph(
            1,
            9,
            (
                (0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 0, 1),
                (0, 6, 1), (6, 7, 1), (7, 8, 1), (8, 0, 1),
            ),
            0,
        )
        folded, vertex_map = fold_with_map(g)
        assert folded == LabeledGraph(1, 2, ((0, 1, 1), (1, 0, 1)), 0)
        assert vertex_map == [0, 1, 0, 1, 0, 1, 1, 0, 1]
        assert (folded, vertex_map) == multi_pass_fold(g)
        assert subgroup_graph([W("aaaaaa", 1), W("aaaa", 1)], 1) == folded


class TestMembership:
    def test_powers_of_generator(self):
        g = subgroup_graph([W("a")], 2)
        assert membership(g, W("aaaaa"))

    def test_other_generator_rejected(self):
        g = subgroup_graph([W("a")], 2)
        assert not membership(g, W("b"))

    def test_product_of_generators(self):
        g = subgroup_graph([W("ab"), W("ba")], 2)
        assert membership(g, W("abba"))
        assert W("abba").letters in subgroup_products([W("ab"), W("ba")], 2)

    def test_needs_basepoint(self):
        g = LabeledGraph(2, 1, ((0, 0, 1),))
        with pytest.raises(ValueError):
            membership(g, W("a"))

    @given(gens_st)
    @settings(max_examples=30, deadline=None)
    def test_all_products_accepted(self, gens):
        g = subgroup_graph(gens, 2)
        for p in subgroup_products(gens, 6):
            assert membership(g, reduce(p, 2))

    @given(gens_st, st.lists(st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0), max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_agrees_with_reference_fold(self, gens, raw):
        w = reduce(raw, 2)
        nv, edges = wedge_edges(gens)
        ref = reference_fold(2, nv, tuple(edges), 0)
        assert membership(subgroup_graph(gens, 2), w) == membership(ref, w)


def random_order_core(g, keep_basepoint, order):
    """Reference: delete valence-one vertices one at a time in a shuffled order."""
    protected = g.basepoint if keep_basepoint and g.basepoint is not None else None
    edges = list(g.edges)
    alive = set(range(g.num_vertices))
    while True:
        val = {v: 0 for v in alive}
        for u, v, _ in edges:
            val[u] += 1
            val[v] += 1
        ones = [v for v in alive if val[v] == 1 and v != protected]
        if not ones:
            break
        v = min(ones, key=lambda x: order[x])
        edges = [e for e in edges if v not in (e[0], e[1])]
        alive.discard(v)
    val = {v: 0 for v in alive}
    for u, v, _ in edges:
        val[u] += 1
        val[v] += 1
    alive = {v for v in alive if val[v] > 0 or v == protected}
    idx = {v: i for i, v in enumerate(sorted(alive))}
    return LabeledGraph(
        g.rank,
        len(alive),
        tuple(sorted((idx[u], idx[v], l) for u, v, l in edges)),
        idx[protected] if protected is not None else None,
    )


class TestCore:
    def test_path_collapses_to_nothing(self):
        g = LabeledGraph(1, 4, ((0, 1, 1), (1, 2, 1), (2, 3, 1)))
        c = core(g, keep_basepoint=False)
        assert c.num_vertices == 0
        assert c.edges == ()

    def test_rose_unchanged(self):
        g = LabeledGraph(2, 1, ((0, 0, 1), (0, 0, 2)), 0)
        assert core(g) == g

    def test_conjugated_loop_based_vs_free(self):
        g = subgroup_graph([W("abA")], 2)
        assert core(g, keep_basepoint=True) == g
        c = core(g, keep_basepoint=False)
        assert c.num_vertices == 1
        assert c.edges == ((0, 0, 2),)
        assert c.basepoint is None

    def test_idempotent(self):
        g = subgroup_graph([W("abA"), W("bb")], 2)
        c = core(g, keep_basepoint=False)
        assert core(c, keep_basepoint=False) == c

    @given(gens_st, st.permutations(list(range(12))), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_order_independent(self, gens, order, keep):
        g = subgroup_graph(gens, 2)
        if g.num_vertices > 12:
            order = list(order) + list(range(12, g.num_vertices))
        c = core(g, keep_basepoint=keep)
        ref = random_order_core(g, keep, list(order))
        assert canonical_code(c) == canonical_code(ref)


class TestGraphRank:
    def test_single_vertex(self):
        assert graph_rank(LabeledGraph(2, 1, ())) == 0

    def test_rose(self):
        assert graph_rank(LabeledGraph(2, 1, ((0, 0, 1), (0, 0, 2)))) == 2

    def test_two_loop_subgroup(self):
        assert graph_rank(subgroup_graph([W("ab"), W("ba")], 2)) == 2

    def test_sums_over_components(self):
        # an a-loop component plus a lone edge component (tree)
        g = LabeledGraph(2, 3, ((0, 0, 1), (1, 2, 2)))
        assert graph_rank(g) == 1


class TestComponentLabelsOracle:
    def test_matches_union_find_labels_on_random_multigraphs(self, monkeypatch):
        rng = random.Random(16)
        graphs = [LabeledGraph(2, 0, ())] + [random_multigraph(rng) for _ in range(2000)]
        # the draw covers what the labelling must handle
        assert sum(1 for g in graphs if any(u == v for u, v, _ in g.edges)) > 100
        assert sum(1 for g in graphs if len(set(g.edges)) < len(g.edges)) > 100
        assert sum(1 for g in graphs if len({x for e in g.edges for x in e[:2]}) < g.num_vertices) > 100

        got = [(component_labels(g), graph_rank(g), canonical_code(fold(g))) for g in graphs]
        monkeypatch.setattr(stallings_module, "component_labels", UnionFindLabels.labels)
        want = []
        for g in graphs:
            labels = UnionFindLabels.labels(g)
            want.append((labels, component_sum_rank(g, labels), canonical_code(fold(g))))
        for g, mine, oracle in zip(graphs, got, want):
            assert mine == oracle, g


class TestComponentsAndCodes:
    def test_code_invariant_under_relabeling(self):
        g = subgroup_graph([W("ab"), W("ba")], 2)
        # permute vertex ids (0 1 2) -> (2 0 1), keeping the basepoint marked
        perm = {0: 2, 1: 0, 2: 1}
        h = LabeledGraph(
            2,
            3,
            tuple(sorted((perm[u], perm[v], l) for u, v, l in g.edges)),
            perm[g.basepoint],
        )
        assert canonical_code(g) == canonical_code(h)

    def test_code_distinguishes_basepoint(self):
        g = subgroup_graph([W("abA")], 2)
        free = LabeledGraph(g.rank, g.num_vertices, g.edges, None)
        assert canonical_code(g) != canonical_code(free)

    def test_code_distinguishes_labels(self):
        g1 = LabeledGraph(2, 1, ((0, 0, 1),))
        g2 = LabeledGraph(2, 1, ((0, 0, 2),))
        assert canonical_code(g1) != canonical_code(g2)

    def test_subgraph_on(self):
        g = LabeledGraph(2, 3, ((0, 0, 1), (1, 2, 2)))
        sub, idx = subgraph_on(g, [1, 2])
        assert sub.num_vertices == 2
        assert sub.edges == ((idx[1], idx[2], 2),)
