"""Tests for image subgroups, essential disjointness, and preimages."""

import collections
import importlib
import itertools
import json
import random
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnncert import disjointness, pullback
from hnncert.disjointness import (
    DisjointnessVerdict,
    IntersectionWitness,
    _intersection_witness,
    all_conjugates_trivial_intersection,
    block_table,
    decode_in_image,
    essential_disjointness_power,
    image_subgroup,
    preimage_in_image,
)
from hnncert.graphmap import GraphMap, mat_power, transition_matrix
from hnncert.pullback import ProductBudgetError, fiber_product
from hnncert.stallings import (
    LabeledGraph,
    canonical_code,
    component_labels,
    core,
    graph_rank,
    membership,
    subgroup_graph,
)
from hnncert.words import (
    Endomorphism,
    Word,
    apply_endo,
    conjugate_in_free_group,
    cyclic_reduce,
    reduce,
    word_from_string,
)


def endo(*images, rank=2):
    return Endomorphism(rank, tuple(word_from_string(s, rank) for s in images))


def w(s, rank=2):
    return word_from_string(s, rank)


SAPIR = endo("ab", "ba")
SQUARES = endo("aa", "bb")
IDENT = Endomorphism.identity(2)
DOUBLE = Endomorphism(1, (word_from_string("aa", 1),))
COLLAPSE = endo("a", "a")  # not injective, image <a>
TO_B = endo("b", "b")  # not injective, image <b>


def reduced_letters(rank, max_len):
    base = st.integers(min_value=-rank, max_value=rank).filter(lambda x: x != 0)
    return st.lists(base, max_size=max_len).map(
        lambda ls: reduce(ls, rank).letters
    )


class TestBlockDecoding:
    def test_table_for_immersion(self):
        table = block_table(SAPIR)
        assert table is not None
        assert set(table) == {1, 2, -1, -2}
        assert table[1] == (1, (1, 2))
        assert table[-2] == (-1, (-2, -1))

    def test_no_table_when_first_letters_clash(self):
        assert block_table(endo("ab", "a")) is None
        assert block_table(COLLAPSE) is None

    def test_decode_rejects_undecodable(self):
        with pytest.raises(ValueError, match="distinct letters"):
            decode_in_image(COLLAPSE, w("a"))

    def test_decode_known(self):
        assert decode_in_image(SAPIR, w("abba")) == w("ab")
        assert decode_in_image(SAPIR, w("a")) is None
        assert decode_in_image(SAPIR, w("")) == w("")

    @given(reduced_letters(2, 8), st.integers(min_value=1, max_value=3))
    @settings(max_examples=150, deadline=None)
    def test_decode_round_trip(self, letters, n):
        powered = SAPIR.power(n)
        u = Word(letters, 2)
        assert decode_in_image(powered, apply_endo(powered, u)) == u


class TestImageSubgroup:
    def test_identity_gives_rose(self):
        img = image_subgroup(IDENT, 1)
        rose = LabeledGraph(2, 1, ((0, 0, 1), (0, 0, 2)), 0)
        assert canonical_code(img.graph) == canonical_code(rose)

    def test_sapir_level_one_shape(self):
        img = image_subgroup(SAPIR, 1)
        assert img.graph.num_vertices == 3
        assert len(img.graph.edges) == 4
        assert graph_rank(core(img.graph, keep_basepoint=False)) == 2

    def test_doubling_power_two_is_four_cycle(self):
        img = image_subgroup(DOUBLE, 2)
        cyc = LabeledGraph(1, 4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)), 0)
        assert canonical_code(img.graph) == canonical_code(cyc)

    def test_power_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            image_subgroup(SAPIR, 0)

    @pytest.mark.parametrize("e,n", [(SAPIR, 1), (SAPIR, 2), (SQUARES, 3), (DOUBLE, 2)])
    def test_generator_images_are_basepoint_loops(self, e, n):
        img = image_subgroup(e, n)
        for word in e.power(n).images:
            assert membership(img.graph, word)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_images_nest_downward(self, n):
        lower = image_subgroup(SAPIR, n)
        for word in SAPIR.power(n + 1).images:
            assert membership(lower.graph, word)


class TestAllConjugates:
    A = LabeledGraph(2, 1, ((0, 0, 1),), 0)
    B = LabeledGraph(2, 1, ((0, 0, 2),), 0)

    def test_disjoint_cyclic_subgroups(self):
        assert all_conjugates_trivial_intersection(self.A, self.B)

    def test_equal_subgroups_intersect(self):
        assert not all_conjugates_trivial_intersection(self.A, self.A)

    def test_catches_conjugate_not_based_overlap(self):
        # <bab⁻¹> misses <a> through the basepoint but not up to conjugacy
        conj = subgroup_graph([w("baB")], 2)
        assert not membership(conj, w("a"))
        assert not all_conjugates_trivial_intersection(self.A, conj)

    def test_conjugate_cyclic_words_intersect(self):
        assert not all_conjugates_trivial_intersection(
            subgroup_graph([w("ab")], 2), subgroup_graph([w("ba")], 2)
        )

    def test_symmetry(self):
        pairs = [
            (self.A, self.B),
            (self.A, subgroup_graph([w("baB")], 2)),
            (image_subgroup(SAPIR, 1).graph, image_subgroup(SQUARES, 1).graph),
            (image_subgroup(SAPIR, 2).graph, image_subgroup(SQUARES, 2).graph),
        ]
        for x, y in pairs:
            assert all_conjugates_trivial_intersection(
                x, y
            ) == all_conjugates_trivial_intersection(y, x)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            all_conjugates_trivial_intersection(
                self.A, LabeledGraph(1, 1, ((0, 0, 1),), 0)
            )

    def test_unfolded_graph_rejected(self):
        # two a-edges leave vertex 0; its core is itself
        unfolded = LabeledGraph(2, 2, ((0, 1, 1), (0, 1, 2), (0, 1, 1)), 0)
        with pytest.raises(ValueError, match="immersion"):
            all_conjugates_trivial_intersection(self.A, unfolded)


def _witness_is_valid(endos, verdict):
    """The recorded element lies in H and, conjugated, in K."""
    i, j = verdict.witness.pair
    n = verdict.n
    h = image_subgroup(endos[i], n)
    k = image_subgroup(endos[j], n)
    g = verdict.witness.conjugator
    elem = verdict.witness.element
    moved = reduce(g.inverse().letters + elem.letters + g.letters, g.rank)
    return (
        not elem.is_empty()
        and membership(h.graph, elem)
        and membership(k.graph, moved)
    )


class TestEssentialDisjointness:
    def test_sapir_vs_squares_settles_at_two(self):
        verdict = essential_disjointness_power([SAPIR, SQUARES], cap=4)
        assert verdict.kind == "disjoint_at"
        assert verdict.n == 2

    def test_each_power_tested_independently(self):
        # fails at 1, passes at 2 and 3: the verdict must not short-circuit
        for n, disjoint in ((1, False), (2, True), (3, True)):
            h, k = (image_subgroup(e, n).graph for e in (SAPIR, SQUARES))
            assert all_conjugates_trivial_intersection(h, k) is disjoint

    def test_below_cap_reports_witness(self):
        verdict = essential_disjointness_power([SAPIR, SQUARES], cap=1)
        assert verdict.kind == "not_disjoint_at_cap"
        assert verdict.n == 1
        assert verdict.witness is not None
        assert verdict.witness.component_rank >= 1
        assert _witness_is_valid([SAPIR, SQUARES], verdict)

    def test_duplicated_endomorphism_never_disjoint(self):
        verdict = essential_disjointness_power([SAPIR, SAPIR], cap=3)
        assert verdict.kind == "not_disjoint_at_cap"
        assert verdict.n == 3
        assert verdict.witness.pair == (0, 1)
        assert _witness_is_valid([SAPIR, SAPIR], verdict)

    def test_duplicated_identity_never_disjoint(self):
        verdict = essential_disjointness_power([IDENT, IDENT], cap=2)
        assert verdict.kind == "not_disjoint_at_cap"
        assert _witness_is_valid([IDENT, IDENT], verdict)

    def test_disjoint_at_one(self):
        verdict = essential_disjointness_power([COLLAPSE, TO_B], cap=2)
        assert verdict == DisjointnessVerdict("disjoint_at", n=1)

    def test_three_endomorphisms(self):
        verdict = essential_disjointness_power([SAPIR, SQUARES, COLLAPSE], cap=2)
        # <a> meets both other images in powers of a up to conjugacy
        assert verdict.kind == "not_disjoint_at_cap"

    def test_needs_two_endomorphisms(self):
        with pytest.raises(ValueError, match="at least two"):
            essential_disjointness_power([SAPIR], cap=2)

    def test_mixed_ranks_rejected(self):
        with pytest.raises(ValueError, match="ranks"):
            essential_disjointness_power([SAPIR, DOUBLE], cap=2)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_rejected_before_any_image(self, monkeypatch, cap):
        built = []
        real = disjointness.image_subgroup
        monkeypatch.setattr(
            disjointness, "image_subgroup", lambda e, n: built.append(n) or real(e, n)
        )
        with pytest.raises(ValueError, match="cap must be >= 1"):
            essential_disjointness_power([SAPIR, SQUARES], cap=cap)
        assert built == []

    def test_tiny_budget_gives_cap_exceeded(self):
        verdict = essential_disjointness_power([SAPIR, SQUARES], cap=4, max_edges=2)
        assert verdict.kind == "cap_exceeded"
        assert verdict.note

    def test_budget_tripped_past_power_one_covers_the_tested_powers(self, monkeypatch):
        # 160 product edges suffice for powers 1..3 of this pair but not 4
        powers = []
        real = disjointness.image_subgroup

        def counted(e, n):
            powers.append(n)
            return real(e, n)

        monkeypatch.setattr(disjointness, "image_subgroup", counted)
        verdict = essential_disjointness_power([SAPIR, SAPIR], cap=6, max_edges=160)
        assert verdict.kind == "not_disjoint_at_cap"
        assert verdict.n == 3
        assert verdict.note == (
            "search budget exhausted at power 4; verdict covers powers 1..3"
        )
        # the two equal endomorphisms share one image per power, with no
        # rerun, and the trip at power 4 is decided from letter counts
        # before its image is built
        assert powers == [1, 2, 3]
        capped = essential_disjointness_power([SAPIR, SAPIR], cap=3)
        assert verdict.witness == capped.witness
        assert _witness_is_valid([SAPIR, SAPIR], verdict)

    def test_images_are_built_once_per_distinct_endomorphism(self, monkeypatch):
        built = []
        real = disjointness.image_subgroup

        def counted(e, n):
            built.append((e, n))
            return real(e, n)

        monkeypatch.setattr(disjointness, "image_subgroup", counted)
        verdict = essential_disjointness_power([SAPIR, SQUARES, SAPIR], cap=2)
        # SAPIR meets itself, so both powers fail and are both built
        assert (verdict.kind, verdict.n, verdict.witness.pair) == ("not_disjoint_at_cap", 2, (0, 2))
        assert built == [(SAPIR, 1), (SQUARES, 1), (SAPIR, 2), (SQUARES, 2)]


def eager_gate(endos, cap, max_edges):
    """``essential_disjointness_power`` as it was before the count-decided
    budget: every image of a power built and cored, then the pairs tested
    in order, the budget checked on the built cores."""
    last_failure = None
    note = ""
    for n in range(1, cap + 1):
        try:
            built = {e: image_subgroup(e, n).graph for e in dict.fromkeys(endos)}
            images = [built[e] for e in endos]
            bad = next(
                (
                    (i, j)
                    for i in range(len(images))
                    for j in range(i + 1, len(images))
                    if not all_conjugates_trivial_intersection(images[i], images[j], max_edges)
                ),
                None,
            )
        except ProductBudgetError as exc:
            if last_failure is None:
                return DisjointnessVerdict("cap_exceeded", n=n, note=str(exc))
            note = f"search budget exhausted at power {n}; verdict covers powers 1..{n - 1}"
            break
        if bad is None:
            return DisjointnessVerdict("disjoint_at", n=n)
        last_failure = (n, images, bad)
    n, images, (i, j) = last_failure
    witness = _intersection_witness(images[i], images[j], (i, j), max_edges=max_edges)
    return DisjointnessVerdict("not_disjoint_at_cap", n=n, witness=witness, note=note)


def seeded_endos(rng, rank, max_image, powers=3, immersion=False):
    """An endomorphism with random reduced images of 1..``max_image``
    letters whose first ``powers`` powers kill no generator, and an
    immersion if ``immersion``."""
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    while True:
        images = []
        for _ in range(rank):
            word, length = [rng.choice(letters)], rng.randint(1, max_image)
            while len(word) < length:
                word.append(rng.choice([x for x in letters if x != -word[-1]]))
            images.append(Word(tuple(word), rank))
        e = Endomorphism(rank, tuple(images))
        if immersion and block_table(e) is None:
            continue
        try:
            e.power(powers)
        except ValueError:
            continue
        return e


def label_counts(g):
    counts = [0] * g.rank
    for _, _, l in g.edges:
        counts[l - 1] += 1
    return counts


class TestCountDecidedBudget:
    """The product budget decided from M^n·1 before an immersion's image is
    built, and from the built core of any other image, against the gate
    that built every image first."""

    @pytest.mark.parametrize("rank", [2, 3])
    def test_counts_are_the_free_core_labels(self, rank):
        rng = random.Random(rank)
        checked = 0
        while checked < 60:
            e = seeded_endos(rng, rank, 3, immersion=True)
            m = transition_matrix(GraphMap.from_endomorphism(e))
            for n in (1, 2, 3):
                free = disjointness._free_core(image_subgroup(e, n).graph)
                assert label_counts(free) == [sum(row) for row in mat_power(m, n)]
            checked += 1

    def test_matches_the_eager_gate(self):
        rng = random.Random(18)
        kinds = collections.Counter()
        for max_edges in (2, 6, 12, 24, 40, 160, 600):
            for _ in range(40):
                rank = rng.choice((2, 2, 3))
                immersions = rng.random() < 0.6
                endos = [
                    seeded_endos(rng, rank, 3, immersion=immersions)
                    for _ in range(rng.choice((2, 2, 3)))
                ]
                if rng.random() < 0.3:
                    endos.append(endos[0])
                verdict = essential_disjointness_power(endos, cap=3, max_edges=max_edges)
                assert verdict == eager_gate(endos, 3, max_edges), (endos, max_edges)
                counted = all(block_table(e) is not None for e in endos)
                kinds[(counted, verdict.kind, bool(verdict.note))] += 1
        # both routes trip the budget at power 1 and past it
        for counted in (True, False):
            assert (counted, "cap_exceeded", True) in kinds
            assert (counted, "not_disjoint_at_cap", True) in kinds
            assert (counted, "not_disjoint_at_cap", False) in kinds

    @pytest.mark.parametrize(
        "endos", [[COLLAPSE, TO_B], [SAPIR, COLLAPSE, SQUARES], [COLLAPSE, COLLAPSE]]
    )
    @pytest.mark.parametrize("max_edges", [1, 4, 30])
    def test_non_immersion_families_build_then_check(self, endos, max_edges):
        assert essential_disjointness_power(endos, 3, max_edges) == eager_gate(endos, 3, max_edges)

    def test_trip_at_power_one_names_the_count(self, monkeypatch):
        built = []
        real = disjointness.image_subgroup
        monkeypatch.setattr(
            disjointness, "image_subgroup", lambda e, n: built.append(n) or real(e, n)
        )
        verdict = essential_disjointness_power([SAPIR, SQUARES], cap=4, max_edges=7)
        # each image has two a-edges and two b-edges: 2·2 + 2·2 product edges
        assert verdict == DisjointnessVerdict(
            "cap_exceeded", n=1, note="fiber product would have 8 edges (budget 7)"
        )
        assert verdict == eager_gate([SAPIR, SQUARES], 4, 7)
        assert built == []

    def test_a_pair_after_the_first_failure_is_never_budgeted(self, monkeypatch):
        # SAPIR meets itself at every power, so the pairs with big, whose
        # products would exceed the budget already at power 1, are not tested
        big = endo("a" + "ba" * 40, "b" + "ab" * 40)
        assert block_table(big) is not None
        built = []
        real = disjointness.image_subgroup
        monkeypatch.setattr(
            disjointness, "image_subgroup", lambda e, n: built.append((e, n)) or real(e, n)
        )
        verdict = essential_disjointness_power([SAPIR, SAPIR, big], cap=6, max_edges=160)
        assert (verdict.kind, verdict.n, verdict.witness.pair) == ("not_disjoint_at_cap", 3, (0, 1))
        assert verdict.note == "search budget exhausted at power 4; verdict covers powers 1..3"
        assert built == [(SAPIR, 1), (SAPIR, 2), (SAPIR, 3)]
        # the eager gate would build big's fourth power, 81⁴ letters per generator
        assert verdict == eager_gate([SAPIR, SAPIR], 6, 160)
        alone = essential_disjointness_power([SAPIR, big], cap=6, max_edges=160)
        assert (alone.kind, alone.n) == ("cap_exceeded", 1)

    def test_a_mixed_pair_never_builds_the_immersion_over_budget(self, monkeypatch):
        # a -> ab, b -> abb is an automorphism whose images both start with
        # a: its image is built and its core, the rose, counted; big's free
        # core has 81 + 81 edges at power 1 and 13,122 at power 2
        auto = endo("ab", "abb")
        big = endo("a" + "ba" * 40, "b" + "ab" * 40)
        assert block_table(auto) is None and block_table(big) is not None
        built = []
        real = disjointness.image_subgroup
        monkeypatch.setattr(
            disjointness, "image_subgroup", lambda e, n: built.append((e, n)) or real(e, n)
        )
        verdict = essential_disjointness_power([auto, big], cap=4, max_edges=1000)
        assert (verdict.kind, verdict.n) == ("not_disjoint_at_cap", 1)
        assert verdict.note == "search budget exhausted at power 2; verdict covers powers 1..1"
        assert built == [(auto, 1), (big, 1), (auto, 2)]
        assert verdict == eager_gate([auto, big], 4, 1000)


# --- the streamed gate and witness against the whole product ---


def product_rank_is_zero(h, k):
    """The gate as it was decided before streaming: build the free cores'
    whole fiber product and compute its rank."""
    a = core(LabeledGraph(h.rank, h.num_vertices, h.edges, None), keep_basepoint=False)
    b = core(LabeledGraph(k.rank, k.num_vertices, k.edges, None), keep_basepoint=False)
    if a.num_vertices == 0 or b.num_vertices == 0:
        return True
    return graph_rank(fiber_product(a, b).graph) == 0


def _whole_product_cycle(g, verts):
    adj = {v: [] for v in verts}
    for u, v, l in g.edges:
        if u in adj:
            adj[u].append((v, l, 1))
            adj[v].append((u, -l, -1))
    root = verts[0]
    parent_word = {root: ()}
    order = [root]
    qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        for x, s, _ in adj[v]:
            if x not in parent_word:
                parent_word[x] = parent_word[v] + (s,)
                order.append(x)
    seen_pairs = set()
    for v in order:
        for x, s, _ in adj[v]:
            key = (min(v, x), max(v, x), abs(s))
            if parent_word.get(x) == parent_word[v] + (s,) or parent_word.get(v) == parent_word[x] + (-s,):
                continue
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            cycle = parent_word[v] + (s,) + tuple(-y for y in reversed(parent_word[x]))
            letters = reduce(cycle, g.rank).letters
            if letters:
                return root, letters
    return None


def access_words(g, root):
    """The labels read along a BFS path from root, per reachable vertex:
    neighbours taken in ``sorted`` (signed label, vertex) order, each word
    built from its parent's."""
    adj = {}
    for u, v, l in g.edges:
        adj.setdefault(u, []).append((l, v))
        adj.setdefault(v, []).append((-l, u))
    out = {root: ()}
    queue = [root]
    for v in queue:
        for s, x in sorted(adj.get(v, ())):
            if x not in out:
                out[x] = out[v] + (s,)
                queue.append(x)
    return out


def quadratic_component_cycle(edges, rank):
    """``_component_cycle`` as it was first written: a label word per
    vertex of the BFS tree, then the first non-tree incidence, vertex by
    vertex in BFS order, whose cycle reduces to a nonempty word."""
    adj = {}
    for k, (u, v, _) in enumerate(edges):
        adj.setdefault(u, []).append((v, k, 1))
        adj.setdefault(v, []).append((u, k, -1))
    order = [min(adj)]
    parent = {}
    for v in order:
        for x, k, d in adj[v]:
            if x != order[0] and x not in parent:
                parent[x] = (v, k, d)
                order.append(x)
    words = {order[0]: ()}
    for x in order[1:]:
        v, k, d = parent[x]
        words[x] = words[v] + (d * edges[k][2],)
    tree_edges = {k for _, k, _ in parent.values()}
    for v in order:
        for x, k, d in adj[v]:
            if k in tree_edges:
                continue
            cycle = words[v] + (d * edges[k][2],) + tuple(-y for y in reversed(words[x]))
            letters = reduce(cycle, rank).letters
            if letters:
                return order[0], letters
    return None


def whole_product_witness(a, b, pair):
    """The witness as it was found before streaming: build the based cores'
    whole fiber product, number its components, and take the first one of
    positive rank."""
    ca = core(a, keep_basepoint=True)
    cb = core(b, keep_basepoint=True)
    fp = fiber_product(ca, cb)
    labels = component_labels(fp.graph)
    n_comp = max(labels) + 1 if labels else 0
    for c in range(n_comp):
        verts = [v for v in range(fp.graph.num_vertices) if labels[v] == c]
        edges = [ei for ei, (u, _, _) in enumerate(fp.graph.edges) if labels[u] == c]
        if len(edges) - len(verts) + 1 < 1:
            continue
        found = _whole_product_cycle(fp.graph, verts)
        if found is None:
            continue
        anchor, cycle_letters = found
        x, y = fp.vertex_pairs[anchor]
        ua = access_words(ca, ca.basepoint)[x]
        ub = access_words(cb, cb.basepoint)[y]
        g = reduce(ua + tuple(-s for s in reversed(ub)), a.rank)
        elem = reduce(ua + cycle_letters + tuple(-s for s in reversed(ua)), a.rank)
        return IntersectionWitness(pair, g, elem, len(edges) - len(verts) + 1)
    return None


@st.composite
def small_subgroup(draw, rank):
    # no generators gives the trivial subgroup, whose free core is empty
    gens = draw(st.lists(reduced_letters(rank, 5).filter(bool), max_size=3))
    return subgroup_graph([Word(g, rank) for g in gens], rank)


RANK3_CYCLE = endo("aab", "bbc", "cca", rank=3)
LAMINATED = endo("aab", "bba")
# the basepoint hangs off the core of every image: at power 5 the free core
# has 33 edges (1,025 product edges) and the based core 48 (1,874)
HANGING = endo("baaB", "ba")


def count_walks(monkeypatch):
    """Record each call of the component walk the gate and the witness make,
    and (vertices, edges) of each component it yields."""
    calls, walked = [], []
    real = disjointness.product_components

    def counted(a, b, max_edges=500_000):
        calls.append(max_edges)
        components = real(a, b, max_edges)

        def recorded():
            for vertices, edges in components:
                walked.append((vertices, len(edges)))
                yield vertices, edges

        return recorded()

    monkeypatch.setattr(disjointness, "product_components", counted)
    return calls, walked


class TestAccessWord:
    @given(st.integers(2, 3).flatmap(small_subgroup))
    @settings(max_examples=150, deadline=None)
    def test_matches_every_access_word(self, g):
        c = core(g, keep_basepoint=True)
        words = access_words(c, c.basepoint)
        assert list(disjointness._label_tree(c)) == list(words)
        for v, word in words.items():
            assert disjointness._access_word(c, v) == word


def positive_rank_components(a, b):
    """The edges, in product order, of each component of positive rank of
    the based cores' product."""
    ca = core(a, keep_basepoint=True)
    cb = core(b, keep_basepoint=True)
    return [
        [(u, v, l) for l, _, _, u, v in sorted(edges)]
        for vertices, edges in pullback.product_components(ca, cb)
        if len(edges) >= vertices
    ]


class TestComponentCycle:
    """The cycle read off the parent pointers is the one the quadratic
    version, which builds a word per vertex, finds."""

    @given(st.data(), st.sampled_from([2, 3]))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_quadratic_cycle(self, data, rank):
        h = data.draw(small_subgroup(rank))
        k = data.draw(st.one_of(st.just(h), small_subgroup(rank)))
        for comp in positive_rank_components(h, k):
            assert disjointness._component_cycle(comp) == quadratic_component_cycle(comp, rank)

    @pytest.mark.parametrize("e", [LAMINATED, RANK3_CYCLE, HANGING], ids=["rank2", "rank3", "hanging"])
    def test_matches_the_quadratic_cycle_on_identical_pairs(self, e):
        for n in range(1, 4):
            g = image_subgroup(e, n).graph
            comps = positive_rank_components(g, g)
            assert comps
            for comp in comps:
                assert disjointness._component_cycle(comp) == quadratic_component_cycle(comp, e.rank)


class TestStreamedProduct:
    @given(st.data(), st.sampled_from([2, 3]))
    @settings(max_examples=200, deadline=None)
    def test_gate_and_witness_match_the_whole_product(self, data, rank):
        h = data.draw(small_subgroup(rank))
        k = data.draw(small_subgroup(rank))
        assert all_conjugates_trivial_intersection(h, k) == product_rank_is_zero(h, k)
        assert _intersection_witness(h, k, (0, 1)) == whole_product_witness(h, k, (0, 1))

    @pytest.mark.parametrize("e", [LAMINATED, RANK3_CYCLE, HANGING], ids=["rank2", "rank3", "hanging"])
    def test_witness_matches_the_whole_product_on_identical_pairs(self, e):
        for n in range(1, 6):
            g = image_subgroup(e, n).graph
            got = _intersection_witness(g, g, (0, 1))
            assert got is not None
            assert got == whole_product_witness(g, g, (0, 1))

    def test_budget_is_checked_before_any_walk(self, monkeypatch):
        tables = []
        real_table = pullback._step_table
        monkeypatch.setattr(
            pullback, "_step_table", lambda g: tables.append(g.num_vertices) or real_table(g)
        )
        calls, walked = count_walks(monkeypatch)
        g = image_subgroup(RANK3_CYCLE, 3).graph
        with pytest.raises(ProductBudgetError):
            all_conjugates_trivial_intersection(g, g, max_edges=10)
        assert _intersection_witness(g, g, (0, 1), max_edges=10) is None
        assert (calls, tables, walked) == ([10, 10], [], [])
        assert not all_conjugates_trivial_intersection(g, g)
        assert len(tables) == 2
        assert len(walked) == 1

    @pytest.mark.parametrize(
        "e, core_vertices", [(RANK3_CYCLE, 727), (LAMINATED, 485)], ids=["rank3", "rank2"]
    )
    def test_identical_pair_walks_only_the_diagonal(self, monkeypatch, e, core_vertices):
        # the whole products have 285,151 (rank 3) and 176,661 (rank 2)
        # vertices with edges; the diagonal is a copy of the core, walked first
        calls, walked = count_walks(monkeypatch)
        g = image_subgroup(e, 5).graph
        assert not all_conjugates_trivial_intersection(g, g)
        assert _intersection_witness(g, g, (0, 1)) is not None
        diagonal = (core_vertices, core_vertices + e.rank - 1)
        assert walked == [diagonal, diagonal]

    def test_product_without_edges_walks_nothing(self, monkeypatch):
        # 4,000,000 product vertices and no edge: memory must follow the
        # edges (bounded by the budget), not the vertices (one list slot per
        # product vertex alone takes 32 MB)
        h = subgroup_graph([Word((1,) * 2000, 2)], 2)
        k = subgroup_graph([Word((2,) * 2000, 2)], 2)
        calls, walked = count_walks(monkeypatch)
        tracemalloc.start()
        try:
            disjoint = all_conjugates_trivial_intersection(h, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert disjoint
        assert (len(calls), walked) == (1, [])
        assert peak < 8 * 2**20

    def test_witness_respects_the_budget(self):
        # powers 1..5 fit the free cores' products; the witness's based
        # product at power 5 does not, so there is no witness
        verdict = essential_disjointness_power([HANGING, HANGING], cap=5, max_edges=1500)
        assert verdict == DisjointnessVerdict("not_disjoint_at_cap", n=5)
        roomy = essential_disjointness_power([HANGING, HANGING], cap=5, max_edges=1874)
        assert roomy.witness is not None
        assert _witness_is_valid([HANGING, HANGING], roomy)

    def test_certify_reports_a_missing_witness(self, monkeypatch):
        certify_module = importlib.import_module("hnncert.certify")
        monkeypatch.setattr(
            certify_module,
            "essential_disjointness_power",
            partial(essential_disjointness_power, max_edges=1500),
        )
        config = json.dumps(
            {"rank": 2, "endos": [["baaB", "ba"], ["baaB", "ba"]], "caps": {"disjointness": 5}}
        ).encode()
        cert = certify_module.certify(certify_module.parse_config(config))
        assert cert.verdict == "inconclusive"
        assert cert.evidence["disjointness"] == {"kind": "not_disjoint_at_cap", "n": 5, "note": ""}
        assert cert.evidence["reasons"][-1] == (
            "family: conjugate intersections persist at every power up to 5 "
            "but no witness could be extracted"
        )

    def test_identical_rank3_certify_peak_memory(self, tmp_path):
        # the whole products of this pair peaked near 180 MB.  A process
        # keeps its peak RSS across exec, so the run is launched from a small
        # interpreter instead of from this one, whose peak it would inherit.
        config = tmp_path / "identical_rank3.json"
        config.write_text(json.dumps({"rank": 3, "endos": [["aab", "bbc", "cca"]] * 2}))
        report = tmp_path / "report.json"
        launcher = (
            "import resource, subprocess, sys\n"
            "run = subprocess.run([sys.executable, '-m', 'hnncert.cli', *sys.argv[1:]])\n"
            "print(run.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        src = str(Path(disjointness.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", launcher, "--input", str(config), "--output", str(report)],
            capture_output=True,
            text=True,
            timeout=300,
            env={"PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr
        exit_code, maxrss_kb = map(int, result.stdout.split())
        assert exit_code == 3
        assert json.loads(report.read_text())["verdict"] == "not_disjoint"
        assert maxrss_kb < 100 * 1024


def _brute_preimage(e, s, alpha, bound=6):
    powered = e.power(s)
    stack = [()]
    while stack:
        u = stack.pop()
        if u and conjugate_in_free_group(
            apply_endo(powered, Word(u, e.rank)), alpha
        ):
            return Word(u, e.rank)
        if len(u) < bound:
            for x in range(-e.rank, e.rank + 1):
                if x == 0 or (u and u[-1] == -x):
                    continue
                stack.append(u + (x,))
    return None


class TestPreimageInImage:
    def test_known_preimage(self):
        assert preimage_in_image(SAPIR, 1, w("abba")) == w("ab")

    def test_rotated_target_found_up_to_conjugacy(self):
        beta = preimage_in_image(SAPIR, 1, w("baab"))
        assert beta is not None
        assert conjugate_in_free_group(apply_endo(SAPIR, beta), w("baab"))

    def test_absent_conjugacy_class(self):
        assert preimage_in_image(SAPIR, 1, w("a")) is None

    def test_brute_force_confirms_absence(self):
        assert _brute_preimage(SAPIR, 1, w("a")) is None
        assert _brute_preimage(SAPIR, 1, w("abba")) is not None

    def test_identity_returns_target(self):
        beta = preimage_in_image(IDENT, 1, w("abAB"))
        assert conjugate_in_free_group(beta, w("abAB"))

    def test_squares_powers(self):
        assert preimage_in_image(SQUARES, 2, w("aaaa")) == w("a")
        assert preimage_in_image(SQUARES, 2, w("aa")) is None
        assert preimage_in_image(SQUARES, 1, w("aa")) == w("a")

    def test_empty_target(self):
        assert preimage_in_image(SAPIR, 3, w("")) == w("")

    def test_input_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            preimage_in_image(SAPIR, 0, w("a"))
        with pytest.raises(ValueError, match="cyclically reduced"):
            preimage_in_image(SAPIR, 1, w("abA"))
        with pytest.raises(ValueError, match="rank"):
            preimage_in_image(SAPIR, 1, word_from_string("a", 1))

    def test_fallback_without_decoding(self):
        # φ^s must be block-decodable, as for decode_in_image; the empty
        # word is no exception
        for alpha in ("a", ""):
            with pytest.raises(ValueError, match="distinct letters"):
                preimage_in_image(COLLAPSE, 1, w(alpha))

    @pytest.mark.parametrize("s", [1, 2])
    def test_agrees_with_brute_force_on_short_words(self, s):
        seen = set()
        stack = [()]
        while stack:
            u = stack.pop()
            if 0 < len(u) <= 3:
                alpha = Word(u, 2)
                if cyclic_reduce(alpha)[1].is_empty() and u not in seen:
                    seen.add(u)
                    got = preimage_in_image(SAPIR, s, alpha)
                    expected = _brute_preimage(SAPIR, s, alpha)
                    assert (got is None) == (expected is None), alpha
                    if got is not None:
                        assert conjugate_in_free_group(
                            apply_endo(SAPIR.power(s), got), alpha
                        )
            if len(u) < 3:
                for x in (-2, -1, 1, 2):
                    if u and u[-1] == -x:
                        continue
                    stack.append(u + (x,))

    @given(reduced_letters(2, 6), st.integers(min_value=1, max_value=2))
    @settings(max_examples=80, deadline=None)
    def test_images_always_have_preimages(self, letters, s):
        u = Word(letters, 2)
        if u.is_empty():
            return
        target = cyclic_reduce(apply_endo(SAPIR.power(s), u))[0]
        if target.is_empty():
            return
        beta = preimage_in_image(SAPIR, s, target)
        assert beta is not None
        assert conjugate_in_free_group(apply_endo(SAPIR.power(s), beta), target)


def _uncached_preimage(e, s, alpha):
    """Oracle for ``preimage_in_image``: the search with φ^s and its image
    graph rebuilt on every call (inputs assumed valid, φ^s decodable)."""
    powered = e.power(s)
    if not alpha.letters:
        return Word((), e.rank)
    graph = subgroup_graph(list(powered.images), e.rank)
    based_core = core(graph, keep_basepoint=True)
    steps = based_core.step_map
    access = access_words(based_core, based_core.basepoint)
    letters = alpha.letters
    for r in range(len(letters)):
        rot = letters[r:] + letters[:r]
        for v in range(based_core.num_vertices):
            pos = v
            for sgn in rot:
                pos = steps.get((pos, sgn))
                if pos is None:
                    break
            if pos != v or v not in access:
                continue
            u = access[v]
            h = reduce(u + rot + tuple(-x for x in reversed(u)), e.rank)
            beta = decode_in_image(powered, h)
            if beta is not None:
                return beta
    return None


class TestCachedPreimageTables:
    """preimage_in_image against the plain search: φ^s, its image graph,
    core and access words built afresh, and decoding through
    decode_in_image."""

    @staticmethod
    def cyclically_reduced_words(rank, max_len):
        for n in range(max_len + 1):
            for u in itertools.product(
                [x for x in range(-rank, rank + 1) if x], repeat=n
            ):
                word = Word(reduce(u, rank).letters, rank)
                if word.letters == u and not cyclic_reduce(word)[1].letters:
                    yield word

    @pytest.mark.parametrize("e", [SAPIR, SQUARES, IDENT], ids=["SAPIR", "SQUARES", "IDENT"])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_matches_the_uncached_search(self, e, s):
        found = 0
        for alpha in self.cyclically_reduced_words(2, 4):
            got = preimage_in_image(e, s, alpha)
            assert got == _uncached_preimage(e, s, alpha), alpha
            found += got is not None
        # some preimage is found, so the comparison is not vacuous
        assert found
