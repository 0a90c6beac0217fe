"""Tests for image subgroups, essential disjointness, and preimages."""

import importlib
import json
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnncert import disjointness
from hnncert.disjointness import (
    DisjointnessVerdict,
    ImageSubgroup,
    IntersectionWitness,
    _intersection_witness,
    all_conjugates_trivial_intersection,
    block_table,
    decode_in_image,
    essential_disjointness_power,
    image_subgroup,
    pairwise_disjoint_at,
    preimage_in_image,
)
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
        assert sorted(l.letters for l in img.basis_loops) == [(1, 2), (2, 1)]

    def test_doubling_power_two_is_four_cycle(self):
        img = image_subgroup(DOUBLE, 2)
        cyc = LabeledGraph(1, 4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)), 0)
        assert canonical_code(img.graph) == canonical_code(cyc)

    def test_power_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            image_subgroup(SAPIR, 0)

    def test_non_injective_warns(self):
        with pytest.warns(UserWarning, match="not injective"):
            image_subgroup(COLLAPSE, 1)

    @pytest.mark.parametrize("e,n", [(SAPIR, 1), (SAPIR, 2), (SQUARES, 3), (DOUBLE, 2)])
    def test_generator_images_are_basepoint_loops(self, e, n):
        img = image_subgroup(e, n)
        for word in e.power(n).images:
            assert membership(img.graph, word)

    @pytest.mark.parametrize("e,n", [(SAPIR, 1), (SAPIR, 2), (SQUARES, 2), (DOUBLE, 3)])
    def test_preimage_bookkeeping(self, e, n):
        img = image_subgroup(e, n)
        assert len(img.basis_loops) == len(img.basis_preimages) == len(img.basis_edges)
        for loop, pre in zip(img.basis_loops, img.basis_preimages):
            assert pre is not None
            assert apply_endo(e.power(n), pre) == loop

    def test_preimage_bookkeeping_without_decoding(self):
        with pytest.warns(UserWarning):
            img = image_subgroup(COLLAPSE, 2)
        for loop, pre in zip(img.basis_loops, img.basis_preimages):
            assert pre is not None
            assert apply_endo(COLLAPSE.power(2), pre) == loop

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_images_nest_downward(self, n):
        lower = image_subgroup(SAPIR, n)
        higher = image_subgroup(SAPIR, n + 1)
        for word in higher.basis_loops:
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

    def test_accepts_image_subgroups(self):
        img = image_subgroup(SAPIR, 1)
        assert not all_conjugates_trivial_intersection(img, img)

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
        img1 = [image_subgroup(SAPIR, 1), image_subgroup(SQUARES, 1)]
        assert pairwise_disjoint_at(img1) == (0, 1)
        for n in (2, 3):
            imgs = [image_subgroup(SAPIR, n), image_subgroup(SQUARES, n)]
            assert pairwise_disjoint_at(imgs) is None

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
        with pytest.warns(UserWarning):
            verdict = essential_disjointness_power([COLLAPSE, TO_B], cap=2)
        assert verdict == DisjointnessVerdict("disjoint_at", n=1)

    def test_three_endomorphisms(self):
        with pytest.warns(UserWarning):
            verdict = essential_disjointness_power([SAPIR, SQUARES, COLLAPSE], cap=2)
        # <a> meets both other images in powers of a up to conjugacy
        assert verdict.kind == "not_disjoint_at_cap"

    def test_needs_two_endomorphisms(self):
        with pytest.raises(ValueError, match="at least two"):
            essential_disjointness_power([SAPIR], cap=2)

    def test_mixed_ranks_rejected(self):
        with pytest.raises(ValueError, match="ranks"):
            essential_disjointness_power([SAPIR, DOUBLE], cap=2)

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
        # the two equal endomorphisms share one image per power, with no rerun
        assert powers == [1, 2, 3, 4]
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
        ua = disjointness._access_words(ca, ca.basepoint)[x]
        ub = disjointness._access_words(cb, cb.basepoint)[y]
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

    def test_budget_is_checked_before_the_union_find(self, monkeypatch):
        built = []
        real = disjointness._UnionFind

        def counted(n):
            built.append(n)
            return real(n)

        monkeypatch.setattr(disjointness, "_UnionFind", counted)
        g = image_subgroup(RANK3_CYCLE, 3).graph
        with pytest.raises(ProductBudgetError):
            all_conjugates_trivial_intersection(g, g, max_edges=10)
        assert _intersection_witness(g, g, (0, 1), max_edges=10) is None
        assert built == []
        assert not all_conjugates_trivial_intersection(g, g)
        assert len(built) == 1

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
        beta = preimage_in_image(COLLAPSE, 1, w("a"))
        assert beta is not None
        assert conjugate_in_free_group(apply_endo(COLLAPSE, beta), w("a"))

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
