"""Verdicts that depend on the family as a set, under any naming of the
generators.

The multiple HNN extension does not change when its edges are reordered or
the generators renamed, so neither may the verdict.  Each case conjugates
every map by a signed permutation σ: x_i ↦ x_π(i)^±1 (and every marking map
with it, so each representative is conjugated by σ too), permutes or
reverses the family, and asserts the same verdict, power N and
disjointness evidence, its note included unless the gate was skipped.
Every witness is checked as well: a not_disjoint element must be
nontrivial and lie, as stated, in both image subgroups, and a
Baumslag-Solitar witness must pass the benchmark's independent checker.
"""

import collections
import importlib.util
import itertools
import random
from dataclasses import replace
from pathlib import Path

import pytest

from hnncert.certify import ConfigError, MarkingPair, certify, parse_config
from hnncert.disjointness import (
    DisjointnessVerdict,
    all_conjugates_trivial_intersection,
    block_table,
    essential_disjointness_power,
    image_subgroup,
)
from hnncert.stallings import graph_rank, membership, subgroup_graph
from hnncert.words import Endomorphism, Word, reduce, word_from_string
from test_certify import REFERENCE_REPORTS, config_bytes, seeded_corpus

_spec = importlib.util.spec_from_file_location(
    "perfbench_checker", Path(__file__).resolve().parents[1] / "perfbench" / "checker.py"
)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


def endo(*images, rank=2):
    return Endomorphism(rank, tuple(word_from_string(s, rank) for s in images))


def signed_permutation(rng, rank):
    """σ and σ⁻¹ for a random π and random signs."""
    images = [Word((rng.choice((1, -1)) * p,), rank) for p in rng.sample(range(1, rank + 1), rank)]
    inverse = [None] * rank
    for i, (x,) in enumerate((w.letters for w in images), 1):
        inverse[abs(x) - 1] = Word((i if x > 0 else -i,), rank)
    return Endomorphism(rank, tuple(images)), Endomorphism(rank, tuple(inverse))


def relabel(config, sigma, order):
    """The config with each map φ replaced by σ∘φ∘σ⁻¹ and the family (and
    its markings) taken in ``order``."""
    s, s_inv = sigma
    conj = lambda e: s.compose(e).compose(s_inv)  # noqa: E731
    markings = config.markings
    if markings:
        markings = tuple(
            None if m is None else MarkingPair(conj(m.map), conj(m.inverse))
            for m in (markings[k] for k in order)
        )
    endos = tuple(conj(config.endomorphisms[k]) for k in order)
    return replace(config, endomorphisms=endos, markings=markings)


def outcome(cert):
    disjointness = dict(cert.evidence["disjointness"])
    if disjointness["kind"] == "skipped":
        # its note names the non-injective maps by their place in the family
        del disjointness["note"]
    return cert.verdict, cert.n, disjointness


def check_witness(config, cert):
    """The report's witness holds for the representatives it names."""
    rank = config.rank
    reps = [
        tuple(word_from_string(s, rank) for s in record["images"])
        for record in cert.evidence["per_endomorphism"]
    ]
    w = cert.witness
    if cert.verdict == "obstruction_BS":
        images = tuple(x.letters for x in reps[w["endo"] - 1])
        checker.check_bs_witness(images, checker.parse_word(w["loop"]), w["degree"], w["power"])
    elif cert.verdict == "not_disjoint":
        (i, j), n = w["pair"], w["power"]
        g = word_from_string(w["conjugator"], rank)
        element = word_from_string(w["element"], rank)
        moved = reduce(g.inverse().letters + element.letters + g.letters, rank)
        phi_i, phi_j = (Endomorphism(rank, reps[k - 1]) for k in (i, j))
        assert not element.is_empty()
        assert membership(image_subgroup(phi_i, n).graph, element)
        assert membership(image_subgroup(phi_j, n).graph, moved)
        if block_table(phi_i) is not None and block_table(phi_j) is not None:
            checker.check_not_disjoint(
                [x.letters for x in phi_i.images],
                [x.letters for x in phi_j.images],
                n,
                g.letters,
                element.letters,
            )


def certified(config):
    cert = certify(config)
    check_witness(config, cert)
    return outcome(cert)


@pytest.mark.filterwarnings("ignore:ignoring retired settings")
@pytest.mark.parametrize("name", sorted(REFERENCE_REPORTS))
def test_reference_configs(name):
    config = parse_config(config_bytes(**REFERENCE_REPORTS[name][0]))
    rng = random.Random(name)
    expected = certified(config)
    size = len(config.endomorphisms)
    for order in itertools.permutations(range(size)):
        for _ in range(3):
            sigma = signed_permutation(rng, config.rank)
            assert certified(relabel(config, sigma, order)) == expected, (order, sigma)


def test_seeded_corpus():
    rng = random.Random(29)
    verdicts = set()
    for config in seeded_corpus(1000):
        expected = certified(config)
        verdicts.add(expected[0])
        reverse = tuple(reversed(range(len(config.endomorphisms))))
        sigma = signed_permutation(rng, config.rank)
        assert certified(relabel(config, sigma, reverse)) == expected, (config, sigma)
    assert verdicts == {"inconclusive", "obstruction_BS", "not_disjoint", "certified_hyperbolic"}


def assert_valid_witness(family, verdict):
    """The verdict's element is nontrivial and lies in the based image of
    the first map of its pair, and conjugated by its conjugator, in the
    second's."""
    i, j = verdict.witness.pair
    g, element = verdict.witness.conjugator, verdict.witness.element
    moved = reduce(g.inverse().letters + element.letters + g.letters, g.rank)
    assert not element.is_empty()
    assert membership(image_subgroup(family[i], verdict.n).graph, element)
    assert membership(image_subgroup(family[j], verdict.n).graph, moved)


A = endo("a", "bab")
C = endo("aab", "bba")
D = endo("aaab", "bbba")


@pytest.mark.parametrize(
    "max_edges, expected", [(10, ("cap_exceeded", 1)), (40, ("not_disjoint_at_cap", 1))]
)
def test_a_repeated_map_at_a_small_budget(max_edges, expected):
    # A meets itself at every power, and the pairs with C go over the
    # budget at power 1 (max_edges 10) or 2 (40): a gate that budgeted only
    # the pairs up to the first failing one would let the order decide
    rng = random.Random(max_edges)
    for order in itertools.permutations((A, A, C)):
        for sigma in [None] + [signed_permutation(rng, 2) for _ in range(3)]:
            family = order if sigma is None else [sigma[0].compose(e).compose(sigma[1]) for e in order]
            verdict = essential_disjointness_power(family, cap=3, max_edges=max_edges)
            assert (verdict.kind, verdict.n) == expected, (order, sigma)
            if verdict.witness is not None:
                # the witness pair is the first failing one in family order
                images = [image_subgroup(e, verdict.n).graph for e in family]
                failing = [
                    (i, j)
                    for i, j in itertools.combinations(range(3), 2)
                    if not all_conjugates_trivial_intersection(images[i], images[j])
                ]
                assert verdict.witness.pair == failing[0]
                assert_valid_witness(family, verdict)


def test_the_over_budget_note_names_the_largest_pair():
    # at power 1 the pairs of A, C and D have 12, 16 and 24 product edges,
    # all over the budget; naming the first of them in family order made
    # the note follow the order
    rng = random.Random(24)
    for order in itertools.permutations((A, C, D)):
        for sigma in [None] + [signed_permutation(rng, 2) for _ in range(3)]:
            family = order if sigma is None else [sigma[0].compose(e).compose(sigma[1]) for e in order]
            verdict = essential_disjointness_power(family, cap=3, max_edges=10)
            assert verdict == DisjointnessVerdict(
                "cap_exceeded", n=1, note="fiber product would have 24 edges (budget 10)"
            ), (order, sigma)


def three_map_families(count, seed=3):
    """``count`` parseable three-map families drawn from
    ``random.Random(seed)``: rank 2-4, images of 2-6 letters, disjointness
    cap 6 and the default edge budget."""
    rng = random.Random(seed)
    families = []
    while len(families) < count:
        rank = rng.randint(2, 4)
        letters = "abcd"[:rank] + "ABCD"[:rank]
        endos = [
            ["".join(rng.choice(letters) for _ in range(rng.randint(2, 6))) for _ in range(rank)]
            for _ in range(3)
        ]
        try:
            config = parse_config(config_bytes(rank=rank, endos=endos, caps={"disjointness": 6}))
        except ConfigError:
            continue
        families.append(config)
    return families


def test_three_map_families_in_every_order():
    # budgeting only the pairs up to the first failing one gives different
    # disjointness n across orders on 8 of these 60 families, for example
    # n 4 and n 6 on this one
    families = three_map_families(60)
    example = (endo("aABB", "AAAbAB"), endo("ba", "abaAB"), endo("BaBaAB", "BBBa"))
    assert example in [c.endomorphisms for c in families]
    rng = random.Random(60)
    kinds = set()
    for config in families:
        expected = certified(config)
        kinds.add(expected[2]["kind"])
        for order in list(itertools.permutations(range(3)))[1:]:
            sigma = signed_permutation(rng, config.rank)
            assert certified(relabel(config, sigma, order)) == expected, (config, order, sigma)
    assert {"not_disjoint_at_cap", "disjoint_at"} <= kinds


def injective_families(configs):
    """The configs of two or more maps, each injective: the families whose
    disjointness ``certify`` decides."""
    return [
        config
        for config in configs
        if len(config.endomorphisms) > 1
        and all(
            graph_rank(subgroup_graph(list(e.images), config.rank)) == config.rank
            for e in config.endomorphisms
        )
    ]


@pytest.mark.parametrize("max_edges", [200, 1000, 5000])
def test_every_capped_verdict_carries_a_valid_witness(max_edges):
    # every graph the gate walks or reads a witness from is budgeted before
    # it is built, so no walk can go over the budget and lose the witness
    kinds = collections.Counter()
    for config in injective_families(seeded_corpus(1000) + three_map_families(60)):
        family = config.endomorphisms
        verdict = essential_disjointness_power(family, config.disjointness_cap, max_edges)
        kinds[verdict.kind, bool(verdict.note)] += 1
        if verdict.kind == "not_disjoint_at_cap":
            assert_valid_witness(family, verdict)
    assert kinds["not_disjoint_at_cap", False] and kinds["not_disjoint_at_cap", True]


@pytest.mark.parametrize(
    "endos, max_edges, n",
    [
        ([["bA", "AAbB"], ["Ab", "BBAb"]], 200, 3),
        ([["bAa", "ba"], ["Ba", "aa"], ["AA", "ab"]], 5000, 6),
        ([["Ba", "baaA"], ["bbBaA", "AAb"], ["aB", "Aaa"]], 5000, 7),
    ],
)
def test_a_stem_counts_at_its_full_growth(endos, max_edges, n):
    # the bound counts the stems of these non-immersions' based cores at
    # their full M-growth, so at cap 8 they go over the budget one power
    # before their free cores' bounds did (which gave disjoint_at 4, and
    # not_disjoint_at_cap 7 and 8), and stop with the witness of power n
    family = parse_config(config_bytes(rank=2, endos=endos)).endomorphisms
    verdict = essential_disjointness_power(family, cap=8, max_edges=max_edges)
    assert (verdict.kind, verdict.n, verdict.note) == (
        "not_disjoint_at_cap",
        n,
        f"search budget exhausted at power {n + 1}; verdict covers powers 1..{n}",
    )
    assert_valid_witness(family, verdict)
