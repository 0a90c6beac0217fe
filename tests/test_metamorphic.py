"""Verdicts that depend on the family as a set, under any naming of the
generators.

The multiple HNN extension does not change when its edges are reordered or
the generators renamed, so neither may the verdict.  Each case conjugates
every map by a signed permutation σ: x_i ↦ x_π(i)^±1 (and every marking map
with it, so each representative is conjugated by σ too), permutes or
reverses the family, and asserts the same verdict, power N, disjointness
kind and disjointness n.  Every witness is checked as well: a not_disjoint
element must be nontrivial and lie, as stated, in both image subgroups, and
a Baumslag-Solitar witness must pass the benchmark's independent checker.
"""

import importlib.util
import itertools
import random
from dataclasses import replace
from pathlib import Path

import pytest

from hnncert.certify import ConfigError, MarkingPair, certify, parse_config
from hnncert.disjointness import (
    all_conjugates_trivial_intersection,
    block_table,
    essential_disjointness_power,
    image_subgroup,
)
from hnncert.stallings import membership
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
    disjointness = cert.evidence["disjointness"]
    return cert.verdict, cert.n, disjointness["kind"], disjointness["n"]


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


A = endo("a", "bab")
C = endo("aab", "bba")


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
                i, j = verdict.witness.pair
                assert (i, j) == failing[0]
                g, element = verdict.witness.conjugator, verdict.witness.element
                moved = reduce(g.inverse().letters + element.letters + g.letters, 2)
                assert not element.is_empty()
                assert membership(images[i], element)
                assert membership(images[j], moved)


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
        kinds.add(expected[2])
        for order in list(itertools.permutations(range(3)))[1:]:
            sigma = signed_permutation(rng, config.rank)
            assert certified(relabel(config, sigma, order)) == expected, (config, order, sigma)
    assert {"not_disjoint_at_cap", "disjoint_at"} <= kinds
