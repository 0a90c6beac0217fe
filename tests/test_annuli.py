"""Tests for annulus words, ring construction, and flaring checks."""

import random
from fractions import Fraction

import pytest

from hnncert import annuli
from hnncert.annuli import (
    Annulus,
    AnnulusWord,
    FlaringVerdict,
    LoopSample,
    audit_31_hyperbolicity,
    build_annulus,
    check_lambda_hyperbolic,
    check_ring_relations,
    flaring_audit,
    is_admissible,
)
from hnncert.disjointness import preimage_in_image
from hnncert.expansion import expansion_power
from hnncert.graphmap import (
    GraphMap,
    is_immersion,
    iterate_map,
    map_loop,
    mat_power,
    rose,
    transition_matrix,
)
from hnncert.words import Endomorphism, Word, word_from_string

G2 = rose(2)
F1 = GraphMap(G2, G2, (0,), ((1, 2), (2, 1)))  # a -> ab, b -> ba
F2 = GraphMap(G2, G2, (0,), ((1, 1), (2, 2)))  # a -> aa, b -> bb
PERM = GraphMap(G2, G2, (0,), ((2,), (1,)))
MAPS = [F1, F2]

G1 = rose(1)
DOUBLE = GraphMap(G1, G1, (0,), ((1, 1),))


def W(*letters, rank=2):
    return AnnulusWord(tuple(letters), rank)


def fake(lengths, rank=2, word=None, thinness=1):
    rings = tuple(tuple([1] * n) for n in lengths)
    w = word if word is not None else W(*([1] * (len(lengths) - 1)), rank=rank)
    return Annulus(rose(rank), rings, w, thinness)


class TestAnnulusWord:
    def test_rejects_unreduced(self):
        with pytest.raises(ValueError, match="reduced"):
            AnnulusWord((1, -1), 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            AnnulusWord((3,), 2)
        with pytest.raises(ValueError, match="range"):
            AnnulusWord((0,), 2)

    def test_inverse(self):
        assert W(-1, 2).inverse() == W(-2, 1)


class TestAdmissibility:
    def test_positive_pair(self):
        assert is_admissible(W(1, 2))

    def test_unreduced_sequence_is_inadmissible(self):
        assert not is_admissible((1, -1))

    def test_positive_then_inverse_rejected(self):
        assert not is_admissible(W(1, -2))

    def test_inverse_then_positive_allowed(self):
        assert is_admissible(W(-1, 2))

    def test_inverse_blocks(self):
        assert is_admissible(W(-1, -1, 2, 1))
        assert is_admissible(W(-2, -1, 2))
        assert not is_admissible(W(-1, 2, -1))

    def test_empty_and_single(self):
        assert is_admissible(W())
        assert is_admissible(W(-2))

    def test_zero_letter_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            is_admissible((0, 1))


class TestBuildAnnulus:
    def test_positive_word_rings(self):
        a = build_annulus((1,), W(1, 2), MAPS)
        assert a.rings == ((1,), (1, 2), (1, 1, 2, 2))
        assert a.word == W(1, 2)
        assert a.thinness == 1

    def test_single_map_inverse_block(self):
        beta = (1, 2)
        alpha = map_loop(F1, map_loop(F1, beta))
        a = build_annulus(alpha, W(-1, -1), MAPS)
        assert a.rings == (alpha, map_loop(F1, beta), beta)

    def test_mixed_word(self):
        gamma = (2, 1)
        alpha = map_loop(F1, gamma)
        a = build_annulus(alpha, W(-1, 2), MAPS)
        assert len(a.rings) == 3
        assert check_ring_relations(a, MAPS)

    def test_two_map_inverse_block(self):
        gamma = (1, 2)
        alpha = map_loop(F1, map_loop(F2, gamma))
        a = build_annulus(alpha, W(-1, -2), MAPS)
        assert len(a.rings) == 3
        assert check_ring_relations(a, MAPS)

    def test_missing_preimage_names_power(self):
        with pytest.raises(ValueError, match="map 1 at power 1"):
            build_annulus((1,), W(-1, 2), MAPS)
        with pytest.raises(ValueError, match="map 2 at power 2"):
            build_annulus((1,), W(-2, -2), MAPS)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="admissible"):
            build_annulus((1,), W(1, -2), MAPS)
        with pytest.raises(ValueError, match="trivial"):
            build_annulus((), W(1, 2), MAPS)
        with pytest.raises(ValueError, match="rank"):
            build_annulus((1,), AnnulusWord((1,), 1), MAPS)

    def test_ring_relations_hold_in_both_modes(self):
        # rings pushed forward through the maps, and rings read off as
        # preimages; the starting loop a·b·A is tightened cyclically to b
        pushed = build_annulus((1, 2, -1), W(1, 1), MAPS)
        assert pushed.rings[0] == (2,)
        beta = (1, 2)
        pulled = build_annulus(map_loop(F1, map_loop(F1, beta)), W(-1, -1), MAPS)
        for a in (pushed, pulled):
            assert check_ring_relations(a, MAPS)

    def test_broken_rings_detected(self):
        a = Annulus(G2, ((1,), (2, 2), (1, 1)), W(1, 1))
        assert not check_ring_relations(a, MAPS)


class TestLambdaHyperbolic:
    def test_arithmetic_fixtures(self):
        assert check_lambda_hyperbolic(fake((3, 1, 3)), 3, 1)
        assert not check_lambda_hyperbolic(fake((1, 1, 1)), 3, 1)
        assert check_lambda_hyperbolic(fake((1, 2, 6)), 3, 1)

    def test_exact_boundary(self):
        assert check_lambda_hyperbolic(fake((6, 2, 1)), 3, 1)
        assert not check_lambda_hyperbolic(fake((6, 2, 1)), Fraction(7, 2), 1)

    def test_orientation_symmetry(self):
        rng = random.Random(11)
        for _ in range(50):
            lengths = [rng.randint(1, 30) for _ in range(5)]
            a = fake(lengths, word=W(1, 1, 2, 2))
            b = Annulus(G2, a.rings[::-1], a.word.inverse())
            assert check_lambda_hyperbolic(a, 3, 2) == check_lambda_hyperbolic(
                b, 3, 2
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rings"):
            check_lambda_hyperbolic(fake((1, 2, 3)), 3, 2)
        with pytest.raises(ValueError, match=">= 1"):
            check_lambda_hyperbolic(fake((1, 2, 3)), 3, 0)


def certified(maps, factor=3):
    out = []
    for f in maps:
        verdict = expansion_power(f, cap=10, target_factor=factor)
        assert verdict.kind == "power"
        out.append(iterate_map(f, verdict.n))
    return out


class TestAudit:
    def test_rank_one_certified_is_clean(self):
        report = audit_31_hyperbolicity(
            certified([DOUBLE]), LoopSample(count=100, max_length=20, seed=1)
        )
        assert not report.violations
        assert report.checked > 0
        assert len(report.words) == 2  # (1,1) and (-1,-1)
        assert report.note

    def test_rank_two_certified_is_clean(self):
        report = audit_31_hyperbolicity(
            certified(MAPS), LoopSample(count=40, max_length=15, seed=2)
        )
        assert not report.violations
        assert len(report.words) == 8

    def test_uncertified_maps_yield_witnessed_violations(self):
        report = audit_31_hyperbolicity(
            [PERM, PERM], LoopSample(count=10, max_length=8, seed=4)
        )
        assert report.violations
        v = report.violations[0]
        assert len(v.lengths) == 3
        assert 3 * v.lengths[1] > max(v.lengths[0], v.lengths[-1])

    def test_positive_words_expand_ring_by_ring(self):
        maps = certified(MAPS)
        rng = random.Random(9)
        from hnncert.graphmap import random_legal_loop

        for _ in range(25):
            letters = tuple(rng.choice((1, 2)) for _ in range(rng.randint(1, 4)))
            alpha = random_legal_loop(maps[letters[0] - 1], rng.randint(1, 10), rng)
            a = build_annulus(alpha, W(*letters), maps)
            lengths = a.ring_lengths()
            for before, after in zip(lengths, lengths[1:]):
                assert after >= 3 * before


class TestFlaring:
    def test_large_girth_flares(self):
        verdict = flaring_audit(fake((26, 10, 3)), rho=2)
        assert verdict == FlaringVerdict("flares_with", lam=Fraction(2))

    def test_small_girth_makes_no_claim(self):
        assert flaring_audit(fake((1, 4, 1)), rho=2).kind == "thin_girth"

    def test_violation_carries_lengths(self):
        verdict = flaring_audit(fake((12, 10, 3)), rho=2)
        assert verdict.kind == "violation"
        assert verdict.witness == (12, 10, 3)

    def test_constructed_annuli_flare_for_all_small_rho(self):
        maps = certified(MAPS)
        alpha = (1, 2, 1, 1, 2, 2)
        a = build_annulus(alpha, W(1, 1), maps)
        for rho in (1, 2, 3, 4):
            verdict = flaring_audit(a, rho)
            if len(a.rings[1]) > 2 * rho:
                assert verdict.kind == "flares_with"
            else:
                assert verdict.kind == "thin_girth"

    def test_input_validation(self):
        with pytest.raises(ValueError, match="admissible"):
            flaring_audit(fake((3, 1, 3), word=W(1, -2)), rho=2)
        with pytest.raises(ValueError, match="length-1"):
            flaring_audit(fake((1, 2, 3, 4, 5), word=W(1, 1, 1, 1)), rho=2)
        with pytest.raises(ValueError, match="thin"):
            flaring_audit(fake((3, 1, 3), thinness=3), rho=2)
        with pytest.raises(ValueError, match=">= 1"):
            flaring_audit(fake((3, 1, 3)), rho=0)


def rose_maps(*images, rank=2):
    """Rose self-maps from image strings, e.g. rose_maps("aab,bba")."""
    return [
        GraphMap.from_endomorphism(
            Endomorphism(rank, tuple(word_from_string(w, rank) for w in spec.split(",")))
        )
        for spec in images
    ]


def random_reduced(rng, letters, length):
    w = [rng.choice(letters)]
    while len(w) < length:
        w.append(rng.choice([x for x in letters if x != -w[-1]]))
    return tuple(w)


def random_immersions(rng, rank, count, max_image=3):
    """``count`` random immersions of the rank-``rank`` rose."""
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    out = []
    while len(out) < count:
        images = tuple(
            random_reduced(rng, letters, rng.randint(1, max_image)) for _ in range(rank)
        )
        f = GraphMap(rose(rank), rose(rank), (0,), images)
        if is_immersion(f):
            out.append(f)
    return out


def column_sums(f, n):
    """The column sums of M^n, M = transition_matrix(f): for an immersion,
    the lengths |f^n(e)| of the edge images."""
    return [sum(col) for col in zip(*mat_power(transition_matrix(f), n))]


def built_audit(monkeypatch, maps, n, sample, rho_max=4):
    """:func:`audit_31_hyperbolicity` of the n-th powers of ``maps``, with
    :func:`flaring_audit` at ρ = 1..rho_max on every annulus it built."""
    built = []
    real = annuli.build_annulus

    def recorded(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(annuli, "build_annulus", recorded)
    report = audit_31_hyperbolicity([iterate_map(f, n) for f in maps], sample)
    monkeypatch.undo()
    assert report.checked == len(built) > 0
    flaring = [flaring_audit(a, rho) for a in built for rho in range(1, rho_max + 1)]
    return report, [v for v in flaring if v.kind == "violation"]


LAM = rose_maps("aab,bba", "abb,baa")


class TestColumnSumLemma:
    """certify's lemma: once every column sum of M^n is at least 3 for
    every immersion, the built rings of the n-th powers pass both annulus
    audits, whatever the loop."""

    def assert_clean(self, monkeypatch, maps, n, sample):
        report, flaring_violations = built_audit(monkeypatch, maps, n, sample)
        assert not report.violations
        assert flaring_violations == []

    @pytest.mark.parametrize(
        "maps, n", [(LAM, 2), (LAM[:1], 1)], ids=["green_pair", "single_map"]
    )
    def test_certified_maps(self, monkeypatch, maps, n):
        assert all(min(column_sums(f, n)) >= 3 for f in maps)
        self.assert_clean(monkeypatch, maps, n, LoopSample(count=50, max_length=20, seed=7))

    def test_permutation_pair_violates(self, monkeypatch):
        # the test has teeth: column sums 1, and the audits catch it
        assert column_sums(PERM, 3) == [1, 1]
        report, flaring_violations = built_audit(
            monkeypatch, [PERM, PERM], 3, LoopSample(count=10, max_length=8, seed=4)
        )
        assert report.violations
        assert flaring_violations

    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_immersions(self, monkeypatch, rank, n):
        rng = random.Random(100 * rank + n)
        audited = 0
        while audited < 4:
            maps = random_immersions(rng, rank, 1 + audited % 2, max_image=4)
            if all(min(column_sums(f, n)) >= 3 for f in maps):
                self.assert_clean(
                    monkeypatch, maps, n, LoopSample(count=4, max_length=6, seed=audited)
                )
                audited += 1


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_preimage_of_an_image_is_the_loop_itself(rank):
    """For an immersion the audit's preimage of φ^s(seed) is the seed, not
    just a conjugate of it: a word's rings are pushed forward from the
    seed, the ring shapes of certify's lemma."""
    rng = random.Random(rank)
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    for f in random_immersions(rng, rank, 8):
        e = Endomorphism(rank, tuple(Word(p, rank) for p in f.edge_map))
        for _ in range(10):
            seed = random_cyclic_loop(rng, letters, rng.randint(1, 8))
            for s in (1, 2):
                image = e.power(s)(Word(seed, rank))
                assert preimage_in_image(e, s, image) == Word(seed, rank)


def random_cyclic_loop(rng, letters, length):
    while True:
        w = random_reduced(rng, letters, length)
        if length == 1 or w[0] != -w[-1]:
            return w
