"""Graph maps: tightening, loop images, transition matrices, PF data, turns."""

import collections
import itertools
import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hnncert import graphmap
from hnncert.certify import ConfigError, MarkingPair, parse_config
from hnncert.graphmap import (
    GraphMap,
    PowerIterationError,
    TrainTrackVerdict,
    compose_maps,
    crossed_turns,
    cyclic_paths_equal,
    immersed_loop_image,
    is_immersion,
    is_irreducible_matrix,
    is_legal_turn,
    iterate_map,
    map_loop,
    map_path,
    mat_mul,
    mat_power,
    path_length,
    pf_eigenvalue,
    random_legal_loop,
    rose,
    tighten_path,
    transition_matrix,
    verify_train_track,
)
from hnncert.words import Endomorphism, cyclic_core, word_from_string


def endo(*images, rank=2):
    return Endomorphism(rank, tuple(word_from_string(s, rank) for s in images))


def rose_map(*images, rank=2):
    return GraphMap.from_endomorphism(endo(*images, rank=rank))


F_AB_A = rose_map("ab", "a")  # a -> ab, b -> a
F_AB_BA = rose_map("ab", "ba")  # a -> ab, b -> ba


class TestMarkedGraph:
    def test_rose(self):
        g = rose(2)
        assert g.num_edges == 2
        assert g.directions() == (1, -1, 2, -2)


class TestTightenPath:
    def test_edge_then_reverse(self):
        assert tighten_path(rose(2), (1, -1)) == ()

    def test_tight_path_unchanged(self):
        assert tighten_path(rose(2), (1, 2, 1)) == (1, 2, 1)

    def test_inner_cancellation(self):
        assert tighten_path(rose(3), (1, 2, -2, 3)) == (1, 3)

    def test_non_composable_rejected(self):
        # on the rose every sequence of edges composes; only a missing edge
        # fails
        with pytest.raises(ValueError, match="no edge 3"):
            tighten_path(rose(2), (1, 3))
        with pytest.raises(ValueError, match="no edge 0"):
            tighten_path(rose(2), (1, 0))


class TestMapLoop:
    def test_identity(self):
        f = rose_map("a", "b")
        assert map_loop(f, (1, 2)) == (1, 2)

    def test_substitution(self):
        assert map_loop(F_AB_A, (1, 2)) == (1, 2, 1)

    def test_unreduced_input_rejected(self):
        with pytest.raises(ValueError):
            map_loop(F_AB_A, (2, -2))

    def test_missing_edge_rejected(self):
        with pytest.raises(ValueError, match="no edge 3"):
            map_loop(F_AB_A, (1, 3))

    def test_free_loop_tightened_cyclically(self):
        # f(bA) with f: a->ab, b->a is a·(ab)^{-1} = a·B·A, whose cyclic
        # reduction drops the wraparound a…A pair
        image = map_loop(F_AB_A, (2, -1))
        assert image == (-2,)


class TestImmersedLoopImage:
    def test_signed_images(self):
        assert F_AB_BA.signed_images == {1: (1, 2), -1: (-2, -1), 2: (2, 1), -2: (-1, -2)}
        assert F_AB_BA.edge_image(-1) == (-2, -1)

    def test_matches_per_letter_images(self):
        rng = random.Random(3)
        for f in (F_AB_BA, rose_map("aab", "bbc", "cca", rank=3)):
            rank = f.domain.num_edges
            for _ in range(30):
                loop = random_cyclic_word(rng, rank, rng.randint(1, 12))
                image = immersed_loop_image(f, loop)
                assert image == tuple(
                    x for s in loop
                    for x in (f.edge_map[s - 1] if s > 0 else
                              tuple(-y for y in reversed(f.edge_map[-s - 1])))
                )

    # 0 once read the last edge's image (index −1), and so would −rank − 1
    # through a negative list index
    @pytest.mark.parametrize("bad", [0, 3, -3, 7])
    def test_letters_off_the_rose_raise(self, bad):
        with pytest.raises(ValueError, match=f"no edge {bad}"):
            immersed_loop_image(F_AB_BA, (1, bad, 2))
        with pytest.raises(KeyError):
            F_AB_BA.edge_image(bad)

    def test_table_is_built_once_and_stays_out_of_equality(self):
        f = rose_map("ab", "ba")
        table = f.signed_images
        assert f.signed_images is table
        assert f == F_AB_BA and hash(f) == hash(F_AB_BA)


class TestTransitionMatrix:
    def test_identity(self):
        assert transition_matrix(rose_map("a", "b")) == ((1, 0), (0, 1))

    def test_ab_a(self):
        assert transition_matrix(F_AB_A) == ((1, 1), (1, 0))

    def test_ab_ba(self):
        assert transition_matrix(F_AB_BA) == ((1, 1), (1, 1))

    @pytest.mark.parametrize("f", [F_AB_A, F_AB_BA, rose_map("aa", rank=1)])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_power_compatibility_for_train_tracks(self, f, k):
        assert verify_train_track(f).kind == "train_track"
        assert transition_matrix(iterate_map(f, k)) == mat_power(transition_matrix(f), k)


def brute_irreducible(a):
    """Oracle: all entries of sum of first n powers positive."""
    n = len(a)
    total = [[0] * n for _ in range(n)]
    p = a
    for _ in range(n):
        for i in range(n):
            for j in range(n):
                total[i][j] += p[i][j]
        p = mat_mul(p, a)
    return all(total[i][j] > 0 for i in range(n) for j in range(n))


class TestIrreducibility:
    def test_examples(self):
        assert is_irreducible_matrix(((1, 1), (1, 0)))
        assert not is_irreducible_matrix(((1, 0), (0, 1)))
        assert is_irreducible_matrix(((0, 1), (1, 0)))
        assert not is_irreducible_matrix(((0,),))
        assert is_irreducible_matrix(((2,),))

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    def test_against_power_sum_oracle(self, rows):
        a = tuple(tuple(r) for r in rows)
        assert is_irreducible_matrix(a) == brute_irreducible(a)


class TestPFEigenvalue:
    def test_golden_ratio(self):
        got = pf_eigenvalue(((1, 1), (1, 0)), tol=1e-9)
        assert abs(got - (1 + math.sqrt(5)) / 2) <= 1e-9

    def test_one_by_one(self):
        assert pf_eigenvalue(((2,),)) == pytest.approx(2.0, abs=1e-12)

    def test_doubly_stochastic_like(self):
        assert pf_eigenvalue(((1, 1), (1, 1))) == pytest.approx(2.0, abs=1e-12)

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            pf_eigenvalue(((1, 0), (0, 1)))

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            pf_eigenvalue(((2,),), tol=0)

    def test_deterministic(self):
        a = ((2, 1, 0), (0, 1, 1), (1, 0, 1))
        assert pf_eigenvalue(a, 1e-10) == pf_eigenvalue(a, 1e-10)

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    # irreducible but of period 2: its square is reducible
    @example(rows=[[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    @settings(max_examples=60, deadline=None)
    def test_at_least_one_and_square_consistent(self, rows):
        a = tuple(tuple(r) for r in rows)
        if not is_irreducible_matrix(a):
            return
        lam = pf_eigenvalue(a, 1e-10)
        assert lam >= 1 - 1e-9
        square = mat_mul(a, a)
        if not is_irreducible_matrix(square):
            # A is imprimitive: A^2 is reducible, which pf_eigenvalue rejects
            return
        lam2 = pf_eigenvalue(square, 1e-10)
        assert abs(lam2 - lam * lam) <= 2e-9 * max(1.0, lam * lam)


    @pytest.mark.parametrize(
        "a,lam",
        [
            (((2, 1), (1, 2)), 3.0),
            (((1, 1, 1),) * 3, 3.0),
            (((2, 0, 1), (1, 2, 0), (0, 1, 2)), 3.0),
            (((1, 1), (1, 1)), 2.0),
            (((3, 1), (4, 3)), 5.0),
        ],
    )
    def test_integer_eigenvalues_are_exact(self, a, lam):
        # the lambda values the reference reports record, byte for byte
        assert repr(pf_eigenvalue(a)) == repr(lam)

    def test_iterate_stays_bounded_when_convergence_is_slow(self, monkeypatch):
        # lambda(A + I) = 100001 ± sqrt(2): the round cap is reached before
        # the enclosure closes, and the kept iterate has not grown by some
        # thousand bits a round; with no squaring rounds after the cap the
        # iteration gives up there
        monkeypatch.setattr(graphmap, "_PF_MAX_SQUARINGS", 0)
        with pytest.raises(PowerIterationError) as info:
            pf_eigenvalue(((100000, 2), (1, 100000)))
        assert min(info.value.last_iterate).bit_length() <= 128

    def test_squaring_rounds_close_a_small_gap(self):
        # the same matrix, past the round cap: lambda(A) = 100000 + sqrt(2)
        tol = 1e-9
        lam = pf_eigenvalue(((100000, 2), (1, 100000)), tol)
        assert abs(lam - (100000 + math.sqrt(2))) <= tol

    def test_exceeds_one_exactly_off_permutations(self):
        # the exact "expanding" gate of certify: an irreducible matrix has
        # lambda > 1 exactly when some column sum (edge image length) is >= 2
        checked = 0
        for n in (1, 2, 3):
            for flat in itertools.product(range(3), repeat=n * n):
                a = tuple(flat[i * n : (i + 1) * n] for i in range(n))
                if not is_irreducible_matrix(a):
                    continue
                checked += 1
                long_image = any(sum(col) >= 2 for col in zip(*a))
                assert (pf_eigenvalue(a) > 1 + 1e-6) == long_image, a
        assert checked == 11_270


class TestTrainTrack:
    def test_identity(self):
        assert verify_train_track(rose_map("a", "b")).kind == "train_track"

    def test_illegal_turn(self):
        # a -> ab, b -> b^{-1}a: f²(a) = ab·b^{-1}a cancels
        f = rose_map("ab", "Ba")
        verdict = verify_train_track(f)
        assert verdict.kind == "illegal_turn_found"
        assert verdict.witness == (-1, 2)
        assert verdict.steps == 1

    def test_non_immersion_train_track(self):
        assert verify_train_track(F_AB_A).kind == "train_track"

    def test_crossed_turns(self):
        assert crossed_turns(F_AB_A) == {frozenset((-1, 2))}

    def test_legal_turn_query(self):
        assert not is_legal_turn(F_AB_A, frozenset((1, 2)))
        assert is_legal_turn(F_AB_A, frozenset((-1, 2)))

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_the_bounded_turn_walk(self, rank):
        # a turn {a, b} is illegal iff df^k(a) = df^k(b) for some
        # k <= (2n)^2: there are fewer turns than that, so a longer walk
        # repeats one
        rng = random.Random(rank)
        bound = (2 * rank) ** 2
        kinds = collections.Counter()
        for _ in range(300):
            images = [random_word(rng, rank, rng.randint(1, 4)) for _ in range(rank)]
            f = rose_map(*images, rank=rank)
            df = {s: f.edge_image(s)[0] for s in f.domain.directions()}

            def degenerates_at(turn):
                a, b = sorted(turn)
                for k in range(1, bound + 1):
                    a, b = df[a], df[b]
                    if a == b:
                        return k
                return None

            dirs = f.domain.directions()
            for turn in {frozenset(t) for t in itertools.combinations(dirs, 2)}:
                assert is_legal_turn(f, turn) == (degenerates_at(turn) is None)
            illegal = sorted(
                (sorted(t), degenerates_at(t))
                for t in crossed_turns(f)
                if degenerates_at(t) is not None
            )
            verdict = verify_train_track(f)
            kinds[verdict.kind] += 1
            if illegal:
                (a, b), steps = illegal[0]
                assert verdict == TrainTrackVerdict("illegal_turn_found", (a, b), steps)
            else:
                assert verdict == TrainTrackVerdict("train_track")
        assert kinds["train_track"] > 0
        assert (kinds["illegal_turn_found"] > 0) == (rank > 1)


class TestImmersion:
    def test_identity(self):
        assert is_immersion(rose_map("a", "b"))

    def test_shared_first_direction(self):
        assert not is_immersion(F_AB_A)

    def test_distinct_directions(self):
        assert is_immersion(F_AB_BA)

    @given(
        st.lists(
            st.lists(
                st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0),
                min_size=1,
                max_size=3,
            ),
            min_size=2,
            max_size=2,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_immersion_implies_train_track(self, raws):
        try:
            f = rose_map(
                *(
                    "".join(chr(96 + x) if x > 0 else chr(64 - x) for x in raw)
                    for raw in raws
                )
            )
        except ValueError:
            return  # unreduced image
        if is_immersion(f):
            assert verify_train_track(f).kind == "train_track"


def random_word(rng, rank, length):
    """A random reduced word of ``length`` letters, as a string."""
    letters = []
    while len(letters) < length:
        x = rng.choice([x for x in range(-rank, rank + 1) if x])
        if not letters or x != -letters[-1]:
            letters.append(x)
    return "".join(chr(96 + x) if x > 0 else chr(64 - x) for x in letters)


def random_cyclic_word(rng, rank, length):
    while True:
        letters = []
        for _ in range(length):
            choices = [
                x
                for x in range(-rank, rank + 1)
                if x != 0 and (not letters or x != -letters[-1])
            ]
            letters.append(rng.choice(choices))
        if length > 1 and letters[0] == -letters[-1]:
            continue
        return tuple(letters)


class TestNoCancellation:
    def test_legal_loops_add_lengths(self):
        rng = random.Random(7)
        for f in (F_AB_A, F_AB_BA):
            for _ in range(50):
                loop = random_legal_loop(f, rng.randint(1, 8), rng)
                image = map_loop(f, loop)
                total = sum(len(f.edge_image(s)) for s in loop)
                assert len(image) == total

    def test_cancellation_possible_for_merely_immersed_loops(self):
        # a^{-1}b is immersed but crosses the (illegal) turn {a, b} of
        # a -> ab, b -> a; its image cancels, which is why samplers are
        # restricted to legal loops.
        image = map_loop(F_AB_A, (-1, 2))
        assert len(image) == 1
        assert sum(len(F_AB_A.edge_image(s)) for s in (-1, 2)) == 3

    def test_legal_loops_avoid_illegal_turns(self):
        rng = random.Random(11)
        for _ in range(50):
            loop = random_legal_loop(F_AB_A, rng.randint(1, 6), rng)
            pairs = list(zip(loop, loop[1:] + loop[:1]))
            assert all((a, b) != (-1, 2) and (a, b) != (-2, 1) for a, b in pairs)


def lazy_random_legal_loop(f, length, rng, max_attempts=400):
    """Oracle for ``random_legal_loop``: the sampler with turn legality
    decided lazily on each call, one turn at a time."""
    dirs = list(f.domain.directions())
    legal_cache = {}

    def legal(turn):
        if len(turn) < 2:
            return False
        if turn not in legal_cache:
            legal_cache[turn] = is_legal_turn(f, turn)
        return legal_cache[turn]

    for _ in range(max_attempts):
        path = [rng.choice(dirs)]
        ok = True
        for _ in range(length - 1):
            candidates = [
                t for t in dirs if t != -path[-1] and legal(frozenset((-path[-1], t)))
            ]
            if not candidates:
                ok = False
                break
            path.append(rng.choice(candidates))
        if not ok:
            continue
        wrap = frozenset((-path[-1], path[0]))
        if len(wrap) < 2 or not legal(wrap):
            continue
        return tuple(path)
    raise RuntimeError(f"no legal loop of length {length} found")


# every turn degenerates at once: all four directions start with a
NO_LEGAL_TURN = rose_map("abA", "abA")


class TestPerMapTables:
    """random_legal_loop and map_loop read one cached table per map."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        graphmap._turn_table.cache_clear()

    @staticmethod
    def draws(sampler, f, seed):
        rng = random.Random(seed)
        out = []
        for _ in range(60):
            length = rng.randint(1, 10)
            try:
                out.append(sampler(f, length, rng))
            except RuntimeError as exc:
                out.append(str(exc))
        return out, rng.getstate()

    @pytest.mark.parametrize(
        "f", [F_AB_BA, F_AB_A, rose_map("abc", "bca", "cab", rank=3)],
        ids=["immersion", "illegal_turns", "rank3_immersion"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampler_matches_the_lazy_one(self, f, seed):
        assert self.draws(random_legal_loop, f, seed) == self.draws(
            lazy_random_legal_loop, f, seed
        )

    def test_sampler_failure_leaves_the_same_state(self):
        got = self.draws(random_legal_loop, NO_LEGAL_TURN, 3)
        assert got == self.draws(lazy_random_legal_loop, NO_LEGAL_TURN, 3)
        assert all(x.startswith("no legal loop") for x in got[0])

    def test_sampler_builds_its_table_once(self, monkeypatch):
        checked = []
        real = graphmap._turn_orbit_legal

        def counted(f, turn):
            checked.append(turn)
            return real(f, turn)

        monkeypatch.setattr(graphmap, "_turn_orbit_legal", counted)
        rng = random.Random(5)
        for _ in range(50):
            random_legal_loop(F_AB_A, rng.randint(1, 8), rng)
        # each ordered pair of distinct, non-inverse directions once
        assert len(checked) == 4 * 3

    def test_immersion_images_concatenate(self, monkeypatch):
        decided = []
        real = graphmap.is_immersion
        monkeypatch.setattr(
            graphmap, "is_immersion", lambda f: decided.append(f) or real(f)
        )
        rng = random.Random(9)
        for _ in range(50):
            loop = random_cyclic_word(rng, 2, rng.randint(1, 8))
            image = map_loop(F_AB_BA, loop)
            assert image == tuple(x for s in loop for x in F_AB_BA.edge_image(s))
            assert image == cyclic_core(map_path(F_AB_BA, loop))
        assert decided == [F_AB_BA]

    def test_non_immersion_still_reduces(self):
        # f(bA) with f: a->ab, b->a concatenates to a·B·A
        assert map_loop(F_AB_A, (2, -1)) == (-2,)
        with pytest.raises(ValueError, match="wraparound"):
            map_loop(F_AB_A, (1, 2, -1))

    def test_concatenation_branch_still_checks_its_loop(self):
        with pytest.raises(ValueError, match="no edge 3"):
            map_loop(F_AB_BA, (1, 3))
        with pytest.raises(ValueError, match="no edge 0"):
            map_loop(F_AB_BA, (1, 0))
        with pytest.raises(ValueError, match="backtracks"):
            map_loop(F_AB_BA, (2, -2))
        with pytest.raises(ValueError, match="wraparound"):
            map_loop(F_AB_BA, (1, 2, -1))
        with pytest.raises(ValueError, match="empty"):
            map_loop(F_AB_BA, ())


def marking_config(h, h_inv):
    spec = {"rank": 2, "endos": [["aab", "bba"]],
            "marking_maps": [{"map": h, "inverse": h_inv}]}
    return parse_config(json.dumps(spec).encode())


class TestBilipschitz:
    """Change-of-marking constants of rose maps, as certify computes them."""

    def test_identity(self):
        identity = endo("a", "b")
        assert MarkingPair(identity, identity).bilipschitz_constant() == 1

    def test_elementary_automorphism(self):
        marking = marking_config(["ab", "b"], ["aB", "b"]).markings[0]
        assert marking.bilipschitz_constant() == 2

    def test_wrong_inverse_detected(self):
        with pytest.raises(ConfigError, match="inverse fails"):
            marking_config(["ab", "b"], ["a", "b"])

    def test_sampled_inequality(self):
        h = rose_map("ab", "b")
        k = MarkingPair(endo("ab", "b"), endo("aB", "b")).bilipschitz_constant()
        assert k == 2
        rng = random.Random(3)
        for _ in range(100):
            loop = random_cyclic_word(rng, 2, rng.randint(1, 20))
            la = len(loop)
            lha = len(map_loop(h, loop))
            assert la <= k * lha
            assert lha <= k * la

    def test_stretch_factor(self):
        # the stretch factor of a unit-length rose map is its longest image
        assert endo("ab", "b").max_image_length() == 2
        assert endo("a", "b").max_image_length() == 1


class TestComposition:
    def test_matches_endomorphism_composition(self):
        e1 = endo("ab", "b")
        e2 = endo("a", "ba")
        composed = compose_maps(
            GraphMap.from_endomorphism(e1), GraphMap.from_endomorphism(e2)
        )
        assert composed.edge_map == tuple(w.letters for w in e1.compose(e2).images)

    def test_iterate(self):
        e = endo("ab", "ba")
        f3 = iterate_map(GraphMap.from_endomorphism(e), 3)
        assert f3.edge_map == tuple(w.letters for w in e.power(3).images)

    def test_map_path_cancellation(self):
        assert map_path(F_AB_A, (1, -2)) == (1, 2, -1)


class TestCyclicPaths:
    def test_rotation_equal(self):
        assert cyclic_paths_equal((1, 2, -1), (-1, 1, 2))

    def test_unequal_lengths(self):
        assert not cyclic_paths_equal((1,), (1, 1))

    def test_empty(self):
        assert cyclic_paths_equal((), ())


class TestGraphMapValidation:
    def test_rejects_empty_image(self):
        r = rose(2)
        with pytest.raises(ValueError):
            GraphMap(r, r, (0,), ((), (2,)))

    def test_rejects_untight_image(self):
        r = rose(2)
        with pytest.raises(ValueError):
            GraphMap(r, r, (0,), ((1, -1, 1), (2,)))

    def test_rejects_edge_outside_the_codomain(self):
        with pytest.raises(ValueError, match="no edge 3"):
            GraphMap(rose(2), rose(2), (0,), ((1, 3), (2,)))

    def test_rejects_maps_between_different_roses(self):
        # a -> ab, b -> ac into the rank-3 rose
        with pytest.raises(ValueError, match="self-map"):
            GraphMap(rose(2), rose(3), (0,), ((1, 2), (1, 3)))

    def test_rejects_vertex_map_other_than_the_rose_vertex(self):
        r = rose(2)
        for vertex_map in ((1,), (0, 0)):
            with pytest.raises(ValueError, match="vertex_map"):
                GraphMap(r, r, vertex_map, ((1,), (2,)))

    def test_path_length(self):
        length = path_length(rose(2), (1, -2, 1))
        assert length == 3 and type(length) is int
