"""Free-group word arithmetic: reduction, cyclic forms, endomorphisms."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnncert.graphmap import cyclic_paths_equal
from hnncert.words import (
    Endomorphism,
    Word,
    apply_endo,
    canonical_cyclic_form,
    conjugate,
    conjugate_in_free_group,
    cyclic_reduce,
    free_reduce,
    least_rotation,
    multiply,
    primitive_root,
    reduce,
    word_from_string,
    word_to_string,
)

letters_st = st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0)
raw_st = st.lists(letters_st, max_size=64)
word_st = raw_st.map(lambda raw: reduce(raw, 2))


def reduce_right_to_left(raw):
    """Independent reducer folding from the right (confluence oracle)."""
    out = []
    for x in reversed(raw):
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(reversed(out))


def substitute_oracle(images, w):
    """Naive substitution oracle: splice image strings, then scan-reduce."""
    spliced = []
    for x in w:
        img = images[x - 1] if x > 0 else [-y for y in reversed(images[-x - 1])]
        spliced.extend(img)
    # repeated full scans, deliberately not the production algorithm
    changed = True
    while changed:
        changed = False
        for i in range(len(spliced) - 1):
            if spliced[i] == -spliced[i + 1]:
                del spliced[i : i + 2]
                changed = True
                break
    return tuple(spliced)


class TestReduce:
    def test_cancellation(self):
        assert reduce([1, -1], 2).letters == ()

    def test_nested_cancellation(self):
        assert reduce([1, 2, -2, -1, 3], 3).letters == (3,)

    def test_already_reduced(self):
        assert reduce([1, 2], 2).letters == (1, 2)

    def test_out_of_range_letter(self):
        with pytest.raises(ValueError):
            reduce([1, 3], 2)
        with pytest.raises(ValueError):
            reduce([0], 2)

    @given(raw_st)
    def test_idempotent(self, raw):
        w = reduce(raw, 2)
        assert reduce(w.letters, 2) == w

    @given(raw_st)
    def test_confluent(self, raw):
        assert free_reduce(raw) == reduce_right_to_left(raw)

    @given(raw_st)
    def test_result_is_freely_reduced(self, raw):
        w = reduce(raw, 2)
        assert all(a != -b for a, b in zip(w.letters, w.letters[1:]))


class TestCyclicReduce:
    def test_conjugated_letter(self):
        core, conj = cyclic_reduce(reduce([1, 2, -1], 2))
        assert core.letters == (2,)
        assert conj.letters == (1,)

    def test_already_cyclically_reduced(self):
        core, conj = cyclic_reduce(reduce([1, 2], 2))
        assert core.letters == (1, 2)
        assert conj.letters == ()

    def test_trivial_word(self):
        core, conj = cyclic_reduce(reduce([1, -1], 2))
        assert core.letters == ()
        assert conj.letters == ()

    @given(word_st)
    def test_recomposition(self, w):
        core, conj = cyclic_reduce(w)
        assert multiply(multiply(conj, core), conj.inverse()) == w
        if core.letters:
            assert core.letters[0] != -core.letters[-1]


class TestApplyEndo:
    def test_identity(self):
        e = Endomorphism.identity(2)
        assert apply_endo(e, reduce([1, 2], 2)).letters == (1, 2)

    def test_substitution(self):
        # a -> ab, b -> ba applied to ab gives abba
        e = Endomorphism(2, (reduce([1, 2], 2), reduce([2, 1], 2)))
        w = reduce([1, 2], 2)
        expected = substitute_oracle([[1, 2], [2, 1]], [1, 2])
        assert expected == (1, 2, 2, 1)
        assert apply_endo(e, w).letters == expected

    def test_inverse_letter(self):
        # a -> ab, b -> a applied to b^{-1} gives a^{-1}
        e = Endomorphism(2, (reduce([1, 2], 2), reduce([1], 2)))
        assert apply_endo(e, reduce([-2], 2)).letters == (-1,)

    def test_rank_mismatch(self):
        e = Endomorphism.identity(2)
        with pytest.raises(ValueError):
            apply_endo(e, reduce([1], 3))

    @given(word_st, st.lists(raw_st.filter(bool), min_size=2, max_size=2))
    def test_length_bound(self, w, raw_images):
        images = tuple(reduce(r, 2) for r in raw_images)
        if any(img.is_empty() for img in images):
            return
        e = Endomorphism(2, images)
        assert len(apply_endo(e, w)) <= e.max_image_length() * len(w)

    @given(word_st, word_st)
    def test_homomorphism(self, u, v):
        e = Endomorphism(2, (reduce([1, 2], 2), reduce([2, 1], 2)))
        assert apply_endo(e, multiply(u, v)) == multiply(apply_endo(e, u), apply_endo(e, v))


class TestConjugacy:
    def test_rotation(self):
        assert conjugate_in_free_group(reduce([1, 2], 2), reduce([2, 1], 2))

    def test_distinct_generators(self):
        assert not conjugate_in_free_group(reduce([1], 2), reduce([2], 2))

    def test_conjugated_generator(self):
        assert conjugate_in_free_group(reduce([1, 2, -1], 2), reduce([2], 2))

    @given(word_st)
    def test_reflexive(self, w):
        assert conjugate_in_free_group(w, w)

    @given(word_st, word_st)
    def test_symmetric(self, u, v):
        assert conjugate_in_free_group(u, v) == conjugate_in_free_group(v, u)

    @given(word_st, word_st, word_st)
    def test_transitive_on_conjugate_triples(self, w, g, h):
        # w ~ gwg^-1 ~ h(gwg^-1)h^-1 by construction; equality of canonical
        # forms must chain through.
        a = conjugate(g, w)
        b = conjugate(h, a)
        assert conjugate_in_free_group(w, a)
        assert conjugate_in_free_group(a, b)
        assert conjugate_in_free_group(w, b)

    @given(word_st, word_st)
    def test_agrees_with_explicit_conjugation(self, w, g):
        assert conjugate_in_free_group(w, conjugate(g, w))


class TestLeastRotation:
    @given(st.lists(st.integers(min_value=-3, max_value=3), max_size=24))
    def test_against_bruteforce(self, seq):
        seq = tuple(seq)
        k = least_rotation(seq)
        if not seq:
            assert k == 0
            return
        rotations = [seq[r:] + seq[:r] for r in range(len(seq))]
        assert seq[k:] + seq[:k] == min(rotations)

    def test_canonical_form_is_rotation_invariant(self):
        w = reduce([1, 2, -1, 2], 2)
        forms = set()
        letters = w.letters
        for r in range(len(letters)):
            rotated = letters[r:] + letters[:r]
            forms.add(canonical_cyclic_form(reduce(rotated, 2)))
        assert len(forms) == 1


def least_rotated(seq):
    k = least_rotation(seq)
    return seq[k:] + seq[:k]


# short sequences over two letters, often proper powers
powers_st = st.builds(
    lambda root, e: tuple(root) * e,
    st.lists(st.sampled_from((1, 2)), max_size=4),
    st.integers(min_value=1, max_value=4),
)


def kmp_primitive_root(seq):
    """The Knuth–Morris–Pratt version ``primitive_root`` replaced: the least
    period n − border is the root's length when it divides n, and otherwise
    (Fine–Wilf) the sequence is its own root."""
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


def thue_morse(length):
    """The Thue–Morse word over letters 1 and 2, ``length`` a power of two."""
    t = (1,)
    while len(t) < length:
        t += tuple(3 - x for x in t)
    return t


class TestPrimitiveRoot:
    @given(st.one_of(powers_st, st.lists(st.integers(-3, 3), max_size=96).map(tuple)))
    @settings(max_examples=300)
    def test_matches_kmp(self, seq):
        assert primitive_root(seq) == kmp_primitive_root(seq)

    # 1, primes, prime powers and mixed composites such as 2⁴·3²
    @pytest.mark.parametrize("length", [1, 2, 3, 13, 97, 8, 27, 49, 1024, 12, 144, 210, 720])
    def test_powers_match_kmp(self, length):
        rng = random.Random(length)
        for e in (d for d in range(1, length + 1) if length % d == 0):
            root = tuple(rng.choice((1, 2, -1)) for _ in range(length // e))
            seq = root * e
            assert primitive_root(seq) == kmp_primitive_root(seq)
            # a near miss: one letter changed, and a rotation of the power
            i = rng.randrange(length)
            for near in (seq[:i] + (3,) + seq[i + 1 :], seq[i:] + seq[:i]):
                assert primitive_root(near) == kmp_primitive_root(near)

    def test_thue_morse_iterate(self):
        t = thue_morse(65_536)
        assert primitive_root(t) == kmp_primitive_root(t) == (65_536, 1)
        assert primitive_root(t * 3) == kmp_primitive_root(t * 3) == (65_536, 3)
        half = t[:32_768]
        assert primitive_root(half * 2) == (32_768, 2)

    def test_accepts_lists(self):
        assert primitive_root([1, 2] * 6) == (2, 6)

    @given(st.one_of(powers_st, st.lists(st.integers(-2, 2), max_size=16).map(tuple)))
    def test_against_bruteforce(self, seq):
        n = len(seq)
        if not n:
            assert primitive_root(seq) == (0, 0)
            return
        period = min(d for d in range(1, n + 1) if n % d == 0 and seq == seq[:d] * (n // d))
        assert primitive_root(seq) == (period, n // period)

    def test_examples(self):
        assert primitive_root((1,)) == (1, 1)
        assert primitive_root((1, 2, 1, 2, 1, 2)) == (2, 3)
        assert primitive_root((1, 2, 1, 2, 1)) == (5, 1)  # period 2, not a power
        assert primitive_root((1, 1, 2, 1, 1, 2)) == (3, 2)

    @given(
        powers_st,
        powers_st,
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=3),
    )
    def test_rotation_of_power_iff_roots_match(self, p, q, shift, d, m):
        if m:  # p a power of q, so that both answers occur
            p = q * m
        if p:
            shift %= len(p)
            p = p[shift:] + p[:shift]
        (tp, ep), (tq, eq) = primitive_root(p), primitive_root(q)
        by_roots = (
            tp == tq and ep == d * eq and least_rotated(p[:tp]) == least_rotated(q[:tq])
        )
        assert cyclic_paths_equal(p, q * d) == by_roots


class TestWordBasics:
    def test_word_rejects_unreduced(self):
        with pytest.raises(ValueError):
            Word((1, -1), 2)

    def test_word_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            Word((1,), 0)

    @given(word_st)
    def test_inverse_involution(self, w):
        assert w.inverse().inverse() == w
        assert multiply(w, w.inverse()).is_empty()


class TestEndomorphism:
    def test_compose_order(self):
        # e1: a->ab, b->b ; e2: a->a, b->ba.  (e1∘e2)(a) = e1(a) = ab.
        e1 = Endomorphism(2, (reduce([1, 2], 2), reduce([2], 2)))
        e2 = Endomorphism(2, (reduce([1], 2), reduce([2, 1], 2)))
        comp = e1.compose(e2)
        assert comp.images[0].letters == (1, 2)
        assert comp.images[1].letters == (2, 1, 2)

    def test_power(self):
        e = Endomorphism(2, (reduce([1, 2], 2), reduce([2, 1], 2)))
        assert e.power(0) == Endomorphism.identity(2)
        assert e.power(1) == e
        assert e.power(3) == e.compose(e).compose(e)

    def test_power_composes_only_what_it_uses(self, monkeypatch):
        e = Endomorphism(2, (reduce([1, 2], 2), reduce([1], 2)))  # Fibonacci
        iterated = [Endomorphism.identity(2)]
        for _ in range(16):
            iterated.append(e.compose(iterated[-1]))
        calls = []
        real = Endomorphism.compose

        def counted(self, other):
            calls.append(1)
            return real(self, other)

        monkeypatch.setattr(Endomorphism, "compose", counted)
        for k in range(1, 17):
            calls.clear()
            assert e.power(k) == iterated[k]
            # one squaring per bit below the top, one product per set bit
            assert len(calls) == k.bit_length() - 1 + bin(k).count("1")

    @given(word_st)
    def test_power_matches_iterated_application(self, w):
        e = Endomorphism(2, (reduce([1, 2], 2), reduce([2, 1], 2)))
        assert e.power(3)(w) == e(e(e(w)))

    def test_rejects_empty_image(self):
        with pytest.raises(ValueError):
            Endomorphism(2, (reduce([1, -1], 2), reduce([2], 2)))


class TestLetterSyntax:
    def test_parse(self):
        assert word_from_string("aB", 2).letters == (1, -2)

    def test_parse_reduces(self):
        assert word_from_string("aA", 2).letters == ()

    def test_parse_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            word_from_string("c", 2)
        with pytest.raises(ValueError):
            word_from_string("a1", 2)

    def test_format(self):
        assert word_to_string(reduce([1, -2], 2)) == "aB"

    @given(word_st)
    def test_roundtrip(self, w):
        assert word_from_string(word_to_string(w), 2) == w
