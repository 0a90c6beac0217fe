"""Exact arithmetic in the free group F_n.

Letters are nonzero signed integers: ``+i`` is the generator ``a_i`` and
``-i`` its inverse, with ``1 <= i <= rank``.  Words are kept freely reduced
at all times; cyclic words are compared through a canonical rotation of the
cyclically reduced core, so conjugacy is a pure equality check.

A parallel letter syntax (``a``..``z`` lowercase, uppercase = inverse) is
accepted at the I/O boundary only; see :func:`word_from_string`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence


def free_reduce(raw: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter sequence (single left-to-right stack pass)."""
    out: list[int] = []
    for x in raw:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclic_core(letters: Sequence[int]) -> tuple[int, ...]:
    """Cyclically reduce a freely reduced letter sequence: strip each
    inverse pair of first and last letters."""
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return tuple(letters[i:j])


@dataclass(frozen=True)
class Word:
    """A freely reduced word in F_rank.

    Invariants (checked on construction): letters are nonzero, within
    ``±rank``, and contain no adjacent pair ``(x, -x)``.
    """

    letters: tuple[int, ...]
    rank: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        for x in self.letters:
            if x == 0 or abs(x) > self.rank:
                raise ValueError(f"letter {x} out of range for rank {self.rank}")
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError(f"word {self.letters} is not freely reduced")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-x for x in reversed(self.letters)), self.rank)

    def is_empty(self) -> bool:
        return not self.letters


def reduce(raw: Sequence[int], rank: int) -> Word:
    """Return the unique freely reduced form of ``raw`` as a Word.

    Idempotent; raises ValueError on out-of-range letters.
    """
    for x in raw:
        if x == 0 or abs(x) > rank:
            raise ValueError(f"letter {x} out of range for rank {rank}")
    return Word(free_reduce(raw), rank)


def multiply(w1: Word, w2: Word) -> Word:
    if w1.rank != w2.rank:
        raise ValueError("rank mismatch")
    return Word(free_reduce(w1.letters + w2.letters), w1.rank)


def conjugate(g: Word, w: Word) -> Word:
    """Return g · w · g^{-1}, reduced."""
    return multiply(multiply(g, w), g.inverse())


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split ``w = conjugator · core · conjugator^{-1}`` with core cyclically reduced."""
    core = cyclic_core(w.letters)
    trimmed = (len(w.letters) - len(core)) // 2
    return Word(core, w.rank), Word(w.letters[:trimmed], w.rank)


def least_rotation(seq: Sequence[int]) -> int:
    """Index of the lexicographically least rotation (Booth's algorithm, O(L))."""
    if not seq:
        return 0
    s = list(seq) + list(seq)
    n = len(s)
    f = [-1] * n
    k = 0
    for j in range(1, n):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def primitive_root(seq: Sequence[int]) -> tuple[int, int]:
    """``(period, exponent)`` with ``seq == seq[:period] * exponent`` and the
    least such period, by divisor tests on slices.

    The divisors d of n = len(seq) with ``seq`` a power of ``seq[:d]`` are
    exactly the multiples of the root's length r (Fine–Wilf: two such
    divisors below n sum to at most n, so their gcd is one too).  So the
    period starts at n and, for each prime q dividing n, is divided by q
    while the quotient p still has ``seq[p:] == seq[:n - p]``: one
    comparison per division and one failed comparison per prime, O(log n)
    slice comparisons of at most n items each and trial division up to
    √n.  ``()`` gives ``(0, 0)``.
    """
    n = len(seq)
    if not n:
        return 0, 0
    period, rest, q = n, n, 2
    while rest > 1:
        if q * q > rest:
            q = rest
        if rest % q == 0:
            while rest % q == 0:
                rest //= q
            while period % q == 0 and seq[period // q :] == seq[: n - period // q]:
                period //= q
        q += 1
    return period, n // period


def canonical_cyclic_form(w: Word) -> tuple[int, ...]:
    """Canonical representative of the conjugacy class of ``w``.

    The lexicographically least rotation of the cyclically reduced core;
    two words are conjugate iff their canonical forms are equal.
    """
    core, _ = cyclic_reduce(w)
    letters = core.letters
    if not letters:
        return ()
    k = least_rotation(letters)
    return letters[k:] + letters[:k]


def conjugate_in_free_group(w1: Word, w2: Word) -> bool:
    """True iff the cyclic reductions are cyclic rotations of each other."""
    if w1.rank != w2.rank:
        raise ValueError("rank mismatch")
    return canonical_cyclic_form(w1) == canonical_cyclic_form(w2)


@dataclass(frozen=True)
class Endomorphism:
    """An endomorphism of F_rank given by the images of the generators."""

    rank: int
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.rank:
            raise ValueError(
                f"need {self.rank} generator images, got {len(self.images)}"
            )
        for w in self.images:
            if w.rank != self.rank:
                raise ValueError("image rank mismatch")
            if w.is_empty():
                raise ValueError("generator images must be nonempty")

    @classmethod
    def identity(cls, rank: int) -> "Endomorphism":
        return cls(rank, tuple(Word((i,), rank) for i in range(1, rank + 1)))

    def __call__(self, w: Word) -> Word:
        return apply_endo(self, w)

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """Return self ∘ other (apply ``other`` first)."""
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return Endomorphism(self.rank, tuple(self(w) for w in other.images))

    def power(self, k: int) -> "Endomorphism":
        if k < 0:
            raise ValueError("negative power")
        result = Endomorphism.identity(self.rank)
        base = self
        while k:
            if k & 1:
                result = base.compose(result)
            k >>= 1
            if k:
                base = base.compose(base)
        return result

    def max_image_length(self) -> int:
        return max(len(w) for w in self.images)


def apply_endo(e: Endomorphism, w: Word) -> Word:
    """Substitute each letter by its image (inverse image for negative letters)."""
    if e.rank != w.rank:
        raise ValueError("rank mismatch")
    images = e.images
    substituted = chain.from_iterable(
        images[x - 1].letters
        if x > 0
        else tuple(-y for y in reversed(images[-x - 1].letters))
        for x in w.letters
    )
    return Word(free_reduce(substituted), e.rank)


_ORD_A = ord("a")


def word_from_string(s: str, rank: int) -> Word:
    """Parse letter syntax: lowercase = generator, uppercase = inverse.

    ``"aB"`` → word (1, -2).  Whitespace is ignored; the empty string is the
    empty word.  Only meaningful for rank <= 26.
    """
    letters: list[int] = []
    for c in s:
        if c.isspace():
            continue
        if not c.isalpha() or not c.isascii():
            raise ValueError(f"bad letter {c!r} in word {s!r}")
        i = ord(c.lower()) - _ORD_A + 1
        if i > rank:
            raise ValueError(f"letter {c!r} out of range for rank {rank}")
        letters.append(i if c.islower() else -i)
    return reduce(letters, rank)


def word_to_string(w: Word) -> str:
    if w.rank > 26 and any(abs(x) > 26 for x in w.letters):
        raise ValueError("letter syntax only covers ranks up to 26")
    return "".join(
        chr(_ORD_A + x - 1) if x > 0 else chr(_ORD_A + (-x) - 1).upper()
        for x in w.letters
    )
