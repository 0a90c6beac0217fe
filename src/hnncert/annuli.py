"""Annuli over a tuple of graph self-maps: words, rings, and flaring checks.

An annulus word spells, letter by letter, which map relates each ring of a
thin annulus to the next: the letter +k sends ring t to ring t+1 through the
k-th map, the letter -k says ring t is the image of ring t+1.  Admissible
words (all inverse letters before all positive ones) are exactly the shapes
realized by the explicit ring constructions here, so auditing constructed
annuli covers the flaring hypothesis for thin annuli in general.

Annuli live on unit-length roses, so a ring's length is its number of
edges: an exact integer, and no floating point enters any verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .disjointness import preimage_in_image
from .graphmap import (
    GraphMap,
    MarkedGraph,
    Path,
    cyclic_paths_equal,
    map_loop,
    random_legal_loop,
    tighten_cyclic,
)
from .words import Endomorphism, Word, cyclic_reduce

Factor = Union[int, Fraction]


@dataclass(frozen=True)
class AnnulusWord:
    """A reduced word in the letters ±1..±rank, one per map."""

    letters: tuple[int, ...]
    rank: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("word rank must be >= 1")
        for x in self.letters:
            if x == 0 or abs(x) > self.rank:
                raise ValueError(f"letter {x} out of range")
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError("word is not reduced")

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "AnnulusWord":
        return AnnulusWord(tuple(-x for x in reversed(self.letters)), self.rank)


def is_admissible(w: Union[AnnulusWord, Sequence[int]]) -> bool:
    """Reduced with every inverse letter before every positive letter.

    Equivalently: no positive letter is immediately followed by an inverse
    one, so the word is an (inverse block)(positive block).  Raw letter
    sequences are accepted so that unreduced candidates can be reported
    inadmissible rather than rejected outright.
    """
    letters = w.letters if isinstance(w, AnnulusWord) else tuple(w)
    if any(x == 0 for x in letters):
        raise ValueError("letters must be nonzero")
    if any(a == -b for a, b in zip(letters, letters[1:])):
        return False
    return all(not (a > 0 and b < 0) for a, b in zip(letters, letters[1:]))


@dataclass(frozen=True)
class Annulus:
    """A ring sequence over a rose together with its word.

    ``rings[t]`` and ``rings[t+1]`` are related through the map named by
    ``word.letters[t]``.  ``thinness`` bounds the connecting paths; ring
    constructions here yield 1-thin annuli.  Rose edges have length 1, so
    ring lengths are edge counts.
    """

    graph: MarkedGraph
    rings: tuple[Path, ...]
    word: AnnulusWord
    thinness: int = 1

    def __post_init__(self) -> None:
        if len(self.rings) != len(self.word.letters) + 1:
            raise ValueError("ring count must be word length + 1")
        if self.thinness < 1:
            raise ValueError("thinness bound must be >= 1")

    def ring_lengths(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rings)

    @property
    def girth(self) -> int:
        """Length of the middle ring."""
        return len(self.rings[len(self.rings) // 2])


def _common_graph(maps: Sequence[GraphMap]) -> MarkedGraph:
    if not maps:
        raise ValueError("need at least one map")
    g = maps[0].domain
    if any(f.domain != g for f in maps):
        raise ValueError("maps must act on one common rose")
    return g


def _as_endomorphism(f: GraphMap) -> Endomorphism:
    rank = f.domain.num_edges
    return Endomorphism(rank, tuple(Word(p, rank) for p in f.edge_map))


def _preimage_ring(f: GraphMap, power: int, ring: Path) -> Optional[Path]:
    endo = _as_endomorphism(f)
    rank = f.domain.num_edges
    alpha = cyclic_reduce(Word(tuple(ring), rank))[0]
    beta = preimage_in_image(endo, power, alpha)
    return None if beta is None else beta.letters


def build_annulus(
    alpha: Sequence[int],
    w: AnnulusWord,
    maps: Sequence[GraphMap],
) -> Annulus:
    """Rings of the thin annulus over ``w`` starting at the loop ``alpha``.

    Every ring is a free loop, cyclically tightened.  Positive letters push
    the current ring forward through the named map; an initial inverse
    block is resolved by preimages (one joint preimage for a single-map
    block, letter by letter otherwise).
    """
    g = _common_graph(maps)
    if w.rank != len(maps):
        raise ValueError("word rank must match the number of maps")
    if not is_admissible(w):
        raise ValueError("word is not admissible")
    start = tighten_cyclic(g, alpha)
    if not start:
        raise ValueError("the starting loop is trivial")

    neg = [x for x in w.letters if x < 0]
    pos = w.letters[len(neg) :]
    rings: list[Path] = [start]
    if neg:
        block_maps = {-x for x in neg}
        if len(block_maps) == 1:
            k = next(iter(block_maps))
            s = len(neg)
            beta = _preimage_ring(maps[k - 1], s, start)
            if beta is None:
                raise ValueError(
                    f"no preimage of the starting loop under map {k} at power {s}"
                )
            chain = [beta]
            for _ in range(s - 1):
                chain.append(map_loop(maps[k - 1], chain[-1]))
            rings.extend(reversed(chain))
        else:
            for pos_idx, x in enumerate(neg):
                k = -x
                beta = _preimage_ring(maps[k - 1], 1, rings[-1])
                if beta is None:
                    raise ValueError(
                        f"no preimage under map {k} at position {pos_idx}"
                    )
                rings.append(beta)
    for x in pos:
        rings.append(map_loop(maps[x - 1], rings[-1]))
    return Annulus(g, tuple(rings), w)


def check_ring_relations(a: Annulus, maps: Sequence[GraphMap]) -> bool:
    """Each consecutive ring pair is related through its letter's map,
    exactly as free loops (cyclic equality of tightened images)."""
    for t, x in enumerate(a.word.letters):
        f = maps[abs(x) - 1]
        src_ring, dst_ring = (
            (a.rings[t], a.rings[t + 1]) if x > 0 else (a.rings[t + 1], a.rings[t])
        )
        image = map_loop(f, tighten_cyclic(a.graph, src_ring))
        if not cyclic_paths_equal(image, tighten_cyclic(a.graph, dst_ring)):
            return False
    return True


def check_lambda_hyperbolic(a: Annulus, lam: Factor, n: int) -> bool:
    """True iff lam·(middle ring length) ≤ max(end ring lengths).

    The annulus must have length n, i.e. 2n+1 rings.  Exact arithmetic.
    """
    if n < 1:
        raise ValueError("length must be >= 1")
    if len(a.rings) != 2 * n + 1:
        raise ValueError(f"annulus has {len(a.rings)} rings, expected {2 * n + 1}")
    lengths = a.ring_lengths()
    return Fraction(lam) * lengths[n] <= max(lengths[0], lengths[-1])


@dataclass(frozen=True)
class LoopSample:
    count: int = 100
    max_length: int = 20
    seed: int = 0


@dataclass(frozen=True)
class AuditViolation:
    word: AnnulusWord
    alpha: Path
    lengths: tuple[int, ...]


@dataclass(frozen=True)
class HyperbolicityAuditReport:
    words: tuple[AnnulusWord, ...]
    checked: int
    violations: tuple[AuditViolation, ...]
    note: str

    @property
    def clean(self) -> bool:
        return not self.violations


def length_two_admissible_words(r: int) -> list[AnnulusWord]:
    """All admissible length-2 words up to orientation reversal."""
    out = []
    for j in range(1, r + 1):
        for k in range(1, r + 1):
            out.append(AnnulusWord((j, k), r))
            if j != k:
                out.append(AnnulusWord((-j, k), r))
        out.append(AnnulusWord((-j, -j), r))
    return out


_AUDIT_NOTE = (
    "thin annulus words are admissible and admissible words are realized "
    "by the ring construction, so constructed annuli cover the flaring "
    "hypothesis"
)


def audit_31_hyperbolicity(
    maps: Sequence[GraphMap],
    loop_sample: LoopSample = LoopSample(),
) -> HyperbolicityAuditReport:
    """Check 3·girth ≤ max(end lengths) over all admissible length-2 words.

    Loops are sampled legally for the first relevant map; words with a
    leading inverse letter sample from that map's image so the preimage ring
    exists.  Violations signal an upstream certification bug and are
    reported with full witnesses.  The audit covers thin annuli in general
    because every thin annulus word is admissible and every admissible word
    is realized by the ring construction.
    """
    _common_graph(maps)
    words = length_two_admissible_words(len(maps))
    rng = random.Random(loop_sample.seed)
    violations = []
    checked = 0
    for word in words:
        first = word.letters[0]
        f_first = maps[abs(first) - 1]
        for _ in range(loop_sample.count):
            length = rng.randint(1, loop_sample.max_length)
            try:
                seed_loop = random_legal_loop(f_first, length, rng)
            except RuntimeError:
                continue
            if first > 0:
                alpha = seed_loop
            else:
                # land inside the image so the inverse block resolves
                power = sum(1 for x in word.letters if x < 0)
                alpha = seed_loop
                for _ in range(power):
                    alpha = map_loop(f_first, alpha)
            annulus = build_annulus(alpha, word, maps)
            checked += 1
            if not check_lambda_hyperbolic(annulus, 3, 1):
                violations.append(
                    AuditViolation(word, tuple(alpha), annulus.ring_lengths())
                )
    return HyperbolicityAuditReport(
        tuple(words), checked, tuple(violations), _AUDIT_NOTE
    )


@dataclass(frozen=True)
class FlaringVerdict:
    kind: str  # "flares_with" | "thin_girth" | "violation"
    lam: Optional[Fraction] = None
    witness: Optional[tuple[int, ...]] = None


def flaring_audit(a: Annulus, rho: int) -> FlaringVerdict:
    """Flaring with factor 2 for a length-1 annulus of girth above 2·rho.

    Girth ≤ 2·rho makes no claim (thin_girth); otherwise the expanding end
    must reach twice the girth, else the certified expansion was violated.
    """
    if rho < 1:
        raise ValueError("thinness bound must be >= 1")
    if not is_admissible(a.word):
        raise ValueError("word is not admissible")
    if len(a.rings) != 3:
        raise ValueError("flaring audit needs a length-1 annulus (3 rings)")
    if a.thinness > rho:
        raise ValueError("annulus is not thin enough for this bound")
    lengths = a.ring_lengths()
    girth = lengths[1]
    if girth <= 2 * rho:
        return FlaringVerdict("thin_girth")
    if max(lengths[0], lengths[-1]) >= 2 * girth:
        return FlaringVerdict("flares_with", lam=Fraction(2))
    return FlaringVerdict("violation", witness=lengths)
