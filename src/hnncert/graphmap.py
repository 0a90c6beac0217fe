"""Rose self-maps as endomorphism representatives.

The graph is the rose: one vertex and ``num_edges`` loops of length 1, edge
``i`` standing for the generator a_i.  A signed id ``+i`` / ``-i`` is the
edge traversed forwards / backwards, paths are tuples of signed ids, and a
path's length is its number of edges.  A :class:`GraphMap` sends each edge
to a nonempty tightened edge-path.

The module provides tightening, loop images, transition matrices and their
Perron–Frobenius data, and turn legality (train-track verification,
immersion tests).  All arithmetic is exact integer arithmetic; only the
reported eigenvalue is rounded to a float.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count
from operator import mul
from typing import Optional, Sequence

from .words import Endomorphism, cyclic_core, free_reduce, least_rotation

Path = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MarkedGraph:
    """The rose with ``num_edges`` unit-length loops at its one vertex."""

    num_edges: int

    def directions(self) -> tuple[int, ...]:
        """All signed edge ids."""
        return tuple(
            s for i in range(1, self.num_edges + 1) for s in (i, -i)
        )


def rose(rank: int) -> MarkedGraph:
    """The rose with ``rank`` unit-length loops; edge i ↔ generator a_i."""
    return MarkedGraph(rank)


def path_length(g: MarkedGraph, p: Path) -> int:
    return len(p)


def _check_edges(g: MarkedGraph, p: Sequence[int]) -> None:
    """Raise unless every entry of ``p`` is a signed edge id of ``g``; on
    the rose every such sequence is composable."""
    if p and (max(p) > g.num_edges or min(p) < -g.num_edges or 0 in p):
        bad = next(s for s in p if not 0 < abs(s) <= g.num_edges)
        raise ValueError(f"no edge {bad}")


def tighten_path(g: MarkedGraph, p: Sequence[int]) -> Path:
    """Cancel adjacent edge–reverse-edge pairs until none remain.

    Raises on an entry that is not an edge of ``g``.  The result is
    homotopic rel the vertex to ``p``.
    """
    _check_edges(g, p)
    return free_reduce(p)


@dataclass(frozen=True)
class GraphMap:
    """A rose self-map: the vertex to itself, edges to tight nonempty paths.

    ``domain`` and ``codomain`` must be the same rose, and ``vertex_map``
    must be ``(0,)``, the one vertex's image.
    """

    domain: MarkedGraph
    codomain: MarkedGraph
    vertex_map: tuple[int, ...]
    edge_map: tuple[Path, ...]

    def __post_init__(self) -> None:
        if self.domain != self.codomain:
            raise ValueError("a rose map is a self-map: domain and codomain differ")
        if self.vertex_map != (0,):
            raise ValueError("vertex_map of a rose map must be (0,)")
        if len(self.edge_map) != self.domain.num_edges:
            raise ValueError("edge_map size mismatch")
        for i, p in enumerate(self.edge_map):
            if not p:
                raise ValueError(f"edge {i + 1} has an empty image")
            _check_edges(self.codomain, p)
            for a, b in zip(p, p[1:]):
                if a == -b:
                    raise ValueError(f"image of edge {i + 1} is not tight")

    @cached_property
    def signed_images(self) -> dict[int, Path]:
        """Signed edge id → image path (the reversed path for a reversed
        edge), built once per map; no other key is present."""
        table: dict[int, Path] = {}
        for i, p in enumerate(self.edge_map, 1):
            table[i] = p
            table[-i] = tuple(-x for x in reversed(p))
        return table

    def edge_image(self, s: int) -> Path:
        """Image path of the signed edge ``s`` (reversed path for reversed
        edge); KeyError if ``s`` is no signed edge id."""
        return self.signed_images[s]

    @classmethod
    def from_endomorphism(cls, e: Endomorphism) -> "GraphMap":
        """Rose self-map whose edge images spell the generator images."""
        r = rose(e.rank)
        return cls(r, r, (0,), tuple(w.letters for w in e.images))


def map_path(f: GraphMap, p: Sequence[int]) -> Path:
    """Image of a path in the domain, tightened rel the vertex."""
    _check_edges(f.domain, p)
    return free_reduce(chain.from_iterable(map(f.edge_image, p)))


def _check_immersed_loop(loop: Sequence[int]) -> None:
    if not loop:
        raise ValueError("empty loop")
    for a, b in zip(loop, loop[1:]):
        if a == -b:
            raise ValueError("loop backtracks (not immersed)")
    if loop[0] == -loop[-1] and len(loop) > 1:
        raise ValueError("loop backtracks at the wraparound (not immersed)")


def immersed_loop_image(f: GraphMap, loop: Sequence[int]) -> Path:
    """Image of an immersed loop under an immersion: the concatenation of
    the edge images.  No two (cyclically) consecutive letters cancel, since
    cancelling at a turn needs two directions with one image, so it is
    already tight, and cyclically so when the loop does not backtrack at
    the wraparound.  Tightness is not checked; the letters are mapped
    through :attr:`GraphMap.signed_images` with no Python call per letter,
    and a letter that is no signed edge id (0, or beyond ±rank) raises
    ValueError."""
    table = f.signed_images
    try:
        return tuple(chain.from_iterable(map(table.__getitem__, loop)))
    except KeyError as exc:
        raise ValueError(f"no edge {exc.args[0]}") from None


def map_loop(f: GraphMap, loop: Sequence[int]) -> Path:
    """Cyclically tightened image of a closed immersed free loop.

    When ``f`` is an immersion the loop and its edge ids are checked and
    the image is :func:`immersed_loop_image`, which is already cyclically
    tight; other maps free-reduce the image and then cyclically reduce it.
    """
    _check_immersed_loop(loop)
    if is_immersion(f):
        _check_edges(f.domain, loop)
        return immersed_loop_image(f, loop)
    return cyclic_core(map_path(f, loop))


def cyclic_paths_equal(p: Sequence[int], q: Sequence[int]) -> bool:
    """Equality of cyclic edge-paths up to rotation."""
    p, q = tuple(p), tuple(q)
    if len(p) != len(q):
        return False
    if not p:
        return True
    kp, kq = least_rotation(p), least_rotation(q)
    return p[kp:] + p[:kp] == q[kq:] + q[:kq]


# --- transition matrices ---


def letter_counts(p: Sequence[int], rank: int) -> list[int]:
    """Entry i: number of times edge e_{i+1} appears (either direction) in
    the path ``p``."""
    counts = [0] * rank
    for s in p:
        counts[abs(s) - 1] += 1
    return counts


def transition_matrix(f: GraphMap) -> Matrix:
    """Entry (i, j): number of times edge e_{i+1} appears (either direction)
    in the image of edge e_{j+1}."""
    n = f.domain.num_edges
    return tuple(zip(*(letter_counts(p, n) for p in f.edge_map)))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_power(a: Matrix, k: int) -> Matrix:
    n = len(a)
    result: Matrix = tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def is_irreducible_matrix(a: Matrix) -> bool:
    """True iff the support digraph is strongly connected.

    (For a 1×1 matrix this requires a positive entry, matching the
    eventually-positive-power definition.)  Vertex sets are integer
    bitmasks: bit j of ``rows[i]`` is set when a[i][j] > 0, that is, the
    image of e_j crosses e_i (j feeds i).  The digraph is strongly connected
    iff every edge feeds e_1 and e_1 feeds every edge.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    rows = []
    for row in a:
        mask = 0
        bit = 1
        for x in row:
            if x:
                if x < 0:
                    raise ValueError("matrix has negative entries")
                mask |= bit
            bit <<= 1
        rows.append(mask)
    if n == 1:
        return rows[0] == 1
    everything = (1 << n) - 1
    # the edges that feed e_1: grow a frontier back through the rows
    seen = frontier = 1
    while frontier:
        fed = 0
        while frontier:
            low = frontier & -frontier
            fed |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = fed & ~seen
        seen |= frontier
    if seen != everything:
        return False
    # the edges e_1 feeds: e_i joins once its row meets the set so far
    seen = 1
    grown = True
    while grown:
        grown = False
        for i in range(1, n):
            if not seen >> i & 1 and rows[i] & seen:
                seen |= 1 << i
                grown = True
    return seen == everything


class PowerIterationError(RuntimeError):
    """Raised when the eigenvalue iteration fails to converge; carries the
    last iterate for diagnostics."""

    def __init__(self, message: str, last_iterate: list[int]):
        super().__init__(message)
        self.last_iterate = last_iterate


# a round advances v by B^64, as eight products with B^8 (three squarings)
_PF_STEP_SQUARINGS = 3
_PF_STEP_PRODUCTS = 8
_PF_MAX_ROUNDS = 5000
# then each round squares the step once, so v advances by B^(8·2^k)
_PF_MAX_SQUARINGS = 64
_PF_KEEP_BITS = 128


def _drop_low_bits(xs: Sequence[int], smallest: int) -> Sequence[int]:
    """``xs`` shifted right so that ``smallest`` keeps _PF_KEEP_BITS bits."""
    shift = smallest.bit_length() - _PF_KEEP_BITS
    return [x >> shift for x in xs] if shift > 0 else xs


def pf_eigenvalue(a: Matrix, tol: float = 1e-9) -> float:
    """Perron–Frobenius eigenvalue of an irreducible non-negative matrix.

    Power iteration on the integer matrix B = A + I (primitive when A is
    irreducible).  The stopping rule is the enclosure
    min_i (Bv)_i/v_i ≤ λ(B) ≤ max_i (Bv)_i/v_i, valid for every positive
    integer vector v, so each bound is one correctly rounded division and
    the returned value is within ``tol`` of the true eigenvalue, up to that
    rounding.  v starts at 1 and advances by B^64 per round; B^8 is built
    only when v = 1 does not already decide.  When B's second eigenvalue is
    so close to λ(B) that _PF_MAX_ROUNDS rounds do not decide, each further
    round squares the step (its low bits dropped, so it stays a positive
    near-multiple of a power of B), which closes a gap of relative size ε
    within about log2(1/ε) rounds.  Deterministic given ``tol``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not is_irreducible_matrix(a):
        raise ValueError("matrix is reducible; Perron–Frobenius data undefined")
    b = [list(row) for row in a]
    for i, row in enumerate(b):
        row[i] += 1

    def enclosure(v: list[int]) -> tuple[float, float]:
        ratios = [sum(map(mul, row, v)) / x for row, x in zip(b, v)]
        return min(ratios), max(ratios)

    step: Optional[Matrix] = None
    v = [1] * len(b)
    for _ in range(_PF_MAX_ROUNDS):
        lo, hi = enclosure(v)
        if hi - lo <= tol:
            return (lo + hi) / 2.0 - 1.0
        if step is None:
            step = b
            for _ in range(_PF_STEP_SQUARINGS):
                step = mat_mul(step, step)
        for _ in range(_PF_STEP_PRODUCTS):
            v = [sum(map(mul, row, v)) for row in step]
        # the enclosure holds for every positive v, so dropping low bits
        # bounds the integers without loosening it
        v = _drop_low_bits(v, min(v))
    for _ in range(_PF_MAX_SQUARINGS):
        # entries of a power of a primitive B are positive once the power
        # is large; a zero entry stays zero and is not shifted against
        square = mat_mul(step, step)
        smallest = min(x for row in square for x in row if x)
        step = [_drop_low_bits(row, smallest) for row in square]
        v = [sum(map(mul, row, v)) for row in step]
        v = _drop_low_bits(v, min(v))
        lo, hi = enclosure(v)
        if hi - lo <= tol:
            return (lo + hi) / 2.0 - 1.0
    raise PowerIterationError(f"eigenvalue enclosure did not reach tol={tol}", v)


# --- turns, train tracks, immersions ---


def direction_map(f: GraphMap) -> dict[int, int]:
    """df: signed domain edge -> first signed codomain edge of its image."""
    return {s: f.edge_image(s)[0] for i in range(1, f.domain.num_edges + 1) for s in (i, -i)}


def crossed_turns(f: GraphMap) -> set[frozenset[int]]:
    """Turns taken by the edge images at their interior junctions."""
    out: set[frozenset[int]] = set()
    for p in f.edge_map:
        for a, b in zip(p, p[1:]):
            out.add(frozenset((-a, b)))
    return out


def _turn_orbit_legal(f: GraphMap, turn: frozenset[int]) -> tuple[bool, int]:
    """(legal?, steps to verdict).  The orbit of a turn under df either
    degenerates or repeats a turn; there are finitely many turns, so the
    walk always ends (Bestvina–Handel)."""
    df = direction_map(f)
    a, b = sorted(turn)
    seen = set()
    for step in count(1):
        a, b = df[a], df[b]
        if a == b:
            return False, step
        key = (a, b) if a < b else (b, a)
        if key in seen:
            return True, step
        seen.add(key)


@dataclass(frozen=True)
class TrainTrackVerdict:
    kind: str  # "train_track" | "illegal_turn_found"
    witness: Optional[tuple[int, int]] = None  # degenerating crossed turn
    steps: Optional[int] = None  # iterations to the degeneracy


def is_legal_turn(f: GraphMap, turn: frozenset[int]) -> bool:
    """A turn is legal iff no df-iterate degenerates it (exact orbit check)."""
    if len(turn) != 2:
        raise ValueError("a turn is an unordered pair of distinct directions")
    legal, _ = _turn_orbit_legal(f, turn)
    return legal


def verify_train_track(f: GraphMap) -> TrainTrackVerdict:
    """Train track iff every turn crossed by an edge image is legal; the
    first illegal one in sorted order is the witness.  Exact: each turn's
    orbit is walked until it degenerates or repeats."""
    for turn in sorted(crossed_turns(f), key=sorted):
        legal, steps = _turn_orbit_legal(f, turn)
        if not legal:
            return TrainTrackVerdict("illegal_turn_found", tuple(sorted(turn)), steps)
    return TrainTrackVerdict("train_track")


def is_immersion(f: GraphMap) -> bool:
    """True iff df is injective (and images are tight: enforced on
    construction)."""
    df = direction_map(f)
    return len(set(df.values())) == len(df)


def compose_maps(outer: GraphMap, inner: GraphMap) -> GraphMap:
    """outer ∘ inner (apply ``inner`` first); images tightened eagerly."""
    if inner.codomain != outer.domain:
        raise ValueError("maps are not composable")
    em = tuple(map_path(outer, p) for p in inner.edge_map)
    return GraphMap(inner.domain, outer.codomain, (0,), em)


def iterate_map(f: GraphMap, k: int) -> GraphMap:
    if k < 1:
        raise ValueError("power must be >= 1")
    result = f
    for _ in range(k - 1):
        result = compose_maps(f, result)
    return result


def tighten_cyclic(g: MarkedGraph, loop: Sequence[int]) -> Path:
    """Cyclically tighten a closed path."""
    return cyclic_core(tighten_path(g, loop))


# --- legal-loop sampling ---

LEGAL_LOOP_ATTEMPTS = 400  # loops random_legal_loop draws before it gives up


def random_legal_loop(f: GraphMap, length: int, rng: random.Random) -> Path:
    """A uniform-ish random length-``length`` loop crossing only legal turns
    of ``f`` (including the wraparound turn).

    For immersions every immersed loop is legal, so this samples immersed
    loops; for train track maps the image lengths of legal loops add without
    cancellation.  Each attempt draws its first direction from all
    directions and each next one from the legal successors of the last:
    the directions t ≠ −s with the turn {−s, t} legal, in direction order.
    So the loops drawn depend only on ``f``, ``length`` and the state of
    ``rng``.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    dirs = f.domain.directions()
    immersion = is_immersion(f)  # then every turn is legal
    successors = {
        s: [
            t
            for t in dirs
            if t != -s and (immersion or _turn_orbit_legal(f, frozenset((-s, t)))[0])
        ]
        for s in dirs
    }
    for _ in range(LEGAL_LOOP_ATTEMPTS):
        path = [rng.choice(dirs)]
        for _ in range(length - 1):
            candidates = successors[path[-1]]
            if not candidates:
                break
            path.append(rng.choice(candidates))
        else:
            if path[0] in successors[path[-1]]:
                return tuple(path)
    raise RuntimeError(f"no legal loop of length {length} found")
