"""Graph self-maps as endomorphism representatives.

A :class:`MarkedGraph` is a finite metric graph (edge lengths are exact
rationals, default 1).  Edges carry ids ``1..E``; a signed id ``+i`` / ``-i``
is the edge traversed forwards / backwards, and paths are tuples of signed
ids.  A :class:`GraphMap` sends vertices to vertices and each edge to a
nonempty tightened edge-path.

The module provides tightening, loop images, transition matrices and their
Perron–Frobenius data, turn legality (train-track verification, immersion
tests), and bilipschitz change-of-marking constants.  Everything except the
eigenvalue routine is exact integer/rational arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .words import Endomorphism, cyclic_core, free_reduce, least_rotation

Path = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MarkedGraph:
    """Finite metric graph without valence-one vertices.

    ``edge_endpoints[i]`` is the (source, target) pair of edge ``i+1`` in its
    positive orientation; ``lengths[i]`` its length.
    """

    num_vertices: int
    edge_endpoints: tuple[tuple[int, int], ...]
    lengths: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.num_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.lengths) != len(self.edge_endpoints):
            raise ValueError("one length per edge required")
        val = [0] * self.num_vertices
        for u, v in self.edge_endpoints:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError("edge endpoint out of range")
            val[u] += 1
            val[v] += 1
        if any(x == 1 for x in val):
            raise ValueError("valence-one vertex: not a core graph")
        for l in self.lengths:
            if l <= 0:
                raise ValueError("edge lengths must be positive")

    @property
    def num_edges(self) -> int:
        return len(self.edge_endpoints)

    def src(self, s: int) -> int:
        u, v = self.edge_endpoints[abs(s) - 1]
        return u if s > 0 else v

    def dst(self, s: int) -> int:
        u, v = self.edge_endpoints[abs(s) - 1]
        return v if s > 0 else u

    def edge_length(self, s: int) -> Fraction:
        return self.lengths[abs(s) - 1]

    def directions(self) -> tuple[int, ...]:
        """All signed edge ids."""
        return tuple(
            s for i in range(1, self.num_edges + 1) for s in (i, -i)
        )


def rose(rank: int) -> MarkedGraph:
    """The rose with ``rank`` unit-length loops; edge i ↔ generator a_i."""
    return MarkedGraph(
        1, tuple((0, 0) for _ in range(rank)), tuple(Fraction(1) for _ in range(rank))
    )


def path_length(g: MarkedGraph, p: Path) -> Fraction:
    return sum((g.edge_length(s) for s in p), Fraction(0))


def _check_composable(g: MarkedGraph, p: Sequence[int]) -> None:
    """Raise unless ``p`` is a sequence of signed edge ids of ``g``, each
    starting where the previous one ends."""
    prev_end: Optional[int] = None
    for s in p:
        if abs(s) < 1 or abs(s) > g.num_edges:
            raise ValueError(f"no edge {s}")
        if prev_end is not None and g.src(s) != prev_end:
            raise ValueError("path is not composable")
        prev_end = g.dst(s)


def tighten_path(g: MarkedGraph, p: Sequence[int]) -> Path:
    """Cancel adjacent edge–reverse-edge pairs until none remain.

    Raises on a non-composable sequence.  The result is homotopic rel
    endpoints to ``p`` (an empty result sits at the source of ``p``).
    """
    _check_composable(g, p)
    return free_reduce(p)


@dataclass(frozen=True)
class GraphMap:
    """A map of marked graphs: vertices to vertices, edges to tight nonempty paths."""

    domain: MarkedGraph
    codomain: MarkedGraph
    vertex_map: tuple[int, ...]
    edge_map: tuple[Path, ...]

    def __post_init__(self) -> None:
        if len(self.vertex_map) != self.domain.num_vertices:
            raise ValueError("vertex_map size mismatch")
        if any(not (0 <= v < self.codomain.num_vertices) for v in self.vertex_map):
            raise ValueError("vertex_map target out of range")
        if len(self.edge_map) != self.domain.num_edges:
            raise ValueError("edge_map size mismatch")
        for i, p in enumerate(self.edge_map):
            if not p:
                raise ValueError(f"edge {i + 1} has an empty image")
            for a, b in zip(p, p[1:]):
                if a == -b:
                    raise ValueError(f"image of edge {i + 1} is not tight")
                if self.codomain.dst(a) != self.codomain.src(b):
                    raise ValueError(f"image of edge {i + 1} is not composable")
            u, v = self.domain.edge_endpoints[i]
            if self.codomain.src(p[0]) != self.vertex_map[u]:
                raise ValueError(f"image of edge {i + 1} starts at the wrong vertex")
            if self.codomain.dst(p[-1]) != self.vertex_map[v]:
                raise ValueError(f"image of edge {i + 1} ends at the wrong vertex")

    def edge_image(self, s: int) -> Path:
        """Image path of the signed edge ``s`` (reversed path for reversed edge)."""
        p = self.edge_map[abs(s) - 1]
        return p if s > 0 else tuple(-x for x in reversed(p))

    def is_self_map(self) -> bool:
        return self.domain == self.codomain

    @classmethod
    def from_endomorphism(cls, e: Endomorphism) -> "GraphMap":
        """Rose self-map whose edge images spell the generator images."""
        r = rose(e.rank)
        return cls(r, r, (0,), tuple(w.letters for w in e.images))


def map_path(f: GraphMap, p: Sequence[int]) -> Path:
    """Image of a composable path in the domain, tightened rel endpoints."""
    _check_composable(f.domain, p)
    return free_reduce(chain.from_iterable(map(f.edge_image, p)))


def _check_closed_loop(g: MarkedGraph, loop: Sequence[int], based: bool) -> None:
    if not loop:
        raise ValueError("empty loop")
    for a, b in zip(loop, loop[1:]):
        if g.dst(a) != g.src(b):
            raise ValueError("loop is not composable")
        if a == -b:
            raise ValueError("loop backtracks (not immersed)")
    if g.dst(loop[-1]) != g.src(loop[0]):
        raise ValueError("path is open, not a loop")
    if not based and loop[0] == -loop[-1] and len(loop) > 1:
        raise ValueError("loop backtracks at the wraparound (not immersed)")


def map_loop(f: GraphMap, loop: Sequence[int], based: bool = False) -> Path:
    """Tightened image of a closed immersed loop.

    Free loops (default) are tightened cyclically; based loops are tightened
    rel the basepoint only, and may backtrack there.
    """
    _check_closed_loop(f.domain, loop, based)
    image = map_path(f, loop)
    return image if based else cyclic_core(image)


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


def transition_matrix(f: GraphMap) -> Matrix:
    """Entry (i, j): number of times edge e_{i+1} appears (either direction)
    in the image of edge e_{j+1}."""
    if not f.is_self_map():
        raise ValueError("transition matrix needs a self-map")
    n = f.domain.num_edges
    cols = []
    for j in range(n):
        col = [0] * n
        for s in f.edge_map[j]:
            col[abs(s) - 1] += 1
        cols.append(col)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m, k = len(a), len(b[0]), len(b)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


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
    eventually-positive-power definition.)
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    if any(x < 0 for row in a for x in row):
        raise ValueError("matrix has negative entries")
    if n == 1:
        return a[0][0] > 0

    def reachable(adj: list[list[int]]) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    fwd: list[list[int]] = [[] for _ in range(n)]
    bwd: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if a[i][j] > 0:
                # image of e_j crosses e_i: j feeds i
                fwd[j].append(i)
                bwd[i].append(j)
    return reachable(fwd) and reachable(bwd)


class PowerIterationError(RuntimeError):
    """Raised when the eigenvalue iteration fails to converge; carries the
    last iterate for diagnostics."""

    def __init__(self, message: str, last_iterate: list[float]):
        super().__init__(message)
        self.last_iterate = last_iterate


_PF_SQUARINGS = 6
_PF_MAX_ROUNDS = 5000


def pf_eigenvalue(a: Matrix, tol: float = 1e-9) -> float:
    """Perron–Frobenius eigenvalue of an irreducible non-negative matrix.

    Power iteration on B = A + I (primitive when A is irreducible), sped up
    by iterating a normalized B^(2^6); the stopping rule is the enclosure
    min_i (Bv)_i/v_i ≤ λ(B) ≤ max_i (Bv)_i/v_i, valid for every positive v,
    so the returned value is within ``tol`` of the true eigenvalue (up to
    float64 rounding).  Deterministic given ``tol``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not is_irreducible_matrix(a):
        raise ValueError("matrix is reducible; Perron–Frobenius data undefined")
    n = len(a)
    b = np.array(a, dtype=np.float64) + np.eye(n)
    m = b / b.max()
    for _ in range(_PF_SQUARINGS):
        m = m @ m
        m = m / m.max()
    v = np.ones(n)
    for _ in range(_PF_MAX_ROUNDS):
        ratios = (b @ v) / v
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= tol:
            return (lo + hi) / 2.0 - 1.0
        v = m @ v
        v = v / v.max()
    raise PowerIterationError(
        f"eigenvalue enclosure did not reach tol={tol}", v.tolist()
    )


# --- turns, train tracks, immersions ---


def direction_map(f: GraphMap) -> dict[int, int]:
    """df: signed domain edge -> first signed codomain edge of its image."""
    return {s: f.edge_image(s)[0] for i in range(1, f.domain.num_edges + 1) for s in (i, -i)}


def turns_at_vertices(g: MarkedGraph) -> list[frozenset[int]]:
    """All unordered pairs of distinct directions sharing a source vertex."""
    by_vertex: dict[int, list[int]] = {}
    for s in g.directions():
        by_vertex.setdefault(g.src(s), []).append(s)
    turns = []
    for dirs in by_vertex.values():
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                turns.append(frozenset((dirs[i], dirs[j])))
    return turns


def crossed_turns(f: GraphMap) -> set[frozenset[int]]:
    """Turns taken by the edge images at their interior junctions."""
    out: set[frozenset[int]] = set()
    for p in f.edge_map:
        for a, b in zip(p, p[1:]):
            out.add(frozenset((-a, b)))
    return out


def _turn_orbit_legal(
    f: GraphMap, turn: frozenset[int], depth_cap: Optional[int]
) -> tuple[bool, Optional[int]]:
    """(legal?, steps to verdict); None steps when the cap was hit."""
    df = direction_map(f)
    cap = depth_cap if depth_cap is not None else (2 * f.domain.num_edges) ** 2 + 1
    a, b = sorted(turn)
    seen = set()
    for step in range(1, cap + 1):
        a, b = df[a], df[b]
        if a == b:
            return False, step
        key = (a, b) if a < b else (b, a)
        if key in seen:
            return True, step
        seen.add(key)
    return True, None


@dataclass(frozen=True)
class TrainTrackVerdict:
    kind: str  # "train_track" | "illegal_turn_found" | "inconclusive"
    witness: Optional[tuple[int, int]] = None  # degenerating crossed turn
    steps: Optional[int] = None  # iterations to the degeneracy


def is_legal_turn(f: GraphMap, turn: frozenset[int], depth_cap: Optional[int] = None) -> bool:
    """A turn is legal iff no df-iterate degenerates it (exact orbit check)."""
    if len(turn) != 2:
        raise ValueError("a turn is an unordered pair of distinct directions")
    a, b = turn
    if f.domain.src(a) != f.domain.src(b):
        raise ValueError("turn directions must share a vertex")
    legal, _ = _turn_orbit_legal(f, turn, depth_cap)
    return legal


def verify_train_track(f: GraphMap, depth_cap: Optional[int] = None) -> TrainTrackVerdict:
    """Train track iff every turn crossed by an edge image is legal.

    The turn-orbit computation is exact (finite turn set, cycle detection);
    ``depth_cap`` only guards pathological inputs, returning ``inconclusive``
    if hit before a verdict.
    """
    if not f.is_self_map():
        raise ValueError("train-track verification needs a self-map")
    hit_cap = False
    for turn in sorted(crossed_turns(f), key=sorted):
        legal, steps = _turn_orbit_legal(f, turn, depth_cap)
        if not legal:
            return TrainTrackVerdict("illegal_turn_found", tuple(sorted(turn)), steps)
        if steps is None:
            hit_cap = True
    if hit_cap:
        return TrainTrackVerdict("inconclusive")
    return TrainTrackVerdict("train_track")


def is_immersion(f: GraphMap) -> bool:
    """True iff df is injective at every vertex (and images are tight: enforced
    on construction)."""
    df = direction_map(f)
    by_vertex: dict[int, set[int]] = {}
    for s, d in df.items():
        v = f.domain.src(s)
        if d in by_vertex.setdefault(v, set()):
            return False
        by_vertex[v].add(d)
    return True


def compose_maps(outer: GraphMap, inner: GraphMap) -> GraphMap:
    """outer ∘ inner (apply ``inner`` first); images tightened eagerly."""
    if inner.codomain != outer.domain:
        raise ValueError("maps are not composable")
    vm = tuple(outer.vertex_map[v] for v in inner.vertex_map)
    em = tuple(map_path(outer, p) for p in inner.edge_map)
    return GraphMap(inner.domain, outer.codomain, vm, em)


def iterate_map(f: GraphMap, k: int) -> GraphMap:
    if not f.is_self_map():
        raise ValueError("iteration needs a self-map")
    if k < 1:
        raise ValueError("power must be >= 1")
    result = f
    for _ in range(k - 1):
        result = compose_maps(f, result)
    return result


# --- bilipschitz change-of-marking constants ---


def stretch_factor(f: GraphMap) -> Fraction:
    """max over edges of image length / edge length."""
    return max(
        path_length(f.codomain, f.edge_map[i]) / f.domain.lengths[i]
        for i in range(f.domain.num_edges)
    )


def bilipschitz_constant(h: GraphMap, h_inverse: GraphMap) -> Fraction:
    """K = max(σ(h), σ(h⁻¹)) with σ the max edge stretch.

    For homotopy-inverse pairs, K⁻¹·l(h(α)) ≤ l(α) ≤ K·l(h(α)) for every
    immersed loop α.  That h_inverse really is a homotopy inverse is the
    caller's responsibility; see :func:`check_homotopy_inverse`.
    """
    if h.codomain != h_inverse.domain or h.domain != h_inverse.codomain:
        raise ValueError("maps do not pair up as inverses")
    return max(stretch_factor(h), stretch_factor(h_inverse))


def check_homotopy_inverse(h: GraphMap, h_inverse: GraphMap, loops: Sequence[Path]) -> bool:
    """Spot-check h_inverse ∘ h ≃ id on sample loops (up to free homotopy)."""
    for loop in loops:
        once = map_loop(h, loop)
        if not once:
            return False  # an essential loop was crushed
        back = map_loop(h_inverse, once)
        if not cyclic_paths_equal(back, loop):
            return False
    return True


def tighten_cyclic(g: MarkedGraph, loop: Sequence[int]) -> Path:
    """Cyclically tighten a closed path."""
    p = tighten_path(g, loop)
    if p and g.dst(p[-1]) != g.src(p[0]):
        raise ValueError("path is open, not a loop")
    return cyclic_core(p)


# --- legal-loop sampling ---


def random_legal_loop(
    f: GraphMap, length: int, rng: random.Random, max_attempts: int = 400
) -> Path:
    """A uniform-ish random length-``length`` loop crossing only legal turns
    of ``f`` (including the wraparound turn).

    For immersions every immersed loop is legal, so this samples immersed
    loops; for train track maps the image lengths of legal loops add without
    cancellation.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    g = f.domain
    dirs = list(g.directions())
    legal_cache: dict[frozenset[int], bool] = {}

    def legal(turn: frozenset[int]) -> bool:
        if len(turn) < 2:
            return False
        if turn not in legal_cache:
            legal_cache[turn] = _turn_orbit_legal(f, turn, None)[0]
        return legal_cache[turn]

    for _ in range(max_attempts):
        s = rng.choice(dirs)
        path = [s]
        ok = True
        for _ in range(length - 1):
            candidates = [
                t
                for t in dirs
                if g.src(t) == g.dst(path[-1]) and t != -path[-1] and legal(frozenset((-path[-1], t)))
            ]
            if not candidates:
                ok = False
                break
            path.append(rng.choice(candidates))
        if not ok:
            continue
        if g.dst(path[-1]) != g.src(path[0]):
            continue
        wrap = frozenset((-path[-1], path[0]))
        if len(wrap) < 2 or not legal(wrap):
            continue
        return tuple(path)
    raise RuntimeError(f"no legal loop of length {length} found")
