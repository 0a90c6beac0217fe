"""Subgroup graphs of F_n via Stallings folding.

A :class:`LabeledGraph` stores each undirected edge once as a triple
``(source, target, label)`` with ``label`` in ``1..rank``; the reverse
orientation (carrying the negated label) is implicit.  Folded based graphs
recognize subgroup membership by walking reduced words from the basepoint.

Construction helpers mutate private state only; every returned graph is a
frozen value and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .words import Word

Edge = tuple[int, int, int]  # (source, target, positive label)


@dataclass(frozen=True)
class LabeledGraph:
    """Finite graph with generator-labeled oriented edges.

    ``edges`` may contain parallel copies (a wedge before folding); folding
    removes duplicates.  ``basepoint`` is optional: membership queries need
    it, conjugacy-invariant queries (cores, fiber products of conjugates)
    work basepoint-free.
    """

    rank: int
    num_vertices: int
    edges: tuple[Edge, ...]
    basepoint: Optional[int] = None

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("ambient rank must be >= 1")
        if self.num_vertices < 0:
            raise ValueError("negative vertex count")
        for u, v, l in self.edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge ({u},{v},{l}) endpoint out of range")
            if not (1 <= l <= self.rank):
                raise ValueError(f"edge label {l} out of range")
        if self.basepoint is not None and not (0 <= self.basepoint < self.num_vertices):
            raise ValueError("basepoint out of range")

    @cached_property
    def step_map(self) -> dict[tuple[int, int], int]:
        """Map (vertex, signed label) -> next vertex.  Requires a folded graph."""
        m: dict[tuple[int, int], int] = {}
        for u, v, l in self.edges:
            for src, s, dst in ((u, l, v), (v, -l, u)):
                if (src, s) in m:
                    raise ValueError("graph is not folded")
                m[(src, s)] = dst
        return m

    def step(self, vertex: int, signed_label: int) -> Optional[int]:
        return self.step_map.get((vertex, signed_label))


def label_clash(g: LabeledGraph) -> Optional[int]:
    """A vertex with two edge ends of one signed label, or None if ``g`` is
    folded."""
    seen: set[tuple[int, int]] = set()
    for u, v, l in g.edges:
        for src, s in ((u, l), (v, -l)):
            if (src, s) in seen:
                return src
            seen.add((src, s))
    return None


def is_folded(g: LabeledGraph) -> bool:
    return label_clash(g) is None


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root


class _Folder:
    """Worklist Stallings folding over a growing vertex set.

    Vertex classes live in a union-find; each class root keeps one table
    signed label -> neighbour (any vertex of the neighbour's class).  An edge
    whose label a table already holds is a clash, and the two neighbours go
    on the worklist.  Merging two classes moves the smaller table into the
    larger and queues every clash this makes, so each table entry moves
    O(log V) times (Touikan, IJAC 2006).  The folded quotient is unique, so
    the result does not depend on the order of the merges.
    """

    def __init__(self, num_vertices: int) -> None:
        self.uf = _UnionFind(num_vertices)
        self.out: list[Optional[dict[int, int]]] = [{} for _ in range(num_vertices)]
        self.pending: list[tuple[int, int]] = []

    def add_vertex(self) -> int:
        self.uf.parent.append(len(self.out))
        self.out.append({})
        return len(self.out) - 1

    def add_edge(self, u: int, v: int, l: int) -> None:
        """Add the edge u --l--> v (``l`` signed, so u --(-l)--> v is the edge
        v --l--> u); call :meth:`fold` before reading again."""
        for src, s, dst in ((u, l, v), (v, -l, u)):
            table = self.out[self.uf.find(src)]
            if s in table:
                self.pending.append((table[s], dst))
            else:
                table[s] = dst

    def fold(self) -> None:
        find, parent, out, pending = self.uf.find, self.uf.parent, self.out, self.pending
        while pending:
            a, b = pending.pop()
            ra, rb = find(a), find(b)
            if ra == rb:
                continue
            if len(out[ra]) < len(out[rb]):
                ra, rb = rb, ra
            parent[rb] = ra
            big, small = out[ra], out[rb]
            out[rb] = None
            for s, t in small.items():
                if s in big:
                    pending.append((big[s], t))
                else:
                    big[s] = t

    def graph(self, rank: int, basepoint: Optional[int]) -> tuple[LabeledGraph, list[int]]:
        """The folded graph, with classes numbered in order of their least
        vertex, and the vertex map."""
        find = self.uf.find
        index: dict[int, int] = {}
        vertex_map = []
        for v in range(len(self.out)):
            c = find(v)
            if c not in index:
                index[c] = len(index)
            vertex_map.append(index[c])
        edges = tuple(
            sorted(
                (i, vertex_map[t], s)
                for r, i in index.items()
                for s, t in self.out[r].items()
                if s > 0
            )
        )
        base = vertex_map[basepoint] if basepoint is not None else None
        return LabeledGraph(rank, len(index), edges, base), vertex_map


def fold_with_map(g: LabeledGraph) -> tuple[LabeledGraph, list[int]]:
    """Fold ``g``; also return the vertex map (old id -> new id).

    Folded vertices are numbered in order of their least original vertex.
    The basepoint-respecting subgroup recognized by the graph is unchanged.
    """
    folder = _Folder(g.num_vertices)
    for u, v, l in g.edges:
        folder.add_edge(u, v, l)
    folder.fold()
    return folder.graph(g.rank, g.basepoint)


def fold(g: LabeledGraph) -> LabeledGraph:
    return fold_with_map(g)[0]


def subgroup_graph(generators: Sequence[Word], rank: int) -> LabeledGraph:
    """Folded wedge of loops at a basepoint recognizing ⟨generators⟩ ≤ F_rank.

    When the 2m end directions of the m nonempty generators (each one's
    first letter and the inverse of its last letter) are pairwise distinct,
    the wedge is already folded: its inner vertices see two distinct
    directions, as the generators are reduced, and its basepoint sees the 2m
    end directions.  Its sorted edges are then emitted directly, the
    basepoint 0 and each generator's inner vertices numbered in order, as
    :meth:`_Folder.graph` numbers an unfolded wedge.  The images φ^n of an
    immersion always meet this condition.

    Otherwise each generator is folded in as it is added: its longest prefix
    readable from the basepoint and its longest suffix readable back into it
    follow existing edges, and only the letters between them get new
    vertices (at least one letter is left between, to close the loop).
    Reading along an edge is a fold, and new vertices keep the order of the
    wedge vertices they stand for, so the result equals folding the whole
    wedge.
    """
    for w in generators:
        if w.rank != rank:
            raise ValueError("generator rank mismatch")
    loops = [w.letters for w in generators if w.letters]
    ends = [x for letters in loops for x in (letters[0], -letters[-1])]
    if len(set(ends)) == len(ends):
        edges: list[Edge] = []
        top = 0
        for letters in loops:
            u = 0
            for k, x in enumerate(letters, 1):
                v = top + k if k < len(letters) else 0
                edges.append((u, v, x) if x > 0 else (v, u, -x))
                u = v
            top += len(letters) - 1
        return LabeledGraph(rank, top + 1, tuple(sorted(edges)), 0)
    folder = _Folder(1)  # basepoint is 0
    find, out = folder.uf.find, folder.out
    for letters in loops:
        # the state is folded here, so each read steps from a class root to
        # a class root: one find per letter
        head, p = find(0), 0
        while p < len(letters) - 1:
            nxt = out[head].get(letters[p])
            if nxt is None:
                break
            head, p = find(nxt), p + 1
        tail, q = find(0), len(letters)
        while q > p + 1:
            nxt = out[tail].get(-letters[q - 1])
            if nxt is None:
                break
            tail, q = find(nxt), q - 1
        for x in letters[p : q - 1]:
            nxt = folder.add_vertex()
            folder.add_edge(head, nxt, x)
            head = nxt
        folder.add_edge(head, tail, letters[q - 1])
        folder.fold()
    return folder.graph(rank, 0)[0]


def membership(g: LabeledGraph, w: Word) -> bool:
    """True iff reduced ``w`` reads a closed loop at the basepoint of folded ``g``."""
    if g.basepoint is None:
        raise ValueError("membership needs a based graph")
    pos = g.basepoint
    for x in w.letters:
        nxt = g.step(pos, x)
        if nxt is None:
            return False
        pos = nxt
    return pos == g.basepoint


def core(g: LabeledGraph, keep_basepoint: bool = True) -> LabeledGraph:
    """Iteratively delete valence-one vertices (never a kept basepoint).

    Isolated vertices left behind are dropped too (a collapsed forest is the
    empty graph), again excepting a kept basepoint.  Valences are counted
    first: when no vertex has valence below 2, nothing is deleted, and the
    graph comes back with its edges sorted, as the pruning would number
    them.  So the image of an immersion, whose vertices all have valence 2
    or more, is its own free and based core.
    """
    if keep_basepoint and g.basepoint is None:
        keep_basepoint = False
    protected = g.basepoint if keep_basepoint else None

    val = [0] * g.num_vertices
    for u, v, _ in g.edges:
        val[u] += 1
        val[v] += 1
    if all(d >= 2 for d in val):
        return LabeledGraph(g.rank, g.num_vertices, tuple(sorted(g.edges)), protected)

    alive_edges = set(range(len(g.edges)))
    incident: list[set[int]] = [set() for _ in range(g.num_vertices)]
    for i, (u, v, _) in enumerate(g.edges):
        incident[u].add(i)
        incident[v].add(i)

    queue = [v for v in range(g.num_vertices) if val[v] == 1 and v != protected]
    dead = [False] * g.num_vertices
    while queue:
        v = queue.pop()
        if dead[v] or val[v] != 1 or v == protected:
            continue
        dead[v] = True
        (ei,) = (i for i in incident[v] if i in alive_edges)
        alive_edges.discard(ei)
        a, b, _ = g.edges[ei]
        for w in (a, b):
            val[w] -= 1
            if w != v and val[w] == 1 and w != protected:
                queue.append(w)

    keep = [
        v
        for v in range(g.num_vertices)
        if not dead[v] and (val[v] > 0 or v == protected)
    ]
    index = {v: i for i, v in enumerate(keep)}
    new_edges = tuple(
        sorted((index[u], index[v], l) for i, (u, v, l) in enumerate(g.edges) if i in alive_edges)
    )
    base = index[protected] if protected is not None else None
    return LabeledGraph(g.rank, len(keep), new_edges, base)


def component_labels(g: LabeledGraph) -> list[int]:
    """Component index per vertex (undirected connectivity, first-occurrence order).

    Union-find with path halving that links the larger root under the
    smaller, so every parent precedes its child and one pass in vertex
    order reads each label off its parent's."""
    parent = list(range(g.num_vertices))
    for u, v, _ in g.edges:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u < v:
            parent[v] = u
        elif v < u:
            parent[u] = v
    out = parent[:]
    n = 0
    for v, p in enumerate(parent):
        if p == v:
            out[v] = n
            n += 1
        else:
            out[v] = out[p]
    return out


def graph_rank(g: LabeledGraph) -> int:
    """Sum over components of (edge count − vertex count + 1); ≥ 0."""
    labels = component_labels(g)
    return len(g.edges) - g.num_vertices + (max(labels) + 1 if labels else 0)


def subgraph_on(
    g: LabeledGraph, vertex_subset: Iterable[int]
) -> tuple[LabeledGraph, dict[int, int]]:
    """Induced subgraph on ``vertex_subset``; returns it with the old→new vertex map."""
    keep = sorted(set(vertex_subset))
    index = {v: i for i, v in enumerate(keep)}
    edges = tuple(
        sorted(
            (index[u], index[v], l)
            for u, v, l in g.edges
            if u in index and v in index
        )
    )
    return LabeledGraph(g.rank, len(keep), edges), index


def _bfs_code(g: LabeledGraph, root: int) -> tuple:
    """Deterministic breadth-first code of the component of ``root`` (folded graphs)."""
    signs = [s for i in range(1, g.rank + 1) for s in (i, -i)]
    order = {root: 0}
    queue = [root]
    entries: list[tuple[int, int, int]] = []
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for s in signs:
            t = g.step(v, s)
            if t is None:
                continue
            if t not in order:
                order[t] = len(queue)
                queue.append(t)
            entries.append((order[v], s, order[t]))
    return (len(queue), tuple(entries))


def canonical_code(g: LabeledGraph) -> tuple:
    """Isomorphism code for folded labeled graphs.

    Basepointed components are rooted at the basepoint; free components take
    the minimum breadth-first code over all roots.  Two folded graphs are
    isomorphic (as based labeled graphs) iff their codes are equal.
    """
    labels = component_labels(g)
    n_comp = max(labels) + 1 if labels else 0
    codes = []
    for c in range(n_comp):
        verts = [v for v in range(g.num_vertices) if labels[v] == c]
        if g.basepoint is not None and labels[g.basepoint] == c:
            codes.append(("based", _bfs_code(g, g.basepoint)))
        else:
            codes.append(("free", min(_bfs_code(g, v) for v in verts)))
    return (g.rank, tuple(sorted(codes)))
