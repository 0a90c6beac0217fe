"""Fiber products of immersions and the pullback filtration of a graph self-map.

The fiber product of two immersions into a common rose is computed
combinatorially: a map whose edges traverse paths is first subdivided so
every edge maps onto a single rose edge, and the product then pairs every
two vertices (all of them map to the rose's one vertex) and every two
edges with equal image edge.

Points of a graph are exact values: a vertex ``('v', id)`` or an interior
edge point ``('e', edge_id, offset)`` with a rational offset in (0, 1).
Iterating a map on points uses the honest composite (each application moves
at uniform speed over the image path), which makes the subdivision points of
successive filtration levels nested and lets cross-level containment be
decided by exact point arithmetic.

Components are matched across levels and subdivisions by a signature built
from subdivision-invariant data only: the component's intrinsic vertices
(points where at least one side sits on a vertex, plus leaves and branch
points) and its arcs (maximal runs between intrinsic vertices, each of which
stays inside a single edge on each side and is recorded as an exact segment).
Signatures are read from per-factor tables, built once per factor, that key
each point by integers (its edge and reduced offset numerator and
denominator), so no rational is built per product vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterator, Optional, Union

from .graphmap import (
    GraphMap,
    MarkedGraph,
    Path,
    is_immersion,
    iterate_map,
    rose,
)
from .stallings import LabeledGraph, component_labels
from .words import cyclic_core, free_reduce, least_rotation, primitive_root

Point = tuple  # ('v', vertex) | ('e', positive edge id, Fraction offset)
PointKey = tuple  # ('v', vertex, 0, 1) | ('e', edge id, numerator, denominator)
Segment = tuple  # (parent edge, from key, to key), keys (numerator, denominator)


class ProductBudgetError(RuntimeError):
    """The requested product exceeds the configured size budget."""


def immersion_offender(f: GraphMap) -> Optional[int]:
    """The vertex at which the direction map fails to be injective, if any:
    the rose's one vertex 0 unless ``f`` is an immersion."""
    return None if is_immersion(f) else 0


def point_image(f: GraphMap, p: Point) -> Point:
    """Image of an exact point under one application of ``f``.

    An edge is traversed at uniform speed over its image path; this single
    convention, iterated, defines the point images of all powers.
    """
    if p[0] == "v":
        return ("v", 0)
    _, e, t = p
    path = f.edge_map[e - 1]
    pos = t * len(path)
    k = int(pos)
    frac = pos - k
    if frac == 0:
        return ("v", 0)
    s = path[k]
    if s > 0:
        return ("e", s, frac)
    return ("e", -s, 1 - frac)


def point_image_power(f: GraphMap, p: Point, k: int) -> Point:
    for _ in range(k):
        p = point_image(f, p)
    return p


@dataclass(frozen=True)
class Subdivided:
    """A graph subdivided so each edge maps onto a single codomain edge.

    ``graph`` stores each piece with a positive codomain edge id as label
    (reversed pieces are stored flipped); metadata recovers exact positions:
    ``vertex_point`` in the original graph, and per stored edge
    ``edge_meta = (parent_edge, lo, hi, ascending)`` giving the covered
    segment and whether the stored orientation ascends it.  Every vertex
    maps to the codomain's one vertex.
    """

    codomain: MarkedGraph
    graph: LabeledGraph
    vertex_point: tuple[Point, ...]
    edge_meta: tuple[tuple[int, Fraction, Fraction, bool], ...]

    @cached_property
    def point_keys(self) -> tuple[PointKey, ...]:
        """Per vertex, its point as integers: offsets become reduced
        (numerator, denominator) pairs, so keys agree across subdivisions."""
        return tuple(
            ("v", p[1], 0, 1) if p[0] == "v" else ("e", p[1], p[2].numerator, p[2].denominator)
            for p in self.vertex_point
        )

    @cached_property
    def on_vertex(self) -> tuple[bool, ...]:
        """Per vertex: does it sit on a vertex of the original graph?"""
        return tuple(p[0] == "v" for p in self.vertex_point)

    @cached_property
    def segments(self) -> tuple[tuple[Segment, Segment], ...]:
        """Per stored edge, the segment it covers when traversed along
        (index 0) and against (index 1) its stored orientation."""
        out = []
        for e, lo, hi, ascending in self.edge_meta:
            a, b = (lo.numerator, lo.denominator), (hi.numerator, hi.denominator)
            up, down = (e, a, b), (e, b, a)
            out.append((up, down) if ascending else (down, up))
        return tuple(out)


def _subdivision_fractions(f: GraphMap, level: int) -> list[list[Fraction]]:
    """Interior subdivision points per edge for the ``level``-fold composite."""
    pts: list[list[Fraction]] = [[] for _ in range(f.domain.num_edges)]
    for _ in range(level):
        new = []
        for e in range(1, f.domain.num_edges + 1):
            path = f.edge_map[e - 1]
            length = len(path)
            acc: list[Fraction] = []
            for j, s in enumerate(path):
                lo = Fraction(j, length)
                if j > 0:
                    acc.append(lo)
                width = Fraction(1, length)
                for t in pts[abs(s) - 1]:
                    tau = t if s > 0 else 1 - t
                    acc.append(lo + tau * width)
            new.append(sorted(acc))
        pts = new
    return pts


def subdivide_level(f: GraphMap, level: int) -> Subdivided:
    """Subdivide the domain of the self-map power ``f^level``."""
    if not f.is_self_map():
        raise ValueError("filtration levels need a self-map")
    if level < 1:
        raise ValueError("level must be >= 1")
    g = iterate_map(f, level)
    fractions = _subdivision_fractions(f, level)

    vertex_point: list[Point] = [("v", 0)]
    edges: list[tuple[int, int, int]] = []
    metas: list[tuple[int, Fraction, Fraction, bool]] = []
    for e in range(1, g.domain.num_edges + 1):
        seq = g.edge_map[e - 1]
        inner = fractions[e - 1]
        if len(seq) != len(inner) + 1:
            raise RuntimeError("subdivision points do not match the image path")
        bounds = [Fraction(0)] + inner + [Fraction(1)]
        nodes = [0]
        for k in range(1, len(seq)):
            nodes.append(len(vertex_point))
            vertex_point.append(("e", e, bounds[k]))
        nodes.append(0)
        for m, s in enumerate(seq):
            a, b = nodes[m], nodes[m + 1]
            if s > 0:
                edges.append((a, b, s))
                metas.append((e, bounds[m], bounds[m + 1], True))
            else:
                edges.append((b, a, -s))
                metas.append((e, bounds[m], bounds[m + 1], False))
    graph = LabeledGraph(g.codomain.num_edges, len(vertex_point), tuple(edges))
    return Subdivided(g.codomain, graph, tuple(vertex_point), tuple(metas))


def subdivide_map(f: GraphMap) -> Subdivided:
    """Subdivide an arbitrary map (not necessarily a self-map) once."""
    vertex_point: list[Point] = [("v", 0)]
    edges: list[tuple[int, int, int]] = []
    metas: list[tuple[int, Fraction, Fraction, bool]] = []
    for e in range(1, f.domain.num_edges + 1):
        seq = f.edge_map[e - 1]
        length = len(seq)
        nodes = [0]
        for k in range(1, length):
            nodes.append(len(vertex_point))
            vertex_point.append(("e", e, Fraction(k, length)))
        nodes.append(0)
        for m, s in enumerate(seq):
            a, b = nodes[m], nodes[m + 1]
            lo, hi = Fraction(m, length), Fraction(m + 1, length)
            if s > 0:
                edges.append((a, b, s))
                metas.append((e, lo, hi, True))
            else:
                edges.append((b, a, -s))
                metas.append((e, lo, hi, False))
    graph = LabeledGraph(f.codomain.num_edges, len(vertex_point), tuple(edges))
    return Subdivided(f.codomain, graph, tuple(vertex_point), tuple(metas))


def as_product_factor(g: LabeledGraph) -> Subdivided:
    """Wrap a folded labeled graph (an immersion over the rose) as a factor."""
    offender = _folded_offender(g)
    if offender is not None:
        raise ValueError(f"input is not an immersion: label clash at vertex {offender}")
    return Subdivided(
        rose(g.rank),
        g,
        tuple(("v", v) for v in range(g.num_vertices)),
        tuple((i + 1, Fraction(0), Fraction(1), True) for i in range(len(g.edges))),
    )


def _folded_offender(g: LabeledGraph) -> Optional[int]:
    seen: set[tuple[int, int]] = set()
    for u, v, l in g.edges:
        for src, s in ((u, l), (v, -l)):
            if (src, s) in seen:
                return src
            seen.add((src, s))
    return None


@dataclass(frozen=True)
class ProductComponent:
    vertex_ids: tuple[int, ...]
    edge_ids: tuple[int, ...]
    rank: int
    signature: tuple
    contains_diagonal: bool

    @property
    def classification(self) -> str:
        if self.rank == 0:
            return "tree"
        if self.rank == 1:
            return "single_loop"
        return "higher_rank"


@dataclass(frozen=True)
class FiberProduct:
    """Combinatorial fiber product of two subdivided immersions."""

    graph: LabeledGraph
    vertex_pairs: tuple[tuple[int, int], ...]
    edge_pairs: tuple[tuple[int, int], ...]
    left: Subdivided
    right: Subdivided

    def components(self) -> tuple[ProductComponent, ...]:
        return _product_components(self)


def product_edges(
    a: LabeledGraph, b: LabeledGraph, max_edges: int = 500_000
) -> Iterator[tuple[int, int, int, int, int]]:
    """The edges of the fiber product of ``a`` and ``b`` over the rose, streamed.

    Vertex (x, y) of the product has id ``x * b.num_vertices + y``.  Each
    edge comes as ``(u, v, label, i, j)``, pairing edge i of ``a`` with edge
    j of ``b``, ordered by label, then i, then j.  The budget is checked when
    this is called, before anything is built: ProductBudgetError if the
    product would have more than ``max_edges`` edges.
    """
    nb = b.num_vertices
    by_label_a: dict[int, list[tuple[int, int, int]]] = {}
    for i, (ua, va, l) in enumerate(a.edges):
        by_label_a.setdefault(l, []).append((i, ua * nb, va * nb))
    by_label_b: dict[int, list[tuple[int, int, int]]] = {}
    for j, (ub, vb, l) in enumerate(b.edges):
        by_label_b.setdefault(l, []).append((j, ub, vb))
    total = sum(
        len(by_label_a.get(l, ())) * len(ec) for l, ec in by_label_b.items()
    )
    if total > max_edges:
        raise ProductBudgetError(
            f"fiber product would have {total} edges (budget {max_edges})"
        )
    return _stream_edges(by_label_a, by_label_b)


def _stream_edges(
    by_label_a: dict[int, list[tuple[int, int, int]]],
    by_label_b: dict[int, list[tuple[int, int, int]]],
) -> Iterator[tuple[int, int, int, int, int]]:
    for l in sorted(by_label_b):
        for i, ua, va in by_label_a.get(l, ()):
            for j, ub, vb in by_label_b[l]:
                yield ua + ub, va + vb, l, i, j


def fiber_product(
    left: Union[Subdivided, LabeledGraph, GraphMap],
    right: Union[Subdivided, LabeledGraph, GraphMap],
    max_edges: int = 500_000,
) -> FiberProduct:
    """Fiber product over the common codomain.

    Accepts ready factors, folded labeled graphs over a rose, or graph maps
    (which are checked to be immersions and subdivided).  Product vertex
    ``x * nb + y`` is the pair (x, y), with nb the right factor's vertex
    count, so ``vertex_pairs`` lists the pairs with x major; the edges are
    :func:`product_edges`, in its order.  If both factors carry basepoints,
    the product is based at their pair.
    """
    a = _coerce_factor(left)
    b = _coerce_factor(right)
    if a.codomain != b.codomain:
        raise ValueError("factors have different codomains")
    stream = product_edges(a.graph, b.graph, max_edges)
    nb = b.graph.num_vertices
    pairs = tuple(
        (x, y) for x in range(a.graph.num_vertices) for y in range(nb)
    )
    edges: list[tuple[int, int, int]] = []
    edge_pairs: list[tuple[int, int]] = []
    for u, v, l, i, j in stream:
        edges.append((u, v, l))
        edge_pairs.append((i, j))

    basepoint = None
    if a.graph.basepoint is not None and b.graph.basepoint is not None:
        basepoint = a.graph.basepoint * nb + b.graph.basepoint
    graph = LabeledGraph(a.graph.rank, len(pairs), tuple(edges), basepoint)
    return FiberProduct(graph, pairs, tuple(edge_pairs), a, b)


def _coerce_factor(x: Union[Subdivided, LabeledGraph, GraphMap]) -> Subdivided:
    if isinstance(x, Subdivided):
        return x
    if isinstance(x, LabeledGraph):
        return as_product_factor(x)
    if isinstance(x, GraphMap):
        offender = immersion_offender(x)
        if offender is not None:
            raise ValueError(f"input is not an immersion: direction clash at vertex {offender}")
        return subdivide_map(x)
    raise TypeError(f"cannot use {type(x).__name__} as a product factor")


# --- component analysis with subdivision-invariant signatures ---


def _product_components(fp: FiberProduct) -> tuple[ProductComponent, ...]:
    g = fp.graph
    labels = component_labels(g)
    n_comp = max(labels) + 1 if labels else 0
    comp_vertices: list[list[int]] = [[] for _ in range(n_comp)]
    for v in range(g.num_vertices):
        comp_vertices[labels[v]].append(v)
    comp_edges: list[list[int]] = [[] for _ in range(n_comp)]
    incident: list[list[tuple[int, int]]] = [[] for _ in range(g.num_vertices)]
    for i, (u, v, _) in enumerate(g.edges):
        comp_edges[labels[u]].append(i)
        incident[u].append((i, 1))
        incident[v].append((i, -1))

    out = []
    for verts, edges in zip(comp_vertices, comp_edges):
        rank = len(edges) - len(verts) + 1
        signature = _component_signature(fp, verts, incident)
        diag = any(x == y for x, y in (fp.vertex_pairs[v] for v in verts))
        out.append(ProductComponent(tuple(verts), tuple(edges), rank, signature, diag))
    return tuple(out)


def _component_signature(
    fp: FiberProduct, verts: list[int], incident: list[list[tuple[int, int]]]
) -> tuple:
    g = fp.graph
    pairs = fp.vertex_pairs
    left, right = fp.left, fp.right
    key_l, key_r = left.point_keys, right.point_keys
    on_l, on_r = left.on_vertex, right.on_vertex
    seg_l_of, seg_r_of = left.segments, right.segments
    intrinsic = {}  # product vertex -> its point pair key
    for v in verts:
        x, y = pairs[v]
        if on_l[x] or on_r[y] or len(incident[v]) != 2:
            intrinsic[v] = (key_l[x], key_r[y])
    if not intrinsic:
        raise RuntimeError("component without intrinsic vertices; product structure violated")

    arcs = []
    walked: set[tuple[int, int]] = set()  # (edge, direction) half-edges
    for v0, key0 in intrinsic.items():
        for edge_id, direction in incident[v0]:
            # incident stores (edge, +1) at the source and (edge, -1) at the
            # target; walking away from v0 uses that direction
            if (edge_id, direction) in walked:
                continue
            seg_l = seg_r = None
            eid, d = edge_id, direction
            while True:
                walked.add((eid, d))
                walked.add((eid, -d))
                i, j = fp.edge_pairs[eid]
                side = 0 if d == 1 else 1
                seg_l = _chain(seg_l, seg_l_of[i][side])
                seg_r = _chain(seg_r, seg_r_of[j][side])
                u, w, _ = g.edges[eid]
                pos = w if d == 1 else u
                if pos in intrinsic:
                    break
                # a non-intrinsic vertex has valence two: continue through
                # the incidence we did not arrive by
                first, second = incident[pos]
                eid, d = second if first == (eid, -d) else first
            key1 = intrinsic[pos]
            arcs.append(
                min(
                    (key0, key1, seg_l, seg_r),
                    (key1, key0, _flip(seg_l), _flip(seg_r)),
                )
            )
    return (tuple(sorted(intrinsic.values())), tuple(sorted(arcs)))


def _chain(acc: Optional[Segment], seg: Segment) -> Segment:
    if acc is None:
        return seg
    e, a, b = acc
    e2, a2, b2 = seg
    if e2 != e or a2 != b:
        raise RuntimeError("arc left its edge without an intrinsic vertex")
    return (e, a, b2)


def _flip(seg: Segment) -> Segment:
    return (seg[0], seg[2], seg[1])


# --- the filtration and stabilization ---


@dataclass(frozen=True)
class PullbackLevel:
    index: int
    product: FiberProduct
    components: tuple[ProductComponent, ...]
    in_previous: tuple[bool, ...]


@dataclass(frozen=True)
class PullbackFiltration:
    map: GraphMap
    levels: tuple[PullbackLevel, ...]

    def level(self, i: int) -> PullbackLevel:
        if not (1 <= i <= len(self.levels)):
            raise ValueError(f"filtration computed to depth {len(self.levels)}, not {i}")
        return self.levels[i - 1]


def _previous_images(
    f: GraphMap, sub: Subdivided, previous: Optional[tuple[Subdivided, list[int]]]
) -> list[int]:
    """Per vertex of the level-i subdivision, an id of its f^(i−1) image.

    Level 1 maps by the identity, so each vertex is its own id.  A level-i
    vertex maps under f onto a vertex of level i − 1, whose ids are
    ``previous``; so each level takes one :func:`point_image` per vertex.
    """
    if previous is None:
        return list(range(sub.graph.num_vertices))
    prev_sub, prev_images = previous
    index = {p: k for k, p in enumerate(prev_sub.vertex_point)}
    return [prev_images[index[point_image(f, p)]] for p in sub.vertex_point]


def _level_flags(fp: FiberProduct, comps, images: list[int]) -> tuple[bool, ...]:
    """Per component: does it lie in the previous level?  A product vertex
    (x, y) does iff f^(i−1) identifies x and y, i.e. ``images[x] ==
    images[y]``.

    Containment must be all-or-nothing per component; a mixed component
    violates the inclusion structure and raises.
    """
    pairs = fp.vertex_pairs
    flags = []
    for comp in comps:
        votes = {images[x] == images[y] for x, y in (pairs[v] for v in comp.vertex_ids)}
        if len(votes) != 1:
            raise RuntimeError(
                "component mixes points inside and outside the previous level"
            )
        flags.append(votes.pop())
    return tuple(flags)


def pullback_filtration(
    f: GraphMap, i_max: int, max_edges: int = 500_000
) -> PullbackFiltration:
    """Levels Γ×_{f^i}Γ for i = 1..i_max with inclusion bookkeeping.

    Asserts structurally that every component of a level reappears in the
    next one (signature match), and that the diagonal is a union of
    components isomorphic to the domain.
    """
    offender = immersion_offender(f)
    if offender is not None:
        raise ValueError(f"map is not an immersion: direction clash at vertex {offender}")
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    levels = []
    prev_signatures: Optional[list] = None
    previous: Optional[tuple[Subdivided, list[int]]] = None
    for i in range(1, i_max + 1):
        sub = subdivide_level(f, i)
        images = _previous_images(f, sub, previous)
        previous = (sub, images)
        fp = fiber_product(sub, sub, max_edges=max_edges)
        comps = fp.components()
        flags = _level_flags(fp, comps, images)
        for comp, flag in zip(comps, flags):
            if comp.contains_diagonal and not flag:
                raise RuntimeError("diagonal component escaped the previous level")
        if prev_signatures is not None:
            old = sorted(c.signature for c, fl in zip(comps, flags) if fl)
            if old != prev_signatures:
                raise RuntimeError(
                    f"level {i - 1} components do not persist into level {i}"
                )
        prev_signatures = sorted(c.signature for c in comps)
        levels.append(PullbackLevel(i, fp, comps, flags))
    return PullbackFiltration(f, tuple(levels))


@dataclass(frozen=True)
class ComponentReport:
    rank: int
    classification: str  # tree | single_loop | higher_rank
    vertex_count: int
    edge_count: int
    core_vertex_count: int
    core_edge_count: int


def _core_counts(g: LabeledGraph, comp: ProductComponent) -> tuple[int, int]:
    from .stallings import core, subgraph_on

    sub, _ = subgraph_on(g, comp.vertex_ids)
    c = core(sub, keep_basepoint=False)
    return c.num_vertices, len(c.edges)


def new_components(filtration: PullbackFiltration, i: int) -> tuple[ComponentReport, ...]:
    """Components of level i absent from level i−1 (the difference Γ̂_i),
    reported with raw and core sizes."""
    level = filtration.level(i)
    out = []
    for comp, old in zip(level.components, level.in_previous):
        if old:
            continue
        cv, ce = _core_counts(level.product.graph, comp)
        out.append(
            ComponentReport(
                comp.rank, comp.classification, len(comp.vertex_ids), len(comp.edge_ids), cv, ce
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class StabilizationVerdict:
    kind: str  # "stabilized_at" | "invariant_loop" | "cap_exceeded"
    n: Optional[int] = None
    loop: Optional[Path] = None
    degree: Optional[int] = None
    power: Optional[int] = None
    surviving: tuple = ()


def _project_cycle(fp: FiberProduct, cycle: list[tuple[int, int]], side: int) -> Path:
    """Free homotopy class of a product cycle's projection as a tight cyclic
    path of full parent edges."""
    pieces: list[int] = []
    for edge_id, direction in cycle:
        i, j = fp.edge_pairs[edge_id]
        pieces.append(direction * (i + 1) if side == 0 else direction * (j + 1))
    pieces = cyclic_core(free_reduce(pieces))
    if not pieces:
        return ()
    sub = fp.left if side == 0 else fp.right
    runs: list[tuple[int, Fraction, Fraction]] = []
    for signed in pieces:
        k = abs(signed) - 1
        e, lo, hi, ascending = sub.edge_meta[k]
        forward = ascending if signed > 0 else not ascending
        seg = (e, lo, hi) if forward else (e, hi, lo)
        if runs and runs[-1][0] == seg[0] and runs[-1][2] == seg[1]:
            runs[-1] = (seg[0], runs[-1][1], seg[2])
        else:
            runs.append(seg)
    # the cyclic walk may start mid-edge, splitting one crossing across the
    # seam; after tightening, runs only turn at full vertices, so merging the
    # seam leaves nothing but complete crossings
    if len(runs) >= 2 and runs[-1][0] == runs[0][0] and runs[-1][2] == runs[0][1]:
        runs[0] = (runs[0][0], runs[-1][1], runs[0][2])
        runs.pop()
    return cyclic_core(free_reduce(_full_letter(r) for r in runs))


def _full_letter(seg: tuple[int, Fraction, Fraction]) -> int:
    e, a, b = seg
    if a == 0 and b == 1:
        return e
    if a == 1 and b == 0:
        return -e
    raise RuntimeError("projection of a tight cycle ended mid-edge")


def _fundamental_cycles(fp: FiberProduct, comp: ProductComponent, limit: int = 8):
    """Up to ``limit`` fundamental cycles of the component, as lists of
    (edge id, direction)."""
    g = fp.graph
    parent: dict[int, tuple[int, int, int]] = {}  # vertex -> (prev vertex, edge, dir)
    root = comp.vertex_ids[0]
    seen = {root}
    queue = [root]
    tree_edges = set()
    adj: dict[int, list[tuple[int, int, int]]] = {v: [] for v in comp.vertex_ids}
    for i in comp.edge_ids:
        u, v, _ = g.edges[i]
        adj[u].append((v, i, 1))
        adj[v].append((u, i, -1))
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for w, i, d in adj[v]:
            if w not in seen:
                seen.add(w)
                parent[w] = (v, i, d)
                tree_edges.add(i)
                queue.append(w)

    def path_to_root(v: int) -> list[tuple[int, int]]:
        out = []
        while v != root:
            p, i, d = parent[v]
            out.append((i, -d))  # walk from v back to p
            v = p
        return out

    cycles = []
    for i in comp.edge_ids:
        if i in tree_edges:
            continue
        u, v, _ = g.edges[i]
        up = path_to_root(u)
        vp = path_to_root(v)
        # cycle: root -> u (reverse of up), edge i, v -> root (vp)
        cycle = [(e, -d) for e, d in reversed(up)] + [(i, 1)] + vp
        cycles.append(_strip_backtracks(cycle))
        if len(cycles) >= limit:
            break
    return cycles


def _strip_backtracks(cycle: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for item in cycle:
        if out and out[-1][0] == item[0] and out[-1][1] == -item[1]:
            out.pop()
        else:
            out.append(item)
    while len(out) >= 2 and out[0][0] == out[-1][0] and out[0][1] == -out[-1][1]:
        out = out[1:-1]
    return out


def _least_rotated(p: Path) -> Path:
    k = least_rotation(p)
    return p[k:] + p[:k]


def _canonical_loop(p: Path) -> Path:
    if not p:
        return p
    return min(_least_rotated(p), _least_rotated(tuple(-x for x in reversed(p))))


def _immersed_loop_image(f: GraphMap, loop: Path) -> Path:
    """Image of a cyclically reduced loop under an immersion: no two
    (cyclically) consecutive letters cancel, since cancelling at a turn needs
    two directions with one image, so the image is the concatenation of the
    edge images, already cyclically reduced."""
    return tuple(chain.from_iterable(map(f.edge_image, loop)))


def _invariant_loop(f: GraphMap, gamma: Path, cap: int) -> Optional[StabilizationVerdict]:
    """The first pair k < kp ≤ cap, in (kp, k) order, with f^kp(γ) a
    rotation of (f^k(γ))^d, as an invariant-loop verdict; see
    :func:`stabilization_power`."""
    length_guard = 200_000
    iterates = [gamma]
    roots = [primitive_root(gamma)]
    keys: dict[int, Path] = {}
    for kp in range(1, cap + 1):
        nxt = _immersed_loop_image(f, iterates[-1])
        if not nxt or len(nxt) > length_guard:
            return None
        iterates.append(nxt)
        period, exponent = primitive_root(nxt)
        roots.append((period, exponent))
        for k in range(kp):
            if roots[k][0] != period or exponent % roots[k][1]:
                continue
            for i in (k, kp):
                if i not in keys:
                    keys[i] = _least_rotated(iterates[i][:period])
            if keys[k] == keys[kp]:
                return StabilizationVerdict(
                    "invariant_loop",
                    loop=iterates[k],
                    degree=exponent // roots[k][1],
                    power=kp - k,
                )
    return None


def stabilization_power(f: GraphMap, cap: int = 16, max_edges: int = 500_000) -> StabilizationVerdict:
    """Decide whether the pullback difference of some power is loop-free.

    For an immersion, an off-diagonal loop pair at one power yields one at
    every power (apply f, resp. factor through it), so the difference of
    Γ×_{f^N}Γ is loop-free for some N exactly when it is at N = 1; the
    smallest such N is then 1.  Otherwise the verdict is an invariant-loop
    witness (γ, d) with [f^k(γ)] = [γ^d] — the Baumslag–Solitar obstruction —
    found by iterating candidate loop classes up to ``cap``, or cap_exceeded
    with the surviving components for diagnostics.

    The search is linear in the letters mapped.  A cyclic word p is a
    rotation of q^d exactly when their primitive roots have the same length,
    exp(p) = d·exp(q), and the roots are rotations of each other
    (Lyndon–Schützenberger).  So each iterate is reduced once to its
    (period, exponent) as it is built, and only a pair that passes both
    integer tests compares least-rotated roots, each built once.  Pairs are
    scanned in (kp, k) order as each iterate is built, and the search maps
    no further than its first witness.
    """
    offender = immersion_offender(f)
    if offender is not None:
        raise ValueError(f"map is not an immersion: direction clash at vertex {offender}")
    try:
        sub = subdivide_level(f, 1)
        fp = fiber_product(sub, sub, max_edges=max_edges)
    except ProductBudgetError:
        return StabilizationVerdict("cap_exceeded", surviving=("product budget exceeded",))
    comps = fp.components()
    dirty = [
        c for c in comps if not c.contains_diagonal and c.rank >= 1
    ]
    if not dirty:
        return StabilizationVerdict("stabilized_at", n=1)

    candidates: list[Path] = []
    seen_classes: set[Path] = set()
    for comp in dirty:
        for cycle in _fundamental_cycles(fp, comp):
            if not cycle:
                continue
            for side in (0, 1):
                loop = _project_cycle(fp, cycle, side)
                if loop:
                    key = _canonical_loop(loop)
                    if key not in seen_classes:
                        seen_classes.add(key)
                        candidates.append(loop)
    for e in range(1, f.domain.num_edges + 1):
        key = _canonical_loop((e,))
        if key not in seen_classes:
            seen_classes.add(key)
            candidates.append((e,))

    for gamma in candidates:
        found = _invariant_loop(f, gamma, cap)
        if found is not None:
            return found
    surviving = tuple(
        (c.rank, len(c.vertex_ids), len(c.edge_ids)) for c in dirty
    )
    return StabilizationVerdict("cap_exceeded", surviving=surviving)
