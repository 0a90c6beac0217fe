"""Fiber products of immersions and the pullback filtration of a graph self-map.

The fiber product of two immersions into a common rose is computed
combinatorially: a map whose edges traverse paths is first subdivided so
every edge maps onto a single rose edge, and the product then pairs every
two vertices (all of them map to the rose's one vertex) and every two
edges with equal image edge.  Product vertex x·nb + y is the pair (x, y),
with nb the right factor's vertex count; a :class:`ProductPairs` record
(na, nb) reads the pairs off the ids, so no tuple is built per product
vertex.

Points of a graph are exact values: a vertex ``('v', id)`` or an interior
edge point ``('e', edge_id, offset)`` with a rational offset in (0, 1).  A
map moves each edge at uniform speed over its image path
(:func:`point_image`).  The filtration's subdivision for f^i is built from
the one for f^(i−1) in one step: edge e is cut where level i − 1 cuts the
letters of f(e), each scaled into its letter's slot.  So the cut points of
successive levels are nested, and each vertex's f-image in the level below is
recorded as the vertex is placed, with no point arithmetic.

The filtration matches components across levels and subdivisions by a
signature built from subdivision-invariant data only: the component's
intrinsic vertices (points where at least one side sits on a vertex, plus
leaves and branch points) and its arcs (maximal runs between intrinsic
vertices, each of which stays inside a single edge on each side and is
recorded as an exact segment).  Signatures are read from per-factor tables,
built once per factor, that key each point by integers (its edge and reduced
offset numerator and denominator), so no rational is built per product
vertex, and all of a product's are built in one flat pass over compressed
integer incidences.  Only the filtration reads signatures.

The stabilization gate needs level 1 alone, and reads it from
:func:`product_components`, the walk the disjointness gate uses: no whole
product, component labelling or signature is built there.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, compress, groupby, repeat
from operator import mul
from typing import NamedTuple, Optional, Union

from .graphmap import GraphMap, Path, is_immersion, letter_counts
from .stallings import LabeledGraph, component_labels, core, label_clash
from .words import cyclic_core, free_reduce, least_rotation, primitive_root

Point = tuple  # ('v', vertex) | ('e', positive edge id, Fraction offset)
PointKey = tuple  # ('v', vertex, 0, 1) | ('e', edge id, numerator, denominator)
Segment = tuple  # (parent edge, from key, to key), keys (numerator, denominator)

MAX_PRODUCT_EDGES = 500_000  # default edge budget of every fiber product


class ProductBudgetError(RuntimeError):
    """The requested product exceeds the configured size budget."""


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
    """A graph subdivided so each edge maps onto a single edge of the rose
    of ``graph.rank``.

    ``graph`` stores each piece with a positive rose edge id as label
    (reversed pieces are stored flipped); metadata recovers exact positions:
    ``vertex_point`` in the original graph, and per stored edge
    ``edge_meta = (parent_edge, lo, hi, ascending)`` giving the covered
    segment and whether the stored orientation ascends it.  Every vertex
    maps to the rose's one vertex.
    """

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


def _rose_level(rank: int) -> Subdivided:
    """The bare rose as level 0: one piece per edge and no inner vertex."""
    return as_product_factor(
        LabeledGraph(rank, 1, tuple((0, 0, e) for e in range(1, rank + 1)))
    )


def _refine(f: GraphMap, previous: Subdivided) -> tuple[Subdivided, list[int]]:
    """The subdivision one level above ``previous``, and per vertex the id
    of its f-image in ``previous``.

    Edge e is the concatenation, over the letters s of f(e) (slot j of L),
    of ``previous``'s pieces of edge |s|, reversed when s < 0 and scaled
    into [j/L, (j+1)/L]; those pieces are contiguous in edge order.  A
    vertex inside slot j maps onto the matching inner vertex of |s|, one at
    a slot boundary onto the rose's vertex 0.  RuntimeError where two
    concatenated pieces cancel: the composite backtracks there.
    """
    # per direction: its signed piece labels, cut points and the vertices
    # at those points, from offset 0 to 1
    blocks: dict[int, tuple[list[int], list[Fraction], list[int]]] = {}
    for (u, v, l), (e, _, hi, ascending) in zip(previous.graph.edges, previous.edge_meta):
        labels, cuts, ends = blocks.setdefault(e, ([], [Fraction(0)], [0]))
        labels.append(l if ascending else -l)
        cuts.append(hi)
        ends.append(v if ascending else u)
    for e, (labels, cuts, ends) in list(blocks.items()):
        # 1 − t, and below (j + t)/L, each built as one Fraction: half the
        # cost of Fraction arithmetic
        flipped = [Fraction(t.denominator - t.numerator, t.denominator) for t in reversed(cuts)]
        blocks[-e] = ([-l for l in reversed(labels)], flipped, ends[::-1])

    vertex_point: list[Point] = [("v", 0)]
    images = [0]
    edges: list[tuple[int, int, int]] = []
    metas: list[tuple[int, Fraction, Fraction, bool]] = []
    for e, path in enumerate(f.edge_map, 1):
        labels, cuts, ends = [], [Fraction(0)], [0]
        width = len(path)
        for j, s in enumerate(path):
            block_labels, block_cuts, block_ends = blocks[s]
            if labels and labels[-1] == -block_labels[0]:
                raise RuntimeError("subdivision points do not match the image path")
            labels += block_labels
            cuts += [
                Fraction(j * t.denominator + t.numerator, width * t.denominator)
                for t in block_cuts[1:]
            ]
            ends += block_ends[1:]
        first = len(vertex_point)
        nodes = [0, *range(first, first + len(labels) - 1), 0]
        vertex_point += [("e", e, t) for t in cuts[1:-1]]
        images += ends[1:-1]
        for a, b, l, lo, hi in zip(nodes, nodes[1:], labels, cuts, cuts[1:]):
            edges.append((a, b, l) if l > 0 else (b, a, -l))
            metas.append((e, lo, hi, l > 0))
    graph = LabeledGraph(f.codomain.num_edges, len(vertex_point), tuple(edges))
    return Subdivided(graph, tuple(vertex_point), tuple(metas)), images


def subdivide_level(f: GraphMap, level: int) -> Subdivided:
    """Subdivide the domain of the power ``f^level``: ``level`` steps of
    :func:`_refine` from the bare rose.  RuntimeError if the composite
    backtracks."""
    if level < 1:
        raise ValueError("level must be >= 1")
    sub = _rose_level(f.domain.num_edges)
    for _ in range(level):
        sub, _ = _refine(f, sub)
    return sub


def as_product_factor(g: LabeledGraph) -> Subdivided:
    """Wrap a folded labeled graph (an immersion over the rose) as a factor."""
    clash = label_clash(g)
    if clash is not None:
        raise ValueError(f"input is not an immersion: label clash at vertex {clash}")
    return Subdivided(
        g,
        tuple(zip(repeat("v"), range(g.num_vertices))),
        tuple(
            zip(range(1, len(g.edges) + 1), repeat(Fraction(0)), repeat(Fraction(1)), repeat(True))
        ),
    )


class ProductComponent(NamedTuple):
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
class ProductPairs(Sequence):
    """The pairs (x, y), x < na and y < nb, x major: pair v is
    ``divmod(v, nb)``, and ``index((x, y))`` is ``x * nb + y``."""

    na: int
    nb: int

    def __len__(self) -> int:
        return self.na * self.nb

    def __getitem__(self, v: int) -> tuple[int, int]:
        return divmod(range(len(self))[v], self.nb)

    def index(self, pair: tuple[int, int]) -> int:
        x, y = pair
        if not (0 <= x < self.na and 0 <= y < self.nb):
            raise ValueError(f"{pair!r} is not in the product's vertex pairs")
        return x * self.nb + y


@dataclass(frozen=True)
class FiberProduct:
    """Combinatorial fiber product of two subdivided immersions.

    ``vertex_pairs`` is a :class:`ProductPairs`: product vertex v is the
    pair ``divmod(v, nb)`` of a left and a right vertex, with nb the right
    factor's vertex count.
    """

    graph: LabeledGraph
    vertex_pairs: ProductPairs
    edge_pairs: tuple[tuple[int, int], ...]
    left: Subdivided
    right: Subdivided

    def components(self) -> tuple[ProductComponent, ...]:
        return _product_components(self)


def check_product_size(total: int, max_edges: int) -> None:
    """ProductBudgetError if a product of ``total`` edges exceeds ``max_edges``."""
    if total > max_edges:
        raise ProductBudgetError(
            f"fiber product would have {total} edges (budget {max_edges})"
        )


def _check_budget(a: LabeledGraph, b: LabeledGraph, max_edges: int) -> None:
    """ProductBudgetError if the product of ``a`` and ``b`` would have more
    than ``max_edges`` edges: one for each two edges with equal labels."""
    counts = (letter_counts([l for _, _, l in g.edges], g.rank) for g in (a, b))
    check_product_size(sum(map(mul, *counts)), max_edges)


def _label_blocks(a: LabeledGraph, b: LabeledGraph, max_edges: int) -> list[tuple]:
    """Per label both factors carry, ascending: ``(label, [(i, ua·nb, va·nb)],
    (js, ubs, vbs))`` over the edges of ``a``, and the columns of ``b``'s
    edges (j, ub, vb); the budget is checked first."""
    _check_budget(a, b, max_edges)
    nb = b.num_vertices
    by_label_a: dict[int, list[tuple[int, int, int]]] = {}
    for i, (ua, va, l) in enumerate(a.edges):
        by_label_a.setdefault(l, []).append((i, ua * nb, va * nb))
    by_label_b: dict[int, list[tuple[int, int, int]]] = {}
    for j, (ub, vb, l) in enumerate(b.edges):
        by_label_b.setdefault(l, []).append((j, ub, vb))
    return [
        (l, by_label_a[l], tuple(zip(*by_label_b[l])))
        for l in sorted(by_label_b)
        if l in by_label_a
    ]


def product_components(
    a: LabeledGraph, b: LabeledGraph, max_edges: int = MAX_PRODUCT_EDGES
) -> Iterator[tuple[int, list[tuple[int, int, int, int, int]]]]:
    """The components with edges of the fiber product of ``a`` and ``b``,
    walked one at a time, least vertex first.

    Both factors must be folded, so each has a step table (vertex, signed
    label) -> (neighbour, edge index) with one entry per key, and product
    vertex (x, y) steps along each signed label that x and y share.  Walks
    are seeded in increasing product-vertex id, as :func:`fiber_product`
    numbers them, and only at pairs whose signed labels meet, so each seed
    is the least vertex of its component and isolated product vertices are
    never visited.  A component comes as ``(vertices, edges)``: its vertex
    count, and its edges as ``(label, i, j, u, v)``, each recorded once,
    from its source u; sorted, they are in :func:`fiber_product`'s order.
    The budget is checked when this is called, before any table is built:
    ProductBudgetError if the product would have more than ``max_edges``
    edges.
    """
    _check_budget(a, b, max_edges)
    return _walk_components(a, b)


def _step_table(g: LabeledGraph) -> list[dict[int, tuple[int, int]]]:
    """Per vertex of a folded graph: signed label -> (neighbour, edge index)."""
    steps: list[dict[int, tuple[int, int]]] = [{} for _ in range(g.num_vertices)]
    for i, (u, v, l) in enumerate(g.edges):
        steps[u][l] = (v, i)
        steps[v][-l] = (u, i)
    return steps


def _walk_components(
    a: LabeledGraph, b: LabeledGraph
) -> Iterator[tuple[int, list[tuple[int, int, int, int, int]]]]:
    steps_a, steps_b = _step_table(a), _step_table(b)
    nb = b.num_vertices
    having: dict[int, list[int]] = {}  # signed label -> vertices of b with it
    for y, out in enumerate(steps_b):
        for s in out:
            having.setdefault(s, []).append(y)
    seen: set[int] = set()
    for x, out in enumerate(steps_a):
        for y in sorted({y for s in out for y in having.get(s, ())}):
            seed = x * nb + y
            if seed in seen:
                continue
            before = len(seen)
            seen.add(seed)
            stack = [(x, y)]
            edges: list[tuple[int, int, int, int, int]] = []
            while stack:
                x0, y0 = stack.pop()
                out_b = steps_b[y0]
                for s, (x1, i) in steps_a[x0].items():
                    hit = out_b.get(s)
                    if hit is None:
                        continue
                    y1, j = hit
                    v = x1 * nb + y1
                    if s > 0:
                        edges.append((s, i, j, x0 * nb + y0, v))
                    if v not in seen:
                        seen.add(v)
                        stack.append((x1, y1))
            yield len(seen) - before, edges


def bfs_tree(
    out: Callable[[int], Iterable[tuple[int, int]]], root: int, until: Sequence[int] = ()
) -> dict[int, tuple[int, int]]:
    """A breadth-first spanning tree of the component of ``root``.

    ``out(v)`` gives v's ``(step, neighbour)`` pairs in the order the walk
    takes them; a step is a nonzero signed id whose negation steps back.
    Returns vertex -> (parent, step from the parent), in discovery order,
    the root first as its own parent with step 0.  With ``until``, the walk
    stops at the first vertex it would visit after every vertex named there
    is found: a vertex's parent is fixed when it is found, so their paths
    are the whole tree's.
    """
    parent = {root: (root, 0)}
    missing = set(until) - {root}
    queue = [root]
    for v in queue:  # the loop also visits the vertices appended to queue
        if until and not missing:
            break
        for s, w in out(v):
            if w not in parent:
                parent[w] = (v, s)
                queue.append(w)
                missing.discard(w)
    return parent


def tree_path(parent: dict[int, tuple[int, int]], v: int) -> list[int]:
    """The steps of the :func:`bfs_tree` path from the root down to ``v``."""
    steps = []
    v, s = parent[v]
    while s:
        steps.append(s)
        v, s = parent[v]
    steps.reverse()
    return steps


def incidence_lists(ends: Sequence[tuple[int, int]]) -> dict[int, list[tuple[int, int]]]:
    """Per vertex of a graph given by its edges ``(u, v)``, its ``(signed
    id, neighbour)`` incidences in edge order: edge k is the signed id k + 1
    read from u to v and −(k + 1) from v to u."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for k, (u, v) in enumerate(ends, 1):
        adj.setdefault(u, []).append((k, v))
        adj.setdefault(v, []).append((-k, u))
    return adj


def fiber_product(
    left: Union[Subdivided, LabeledGraph],
    right: Union[Subdivided, LabeledGraph],
    max_edges: int = MAX_PRODUCT_EDGES,
) -> FiberProduct:
    """Fiber product over the rose of the factors' rank.

    Accepts ready factors (:func:`subdivide_level`)
    or folded labeled graphs over a rose.  Product vertex ``x * nb + y`` is
    the pair (x, y), with nb the right factor's vertex count, so
    ``vertex_pairs`` lists the pairs with x major.  Each edge pairs edge i
    of the left factor with edge j of the right one carrying the same
    label, ordered by label, then i, then j.  The budget is checked before
    anything is built: ProductBudgetError if the product would have more
    than ``max_edges`` edges.  If both factors carry basepoints, the
    product is based at their pair.
    """
    a = _coerce_factor(left)
    b = _coerce_factor(right)
    if a.graph.rank != b.graph.rank:
        raise ValueError("factors have different codomains")
    edges: list[tuple[int, int, int]] = []
    edge_pairs: list[tuple[int, int]] = []
    for l, block_a, (js, ubs, vbs) in _label_blocks(a.graph, b.graph, max_edges):
        for i, ua, va in block_a:
            edges += zip(map(ua.__add__, ubs), map(va.__add__, vbs), repeat(l))
            edge_pairs += zip(repeat(i), js)
    nb = b.graph.num_vertices
    pairs = ProductPairs(a.graph.num_vertices, nb)

    basepoint = None
    if a.graph.basepoint is not None and b.graph.basepoint is not None:
        basepoint = a.graph.basepoint * nb + b.graph.basepoint
    graph = LabeledGraph(a.graph.rank, len(pairs), tuple(edges), basepoint)
    return FiberProduct(graph, pairs, tuple(edge_pairs), a, b)


def _coerce_factor(x: Union[Subdivided, LabeledGraph]) -> Subdivided:
    if isinstance(x, Subdivided):
        return x
    if isinstance(x, LabeledGraph):
        return as_product_factor(x)
    raise TypeError(f"cannot use {type(x).__name__} as a product factor")


# --- component analysis with subdivision-invariant signatures ---


def _incidences(n: int, edges: Sequence[tuple[int, int, int]]) -> tuple[array, array]:
    """Compressed incidences of a graph on ``n`` vertices: vertex v's are
    ``inc[start[v]:start[v + 1]]``, in edge order, the signed id k + 1 at
    edge k's source and −(k + 1) at its target."""
    degree = [0] * n
    for u, v, _ in edges:
        degree[u] += 1
        degree[v] += 1
    start = array("l", accumulate(degree, initial=0))
    fill = start.tolist()
    inc = array("l", [0]) * (2 * len(edges))
    for k, (u, v, _) in enumerate(edges, 1):
        inc[fill[u]] = k
        fill[u] += 1
        inc[fill[v]] = -k
        fill[v] += 1
    return start, inc


def _product_components(fp: FiberProduct) -> tuple[ProductComponent, ...]:
    """Components by least vertex, with their subdivision-invariant
    signatures: intrinsic vertices and arcs.

    One flat pass over the product.  Vertices are visited in the order of
    their point pair keys, x's key major: a vertex without edges is a
    component, with its point pair as signature, and the intrinsic ones are
    kept with their keys.  Arcs are then walked from the intrinsic vertices
    component by component, in key order within each, so each arc is first
    reached from its endpoint with the lesser key, and the walk meets every
    other vertex and edge of its component once.  Only the component being
    walked has containers.
    """
    g = fp.graph
    n, edges = g.num_vertices, g.edges
    na, nb = fp.vertex_pairs.na, fp.vertex_pairs.nb
    edge_pairs = fp.edge_pairs
    left, right = fp.left, fp.right
    key_l, key_r = left.point_keys, right.point_keys
    on_l, on_r = left.on_vertex, right.on_vertex
    seg_l_of, seg_r_of = left.segments, right.segments
    labels = component_labels(g)
    start, inc = _incidences(n, edges)

    out: list = [None] * (max(labels) + 1 if n else 0)
    intrinsic = {}  # product vertex -> its point pair key, in key order
    order_r = sorted(range(nb), key=key_r.__getitem__)
    for x in sorted(range(na), key=key_l.__getitem__):
        kx, ox, base = key_l[x], on_l[x], x * nb
        for y in order_r:
            v = base + y
            d = start[v + 1] - start[v]
            if not d:
                out[labels[v]] = ProductComponent((v,), (), 0, (((kx, key_r[y]),), ()), x == y)
            elif ox or on_r[y] or d != 2:
                intrinsic[v] = (kx, key_r[y])

    diagonal = {labels[v] for v in range(0, min(na, nb) * (nb + 1), nb + 1)}
    walked = bytearray(len(edges))  # edges on arcs already recorded
    for c, firsts in groupby(sorted(intrinsic, key=labels.__getitem__), labels.__getitem__):
        verts, comp_edges, keys, arcs = [], [], [], []
        for v0 in firsts:
            key0 = intrinsic[v0]
            verts.append(v0)
            keys.append(key0)
            for s in inc[start[v0] : start[v0 + 1]]:
                # walking away from v0 along the edge runs with its stored
                # orientation at its source (s > 0), against it at its target
                k = abs(s) - 1
                if walked[k]:
                    continue
                i, j = edge_pairs[k]
                el, al, bl = seg_l_of[i][s < 0]
                er, ar, br = seg_r_of[j][s < 0]
                while True:
                    walked[k] = 1
                    comp_edges.append(k)
                    pos = edges[k][s > 0]
                    if pos in intrinsic:
                        break
                    # a non-intrinsic vertex has valence two: continue through
                    # the incidence we did not arrive by, chaining its segments
                    verts.append(pos)
                    first = start[pos]
                    s = inc[first + 1] if inc[first] == -s else inc[first]
                    k = abs(s) - 1
                    i, j = edge_pairs[k]
                    e2, a2, b2 = seg_l_of[i][s < 0]
                    e3, a3, b3 = seg_r_of[j][s < 0]
                    if e2 != el or a2 != bl or e3 != er or a3 != br:
                        raise RuntimeError("arc left its edge without an intrinsic vertex")
                    bl, br = b2, b3
                arc = (key0, intrinsic[pos], (el, al, bl), (er, ar, br))
                if pos == v0:
                    arc = min(arc, (key0, key0, (el, bl, al), (er, br, ar)))
                arcs.append(arc)
        verts.sort()
        comp_edges.sort()
        arcs.sort()
        out[c] = ProductComponent(
            tuple(verts),
            tuple(comp_edges),
            len(comp_edges) - len(verts) + 1,
            (tuple(keys), tuple(arcs)),
            c in diagonal,
        )
    if 0 in walked:
        raise RuntimeError("component without intrinsic vertices; product structure violated")
    return tuple(out)


# --- the filtration and stabilization ---


@dataclass(frozen=True)
class PullbackLevel:
    index: int
    product: FiberProduct
    components: tuple[ProductComponent, ...]
    in_previous: tuple[bool, ...]


@dataclass(frozen=True)
class PullbackFiltration:
    levels: tuple[PullbackLevel, ...]

    def level(self, i: int) -> PullbackLevel:
        if not (1 <= i <= len(self.levels)):
            raise ValueError(f"filtration computed to depth {len(self.levels)}, not {i}")
        return self.levels[i - 1]


def _level_flags(comps, images: list[int]) -> tuple[bool, ...]:
    """Per component of a level's self-product: does it lie in the previous
    level?  A product vertex (x, y) does iff f^(i−1) identifies x and y,
    i.e. ``images[x] == images[y]``; ``inside`` holds that per vertex id.

    Containment must be all-or-nothing per component; a mixed component
    violates the inclusion structure and raises.
    """
    inside = list(chain.from_iterable(map(image.__eq__, images) for image in images))
    flags = []
    for comp in comps:
        if len(comp.vertex_ids) == 1:
            flags.append(inside[comp.vertex_ids[0]])
            continue
        votes = set(map(inside.__getitem__, comp.vertex_ids))
        if len(votes) != 1:
            raise RuntimeError(
                "component mixes points inside and outside the previous level"
            )
        flags.append(votes.pop())
    return tuple(flags)


def pullback_filtration(
    f: GraphMap, i_max: int, max_edges: int = MAX_PRODUCT_EDGES
) -> PullbackFiltration:
    """Levels Γ×_{f^i}Γ for i = 1..i_max with inclusion bookkeeping.

    Each level's subdivision is one :func:`_refine` step from the one
    before, which also gives each vertex's f-image there; composed with the
    level below's, those give the f^(i−1) image ids that decide which
    components lie in the previous level.  Asserts structurally that every
    component of a level reappears in the next one (the carried signatures
    equal the previous level's as multisets), and that the diagonal is a
    union of components isomorphic to the domain.
    """
    if not is_immersion(f):
        raise ValueError("map is not an immersion: direction clash at vertex 0")
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    levels = []
    prev_signatures: Optional[Counter] = None
    sub = _rose_level(f.domain.num_edges)
    images: list[int] = []
    for i in range(1, i_max + 1):
        sub, f_images = _refine(f, sub)
        # f^0 is the identity; f^(i−1)(v) is f^(i−2) of v's f-image
        images = list(range(len(f_images))) if i == 1 else [images[k] for k in f_images]
        fp = fiber_product(sub, sub, max_edges=max_edges)
        comps = fp.components()
        flags = _level_flags(comps, images)
        for comp, flag in zip(comps, flags):
            if comp.contains_diagonal and not flag:
                raise RuntimeError("diagonal component escaped the previous level")
        signatures = [c.signature for c in comps]
        if prev_signatures is not None and Counter(compress(signatures, flags)) != prev_signatures:
            raise RuntimeError(f"level {i - 1} components do not persist into level {i}")
        prev_signatures = Counter(signatures)
        levels.append(PullbackLevel(i, fp, comps, flags))
    return PullbackFiltration(tuple(levels))


@dataclass(frozen=True)
class ComponentReport:
    rank: int
    classification: str  # tree | single_loop | higher_rank
    vertex_count: int
    edge_count: int
    core_vertex_count: int
    core_edge_count: int


def _core_counts(g: LabeledGraph, comp: ProductComponent) -> tuple[int, int]:
    """Vertex and edge counts of the core of a component of ``g``, built
    from the component's own edges, its vertices renumbered in order."""
    index = {v: i for i, v in enumerate(comp.vertex_ids)}
    edges = sorted((index[u], index[v], l) for u, v, l in map(g.edges.__getitem__, comp.edge_ids))
    c = core(LabeledGraph(g.rank, len(index), tuple(edges)), keep_basepoint=False)
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


WalkedEdge = tuple  # (label, i, j, u, v), as product_components gives it


def _project_cycle(
    sub: Subdivided, edges: list[WalkedEdge], cycle: list[int], side: int
) -> Path:
    """Free homotopy class of a product cycle's projection to one factor
    (``side`` 0 or 1), as a tight cyclic path of full parent edges.

    The cycle is signed ids of ``edges`` from the tree's root
    (:func:`_fundamental_cycles`).  The projection is tightened in the
    subdivision first, which also drops the path from the root.  The
    subdivision's vertices inside a petal have valence two, so a tight
    cyclic path leaves a petal only at the rose's vertex: it is a cyclic
    sequence of complete petal crossings, and each crossing is read off
    the piece that ends it, one that reaches offset 1 ascending or offset
    0 descending.
    """
    pieces = cyclic_core(
        free_reduce((edges[abs(k) - 1][1 + side] + 1) * (1 if k > 0 else -1) for k in cycle)
    )
    letters = []
    for signed in pieces:
        e, lo, hi, ascending = sub.edge_meta[abs(signed) - 1]
        if ascending == (signed > 0):
            if hi == 1:
                letters.append(e)
        elif lo == 0:
            letters.append(-e)
    return tuple(letters)


def _fundamental_cycles(edges: list[WalkedEdge]) -> list[list[int]]:
    """Up to eight fundamental cycles of a walked component, as signed
    edge ids from the root of the :func:`bfs_tree` of its
    :func:`incidence_lists`, at its least vertex, one per non-tree edge in
    product order; ``edges`` are the component's edges sorted into product
    order."""
    adj = incidence_lists([(u, v) for _, _, _, u, v in edges])
    parent = bfs_tree(adj.__getitem__, min(adj))
    tree = {abs(s) for _, s in parent.values()}
    cycles = []
    for k, (_, _, _, u, v) in enumerate(edges, 1):
        if k in tree:
            continue
        back = [-s for s in reversed(tree_path(parent, v))]
        cycles.append(tree_path(parent, u) + [k] + back)
        if len(cycles) >= 8:
            break
    return cycles


def _least_rotated(p: Path) -> Path:
    k = least_rotation(p)
    return p[k:] + p[:k]


def _canonical_loop(p: Path) -> Path:
    if not p:
        return p
    return min(_least_rotated(p), _least_rotated(tuple(-x for x in reversed(p))))


LENGTH_GUARD = 200_000  # letters in the longest iterate the search builds
TABLE_LEVELS = 8  # the deepest power f^j the search tables
TABLE_ENTRY_BOUND = 4_096  # letters in the longest entry of a table above f's


def _power_tables(f: GraphMap) -> list[dict[str, str]]:
    """Tables T_1..T_J for the invariant-loop search: T_j maps each signed
    letter s, encoded as ``chr(s + rank + 1)``, to f^j(s) encoded the same way.

    T_1 is f itself.  T_j for j > 1 is joined from T_(j−1) and T_1, and is
    built only while j ≤ :data:`TABLE_LEVELS`, its longest entry has at
    most :data:`TABLE_ENTRY_BOUND` letters and all its entries together at
    most :data:`LENGTH_GUARD`, so no level outgrows the longest iterate.
    Those lengths are decided before the level is built: an immersion's
    images do not cancel, so f^j(e) and its reverse have as many letters
    as column e of M^j sums to, with M the transition matrix of f, and
    that column sum is the sum over the letters x of f(e) of |f^(j−1)(x)|.
    """
    offset = f.domain.num_edges + 1
    first = {
        chr(s + offset): "".join(chr(x + offset) for x in image)
        for s, image in f.signed_images.items()
    }
    tables = [first]
    lengths = [len(image) for image in f.edge_map]  # column sums of M^j
    while len(tables) < TABLE_LEVELS:
        lengths = [sum(lengths[abs(x) - 1] for x in image) for image in f.edge_map]
        if max(lengths) > TABLE_ENTRY_BOUND or 2 * sum(lengths) > LENGTH_GUARD:
            break
        below = tables[-1]
        tables.append({c: "".join(map(below.__getitem__, image)) for c, image in first.items()})
    return tables


def _image_through(table: dict[str, str], loop: str) -> str:
    """The image of an encoded loop under the power of f that ``table``
    holds: one C-level copy per letter, and no cancellation to undo."""
    return "".join(map(table.__getitem__, loop))


def _invariant_loop(
    f: GraphMap, gamma: Path, cap: int, tables: list[dict[str, str]]
) -> Optional[StabilizationVerdict]:
    """The first pair k < kp ≤ cap, in (kp, k) order, with f^kp(γ) a
    rotation of (f^k(γ))^d, as an invariant-loop verdict; see
    :func:`stabilization_power`.

    Iterates are strings in the encoding of :func:`_power_tables`, and
    iterate kp is built through T_j from iterate kp − j, with j the smaller
    of kp and the deepest table level.  The search gives up at the first
    iterate longer than :data:`LENGTH_GUARD` letters, and checks that
    before the iterate is built: f^kp(γ) has Σ_e |f^kp(e)|·c_e letters,
    where c counts γ's letters per edge, and |f^kp(e)| is the sum over the
    letters x of f(e) of |f^(kp−1)(x)|.  Only the witness loop is decoded
    to a path.
    """
    offset = f.domain.num_edges + 1
    counts = letter_counts(gamma, f.domain.num_edges)
    lengths = [1] * f.domain.num_edges  # |f^kp(e)| per edge e
    iterates = ["".join(chr(s + offset) for s in gamma)]
    roots = [primitive_root(iterates[0])]
    for kp in range(1, cap + 1):
        lengths = [sum(lengths[abs(x) - 1] for x in image) for image in f.edge_map]
        if not 0 < sum(map(mul, lengths, counts)) <= LENGTH_GUARD:
            return None
        j = min(kp, len(tables))
        nxt = _image_through(tables[j - 1], iterates[kp - j])
        iterates.append(nxt)
        period, exponent = primitive_root(nxt)
        roots.append((period, exponent))
        for k in range(kp):
            if roots[k][0] != period or exponent % roots[k][1]:
                continue
            root = iterates[k][:period]
            if nxt[:period] in root + root:
                return StabilizationVerdict(
                    "invariant_loop",
                    loop=tuple(ord(c) - offset for c in iterates[k]),
                    degree=exponent // roots[k][1],
                    power=kp - k,
                )
    return None


def stabilization_power(f: GraphMap, cap: int = 16) -> StabilizationVerdict:
    """Decide whether the pullback difference of some power is loop-free.

    For an immersion, an off-diagonal loop pair at one power yields one at
    every power (apply f, resp. factor through it), so the difference of
    Γ×_{f^N}Γ is loop-free for some N exactly when it is at N = 1; the
    smallest such N is then 1.  Otherwise the verdict is an invariant-loop
    witness (γ, d) with [f^k(γ)] = [γ^d] — the Baumslag–Solitar obstruction —
    found by iterating candidate loop classes up to ``cap``, or cap_exceeded
    with the surviving components for diagnostics.

    Level 1 is read from :func:`product_components` on the subdivision of f,
    one component at a time, as in the disjointness gate; signatures, which
    only the filtration needs, are never built.  A product over
    :data:`MAX_PRODUCT_EDGES` edges gives cap_exceeded with the surviving
    entry "product budget exceeded".  A component is dirty when
    it has as many edges as vertices and no vertex (x, x) of the diagonal.
    The candidate loops are the projections to both factors of up to eight
    fundamental cycles per dirty component (:func:`_fundamental_cycles`),
    then each single edge.

    The search works on whole iterates, as strings with one code point per
    signed letter, with no Python step per letter of an iterate.  A cyclic
    word p is a rotation of q^d exactly when their primitive roots have the
    same length, exp(p) = d·exp(q), and the roots are rotations of each
    other (Lyndon–Schützenberger).  Tables of f^j for j up to eight
    (:func:`_power_tables`) are built once per call, so each iterate is
    joined from the table entries of the letters of an iterate up to eight
    powers below it (:func:`_image_through`).  Each iterate is reduced once
    to its (period, exponent) by slice comparisons (:func:`primitive_root`),
    and only a pair that passes both integer tests compares its roots: r' is
    a rotation of r, of equal length, exactly when r' is a substring of rr.
    Pairs are scanned in (kp, k) order as each iterate is built, and the
    search maps no further than its first witness.
    """
    if not is_immersion(f):
        raise ValueError("map is not an immersion: direction clash at vertex 0")
    sub = subdivide_level(f, 1)
    diagonal = sub.graph.num_vertices + 1  # (x, x) has id x·diagonal
    try:
        components = product_components(sub.graph, sub.graph, MAX_PRODUCT_EDGES)
    except ProductBudgetError:
        return StabilizationVerdict("cap_exceeded", surviving=("product budget exceeded",))
    dirty = [
        (vertices, sorted(edges))
        for vertices, edges in components
        if len(edges) >= vertices
        and all(u % diagonal and v % diagonal for _, _, _, u, v in edges)
    ]
    if not dirty:
        return StabilizationVerdict("stabilized_at", n=1)

    candidates: list[Path] = []
    seen_classes: set[Path] = set()
    for _, edges in dirty:
        for cycle in _fundamental_cycles(edges):
            for side in (0, 1):
                loop = _project_cycle(sub, edges, cycle, side)
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

    tables = _power_tables(f)
    for gamma in candidates:
        found = _invariant_loop(f, gamma, cap, tables)
        if found is not None:
            return found
    surviving = tuple(
        (len(edges) - vertices + 1, vertices, len(edges)) for vertices, edges in dirty
    )
    return StabilizationVerdict("cap_exceeded", surviving=surviving)
