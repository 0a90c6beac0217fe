"""Essential disjointness of endomorphism images, and preimages in images.

The images φ_i^N(F_n) are represented by based Stallings graphs.  Whether
H ∩ gKg⁻¹ is trivial for *every* g is decided exactly on the basepoint-free
core fiber product: its components realize the conjugate intersections double
coset by double coset, so the universal statement holds iff no component has
positive rank.  The product is never built.  Its rank E − V + C is the number
of its edges that close a cycle, so its edges are streamed through a
union-find and the first one whose endpoints are already joined decides.  The
edge budget is checked first, before the union-find is allocated.

Preimages under φ^N are recovered without search when the images of the 2n
directions start with distinct letters (every immersed rose map qualifies):
products of image blocks concatenate without cancellation, so reading a word
left to right forces the block decomposition.  Otherwise a bounded
enumeration is used and completeness is not guaranteed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .pullback import ProductBudgetError, product_edges
from .stallings import (
    Edge,
    LabeledGraph,
    _UnionFind,
    core,
    graph_rank,
    is_folded,
    membership,
    subgroup_graph,
)
from .words import Endomorphism, Word, apply_endo, reduce


def block_table(e: Endomorphism) -> Optional[dict[int, tuple[int, tuple[int, ...]]]]:
    """First letter of each direction's image → (direction, image letters).

    Returns None when two directions share a first letter; then greedy
    decoding is not available.
    """
    table: dict[int, tuple[int, tuple[int, ...]]] = {}
    for i in range(1, e.rank + 1):
        img = e.images[i - 1].letters
        for s, block in ((i, img), (-i, tuple(-x for x in reversed(img)))):
            if block[0] in table:
                return None
            table[block[0]] = (s, block)
    return table


def decode_in_image(e: Endomorphism, w: Word) -> Optional[Word]:
    """The unique u with apply_endo(e, u) == w, for block-decodable e.

    Returns None if w is not in the image.  Raises if e is not decodable.
    """
    table = block_table(e)
    if table is None:
        raise ValueError("images do not start with distinct letters")
    letters = w.letters
    out = []
    i = 0
    while i < len(letters):
        hit = table.get(letters[i])
        if hit is None:
            return None
        s, block = hit
        if letters[i : i + len(block)] != block:
            return None
        out.append(s)
        i += len(block)
    return Word(tuple(out), e.rank)


def _enumerate_preimage(e: Endomorphism, w: Word, bound: int) -> Optional[Word]:
    stack: list[tuple[int, ...]] = [()]
    while stack:
        u = stack.pop()
        if u and apply_endo(e, Word(u, e.rank)) == w:
            return Word(u, e.rank)
        if len(u) == bound:
            continue
        for s in range(-e.rank, e.rank + 1):
            if s == 0 or (u and u[-1] == -s):
                continue
            stack.append(u + (s,))
    return None if w.letters else Word((), e.rank)


@dataclass(frozen=True)
class ImageSubgroup:
    """Based Stallings graph of φ^N(F_n) with preimage bookkeeping.

    ``basis_loops`` are the basepoint loops of a spanning-tree basis (one per
    non-tree edge); ``basis_preimages`` holds u with apply_endo(φ^N, u) equal
    to the loop word, or None where no preimage could be certified.
    """

    endomorphism: Endomorphism
    power: int
    graph: LabeledGraph
    basis_edges: tuple[int, ...]
    basis_loops: tuple[Word, ...]
    basis_preimages: tuple[Optional[Word], ...]

    @property
    def rank(self) -> int:
        return self.endomorphism.rank


def _access_words(g: LabeledGraph, root: int) -> dict[int, tuple[int, ...]]:
    """Reduced word read along a BFS path from root, per reachable vertex."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for u, v, l in g.edges:
        adj.setdefault(u, []).append((l, v))
        adj.setdefault(v, []).append((-l, u))
    out: dict[int, tuple[int, ...]] = {root: ()}
    queue = [root]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for s, w in sorted(adj.get(v, ())):
            if w not in out:
                out[w] = out[v] + (s,)
                queue.append(w)
    return out


def image_subgroup(e: Endomorphism, n: int) -> ImageSubgroup:
    """Folded based graph of φ^n(F_n) with a spanning-tree loop basis."""
    if n < 1:
        raise ValueError("power must be >= 1")
    powered = e.power(n)
    graph = subgroup_graph(list(powered.images), e.rank)
    if graph_rank(core(graph, keep_basepoint=False)) < e.rank:
        warnings.warn("endomorphism is not injective; image has smaller rank")
    for img in powered.images:
        if not membership(graph, img):
            raise RuntimeError("generator image is not a closed basepoint loop")

    access = _access_words(graph, graph.basepoint)
    # an edge belongs to the BFS tree iff it realizes the access word of one
    # of its endpoints; the rest index the spanning-tree loop basis
    basis_edges = []
    basis_loops = []
    for idx, (u, v, l) in enumerate(graph.edges):
        if access[v] == access[u] + (l,) or access[u] == access[v] + (-l,):
            continue
        basis_edges.append(idx)
        loop = access[u] + (l,) + tuple(-x for x in reversed(access[v]))
        basis_loops.append(reduce(loop, e.rank))

    decodable = block_table(powered) is not None
    preimages: list[Optional[Word]] = []
    for loop in basis_loops:
        if decodable:
            u = decode_in_image(powered, loop)
            if u is None:
                raise RuntimeError("basis loop escaped the image it generates")
            preimages.append(u)
        else:
            preimages.append(_enumerate_preimage(powered, loop, bound=6))
    return ImageSubgroup(
        e, n, graph, tuple(basis_edges), tuple(basis_loops), tuple(preimages)
    )


def _as_graph(x: Union[ImageSubgroup, LabeledGraph]) -> LabeledGraph:
    return x.graph if isinstance(x, ImageSubgroup) else x


def _free_core(g: LabeledGraph) -> LabeledGraph:
    unbased = LabeledGraph(g.rank, g.num_vertices, g.edges, None)
    return core(unbased, keep_basepoint=False)


def all_conjugates_trivial_intersection(
    h: Union[ImageSubgroup, LabeledGraph],
    k: Union[ImageSubgroup, LabeledGraph],
    max_edges: int = 500_000,
) -> bool:
    """True iff H ∩ gKg⁻¹ = {e} for every g in the ambient free group.

    Decided on the basepoint-free core fiber product, whose components
    realize exactly the conjugate intersections: the answer is True iff the
    product has rank 0.  Its rank is the number of product edges that close
    a cycle, so the edges are streamed through a union-find, which stops at
    the first such edge.  Budget first: ProductBudgetError is raised if the
    product would exceed ``max_edges`` edges, before the union-find over its
    vertices is allocated.
    """
    a = _free_core(_as_graph(h))
    b = _free_core(_as_graph(k))
    if a.rank != b.rank:
        raise ValueError("subgroups live in free groups of different ranks")
    if not (is_folded(a) and is_folded(b)):
        raise ValueError("input is not an immersion: graph is not folded")
    edges = product_edges(a, b, max_edges)
    uf = _UnionFind(a.num_vertices * b.num_vertices)
    return all(uf.union(u, v) for u, v, _, _, _ in edges)


@dataclass(frozen=True)
class IntersectionWitness:
    pair: tuple[int, int]
    conjugator: Word
    element: Word
    component_rank: int


@dataclass(frozen=True)
class DisjointnessVerdict:
    kind: str  # "disjoint_at" | "not_disjoint_at_cap" | "cap_exceeded"
    n: Optional[int] = None
    witness: Optional[IntersectionWitness] = None
    note: str = ""


def _component_cycle(
    edges: Sequence[Edge], rank: int
) -> Optional[tuple[int, tuple[int, ...]]]:
    """The least vertex of a component and the label word of a cycle there.

    ``edges`` are the component's edges in product order; the cycle is the
    first non-tree edge met from a BFS tree rooted at the least vertex.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    for u, v, l in edges:
        adj.setdefault(u, []).append((v, l))
        adj.setdefault(v, []).append((u, -l))
    root = min(adj)
    parent_word: dict[int, tuple[int, ...]] = {root: ()}
    order = [root]
    qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        for w, s in adj[v]:
            if w not in parent_word:
                parent_word[w] = parent_word[v] + (s,)
                order.append(w)
    seen_pairs = set()
    for v in order:
        for w, s in adj[v]:
            key = (min(v, w), max(v, w), abs(s))
            if parent_word.get(w) == parent_word[v] + (s,) or parent_word.get(v) == parent_word[w] + (-s,):
                continue
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            cycle = parent_word[v] + (s,) + tuple(-x for x in reversed(parent_word[w]))
            letters = reduce(cycle, rank).letters
            if letters:
                return root, letters
    return None


def _intersection_witness(
    a: LabeledGraph,
    b: LabeledGraph,
    pair: tuple[int, int],
    max_edges: int = 500_000,
) -> Optional[IntersectionWitness]:
    """A conjugator g and nontrivial w ∈ H ∩ gKg⁻¹ from the based product.

    The witness comes from the product component with the least vertex id
    among those of positive rank.  One union-find pass over the streamed
    edges finds it: a union-find root is the least id of its class, and a
    class has positive rank iff one of its edges closed a cycle.  A second
    pass collects that component's edges in product order.  None if the
    product would exceed ``max_edges`` edges.
    """
    ca = core(a, keep_basepoint=True)
    cb = core(b, keep_basepoint=True)
    try:
        edges = product_edges(ca, cb, max_edges)
    except ProductBudgetError:
        return None
    uf = _UnionFind(ca.num_vertices * cb.num_vertices)
    closing = [u for u, v, _, _, _ in edges if not uf.union(u, v)]
    for root in sorted({uf.find(u) for u in closing}):
        comp = [
            (u, v, l)
            for u, v, l, _, _ in product_edges(ca, cb, max_edges)
            if uf.find(u) == root
        ]
        found = _component_cycle(comp, a.rank)
        if found is None:
            continue
        anchor, cycle_letters = found
        x, y = divmod(anchor, cb.num_vertices)
        ua = _access_words(ca, ca.basepoint)[x]
        ub = _access_words(cb, cb.basepoint)[y]
        g = reduce(ua + tuple(-s for s in reversed(ub)), a.rank)
        w = reduce(ua + cycle_letters + tuple(-s for s in reversed(ua)), a.rank)
        n_verts = len({z for u, v, _ in comp for z in (u, v)})
        return IntersectionWitness(pair, g, w, len(comp) - n_verts + 1)
    return None


def pairwise_disjoint_at(
    images: Sequence[ImageSubgroup], max_edges: int = 500_000
) -> Optional[tuple[int, int]]:
    """First pair (i, j) whose conjugate intersections are not all trivial."""
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if not all_conjugates_trivial_intersection(
                images[i], images[j], max_edges=max_edges
            ):
                return (i, j)
    return None


def essential_disjointness_power(
    endos: Sequence[Endomorphism], cap: int = 4, max_edges: int = 500_000
) -> DisjointnessVerdict:
    """Smallest N ≤ cap with all pairwise conjugate intersections trivial.

    Each N is tested independently (disjointness is not assumed monotone in
    N).  If every N fails, the verdict carries a witness from the last power.
    If the product budget ``max_edges`` is exhausted at a power n > 1, the
    powers 1..n−1 were each fully tested and failed, so the verdict is
    not_disjoint_at_cap for n − 1 with the witness from power n − 1 and a
    note naming n; exhausting it at power 1 yields cap_exceeded.  The
    witness is read off the based cores' product, which is larger than the
    free cores' one; if that product exceeds ``max_edges`` the witness is
    None.
    """
    if len(endos) < 2:
        raise ValueError("need at least two endomorphisms")
    ranks = {e.rank for e in endos}
    if len(ranks) != 1:
        raise ValueError("endomorphisms act on different ranks")
    last_failure: Optional[tuple[int, Sequence[ImageSubgroup], tuple[int, int]]] = None
    note = ""
    for n in range(1, cap + 1):
        try:
            # equal endomorphisms share one image graph
            built = {e: image_subgroup(e, n) for e in dict.fromkeys(endos)}
            images = [built[e] for e in endos]
            bad = pairwise_disjoint_at(images, max_edges=max_edges)
        except ProductBudgetError as exc:
            if last_failure is None:
                return DisjointnessVerdict("cap_exceeded", n=n, note=str(exc))
            note = (
                f"search budget exhausted at power {n}; "
                f"verdict covers powers 1..{n - 1}"
            )
            break
        if bad is None:
            return DisjointnessVerdict("disjoint_at", n=n)
        last_failure = (n, images, bad)
    n, images, (i, j) = last_failure
    witness = _intersection_witness(
        images[i].graph, images[j].graph, (i, j), max_edges=max_edges
    )
    return DisjointnessVerdict("not_disjoint_at_cap", n=n, witness=witness, note=note)


def preimage_in_image(
    e: Endomorphism, s: int, alpha: Word, search_bound: int = 6
) -> Optional[Word]:
    """β with apply_endo(e^s, β) conjugate to alpha, or None if no conjugate
    of alpha lies in φ^s(F_n).

    alpha must be cyclically reduced.  A conjugate of alpha lies in the image
    iff some rotation of alpha is a closed circuit in the core of the image
    graph; the based element is then decoded into generator blocks.
    """
    if s < 1:
        raise ValueError("power must be >= 1")
    if alpha.rank != e.rank:
        raise ValueError("word and endomorphism ranks differ")
    from .words import cyclic_reduce

    _, conj = cyclic_reduce(alpha)
    if conj.letters:
        raise ValueError("alpha must be cyclically reduced")
    powered = e.power(s)
    if not alpha.letters:
        return Word((), e.rank)
    graph = subgroup_graph(list(powered.images), e.rank)
    based_core = core(graph, keep_basepoint=True)
    steps = based_core.step_map
    access = _access_words(based_core, based_core.basepoint)
    letters = alpha.letters
    decodable = block_table(powered) is not None
    for r in range(len(letters)):
        rot = letters[r:] + letters[:r]
        for v in range(based_core.num_vertices):
            pos = v
            for sgn in rot:
                pos = steps.get((pos, sgn))
                if pos is None:
                    break
            if pos != v or v not in access:
                continue
            u = access[v]
            h = reduce(u + rot + tuple(-x for x in reversed(u)), e.rank)
            if decodable:
                beta = decode_in_image(powered, h)
            else:
                beta = _enumerate_preimage(powered, h, bound=search_bound)
            if beta is not None:
                return beta
    return None
