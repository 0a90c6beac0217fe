"""Essential disjointness of endomorphism images, and preimages in images.

The images φ_i^N(F_n) are represented by based Stallings graphs.  Whether
H ∩ gKg⁻¹ is trivial for *every* g is decided exactly on the basepoint-free
core fiber product: its components realize the conjugate intersections double
coset by double coset, so the universal statement holds iff no component has
positive rank.  The product is never built: its components are walked one at
a time from a step table per factor, least vertex first and only where the
factors' labels meet, and the first component with as many edges as vertices
decides.  On an identical pair that is the diagonal, walked first from vertex
0.  The edge budget is checked first, before any table is built; for an
immersion it is checked before the image is built at all, from letter
counts (:func:`essential_disjointness_power`).

Preimages under φ^N are recovered without search, which needs the images of
the 2n directions to start with distinct letters (every immersed rose map
qualifies): products of image blocks concatenate without cancellation, so
reading a word left to right forces the block decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Optional, Sequence

from .graphmap import GraphMap, letter_counts, transition_matrix
from .pullback import (
    MAX_PRODUCT_EDGES,
    ProductBudgetError,
    bfs_tree,
    check_product_size,
    component_tree,
    product_components,
    tree_path,
)
from .stallings import Edge, LabeledGraph, core, is_folded, subgroup_graph
from .words import Endomorphism, Word, cyclic_reduce, reduce


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
    return _decode_blocks(table, w)


def _decode_blocks(
    table: dict[int, tuple[int, tuple[int, ...]]], w: Word
) -> Optional[Word]:
    """Greedy block decoding of ``w`` against a :func:`block_table`."""
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
    return Word(tuple(out), w.rank)


@dataclass(frozen=True)
class ImageSubgroup:
    """Based Stallings graph of φ^N(F_n)."""

    endomorphism: Endomorphism
    power: int
    graph: LabeledGraph


def _label_tree(g: LabeledGraph) -> dict[int, tuple[int, int]]:
    """The :func:`pullback.bfs_tree` of g from its basepoint, each vertex
    taking its neighbours sorted by signed label; a step is a signed label."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for u, v, l in g.edges:
        adj.setdefault(u, []).append((l, v))
        adj.setdefault(v, []).append((-l, u))
    for out in adj.values():
        out.sort()
    return bfs_tree(adj, g.basepoint)


def image_subgroup(e: Endomorphism, n: int) -> ImageSubgroup:
    """Folded based graph of φ^n(F_n)."""
    if n < 1:
        raise ValueError("power must be >= 1")
    powered = e.power(n)
    return ImageSubgroup(e, n, subgroup_graph(list(powered.images), e.rank))


def _free_core_factor(g: LabeledGraph) -> LabeledGraph:
    """The basepoint-free core of ``g``, as a factor of the core product;
    ValueError if it is not folded."""
    c = core(g, keep_basepoint=False)
    if not is_folded(c):
        raise ValueError("input is not an immersion: graph is not folded")
    return c


def _cores_disjoint(a: LabeledGraph, b: LabeledGraph, max_edges: int) -> bool:
    """True iff no component of the product of the free cores ``a`` and
    ``b`` has as many edges as vertices; the walk stops at the first."""
    return all(len(edges) < vertices for vertices, edges in product_components(a, b, max_edges))


def all_conjugates_trivial_intersection(
    h: LabeledGraph, k: LabeledGraph, max_edges: int = MAX_PRODUCT_EDGES
) -> bool:
    """True iff H ∩ gKg⁻¹ = {e} for every g in the ambient free group.

    Decided on the basepoint-free core fiber product, whose components
    realize exactly the conjugate intersections: the answer is True iff no
    component has positive rank, that is, as many edges as vertices.  The
    components are walked one at a time (:func:`pullback.product_components`)
    and the first such one answers False, so a product of positive rank is
    walked only up to it, and one of rank 0 is walked whole.  Budget first:
    ProductBudgetError is raised if the product would exceed ``max_edges``
    edges, before any step table is built.
    """
    if h.rank != k.rank:
        raise ValueError("subgroups live in free groups of different ranks")
    return _cores_disjoint(_free_core_factor(h), _free_core_factor(k), max_edges)


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


def _component_cycle(edges: Sequence[Edge]) -> tuple[int, tuple[int, ...]]:
    """The least vertex of a component of positive rank and the label word
    of a cycle there, based at that vertex.

    ``edges`` are the component's edges in product order.  The cycle runs
    down the BFS tree of :func:`pullback.component_tree` to the first
    non-tree edge met, vertex by vertex in BFS order, across it and back up
    the tree.  It is a reduced closed path, and the product of two folded
    graphs is folded, so its label word is reduced and not empty.
    """
    adj, parent = component_tree([(u, v) for u, v, _ in edges])
    tree = {abs(s) for _, s in parent.values()}
    v, k, w = next((v, k, w) for v in parent for k, w in adj[v] if abs(k) not in tree)
    steps = tree_path(parent, v) + [k] + [-s for s in reversed(tree_path(parent, w))]
    root = next(iter(parent))
    return root, tuple(edges[s - 1][2] if s > 0 else -edges[-s - 1][2] for s in steps)


def _intersection_witness(
    a: LabeledGraph,
    b: LabeledGraph,
    pair: tuple[int, int],
    max_edges: int = MAX_PRODUCT_EDGES,
) -> Optional[IntersectionWitness]:
    """A conjugator g and nontrivial w ∈ H ∩ gKg⁻¹ from the based product.

    The witness comes from the product component with the least vertex id
    among those of positive rank.  The components are walked least vertex
    first (:func:`pullback.product_components`), so the walk ends at that
    component; its edges, sorted, are in product order.  On an identical
    pair it is the diagonal, walked first.  The cycle is read as signed
    edge ids off the component's tree (:func:`_component_cycle`), at its
    least vertex (x, y); the access words to x and y are the signed labels
    of the factors' :func:`_label_tree` paths, and g is ua·ub⁻¹ and w is
    ua·cycle·ua⁻¹.  Equal factors share one core and one tree.  None if
    the product would exceed ``max_edges`` edges.
    """
    ca = core(a, keep_basepoint=True)
    cb = ca if b == a else core(b, keep_basepoint=True)
    try:
        components = product_components(ca, cb, max_edges)
    except ProductBudgetError:
        return None
    for vertices, edges in components:
        if len(edges) < vertices:
            continue
        comp = [(u, v, l) for l, _, _, u, v in sorted(edges)]
        anchor, cycle_letters = _component_cycle(comp)
        x, y = divmod(anchor, cb.num_vertices)
        tree_a = _label_tree(ca)
        tree_b = tree_a if cb is ca else _label_tree(cb)
        ua = tuple(tree_path(tree_a, x))
        ub = tuple(tree_path(tree_b, y))
        g = reduce(ua + tuple(-s for s in reversed(ub)), a.rank)
        w = reduce(ua + cycle_letters + tuple(-s for s in reversed(ua)), a.rank)
        return IntersectionWitness(pair, g, w, len(comp) - vertices + 1)
    return None


def _image_and_core(e: Endomorphism, n: int) -> tuple[LabeledGraph, LabeledGraph]:
    """The based graph of φ^n(F_n) and its :func:`_free_core_factor`."""
    g = image_subgroup(e, n).graph
    return g, _free_core_factor(g)


def essential_disjointness_power(
    endos: Sequence[Endomorphism], cap: int = 4, max_edges: int = MAX_PRODUCT_EDGES
) -> DisjointnessVerdict:
    """Smallest N ≤ cap with all pairwise conjugate intersections trivial.

    Disjointness is monotone in N: φ^(n+1)(F_n) ⊆ φ^n(F_n), so a pair
    disjoint at n stays disjoint at every later power.  Each N is still
    tested in full, one power after another.  If every N fails, the
    verdict carries a witness from the last power.
    If the product budget ``max_edges`` is exhausted at a power n > 1, the
    powers 1..n−1 were each fully tested and failed, so the verdict is
    not_disjoint_at_cap for n − 1 with the witness from power n − 1 and a
    note naming n; exhausting it at power 1 yields cap_exceeded.  The
    witness is read off the based cores' product, which is larger than the
    free cores' one; if that product exceeds ``max_edges`` the witness is
    None.

    At each power the pairs are tested in order, up to the first that is
    not disjoint, and an image and its checked free core are built when a
    pair first needs them, once per power (equal endomorphisms share them).
    The budget of each pair is decided from the per-label edge counts of
    the two free cores before an immersion's image is built.  For an
    immersion φ (:func:`block_table` is not None), φ^n is an immersion
    too, so its generator loops fold nowhere and the free core of φ^n(F_n)
    has exactly (M^n·1)_l edges labelled l, with M the transition matrix
    of φ; every letter starts the image of some direction, so each count
    is at least 1 and no image built has more than ``max_edges`` edges.  Any other endomorphism's image is built and
    its core counted.  A pair over the budget raises the same
    ProductBudgetError as the product would, without forming a letter of
    an immersion's φ^n.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if len(endos) < 2:
        raise ValueError("need at least two endomorphisms")
    ranks = {e.rank for e in endos}
    if len(ranks) != 1:
        raise ValueError("endomorphisms act on different ranks")
    # M per distinct immersion, and its M^n·1
    matrices = {
        e: transition_matrix(GraphMap.from_endomorphism(e))
        for e in dict.fromkeys(endos)
        if block_table(e) is not None
    }
    powered = {e: [1] * e.rank for e in matrices}
    pairs = [(i, j) for i in range(len(endos)) for j in range(i + 1, len(endos))]
    last_failure: Optional[tuple[int, LabeledGraph, LabeledGraph, tuple[int, int]]] = None
    note = ""
    for n in range(1, cap + 1):
        powered = {e: [sum(map(mul, row, c)) for row in matrices[e]] for e, c in powered.items()}
        counts = dict(powered)  # per-label free-core edge counts at power n
        built: dict[Endomorphism, tuple[LabeledGraph, LabeledGraph]] = {}
        try:
            for pair in pairs:
                ei, ej = (endos[k] for k in pair)
                for e in (ei, ej):
                    if e not in counts:
                        built[e] = _image_and_core(e, n)
                        counts[e] = letter_counts([l for _, _, l in built[e][1].edges], e.rank)
                check_product_size(sum(map(mul, counts[ei], counts[ej])), max_edges)
                for e in (ei, ej):
                    if e not in built:
                        built[e] = _image_and_core(e, n)
                (gi, ci), (gj, cj) = built[ei], built[ej]
                if not _cores_disjoint(ci, cj, max_edges):
                    last_failure = (n, gi, gj, pair)
                    break
            else:
                return DisjointnessVerdict("disjoint_at", n=n)
        except ProductBudgetError as exc:
            if last_failure is None:
                return DisjointnessVerdict("cap_exceeded", n=n, note=str(exc))
            note = (
                f"search budget exhausted at power {n}; "
                f"verdict covers powers 1..{n - 1}"
            )
            break
    n, a, b, pair = last_failure
    witness = _intersection_witness(a, b, pair, max_edges=max_edges)
    return DisjointnessVerdict("not_disjoint_at_cap", n=n, witness=witness, note=note)


def preimage_in_image(e: Endomorphism, s: int, alpha: Word) -> Optional[Word]:
    """β with apply_endo(e^s, β) conjugate to alpha, or None if no conjugate
    of alpha lies in φ^s(F_n).

    alpha must be cyclically reduced, and φ^s block-decodable (see
    :func:`decode_in_image`; every immersion is), else ValueError.  A
    conjugate of alpha lies in the image iff some rotation of alpha is a
    closed circuit in the core of the image graph, and then alpha itself is
    one: a rotation α[r:]α[:r] closing at w makes α close at the vertex
    α[r:] reaches from w.  So alpha is walked once from each core vertex, and
    the first circuit, conjugated to the basepoint along the tree, is an
    element of the image, decoded into generator blocks.
    """
    if s < 1:
        raise ValueError("power must be >= 1")
    if alpha.rank != e.rank:
        raise ValueError("word and endomorphism ranks differ")
    _, conj = cyclic_reduce(alpha)
    if conj.letters:
        raise ValueError("alpha must be cyclically reduced")
    powered = e.power(s)
    table = block_table(powered)
    if table is None:
        raise ValueError("images do not start with distinct letters")
    if not alpha.letters:
        return Word((), e.rank)
    based_core = core(subgroup_graph(list(powered.images), e.rank), keep_basepoint=True)
    tree = _label_tree(based_core)
    steps = based_core.step_map
    letters = alpha.letters
    for v in range(based_core.num_vertices):
        pos = v
        for sgn in letters:
            pos = steps.get((pos, sgn))
            if pos is None:
                break
        if pos == v:
            u = tuple(tree_path(tree, v))
            h = reduce(u + letters + tuple(-x for x in reversed(u)), e.rank)
            return _decode_blocks(table, h)
    return None
