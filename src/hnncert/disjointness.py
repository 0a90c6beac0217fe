"""Essential disjointness of endomorphism images, and preimages in images.

The images φ_i^N(F_n) are represented by based Stallings graphs, one per
image: its based core.  Whether H ∩ gKg⁻¹ is trivial for *every* g is
decided exactly on the product of the based cores.  The free cores' product
realizes the conjugate intersections double coset by double coset, so the
universal statement holds iff none of its components has positive rank.  An
embedded cycle of the based cores' product spells a cyclically reduced word,
so it lies in the free cores' product, which the based one contains.  So the
based product has a component of positive rank exactly when the free one
does.  The product is never built: its components are walked one at a time
from a step table per factor, least vertex first and only where the
factors' labels meet, and the first component with as many edges as
vertices decides; the witness of a failing pair is read off that same
component.  On an identical pair it is the diagonal, walked first from
vertex 0.  An immersion's images need neither folding nor pruning
(:func:`stallings.subgroup_graph`, :func:`stallings.core`), and the
basepoint of each has valence 2n, so each is built directly and is its own
based and free core.  The edge budget is checked first, before any table is
built, and in the gate before any image of a power is built
(:func:`essential_disjointness_power`): the based core of φ(H) is the core
of the fold of φ substituted into the based core of H, so it has at most
(M·c)_l edges labelled l, where c counts the edges of the based core of H
per label and M is the transition matrix of φ, because folding and coring
never add an edge of any label.

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
    incidence_lists,
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

    graph: LabeledGraph


def _label_tree(g: LabeledGraph, until: Sequence[int] = ()) -> dict[int, tuple[int, int]]:
    """The :func:`pullback.bfs_tree` of the folded graph g from its
    basepoint, each vertex taking its neighbours by signed label, ascending;
    a step is a signed label.  A folded graph has one neighbour per signed
    label, so each vertex keeps them in a table, and only the vertices the
    walk visits sort theirs.  With ``until``, the tree is built only until
    those vertices are found, so if they are all the basepoint, it is the
    root alone and no table is built."""
    if until and not set(until) - {g.basepoint}:
        return {g.basepoint: (g.basepoint, 0)}
    table: list[dict[int, int]] = [{} for _ in range(g.num_vertices)]
    for u, v, l in g.edges:
        table[u][l] = v
        table[v][-l] = u
    return bfs_tree(lambda v: sorted(table[v].items()), g.basepoint, until)


def image_subgroup(e: Endomorphism, n: int) -> ImageSubgroup:
    """Folded based graph of φ^n(F_n)."""
    if n < 1:
        raise ValueError("power must be >= 1")
    powered = e.power(n)
    return ImageSubgroup(subgroup_graph(list(powered.images), e.rank))


def _core_factor(g: LabeledGraph) -> LabeledGraph:
    """The based core of ``g``, as a factor of the core product; ValueError
    if it is not folded."""
    c = core(g, keep_basepoint=True)
    if not is_folded(c):
        raise ValueError("input is not an immersion: graph is not folded")
    return c


ProductEdge = tuple[int, int, int, int, int]


def _cycle_component(
    a: LabeledGraph, b: LabeledGraph, max_edges: int
) -> Optional[list[ProductEdge]]:
    """The edges of the first component, least vertex first, of the product
    of the folded graphs ``a`` and ``b`` with as many edges as vertices, or
    None if there is none; the walk stops there."""
    components = product_components(a, b, max_edges)
    return next((edges for vertices, edges in components if len(edges) >= vertices), None)


def all_conjugates_trivial_intersection(
    h: LabeledGraph, k: LabeledGraph, max_edges: int = MAX_PRODUCT_EDGES
) -> bool:
    """True iff H ∩ gKg⁻¹ = {e} for every g in the ambient free group.

    Decided on the product of the based cores: the answer is True iff no
    component has positive rank, that is, as many edges as vertices (see
    the module docstring).  The components are walked one at a time
    (:func:`pullback.product_components`) and the first such one answers
    False, so a product of positive rank is walked only up to it, and one
    of rank 0 is walked whole.  Budget first: ProductBudgetError is raised
    if the product would exceed ``max_edges`` edges, before any step table
    is built.
    """
    if h.rank != k.rank:
        raise ValueError("subgroups live in free groups of different ranks")
    return _cycle_component(_core_factor(h), _core_factor(k), max_edges) is None


@dataclass(frozen=True)
class IntersectionWitness:
    pair: tuple[int, int]
    conjugator: Word
    element: Word


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
    down the breadth-first tree of the :func:`pullback.incidence_lists`,
    rooted at the least vertex, to the first non-tree edge met, vertex by
    vertex in BFS order, across it and back up the tree.  The walk stops
    there: incidence (k, w) at v is off the tree exactly when w is found
    already and (w, −k) is not v's own parent step, and the paths of v and
    w are fixed by then.  It is a reduced closed path, and the product of
    two folded graphs is folded, so its label word is reduced and not empty.
    """
    adj = incidence_lists([(u, v) for u, v, _ in edges])
    root = min(adj)
    parent = {root: (root, 0)}
    queue = [root]
    for v in queue:  # the loop also visits the vertices appended to queue
        for k, w in adj[v]:
            if w not in parent:
                parent[w] = (v, k)
                queue.append(w)
            elif parent[v] != (w, -k):
                steps = tree_path(parent, v) + [k] + [-s for s in reversed(tree_path(parent, w))]
                return root, tuple(edges[s - 1][2] if s > 0 else -edges[-s - 1][2] for s in steps)
    raise ValueError("component has no cycle")


def _read_witness(
    a: LabeledGraph, b: LabeledGraph, pair: tuple[int, int], found: Sequence[ProductEdge]
) -> IntersectionWitness:
    """A conjugator g and nontrivial w ∈ H ∩ gKg⁻¹ from ``found``, a
    component of positive rank of the product of the based cores ``a`` and
    ``b``, as :func:`_cycle_component` gives it.

    Its edges, sorted, are in product order.  The cycle is read as signed
    edge ids off the component's tree (:func:`_component_cycle`), at its
    least vertex (x, y); the access words to x and y are the signed labels
    of the factors' :func:`_label_tree` paths, and g is ua·ub⁻¹ and w is
    ua·cycle·ua⁻¹.  A tree is built only until x and y are found, as a BFS
    path is fixed once its vertex is.  Equal factors share one tree.
    """
    anchor, cycle_letters = _component_cycle([(u, v, l) for l, _, _, u, v in sorted(found)])
    x, y = divmod(anchor, b.num_vertices)
    tree_a = _label_tree(a, (x, y) if b is a else (x,))
    tree_b = tree_a if b is a else _label_tree(b, (y,))
    ua = tuple(tree_path(tree_a, x))
    ub = tuple(tree_path(tree_b, y))
    g = reduce(ua + tuple(-s for s in reversed(ub)), a.rank)
    w = reduce(ua + cycle_letters + tuple(-s for s in reversed(ua)), a.rank)
    return IntersectionWitness(pair, g, w)


def essential_disjointness_power(
    endos: Sequence[Endomorphism], cap: int = 4, max_edges: int = MAX_PRODUCT_EDGES
) -> DisjointnessVerdict:
    """Smallest N ≤ cap with all pairwise conjugate intersections trivial.

    Disjointness is monotone in N: φ^(n+1)(F_n) ⊆ φ^n(F_n), so a pair
    disjoint at n stays disjoint at every later power.  Each N is still
    tested in full, one power after another, in three passes, on one graph
    per distinct map: the based core of its image.  Budget: the largest
    pair's product of per-label bounds on the based cores' edge counts is
    checked against ``max_edges``, then the largest map's own bound sum.
    Build: each distinct map's image and checked based core is built once,
    and its exact counts replace its bound.  Test: the pairs are walked in
    family order up to the first that is not disjoint, and its first
    component of positive rank gives the witness.  So the verdict's kind,
    power and note depend on the family as a set, and only the witness pair
    follows its order.

    A map's bound starts at the rose's one edge per label, and each power
    multiplies it by M, the transition matrix of φ: substituting φ(l) for
    each edge labelled l of a based core and folding gives a based graph of
    the image, and folding and coring never add an edge of any label.  For
    an immersion the bound is M^n·1, exact at every power.  If every power
    up to ``cap`` fails, the witness is from ``cap``.  A bound over the
    budget at a power n > 1 leaves powers 1..n−1 fully tested and failed,
    so the verdict is not_disjoint_at_cap for n − 1 with the witness from
    power n − 1 and a note naming n; at power 1 it yields cap_exceeded.
    Since the exact counts are within the bounds, no walk of the gate
    exceeds the budget, and every not_disjoint_at_cap verdict carries its
    witness.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if len(endos) < 2:
        raise ValueError("need at least two endomorphisms")
    ranks = {e.rank for e in endos}
    if len(ranks) != 1:
        raise ValueError("endomorphisms act on different ranks")
    matrices = {
        e: transition_matrix(GraphMap.from_endomorphism(e)) for e in dict.fromkeys(endos)
    }
    counts = {e: [1] * e.rank for e in matrices}  # per-label bounds, exact once built
    pairs = [(i, j) for i in range(len(endos)) for j in range(i + 1, len(endos))]
    # the last failing power, its first failing pair, their cores and the
    # first component of positive rank of their product
    failure: Optional[tuple[int, tuple[int, int], LabeledGraph, LabeledGraph, list]] = None
    note = ""
    for n in range(1, cap + 1):
        counts = {e: [sum(map(mul, row, c)) for row in matrices[e]] for e, c in counts.items()}
        try:
            check_product_size(
                max(sum(map(mul, counts[endos[i]], counts[endos[j]])) for i, j in pairs),
                max_edges,
            )
            largest = max(map(sum, counts.values()))
            if largest > max_edges:
                raise ProductBudgetError(
                    f"image core would have {largest} edges (budget {max_edges})"
                )
        except ProductBudgetError as exc:
            if failure is None:
                return DisjointnessVerdict("cap_exceeded", n=n, note=str(exc))
            note = (
                f"search budget exhausted at power {n}; "
                f"verdict covers powers 1..{n - 1}"
            )
            break
        cores = {e: _core_factor(image_subgroup(e, n).graph) for e in counts}
        counts = {e: letter_counts([l for _, _, l in c.edges], e.rank) for e, c in cores.items()}
        for pair in pairs:
            a, b = (cores[endos[k]] for k in pair)
            found = _cycle_component(a, b, max_edges)
            if found is not None:
                failure = (n, pair, a, b, found)
                break
        else:
            return DisjointnessVerdict("disjoint_at", n=n)
    n, pair, a, b, found = failure
    return DisjointnessVerdict("not_disjoint_at_cap", n, _read_witness(a, b, pair, found), note)


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
