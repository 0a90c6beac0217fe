"""Uniform loop expansion for train track self-maps.

Certifies a power N with ℓ(f^N(α)) ≥ 3·ℓ(α) for immersed loops α (the factor
is a parameter; downstream callers request 3K² for conjugated
representatives).  Lengths of legal loops add under train track maps, so the
bound reduces to per-edge image lengths.  When the graph carries an invariant
forest the bound is certified on the forest-collapsed map and scaled back.

All length arithmetic is exact (integers for unit lengths, rationals
otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .graphmap import (
    GraphMap,
    MarkedGraph,
    Path,
    compose_maps,
    is_immersion,
    path_length,
    verify_train_track,
)
from .words import free_reduce

Factor = Union[int, Fraction]


@dataclass(frozen=True)
class InvariantForest:
    """An f-invariant edge set whose span has only tree components.

    ``image_edges[i]`` lists the edges crossed by the image of ``edges[i]``,
    witnessing invariance (every listed edge is again in ``edges``).
    """

    edges: tuple[int, ...]
    image_edges: tuple[tuple[int, ...], ...]

    def is_empty(self) -> bool:
        return not self.edges


def _spans_forest(g: MarkedGraph, edge_ids) -> bool:
    parent = list(range(g.num_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edge_ids:
        u, v = g.edge_endpoints[e - 1]
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _orbit_edges(f: GraphMap, start: int) -> set[int]:
    """Smallest edge set containing ``start`` closed under taking images."""
    seen = {start}
    stack = [start]
    while stack:
        e = stack.pop()
        for s in f.edge_map[e - 1]:
            if abs(s) not in seen:
                seen.add(abs(s))
                stack.append(abs(s))
    return seen


def _crossed(f: GraphMap, e: int) -> tuple[int, ...]:
    return tuple(sorted({abs(s) for s in f.edge_map[e - 1]}))


def maximal_invariant_forest(f: GraphMap) -> InvariantForest:
    """The unique maximal f-invariant subgraph with only tree components.

    Computed as the union of the forward orbit closures of all edges whose
    own closure spans a forest; every invariant forest is contained in this
    union.  If the union fails to span a forest there is no unique maximum
    and a RuntimeError reports the failure instead of guessing.
    """
    if not f.is_self_map():
        raise ValueError("invariant forests need a self-map")
    g = f.domain
    union: set[int] = set()
    for e in range(1, g.num_edges + 1):
        orbit = _orbit_edges(f, e)
        if _spans_forest(g, orbit):
            union |= orbit
    if not _spans_forest(g, union):
        raise RuntimeError("union of invariant tree subgraphs is not a forest")
    edges = tuple(sorted(union))
    return InvariantForest(edges, tuple(_crossed(f, e) for e in edges))


def collapse_forest(f: GraphMap, forest: InvariantForest) -> GraphMap:
    """The induced self-map on the graph with each forest component collapsed.

    Raises if the forest is not invariant under f, or if collapsing leaves no
    edges.  If f is an immersion the induced map is verified to be one.
    """
    if not f.is_self_map():
        raise ValueError("collapse needs a self-map")
    g = f.domain
    forest_set = set(forest.edges)
    if not _spans_forest(g, forest.edges):
        raise ValueError("edge set does not span a forest")
    for e in forest.edges:
        if any(abs(s) not in forest_set for s in f.edge_map[e - 1]):
            raise ValueError("forest is not invariant under the map")
    if not forest_set:
        return f
    if len(forest_set) == g.num_edges:
        raise ValueError("collapsing every edge leaves no graph")

    parent = list(range(g.num_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in forest.edges:
        u, v = g.edge_endpoints[e - 1]
        parent[find(u)] = find(v)
    classes = sorted({find(v) for v in range(g.num_vertices)})
    new_id = {root: i for i, root in enumerate(classes)}
    vmap = {v: new_id[find(v)] for v in range(g.num_vertices)}

    keep = [e for e in range(1, g.num_edges + 1) if e not in forest_set]
    renum = {e: i + 1 for i, e in enumerate(keep)}
    endpoints = tuple(
        (vmap[g.edge_endpoints[e - 1][0]], vmap[g.edge_endpoints[e - 1][1]])
        for e in keep
    )
    lengths = tuple(g.lengths[e - 1] for e in keep)
    quotient = MarkedGraph(len(classes), endpoints, lengths)

    # induced vertex map: well-defined because forest components map into
    # forest components
    induced_vm: list[Optional[int]] = [None] * len(classes)
    for v in range(g.num_vertices):
        target = vmap[f.vertex_map[v]]
        if induced_vm[vmap[v]] is None:
            induced_vm[vmap[v]] = target
        elif induced_vm[vmap[v]] != target:
            raise RuntimeError("vertex map does not descend to the quotient")

    new_edge_map = []
    for e in keep:
        tight = free_reduce(
            (renum[abs(s)] if s > 0 else -renum[abs(s)])
            for s in f.edge_map[e - 1]
            if abs(s) not in forest_set
        )
        if not tight:
            raise ValueError("an edge image collapses entirely")
        new_edge_map.append(tight)

    induced = GraphMap(quotient, quotient, tuple(induced_vm), tuple(new_edge_map))
    if is_immersion(f) and not is_immersion(induced):
        raise RuntimeError("collapse did not preserve the immersion property")
    return induced


@dataclass(frozen=True)
class PeriodicLoopWitness:
    """An edge whose image paths recur instead of expanding."""

    edge: int
    preperiod: int
    period: int
    orbit: tuple[Path, ...]


@dataclass(frozen=True)
class ExpansionVerdict:
    kind: str  # "power" | "periodic_loop_obstruction" | "cap_exceeded"
    n: Optional[int] = None
    strict: Optional[bool] = None
    per_edge: tuple[tuple[int, int], ...] = ()
    witness: Optional[PeriodicLoopWitness] = None
    forest_size: int = 0
    k: int = 0
    inner_n: Optional[int] = None
    note: str = ""


def expansion_power(
    f: GraphMap, cap: int = 32, target_factor: Factor = 3
) -> ExpansionVerdict:
    """Smallest certified N with ℓ(f^N(e)) ≥ target_factor·ℓ(e) on every edge.

    Legal-loop lengths then satisfy ℓ(f^N(α)) ≥ target_factor·ℓ(α).  With an
    invariant forest present, the bound is certified on the collapsed map (N′)
    and returned as N = kN′ where target_factor^k exceeds the forest size.
    An edge whose image paths recur below the target is a periodic
    obstruction; running out of iterations is reported as such.
    """
    if not f.is_self_map():
        raise ValueError("expansion needs a self-map")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    factor = Fraction(target_factor)
    if factor <= 1:
        raise ValueError("target factor must exceed 1")
    tt = verify_train_track(f)
    if tt.kind != "train_track":
        raise ValueError(
            f"map crosses an illegal turn {tt.witness}; image lengths would not add"
        )

    forest = maximal_invariant_forest(f)
    if not forest.is_empty():
        inner = expansion_power(collapse_forest(f, forest), cap, target_factor)
        if inner.kind != "power":
            return ExpansionVerdict(
                inner.kind,
                witness=inner.witness,
                forest_size=len(forest.edges),
                note=(inner.note + "; " if inner.note else "")
                + "obstruction found on the forest-collapsed map",
            )
        k = 1
        while factor**k <= len(forest.edges):
            k += 1
        return ExpansionVerdict(
            "power",
            n=k * inner.n,
            strict=inner.strict,
            per_edge=inner.per_edge,
            forest_size=len(forest.edges),
            k=k,
            inner_n=inner.n,
            note="certified via forest collapse",
        )

    g = f.domain
    targets = {e: factor * g.lengths[e - 1] for e in range(1, g.num_edges + 1)}
    first_power: dict[int, int] = {}
    seen: dict[int, dict[Path, int]] = {
        e: {(e,): 0} for e in range(1, g.num_edges + 1)
    }
    lengths_at: list[dict[int, Fraction]] = []
    current = f
    simultaneous: Optional[int] = None
    for n in range(1, cap + 1):
        if n > 1:
            current = compose_maps(f, current)
        lens = {
            e: path_length(g, current.edge_map[e - 1])
            for e in range(1, g.num_edges + 1)
        }
        lengths_at.append(lens)
        for e in range(1, g.num_edges + 1):
            if e in first_power:
                continue
            if lens[e] >= targets[e]:
                first_power[e] = n
                continue
            path = current.edge_map[e - 1]
            if path in seen[e]:
                m = seen[e][path]
                by_power = {power: p for p, power in seen[e].items()}
                orbit = tuple(by_power[i] for i in range(m, n))
                return ExpansionVerdict(
                    "periodic_loop_obstruction",
                    witness=PeriodicLoopWitness(e, m, n - m, orbit),
                )
            seen[e][path] = n
        if all(lens[e] >= targets[e] for e in targets):
            simultaneous = n
            break
    if simultaneous is None:
        stuck = sorted(e for e in targets if e not in first_power)
        if stuck:
            note = f"edges {stuck} below target after {cap} iterations"
        else:
            note = f"per-edge powers never simultaneous within {cap} iterations"
        return ExpansionVerdict("cap_exceeded", note=note)

    final = lengths_at[simultaneous - 1]
    strict = all(final[e] > targets[e] for e in targets)
    per_edge = tuple(sorted(first_power.items()))
    note = ""
    if simultaneous > max(first_power.values()):
        note = "per-edge powers not simultaneous; certified at first common power"
    return ExpansionVerdict(
        "power", n=simultaneous, strict=strict, per_edge=per_edge, note=note
    )
