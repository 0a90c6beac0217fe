"""Uniform loop expansion for train track rose maps.

Certifies a power N with ℓ(f^N(α)) ≥ 3·ℓ(α) for immersed loops α (the
integer factor is a parameter; downstream callers request 3K² for
conjugated representatives).  Lengths of legal loops add under train track
maps, so the bound reduces to per-edge image lengths.  Every rose edge has
length 1, so all lengths are exact integer edge counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphmap import GraphMap, Path, compose_maps, path_length, verify_train_track


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
    note: str = ""


def expansion_power(
    f: GraphMap, cap: int = 32, target_factor: int = 3
) -> ExpansionVerdict:
    """Smallest certified N with ℓ(f^N(e)) ≥ target_factor on every edge e.

    Legal-loop lengths then satisfy ℓ(f^N(α)) ≥ target_factor·ℓ(α).  An
    edge whose image paths recur below the target is a periodic
    obstruction; running out of iterations is reported as such.
    """
    if not f.is_self_map():
        raise ValueError("expansion needs a self-map")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if target_factor <= 1:
        raise ValueError("target factor must exceed 1")
    tt = verify_train_track(f)
    if tt.kind != "train_track":
        raise ValueError(
            f"map crosses an illegal turn {tt.witness}; image lengths would not add"
        )

    g = f.domain
    edges = range(1, g.num_edges + 1)
    first_power: dict[int, int] = {}
    seen: dict[int, dict[Path, int]] = {e: {(e,): 0} for e in edges}
    current = f
    for n in range(1, cap + 1):
        if n > 1:
            current = compose_maps(f, current)
        lens = {e: path_length(g, current.edge_map[e - 1]) for e in edges}
        for e in edges:
            if e in first_power:
                continue
            if lens[e] >= target_factor:
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
        if all(lens[e] >= target_factor for e in edges):
            note = ""
            if n > max(first_power.values()):
                note = "per-edge powers not simultaneous; certified at first common power"
            return ExpansionVerdict(
                "power",
                n=n,
                strict=all(lens[e] > target_factor for e in edges),
                per_edge=tuple(sorted(first_power.items())),
                note=note,
            )
    stuck = [e for e in edges if e not in first_power]
    if stuck:
        note = f"edges {stuck} below target after {cap} iterations"
    else:
        note = f"per-edge powers never simultaneous within {cap} iterations"
    return ExpansionVerdict("cap_exceeded", note=note)
