"""Uniform loop expansion for train track rose maps.

Certifies a power N with ℓ(f^N(α)) ≥ 3·ℓ(α) for immersed loops α (the
integer factor is a parameter; downstream callers request 3K² for
conjugated representatives).  Lengths of legal loops add under train track
maps, so the bound reduces to per-edge image lengths.  Every rose edge has
length 1, so all lengths are exact integer edge counts.

No power of the map is built.  Iterated edge images of a train track map
never cancel (Bestvina–Handel), so lengths never fall, and an edge's image
paths are built only while they stay below the target, to find a periodic
witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphmap import GraphMap, Path, map_path, verify_train_track


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
    per_edge: tuple[tuple[int, int], ...] = ()
    witness: Optional[PeriodicLoopWitness] = None
    note: str = ""


def expansion_power(
    f: GraphMap, cap: int = 32, target_factor: int = 3
) -> ExpansionVerdict:
    """Smallest certified N with ℓ(f^N(e)) ≥ target_factor on every edge e.

    Legal-loop lengths then satisfy ℓ(f^N(α)) ≥ target_factor·ℓ(α).  An
    edge whose image paths recur below the target is a periodic
    obstruction, reported at the least (power, edge); running out of
    iterations is reported as such.  Since lengths never fall, N is the
    largest per-edge power.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if target_factor <= 1:
        raise ValueError("target factor must exceed 1")
    tt = verify_train_track(f)
    if tt.kind != "train_track":
        raise ValueError(
            f"map crosses an illegal turn {tt.witness}; image lengths would not add"
        )

    edges = range(1, f.domain.num_edges + 1)
    first_power: dict[int, int] = {}
    images = {e: (e,) for e in edges}
    seen: dict[int, dict[Path, int]] = {e: {(e,): 0} for e in edges}
    for n in range(1, cap + 1):
        for e in edges:
            if e in first_power:
                continue
            path = map_path(f, images[e])
            if len(path) >= target_factor:
                first_power[e] = n
                continue
            if path in seen[e]:
                m = seen[e][path]
                by_power = {power: p for p, power in seen[e].items()}
                orbit = tuple(by_power[i] for i in range(m, n))
                return ExpansionVerdict(
                    "periodic_loop_obstruction",
                    witness=PeriodicLoopWitness(e, m, n - m, orbit),
                )
            images[e] = path
            seen[e][path] = n
        if len(first_power) == len(edges):
            return ExpansionVerdict(
                "power", n=n, per_edge=tuple(sorted(first_power.items()))
            )
    stuck = [e for e in edges if e not in first_power]
    return ExpansionVerdict(
        "cap_exceeded", note=f"edges {stuck} below target after {cap} iterations"
    )
