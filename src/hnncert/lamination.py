"""Finite-scale diagnostics for attracting laminations of expanding maps.

Leaf segments are iterated edge images; statistics over their sliding
windows approximate lamination statements that are asymptotic in nature.
Everything here is diagnostic: a distinctness verdict is a proof (a window
of one lamination missing from the other), an indistinguishability verdict
only says the probe found no difference at the given scale.

Positions are counted combinatorially with unit weight (an exact-arithmetic
stand-in for length measure; ratios here are asymptotic, so any comparable
measure serves at diagnostic scale).  Windows are read in both directions:
a leaf traversed backwards spells the reversed inverse word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .graphmap import (
    GraphMap,
    Path,
    map_path,
    verify_train_track,
)


@dataclass(frozen=True)
class LeafSegment:
    """A tightened iterated edge image with its generation data."""

    path: Path
    seed: int
    depth: int

    def __len__(self) -> int:
        return len(self.path)


def _require_expanding_train_track(f: GraphMap) -> None:
    verdict = verify_train_track(f)
    if verdict.kind != "train_track":
        raise ValueError(f"map crosses an illegal turn {verdict.witness}")
    # an edge whose iterated images never leave length 1 sits on a periodic
    # edge cycle, so the map is not expanding; such a cycle shows up within
    # num_edges steps
    stuck = {e for e in range(1, f.domain.num_edges + 1) if len(f.edge_map[e - 1]) == 1}
    current = {e: f.edge_map[e - 1][0] for e in stuck}
    for _ in range(f.domain.num_edges):
        if not stuck:
            return
        grown = {e for e in stuck if len(f.edge_image(current[e])) > 1}
        stuck -= grown
        current = {e: f.edge_image(current[e])[0] for e in stuck}
    raise ValueError(f"edges {sorted(stuck)} never grow: map is not expanding")


def leaf_segment(f: GraphMap, seed: int, k: int) -> LeafSegment:
    """The tightened f^k-image of the seed edge (the seed itself for k=0)."""
    _require_expanding_train_track(f)
    if not (1 <= seed <= f.domain.num_edges):
        raise ValueError("seed edge out of range")
    if k < 0:
        raise ValueError("iteration count must be >= 0")
    path: Path = (seed,)
    for _ in range(k):
        path = map_path(f, path)
    return LeafSegment(path, seed, k)


def _reverse_invert(p: Path) -> Path:
    return tuple(-x for x in reversed(p))


def _subwords(p: Path, size: int) -> set[Path]:
    if size > len(p):
        return set()
    return {p[i : i + size] for i in range(len(p) - size + 1)}


def _window_set(segments, size: int) -> set[Path]:
    """All length-``size`` windows of the segments, read in both directions."""
    out: set[Path] = set()
    for seg in segments:
        path = seg.path if isinstance(seg, LeafSegment) else tuple(seg)
        out |= _subwords(path, size)
        out |= _subwords(_reverse_invert(path), size)
    return out


def catalog_scale(catalog) -> int:
    """Largest L with every catalog segment at least 2L long."""
    shortest = min(len(seg.path) for seg in catalog)
    return shortest // 2


def weak_convergence_fraction(loop: Path, catalog, L: int) -> Fraction:
    """Fraction of cyclic positions of the loop whose L-neighborhood (the
    window of 2L letters centered there, wrapping cyclically) occurs in the
    catalog.

    Windows wrap around the loop as often as needed, so a loop shorter than
    2L is compared through its periodic extension.
    """
    if L < 1:
        raise ValueError("window radius must be >= 1")
    if not loop:
        raise ValueError("loop is empty")
    if catalog_scale(catalog) < L:
        raise ValueError(
            f"catalog scale {catalog_scale(catalog)} below window radius {L}"
        )
    known = _window_set(catalog, 2 * L)
    n = len(loop)
    hits = 0
    for i in range(n):
        window = tuple(loop[(i + j) % n] for j in range(-L, L))
        if window in known:
            hits += 1
    return Fraction(hits, n)


def quasi_periodicity_probe(
    leaf: Union[LeafSegment, Path], L: int, cap: int
) -> Optional[int]:
    """Smallest L' ≤ cap with every length-L subsegment of the leaf occurring
    in every length-L' window of it; None when the cap is exceeded.

    Evaluated over the finite leaf as given (no wraparound): a probe result
    is evidence of quasi-periodicity at this scale, not a proof for the
    infinite leaf.
    """
    path = leaf.path if isinstance(leaf, LeafSegment) else tuple(leaf)
    if L < 1 or cap < 1:
        raise ValueError("scale and cap must be >= 1")
    if L > len(path):
        return None
    required = _subwords(path, L)
    for span in range(L, min(cap, len(path)) + 1):
        if all(
            required <= _subwords(path[i : i + span], L)
            for i in range(len(path) - span + 1)
        ):
            return span
    return None


@dataclass(frozen=True)
class IndependenceVerdict:
    kind: str  # "distinct_at_scale" | "indistinguishable_at_scale"
    scale: int
    witness: Optional[Path] = None  # a window of one lamination missing from the other


def independence_probe(
    f: GraphMap, g: GraphMap, L: int, k: int
) -> IndependenceVerdict:
    """One-sided lamination comparison at window length L and depth k.

    distinct_at_scale proves the depth-k leaf windows differ (the witness
    window occurs on one side only); indistinguishable_at_scale is NOT a
    proof of equality.
    """
    if f.domain != g.domain:
        raise ValueError(
            "maps live on different graphs; apply a change of marking first"
        )
    if L < 1 or k < 0:
        raise ValueError("need L >= 1 and k >= 0")
    segs_f = [leaf_segment(f, e, k) for e in range(1, f.domain.num_edges + 1)]
    segs_g = [leaf_segment(g, e, k) for e in range(1, g.domain.num_edges + 1)]
    windows_f = _window_set(segs_f, L)
    windows_g = _window_set(segs_g, L)
    only = sorted(windows_f.symmetric_difference(windows_g))
    if only:
        return IndependenceVerdict("distinct_at_scale", L, witness=only[0])
    return IndependenceVerdict("indistinguishable_at_scale", L)
