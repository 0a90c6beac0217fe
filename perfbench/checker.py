"""Independent re-checks of hnncert outputs on plain tuples.

Nothing here imports hnncert: every check redoes the arithmetic from
scratch (substitution, free reduction, greedy block decoding, breadth-first
searches, integer matrix powers) or tests a property that the method must
have.  Letters are nonzero signed integers, +i for the generator a_i and -i
for its inverse; words are tuples of letters.  A failed check raises
:class:`CheckError` naming what was wrong.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

Word = tuple[int, ...]
# A based labelled graph: (vertex count, edges (source, target, label > 0), basepoint).
Graph = tuple[int, Sequence[tuple[int, int, int]], Optional[int]]


class CheckError(AssertionError):
    """An output of the program failed an independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# --- words ---------------------------------------------------------------


def parse_word(s: str) -> Word:
    """Letter syntax: lowercase a, b, ... are generators, uppercase inverses."""
    return tuple(
        ord(c) - 96 if c.islower() else -(ord(c.lower()) - 96) for c in s
    )


def free_reduce(seq: Sequence[int]) -> Word:
    out: list[int] = []
    for x in seq:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(w: Sequence[int]) -> Word:
    return tuple(-x for x in reversed(w))


def cyclic_reduce(w: Sequence[int]) -> Word:
    w = free_reduce(w)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j]


def substitute(images: Sequence[Word], w: Sequence[int]) -> Word:
    """The reduced image of ``w`` under the endomorphism a_i -> images[i-1]."""
    out: list[int] = []
    for x in w:
        for y in images[x - 1] if x > 0 else inverse(images[-x - 1]):
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


def power_images(images: Sequence[Word], n: int) -> tuple[Word, ...]:
    """Generator images of the n-th power, by n rounds of substitution."""
    cur = tuple((i,) for i in range(1, len(images) + 1))
    for _ in range(n):
        cur = tuple(substitute(images, w) for w in cur)
    return cur


def _text(w: Sequence[int]) -> str:
    return "".join(chr(0x4E00 + x) for x in w)


def is_rotation(p: Sequence[int], q: Sequence[int]) -> bool:
    """True iff the cyclic words p and q are equal up to rotation."""
    if len(p) != len(q):
        return False
    return _text(q) in _text(p) * 2


def expansion_power(images: Sequence[Word], target: int, cap: int = 64) -> Optional[int]:
    """Smallest n <= cap with every generator image of phi^n at least
    ``target`` letters long, or None."""
    cur = tuple(tuple(w) for w in images)
    for n in range(1, cap + 1):
        if all(len(w) >= target for w in cur):
            return n
        cur = tuple(substitute(images, w) for w in cur)
    return None


def block_table(images: Sequence[Word]) -> Optional[dict[int, tuple[int, Word]]]:
    """First letter -> (direction, block) over the 2r directions, or None
    when two directions' images start with the same letter."""
    table: dict[int, tuple[int, Word]] = {}
    for i, img in enumerate(images, start=1):
        for s, block in ((i, tuple(img)), (-i, inverse(img))):
            if not block or block[0] in table:
                return None
            table[block[0]] = (s, block)
    return table


def block_decode(images: Sequence[Word], w: Sequence[int]) -> Optional[Word]:
    """The u with substitute(images, u) == w, read greedily block by block.

    Valid only when the images start with distinct letters (checked: raises
    otherwise); returns None when ``w`` is not a product of blocks.
    """
    table = block_table(images)
    require(table is not None, "images do not start with distinct letters")
    out = []
    i = 0
    while i < len(w):
        hit = table.get(w[i])
        if hit is None:
            return None
        s, block = hit
        if tuple(w[i : i + len(block)]) != block:
            return None
        out.append(s)
        i += len(block)
    return tuple(out)


# --- certify reports --------------------------------------------------------


def check_bs_witness(images: Sequence[Word], loop: Word, degree: int, power: int) -> None:
    """phi^power(loop), cyclically reduced, is a rotation of loop^degree."""
    require(len(loop) > 0 and degree >= 1 and power >= 1, "degenerate BS witness")
    image = loop
    for _ in range(power):
        image = substitute(images, image)
    require(
        is_rotation(cyclic_reduce(image), cyclic_reduce(loop * degree)),
        f"BS witness fails: phi^{power}(gamma) is not conjugate to gamma^{degree}",
    )


def check_not_disjoint(
    images_i: Sequence[Word], images_j: Sequence[Word], n: int, g: Word, w: Word
) -> None:
    """w is non-trivial, lies in phi_i^n(F), and g^-1 w g lies in phi_j^n(F);
    both memberships are shown by a decoding that substitutes back."""
    require(len(free_reduce(w)) > 0, "intersection element is trivial")
    pi, pj = power_images(images_i, n), power_images(images_j, n)
    for name, p in (("phi_i^n", pi), ("phi_j^n", pj)):
        require(block_table(p) is not None, f"{name} images do not start with distinct letters")
    u = block_decode(pi, w)
    require(u is not None and substitute(pi, u) == tuple(w), "w does not decode under phi_i^n")
    conj = free_reduce(inverse(g) + tuple(w) + tuple(g))
    v = block_decode(pj, conj)
    require(v is not None and substitute(pj, v) == conj, "g^-1 w g does not decode under phi_j^n")


def random_cyclic_word(rng: random.Random, rank: int, max_length: int) -> Word:
    """A uniformly drawn cyclically reduced word of length 1..max_length."""
    letters = [s for i in range(1, rank + 1) for s in (i, -i)]
    while True:
        length = rng.randint(1, max_length)
        w = [rng.choice(letters)]
        while len(w) < length:
            x = rng.choice(letters)
            if x != -w[-1]:
                w.append(x)
        if len(w) == 1 or w[0] != -w[-1]:
            return tuple(w)


def check_positive_audits(
    endos: Sequence[Sequence[Word]], n: int, seed: int, loops: int = 50,
    max_length: int = 20, rho_max: int = 4,
) -> int:
    """Both annulus audits' inequalities on every positive word (j, k) at
    power n, over loops drawn from ``seed``; returns the number checked."""
    rank = len(endos[0])
    powered = [power_images(e, n) for e in endos]
    rng = random.Random(seed)
    checked = 0
    for j in range(len(endos)):
        for k in range(len(endos)):
            for _ in range(loops):
                alpha = random_cyclic_word(rng, rank, max_length)
                mid = cyclic_reduce(substitute(powered[j], alpha))
                end = cyclic_reduce(substitute(powered[k], mid))
                outer = max(len(alpha), len(end))
                require(3 * len(mid) <= outer, f"ring-length audit fails on word ({j + 1},{k + 1})")
                for rho in range(1, rho_max + 1):
                    if len(mid) > 2 * rho:
                        require(outer >= 2 * len(mid), f"flaring fails on word ({j + 1},{k + 1})")
                checked += 1
    return checked


# --- graphs ------------------------------------------------------------------


def step_map(g: Graph) -> dict[tuple[int, int], int]:
    """(vertex, signed label) -> vertex; raises unless the graph is folded."""
    steps: dict[tuple[int, int], int] = {}
    _, edges, _ = g
    for u, v, l in edges:
        for key, dst in (((u, l), v), ((v, -l), u)):
            require(key not in steps, f"graph is not folded at vertex {key[0]}")
            steps[key] = dst
    return steps


def reads_closed_loop(g: Graph, w: Sequence[int]) -> bool:
    steps = step_map(g)
    pos = g[2]
    for x in w:
        pos = steps.get((pos, x))
        if pos is None:
            return False
    return pos == g[2]


def check_based_isomorphic(g: Graph, h: Graph, rank: int) -> None:
    """g and h are isomorphic as based labelled graphs: a simultaneous BFS
    from the two basepoints must build a label-preserving bijection that
    covers every vertex and edge of both."""
    sg, sh = step_map(g), step_map(h)
    require(g[0] == h[0], f"vertex counts differ: {g[0]} vs {h[0]}")
    require(len(g[1]) == len(h[1]), f"edge counts differ: {len(g[1])} vs {len(h[1])}")
    match = {g[2]: h[2]}
    used = {h[2]}
    queue = [g[2]]
    signs = [s for i in range(1, rank + 1) for s in (i, -i)]
    for x in queue:
        for s in signs:
            a, b = sg.get((x, s)), sh.get((match[x], s))
            require((a is None) == (b is None), f"label {s} differs at vertex {x}")
            if a is None:
                continue
            if a in match:
                require(match[a] == b, f"label {s} leads to different vertices from {x}")
            else:
                require(b not in used, "two vertices map to one")
                match[a] = b
                used.add(b)
                queue.append(a)
    require(len(match) == g[0], "graph is not connected to its basepoint")


def intersection_rank(g: Graph, h: Graph, rank: int) -> int:
    """Rank of the intersection of the subgroups read at the basepoints:
    edges minus vertices plus one, over the pair states reachable from the
    basepoint pair."""
    sg, sh = step_map(g), step_map(h)
    start = (g[2], h[2])
    seen = {start}
    queue = [start]
    edges = 0
    for u, v in queue:
        for x in range(1, rank + 1):
            for s in (x, -x):
                a, b = sg.get((u, s)), sh.get((v, s))
                if a is None or b is None:
                    continue
                if s > 0:
                    edges += 1
                if (a, b) not in seen:
                    seen.add((a, b))
                    queue.append((a, b))
    return edges - len(seen) + 1


# --- pullback filtration -------------------------------------------------------


def transition_matrix(images: Sequence[Word]) -> list[list[int]]:
    """Entry [l][e]: occurrences of the letter ±(l+1) in the image of e+1."""
    r = len(images)
    return [[sum(1 for x in images[e] if abs(x) == l + 1) for e in range(r)] for l in range(r)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def mat_power(a: list[list[int]], k: int) -> list[list[int]]:
    result = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    for _ in range(k):
        result = mat_mul(a, result)
    return result


def filtration_level_size(images: Sequence[Word], i: int) -> tuple[int, int]:
    """(vertices, edges) of level i of the pullback filtration of a rose
    immersion: the i-th subdivision has one rose vertex plus |f^i(e)| - 1
    interior points per edge and r_l pieces labelled l, and its square over
    the one-vertex rose pairs all vertices and every two pieces of a label."""
    m = mat_power(transition_matrix(images), i)
    r = len(images)
    lengths = [sum(m[l][e] for l in range(r)) for e in range(r)]
    per_label = [sum(m[l]) for l in range(r)]
    vertices = (1 + sum(n - 1 for n in lengths)) ** 2
    return vertices, sum(n * n for n in per_label)


def check_filtration(images: Sequence[Word], levels: Sequence[dict]) -> None:
    """Each level has the predicted product size, and the components
    flagged as carried into level i+1 have exactly level i's signatures.

    ``levels[i-1]`` holds ``vertices``, ``edges``, ``signatures`` (one
    comparable value per component) and ``carried`` (one flag per component).
    """
    for i, level in enumerate(levels, start=1):
        want = filtration_level_size(images, i)
        got = (level["vertices"], level["edges"])
        require(got == want, f"level {i}: (vertices, edges) {got} != {want}")
        require(
            len(level["signatures"]) == len(level["carried"]),
            f"level {i}: one carried flag per component",
        )
        if i > 1:
            carried = sorted(s for s, c in zip(level["signatures"], level["carried"]) if c)
            require(
                carried == sorted(levels[i - 2]["signatures"]),
                f"level {i}: carried components differ from level {i - 1}",
            )
