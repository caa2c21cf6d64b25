"""Deterministic graph and clique-sum instance generators.

All randomness flows through an explicit ``random.Random`` seeded by the
caller, so a fixed seed reproduces every instance bit for bit.  The
clique-sum generator pairs two random graphs with optimal covers from
the exact solver and a uniformly chosen shared clique, which makes the
recorded input widths true clique cover widths rather than artifacts of
an arbitrary cover choice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .graph import Graph
from .layout import OrderedCliqueCover, cover_width
from .solvers import DEFAULT_CCW_LIMIT, _refuse_above, ccw_exact


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    return Graph(n, list(combinations(range(n), 2)))


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and the given number of leaves."""
    if leaves < 0:
        raise ValueError("leaf count must be nonnegative")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    bits = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                bits[u] |= 1 << v
                bits[v] |= 1 << u
    return Graph._from_bits(bits)


@dataclass(frozen=True)
class CliqueSumInstance:
    """Two graphs with covers and the injective shared-clique map."""

    g1: Graph
    c1: OrderedCliqueCover
    g2: Graph
    c2: OrderedCliqueCover
    shared: dict[int, int]


def path_sum_instance(t: int) -> CliqueSumInstance:
    """Two paths on 2t+1 vertices glued at their middle vertices.

    Covers are optimal-witness covers from the exact solver; the size
    limit is lifted internally because a path has width-1 covers, which
    the search finds almost without backtracking.
    """
    if t < 1:
        raise ValueError("path half-length t must be >= 1")
    n = 2 * t + 1
    g = path_graph(n)
    witness = ccw_exact(g, limit=max(DEFAULT_CCW_LIMIT, n)).witness
    return CliqueSumInstance(g1=g, c1=witness, g2=g, c2=witness, shared={t: t})


# Redraws before ``random_clique_sum_instance`` gives up on ``min_total_width``.
MAX_ATTEMPTS = 1000


def _count_cliques(nbrs: Sequence[int], cand: int, k: int) -> int:
    """Number of k-cliques inside the vertex bitmask ``cand``.

    ``nbrs[v]`` is v's neighborhood mask; each clique is counted once,
    from its lowest vertex, and the last vertex is a popcount.
    """
    if k <= 1:
        return cand.bit_count() if k else 1
    total = 0
    while cand:
        low = cand & -cand
        cand ^= low
        total += _count_cliques(nbrs, cand & nbrs[low.bit_length() - 1], k - 1)
    return total


def _nth_clique(nbrs: Sequence[int], k: int, index: int) -> tuple[int, ...]:
    """The k-clique at ``index`` of ``combinations(range(n), k)`` filtered to cliques.

    Skips whole subtrees of the lex-order clique search by their counts,
    so only the chosen clique is built.
    """
    clique: list[int] = []
    cand = (1 << len(nbrs)) - 1
    for left in range(k, 0, -1):
        while True:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            below = _count_cliques(nbrs, cand & nbrs[v], left - 1)
            if index < below:
                break
            index -= below
        clique.append(v)
        cand &= nbrs[v]
    return tuple(clique)


def random_clique_sum_instance(
    rng: random.Random,
    n_lo: int = 3,
    n_hi: int = 8,
    shared_max: int = 3,
    p_lo: float = 0.2,
    p_hi: float = 0.8,
    min_total_width: int = 0,
    ccw_limit: int | None = DEFAULT_CCW_LIMIT,
) -> CliqueSumInstance:
    """Random clique-sum instance with oracle covers and a random shared clique.

    Draws side sizes and edge probabilities, computes optimal covers,
    picks a shared clique size in 1..shared_max (falling back to smaller
    sizes when one side has no clique that large), and identifies the
    two cliques by a random bijection.  Redraws until the total cover
    width reaches ``min_total_width``, at most ``MAX_ATTEMPTS`` times.
    """
    if not 1 <= n_lo <= n_hi:
        raise ValueError(f"bad side size range [{n_lo}, {n_hi}]")
    if shared_max < 1:
        raise ValueError("shared clique size must be at least 1")
    for _ in range(MAX_ATTEMPTS):
        sides = []
        for _ in range(2):
            n = rng.randint(n_lo, n_hi)
            _refuse_above(n, ccw_limit, "clique-cover")  # before building a side
            sides.append(random_graph(n, rng.uniform(p_lo, p_hi), rng))
        g1, g2 = sides
        c1 = ccw_exact(g1, limit=ccw_limit).witness
        c2 = ccw_exact(g2, limit=ccw_limit).witness
        if cover_width(c1) + cover_width(c2) < min_total_width:
            continue
        # Every vertex is a 1-clique, so the loop always breaks.
        for k in range(rng.randint(1, min(shared_max, g1.n, g2.n)), 0, -1):
            q1 = _count_cliques(g1._bits, (1 << g1.n) - 1, k)
            q2 = _count_cliques(g2._bits, (1 << g2.n) - 1, k)
            if q1 and q2:
                break
        # choice over a range draws as choice over the list of k-cliques would
        side1 = list(_nth_clique(g1._bits, k, rng.choice(range(q1))))
        side2 = list(_nth_clique(g2._bits, k, rng.choice(range(q2))))
        rng.shuffle(side2)
        shared = dict(zip(side1, side2))
        return CliqueSumInstance(g1=g1, c1=c1, g2=g2, c2=c2, shared=shared)
    raise ValueError(
        f"could not draw an instance with total width >= {min_total_width} "
        f"in {MAX_ATTEMPTS} attempts"
    )

