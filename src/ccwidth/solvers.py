"""Exact bandwidth and clique cover width solvers for desk-scale graphs.

Bandwidth is found by iterating a decision search: for k = lb, lb+1, ...
try to place vertices position by position, abandoning a prefix as soon
as a placed edge exceeds k or a placed vertex can no longer fit its
unplaced neighbors inside its window.  Candidates are tried in
increasing vertex order, so the first complete placement found is the
lexicographically smallest optimal ordering; results are therefore
deterministic.

Clique cover width runs the same kind of decision search one level up:
for k = 0, 1, ... it builds an ordered clique cover left to right on
vertex bitmasks, trying the cliques of the unplaced vertices in lex
order of their sorted tuples and closing each clique once it leaves the
window of the last k.  Failed (unplaced set, window) states are
memoized within one decision, in the style of Saxe's frontier dynamic
program for small bandwidth (SIAM J. Alg. Disc. Meth. 1(4), 1980).  The
first k that succeeds is the clique cover width, and the first cover
found is the lexicographically smallest optimal one.
``iter_clique_partitions`` enumerates every clique partition for callers
that need them all; the solver never does.

Both solvers refuse graphs above a documented size limit unless the
caller overrides it explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Iterator

from .graph import Graph, clique_number, star_number
from .layout import LinearOrdering, OrderedCliqueCover, format_cover, format_ordering

DEFAULT_BW_LIMIT = 12
DEFAULT_CCW_LIMIT = 9


@dataclass(frozen=True)
class BandwidthResult:
    value: int
    witness: LinearOrdering


@dataclass(frozen=True)
class CcwResult:
    value: int
    witness: OrderedCliqueCover


class SearchBudgetExceeded(Exception):
    """Raised when a capped decision search runs out of nodes."""


def _feasible_ordering(
    g: Graph, k: int, max_nodes: int | None = None
) -> list[int] | None:
    """First (lex-smallest) ordering of width <= k found by pruned DFS.

    ``max_nodes`` caps the number of search nodes; exceeding it raises
    :class:`SearchBudgetExceeded` (used by best-effort callers, never by
    the exact solvers).
    """
    n = g.n
    order: list[int] = []
    pos_of = [-1] * n
    unplaced_nbrs = [g.degree(v) for v in range(n)]
    budget = [max_nodes if max_nodes is not None else -1]

    def place(p: int) -> bool:
        if budget[0] == 0:
            raise SearchBudgetExceeded
        budget[0] -= 1
        if p == n:
            return True
        # A vertex whose window closed must have no unplaced neighbors.
        if p - k - 1 >= 0 and unplaced_nbrs[order[p - k - 1]] > 0:
            return False
        for u in order:
            un = unplaced_nbrs[u]
            if un and un > pos_of[u] + k - p + 1:
                return False
        for v in range(n):
            if pos_of[v] != -1:
                continue
            ok = True
            for u in g.neighbors(v):
                q = pos_of[u]
                if q != -1 and p - q > k:
                    ok = False
                    break
            if not ok:
                continue
            pos_of[v] = p
            order.append(v)
            for u in g.neighbors(v):
                unplaced_nbrs[u] -= 1
            if place(p + 1):
                return True
            for u in g.neighbors(v):
                unplaced_nbrs[u] += 1
            order.pop()
            pos_of[v] = -1
        return False

    if place(0):
        return order
    return None


def _bandwidth_lower_bound(g: Graph) -> int:
    lb = 0
    for v in range(g.n):
        lb = max(lb, ceil(g.degree(v) / 2))
    return lb


def _bandwidth_up_to(g: Graph, cap: int) -> tuple[int, list[int]] | None:
    """Exact bandwidth if it is <= cap, else None."""
    if g.n == 0:
        return (0, [])
    lo = _bandwidth_lower_bound(g)
    for k in range(lo, min(cap, g.n - 1) + 1):
        order = _feasible_ordering(g, k)
        if order is not None:
            return k, order
    return None


def bandwidth_exact(g: Graph, limit: int | None = DEFAULT_BW_LIMIT) -> BandwidthResult:
    """Minimum ordering width and a witness ordering, by exhaustive search.

    Raises if the graph is empty or larger than ``limit`` (pass a larger
    limit or None to search bigger graphs at your own expense).  The
    witness is the lexicographically smallest optimal ordering.
    """
    if g.n < 1:
        raise ValueError("bandwidth requires at least one vertex")
    if limit is not None and g.n > limit:
        raise ValueError(
            f"graph has {g.n} vertices, above the bandwidth search limit "
            f"{limit}; pass a larger limit explicitly to override"
        )
    found = _bandwidth_up_to(g, g.n - 1)
    assert found is not None
    value, order = found
    return BandwidthResult(value, LinearOrdering(order))


def iter_clique_partitions(g: Graph) -> Iterator[list[list[int]]]:
    """All partitions of V(g) into cliques, canonically ordered.

    Classes appear in order of their smallest vertex and each class lists
    its vertices increasingly.  Every partition is emitted exactly once.
    Yielded lists are fresh copies safe to keep.
    """
    n = g.n
    if n == 0:
        yield []
        return
    classes: list[list[int]] = []
    class_bits: list[int] = []

    def assign(v: int) -> Iterator[list[list[int]]]:
        if v == n:
            yield [list(cl) for cl in classes]
            return
        vbits = g.neighbor_bits(v)
        for i in range(len(classes)):
            if class_bits[i] & ~vbits:
                continue  # v is not adjacent to some member
            classes[i].append(v)
            class_bits[i] |= 1 << v
            yield from assign(v + 1)
            class_bits[i] &= ~(1 << v)
            classes[i].pop()
        classes.append([v])
        class_bits.append(1 << v)
        yield from assign(v + 1)
        classes.pop()
        class_bits.pop()

    yield from assign(0)


def _quotient_edges(g: Graph, classes: list[list[int]]) -> list[tuple[int, int]]:
    bits = [sum(1 << v for v in cl) for cl in classes]
    nbr = []
    for cl in classes:
        acc = 0
        for v in cl:
            acc |= g.neighbor_bits(v)
        nbr.append(acc)
    edges = []
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            if nbr[i] & bits[j]:
                edges.append((i, j))
    return edges


def _cliques_in_lex_order(
    nbrs: list[int], cand: int, need: int, clique: int = 0, clique_nbrs: int = 0
) -> Iterator[tuple[int, int]]:
    """Cliques within ``cand`` that contain ``need``, as (mask, neighbor mask).

    Extends ``clique`` by vertices of ``cand`` (all adjacent to every
    member and above its largest vertex) in increasing order, yielding in
    preorder, which is lex order of the cliques' sorted vertex tuples:
    (0), (0, 1), (0, 1, 2), (0, 2), (1), ...
    """
    if need & ~cand:
        return
    if clique and not need:
        yield clique, clique_nbrs
    first_need = need & -need
    while cand:
        low = cand & -cand
        if need and low > first_need:
            return  # skipping a needed vertex
        cand ^= low
        w = low.bit_length() - 1
        yield from _cliques_in_lex_order(
            nbrs, cand & nbrs[w], need & ~low, clique | low, clique_nbrs | nbrs[w]
        )


def _ordered_cover_within(nbrs: list[int], k: int) -> list[int] | None:
    """First (lex-smallest) ordered clique cover of width <= k, as bitmasks.

    Builds the cover left to right.  The window holds the neighbor masks
    of the last k cliques placed.  When a new clique pushes the oldest
    one out, every unplaced neighbor of the leaving clique must lie in
    the new clique; for k = 0 the new clique leaves at once, so it must
    have no unplaced neighbors.  A clique thus leaves only once all its
    neighbors are placed, so an unplaced vertex never touches a placed
    one outside the window.  Whether a prefix completes depends only on
    the unplaced set and the window's unplaced neighbors, so failed
    states of that form are memoized for this call, packed n bits per
    field into one int (the nonzero unplaced set on top fixes the
    window's length).
    """
    n = len(nbrs)
    cover: list[int] = []
    failed: set[int] = set()

    def extend(unplaced: int, window: tuple[int, ...]) -> bool:
        if not unplaced:
            return True
        key = unplaced
        for nb in window:
            key = key << n | nb & unplaced
        if key in failed:
            return False
        leaving = 1 if k and len(window) == k else 0
        need = window[0] & unplaced if leaving else 0
        for clique, clique_nbrs in _cliques_in_lex_order(nbrs, unplaced, need):
            rest = unplaced & ~clique
            if k:
                after = window[leaving:] + (clique_nbrs,)
            elif clique_nbrs & rest:
                continue
            else:
                after = ()
            cover.append(clique)
            if extend(rest, after):
                return True
            cover.pop()
        failed.add(key)
        return False

    if extend((1 << n) - 1, ()):
        return cover
    return None


def ccw_exact(g: Graph, limit: int | None = DEFAULT_CCW_LIMIT) -> CcwResult:
    """Minimum cover width over all ordered clique covers, with a witness.

    Decides "ccw <= k" for k = 0, 1, 2, ... with a memoized left-to-right
    search over ordered clique covers; the first k that succeeds is the
    clique cover width, and the cover found for it is the witness: the
    lexicographically smallest optimal cover (cliques compared as
    sorted tuples, in cover order).
    """
    if g.n < 1:
        raise ValueError("clique cover width requires at least one vertex")
    if limit is not None and g.n > limit:
        raise ValueError(
            f"graph has {g.n} vertices, above the clique-cover search limit "
            f"{limit}; pass a larger limit explicitly to override"
        )
    nbrs = [g.neighbor_bits(v) for v in range(g.n)]
    k = 0
    while (cover := _ordered_cover_within(nbrs, k)) is None:
        k += 1
    cliques = [[v for v in range(g.n) if mask >> v & 1] for mask in cover]
    return CcwResult(k, OrderedCliqueCover(g, cliques))


@dataclass(frozen=True)
class InequalityReport:
    """Exact parameter values and the width inequalities checked on them.

    ``bw_le_omega_ccw`` is None when ccw = 0: a zero-width cover means
    the graph is a disjoint union of cliques and the product bound is
    vacuous (it fails as literally written already for a single complete
    graph), so it is reported as not applicable rather than pass/fail.
    """

    n: int
    ccw: int
    bw: int
    omega: int
    star: int
    ccw_le_bw: bool
    ccw_ge_star_bound: bool
    bw_le_omega_ccw: bool | None

    @property
    def star_lower_bound(self) -> int:
        return ceil(self.star / 2) - 1

    @property
    def all_pass(self) -> bool:
        return (
            self.ccw_le_bw
            and self.ccw_ge_star_bound
            and self.bw_le_omega_ccw is not False
        )

    def lines(self) -> list[str]:
        out = [
            f"n={self.n} ccw={self.ccw} bw={self.bw} omega={self.omega} s={self.star}",
            f"ccw <= bw: {'pass' if self.ccw_le_bw else 'FAIL'}",
            f"ccw >= ceil(s/2)-1 = {self.star_lower_bound}: "
            f"{'pass' if self.ccw_ge_star_bound else 'FAIL'}",
        ]
        if self.bw_le_omega_ccw is None:
            out.append("bw <= omega*ccw: not applicable (ccw = 0)")
        else:
            out.append(f"bw <= omega*ccw: {'pass' if self.bw_le_omega_ccw else 'FAIL'}")
        return out


def check_inequality_chain(
    g: Graph,
    bw_limit: int | None = DEFAULT_BW_LIMIT,
    ccw_limit: int | None = DEFAULT_CCW_LIMIT,
) -> InequalityReport:
    """Compute ccw, bw, omega, s exactly and check the width inequalities."""
    if g.n < 1:
        raise ValueError("inequality chain requires at least one vertex")
    ccw = ccw_exact(g, limit=ccw_limit).value
    bw = bandwidth_exact(g, limit=bw_limit).value
    omega = clique_number(g)
    star = star_number(g)
    return InequalityReport(
        n=g.n,
        ccw=ccw,
        bw=bw,
        omega=omega,
        star=star,
        ccw_le_bw=ccw <= bw,
        ccw_ge_star_bound=ccw >= ceil(star / 2) - 1,
        bw_le_omega_ccw=None if ccw == 0 else bw <= omega * ccw,
    )


def format_bandwidth_result(result: BandwidthResult) -> str:
    """Serialize as a "value k" header plus the ordering block."""
    return f"value {result.value}\n" + format_ordering(result.witness)


def format_ccw_result(result: CcwResult) -> str:
    """Serialize as a "value k" header plus the cover block."""
    return f"value {result.value}\n" + format_cover(result.witness.cliques)
