"""Exact bandwidth and clique cover width solvers for desk-scale graphs.

Both widths come from one decision search.  A linear ordering is an
ordered clique cover whose cliques are single vertices, with the same
width, so "bandwidth <= k" and "ccw <= k" are both answered by building
an ordered cover left to right on vertex bitmasks, with cliques of at
most one vertex for bandwidth and of any size for ccw.  Candidate
cliques of the unplaced vertices are tried in lex order of their sorted
tuples, and each clique is closed once it leaves the window of the last
k.  With one-vertex cliques a prefix is also abandoned once the oldest
window entries, taken together, have more unplaced neighbors than there
are places left before the last of them leaves, or once the unplaced
vertices within distance d of the window outnumber the places in the
next d * k positions: Hall-type conditions of the kind Del Corso and
Manzini use to prune exact bandwidth search (Computing 62(3), 1999).
With cliques of any size the first condition counts a greedy
independent set of those neighbors instead, one per clique.
Failed (unplaced set, window) states are memoized within one decision,
in the style of Saxe's frontier dynamic program for small bandwidth
(SIAM J. Alg. Disc. Meth. 1(4), 1980).  Each child prefix is checked,
and looked up among the failed states, before the search descends into
it, so a cut child costs no call.  One loop over k serves every caller.
It starts at ceil(maxdeg / 2) for bandwidth, and for ccw at 0 when every
component is a clique and at 1 otherwise (ccw = 0 exactly on those
graphs), or at a caller's known lower end; it stops below a caller's
bound, and counts a decision that runs out of its failed-state budget
as failed.  The first k that succeeds is the width, and the first cover
found is the lexicographically smallest optimal ordering or cover, so
results are deterministic.  Witnesses are built from the bitmasks.

Both solvers refuse graphs above a documented size limit unless the
caller overrides it explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Iterator, Sequence

from .graph import Graph, _too_deep, clique_number, star_number
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
    """Raised when a capped decision search memoizes too many failed states."""


def _refuse_above(n: int, limit: int | None, search: str) -> None:
    """Raise unless ``n`` vertices are within the ``search`` size ``limit``."""
    if limit is not None and n > limit:
        raise ValueError(
            f"graph has {n} vertices, above the {search} search limit "
            f"{limit}; pass a larger limit explicitly to override"
        )


def bandwidth_exact(g: Graph, limit: int | None = DEFAULT_BW_LIMIT) -> BandwidthResult:
    """Minimum ordering width and a witness ordering, by exhaustive search.

    Raises if the graph is empty or larger than ``limit`` (pass a larger
    limit or None to search bigger graphs at your own expense).  The
    witness is the lexicographically smallest optimal ordering.
    """
    if g.n < 1:
        raise ValueError("bandwidth requires at least one vertex")
    _refuse_above(g.n, limit, "bandwidth")
    value, cover = _least_width_cover(g._bits, True)
    return BandwidthResult(value, LinearOrdering([m.bit_length() - 1 for m in cover]))


def _cliques_in_lex_order(
    nbrs: Sequence[int], cand: int, need: int
) -> Iterator[tuple[int, int]]:
    """Cliques within ``cand`` that contain ``need``, as (mask, neighbor mask).

    Grows cliques by vertices of ``cand`` adjacent to every member and
    above its largest vertex, in increasing order, yielding in preorder,
    which is lex order of the cliques' sorted vertex tuples: (0), (0, 1),
    (0, 1, 2), (0, 2), (1), ...  The stack holds, per open clique, the
    candidates not yet tried and the needed vertices not yet in it; a
    clique stops growing once its next candidate would skip a needed one.
    """
    if need & ~cand:
        return
    stack = [(cand, need, 0, 0)] if cand else []
    while stack:
        cand, need, clique, clique_nbrs = stack.pop()
        low = cand & -cand
        if need and low > need & -need:
            continue  # skipping a needed vertex
        cand ^= low
        if cand:
            stack.append((cand, need, clique, clique_nbrs))
        nb = nbrs[low.bit_length() - 1]
        cand &= nb
        need &= ~low
        if need & ~cand:
            continue
        clique |= low
        clique_nbrs |= nb
        if not need:
            yield clique, clique_nbrs
        if cand:
            stack.append((cand, need, clique, clique_nbrs))


def _spread_exceeds(nbrs: Sequence[int], due: int, slots: int) -> bool:
    """Whether a greedy independent set of ``due`` has over ``slots`` vertices.

    Each clique holds at most one vertex of an independent set, so such
    a set bounds from below the cliques needed to cover ``due``.  Picks
    the vertex with the fewest neighbors left in ``due`` (lowest on
    ties) and drops it and its neighbors, until the picks plus what is
    left cannot pass ``slots``.  For one slot that is whether ``due`` is
    not a clique (the first pick leaves something exactly then), which
    is tested directly.
    """
    if slots == 1:
        rest = due
        while rest:
            low = rest & -rest
            rest ^= low
            if due & ~nbrs[low.bit_length() - 1] != low:
                return True
        return False
    found = 0
    while found + due.bit_count() > slots:
        if found == slots:
            return True
        best = due & -due
        fewest = (nbrs[best.bit_length() - 1] & due).bit_count()
        rest = due ^ best
        while rest and fewest:
            low = rest & -rest
            rest ^= low
            count = (nbrs[low.bit_length() - 1] & due).bit_count()
            if count < fewest:
                best, fewest = low, count
        due &= ~(best | nbrs[best.bit_length() - 1])
        found += 1
    return False


def _ordered_cover_within(
    nbrs: Sequence[int], k: int, singles: bool, max_failed: int | None = None
) -> list[int] | None:
    """First (lex-smallest) ordered clique cover of width <= k, as bitmasks.

    With ``singles`` every clique is one vertex, so the cover is a linear
    ordering and its width the ordering's bandwidth; otherwise cliques
    are unbounded.  Builds the cover left to right.  The window holds the
    neighbor masks of the last k cliques placed.  When a new clique
    pushes the oldest one out, every unplaced neighbor of the leaving
    clique must lie in the new clique; for k = 0 the new clique leaves at
    once, so it must have no unplaced neighbors.  A clique thus leaves
    only once all its neighbors are placed, so an unplaced vertex never
    touches a placed one outside the window.  A prefix is also abandoned
    once, for some window entry, the unplaced neighbors of that entry and
    all older ones need more cliques than are still to come before it
    leaves: the older ones leave no later, so all those neighbors need
    places in those cliques.  With one-vertex cliques each neighbor needs
    its own; with unbounded cliques a greedy independent set of them
    (:func:`_spread_exceeds`) does, as no clique holds two of its
    vertices.  With one-vertex cliques a prefix is likewise abandoned
    once, for some d >= 2, the unplaced vertices within distance d of
    the window along unplaced vertices outnumber the next d * k places:
    each step of such a path moves at most k places on.  Each check cuts
    only prefixes that cannot complete.  Whether a prefix completes
    depends only on the unplaced set and the window's unplaced
    neighbors, so failed states of that form are memoized for this call,
    packed n bits per field into one int (the nonzero unplaced set on
    top fixes the window's length).  Each child state is checked and
    looked up in the memo before the search descends into it.  More than
    ``max_failed`` failed states raise :class:`SearchBudgetExceeded`.
    """
    n = len(nbrs)
    cover: list[int] = []
    failed: set[int] = set()

    def extend(unplaced: int, window: tuple[int, ...], key: int) -> bool:
        if not unplaced:
            return True
        leaving = 1 if k and len(window) == k else 0
        need = window[0] & unplaced if leaving else 0
        if singles:
            # One-vertex cliques skip the generator.  A needed vertex is the
            # only candidate: the fit check already cut every window whose
            # leaving entry has two or more unplaced neighbors.
            candidates = []
            pick = need or unplaced
            while pick:
                low = pick & -pick
                pick ^= low
                candidates.append((low, nbrs[low.bit_length() - 1]))
        else:
            candidates = _cliques_in_lex_order(nbrs, unplaced, need)
        for clique, clique_nbrs in candidates:
            rest = unplaced & ~clique
            if k:
                after = window[leaving:] + (clique_nbrs,)
            elif clique_nbrs & rest:
                continue
            else:
                after = ()
            # Check the child (rest, after) before descending: the fit
            # check, then with one-vertex cliques the distance check, then
            # the memo.  A break out of either loop cuts the child.
            slots = k - len(after)
            due = 0
            for nb in after:
                due |= nb & rest
                slots += 1
                if due.bit_count() > slots and (
                    singles or _spread_exceeds(nbrs, due, slots)
                ):
                    break
            else:
                room = k
                ball = frontier = due if singles else 0
                while frontier and room < rest.bit_count():
                    room += k
                    grown = ball
                    while frontier:
                        low = frontier & -frontier
                        frontier ^= low
                        grown |= nbrs[low.bit_length() - 1]
                    frontier = grown & rest & ~ball
                    ball |= frontier
                    if ball.bit_count() > room:
                        break
                else:
                    child = rest
                    for nb in after:
                        child = child << n | nb & rest
                    if child not in failed:
                        cover.append(clique)
                        if extend(rest, after, child):
                            return True
                        cover.pop()
        if len(failed) == max_failed:
            raise SearchBudgetExceeded
        failed.add(key)
        return False

    full = (1 << n) - 1
    if extend(full, (), full):
        return cover
    return None


def _least_width_cover(
    nbrs: Sequence[int],
    singles: bool,
    low: int = 0,
    stop: int | None = None,
    max_failed: int | None = None,
) -> tuple[int, list[int] | None]:
    """Least k >= ``low`` with an ordered cover of width <= k, and that cover.

    Starts as the module docstring says, or at ``low`` when that is
    higher.  With ``stop``, k stays below it: (stop, None) when no k in
    that range succeeds, which is how a caller that already holds a
    cover of width ``stop`` skips deciding it.  A decision that memoizes
    more than ``max_failed`` failed states counts as failed.
    """
    if singles:
        start = (max(bits.bit_count() for bits in nbrs) + 1) // 2
    else:
        # every component is a clique when each closed neighborhood equals
        # that of the least vertex in it
        closed = [bits | 1 << v for v, bits in enumerate(nbrs)]
        start = 0 if all(c == closed[(c & -c).bit_length() - 1] for c in closed) else 1
    k = max(low, start)
    while stop is None or k < stop:
        try:
            cover = _ordered_cover_within(nbrs, k, singles, max_failed)
        except SearchBudgetExceeded:
            cover = None
        except RecursionError:  # the search recurses once per clique placed
            raise _too_deep(len(nbrs)) from None
        if cover is not None:
            return k, cover
        k += 1
    return stop, None


def ccw_exact(g: Graph, limit: int | None = DEFAULT_CCW_LIMIT) -> CcwResult:
    """Minimum cover width over all ordered clique covers, with a witness.

    Decides "ccw <= k" for k = 0, 1, 2, ... with a memoized left-to-right
    search over ordered clique covers, skipping k = 0 unless every
    component is a clique; the first k that succeeds is the
    clique cover width, and the cover found for it is the witness: the
    lexicographically smallest optimal cover (cliques compared as
    sorted tuples, in cover order).
    """
    if g.n < 1:
        raise ValueError("clique cover width requires at least one vertex")
    _refuse_above(g.n, limit, "clique-cover")
    value, cover = _least_width_cover(g._bits, False)
    return CcwResult(value, OrderedCliqueCover._from_masks(g, cover))


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
