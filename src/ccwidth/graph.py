"""Immutable undirected simple graphs on vertices 0..n-1.

Adjacency is kept both as per-vertex frozensets (the public view) and as
per-vertex bitmasks, which the exact solvers use for fast subset tests.
Graphs never change after construction, so they are safe to share between
threads and to use as dict keys.

Also provides the two NP-hard scalar parameters needed by the width
inequalities, clique number and induced star number, both computed
exactly by one clique search (the star number as the largest clique of
the complement inside a neighborhood); the clique sum of two graphs
glued along a shared clique; the plain-text edge-list format; and the
line cursor that reads every text format of the package.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class Graph:
    """Undirected simple graph: no loops, no parallel edges, vertices 0..n-1."""

    __slots__ = ("n", "_adj", "_bits")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        self.n = n
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            adj[u].add(v)
            adj[v].add(u)
        self._adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
        self._bits: tuple[int, ...] = tuple(
            sum(1 << w for w in s) for s in self._adj
        )

    @property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        return self._adj

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return self._adj[v]

    def neighbor_bits(self, v: int) -> int:
        """Neighborhood of v as a bitmask (bit w set iff vw is an edge)."""
        return self._bits[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        return [(u, v) for u in range(self.n) for v in sorted(self._adj[u]) if u < v]

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self._adj) // 2

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff every two distinct vertices of the set are adjacent.

    The empty set and singletons count as cliques.
    """
    vs = sorted(set(vertices))
    for v in vs:
        g._check_vertex(v)
    for i, u in enumerate(vs):
        ubits = g.neighbor_bits(u)
        for v in vs[i + 1 :]:
            if not (ubits >> v) & 1:
                return False
    return True


def clique_sum_map(g1: Graph, g2: Graph, shared: dict[int, int]) -> dict[int, int]:
    """Vertex map from g2 into the clique sum's numbering.

    Vertices of g1 keep their indices; unshared g2 vertices are appended
    in g2-index order after them.
    """
    inverse = {v2: v1 for v1, v2 in shared.items()}
    mapping: dict[int, int] = {}
    nxt = g1.n
    for v2 in range(g2.n):
        if v2 in inverse:
            mapping[v2] = inverse[v2]
        else:
            mapping[v2] = nxt
            nxt += 1
    return mapping


def check_shared_clique(g1: Graph, g2: Graph, shared: dict[int, int]) -> None:
    """Raise ``ValueError`` unless ``shared`` can glue g1 to g2.

    The map must be injective, name vertices of both graphs, and its
    domain and image must induce cliques in g1 and g2 respectively.
    """
    if len(set(shared.values())) != len(shared):
        raise ValueError("shared vertex map must be injective")
    for v1, v2 in shared.items():
        g1._check_vertex(v1)
        g2._check_vertex(v2)
    if not is_clique(g1, shared.keys()):
        raise ValueError("shared set does not induce a clique in the first graph")
    if not is_clique(g2, shared.values()):
        raise ValueError("shared set does not induce a clique in the second graph")


def clique_sum(g1: Graph, g2: Graph, shared: dict[int, int]) -> Graph:
    """Glue g1 and g2 along a shared clique and return the union graph.

    ``shared`` maps g1 vertices onto the g2 vertices they are identified
    with, as ``check_shared_clique`` requires; an empty map degenerates
    to disjoint union.  The result keeps g1's vertex numbering and
    appends unshared g2 vertices in g2-index order.
    """
    check_shared_clique(g1, g2, shared)
    mapping = clique_sum_map(g1, g2, shared)
    n = g1.n + g2.n - len(shared)
    edges = list(g1.edges())
    edges.extend((mapping[u], mapping[v]) for u, v in g2.edges())
    return Graph(n, edges)


def _max_clique(nbrs: Sequence[int], cand: int) -> int:
    """Size of a largest clique inside the vertex bitmask ``cand``.

    ``nbrs[v]`` is v's neighborhood bitmask; exact branch-and-bound.
    """
    best = 0

    def extend(cand: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + bin(cand).count("1") <= best:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            extend(cand & nbrs[v], size + 1)

    extend(cand, 0)
    return best


def clique_number(g: Graph) -> int:
    """Size of a maximum clique, 0 for the empty graph.

    Exact, intended for the small graphs this toolkit targets.
    """
    return _max_clique(g._bits, (1 << g.n) - 1)


def star_number(g: Graph) -> int:
    """Largest number of leaves of an induced star subgraph.

    Equals the maximum over vertices v of the maximum independent set
    size inside N(v), which is the largest clique of the complement
    graph inside N(v); 0 when the graph has no edges.
    """
    if g.n == 0:
        raise ValueError("star number is undefined for the empty graph")
    full = (1 << g.n) - 1
    non_nbrs = [full & ~(bits | 1 << v) for v, bits in enumerate(g._bits)]
    return max(_max_clique(non_nbrs, bits) for bits in g._bits)


class LineReader:
    """Cursor over the nonblank lines of one text input.

    Every text format of the package is read as a sequence of blocks
    through this cursor, so blank lines, header counts and early ends
    are handled in one place.  Errors are ``ValueError`` naming the
    input and the offending line; lines after the last block read are
    ignored.
    """

    __slots__ = ("name", "_lines", "_pos")

    def __init__(self, text: str, name: str):
        self.name = name
        self._lines = text.splitlines()
        self._pos = 0  # index of the next line; the last line read is _pos - 1

    def _next(self, wanted: str) -> str:
        lines, pos = self._lines, self._pos
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        if pos == len(lines):
            raise ValueError(
                f"{self.name} ends early: expected {wanted} after line {pos}"
            )
        self._pos = pos + 1
        return lines[pos]

    def error(self, problem: str) -> ValueError:
        """A ``ValueError`` about the line read last."""
        line = self._lines[self._pos - 1]
        return ValueError(f"{self.name} line {self._pos}: {problem}, got {line!r}")

    def expect(self, keyword: str) -> int:
        """Read a ``keyword N`` line and return N, which must be >= 0."""
        parts = self._next(f"'{keyword} N'").split()
        if len(parts) != 2 or parts[0] != keyword:
            raise self.error(f"expected '{keyword} N'")
        try:
            count = int(parts[1])
        except ValueError:
            raise self.error(f"expected '{keyword} N'") from None
        if count < 0:
            raise self.error("counts must be >= 0")
        return count

    def ints(self, count: int | None = None) -> list[int]:
        """Read the next line's integers, exactly ``count`` of them if given."""
        line = self._next("a line of integers")
        try:
            values = list(map(int, line.split()))
        except ValueError:
            raise self.error("expected integers") from None
        if count is not None and len(values) != count:
            raise self.error(f"expected {count} integers")
        return values


def format_edge_list(g: Graph) -> str:
    """Edge-list text format: "n m" then one "u v" line per edge, sorted."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# The most vertices an edge-list header may declare.  ``Graph(n)`` builds
# n adjacency sets before any edge is read, so the header alone must not
# be able to ask for an unbounded allocation; the exact solvers stop far
# below this size.
MAX_VERTICES = 10_000


def read_edge_list(r: LineReader) -> Graph:
    """Edge-list block: an ``n m`` header, n <= MAX_VERTICES, then m ``u v`` lines."""
    n, m = r.ints(2)
    if n < 0 or m < 0:
        raise r.error("counts must be >= 0")
    if n > MAX_VERTICES:
        raise r.error(f"at most {MAX_VERTICES} vertices allowed")
    return Graph(n, [r.ints(2) for _ in range(m)])


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format produced by :func:`format_edge_list`."""
    return read_edge_list(LineReader(text, "edge list"))
