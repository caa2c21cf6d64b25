"""Immutable undirected simple graphs on vertices 0..n-1.

Adjacency is kept only as per-vertex bitmasks (bit w of ``_bits[v]`` is
set iff vw is an edge), which construction, gluing, edge listing,
clique tests, widths and the exact solvers all work on; the public
neighbor sets are computed from a mask on each call.  Graphs never
change after construction, so they are safe to share between threads
and to use as dict keys.

Also provides the two NP-hard scalar parameters needed by the width
inequalities, clique number and induced star number, both computed
exactly by one clique search (the star number as the largest clique of
the complement inside a neighborhood); the clique sum of two graphs
glued along a shared clique; the plain-text edge-list format; and the
line cursor that reads every text format of the package.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _members(mask: int) -> list[int]:
    """The set bits of a nonnegative ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Graph:
    """Undirected simple graph: no loops, no parallel edges, vertices 0..n-1."""

    __slots__ = ("n", "_bits")
    _bits: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        bits = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        self.n, self._bits = n, tuple(bits)

    @classmethod
    def _from_bits(cls, bits: Sequence[int]) -> Graph:
        """The graph on len(bits) vertices with neighborhood masks ``bits``.

        Unchecked: the masks must be symmetric and loop-free.
        """
        g = cls.__new__(cls)
        g.n, g._bits = len(bits), tuple(bits)
        return g

    @property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Every vertex's neighbor set, built from the masks on each call."""
        return tuple(frozenset(_members(bits)) for bits in self._bits)

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(_members(self._bits[v]))

    def neighbor_bits(self, v: int) -> int:
        """Neighborhood of v as a bitmask (bit w set iff vw is an edge)."""
        return self._bits[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._bits[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return self._bits[u] >> v & 1 == 1

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically.

        Walks each mask above u from its lowest bit up, so no sort is needed.
        """
        return [
            (u, v)
            for u, bits in enumerate(self._bits)
            for v in _members(bits & -(2 << u))  # the neighbors above u
        ]

    @property
    def edge_count(self) -> int:
        return sum(bits.bit_count() for bits in self._bits) // 2

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff every two distinct vertices of the set are adjacent.

    The empty set and singletons count as cliques.  Raises for the
    least vertex out of range, if any.
    """
    vs = set(vertices)
    if vs and (min(vs) < 0 or max(vs) >= g.n):
        g._check_vertex(min(v for v in vs if not 0 <= v < g.n))
    mask = 0
    for v in vs:
        mask |= 1 << v
    bits = g._bits
    for v in vs:
        if mask & ~bits[v] != 1 << v:  # v misses a vertex of the set
            return False
    return True


def clique_sum_map(g1: Graph, g2: Graph, shared: dict[int, int]) -> dict[int, int]:
    """Vertex map from g2 into the clique sum's numbering.

    Vertices of g1 keep their indices; unshared g2 vertices are appended
    in g2-index order after them.
    """
    inverse = {v2: v1 for v1, v2 in shared.items()}
    fresh = iter(range(g1.n, g1.n + g2.n))  # numbers for the unshared vertices
    return {v2: inverse[v2] if v2 in inverse else next(fresh) for v2 in range(g2.n)}


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
    appends unshared g2 vertices in g2-index order; its masks are g1's
    with g2's, translated into that numbering, ORed onto them.
    """
    return _clique_sum(g1, g2, shared)[0]


def _clique_sum(
    g1: Graph, g2: Graph, shared: dict[int, int]
) -> tuple[Graph, dict[int, int]]:
    """:func:`clique_sum` and :func:`clique_sum_map`, checking ``shared`` once."""
    check_shared_clique(g1, g2, shared)
    mapping = clique_sum_map(g1, g2, shared)
    bit = [1 << mapping[v2] for v2 in range(g2.n)]
    bits = [*g1._bits, *[0] * (g2.n - len(shared))]
    for v2, nbrs in enumerate(g2._bits):  # the shared clique's edges are g1's already
        # distinct g2 vertices have distinct bits, so the sum is their union
        bits[mapping[v2]] |= sum(bit[w] for w in _members(nbrs))
    return Graph._from_bits(bits), mapping


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
    are handled in one place.  Blank lines are dropped once, at
    construction; only an error counts them back in, to name its
    physical line.  Errors are ``ValueError`` naming the input and the
    offending line; lines after the last block read are ignored.
    """

    __slots__ = ("name", "_physical", "_lines", "_pos")

    def __init__(self, text: str, name: str):
        self.name = name
        self._physical = text.splitlines()
        self._lines = [line for line in self._physical if line.strip()]
        self._pos = 0  # index of the next kept line; the last one read is _pos - 1

    def _early(self, wanted: str) -> ValueError:
        return ValueError(
            f"{self.name} ends early: expected {wanted} "
            f"after line {len(self._physical)}"
        )

    def _next(self, wanted: str) -> str:
        pos = self._pos
        if pos == len(self._lines):
            raise self._early(wanted)
        self._pos = pos + 1
        return self._lines[pos]

    def error(self, problem: str, back: int = 1) -> ValueError:
        """A ``ValueError`` about the line read ``back`` lines ago (1: the last)."""
        pos = self._pos - back
        numbers = [i for i, line in enumerate(self._physical, 1) if line.strip()]
        return ValueError(
            f"{self.name} line {numbers[pos]}: {problem}, got {self._lines[pos]!r}"
        )

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

    def rows(self, count: int, width: int | None = None) -> list[list[int]]:
        """Read the next ``count`` lines as :meth:`ints` would, in one slice.

        Only when the slice fails are its lines read again one by one,
        which raises about the first bad line, or else the early end.
        """
        start = self._pos
        lines = self._lines[start : start + count]
        try:
            rows = [list(map(int, line.split())) for line in lines]
        except ValueError:
            rows = []
        if len(rows) == count and (
            width is None or all(len(row) == width for row in rows)
        ):
            self._pos = start + count
            return rows
        for _ in lines:
            self.ints(width)
        raise self._early("a line of integers")


def format_edge_list(g: Graph) -> str:
    """Edge-list text format: "n m" then one "u v" line per edge, sorted."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# The most vertices an edge-list header or a ``gen`` size may ask for.
# ``Graph(n)`` builds n neighborhood masks of up to n bits each however
# few edges follow, so a single number must not be able to ask for an
# unbounded allocation; the exact solvers stop far below this size.
MAX_VERTICES = 10_000


def read_edge_list(r: LineReader) -> Graph:
    """Edge-list block: an ``n m`` header, n <= MAX_VERTICES, then m ``u v`` lines."""
    n, m = r.ints(2)
    if n < 0 or m < 0:
        raise r.error("counts must be >= 0")
    if n > MAX_VERTICES:
        raise r.error(f"at most {MAX_VERTICES} vertices allowed")
    return Graph(n, r.rows(m, 2))


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format produced by :func:`format_edge_list`."""
    return read_edge_list(LineReader(text, "edge list"))
