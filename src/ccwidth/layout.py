"""Linear orderings, ordered clique covers, and their widths.

A linear ordering of a graph is a permutation of its vertices; its width
is the largest index gap over edges.  An ordered clique cover partitions
the vertex set into cliques c_0..c_t; its width is the largest |j - i|
over edges with one endpoint in c_i and the other in c_j.  Contracting
each clique to a single vertex gives the cover's quotient graph, whose
bandwidth under the identity ordering equals the cover width.

Width over an empty edge set is 0 by convention, so a single-clique
cover of a complete graph has width 0.

Covers carry a reference to the graph they partition, so a cover object
is a self-validating certificate.  ``validate_cover`` is the non-raising
checker used on untrusted (e.g. file-loaded) clique lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .graph import Graph, LineReader, _members


class LinearOrdering:
    """A permutation of the vertices 0..n-1 with its inverse."""

    __slots__ = ("order", "position")

    def __init__(self, order: Sequence[int]):
        order = tuple(order)
        n = len(order)
        position = [-1] * n
        for idx, v in enumerate(order):
            if not 0 <= v < n or position[v] != -1:
                raise ValueError(f"not a permutation of 0..{n - 1}: {order}")
            position[v] = idx
        self.order: tuple[int, ...] = order
        self.position: tuple[int, ...] = tuple(position)

    def __len__(self) -> int:
        return len(self.order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearOrdering):
            return NotImplemented
        return self.order == other.order

    def __hash__(self) -> int:
        return hash(self.order)

    def __repr__(self) -> str:
        return f"LinearOrdering({list(self.order)})"


@dataclass(frozen=True)
class CoverCheck:
    """Result of a cover validity check; falsy when invalid, with a reason."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_cover(g: Graph, cliques: Sequence[Iterable[int]]) -> CoverCheck:
    """Check that ``cliques`` is an ordered partition of V(g) into cliques.

    Never raises; returns a falsy :class:`CoverCheck` carrying the first
    problem found: scanning the classes in order and each class's
    vertices in increasing order, an out-of-range vertex, an empty
    class or a duplicate vertex; then the least uncovered vertex; then
    the first class, in order, that is not a clique, with its least
    non-adjacent pair.  Each class and the covered set are bitmasks,
    so a class is checked against one neighborhood mask per vertex.
    """
    n = g.n

    def classes() -> Iterator[tuple[int, int | None]]:
        for cl in cliques:
            mask = 0
            outside = None  # least vertex out of range
            for v in cl:
                if 0 <= v < n:
                    mask |= 1 << v
                elif outside is None or v < outside:
                    outside = v
            yield mask, outside

    problem = _cover_problem(g, classes())
    return CoverCheck(problem is None, problem)


def _cover_problem(
    g: Graph, classes: Iterable[tuple[int, int | None]]
) -> str | None:
    """The first problem :func:`validate_cover` names, None if there is none.

    ``classes`` gives each class, in order, as the mask of its vertices
    in range and its least vertex out of range (None if it has none).
    """
    n = g.n
    seen = 0
    masks = []
    for pos, (mask, outside) in enumerate(classes):
        dup = mask & seen
        # negative vertices sort before every in-range one, the rest after
        if outside is not None and (outside < 0 or not dup):
            return f"vertex {outside} out of range for n={n}"
        if not mask:
            return f"empty clique at position {pos}"
        if dup:
            return f"duplicate vertex {_members(dup)[0]}"
        seen |= mask
        masks.append(mask)
    uncovered = (1 << n) - 1 & ~seen
    if uncovered:
        return f"vertex {_members(uncovered)[0]} uncovered"
    bits = g._bits
    for pos, mask in enumerate(masks):
        below_top = mask ^ (1 << mask.bit_length() - 1)  # the top has none above it
        while below_top:
            low = below_top & -below_top
            below_top ^= low
            u = low.bit_length() - 1
            missing = mask & ~bits[u] & -(low << 1)  # the vertices above u it misses
            if missing:
                return (
                    f"class at position {pos} is not a clique: "
                    f"{u} and {_members(missing)[0]} are not adjacent"
                )
    return None


class OrderedCliqueCover:
    """An ordered partition of V(G) into cliques, bound to its graph.

    Construction validates the partition and raises ``ValueError`` on any
    violation, so existing instances are always well-formed.  A cover and
    its graph never change, so :func:`cover_width` computes the width
    once and keeps it in ``_width``.
    """

    __slots__ = ("graph", "cliques", "_index_of", "_width")

    def __init__(self, graph: Graph, cliques: Sequence[Iterable[int]]):
        materialized = tuple(map(frozenset, cliques))
        check = validate_cover(graph, materialized)
        if not check:
            raise ValueError(f"invalid clique cover: {check.reason}")
        self._bind(graph, materialized)

    @classmethod
    def _from_masks(cls, graph: Graph, masks: Sequence[int]) -> OrderedCliqueCover:
        """The cover whose cliques are the vertex bitmasks ``masks``, in order.

        Checked as :func:`validate_cover` checks the vertex lists of the
        masks; a bit at n or above is a vertex out of range.
        """
        n = graph.n
        outside = (None if m >> n == 0 else n + _members(m >> n)[0] for m in masks)
        problem = _cover_problem(graph, zip(masks, outside))
        if problem is not None:
            raise ValueError(f"invalid clique cover: {problem}")
        cover = cls.__new__(cls)
        cover._bind(graph, tuple(frozenset(_members(mask)) for mask in masks))
        return cover

    def _bind(self, graph: Graph, cliques: tuple[frozenset[int], ...]) -> None:
        self.graph = graph
        self.cliques: tuple[frozenset[int], ...] = cliques
        self._index_of: tuple[int, ...] = tuple(_clique_index(graph.n, cliques))
        self._width: int | None = None

    @property
    def size(self) -> int:
        """Number of cliques (t + 1 for cliques c_0..c_t)."""
        return len(self.cliques)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderedCliqueCover):
            return NotImplemented
        return self.graph == other.graph and self.cliques == other.cliques

    def __hash__(self) -> int:
        return hash((self.graph, self.cliques))

    def __repr__(self) -> str:
        return f"OrderedCliqueCover({[sorted(c) for c in self.cliques]})"


def _clique_index(n: int, cliques: Iterable[Iterable[int]]) -> list:
    """Each vertex's position in ``cliques``, None for one in none."""
    index_of: list = [None] * n
    for idx, cl in enumerate(cliques):
        for v in cl:
            index_of[v] = idx
    return index_of


def index_width(g: Graph, index: Sequence[int] | dict[int, int]) -> int:
    """Largest ``|index[u] - index[v]|`` over the edges uv of g, 0 if edgeless.

    The one width primitive: orderings index vertices by position,
    covers and clique sequences by the position of their clique.
    """
    width = 0
    for u, bits in enumerate(g._bits):
        above = bits & -(2 << u)  # each edge once, from its lower end
        if not above:
            continue  # vertices without edges need no index
        iu = index[u]
        while above:
            low = above & -above
            above ^= low
            gap = abs(iu - index[low.bit_length() - 1])
            if gap > width:
                width = gap
    return width


def ordering_width(g: Graph, ordering: LinearOrdering | Sequence[int]) -> int:
    """Width of a linear ordering: max index gap over edges, 0 if edgeless."""
    if not isinstance(ordering, LinearOrdering):
        ordering = LinearOrdering(ordering)
    if len(ordering) != g.n:
        raise ValueError(f"ordering has {len(ordering)} entries, graph has {g.n}")
    return index_width(g, ordering.position)


def cover_width(c: OrderedCliqueCover) -> int:
    """Width of an ordered clique cover: max |j - i| over cross edges."""
    if c._width is None:
        c._width = index_width(c.graph, c._index_of)
    return c._width


def cover_graph(c: OrderedCliqueCover) -> Graph:
    """Quotient graph: one vertex per clique, adjacent iff a cross edge exists."""
    idx = c._index_of
    nbrs = [0] * c.size
    for v, bits in enumerate(c.graph._bits):
        nbrs[idx[v]] |= bits
    quotient = []
    for i, bits in enumerate(nbrs):
        mask = 0
        for v in _members(bits):
            mask |= 1 << idx[v]
        quotient.append(mask & ~(1 << i))
    return Graph._from_bits(quotient)


def format_cover(cliques: Sequence[Iterable[int]]) -> str:
    """Cover text format: "cover N", then one sorted vertex line per clique."""
    lines = [f"cover {len(cliques)}"]
    lines.extend(" ".join(map(str, sorted(cl))) for cl in cliques)
    return "\n".join(lines) + "\n"


def read_cover(r: LineReader) -> list[list[int]]:
    """Cover block: ``cover N``, then N clique rows (no graph validation).

    A row that lists a vertex twice is an error: it could not be written
    back as it was read.
    """
    rows = r.rows(r.expect("cover"))
    if sum(map(len, map(set, rows))) < sum(map(len, rows)):  # a row repeats
        for i, row in enumerate(rows):
            seen: set[int] = set()
            for v in row:
                if v in seen:
                    raise r.error(f"vertex {v} listed twice", len(rows) - i)
                seen.add(v)
    return rows


def parse_cover(text: str, graph: Graph) -> OrderedCliqueCover:
    """Parse the cover text format and validate it against ``graph``."""
    return OrderedCliqueCover(graph, read_cover(LineReader(text, "cover")))


def format_ordering(ordering: LinearOrdering) -> str:
    """Ordering text format: "ordering n" then the permutation on one line."""
    return (
        f"ordering {len(ordering)}\n"
        + " ".join(str(v) for v in ordering.order)
        + "\n"
    )


def read_ordering(r: LineReader) -> LinearOrdering:
    """Ordering block: ``ordering n``, then the permutation on one line."""
    return LinearOrdering(r.ints(r.expect("ordering")))


def parse_ordering(text: str) -> LinearOrdering:
    """Parse the ordering text format produced by :func:`format_ordering`."""
    return read_ordering(LineReader(text, "ordering"))
