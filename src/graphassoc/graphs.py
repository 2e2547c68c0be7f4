"""Simple graphs on bitmask adjacency rows, tube enumeration, the
iterated-cone-over-a-discrete-set classifier, the compatibility table
that the other modules share (`nested_or_apart`), the clique walk that
counts `moduli`'s trees (`cliques`), and the catalog of connected graphs
on 1 to 8 vertices up to isomorphism, read from the package data file
catalog.txt (`connected_graphs_up_to_iso`).

Vertex subsets are plain ints used as bitmasks throughout the package.
Connectivity has one algorithm per kind of question: a loop over all
vertex subsets reads `component_table`, built once per graph by a DP over
subsets, and a query about one subset (`is_connected`, `obstruction_b`'s
4-sets) runs the search `component`, so that no 2^n table is built for it.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

MAX_VERTICES = 24  # bitmask-width guard for subset enumeration


class GraphError(ValueError):
    pass


class UnsupportedGraphError(GraphError):
    """Raised for disconnected non-discrete graphs, which have no toric
    graph associahedron in the formulation used here."""


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask: int) -> list[int]:
    """Set bit positions, ascending.  One step per set bit, so a sparse mask
    with a high top bit (a cone over many rays) costs no more than its bits."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def cliques(compat: list[int], max_size: int) -> Iterator[tuple[int, ...]]:
    """Every clique of 1..max_size nodes of the graph whose node i is
    adjacent to the nodes of the bitmask compat[i], as the increasing tuple
    of its nodes, depth first: each size comes out in lexicographic order.

    These are the faces of a flag complex: the stable trees that `moduli`
    counts over a table of compatible nodal divisors (tubings are counted,
    not walked; the test oracles walk them over a table of compatible
    tubes)."""
    return _extend(compat, max_size, (), (1 << len(compat)) - 1 if max_size > 0 else 0)


def _extend(compat: list[int], max_size: int, chosen: tuple, cand: int) -> Iterator[tuple[int, ...]]:
    """The cliques of `cliques` that extend chosen by nodes of cand; at
    module level, since a recursive closure would be a reference cycle."""
    while cand:
        low = cand & -cand
        cand ^= low
        clique = chosen + (low.bit_length() - 1,)
        yield clique
        if len(clique) < max_size:
            # compatible nodes after this one only, so none is seen twice
            yield from _extend(compat, max_size, clique, cand & compat[clique[-1]])


def nested_or_apart(
    sets: list[int], width: int, adj: Optional[Sequence[int]] = None
) -> tuple[list[int], list[int]]:
    """(above, compat) over bitmasks of elements 0..width-1: above[i], the
    sets b that contain a = sets[i] (set i among them), and compat[i], the
    sets b other than set i that are nested with a or apart from it:
    disjoint and, when adj is given, with no l of b such that adj[l] & a.
    This is the compatibility of tubes (adj the graph's rows), of the
    M-free sides of nodal divisors, and of laminar ray supports (no adj).

    From holds[l], the sets that hold element l: b contains a iff b holds
    every element of a, b lies inside a iff b holds no element off a, and
    b is apart from a iff b holds no element of a and no element off a
    adjacent to a.  So above[i] is the AND of holds over a, and compat[i]
    the union of above[i] and the complements of the two ORs."""
    holds = [0] * width
    for i, a in enumerate(sets):
        for l in bits_of(a):
            holds[l] |= 1 << i
    every = (1 << len(sets)) - 1
    above, compat = [], []
    for i, a in enumerate(sets):
        up, outside, near = every, 0, 0
        for l, h in enumerate(holds):
            if a >> l & 1:
                up &= h
                near |= h
            else:
                outside |= h
                if adj is not None and adj[l] & a:
                    near |= h
        above.append(up)
        compat.append((up | every & ~outside | every & ~near) & ~(1 << i))
    return above, compat


def _capped(n: int) -> int:
    """n, refused before anything is allocated for it if over the cap."""
    if n > MAX_VERTICES:
        raise GraphError(f"vertex count {n} exceeds the {MAX_VERTICES}-vertex cap")
    return n


@dataclass(frozen=True)
class Graph:
    """Labeled simple graph; adj[v] is the neighbour bitmask of vertex v."""

    num_vertices: int
    adj: tuple[int, ...]

    def __post_init__(self):
        n = _capped(self.num_vertices)
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        if len(self.adj) != n:
            raise GraphError("adjacency row count does not match num_vertices")
        full = (1 << n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise GraphError(f"adjacency row of {v} mentions out-of-range vertices")
            if row & (1 << v):
                raise GraphError(f"self-loop at vertex {v}")
        for u in range(n):
            for v in range(u + 1, n):
                if bool(self.adj[u] & (1 << v)) != bool(self.adj[v] & (1 << u)):
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")

    @property
    def vertex_mask(self) -> int:
        return (1 << self.num_vertices) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] & (1 << v))

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u in range(self.num_vertices)
            for v in range(u + 1, self.num_vertices)
            if self.has_edge(u, v)
        ]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def is_discrete(self) -> bool:
        return all(row == 0 for row in self.adj)


def from_edges(num_vertices: int, edges: Iterable[tuple[int, int]]) -> Graph:
    adj = [0] * _capped(num_vertices)
    for u, v in edges:
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise GraphError(f"edge ({u},{v}) out of range for {num_vertices} vertices")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u  # duplicate edges are idempotent
    return Graph(num_vertices, tuple(adj))


# -- named families ---------------------------------------------------------
# Each family passes its vertex count through `_capped` as its first
# argument, so that an oversized one is refused before its rows or edges.


def complete(n: int) -> Graph:
    return Graph(_capped(n), tuple((1 << n) - 1 & ~(1 << v) for v in range(n)))


def path(n: int) -> Graph:
    return from_edges(_capped(n), [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return from_edges(_capped(n), [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    """Star on n vertices with center 0."""
    return from_edges(_capped(n), [(0, i) for i in range(1, n)])


def discrete(n: int) -> Graph:
    return Graph(_capped(n), (0,) * n)


def complete_bipartite(m: int, n: int) -> Graph:
    return from_edges(_capped(m + n), [(i, m + j) for i in range(m) for j in range(n)])


def complete_multipartite(parts: list[int]) -> Graph:
    """Complete multipartite graph; parts get consecutive label blocks."""
    n = _capped(sum(parts))
    edges = []
    start = 0
    blocks = []
    for p in parts:
        blocks.append(range(start, start + p))
        start += p
    for i, bi in enumerate(blocks):
        for bj in blocks[i + 1:]:
            edges.extend((u, v) for u in bi for v in bj)
    return from_edges(n, edges)


def cone(g: Graph) -> Graph:
    """New universal vertex with the highest label."""
    n = g.num_vertices
    new = 1 << n
    adj = [row | new for row in g.adj]
    adj.append((1 << n) - 1)
    return Graph(n + 1, tuple(adj))


# -- graph DSL --------------------------------------------------------------

_FAMILY_RE = re.compile(r"^(K|P|C|S|D)(\d+)$")
_BIPARTITE_RE = re.compile(r"^Kb(\d+),(\d+)$")
_CONE_RE = re.compile(r"^cone(?:\^(\d+))?\((.*)\)$")


def parse_graph(spec: str) -> Graph:
    """Parse the ASCII graph DSL: K/P/C/S/D families, Kb<m>,<n>, cone^l(...)."""
    s = spec.strip()
    m = _CONE_RE.match(s)
    if m:
        times = int(m.group(1)) if m.group(1) else 1
        g = parse_graph(m.group(2))
        for _ in range(times):
            g = cone(g)
        return g
    m = _BIPARTITE_RE.match(s)
    if m:
        return complete_bipartite(int(m.group(1)), int(m.group(2)))
    m = _FAMILY_RE.match(s)
    if m:
        kind, n = m.group(1), int(m.group(2))
        if n < 1:
            raise GraphError(f"bad vertex count in {spec!r}")
        return {
            "K": complete,
            "P": path,
            "C": cycle,
            "S": star,
            "D": discrete,
        }[kind](n)
    raise GraphError(f"cannot parse graph spec {spec!r}")


def parse_edge_list(text: str | Iterable[str]) -> Graph:
    """Edge-list file format: first line vertex count, then 'u v' lines.

    '#' starts a comment; duplicate edges are tolerated.  ``text`` is the
    whole input or its lines, such as an open file, which is then read no
    further than the first line when the vertex count is over the cap.
    """
    lines = text.splitlines() if isinstance(text, str) else (
        ln for chunk in text for ln in chunk.splitlines())
    lines = filter(None, (ln.split("#", 1)[0].strip() for ln in lines))
    header = next(lines, None)
    if header is None:
        raise GraphError("empty edge-list input")
    try:
        n = int(header)
    except ValueError:
        raise GraphError(f"first line must be the vertex count, got {header!r}")
    _capped(n)
    edges = []
    for ln in lines:
        try:
            u, v = map(int, ln.split())
        except ValueError:  # not two tokens, or a token that is no integer
            raise GraphError(f"bad edge line {ln!r}")
        edges.append((u, v))
    return from_edges(n, edges)


# -- tubes ------------------------------------------------------------------


def component(g: Graph, s: int) -> int:
    """The component of G[s] that holds the lowest vertex of s (0 for s = 0)."""
    seen = frontier = s & -s
    while frontier:
        nxt = 0
        m = frontier
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            nxt |= g.adj[v]
        frontier = nxt & s & ~seen
        seen |= frontier
    return seen


def induced_connected(g: Graph, s: int) -> bool:
    """Connectivity of the induced subgraph on the bitmask s (s nonempty)."""
    return component(g, s) == s


@functools.lru_cache(maxsize=1)
def component_table(g: Graph) -> tuple[int, ...]:
    """comp[s] = component(g, s) for every bitmask s, for the loops over all
    subsets.  With top the highest vertex of s, G[s] is G[s - top] plus top,
    so the component of s's lowest vertex is comp[s - top] unless top has a
    neighbour in it; then it grows from comp[s - top] + top by whole
    neighbourhoods, nbr[c] the union of the rows of c's vertices (itself a
    DP: nbr[s] = nbr[s - top] | adj[top]), until it is stable.

    The cache keeps the last graph's table only: one `verify` or fan build
    reads it many times, and a sweep over the catalog, whose graphs live
    on, keeps no table of the graphs it has done."""
    size = 1 << g.num_vertices
    nbr, comp = [0] * size, [0] * size
    for v, row in enumerate(g.adj):
        top = 1 << v
        for t in range(top):
            s = t | top
            nbr[s] = nbr[t] | row
            c = comp[t]
            if row & c:
                c |= top
                while (grown := (c | nbr[c]) & s) != c:
                    c = grown
            comp[s] = c or top  # top alone when t is empty
    return tuple(comp)


def subsets_by_size(n: int, size: int) -> Iterator[int]:
    """All bitmasks over n bits with the given popcount, ascending."""
    if size == 0:
        yield 0
        return
    # Gosper's hack
    m = (1 << size) - 1
    limit = 1 << n
    while m < limit:
        yield m
        c = m & -m
        r = m + c
        m = (((r ^ m) >> 2) // c) | r


def tubes(g: Graph, min_size: int, max_size: int) -> list[int]:
    """Tubes with size in [min_size, max_size], in subdivision order:
    decreasing cardinality, then ascending bitmask."""
    if not (1 <= min_size <= max_size <= g.num_vertices):
        raise GraphError(f"bad tube size range [{min_size}, {max_size}]")
    comp = component_table(g)
    sizes = range(max_size, min_size - 1, -1)
    return [s for size in sizes for s in subsets_by_size(g.num_vertices, size) if comp[s] == s]


def is_connected(g: Graph) -> bool:
    return induced_connected(g, g.vertex_mask)


# -- iterated-cone classifier -----------------------------------------------


def universal_vertices(g: Graph) -> int:
    """Bitmask of vertices adjacent to every other vertex."""
    m = 0
    for v in range(g.num_vertices):
        if g.degree(v) == g.num_vertices - 1:
            m |= 1 << v
    return m


@dataclass(frozen=True)
class ConeStructure:
    """Decomposition of an iterated cone: independent base set of size k
    plus universal cone vertices."""

    independent: int
    cone_vertices: int

    @property
    def k(self) -> int:
        return self.independent.bit_count()

    @property
    def num_cone(self) -> int:
        return self.cone_vertices.bit_count()


def classify_iterated_cone(g: Graph) -> Optional[ConeStructure]:
    """ConeStructure if g is an iterated cone over a discrete set, else None.

    Complete graphs use the lowest-label vertex as the size-1 base, so
    K_m = Cone^{m-1}(single vertex).  Discrete graphs classify with an
    empty cone set; any other disconnected graph is unsupported.
    """
    if not is_connected(g) and not g.is_discrete():
        raise UnsupportedGraphError(
            "unsupported: disconnected non-discrete graph"
        )
    univ = universal_vertices(g)
    rest = g.vertex_mask & ~univ
    if rest == 0:
        # complete graph; peel one vertex off as the discrete base
        lowest = g.vertex_mask & -g.vertex_mask
        return ConeStructure(independent=lowest, cone_vertices=g.vertex_mask & ~lowest)
    for v in bits_of(rest):
        if g.adj[v] & rest:
            return None
    return ConeStructure(independent=rest, cone_vertices=univ)


# -- small-graph catalog ----------------------------------------------------

CATALOG_MAX_VERTICES = 8  # catalog.txt lists the connected graphs on 1..8 vertices


def connected_graphs_up_to_iso(n: int) -> list[Graph]:
    """All connected graphs on n vertices, 1 <= n <= 8, one per isomorphism
    class, read from the package's catalog.txt (written by
    scripts/make_catalog.py).  Each line there is `n mask`, the edge set in
    hex with bit k for the k-th pair (u, v), u < v, in lexicographic order.
    For n <= 7 the graphs come in the order and with the vertex labels of
    networkx's graph atlas; for n = 8 by edge count, then in the order the
    script generated them.  The file is read and split by size once per
    process (`_catalog_blocks`), and each n's graphs are built on the first
    call for that n."""
    if not 1 <= n <= CATALOG_MAX_VERTICES:
        raise GraphError(f"the graph catalog covers 1 to {CATALOG_MAX_VERTICES} vertices, not {n}")
    return list(_catalog(n))


@functools.cache
def _catalog(n: int) -> tuple[Graph, ...]:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    masks = _catalog_blocks()[n].split()[1::2]  # each line is `n mask`
    return tuple(from_edges(n, [pairs[k] for k in bits_of(int(mask, 16))]) for mask in masks)


@functools.cache
def _catalog_blocks() -> dict[int, str]:
    """catalog.txt's lines by vertex count, one block of text for each.  The
    file lists the counts in ascending order, so a block ends where the next
    count's first line begins, and no line is parsed before its n is asked."""
    from importlib.resources import files

    text = (files(__package__) / "catalog.txt").read_text()
    blocks, start = {}, 0
    for n in range(1, CATALOG_MAX_VERTICES + 1):
        end = text.find(f"\n{n + 1} ", start) + 1 or len(text)  # 0 past the last count
        blocks[n], start = text[start:end], end
    return blocks
