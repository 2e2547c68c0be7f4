"""Definition-level versions of what the package computes another way,
which the tests compare it against, and helpers of the acceptance
criteria.  The package itself calls none of them."""

from fractions import Fraction
from itertools import combinations

from graphassoc import Fan, Graph, GraphError, StableTree, WeightVector, bits_of
from graphassoc.graphs import cliques, from_edges, induced_connected, subsets_by_size
from graphassoc.moduli import Label, _label_key, _vertex_stable, enumerate_stable_trees
from graphassoc.obstructions import Constraint, LinearSystem
from graphassoc.tubings import _compatibility, proper_tubes

# -- graphs and tubings -------------------------------------------------------


def relabel(g: Graph, perm: list[int]) -> Graph:
    """perm maps old labels to new labels."""
    return from_edges(g.num_vertices, [(perm[u], perm[v]) for u, v in g.edges()])


def is_tube(g: Graph, s: int) -> bool:
    """A tube induces a connected subgraph; singletons are (trivial) tubes."""
    if s == 0:
        raise GraphError("the empty set is neither a tube nor a non-tube")
    if s & ~g.vertex_mask:
        raise GraphError("subset mentions out-of-range vertices")
    return induced_connected(g, s)


def non_tubes(g: Graph) -> list[int]:
    """Subsets of size >= 2 inducing a disconnected subgraph, canonical order."""
    out = []
    for size in range(g.num_vertices, 1, -1):
        for s in subsets_by_size(g.num_vertices, size):
            if not induced_connected(g, s):
                out.append(s)
    return out


def compatible(g: Graph, t1: int, t2: int) -> bool:
    """Tubes are compatible when nested, or disjoint with disconnected union.

    A disjoint union covering all of V(G) and connected still blocks
    compatibility; this is the rule under which size-j tubings match the
    j-dimensional cones of the fan.
    """
    for t in (t1, t2):
        if not is_tube(g, t):
            raise GraphError(f"{bits_of(t)} is not a tube")
        if t == g.vertex_mask:
            raise GraphError("tubings only contain proper tubes")
    if t1 & t2:
        return (t1 | t2) in (t1, t2)  # overlap must be containment
    return not induced_connected(g, t1 | t2)


def enumerate_tubings(g: Graph, size: int) -> list[tuple[int, ...]]:
    """All tubings with exactly `size` tubes, each a sorted tuple of tube
    masks, in lexicographic order of the chosen tube indices."""
    if not (0 <= size <= g.num_vertices - 1):
        raise GraphError(f"tubing size {size} out of range")
    if size == 0:
        return [()]
    all_tubes = sorted(proper_tubes(g))
    return [
        tuple(all_tubes[i] for i in chosen)
        for chosen in cliques(_compatibility(g, all_tubes), size)
        if len(chosen) == size
    ]


# -- the weight system --------------------------------------------------------


def full_w1w2_system(g: Graph) -> LinearSystem:
    """The weight conditions with a row for every subset of size >= 2:

    0 < c_j <= 1 for all j; c_0 + sum_T c > 1 per nontrivial tube T;
    c_0 + sum_D c <= 1 per non-tube D; total (with c_M = 1) exceeding 2.
    Variable 0 is c_0; variable i+1 carries graph vertex i.
    """
    n = g.num_vertices
    nv = n + 1
    rows = []
    zero, one = Fraction(0), Fraction(1)

    def unit(j):
        return tuple(one if i == j else zero for i in range(nv))

    for j in range(nv):
        rows.append(Constraint(unit(j), ">", zero))
        rows.append(Constraint(unit(j), "<=", one))

    def subset_row(s):
        return tuple(
            one if (j == 0 or (j >= 1 and s >> (j - 1) & 1)) else zero
            for j in range(nv)
        )

    tube_rows, non_tube_rows = [], []
    for size in range(n, 1, -1):
        for s in subsets_by_size(n, size):
            if induced_connected(g, s):
                tube_rows.append(Constraint(subset_row(s), ">", one))
            else:
                non_tube_rows.append(Constraint(subset_row(s), "<=", one))
    rows += tube_rows + non_tube_rows

    rows.append(Constraint(tuple(one for _ in range(nv)), ">", one))
    return LinearSystem(nv, tuple(rows))


# -- fans ---------------------------------------------------------------------


def face_counts(f: Fan) -> tuple[int, ...]:
    """(f_0, ..., f_{d-1}): number of j-dimensional cones, i.e. distinct
    (j+1)-subsets of rays occurring inside maximal cones."""
    faces = [set() for _ in range(f.dim)]
    for c in map(bits_of, f.max_cones):
        for j in range(1, f.dim + 1):
            faces[j - 1].update(combinations(c, j))
    return tuple(len(s) for s in faces)


def canonical_form(f: Fan):
    """Order-independent fingerprint: sorted ray coordinate vectors plus
    maximal cones rewritten in terms of sorted ray positions."""
    order = sorted(range(len(f.rays)), key=lambda i: f.rays[i].coords)
    bit = [0] * len(order)  # bit[old ray index]: the ray's bit in sorted order
    for new, old in enumerate(order):
        bit[old] = 1 << new
    rays = tuple(f.rays[i].coords for i in order)
    cones = []
    for c in f.max_cones:
        m = 0
        while c:
            low = c & -c
            m |= bit[low.bit_length() - 1]
            c ^= low
        cones.append(m)
    return (f.dim, rays, tuple(sorted(cones)))


# -- stable trees -------------------------------------------------------------


def degree(tree: StableTree, v: int) -> int:
    return sum(1 for e in tree.edges if v in e)


def is_path(tree: StableTree) -> bool:
    return all(degree(tree, v) <= 2 for v in range(tree.num_vertices))


def end_vertices(tree: StableTree) -> list[int]:
    return [v for v in range(tree.num_vertices) if degree(tree, v) == 1]


def tree_stable(w: WeightVector, tree: StableTree) -> bool:
    """Every vertex v satisfies deg(v) + w(legs(v)) > 2."""
    return all(
        _vertex_stable(w, tree.legs[v], degree(tree, v))
        for v in range(tree.num_vertices)
    )


def chain_shape_check(w: WeightVector) -> bool:
    """True iff every stable tree is a chain with the two heaviest marks at
    opposite ends (vacuously true for the one-component tree)."""
    order = sorted(["M"] + list(range(w.n - 1)), key=lambda l: (_HeavyKey(w, l)))
    h1, h2 = order[0], order[1]
    for tree in enumerate_stable_trees(w, w.n - 2):
        if tree.num_vertices == 1:
            continue
        if not is_path(tree):
            return False
        ends = end_vertices(tree)
        e1, e2 = ends[0], ends[1]
        if not (
            (h1 in tree.legs[e1] and h2 in tree.legs[e2])
            or (h1 in tree.legs[e2] and h2 in tree.legs[e1])
        ):
            return False
    return True


class _HeavyKey:
    """Sort key: heavier weight first, then label order."""

    def __init__(self, w: WeightVector, label: Label):
        self.weight = w.weight_of(label)
        self.label = _label_key(label)

    def __lt__(self, other):
        cmp = self.weight.compare(other.weight)
        if cmp != 0:
            return cmp > 0
        return self.label < other.label
