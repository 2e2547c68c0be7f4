"""Dual trees of weighted stable genus-0 marked curves.

Trees are enumerated at the nodal level: vertices are components, edges are
nodes, legs are the marks M, 0, 1, ..., n-2.  Coincidence loci (colliding
marks) are deliberately not enumerated; the toric comparison only needs the
nodal divisors plus the count of independent marks.

A set of marks is an int bitmask: bit 0 is M and bit l + 1 is mark l, the
order of `WeightVector.entries()`, so bit b weighs `w.entries()[b]`.  Leg
sets are such masks, and a nodal divisor is one too: its side without M.
The enumerator numbers each tree as it grows it, M on vertex 0; labels
and the JSON's vertex order appear only in `StableTree.to_json`.

For weights in (0, 1], a dual tree is stable iff the split of every edge is
a nodal divisor, and its splits are then pairwise compatible: their M-free
sides are nested or disjoint.  Stability of a vertex v is
deg(v) + w(legs(v)) > 2.

- Stable implies nodal.  Cutting an edge leaves, on either side, a subtree
  of k vertices whose degrees add up to 2k - 1.  Its k stability
  inequalities add up to w(side) > 1, so a side has two marks or more.  Two
  edges split the marks alike only when the k vertices between them carry
  no legs; their degrees add up to 2k and their inequalities fail.
- Nodal implies stable.  A leaf's legs are one side of its edge, which
  weighs more than 1.  A vertex of degree 2 carries the marks by which its
  two distinct splits differ, so weight > 0.  A vertex of degree 3 or more
  is stable whatever its legs.

A stable tree is determined by its splits, since every vertex of degree at
most 2 carries a leg.  So the stable trees with j + 1 components are
exactly the j-cliques of the compatibility graph on `nodal_divisors(w)`,
read off `graphs.nested_or_apart`; only the one-component tree needs its
own check, total weight > 2.  Trees are grown along their own walk of the
cliques, a vertex per side; counts still walk them with `graphs.cliques`.
Weights are compared in `nodal_divisors`, in that check and in the check
that they lie in (0, 1]; the walks compare none.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .epsrational import EpsRational
from .graphs import Graph, bits_of, classify_iterated_cone, cliques, nested_or_apart, tubes
from .weights import WeightVector, mark_of_vertex, remark_weights


@functools.cache
def _labels(marks: int) -> tuple[str, ...]:
    """The JSON labels of a set of marks, in bit order: "M", "0", "1", ...;
    made once per set of marks, since trees share their leg sets."""
    return tuple("M" if b == 0 else str(b - 1) for b in bits_of(marks))


@dataclass(frozen=True)
class StableTree:
    """Dual tree: legs[v] is the bitmask of the marks on vertex v, bit 0
    for M and bit l + 1 for mark l."""

    legs: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def num_vertices(self) -> int:
        return len(self.legs)

    def to_json(self) -> dict:
        """The tree renumbered in JSON order, its edges as sorted (smaller,
        larger) pairs, so the JSON does not depend on vertex numbering; JSON
        order and labels are decided here only.  Vertices go by their lowest
        leg bit, the order of their sorted labels since leg sets are
        disjoint, so legless vertices come first.  Those tie, and go by the
        sorted bits of the marks beyond each of their edges, read by a walk
        over the edges: these partition the marks differently at each
        vertex, so they tell the legless vertices apart."""
        legs, edges = self.legs, self.edges
        order = sorted(range(len(legs)), key=lambda v: legs[v] & -legs[v])
        k = legs.count(0)
        if k > 1:
            nbrs = [[] for _ in legs]
            for a, b in edges:
                nbrs[a].append(b)
                nbrs[b].append(a)

            def beyond(v: int, u: int) -> int:
                """The marks on u's side of the edge vu: disjoint leg sets,
                so their sum is their union."""
                return legs[u] + sum(beyond(u, x) for x in nbrs[u] if x != v)

            order[:k] = sorted(order[:k], key=lambda v: sorted(bits_of(beyond(v, u)) for u in nbrs[v]))
        pos = [0] * len(legs)
        for new, old in enumerate(order):
            pos[old] = new
        ends = ((pos[a], pos[b]) for a, b in edges)
        return {
            "vertices": [{"legs": list(_labels(legs[v]))} for v in order],
            "edges": sorted([x, y] if x < y else [y, x] for x, y in ends),
        }


def _vertex_stable(w: WeightVector, legs: int, degree: int) -> bool:
    total = sum(map(w.entries().__getitem__, bits_of(legs)), EpsRational(degree))
    return total > EpsRational(2)


def _check_weights(w: WeightVector) -> None:
    zero, one = EpsRational(0), EpsRational(1)
    if not all(zero < c <= one for c in w.entries()):
        raise ValueError(f"stable trees need every weight in (0, 1], got {w}")


def _stable_sides(w: WeightVector, max_vertices: int) -> Optional[tuple[list[int], list[int], list[int]]]:
    """After the checks of the cap and the weights, in this order: the
    M-free sides of the nodal divisors and their tables (above, compat) from
    `graphs.nested_or_apart`; None when the one-component tree is unstable."""
    if not (1 <= max_vertices <= w.n - 2):
        raise ValueError(f"max_vertices must be in [1, {w.n - 2}]")
    _check_weights(w)
    if not _vertex_stable(w, (1 << w.n) - 1, 0):
        return None
    sides = nodal_divisors(w)
    return (sides, *nested_or_apart(sides, w.n))


def _grow(trees, legs, edges, at, sides, above, compat, chosen, cand, room):
    """Append each tree grown from the tree (legs, edges) of the chosen
    sides by 1..room sides of cand, the largest first, so that no later side
    contains a chosen one.  Side i hangs below at[j], the vertex of its
    smallest chosen container j, the lowest bit of above[i] & chosen, or
    else below at[-1] = 0, M's vertex.  No chosen child of that parent,
    being larger and not above side i, meets it, so the parent's legs hold
    side i, and lose it to the new vertex until the step is undone."""
    while cand:
        i = cand.bit_length() - 1
        cand ^= 1 << i
        up = above[i] & chosen
        p = at[(up & -up).bit_length() - 1]
        at[i] = len(legs)
        legs[p] ^= sides[i]
        legs.append(sides[i])
        edges.append((p, at[i]))
        trees.append(StableTree(tuple(legs), tuple(edges)))
        if room > 1:
            _grow(trees, legs, edges, at, sides, above, compat, chosen | 1 << i, cand & compat[i], room - 1)
        del legs[-1], edges[-1]
        legs[p] ^= sides[i]


def enumerate_stable_trees(w: WeightVector, max_vertices: int) -> list[StableTree]:
    """All stable dual trees with at most max_vertices components, up to
    isomorphism fixing the legs, with leg sets as bitmasks of marks (bit 0
    for M, bit l + 1 for mark l); [] when the total weight is at most 2.
    Raises ValueError unless every weight lies in (0, 1].

    The trees of j + 1 components are the j-cliques of compatible nodal
    divisors, by the lemma in the module docstring.  The one-component
    tree comes first.  `_grow` then walks the cliques depth first, largest
    side first, and builds each tree from its parent clique's by one new
    vertex, so M is on vertex 0; only `StableTree.to_json` renumbers."""
    tables = _stable_sides(w, max_vertices)
    trees = [StableTree(((1 << w.n) - 1,), ())] if tables else []  # every mark on M's vertex
    if tables and max_vertices > 1:
        n = len(tables[0])
        _grow(trees, list(trees[0].legs), [], [0] * (n + 1), *tables, 0, (1 << n) - 1, max_vertices - 1)
    return trees


# -- nodal divisors ---------------------------------------------------------


def nodal_divisors(w: WeightVector) -> list[int]:
    """The M-free sides of all mark bipartitions with both sides of size
    >= 2 and weight > 1, as masks of marks (bit l + 1 for mark l, so bit 0
    is never set), ordered by size and then by their labels.

    One doubling pass weighs all 2^(n-1) M-free subsets, each with one
    addition; the sides of each size are then compared in lexicographic
    order, each with `> 1` and, if that holds, the M side with `> 1`.
    These are the comparisons, in the order, of summing every side afresh,
    so `record_comparisons` sees the same pairs."""
    one = EpsRational(1)
    whole = w.total()
    sums = [EpsRational(0)]  # sums[s >> 1]: the weight of the marks of s
    for weight in w.entries()[1:]:
        sums += [s + weight for s in sums]
    bits = [2 << l for l in range(w.n - 1)]
    out = []
    for r in range(2, w.n - 1):
        for side in map(sum, itertools.combinations(bits, r)):
            total = sums[side >> 1]
            if total > one and whole - total > one:
                out.append(side)
    return out


def count_stable_trees(w: WeightVector, max_vertices: int) -> dict[int, int]:
    """Component count -> number of stable trees with that many components,
    for 1..max_vertices components: one per clique of compatible sides,
    walked by `graphs.cliques` without building the trees."""
    tables = _stable_sides(w, max_vertices)
    walk = itertools.chain([()], cliques(tables[2], max_vertices - 1)) if tables else ()
    return dict(sorted(Counter(len(c) + 1 for c in walk).items()))


# -- divisor/tube correspondence --------------------------------------------


@dataclass(frozen=True)
class CorrespondenceReport:
    passed: bool
    num_rays: int
    num_divisors: int
    k: int
    detail: Optional[str] = None


def divisor_tube_correspondence(g: Graph, w: Optional[WeightVector] = None) -> CorrespondenceReport:
    """For an iterated cone with its explicit weights, verify that nodal
    divisors are exactly {0} union the marks of proper tubes of sufficient
    weight, and that #rays = #divisors + k (the k independent-vertex rays
    correspond to coincidence loci, not nodal divisors).  The graph fan has
    one ray per proper tube by construction, and `verify`'s bijection check
    ties the fan's rays to the proper tubes, so the rays are counted as the
    proper tubes and no fan is built."""
    cs = classify_iterated_cone(g)
    if cs is None:
        raise ValueError("graph is not an iterated cone over a discrete set")
    if w is None:
        w = remark_weights(cs, g)
    elif w.n != g.num_vertices + 2:
        raise ValueError("weight vector length does not match the graph")
    marks = mark_of_vertex(cs)
    one, weights = EpsRational(1), w.entries()
    expected = set()
    proper = tubes(g, 1, g.num_vertices - 1)
    for t in proper:
        side = sum(2 << marks[v] for v in bits_of(t)) | 2  # mark 0 and the marks of t
        if sum(map(weights.__getitem__, bits_of(side)), EpsRational(0)) > one:
            expected.add(side)
    actual = set(nodal_divisors(w))
    passed = expected == actual and len(proper) == len(actual) + cs.k

    def listed(sides: set[int]) -> list[list[int]]:
        return sorted([b - 1 for b in bits_of(s)] for s in sides)

    detail = None if passed else (
        f"extra divisors {listed(actual - expected)}, missing {listed(expected - actual)}"
    )
    return CorrespondenceReport(passed, len(proper), len(actual), cs.k, detail)
