"""Dual trees of weighted stable genus-0 marked curves.

Trees are enumerated at the nodal level: vertices are components, edges are
nodes, legs are the marks M, 0, 1, ..., n-2.  Coincidence loci (colliding
marks) are deliberately not enumerated; the toric comparison only needs the
nodal divisors plus the count of independent marks.

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
read off `graphs.nested_or_apart` and walked by `graphs.cliques`; only
the one-component tree needs its own check, total weight > 2.  Weights are
compared in `nodal_divisors`, in that check and in the check that they lie
in (0, 1]; the walk compares none.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .epsrational import EpsRational
from .graphs import Graph, bits_of, classify_iterated_cone, cliques, mask_of, nested_or_apart, tubes
from .weights import WeightVector, mark_of_vertex, remark_weights

Label = Union[str, int]  # "M" or 0..n-2


def _label_key(label: Label):
    return (0, 0) if label == "M" else (1, label)


@dataclass(frozen=True)
class StableTree:
    """Dual tree: legs[v] is the frozenset of mark labels on vertex v."""

    legs: tuple[frozenset, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def num_vertices(self) -> int:
        return len(self.legs)

    def _branch_legs(self, nbrs: list[list[int]], v: int) -> list:
        """The sorted label keys of the legs beyond each edge at v, sorted,
        with nbrs[u] the neighbours of u.  These partition the marks
        differently at each vertex, so they tell the legless vertices of a
        stable tree apart."""
        branches = []
        for start in nbrs[v]:
            seen, stack, keys = {v, start}, [start], []
            while stack:
                u = stack.pop()
                keys += map(_label_key, self.legs[u])
                stack += [x for x in nbrs[u] if x not in seen]
                seen.update(nbrs[u])
            branches.append(sorted(keys))
        return sorted(branches)

    def to_json(self) -> dict:
        """Vertices ordered by their sorted legs, legless ones (sorted first)
        by the legs of their branches, so the JSON does not depend on vertex
        numbering."""
        order = sorted(
            range(self.num_vertices),
            key=lambda v: sorted(_label_key(l) for l in self.legs[v]),
        )
        if len(order) > 1 and not self.legs[order[1]]:  # legless vertices tie
            k = sum(not legs for legs in self.legs)
            nbrs = [[] for _ in order]  # the neighbours of each vertex
            for a, b in [*self.edges, *((b, a) for a, b in self.edges)]:
                nbrs[a].append(b)
            order[:k] = sorted(order[:k], key=lambda v: self._branch_legs(nbrs, v))
        pos = {old: new for new, old in enumerate(order)}
        return {
            "vertices": [
                {"legs": [str(l) for l in sorted(self.legs[v], key=_label_key)]}
                for v in order
            ],
            "edges": sorted(sorted((pos[a], pos[b])) for a, b in self.edges),
        }


def _vertex_stable(w: WeightVector, legs: frozenset, degree: int) -> bool:
    total = EpsRational(degree)
    for l in legs:
        total = total + w.weight_of(l)
    return total > EpsRational(2)


def _check_weights(w: WeightVector) -> None:
    zero, one = EpsRational(0), EpsRational(1)
    if not all(zero < c <= one for c in w.entries()):
        raise ValueError(f"stable trees need every weight in (0, 1], got {w}")


def _stable_cliques(
    w: WeightVector, max_vertices: int
) -> tuple[list[int], list[int], Iterator[tuple[int, ...]]]:
    """The M-free sides of the nodal divisors, as bitmasks of mark labels;
    sup[i], the bitmask of the later sides that contain side i; and a walk
    over the cliques of pairwise compatible sides, as tuples of side
    indices: one per stable tree of 1..max_vertices components, the empty
    clique (the one-component tree) first.  No cliques at all when the
    one-component tree is unstable."""
    if not (1 <= max_vertices <= w.n - 2):
        raise ValueError(f"max_vertices must be in [1, {w.n - 2}]")
    _check_weights(w)
    if not _vertex_stable(w, frozenset(["M", *range(w.n - 1)]), 0):
        return [], [], iter(())
    sides = [mask_of(d.side) for d in nodal_divisors(w)]
    compat, sup = _side_tables(sides, w.n - 1)
    return sides, sup, itertools.chain([()], cliques(compat, max_vertices - 1))


def _side_tables(sides: list[int], marks: int) -> tuple[list[int], list[int]]:
    """compat[i], the sides other than side i that are nested with it or
    disjoint from it, and sup[i], the later sides that contain it, read off
    `graphs.nested_or_apart` over the marks."""
    above, compat = nested_or_apart(sides, marks)
    return compat, [up >> i + 1 << i + 1 for i, up in enumerate(above)]


def _json_sort_key():
    """A sort key that orders trees numbered in JSON order as
    (num_vertices, str(to_json())) does, see `enumerate_stable_trees`; it
    makes the key of each leg set and each edge once."""
    vertex = functools.cache(lambda legs: (*map(str, sorted(legs, key=_label_key)), "~"))
    edge = functools.cache(lambda e: (str(e[0]), f"{e[1]}~"))
    return lambda t: (len(t.legs), tuple(map(vertex, t.legs)), tuple(map(edge, t.edges)))


def enumerate_stable_trees(w: WeightVector, max_vertices: int) -> list[StableTree]:
    """All stable dual trees with at most max_vertices components, up to
    isomorphism fixing the legs, numbered in the vertex order of their JSON
    and sorted by component count and then by `str(to_json())`; [] when the
    total weight is at most 2.  Raises ValueError unless every weight lies
    in (0, 1].

    For weights in (0, 1] a tree is stable iff every edge's split is a
    nodal divisor: a leaf needs its side to weigh more than 1, a vertex of
    degree 2 carries the marks by which its two splits differ, and a vertex
    of degree 3 or more is always stable; summing the stability
    inequalities over the vertices on one side of an edge gives the
    converse.  Splits of one tree have nested or disjoint M-free sides, and
    fix the tree.  So the trees of j + 1 components are the j-cliques of
    compatible nodal divisors, walked once.

    Each tree is built from its clique: side i hangs from the smallest
    side of the clique that contains it, the lowest bit of sup[i] inside
    the clique, or else from the vertex of M.  Leg sets are disjoint, so
    ordering vertices by their lowest leg orders them as `to_json` does;
    legless vertices come first and are ordered by their branches.

    The sort key stands in for the JSON string without building it.  A
    vertex gives its label strings and then "~", which sorts above every
    label as the `]` closing a leg list sorts above the `,` before a
    further label; labels compare as strings, as in the text ('10' < '2').
    An edge (a, b) gives (str(a), str(b) + "~"), since b is followed by
    `]`, which sorts above a digit: the text puts [0, 1] after [0, 10],
    where ("0", "1") would sort before ("0", "10").
    """
    sides, sup, walk = _stable_cliques(w, max_vertices)
    # Bit 0 is M and bit l + 1 is mark l, so the lowest bit of a leg set is
    # its first label; the vertex of M has every mark for its side.
    root = len(sides)
    sides = [s << 1 for s in sides] + [(1 << w.n) - 1]
    labels = ["M", *range(w.n - 1)]
    leg_set = functools.cache(lambda m: frozenset(map(labels.__getitem__, bits_of(m))))
    bit = [1 << i for i in range(root)]
    trees = []
    for c in walk:
        clique = sum(map(bit.__getitem__, c))
        legs = dict(zip(c, map(sides.__getitem__, c)))
        legs[root] = sides[root]
        parent = {}
        for i in c:
            above = sup[i] & clique
            p = parent[i] = (above & -above).bit_length() - 1 if above else root
            legs[p] &= ~sides[i]
        order = sorted(legs, key=lambda v: legs[v] & -legs[v])
        if len(order) > 1 and not legs[order[1]]:  # legless vertices tie
            k = sum(not m for m in legs.values())
            order[:k] = sorted(order[:k], key=lambda v: sorted(
                [bits_of(sides[root] & ~sides[v])]
                + [bits_of(sides[u]) for u in c if parent[u] == v]
            ))
        pos = {v: j for j, v in enumerate(order)}
        edges = sorted(
            (a, b) if a < b else (b, a) for a, b in ((pos[parent[i]], pos[i]) for i in c)
        )
        shared_legs = tuple(map(leg_set, map(legs.__getitem__, order)))
        trees.append(StableTree(shared_legs, tuple(edges)))
    trees.sort(key=_json_sort_key())
    return trees


# -- nodal divisors ---------------------------------------------------------


@dataclass(frozen=True)
class NodalDivisor:
    """Two-component degeneration, stored as the mark side not containing M."""

    side: frozenset

    def labels(self) -> list:
        return sorted(self.side, key=_label_key)

    def to_json(self) -> list[str]:
        return [str(l) for l in self.labels()]


def nodal_divisors(w: WeightVector) -> list[NodalDivisor]:
    """All mark bipartitions with both sides of size >= 2 and weight > 1,
    ordered by the size and then the labels of the M-free side.

    One doubling pass weighs all 2^(n-1) M-free subsets, each with one
    addition; the sides of each size are then compared in lexicographic
    order, each with `> 1` and, if that holds, the M side with `> 1`.
    These are the comparisons, in the order, of summing every side afresh,
    so `record_comparisons` sees the same pairs."""
    one = EpsRational(1)
    whole = w.total()
    sums = [EpsRational(0)]  # sums[s]: the weight of the marks of s
    for l in range(w.n - 1):
        weight = w.weight_of(l)
        sums += [s + weight for s in sums]
    bits = [1 << l for l in range(w.n - 1)]
    out = []
    for r in range(2, w.n - 1):
        for side in map(sum, itertools.combinations(bits, r)):
            total = sums[side]
            if total > one and whole - total > one:
                out.append(NodalDivisor(frozenset(bits_of(side))))
    return out


def count_stable_trees(w: WeightVector, max_vertices: int) -> dict[int, int]:
    """Component count -> number of stable trees with that many components,
    for 1..max_vertices components, by the walk of `enumerate_stable_trees`
    without building the trees."""
    counts = Counter(len(c) + 1 for c in _stable_cliques(w, max_vertices)[2])
    return dict(sorted(counts.items()))


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
    marks = mark_of_vertex(cs)
    one = EpsRational(1)
    expected = set()
    proper = tubes(g, 1, g.num_vertices - 1)
    for t in proper:
        total = w.c0
        for v in bits_of(t):
            total = total + w.c[marks[v] - 1]
        if total > one:
            expected.add(frozenset([0] + [marks[v] for v in bits_of(t)]))
    actual = {d.side for d in nodal_divisors(w)}
    num_rays = len(proper)
    report = CorrespondenceReport(
        passed=(expected == actual) and (num_rays == len(actual) + cs.k),
        num_rays=num_rays,
        num_divisors=len(actual),
        k=cs.k,
    )
    if not report.passed:
        extra = sorted(map(sorted, actual - expected))
        missing = sorted(map(sorted, expected - actual))
        report = CorrespondenceReport(
            False, num_rays, len(actual), cs.k,
            detail=f"extra divisors {extra}, missing {missing}",
        )
    return report
