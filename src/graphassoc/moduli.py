"""Dual trees of weighted stable genus-0 marked curves.

Trees are enumerated at the nodal level: vertices are components, edges are
nodes, legs are the marks M, 0, 1, ..., n-2.  Coincidence loci (colliding
marks) are deliberately not enumerated; the toric comparison only needs the
nodal divisors plus the count of independent marks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from .epsrational import EpsRational
from .fans import Fan, build_graph_fan
from .graphs import Graph, bits_of, classify_iterated_cone, tubes
from .weights import WeightVector, mark_of_vertex, remark_weights

MAX_MARKS = 9

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

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def partition_key(self):
        """Multiset of leg bipartitions induced by the edges; a stable tree
        is determined by it, so it doubles as an isomorphism-invariant key."""
        parts = []
        all_legs = frozenset().union(*self.legs)
        for i, j in self.edges:
            side = self._side_legs(i, j)
            parts.append(frozenset([side, all_legs - side]))
        return (len(self.legs), frozenset(parts))

    def _side_legs(self, root: int, banned: int) -> frozenset:
        """Legs in the component of `root` after removing edge (root, banned)."""
        seen = {root}
        stack = [root]
        while stack:
            v = stack.pop()
            for a, b in self.edges:
                if v == a and b != banned or v == b and a != banned:
                    w = b if v == a else a
                    if w not in seen and not (v == root and w == banned):
                        seen.add(w)
                        stack.append(w)
        out = set()
        for v in seen:
            out |= self.legs[v]
        return frozenset(out)

    def is_path(self) -> bool:
        return all(self.degree(v) <= 2 for v in range(self.num_vertices))

    def end_vertices(self) -> list[int]:
        return [v for v in range(self.num_vertices) if self.degree(v) == 1]

    def to_json(self) -> dict:
        order = sorted(
            range(self.num_vertices),
            key=lambda v: sorted(_label_key(l) for l in self.legs[v]),
        )
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


def _tree_stable(w: WeightVector, tree: StableTree) -> bool:
    return all(
        _vertex_stable(w, tree.legs[v], tree.degree(v))
        for v in range(tree.num_vertices)
    )


def enumerate_stable_trees(w: WeightVector, max_vertices: int) -> list[StableTree]:
    """All stable dual trees with at most max_vertices components, up to
    isomorphism fixing the legs.

    Works by recursive edge-splitting from the one-component tree: every
    stable tree contracts, edge by edge, to the one-component tree through
    stable trees, so splitting reaches everything.  Splits that leave either
    side unstable are pruned; duplicates are removed via the edge-partition
    key.
    """
    if w.n > MAX_MARKS:
        raise ValueError(f"stable-tree enumeration capped at {MAX_MARKS} marks")
    if not (1 <= max_vertices <= w.n - 2):
        raise ValueError(f"max_vertices must be in [1, {w.n - 2}]")

    all_legs = frozenset(["M"] + list(range(w.n - 1)))
    root = StableTree((all_legs,), ())
    if not _tree_stable(w, root):
        return []

    found: dict = {root.partition_key(): root}
    frontier = [root]
    for _ in range(max_vertices - 1):
        next_frontier = []
        for tree in frontier:
            for split in _splits(w, tree):
                key = split.partition_key()
                if key not in found:
                    found[key] = split
                    next_frontier.append(split)
        frontier = next_frontier

    trees = list(found.values())
    trees.sort(key=lambda t: (t.num_vertices, str(t.to_json())))
    return trees


def _splits(w: WeightVector, tree: StableTree):
    """All stable trees obtained by splitting one vertex into two."""
    for v in range(tree.num_vertices):
        legs = sorted(tree.legs[v], key=_label_key)
        incident = [e for e in tree.edges if v in e]
        items = [("leg", l) for l in legs] + [("edge", e) for e in incident]
        m = len(items)
        # new vertex takes the items of the chosen subset; skip the full and
        # empty subsets, and fix item 0 on the old side to halve the symmetry
        for pick in range(1, 1 << (m - 1)):
            new_items = [items[i] for i in range(m) if pick >> i & 1]
            old_items = [items[i] for i in range(m) if not pick >> i & 1]
            new_legs = frozenset(x for kind, x in new_items if kind == "leg")
            old_legs = frozenset(x for kind, x in old_items if kind == "leg")
            new_edge_count = sum(1 for kind, _ in new_items if kind == "edge") + 1
            old_edge_count = sum(1 for kind, _ in old_items if kind == "edge") + 1
            if not _vertex_stable(w, new_legs, new_edge_count):
                continue
            if not _vertex_stable(w, old_legs, old_edge_count):
                continue
            nv = tree.num_vertices
            legs_out = list(tree.legs)
            legs_out[v] = old_legs
            legs_out.append(new_legs)
            moved = {e for kind, e in new_items if kind == "edge"}
            edges_out = []
            for e in tree.edges:
                if e in moved:
                    a, b = e
                    other = b if a == v else a
                    edges_out.append((other, nv))
                else:
                    edges_out.append(e)
            edges_out.append((v, nv))
            yield StableTree(tuple(legs_out), tuple(edges_out))


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
    """All mark bipartitions with both sides of size >= 2 and weight > 1."""
    non_m = list(range(w.n - 1))  # labels 0..n-2
    out = []
    one = EpsRational(1)
    for r in range(2, w.n - 1):
        for side in itertools.combinations(non_m, r):
            total = EpsRational(0)
            for l in side:
                total = total + w.weight_of(l)
            if not (total > one):
                continue
            rest = EpsRational(0)
            for l in ["M"] + [x for x in non_m if x not in side]:
                rest = rest + w.weight_of(l)
            if rest > one:
                out.append(NodalDivisor(frozenset(side)))
    out.sort(key=lambda d: (len(d.side), d.labels()))
    return out


def max_components(w: WeightVector, cap: int) -> int:
    """Largest component count among stable trees with at most cap vertices."""
    trees = enumerate_stable_trees(w, cap)
    return max((t.num_vertices for t in trees), default=0)


def chain_shape_check(w: WeightVector) -> bool:
    """True iff every stable tree is a chain with the two heaviest marks at
    opposite ends (vacuously true for the one-component tree)."""
    order = sorted(["M"] + list(range(w.n - 1)), key=lambda l: (_HeavyKey(w, l)))
    h1, h2 = order[0], order[1]
    for tree in enumerate_stable_trees(w, w.n - 2):
        if tree.num_vertices == 1:
            continue
        if not tree.is_path():
            return False
        ends = tree.end_vertices()
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


# -- divisor/tube correspondence --------------------------------------------


@dataclass(frozen=True)
class CorrespondenceReport:
    passed: bool
    num_rays: int
    num_divisors: int
    k: int
    detail: Optional[str] = None


def divisor_tube_correspondence(
    g: Graph, w: Optional[WeightVector] = None, fan: Optional[Fan] = None
) -> CorrespondenceReport:
    """For an iterated cone with its explicit weights, verify that nodal
    divisors are exactly {0} union the marks of proper tubes of sufficient
    weight, and that #rays = #divisors + k (the k independent-vertex rays
    correspond to coincidence loci, not nodal divisors).  Pass g's fan if it
    is already built; otherwise it is built here."""
    cs = classify_iterated_cone(g)
    if cs is None:
        raise ValueError("graph is not an iterated cone over a discrete set")
    if w is None:
        w = remark_weights(cs, g)
    marks = mark_of_vertex(cs)
    one = EpsRational(1)
    expected = set()
    for t in tubes(g, 1, g.num_vertices - 1):
        total = w.c0
        for v in bits_of(t):
            total = total + w.c[marks[v] - 1]
        if total > one:
            expected.add(frozenset([0] + [marks[v] for v in bits_of(t)]))
    actual = {d.side for d in nodal_divisors(w)}
    if fan is None:
        fan = build_graph_fan(g)
    num_rays = len(fan.rays)
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
