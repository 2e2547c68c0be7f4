"""Tubings: pairwise compatible sets of proper tubes, the face structure
of the graph associahedron (Carr-Devadoss), used as an independent oracle
against the fan: size-j tubings must biject onto j-dimensional cones.
Compatibility is read off `graphs.nested_or_apart`; on a fan built from
the same graph it is the fan's own tube table, so that the clash pass is
the one its walk cached, and neither is built twice.

No tubing is listed: `tubing_counts` counts them by a recursion over
vertex subsets, and the bijection check reads only the maximal cones."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .fans import Fan, build_graph_fan, f_vector, first_clash, is_complete
from .graphs import Graph, GraphError, bits_of, component_table, is_connected, nested_or_apart, tubes

BIJECTION_MAX_VERTICES = 8


def proper_tubes(g: Graph) -> list[int]:
    """All tubes of size 1..num_vertices-1 in canonical order."""
    return tubes(g, 1, g.num_vertices - 1) if g.num_vertices > 1 else []


def _compatibility(g: Graph, all_tubes: list[int]) -> list[int]:
    """compat[i]: bitmask of the indices j != i with all_tubes[j] compatible
    with all_tubes[i]: nested, or disjoint with no edge between them, so
    that their union is no tube (`graphs.nested_or_apart`)."""
    return nested_or_apart(all_tubes, g.num_vertices, g.adj)[1]


def tubing_counts(g: Graph) -> tuple[int, ...]:
    """(t_1, ..., t_{n-1}), t_j the number of j-tubings of the connected
    graph G on n vertices.

    Lemma.  Let F_T(x) sum x^|tau| over the tubings tau of G[T], T a tube.
    The outermost tubes of tau are compatible and not nested, so disjoint
    with no edge between them: they are the components of their union S,
    and S != T as G[T] is connected.  Conversely, for every nonempty S
    strictly inside T, the tubings with the components C of G[S] outermost
    are the unions over C of {C} and a tubing of G[C].  So
        F_T(x) = 1 + sum over S of prod over C of x F_C(x),
    and t_j is the coefficient of x^j in F_V.  `outer[S]` is the product
    for S, filled in increasing order of S (C and S - C are below S).

    A polynomial is one int, its value at x = 2^lane: polynomials add and
    multiply as ints.  Every coefficient of x^k met counts sets of k <= n
    nonempty subsets of V, at most max(1, (2^n - 1)^k) < 2^(n^2) of them,
    so lanes of n^2 bits never carry into each other.  The components of
    each G[S] come off `graphs.component_table`."""
    if not is_connected(g):
        raise GraphError("tubing counts need a connected graph")
    n = g.num_vertices
    lane = n * n
    full = (1 << n) - 1
    comp = component_table(g)
    outer = [0] * (full + 1)
    for s in range(1, full + 1):
        c = comp[s]
        if c == s:
            total = 1
            t = (s - 1) & s
            while t:
                total += outer[t]
                t = (t - 1) & s
            outer[s] = total << lane
        else:
            outer[s] = outer[c] * outer[s ^ c]
    every = (1 << lane) - 1
    return tuple(outer[full] >> lane * (j + 1) & every for j in range(1, n))


@dataclass(frozen=True)
class BijectionReport:
    passed: bool
    counts: tuple[int, ...]  # tubings per size 1..n-1 (equal to the f-vector on pass)
    failure: Optional[str] = None


def verify_fan_tubing_bijection(g: Graph, fan: Optional[Fan] = None) -> BijectionReport:
    """Check that tubing -> its set of tube rays is a bijection from the
    j-tubings onto the j-dimensional cones, for every j, reading only the
    maximal cones.  The checks: (1) the fan has dimension n - 1; (2) every
    proper tube has a ray, looked up by its label, so the map is injective
    and keeps sizes; (3) no lane holds an untubed ray or two incompatible
    rays (`fans.first_clash`; on a fan that carries g, over its own tube
    table, with the pass the walk caches), so each maximal cone carries a
    tubing: compatibility is pairwise; (4) the fan is complete and its f-vector equals
    `tubing_counts`.  Then every face, in a maximal cone, is the image of
    a subset of that cone's tubing, itself a tubing: the map is injective
    from the j-faces into the j-tubings, and equal counts make it onto."""
    if g.num_vertices > BIJECTION_MAX_VERTICES:
        raise GraphError(f"bijection check capped at {BIJECTION_MAX_VERTICES} vertices")
    counts = tubing_counts(g)
    f = fan if fan is not None else build_graph_fan(g)
    if f.dim != g.num_vertices - 1:
        return BijectionReport(False, counts, f"fan has dimension {f.dim}, not {len(counts)}")
    labels = [r.label for r in f.rays]
    ray_index = {t: i for i, t in enumerate(labels)}
    tubed = 0  # the rays looked up by a tube
    for t in sorted(proper_tubes(g)):
        if t not in ray_index:
            return BijectionReport(False, counts, f"tubing {[bits_of(t)]} uses a tube with no ray")
        tubed |= 1 << ray_index[t]
    c = first_clash(f, tubed, f._tube_table if f.graph == g else _compatibility(g, labels))
    if c is not None:
        return BijectionReport(False, counts, f"cone {bits_of(c)} has no tubing partner")
    if not is_complete(f):
        return BijectionReport(False, counts, "fan is not complete")
    if f_vector(f) != counts:
        return BijectionReport(False, counts, f"f-vector {f_vector(f)} is not {counts}")
    return BijectionReport(True, counts)
