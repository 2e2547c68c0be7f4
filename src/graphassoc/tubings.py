"""Tubings: pairwise compatible sets of proper tubes.

This is the combinatorial model of the face structure of the graph
associahedron (Carr-Devadoss), used as an independent oracle against the
fan construction: size-j tubings must biject onto j-dimensional cones.

Tubings are the cliques of a compatibility table built once per graph,
`compat[i]` being the bitmask of tube indices compatible with tube i.
The bijection check is facet-only: its own walk maps each tubing to the
bitmask of its tube rays, checks that every inclusion-maximal tubing has
d tubes (purity) and that the d-tubings map onto the maximal cones, and
derives every lower dimension from that (the proof is in
`verify_fan_tubing_bijection`).  No face below a maximal cone is listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .fans import Fan, build_graph_fan
from .graphs import Graph, GraphError, bits_of, cliques, is_connected, tubes

BIJECTION_MAX_VERTICES = 8


def proper_tubes(g: Graph) -> list[int]:
    """All tubes of size 1..num_vertices-1 in canonical order."""
    return tubes(g, 1, g.num_vertices - 1) if g.num_vertices > 1 else []


def _compatibility(g: Graph, all_tubes: list[int]) -> list[int]:
    """compat[i]: bitmask of the indices of the tubes compatible with
    all_tubes[i]: nested, or disjoint with a disconnected union, the rule
    under which size-j tubings match the j-dimensional cones of the fan.

    Two disjoint tubes are each connected, so their union is connected iff
    some edge joins them, that is iff t2 meets `nbr`, the OR of the
    neighbour rows over the vertices of t1; no union needs a search."""
    compat = [0] * len(all_tubes)
    for i, t1 in enumerate(all_tubes):
        nbr = 0
        for v in bits_of(t1):
            nbr |= g.adj[v]
        for j in range(i + 1, len(all_tubes)):
            t2 = all_tubes[j]
            if t1 & t2:
                ok = (t1 | t2) in (t1, t2)  # overlap must be containment
            else:
                ok = not nbr & t2
            if ok:
                compat[i] |= 1 << j
                compat[j] |= 1 << i
    return compat


@dataclass(frozen=True)
class BijectionReport:
    passed: bool
    counts: tuple[int, ...]  # tubings per size 1..d (equals the f-vector on pass)
    failure: Optional[str] = None


def verify_fan_tubing_bijection(g: Graph, fan: Optional[Fan] = None) -> BijectionReport:
    """Check that mapping a tubing to its set of tube rays is a bijection
    from size-j tubings onto j-dimensional cones, for every j, by comparing
    only the maximal tubings with the maximal cones.

    Why that suffices:
    - tube -> ray is injective, because a ray is looked up by its label,
      the tube it carries; so tubing -> ray set is injective and keeps sizes;
    - a subset of a tubing is a tubing, and a subset of a cone is a face;
    - so if every inclusion-maximal tubing has d tubes (purity), and the
      d-tubings map onto the set of maximal-cone bitmasks, then every
      tubing lies in a d-tubing and maps into a face, every face lies in a
      maximal cone and is the image of a subset of its d-tubing, and
      tubing -> face is a bijection in every dimension.

    One depth-first walk over the compatibility table carries, per tubing,
    the OR of its ray bits and the AND of its tubes' `compat` rows, which
    is 0 exactly when the tubing is maximal.  It counts the tubings of each
    size 1..d and checks purity at each of them (the AND is nonzero below d
    tubes and 0 at d) and facet membership at the d-tubings; the map being
    injective, the d-tubings are onto the maximal cones iff they are as
    many, and the cone left without a partner is looked for only then."""
    if g.num_vertices > BIJECTION_MAX_VERTICES:
        raise GraphError(f"bijection check capped at {BIJECTION_MAX_VERTICES} vertices")
    if not is_connected(g):
        raise GraphError("bijection check needs a connected graph")
    f = fan if fan is not None else build_graph_fan(g)
    d = f.dim

    all_tubes = sorted(proper_tubes(g))
    ray_index = {r.label: i for i, r in enumerate(f.rays)}
    ray_bit = []
    for t in all_tubes:
        r = ray_index.get(t)
        if r is None:
            return BijectionReport(False, (), f"tubing {[bits_of(t)]} uses a tube with no ray")
        ray_bit.append(1 << r)

    def tubing(rays: int) -> list[list[int]]:
        return sorted(bits_of(t) for t, b in zip(all_tubes, ray_bit) if b & rays)

    facets = set(f.max_cones)
    compat = _compatibility(g, all_tubes)
    counts = [0] * d

    def walk(k: int, cand: int, rays: int, common: int) -> Optional[str]:
        """Visit the (k+1)-tubings that extend a k-tubing by one tube of
        `cand`, and the tubings below them; return the first failure."""
        counts[k] += cand.bit_count()
        while cand:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            r = rays | ray_bit[i]
            c = common & compat[i]
            if k + 1 < d:
                if not c:
                    return f"maximal tubing {tubing(r)} has {k + 1} < {d} tubes"
                nxt = cand & compat[i]
                if nxt:
                    failure = walk(k + 1, nxt, r, c)
                    if failure:
                        return failure
            elif r not in facets:
                return f"tubing {tubing(r)} maps to {bits_of(r)}, not a cone"
            elif c:
                return f"tubing {tubing(r)} of {d} tubes is not maximal"
        return None

    every = (1 << len(all_tubes)) - 1
    failure = walk(0, every, 0, every)
    if failure:
        return BijectionReport(False, (), failure)
    if counts[d - 1] != len(facets):
        images = {sum(ray_bit[i] for i in c) for c in cliques(compat, d) if len(c) == d}
        return BijectionReport(
            False, tuple(counts), f"cone {bits_of(min(facets - images))} has no tubing partner"
        )
    return BijectionReport(True, tuple(counts))
