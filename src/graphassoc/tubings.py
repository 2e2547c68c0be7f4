"""Tubings: pairwise compatible sets of proper tubes.

This is the combinatorial model of the face structure of the graph
associahedron, used as an independent oracle against the fan construction:
size-j tubings must biject onto j-dimensional cones.

Tubings are the cliques of a compatibility table built once per graph,
`compat[i]` being the bitmask of tube indices compatible with tube i; they
are found by the depth-first walk `graphs.cliques`.  The bijection check
maps each tubing to the bitmask of its tube rays and compares it with the
fan's faces, also kept as ray bitmasks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .fans import Fan, _tube_label, build_graph_fan
from .graphs import (
    Graph,
    GraphError,
    bits_of,
    cliques,
    induced_connected,
    is_connected,
    is_tube,
    tubes,
)

BIJECTION_MAX_VERTICES = 8


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
    return _compatible(g, t1, t2)


def _compatible(g: Graph, t1: int, t2: int) -> bool:
    """The rule of `compatible`, on tubes already known to be proper."""
    if t1 & t2:
        return (t1 | t2) in (t1, t2)  # overlap must be containment
    return not induced_connected(g, t1 | t2)


def proper_tubes(g: Graph) -> list[int]:
    """All tubes of size 1..num_vertices-1 in canonical order."""
    return tubes(g, 1, g.num_vertices - 1) if g.num_vertices > 1 else []


def _compatibility(g: Graph, all_tubes: list[int]) -> list[int]:
    """compat[i]: bitmask of the indices of the tubes compatible with
    all_tubes[i]."""
    compat = [0] * len(all_tubes)
    for i, t1 in enumerate(all_tubes):
        for j in range(i + 1, len(all_tubes)):
            if _compatible(g, t1, all_tubes[j]):
                compat[i] |= 1 << j
                compat[j] |= 1 << i
    return compat


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


@dataclass(frozen=True)
class BijectionReport:
    passed: bool
    counts: tuple[int, ...]  # tubings per size 1..d (equals the f-vector on pass)
    failure: Optional[str] = None


def verify_fan_tubing_bijection(g: Graph, fan: Optional[Fan] = None) -> BijectionReport:
    """Check that mapping a tubing to its set of tube rays is a bijection
    from size-j tubings onto j-dimensional cones, for every j.

    Every tubing of every size 1..d must map to a face of the fan that no
    other tubing maps to, and the tubings of each size must be as many as
    the faces of that dimension."""
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
        r = ray_index.get(_tube_label(t))
        if r is None:
            return BijectionReport(False, (), f"tubing {[bits_of(t)]} uses a tube with no ray")
        ray_bit.append(1 << r)

    faces = set()
    for c in f.max_cones:
        cone = sum(1 << r for r in c)
        s = cone
        while s:
            faces.add(s)
            s = (s - 1) & cone
    face_counts = Counter(s.bit_count() for s in faces)

    counts = [0] * d
    images = set()
    for chosen in cliques(_compatibility(g, all_tubes), d):
        rays = 0
        for i in chosen:
            rays |= ray_bit[i]
        if rays not in faces:
            tubing = sorted(bits_of(all_tubes[i]) for i in chosen)
            return BijectionReport(
                False, (), f"tubing {tubing} maps to {bits_of(rays)}, not a cone"
            )
        if rays in images:
            return BijectionReport(
                False, (), f"two size-{len(chosen)} tubings share the ray set {bits_of(rays)}"
            )
        images.add(rays)
        counts[len(chosen) - 1] += 1
    if counts != [face_counts[j] for j in range(1, d + 1)]:
        missing = min(faces - images)
        return BijectionReport(
            False, tuple(counts), f"cone {bits_of(missing)} has no tubing partner"
        )
    return BijectionReport(True, tuple(counts))


def tubing_to_json(tubing: tuple[int, ...]) -> list[list[int]]:
    return sorted(sorted(bits_of(t)) for t in tubing)
