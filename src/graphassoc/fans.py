"""Simplicial lattice fans: the fan of projective space, and the graph
associahedral fan built from it by stellar subdivision along tube cones in
decreasing tube cardinality.

A cone is an int bitmask over ray indices, the representation of vertex
subsets and tubes too; cones become index lists only in `fan_to_json`.
Each ray is labelled by the bitmask of the tube it carries, a singleton
for the ray of a vertex.  Subdivision is one scan of the cone list, and
`build_graph_fan` keeps that list across all of its subdivisions.
Smoothness reads each ray as a signed 0/1 vector: cones whose ray supports
are laminar get an exact combinatorial test (see `is_smooth`), and every
other cone goes through a Bareiss determinant."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import Graph, GraphError, bits_of, is_connected, tubes

class FanError(ValueError):
    pass


@dataclass(frozen=True)
class Ray:
    coords: tuple[int, ...]
    label: int  # vertex bitmask of the tube the ray carries

    def __post_init__(self):
        if all(c == 0 for c in self.coords):
            raise FanError("zero ray")
        if math.gcd(*self.coords) != 1:
            raise FanError(f"ray {self.coords} is not primitive")


@dataclass(frozen=True)
class Fan:
    """Pure simplicial fan stored by its rays and maximal cones, each the
    bitmask of its dim ray indices (bit i set when rays[i] spans it)."""

    dim: int
    rays: tuple[Ray, ...]
    max_cones: tuple[int, ...]


def projective_simplex_fan(d: int) -> Fan:
    """Fan of P^d: rays u_1..u_d the standard basis, u_0 = -(u_1+...+u_d);
    ray index i carries graph vertex i."""
    if d < 1:
        raise FanError("dimension must be at least 1")
    rays = [Ray(tuple(-1 for _ in range(d)), 1)]
    for i in range(1, d + 1):
        rays.append(Ray(tuple(1 if j == i - 1 else 0 for j in range(d)), 1 << i))
    full = (1 << (d + 1)) - 1
    return Fan(d, tuple(rays), tuple(full ^ (1 << omit) for omit in range(d, -1, -1)))


def _primitive_sum(rays: Sequence[Ray], idx: Sequence[int], label: int) -> Ray:
    """The primitive part of the sum of the given rays' coordinates."""
    coords = [0] * len(rays[0].coords)
    for i in idx:
        for j, c in enumerate(rays[i].coords):
            coords[j] += c
    g = math.gcd(*coords)
    return Ray(tuple(c // g for c in coords), label)


def _subdivide(cones: list[int], m: int, new: int) -> list[int]:
    """Stellar subdivision of maximal cones held as ray-index bitmasks: each
    cone c containing the face m becomes the cones (c | new) ^ low, one for
    each bit low of m.  Raises FanError if no cone contains m."""
    out, star = [], []
    for c in cones:
        if c & m == m:
            star.append(c | new)
        else:
            out.append(c)
    if not star:
        raise FanError(f"rays {tuple(bits_of(m))} do not span a cone of the fan")
    for i in bits_of(m):
        low = 1 << i
        out += [c ^ low for c in star]
    return out


def build_graph_fan(g: Graph, rng: Optional[random.Random] = None) -> Fan:
    """Graph associahedral fan: subdivide the P^d fan along the cones of the
    original rays of each tube, tube sizes d down to 2.

    The order within a size class does not matter; pass an rng to shuffle it
    (used to test exactly that).  Each tube's cone must still be present when
    its turn comes; `_subdivide` raises FanError if it is not, which would
    indicate an ordering bug.  Original ray i carries graph vertex i, so a
    tube's vertex bitmask is also the bitmask of its cone's rays.
    """
    n = g.num_vertices
    if n < 2:
        raise FanError("fan construction needs at least 2 vertices")
    if not (is_connected(g) or g.is_discrete()):
        raise GraphError("unsupported: disconnected non-discrete graph")
    d = n - 1
    f = projective_simplex_fan(d)
    rays = list(f.rays)
    cones = list(f.max_cones)
    for size in range(d, 1, -1):
        layer = [t for t in tubes(g, size, size)]
        if rng is not None:
            rng.shuffle(layer)
        for t in layer:
            cones = _subdivide(cones, t, 1 << len(rays))
            rays.append(_primitive_sum(rays, bits_of(t), t))
    return Fan(d, tuple(rays), tuple(cones))


def f_vector(f: Fan) -> tuple[int, ...]:
    """(f_0, ..., f_{d-1}): number of j-dimensional cones, i.e. distinct
    (j+1)-subsets of rays occurring inside maximal cones."""
    from itertools import combinations

    faces = [set() for _ in range(f.dim)]
    # neighbours in lexicographic order share most of their faces, and the
    # set updates run faster in that order than in the order of subdivision
    for c in sorted(map(bits_of, f.max_cones)):
        for j in range(1, f.dim + 1):
            faces[j - 1].update(combinations(c, j))
    return tuple(len(s) for s in faces)


def _det(matrix: list[list[int]]) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    m = [row[:] for row in matrix]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _support(coords: tuple[int, ...]) -> Optional[int]:
    """Bitmask of the nonzero coordinates if they are all +1 or all -1."""
    signs = {c for c in coords if c}
    if signs != {1} and signs != {-1}:
        return None
    return sum(1 << j for j, c in enumerate(coords) if c)


def _laminar_unimodular(supports: list[int], full: int) -> Optional[bool]:
    """|det| == 1 for rows that are signed indicator vectors of the given
    supports, or None if two supports cross (neither nested nor disjoint)."""
    # by size, so a set's proper subsets come before it and an earlier a
    # meets b in a (nested), in nothing (disjoint), or else crosses it
    supports = sorted(supports, key=int.bit_count)
    singletons = True
    cover = 0
    for i, b in enumerate(supports):
        below = 0
        for a in supports[:i]:
            m = a & b
            if m == a:
                if a != b:
                    below |= a
            elif m:
                return None
        rem = b & ~below
        if rem & (rem - 1) or not rem:
            singletons = False
        cover |= rem
    return singletons and cover == full


def is_smooth(f: Fan) -> bool:
    """Every maximal cone's rays form a lattice basis (determinant +-1).

    Every ray of a graph fan is +- the indicator vector 1_B of a set B of
    coordinates, its support: u_0 = -(1, ..., 1), u_i = e_i, and a tube ray
    is the primitive sum of some of these.  Flipping a row's sign keeps
    |det|, so take the rows to be 1_B.  Suppose a cone's d supports form a
    laminar family (any two are nested or disjoint), and let
    rem(B) = B minus the union of the supports A with A a proper subset
    of B.
    - If the supports are distinct, the maximal proper subsets of each B are
      pairwise disjoint, so subtracting their rows from row B leaves 1_rem(B).
      Ordered by size, these row operations form a unit triangular matrix
      and keep |det|.  The rem sets are pairwise disjoint, so a rem with
      two or more coordinates leaves another rem empty, a zero row.  The
      reduced matrix has |det| = 1 iff each rem is a singleton, and then
      the d singletons cover all d coordinates.
    - If two supports are equal, the two rows are +-1_B, |det| = 0, and
      their rem sets coincide, so the singletons cannot cover d coordinates.
    Hence |det| = 1 iff every rem is a singleton and together they cover all
    d coordinates.  A cone with a ray that is not a signed 0/1 vector of one
    sign, or with two crossing supports, gets its determinant by Bareiss
    elimination instead.
    """
    supports = [_support(r.coords) for r in f.rays]
    full = (1 << f.dim) - 1
    for c in f.max_cones:
        cone = [supports[i] for i in bits_of(c)]
        verdict = None if None in cone else _laminar_unimodular(cone, full)
        if verdict is None:
            verdict = abs(_det([list(f.rays[i].coords) for i in bits_of(c)])) == 1
        if not verdict:
            return False
    return True


def is_complete(f: Fan) -> bool:
    """Every facet of a maximal cone is shared by exactly two maximal cones.
    The facets of the cone c are c ^ low, one for each bit low of c."""
    seen = {}
    for c in f.max_cones:
        rest = c
        while rest:
            low = rest & -rest
            rest ^= low
            n = seen.get(c ^ low, 0)
            if n == 2:
                return False
            seen[c ^ low] = n + 1
    return 1 not in seen.values()


def fan_to_json(f: Fan) -> dict:
    def label_json(label: int) -> dict:
        vertices = bits_of(label)
        return {"vertex": vertices[0]} if len(vertices) == 1 else {"tube": vertices}

    return {
        "dim": f.dim,
        "rays": [
            {"coords": list(r.coords), "label": label_json(r.label)} for r in f.rays
        ],
        "max_cones": sorted(map(bits_of, f.max_cones)),
    }
