"""Simplicial lattice fans: the fan of projective space, stellar
subdivision, and the graph associahedral fan built by subdividing along
tube cones in decreasing tube cardinality."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import Graph, GraphError, bits_of, is_connected, tubes

VertexLabel = tuple  # ("vertex", i) or ("tube", mask)


class FanError(ValueError):
    pass


@dataclass(frozen=True)
class Ray:
    coords: tuple[int, ...]
    label: tuple

    def __post_init__(self):
        if all(c == 0 for c in self.coords):
            raise FanError("zero ray")
        if math.gcd(*self.coords) != 1:
            raise FanError(f"ray {self.coords} is not primitive")


@dataclass(frozen=True)
class Fan:
    """Pure simplicial fan stored by its rays and maximal cones
    (each a sorted tuple of ray indices of size dim)."""

    dim: int
    rays: tuple[Ray, ...]
    max_cones: tuple[tuple[int, ...], ...]


def projective_simplex_fan(d: int) -> Fan:
    """Fan of P^d: rays u_1..u_d the standard basis, u_0 = -(u_1+...+u_d);
    ray index i carries graph vertex i."""
    if d < 1:
        raise FanError("dimension must be at least 1")
    rays = [Ray(tuple(-1 for _ in range(d)), ("vertex", 0))]
    for i in range(1, d + 1):
        rays.append(Ray(tuple(1 if j == i - 1 else 0 for j in range(d)), ("vertex", i)))
    cones = []
    for omit in range(d, -1, -1):
        cones.append(tuple(i for i in range(d + 1) if i != omit))
    return Fan(d, tuple(rays), tuple(sorted(cones)))


def cone_exists(f: Fan, ray_indices: Sequence[int]) -> bool:
    s = set(ray_indices)
    return any(s.issubset(c) for c in f.max_cones)


def stellar_subdivide(f: Fan, ray_indices: Sequence[int], label: Optional[tuple] = None) -> Fan:
    """Subdivide at the cone spanned by the given rays; the new ray is the
    primitive part of the sum of their primitive generators."""
    idx = tuple(sorted(set(ray_indices)))
    if len(idx) < 2:
        raise FanError("stellar subdivision needs a cone of dimension >= 2")
    if not cone_exists(f, idx):
        raise FanError(f"rays {idx} do not span a cone of the fan")
    coords = [0] * f.dim
    for i in idx:
        for j, c in enumerate(f.rays[i].coords):
            coords[j] += c
    g = math.gcd(*coords)
    coords = tuple(c // g for c in coords)
    if label is None:
        label = ("sum", idx)
    new_index = len(f.rays)
    rays = f.rays + (Ray(coords, label),)

    idx_set = set(idx)
    cones = []
    for c in f.max_cones:
        if idx_set.issubset(c):
            for r in idx:
                cones.append(tuple(sorted((set(c) - {r}) | {new_index})))
        else:
            cones.append(c)
    return Fan(f.dim, rays, tuple(sorted(cones)))


def build_graph_fan(g: Graph, rng: Optional[random.Random] = None) -> Fan:
    """Graph associahedral fan: subdivide the P^d fan along the cones of the
    original rays of each tube, tube sizes d down to 2.

    The order within a size class does not matter; pass an rng to shuffle it
    (used to test exactly that).  Each tube's cone must still be present when
    its turn comes; `stellar_subdivide` raises FanError if it is not, which
    would indicate an ordering bug.
    """
    n = g.num_vertices
    if n < 2:
        raise FanError("fan construction needs at least 2 vertices")
    if not (is_connected(g) or g.is_discrete()):
        raise GraphError("unsupported: disconnected non-discrete graph")
    d = n - 1
    f = projective_simplex_fan(d)
    for size in range(d, 1, -1):
        layer = [t for t in tubes(g, size, size)]
        if rng is not None:
            rng.shuffle(layer)
        for t in layer:
            # original ray index == vertex label
            f = stellar_subdivide(f, bits_of(t), label=_tube_label(t))
    return f


def _tube_label(t: int) -> tuple:
    """Label of the ray carrying the tube t (vertex ray for a trivial tube)."""
    return ("vertex", t.bit_length() - 1) if t & (t - 1) == 0 else ("tube", t)


def ray_for_tube(f: Fan, t: int) -> Optional[int]:
    """Ray index carrying the tube t (vertex ray for a trivial tube)."""
    want = _tube_label(t)
    for i, r in enumerate(f.rays):
        if r.label == want:
            return i
    return None


def f_vector(f: Fan) -> tuple[int, ...]:
    """(f_0, ..., f_{d-1}): number of j-dimensional cones, i.e. distinct
    (j+1)-subsets of rays occurring inside maximal cones."""
    from itertools import combinations

    faces = [set() for _ in range(f.dim)]
    for c in f.max_cones:
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


def is_smooth(f: Fan) -> bool:
    """Every maximal cone's rays form a lattice basis (determinant +-1)."""
    for c in f.max_cones:
        mat = [list(f.rays[i].coords) for i in c]
        if abs(_det(mat)) != 1:
            return False
    return True


def is_complete(f: Fan) -> bool:
    """Every facet of a maximal cone is shared by exactly two maximal cones."""
    from collections import Counter
    from itertools import combinations

    facets = Counter()
    for c in f.max_cones:
        for facet in combinations(c, f.dim - 1):
            facets[facet] += 1
    return all(v == 2 for v in facets.values())


def canonical_form(f: Fan):
    """Order-independent fingerprint: sorted ray coordinate vectors plus
    maximal cones rewritten in terms of sorted ray positions."""
    order = sorted(range(len(f.rays)), key=lambda i: f.rays[i].coords)
    pos = {old: new for new, old in enumerate(order)}
    rays = tuple(f.rays[i].coords for i in order)
    cones = tuple(sorted(tuple(sorted(pos[i] for i in c)) for c in f.max_cones))
    return (f.dim, rays, cones)


def fan_to_json(f: Fan) -> dict:
    def label_json(label):
        if label[0] == "vertex":
            return {"vertex": label[1]}
        if label[0] == "tube":
            return {"tube": bits_of(label[1])}
        return {"sum": list(label[1])}

    return {
        "dim": f.dim,
        "rays": [
            {"coords": list(r.coords), "label": label_json(r.label)} for r in f.rays
        ],
        "max_cones": [list(c) for c in f.max_cones],
    }
