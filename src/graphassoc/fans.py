"""Simplicial lattice fans: the fan of projective space, and the graph
associahedral fan built from it by stellar subdivision along tube cones in
decreasing tube cardinality.

A cone is an int bitmask over ray indices, the representation of vertex
subsets and tubes too; cones become index lists only in `fan_to_json`.
Each ray is labelled by the bitmask of the tube it carries, a singleton
for the ray of a vertex.  Subdivision is one scan of the cone list, and
`build_graph_fan` keeps that list across all of its subdivisions.

Smoothness, completeness and the f-vector come from one pass over the
maximal cones, cached on the `Fan` (`_walk`).  Each ray is read as a
signed 0/1 vector s_B 1_B.  When a cone's ray supports are laminar, the
pass works on bitmasks alone:
- the rem sets decide smoothness (see `is_smooth`);
- the sign of the determinant is the product of the rays' signs times the
  sign of the permutation that sends the rays to their rem coordinates;
- v = (1, ..., d) has the coordinate
  lambda_B = s_B (v_r(B) - v_r(parent B)) in the cone's basis.
Every other cone goes through a Bareiss determinant and Cramer's rule.
The two cones at a facet F = c ^ u must lie on opposite sides of it, the
sign of det(F, u) = det(c) (-1)^(d-1-k) for u in place k of c; with that
wall condition the number of cones over a generic point is constant, and
h_0 = 1 (the cones holding v) makes it one (`is_complete`).  The h-vector,
h_k the number of cones with k negative lambda, gives the f-vector,
f_j = sum_i C(d-i, j+1-i) h_i (`f_vector`)."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

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

    @cached_property
    def _checks(self) -> _Checks:
        return _walk(self)


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
        raise GraphError("fan construction needs at least 2 vertices")
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


class _Checks(NamedTuple):
    """What one walk over a fan's maximal cones finds (see `_walk`)."""

    smooth: bool
    complete: bool
    h: Optional[tuple[int, ...]]  # h-vector, None unless the walls match up


def _walk(f: Fan) -> _Checks:
    """One pass over the maximal cones: each cone's determinant (its size
    for smoothness, its sign for the wall check) and the number of negative
    coordinates of v = (1, 2, ..., d) in its basis (for the h-vector).

    A cone's rows are its rays in rank order: by support size, then by
    index.  Most cones are swept in that order on bitmasks alone (see
    `is_smooth` for the rem sets): `covered` is the union of the supports
    swept so far, the rem of a support b is b & ~covered, and `roots` holds
    the rem coordinate of each maximal support swept so far, in the low
    lane for a positive ray and in the lane d bits up for a negative one.
    - The roots inside b are b's children.  For a child C,
      lambda_C = s_C (v_r(C) - v_r(b)) (see `f_vector`) is negative for a
      positive child with r(C) < r(b) and a negative child with
      r(C) > r(b); `later` picks out those lane bits.  The children then
      leave `roots` and b joins it.  A root left at the end has
      lambda = s v_r, negative iff s < 0.
    - Subtracting its children's rows from each row leaves e_r(b) in row b,
      so the determinant is the product of the signs times the sign of
      the permutation from rank order to the rem coordinates.  Its
      inversions number sum_k (k - #{swept coordinates below r_k}); the sum
      of k is d(d-1)/2, and the parity of the counts is that of the
      popcount of the XOR of the masks counted, `inversions`.
    Cones whose supports cross (read off `cross`, the rays each ray's
    support crosses) or with a ray that is not a signed 0/1 vector go to
    a Bareiss determinant, and Cramer's rule gives their lambda.  A cone
    with determinant 0 is neither unimodular nor full-dimensional, so the
    walk stops there.
    """
    d = f.dim
    supports = [_support(r.coords) or 0 for r in f.rays]  # 0: not signed 0/1
    every = (1 << len(supports)) - 1
    holders = [0] * d  # holders[j]: the rays whose support holds coordinate j
    for i, b in enumerate(supports):
        for j in bits_of(b):
            holders[j] |= 1 << i
    by_size = [0] * (d + 1)
    info = {}
    negative = 0
    for i, b in enumerate(supports):
        meet = outside = 0
        above = every
        for j in range(d):
            if b >> j & 1:
                meet |= holders[j]
                above &= holders[j]
            else:
                outside |= holders[j]
        # rays that meet b are nested with it if they hold all of b (above)
        # or nothing outside it; the rest cross it
        cross = meet & ~above & outside if b else every
        neg = b and f.rays[i].coords[(b & -b).bit_length() - 1] < 0
        if neg:
            negative |= 1 << i
        by_size[b.bit_count()] |= 1 << i
        info[1 << i] = (b, b | b << d, d if neg else 0, cross)
    by_size = [m for m in by_size if m]
    units = {1 << r: ((1 << r) - 1, (1 << r) - 1 | -(1 << r) << d) for r in range(d)}
    low_lane = (1 << d) - 1
    pairs = d * (d - 1) // 2

    smooth = True
    h = [0] * (d + 1)
    crossing = []  # (rows, det) of the cones with crossing supports
    seen = {}
    get = seen.get
    for c in f.max_cones:
        covered = roots = negs = inversions = crossed = 0
        facets = []
        add = facets.append
        try:
            for m in by_size:
                rest = c & m
                while rest:
                    low = rest & -rest
                    rest ^= low
                    b, lanes, shift, cross = info[low]
                    rem = b & ~covered
                    below, later = units[rem]  # KeyError: rem is not one coordinate
                    crossed |= cross
                    kids = roots & lanes
                    negs |= kids & later
                    roots ^= kids | rem << shift
                    inversions ^= covered & below
                    covered |= b
                    add(c ^ low)
            laminar = not crossed & c
        except KeyError:
            if not any(info[1 << i][3] & c for i in bits_of(c)):
                # laminar, so det 0 (see is_smooth)
                return _Checks(False, False, None)
            laminar = False
        if laminar:
            h[(negs | roots & ~low_lane).bit_count()] += 1
            side = inversions.bit_count() + pairs + (c & negative).bit_count()
        else:
            # rank order: a stable sort of the ascending indices by support size
            order = sorted(bits_of(c), key=lambda i: supports[i].bit_count())
            rows = [list(f.rays[i].coords) for i in order]
            det = _det(rows)
            if det == 0:
                return _Checks(False, False, None)
            smooth = smooth and abs(det) == 1
            crossing.append((rows, det))
            side = det < 0
            facets = [c ^ (1 << i) for i in order]
        # det(F, u) for the facet F = c ^ u, u in place k: det * (-1)^(d-1-k).
        # One occurrence adds 3 on one side of F and 5 on the other, so a
        # facet sums to 8 iff it occurs exactly once on each side.
        w = 5 if (side + d - 1) & 1 else 3
        for facet in facets:
            seen[facet] = get(facet, 0) + w
            w ^= 6
    if set(seen.values()) != {8}:
        return _Checks(smooth, False, None)
    for count in _crossing_negatives(crossing, d):
        h[count] += 1
    return _Checks(smooth, h[0] == 1, tuple(h))


def _crossing_negatives(crossing: list, d: int) -> list[int]:
    """The number of negative lambda_k = det(rows with row k replaced by v)
    / det (Cramer's rule) for each (rows, det), with v = (1, 2, ..., d) if
    no lambda is 0, else v = (t, t^2, ..., t^d) for the first t = 2, 3, ...
    that makes none 0.  Expanded along row k, each numerator is a nonzero
    polynomial in t of degree at most d, so only finitely many t fail.
    Laminar cones need no retry: their lambda signs depend only on the order
    of v's coordinates."""
    v = list(range(1, d + 1))
    t = 1
    while True:
        counts = []
        for rows, det in crossing:
            lam = [_det(rows[:k] + [v] + rows[k + 1:]) * det for k in range(d)]
            if 0 in lam:
                break
            counts.append(sum(x < 0 for x in lam))
        else:
            return counts
        t += 1
        v = [t**j for j in range(1, d + 1)]


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
    d coordinates, and otherwise det = 0.  A cone with a ray that is not a
    signed 0/1 vector of one sign, or with two crossing supports, gets its
    determinant by Bareiss elimination instead.  The work is shared with
    `is_complete` and `f_vector` in one pass per fan, cached on the fan.
    """
    return f._checks.smooth


def is_complete(f: Fan) -> bool:
    """The maximal cones cover R^d exactly once: every point off their
    boundaries lies in exactly one of them.  Three checks:
    - Every cone is full-dimensional (det != 0).
    - Walls: every facet F = c ^ u of a cone c lies in exactly two cones,
      on opposite sides of it.  With F's rays in ascending rank and u
      last, det(F, u) = det(c) * (-1)^(d-1-k) for u in place k of c's rays
      in rank (rows in that order, see `_walk`), and the two signs of
      det(F, u) must differ.
    - Degree: h_0 = 1, the number of cones that hold the generic vector v
      of `f_vector` inside them.  By the wall condition, a generic path
      that crosses a wall leaves one cone and enters another, so the
      number of cones over a point is the same off the codimension-2 faces,
      whose complement is connected for d >= 2 (for d = 1 the wall at 0
      already gives one ray on each side).  That number is h_0.
    A fan that covers R^d twice, such as a five-pointed star or a square
    wound round twice, passes the walls check and fails the degree check."""
    return f._checks.complete


def f_vector(f: Fan) -> tuple[int, ...]:
    """(f_0, ..., f_{d-1}), f_j the number of cones with j + 1 rays, of a
    complete fan, read off its h-vector (Fulton, Introduction to Toric
    Varieties, 5.2): f_j = sum_i C(d-i, j+1-i) h_i.

    Take v = (1, 2, ..., d) and write it in each maximal cone's basis,
    v = sum lambda_u u.  Pushed from inside a face tau by v, a point enters
    the one maximal cone whose negative lambda all belong to rays of tau,
    so each cone c with k negative lambda is entered from C(d-k, j+1-k)
    faces with j + 1 rays, and h_k counts these cones.  For a laminar
    cone (see `is_smooth`), coordinate r(B) lies in B and in the supports
    above it only, so v_r(B) = sum over A containing B of s_A lambda_A and
    lambda_B = s_B (v_r(B) - v_r(parent B)), the parent being the smallest
    support strictly containing B (v_r(parent) = 0 at a root).  v's
    coordinates are distinct and nonzero, so no lambda is 0.  Other cones
    get lambda by Cramer's rule.  Raises FanError on a fan that is not
    complete."""
    checks = f._checks
    if not checks.complete:
        raise FanError("the f-vector is only read off a complete fan")
    h, d = checks.h, f.dim
    return tuple(
        sum(math.comb(d - i, j + 1 - i) * h[i] for i in range(j + 2)) for j in range(d)
    )


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
