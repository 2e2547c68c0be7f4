"""Simplicial lattice fans: the graph associahedral fan, the stellar
subdivision of the fan of projective space along tube cones in decreasing
tube cardinality.

A cone is an int bitmask over ray indices, the representation of vertex
subsets and tubes too; cones become index lists only in `fan_to_json`.
A ray s 1_B is the triple (support B, sign s, label: the tube it
carries), and only `fan_to_json` writes coordinates.  `build_graph_fan`
reads the subdivisions off a subset recursion on the vertex rays that
each cone holds (`_pieces`, over `graphs.component_table`), and records
the graph on the fan.

Smoothness, completeness and the f-vector come from one pass over the
rays, cached on the `Fan` (`_walk`).  Maximal cone k is lane k, bit k of
an int: the cone list is transposed once per fan into one lane mask per
ray (`Fan._lanes`, the cones that hold it), 8x8 bit blocks at a time, one
byte of every cone in one int (`_lane_masks`, after Hacker's Delight
7-3), and each step of the pass works on every cone at once with a few
int operations per coordinate of the ray's support.  A cone that names a
ray the fan does not have raises FanError there.  The pass needs laminar
cones (supports pairwise nested or disjoint) and raises FanError at any
other, found by a clash pass over the lanes (`_clash_lanes`): on the tube
table, if the fan carries its graph and each ray is its label's closed
form (`_tube_ray`), else on the support table.  The tube table (`Fan._tube_table`) and its
pass (`Fan._tube_clashes`) are cached, and the tubing bijection hands
`first_clash` that very table, so one `verify` builds each once.
Compatible tubes have laminar supports: the support of t is t, or V - t
if t holds 0, so nesting and apartness carry over, except that if only
t1 holds 0, t2 inside t1 parts the supports and t2 apart from t1 nests
them.  Clashing tubes can have nested supports (t1 holding 0 and t2 not,
overlapping and covering V), so the support table decides after a tube
clash.  On laminar cones:
- the rem sets decide smoothness (see `is_smooth`);
- the sign of the determinant is the product of the rays' signs times the
  sign of the permutation that sends the rays to their rem coordinates;
- v = (1, ..., d) has the coordinate
  lambda_B = s_B (v_r(B) - v_r(parent B)) in the cone's basis.
The two cones at a facet F = c ^ u must lie on opposite sides of it, the
sign of det(F, u) = det(c) (-1)^(d-1-k) for u in place k of c: the
facets on one side go into one set, and those on the other side must
empty it.  Rays that share no cone are checked as a group, and c's facet
is c ANDed with every ray bit except the group's: c holds one ray of the
group, and no bit past the last ray (`_lane_masks` refused any such
cone), so that is c ^ u exactly, made from positive ints alone.  With
that wall condition the number of cones over a generic point is
constant, and h_0 = 1 (the cones holding v) makes it one
(`is_complete`).  The h-vector, h_k the number of cones with k negative
lambda, gives the f-vector, f_j = sum_i C(d-i, j+1-i) h_i (`f_vector`)."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, compress, repeat
from operator import and_, or_
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .graphs import Graph, GraphError, bits_of, component_table, is_connected, nested_or_apart, tubes

# Hacker's Delight 7-3: the shift and the mask of each delta swap that
# transposes an 8x8 bit matrix held in a 64-bit word, one byte per row
_SWAPS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
_FALSE_ZERO = bytes.maketrans(b"0", b"\0")


class FanError(ValueError):
    pass


class Ray(NamedTuple):
    """The ray sign * 1_support, carrying the tube `label`."""

    support: int  # bitmask of the nonzero coordinates
    sign: int  # +1 or -1
    label: int  # vertex bitmask of the tube the ray carries


@dataclass(frozen=True)
class Fan:
    """Pure simplicial fan stored by its rays and maximal cones, each the
    bitmask of its dim ray indices (bit i set when rays[i] spans it)."""

    dim: int
    rays: tuple[Ray, ...]
    max_cones: tuple[int, ...]
    graph: Optional[Graph] = None  # the graph it was built from

    @cached_property
    def _lanes(self) -> list[int]:
        return _lane_masks(self.max_cones, len(self.rays))

    @cached_property
    def _checks(self) -> _Checks:
        return _walk(self)

    @cached_property
    def _tube_table(self) -> list[int]:  # the labels' compatibility as tubes
        labels, g = [r.label for r in self.rays], self.graph
        return nested_or_apart(labels, g.num_vertices, g.adj)[1]

    @cached_property
    def _tube_clashes(self) -> int:
        """The lanes where two tubes clash, for `_walk` and `first_clash`."""
        return _clash_lanes(self._lanes, self._tube_table)


def _tube_ray(t: int, d: int) -> Ray:
    """The primitive sum of the rays of t's vertices: 1 on the coordinates
    of t (coordinate j carries vertex j + 1) if vertex 0 is not in t, else
    -1 on the coordinates off t."""
    return Ray(~t >> 1 & (1 << d) - 1, -1, t) if t & 1 else Ray(t >> 1, 1, t)


def build_graph_fan(g: Graph, rng: Optional[random.Random] = None) -> Fan:
    """Graph associahedral fan: the P^d fan subdivided stellarly at the cone
    of each tube's vertex rays, tube sizes d down to 2, with the rays in
    that order.  The order within a size class does not matter; pass an
    rng to shuffle it (used to test exactly that).

    A subdivision at a face replaces each cone that holds it by pieces of
    that cone alone, so a cone's final pieces depend only on the vertex
    rays O it holds and on the tubes to come.  The subdivision at tube t
    splits the cone iff t lies in O, into a piece with O minus i and t's
    ray for each i in t.  By induction no earlier tube lies in O, so the
    next split is at the first tube inside O: the largest component of
    G[O], the first in the order among those of equal size.  A cone is
    final when G[O] has no edge.  A tube inside O lies in one component
    of G[O], so the components split independently, and splitting first
    at any component with an edge gives the same pieces.  The fan is the
    union over k of the pieces of the cone V minus k (`_pieces`).
    """
    n = g.num_vertices
    if n < 2:
        raise GraphError("fan construction needs at least 2 vertices")
    if not (is_connected(g) or g.is_discrete()):
        raise GraphError("unsupported: disconnected non-discrete graph")
    d = n - 1
    order = [1 << i for i in range(n)]
    for size in range(d, 1, -1):
        layer = tubes(g, size, size)
        if rng is not None:
            rng.shuffle(layer)
        order += layer
    ray_of = {t: i for i, t in enumerate(order)}
    comp, memo = component_table(g), {}
    cones = [c for k in range(d, -1, -1) for c in _pieces(comp, ray_of, g.vertex_mask ^ 1 << k, memo)]
    return Fan(d, tuple(_tube_ray(t, d) for t in order), tuple(cones), g)


def _pieces(comp: tuple, ray_of: dict[int, int], o: int, memo: dict[int, list[int]]) -> list[int]:
    """The final pieces of a cone whose vertex rays are o (see
    `build_graph_fan`), the components of G[o] read off the graph's
    `component_table`, memoised by o.  Module-level, so that the memo is in
    no reference cycle and goes when the build returns."""
    out = memo.get(o)
    if out is None:
        out, rest = [o], o
        while rest:
            c = comp[rest]
            rest ^= c
            if c & c - 1:  # the first component of G[o] with an edge
                ray = 1 << ray_of[c]
                out = [ray | p for i in bits_of(c) for p in _pieces(comp, ray_of, o ^ 1 << i, memo)]
                break
        memo[o] = out
    return out


class _Checks(NamedTuple):
    """What one walk over a fan's maximal cones finds (see `_walk`)."""

    smooth: bool
    complete: bool
    h: Optional[tuple[int, ...]]  # h-vector, None unless the walls match up


def _lane_masks(cones: Sequence[int], num_rays: int) -> list[int]:
    """The cones transposed: bit k of entry i is set when cones[k] holds ray i.
    Each cone is a row of little-endian bytes.  A strided slice of the rows
    is byte q of every cone, read as one int and padded with zeros to whole
    64-bit words: word w is an 8x8 bit matrix whose row r is byte q of cone
    8w + r.  Three masked delta swaps, each mask tiled over all the words,
    transpose every word at once (Warren, Hacker's Delight, 2nd ed., 7-3),
    so that byte p of word w holds ray 8q + p of cones 8w..8w+7, and lane
    8q + p is bytes p, p + 8, ... of the result.  A cone with a bit past
    num_rays raises FanError: it fails to_bytes, or it sets a spare lane
    of the last byte, p >= num_rays - 8q."""
    width = (num_rays + 7) >> 3
    try:  # joined in blocks, so that no list holds a bytes object for every cone
        rows = b"".join(
            b"".join(map(int.to_bytes, cones[k : k + 4096], repeat(width), repeat("little")))
            for k in range(0, len(cones), 4096)
        )
    except OverflowError:
        raise _foreign(next(c for c in cones if c >> num_rays)) from None
    size = len(cones) + 7 & ~7  # whole words: the ints below end in zeros
    words = int.from_bytes(b"\1\0\0\0\0\0\0\0" * (size >> 3), "little")  # bit 0 of each word
    swaps = [(s, m * words) for s, m in _SWAPS]
    out = []
    for q in range(width):
        x = int.from_bytes(rows[q::width], "little")
        for s, m in swaps:
            t = (x ^ x >> s) & m
            x ^= t ^ t << s
        block = x.to_bytes(size, "little")
        out += (int.from_bytes(block[p::8], "little") for p in range(8))
    spare = reduce(or_, out[num_rays:], 0)
    if spare:
        raise _foreign(cones[(spare & -spare).bit_length() - 1])
    return out[:num_rays]


def _foreign(c: int) -> FanError:
    return FanError(f"cone {bits_of(c) if c > 0 else c} names a ray the fan does not have")


def _pick(items: Sequence[int], lanes: int) -> Iterator[int]:
    """The items (cones, or the rays' lane masks) in the given lanes, in order."""
    digits = format(lanes, f"0{len(items)}b").encode().translate(_FALSE_ZERO)
    return compress(items, digits[::-1])


def _clash_lanes(lanes: list[int], compat: Sequence[int]) -> int:
    """The lanes of the cones with rays i < j, j not in compat[i].  compat
    is symmetric (see `graphs.nested_or_apart`), so each ray ORs the lanes
    of the later rays it clashes with, picked in C (`_pick`)."""
    every = (1 << len(lanes)) - 1
    bad = 0
    for i, (here, ok) in enumerate(zip(lanes, compat)):
        clashing = every & ~ok & -(2 << i)
        if here and clashing:
            bad |= here & reduce(or_, _pick(lanes, clashing), 0)
    return bad


def first_clash(f: Fan, valid: int, compat: Sequence[int]) -> Optional[int]:
    """The first maximal cone with a ray outside the bitmask `valid` or two
    rays that clash in compat (`_clash_lanes`).  The fan's cached pass
    answers for its own tube table, known by identity: an equal list built
    elsewhere takes a pass of its own, and no table is built to compare."""
    lanes = f._lanes
    cached = compat is vars(f).get("_tube_table")
    bad = f._tube_clashes if cached else _clash_lanes(lanes, compat)
    bad = reduce(or_, _pick(lanes, ~valid & (1 << len(lanes)) - 1), bad)
    return f.max_cones[(bad & -bad).bit_length() - 1] if bad else None


def _walls_match(cones: Sequence[int], lanes: list[int], sides: int, odd: dict[int, int]) -> bool:
    """Every facet lies in exactly one cone on each side: the side-0 facets
    go into one set, which must hold them all, and the side-1 facets, as
    many, must empty it.  Ray i's facet is on the side of the cone's first
    facet (`sides`) if i is in an even place, in the cones `odd[i]` on the
    other.  Rays that share no cone form a group, and one `_pick` per side
    yields the cones of all of them.  The facet is c & (full ^ group), c
    with every ray bit but the group's: c without the one ray of the group
    in c, since no cone holds a ray at or past len(lanes) (`_lane_masks`).
    The mask is positive: CPython ANDs a negative int such as ~group
    through a two's-complement copy of it, one per facet."""
    groups = []  # [lanes, rays, lanes with the facet on side 1]
    for i, o in odd.items():
        here = lanes[i]
        for g in groups:
            if not g[0] & here:
                break
        else:
            g = [0, 0, 0]
            groups.append(g)
        g[0] |= here
        g[1] |= 1 << i
        g[2] |= (sides ^ o) & here
    size = sum((held ^ one).bit_count() for held, _, one in groups)
    if size != sum(one.bit_count() for _, _, one in groups):
        return False

    full = (1 << len(lanes)) - 1

    def on_side(side: int) -> Iterator[int]:
        return chain.from_iterable(
            map(and_, _pick(cones, one if side else held ^ one), repeat(full ^ rays))
            for held, rays, one in groups
        )

    walls = set(on_side(0))
    if len(walls) != size:
        return False
    # one call, so the set shrinks once, at the end
    walls.difference_update(on_side(1))
    return not walls


def _tally(flags: Iterable[int], lanes: int, d: int) -> list[int]:
    """h[k], k <= d: the number of the given lanes set in exactly k of the
    masks `flags`, read off a bit-sliced counter."""
    planes = []  # plane p: bit p of each lane's count
    for x in flags:
        p = 0
        while x and p < len(planes):
            planes[p], x = planes[p] ^ x, planes[p] & x
            p += 1
        if x:
            planes.append(x)
    h = [0] * (d + 1)
    for k in range(min(d + 1, 1 << len(planes))):
        m = lanes
        for p, plane in enumerate(planes):
            m &= plane if k >> p & 1 else ~plane
        h[k] = m.bit_count()
    return h


def _walk(f: Fan) -> _Checks:
    """One pass over the rays for all maximal cones at once: each cone's
    determinant (its size for smoothness, its sign for the wall check) and
    the number of negative coordinates of v = (1, 2, ..., d) in its basis
    (for the h-vector).

    Cone k is lane k of every mask below.  A cone's rows are its rays in
    rank order, by support size and then by index, so one sweep of all rays
    in that order sweeps each cone in its own order.  The sweep keeps, per
    coordinate j, the cones where
    - `covered[j]`: a support swept so far holds j;
    - `pos[j]`, `neg[j]`: j is the rem coordinate of a maximal support swept
      so far (a root) of a positive or a negative ray;
    - `lam[j]`: the support with rem coordinate j has lambda < 0.
    In the cones holding a ray with support b:
    - The rem of b is b & ~covered (see `is_smooth`), and `zero` gets the
      cones where it is empty.  The rems of a cone's d rays are disjoint, so
      if none is empty, each is one coordinate.
    - The roots inside b are b's children.  For a child C,
      lambda_C = s_C (v_r(C) - v_r(b)) (see `f_vector`) is negative for a
      positive child with r(C) < r(b) and a negative child with
      r(C) > r(b): for the child at coordinate j, the rems of b's
      coordinates above and below j, a suffix and a prefix OR over b.  The
      children then stop being roots and b becomes one.  A root left at the
      end has lambda = s v_r, negative iff s < 0.  h_k counts the cones
      whose d flags add up to k (`_tally`).
    - Subtracting its children's rows from each row leaves e_r(b) in row b,
      so the determinant is the product of the signs (`flips`) times the
      sign of the permutation from rank order to the rem coordinates.  Its
      inversions number sum_k (k - #{swept coordinates below r_k}); the sum
      of k is d(d-1)/2, and `inversions` is the parity of the counts, a
      prefix XOR of `covered` below each rem.
    The pass first raises FanError at any cone that is not laminar.  Each
    cone must hold d rays: `_tally` over the ray lanes counts them, and
    h[d] must be the number of cones.  A cone with fewer or more rays, or
    with an empty rem (determinant 0), is neither unimodular nor
    full-dimensional, and the pass stops there.

    The facet F = c ^ u with u in place k of c lies on side
    (side of c + k) mod 2 (see `is_complete`); `odd` holds the cones in
    which each ray is in an odd place, and `_walls_match` checks the walls.
    """
    d, cones = f.dim, f.max_cones
    if not cones:
        return _Checks(True, False, None)
    rays, g, lanes = f.rays, f.graph, f._lanes
    supports = [r.support for r in rays]
    tube_rays = g is not None and all(r == _tube_ray(r.label, g.num_vertices - 1) for r in rays)
    if not tube_rays or f._tube_clashes:
        crossed = first_clash(f, -1, nested_or_apart(supports, d)[1])
        if crossed is not None:
            raise FanError(f"cone {bits_of(crossed)} is not laminar")
    every = (1 << len(cones)) - 1
    if _tally(lanes, every, d)[d] != len(cones):
        return _Checks(False, False, None)  # a cone without d rays (see is_smooth)

    covered, pos, neg, lam = [0] * d, [0] * d, [0] * d, [0] * d
    zero = inversions = flips = run = 0
    odd = {}
    rank = sorted(range(len(supports)), key=lambda i: supports[i].bit_count())
    for i in rank:
        here, b = lanes[i], supports[i]
        if not here:
            continue
        odd[i] = run & here
        run ^= here
        negative = rays[i].sign < 0
        if negative:
            flips ^= here
        one = below = 0
        rems = []
        for j in range(b.bit_length()):
            if b >> j & 1:
                rem = here & ~covered[j]
                inversions ^= rem & below
                rems.append((j, rem, one))
                one |= rem
            below ^= covered[j]
        zero |= here & ~one
        keep = ~here
        later = 0
        for j, rem, earlier in reversed(rems):
            lam[j] |= pos[j] & later | neg[j] & earlier
            later |= rem
            covered[j] |= here
            if negative:
                pos[j] &= keep
                neg[j] = neg[j] & keep | rem
            else:
                pos[j] = pos[j] & keep | rem
                neg[j] &= keep
    if zero:
        return _Checks(False, False, None)  # det 0 (see is_smooth)

    # the side of each cone's first facet
    sides = inversions ^ flips ^ (every if (d * (d - 1) // 2 + d - 1) & 1 else 0)
    if not _walls_match(cones, lanes, sides, odd):
        return _Checks(True, False, None)
    h = _tally(map(int.__or__, lam, neg), every, d)
    return _Checks(True, h[0] == 1, tuple(h))


def is_smooth(f: Fan) -> bool:
    """Every maximal cone's rays form a lattice basis (determinant +-1).

    Each ray is s 1_B, and flipping a row's sign keeps |det|, so take the
    rows to be 1_B.  Suppose a cone's d supports form a laminar family
    (any two are nested or disjoint), and let rem(B) = B minus the union
    of the supports A with A a proper subset of B.
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
    d coordinates, and otherwise det = 0.  A cone that does not hold
    exactly d rays is not smooth either, and one with two crossing supports
    raises FanError.  One pass per fan, cached on it, does the work of
    `is_smooth`, `is_complete` and `f_vector`.
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
    wound round twice, passes the walls check and fails the degree check.
    Raises FanError on a cone that is not laminar (see `is_smooth`)."""
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
    coordinates are distinct and nonzero, so no lambda is 0.  Raises
    FanError on a fan that is not complete or has a cone that is not
    laminar (see `is_smooth`)."""
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
            {"coords": [r.sign * (r.support >> j & 1) for j in range(f.dim)], "label": label_json(r.label)}
            for r in f.rays
        ],
        "max_cones": sorted(map(bits_of, f.max_cones)),
    }
