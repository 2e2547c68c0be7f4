"""Definition-level versions of what the package computes another way,
which the tests compare it against, and helpers of the acceptance
criteria.  The package itself calls none of them."""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Optional, Sequence

from graphassoc import (
    EpsRational,
    Fan,
    FanError,
    Graph,
    GraphError,
    Ray,
    StableTree,
    WeightVector,
    bits_of,
)
from graphassoc.epsrational import _eps_term, _frac_str
from graphassoc.fans import _Checks
from graphassoc.graphs import cliques, from_edges, induced_connected
from graphassoc.graphs import subsets_by_size, tubes
from graphassoc.moduli import _stable_sides, _vertex_stable, enumerate_stable_trees
from graphassoc.obstructions import Constraint, LinearSystem
from graphassoc.tubings import _compatibility, proper_tubes
from graphassoc.weights import W1W2Report

# -- graphs and tubings -------------------------------------------------------


def relabel(g: Graph, perm: list[int]) -> Graph:
    """perm maps old labels to new labels."""
    return from_edges(g.num_vertices, [(perm[u], perm[v]) for u, v in g.edges()])


def is_tube(g: Graph, s: int) -> bool:
    """A tube induces a connected subgraph; singletons are (trivial) tubes."""
    if s == 0:
        raise GraphError("the empty set is neither a tube nor a non-tube")
    if s & ~g.vertex_mask:
        raise GraphError("subset mentions out-of-range vertices")
    return induced_connected(g, s)


def non_tubes(g: Graph) -> list[int]:
    """Subsets of size >= 2 inducing a disconnected subgraph, canonical order."""
    out = []
    for size in range(g.num_vertices, 1, -1):
        for s in subsets_by_size(g.num_vertices, size):
            if not induced_connected(g, s):
                out.append(s)
    return out


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
    if t1 & t2:
        return (t1 | t2) in (t1, t2)  # overlap must be containment
    return not induced_connected(g, t1 | t2)


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


# -- the weight system --------------------------------------------------------


def full_w1w2_system(g: Graph) -> LinearSystem:
    """The weight conditions with a row for every subset of size >= 2:

    0 < c_j <= 1 for all j; c_0 + sum_T c > 1 per nontrivial tube T;
    c_0 + sum_D c <= 1 per non-tube D; total (with c_M = 1) exceeding 2.
    Variable 0 is c_0; variable i+1 carries graph vertex i.
    """
    n = g.num_vertices
    nv = n + 1
    rows = []
    zero, one = Fraction(0), Fraction(1)

    def unit(j):
        return tuple(one if i == j else zero for i in range(nv))

    for j in range(nv):
        rows.append(Constraint(unit(j), ">", zero))
        rows.append(Constraint(unit(j), "<=", one))

    def subset_row(s):
        return tuple(
            one if (j == 0 or (j >= 1 and s >> (j - 1) & 1)) else zero
            for j in range(nv)
        )

    tube_rows, non_tube_rows = [], []
    for size in range(n, 1, -1):
        for s in subsets_by_size(n, size):
            if induced_connected(g, s):
                tube_rows.append(Constraint(subset_row(s), ">", one))
            else:
                non_tube_rows.append(Constraint(subset_row(s), "<=", one))
    rows += tube_rows + non_tube_rows

    rows.append(Constraint(tuple(one for _ in range(nv)), ">", one))
    return LinearSystem(nv, tuple(rows))


def check_w1_w2_per_subset(g: Graph, w: WeightVector, marks: dict[int, int]) -> W1W2Report:
    """weights.check_w1_w2 summing each subset's weights afresh, in bit
    order from c_0, and testing its connectivity on its own; subsets in
    canonical order (decreasing size, ascending bitmask)."""
    first_kind = None
    first_set = None
    violations = 0
    one = EpsRational(1)
    for size in range(g.num_vertices, 1, -1):
        for s in subsets_by_size(g.num_vertices, size):
            total = w.c0
            for v in bits_of(s):
                total = total + w.c[marks[v] - 1]
            if induced_connected(g, s):
                ok = total > one
                kind = "W1"
            else:
                ok = total <= one
                kind = "W2"
            if not ok:
                violations += 1
                if first_set is None:
                    first_kind, first_set = kind, s
    return W1W2Report(violations == 0, first_kind, first_set, violations)


# each relation as upper-form rows (sign, strict): sign*a.x < or <= sign*b
_UPPER = {"<": ((1, 1),), "<=": ((1, 0),), ">": ((-1, 1),), ">=": ((-1, 0),),
          "=": ((1, 0), (-1, 0))}


def reference_upper_rows(sys: LinearSystem) -> list[tuple[tuple[int, ...], int, int]]:
    """The integer rows (a, b, strict) of LinearSystem.int_rows, made from
    the constraints after the system exists, as feasible once made them
    itself: a.x < b if strict, else a.x <= b (an equality gives two); a
    row of ints as it is, any other scaled by the lcm of its
    denominators; strict is that scale on a strict row, else 0."""
    rows = []
    for con in sys.constraints:
        if con.rel not in _UPPER:
            raise ValueError(f"unknown relation {con.rel!r}")
        a, b, scale = con.coeffs, con.rhs, 1
        if not (isinstance(b, int) and all(isinstance(c, int) for c in a)):
            scale = math.lcm(b.denominator, *(c.denominator for c in a))
            a = tuple(c.numerator * (scale // c.denominator) for c in a)
            b = b.numerator * (scale // b.denominator)
        for sg, st in _UPPER[con.rel]:
            rows.append((a, b, scale * st) if sg > 0 else
                        (tuple(-c for c in a), -b, scale * st))
    return rows


def pivot_dense(table, basis, nonbasic, r, c, d) -> int:
    """obstructions._pivot rewriting every entry of each row it updates,
    (v*p - f*w) / d throughout, with no sparse case for |p| = d."""
    prow = table[r]
    p, sign = abs(prow[c]), (1 if prow[c] > 0 else -1)
    prow[:] = [sign * v for v in prow]
    for i, row in enumerate(table):
        f = row[c]
        if i != r and (f or p != d):
            row[:] = [(v * p - f * w) // d for v, w in zip(row, prow)]
            row[c] = -sign * f
    prow[c] = sign * d
    basis[r], nonbasic[c] = nonbasic[c], basis[r]
    return p


# -- fans ---------------------------------------------------------------------


@dataclass(frozen=True)
class VectorRay:
    """A ray given by its coordinates, for the hand-built fans whose rays
    are no signed 0/1 vectors and so no `Ray` of the package: the oracles
    here read them, the package does not."""

    coords: tuple[int, ...]
    label: int

    def __post_init__(self):
        if all(c == 0 for c in self.coords):
            raise FanError("zero ray")
        if math.gcd(*self.coords) != 1:
            raise FanError(f"ray {self.coords} is not primitive")


def support_of(coords: Sequence[int]) -> Optional[int]:
    """Bitmask of the nonzero coordinates if they are all +1 or all -1."""
    signs = {c for c in coords if c}
    if signs != {1} and signs != {-1}:
        return None
    return sum(1 << j for j, c in enumerate(coords) if c)


def make_ray(coords: Sequence[int], label: int):
    """The package's `Ray` of a signed 0/1 vector, else a `VectorRay`."""
    b = support_of(coords)
    if b is None:
        return VectorRay(tuple(coords), label)
    return Ray(b, coords[(b & -b).bit_length() - 1], label)


def coords_of(r, d: int) -> tuple[int, ...]:
    """The coordinates of a `Ray` or a `VectorRay` in R^d."""
    if isinstance(r, VectorRay):
        return r.coords
    return tuple(r.sign if r.support >> j & 1 else 0 for j in range(d))


def projective_simplex_fan(d: int) -> Fan:
    """Fan of P^d: rays u_1..u_d the standard basis, u_0 = -(u_1+...+u_d);
    ray index i carries graph vertex i."""
    if d < 1:
        raise FanError("dimension must be at least 1")
    rays = [Ray((1 << d) - 1, -1, 1)]
    for i in range(1, d + 1):
        rays.append(Ray(1 << i - 1, 1, 1 << i))
    full = (1 << (d + 1)) - 1
    return Fan(d, tuple(rays), tuple(full ^ (1 << omit) for omit in range(d, -1, -1)))


def primitive_sum(rays: Sequence, d: int, idx: Sequence[int], label: int):
    """The primitive part of the sum of the given rays' coordinates in R^d,
    a `Ray` if it is a signed 0/1 vector (see `make_ray`)."""
    coords = [0] * d
    for i in idx:
        for j, c in enumerate(coords_of(rays[i], d)):
            coords[j] += c
    g = math.gcd(*coords)
    return make_ray([c // g for c in coords], label)


def subdivide(cones: list[int], m: int, new: int) -> list[int]:
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


def scan_graph_fan(g: Graph, rng: Optional[random.Random] = None) -> Fan:
    """`build_graph_fan` as the blowup reads, for a connected or discrete g
    on at least 2 vertices: the P^d fan subdivided at the cone of each tube
    in turn, tube sizes d down to 2, each subdivision a scan of the whole
    cone list, each new ray the primitive sum of its tube's vertex rays."""
    d = g.num_vertices - 1
    f = projective_simplex_fan(d)
    rays = list(f.rays)
    cones = list(f.max_cones)
    for size in range(d, 1, -1):
        layer = tubes(g, size, size)
        if rng is not None:
            rng.shuffle(layer)
        for t in layer:
            cones = subdivide(cones, t, 1 << len(rays))
            rays.append(primitive_sum(rays, d, bits_of(t), t))
    return Fan(d, tuple(rays), tuple(cones))


def face_counts(f: Fan) -> tuple[int, ...]:
    """(f_0, ..., f_{d-1}): number of j-dimensional cones, i.e. distinct
    (j+1)-subsets of rays occurring inside maximal cones."""
    faces = [set() for _ in range(f.dim)]
    for c in map(bits_of, f.max_cones):
        for j in range(1, f.dim + 1):
            faces[j - 1].update(combinations(c, j))
    return tuple(len(s) for s in faces)


def det(matrix: list[list[int]]) -> int:
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


def crossing_negatives(crossing: list, d: int) -> list[int]:
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
        for rows, dt in crossing:
            lam = [det(rows[:k] + [v] + rows[k + 1:]) * dt for k in range(d)]
            if 0 in lam:
                break
            counts.append(sum(x < 0 for x in lam))
        else:
            return counts
        t += 1
        v = [t**j for j in range(1, d + 1)]


def walk_per_cone(f: Fan) -> _Checks:
    """`fans._walk` cone by cone, as it was before it swept the rays, and
    the reference walk of a general fan: it also reads the cones that
    `fans._walk` refuses (see `first_non_laminar`), and `VectorRay`s.
    One pass over the maximal cones: each cone's determinant (its size
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
    that does not hold d rays, or with determinant 0, is neither unimodular
    nor full-dimensional, so the walk stops there.
    """
    d = f.dim
    if any(c.bit_count() != d for c in f.max_cones):
        return _Checks(False, False, None)  # a cone without d rays
    coords = [coords_of(r, d) for r in f.rays]
    supports = [support_of(c) or 0 for c in coords]  # 0: not signed 0/1
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
        neg = b and coords[i][(b & -b).bit_length() - 1] < 0
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
            rows = [list(coords[i]) for i in order]
            dt = det(rows)
            if dt == 0:
                return _Checks(False, False, None)
            smooth = smooth and abs(dt) == 1
            crossing.append((rows, dt))
            side = dt < 0
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
    for count in crossing_negatives(crossing, d):
        h[count] += 1
    return _Checks(smooth, h[0] == 1, tuple(h))


def reference_lane_masks(cones: Sequence[int], num_rays: int) -> list[int]:
    """`fans._lane_masks` cone by cone and bit by bit: bit k of lane i is
    set when cones[k] holds ray i, written as binary digit k from the right
    of lane i's digit string."""
    digits = [bytearray(b"0" * len(cones)) for _ in range(num_rays)]
    for k, c in enumerate(cones):
        for i, bit in enumerate(reversed(bin(c)[2:])):
            if bit == "1":
                digits[i][-1 - k] = ord("1")
    return [int(d or b"0", 2) for d in digits]


def first_non_laminar(f: Fan) -> Optional[int]:
    """The first maximal cone with a ray that is not a signed 0/1 vector
    (nonzero entries all 1 or all -1) or with two rays whose supports meet
    while neither holds the other; None when every cone is laminar."""
    for c in f.max_cones:
        supports = [support_of(coords_of(f.rays[i], f.dim)) for i in bits_of(c)]
        if None in supports or any(
            a & b and a & ~b and b & ~a for a, b in combinations(supports, 2)
        ):
            return c
    return None


def first_clash_per_cone(f: Fan, valid: int, compat: Sequence[int]) -> Optional[int]:
    """`fans.first_clash` cone by cone, the per-cone AND loop that the
    tubing bijection ran before the clash pass: ok[r] is r and the rays
    compatible with it, all in `valid`, or 0 for a ray outside `valid`, and
    ANDed over the rays of a symmetric table's cone it holds the cone iff
    each ray is valid and each two are compatible.  (The loop asked for
    the cone itself, also saying that no other valid ray is compatible with
    all of the cone's; the bijection does not need that, as every face lies
    in a maximal cone and the f-vector is compared with the tubing counts.)"""
    ok = [(row | 1 << i) & valid if valid >> i & 1 else 0 for i, row in enumerate(compat)]
    for c in f.max_cones:
        common = -1
        m = c
        while m:
            low = m & -m
            common &= ok[low.bit_length() - 1]
            m ^= low
        if c & ~common:
            return c
    return None


def crossed_p3_fan() -> Fan:
    """P^3 under the basis (1,1,0), (0,1,1), (0,0,1): complete and smooth,
    with crossing supports in one cone and the ray (-1,-2,-2) in the rest."""
    rows = [(-1, -2, -2), (1, 1, 0), (0, 1, 1), (0, 0, 1)]
    rays = tuple(make_ray(r, 1 << i) for i, r in enumerate(rows))
    return Fan(3, rays, projective_simplex_fan(3).max_cones)


def canonical_form(f: Fan):
    """Order-independent fingerprint: sorted ray coordinate vectors plus
    maximal cones rewritten in terms of sorted ray positions."""
    coords = [coords_of(r, f.dim) for r in f.rays]
    order = sorted(range(len(f.rays)), key=coords.__getitem__)
    bit = [0] * len(order)  # bit[old ray index]: the ray's bit in sorted order
    for new, old in enumerate(order):
        bit[old] = 1 << new
    rays = tuple(coords[i] for i in order)
    cones = []
    for c in f.max_cones:
        m = 0
        while c:
            low = c & -c
            m |= bit[low.bit_length() - 1]
            c ^= low
        cones.append(m)
    return (f.dim, rays, tuple(sorted(cones)))


# -- stable trees -------------------------------------------------------------


def marks(*labels) -> int:
    """The bitmask of the marks with these labels ("M", 0, 1, ...): bit 0
    for M and bit l + 1 for mark l."""
    return sum(1 if l == "M" else 2 << l for l in labels)


def tree_of(n: int, sides: list[int]) -> StableTree:
    """The tree whose edges split off the given compatible M-free sides,
    listed by nondecreasing size as `nodal_divisors` orders them.  Vertex 0
    holds M; vertex i + 1 hangs below the edge of sides[i], from the
    smallest later side that contains it, or else from vertex 0, and keeps
    the marks of its side that no child takes."""
    taken = [0] * (len(sides) + 1)  # vertex -> union of its children's sides
    edges = []
    for i, side in enumerate(sides):
        parent = next(
            (j + 1 for j in range(i + 1, len(sides)) if side & ~sides[j] == 0), 0
        )
        edges.append((parent, i + 1))
        taken[parent] |= side
    legs = [((1 << n) - 1) & ~taken[0]]
    legs += [side & ~taken[i + 1] for i, side in enumerate(sides)]
    return StableTree(tuple(legs), tuple(edges))


def reference_tree_json(w: WeightVector, max_vertices: int) -> list[dict]:
    """The JSON of the trees of the cliques of compatible sides, walked by
    `graphs.cliques` as `count_stable_trees` walks them, not grown as the
    enumerator grows its trees: each built by `tree_of` with M on vertex 0
    and written by a numbering rule of its own, not `StableTree.to_json`,
    in the order of `sorted_tree_json`.

    Vertices go by their lowest mark bit, so the legless ones come first,
    ordered by the sorted marks on M's side of each.  This is the order of
    `to_json`, whose tie-break compares the sorted marks of each branch of
    a legless vertex: the branch holding M sorts first, and two legless
    vertices never share it, since their edges toward M are distinct
    splits."""
    tables = _stable_sides(w, max_vertices)
    if tables is None:
        return []
    sides = tables[0]
    walk = chain([()], cliques(tables[2], max_vertices - 1))
    every = (1 << w.n) - 1
    items = []
    for c in walk:
        tree = tree_of(w.n, [sides[i] for i in c])
        m_side = [every] + [every & ~sides[i] for i in c]  # vertex 0 holds M
        # the lowest mark bits tie only between legless vertices
        order = sorted(
            range(tree.num_vertices),
            key=lambda v: (tree.legs[v] & -tree.legs[v], bits_of(m_side[v])),
        )
        pos = {old: new for new, old in enumerate(order)}
        items.append({
            "vertices": [
                {"legs": ["M" if b == 0 else str(b - 1) for b in bits_of(tree.legs[v])]}
                for v in order
            ],
            "edges": sorted(sorted([pos[a], pos[b]]) for a, b in tree.edges),
        })
    items.sort(key=_json_text_order)
    return items


def _json_text_order(item: dict) -> tuple[int, str]:
    return len(item["vertices"]), str(item)


def sorted_tree_json(trees) -> list[dict]:
    """The JSON of the trees, sorted by component count and then by the
    JSON string: the order of the reference and of the pinned digests."""
    return sorted((t.to_json() for t in trees), key=_json_text_order)


def pairwise_side_tables(sides: list[int]) -> tuple[list[int], list[int]]:
    """The tables of the M-free sides, pair by pair: compat[i], the sides
    nested with or disjoint from side i, and sup[i], the later sides that
    contain it."""
    compat = [0] * len(sides)
    sup = [0] * len(sides)
    for i, a in enumerate(sides):
        for j in range(i + 1, len(sides)):
            # a side is no larger than a later one, so only a can be inside
            both = a & sides[j]
            if both == a:
                sup[i] |= 1 << j
            if both in (0, a):  # disjoint or nested
                compat[i] |= 1 << j
                compat[j] |= 1 << i
    return compat, sup


def tree_from_json(item: dict) -> StableTree:
    """The tree numbered in the vertex order of its JSON."""
    legs = (marks(*(l if l == "M" else int(l) for l in v["legs"])) for v in item["vertices"])
    return StableTree(tuple(legs), tuple(map(tuple, item["edges"])))


def subset_nodal_divisors(w: WeightVector) -> list[int]:
    """The M-free sides of all mark bipartitions with both sides of size
    >= 2 and weight > 1, each side's weight summed afresh from its marks."""
    weights = w.entries()
    non_m = list(range(1, w.n))  # the bits of the labels 0..n-2
    out = []
    one = EpsRational(1)
    whole = w.total()
    for r in range(2, w.n - 1):
        for side in combinations(non_m, r):
            total = sum(map(weights.__getitem__, side), EpsRational(0))
            if total > one and whole - total > one:
                out.append(sum(1 << b for b in side))
    out.sort(key=lambda side: (side.bit_count(), bits_of(side)))
    return out


def degree(tree: StableTree, v: int) -> int:
    return sum(1 for e in tree.edges if v in e)


def is_path(tree: StableTree) -> bool:
    return all(degree(tree, v) <= 2 for v in range(tree.num_vertices))


def end_vertices(tree: StableTree) -> list[int]:
    return [v for v in range(tree.num_vertices) if degree(tree, v) == 1]


def tree_stable(w: WeightVector, tree: StableTree) -> bool:
    """Every vertex v satisfies deg(v) + w(legs(v)) > 2."""
    return all(
        _vertex_stable(w, tree.legs[v], degree(tree, v))
        for v in range(tree.num_vertices)
    )


def chain_shape_check(w: WeightVector) -> bool:
    """True iff every stable tree is a chain with the two heaviest marks at
    opposite ends (vacuously true for the one-component tree)."""
    order = sorted(range(w.n), key=lambda b: _HeavyKey(w, b))
    h1, h2 = 1 << order[0], 1 << order[1]
    for tree in enumerate_stable_trees(w, w.n - 2):
        if tree.num_vertices == 1:
            continue
        if not is_path(tree):
            return False
        ends = end_vertices(tree)
        e1, e2 = ends[0], ends[1]
        if not (
            (h1 & tree.legs[e1] and h2 & tree.legs[e2])
            or (h1 & tree.legs[e2] and h2 & tree.legs[e1])
        ):
            return False
    return True


class _HeavyKey:
    """Sort key of a mark's bit: heavier weight first, then label order."""

    def __init__(self, w: WeightVector, bit: int):
        self.weight = w.entries()[bit]
        self.bit = bit

    def __lt__(self, other):
        cmp = self.weight.compare(other.weight)
        if cmp != 0:
            return cmp > 0
        return self.bit < other.bit


# -- Q[eps] with Fraction parts ------------------------------------------------


class FractionEps:
    """a + b*eps as a pair of Fractions, the representation `EpsRational`
    had before it held three ints: every operation on the parts, so a
    reference for the int arithmetic.  It records no comparisons."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    @staticmethod
    def _coerce(x) -> "FractionEps":
        if isinstance(x, FractionEps):
            return x
        if isinstance(x, (int, Fraction)):
            return FractionEps(x)
        raise TypeError(f"cannot interpret {x!r} as FractionEps")

    def __add__(self, other):
        o = self._coerce(other)
        return FractionEps(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return FractionEps(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return FractionEps(-self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if self.b != 0 and o.b != 0:
            raise ValueError("product would have an eps^2 term")
        return FractionEps(self.a * o.a, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def scale(self, r) -> "FractionEps":
        r = Fraction(r)
        return FractionEps(self.a * r, self.b * r)

    def compare(self, other) -> int:
        o = self._coerce(other)
        if self.a != o.a:
            return -1 if self.a < o.a else 1
        if self.b != o.b:
            return -1 if self.b < o.b else 1
        return 0

    def __eq__(self, other):
        o = self._coerce(other)
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def instantiate(self, eps_value) -> Fraction:
        eps_value = Fraction(eps_value)
        if eps_value <= 0:
            raise ValueError(f"eps must be positive, got {eps_value}")
        return self.a + self.b * eps_value

    def __str__(self):
        if self.b == 0:
            return _frac_str(self.a)
        if self.a == 0:
            return _eps_term(self.b, lead=True)
        return _frac_str(self.a) + _eps_term(self.b, lead=False)


def fraction_eps(x: EpsRational) -> FractionEps:
    """The reference value of x, read off its int triple."""
    return FractionEps(Fraction(x.p, x.d), Fraction(x.q, x.d))


def reference_preservation_threshold(pairs) -> Optional[Fraction]:
    """`preservation_threshold` on Fraction parts: the least |delta_a| /
    |delta_b| over the pairs x < y whose standard and eps parts pull in
    opposite directions; None when there is no such pair."""
    bound: Optional[Fraction] = None
    for x, y in pairs:
        da = y.a - x.a
        db = y.b - x.b
        if da == 0:
            continue
        if (da > 0) != (db < 0) or db == 0:
            continue
        cand = abs(da) / abs(db)
        if bound is None or cand < bound:
            bound = cand
    return bound
