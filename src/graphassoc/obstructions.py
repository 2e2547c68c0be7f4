"""Combinatorial obstruction witnesses and exact feasibility of the
tube/non-tube weight inequalities.

The first witness of either kind is small, as the two docstrings prove: an
A witness is an edge and a vertex detached from it, a B witness four
vertices inducing 2K2, P4 or C4.  So the search scans edges and 4-subsets,
and needs no cap below graphs.MAX_VERTICES.

The weight system keeps only its irredundant rows: one per edge and one per
maximal non-tube, besides the bounds and the total.  Every other tube or
non-tube row follows from one of these and c > 0 (the lemma is in
w1w2_system's docstring), so the solutions are the same, and the simplex
reads about a quarter of the rows that one per subset would give.  Its
entries are ints, 0 or 1, read off the graph's `graphs.component_table`.

Feasibility is one exact simplex with Bland's rule, run on the homogenised
LP of Motzkin's transposition theorem, which turns strict rows into a
positive margin t to maximise.  It runs in integers throughout: a row of
ints enters the tableau as it is, a row with Fraction entries is scaled by
the lcm of its denominators, and the tableau pivots fraction-free over one
common denominator, every division exact.  A pivot of absolute value
equal to that denominator leaves each column in which the pivot row is 0
as it was, so it rewrites only the pivot row's nonzero columns; every
free-variable pivot of a W1/W2 system is one, -1 over d = 1 on a row whose
only other nonzero is the margin's.  The rows of the free variables are
set aside once those are basic, since they never leave the basis; the
point is read back from them at the end.  Both verdicts come with a
certificate that is checked before it is returned: a point against every
constraint, in integers over the point's common denominator, or
nonnegative row multipliers that sum to 0 < 0 or 0 <= -c.  A LinearSystem
checks its rows once, as it is made, in the pass that makes its integer
rows: length, relation, and entries ints or Fractions.  satisfies checks a
point likewise.  Anything else is a ValueError.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple, Optional

from .epsrational import _frac_str
from .graphs import Graph, bits_of, component_table, induced_connected, subsets_by_size


@dataclass(frozen=True)
class ObstructionWitness:
    """Kind 'A': a non-tube containing a nontrivial tube.
    Kind 'B': a set partitioned into k nontrivial tubes and k' <= k non-tubes."""

    kind: str
    tube: Optional[int] = None
    non_tube: Optional[int] = None
    subset: Optional[int] = None
    tube_partition: tuple[int, ...] = ()
    nontube_partition: tuple[int, ...] = ()

    def to_json(self) -> dict:
        if self.kind == "A":
            return {
                "kind": "A",
                "tube": bits_of(self.tube),
                "non_tube": bits_of(self.non_tube),
            }
        return {
            "kind": "B",
            "subset": bits_of(self.subset),
            "tube_partition": [bits_of(t) for t in self.tube_partition],
            "nontube_partition": [bits_of(d) for d in self.nontube_partition],
        }


def obstruction_a(g: Graph) -> Optional[ObstructionWitness]:
    """First (smallest, lexicographic) witness of a non-tube containing a
    nontrivial tube: an edge, by ascending tube bitmask, and the lowest
    vertex with no edge into it.

    Any witness (T, v) gives the witness (e, v) for an edge e of T, and
    sizes are scanned upward, so the first witness is an edge.
    """
    for b in range(g.num_vertices):  # edges a < b by ascending bitmask
        for a in bits_of(g.adj[b] & ((1 << b) - 1)):
            t = 1 << a | 1 << b
            detached = g.vertex_mask & ~(t | g.adj[a] | g.adj[b])
            if detached:
                return ObstructionWitness(kind="A", tube=t, non_tube=t | (detached & -detached))
    return None


def _pair_split(s: int, is_block) -> Optional[tuple[int, int]]:
    """The split of the 4-set s into two pairs that are both blocks, whose
    pair through s's lowest vertex has the smallest bitmask; or None."""
    low = s & -s
    for v in bits_of(s ^ low):
        pair = low | 1 << v
        if is_block(pair) and is_block(s ^ pair):
            return pair, s ^ pair
    return None


def obstruction_b(g: Graph) -> Optional[ObstructionWitness]:
    """First witness, by size and then ascending bitmask, of a subset
    partitionable into k nontrivial tubes and into k' <= k non-tubes; each
    partition is the one whose block through the subset's lowest vertex
    has the smallest bitmask.

    - 2- and 3-subsets are never witnesses: the only partition into blocks
      of size >= 2 is the set itself, a tube or a non-tube but not both.
    - A 4-subset S is a witness iff G[S] is 2K2, P4 or C4.  Its tube
      partition is then a pair of edges, and its non-tube partition is (S,)
      when G[S] is disconnected, else a pair of non-edges.  (S must split
      into two edges, as S alone cannot be both; a disconnected G[S] with
      a perfect matching is 2K2, and the connected graphs on four vertices
      with a perfect matching in both G[S] and its complement are P4, C4.)
    - Every witness implies a 4-vertex one.  If G has no induced 2K2, P4
      or C4, every G[S] is a threshold graph (Chvatal-Hammer 1977), so it
      has an isolated or a dominating vertex.  An isolated vertex lies in
      no nontrivial tube of G[S]; a dominating vertex makes its own
      non-tube block connected.  So G has no witness at all.

    Hence the first witness is the first 4-subset witness.
    """
    def tube(block):
        return induced_connected(g, block)

    def non_tube(block):
        return not induced_connected(g, block)

    for s in subsets_by_size(g.num_vertices, 4):
        tube_partition = _pair_split(s, tube)
        if tube_partition is None:
            continue
        nontube_partition = _pair_split(s, non_tube) if tube(s) else (s,)
        if nontube_partition is not None:
            return ObstructionWitness(
                kind="B",
                subset=s,
                tube_partition=tube_partition,
                nontube_partition=nontube_partition,
            )
    return None


# -- linear system ----------------------------------------------------------


_EXACT = (int, Fraction)


class Constraint(NamedTuple):
    """coeffs . x rel rhs, every entry an int or a Fraction (checked by its LinearSystem)."""

    coeffs: tuple[int | Fraction, ...]
    rel: str  # one of '<', '<=', '>', '>=', '='
    rhs: int | Fraction


# each relation as upper-form rows (sign, strict): sign*a.x < or <= sign*b
_UPPER = {"<": ((1, 1),), "<=": ((1, 0),), ">": ((-1, 1),), ">=": ((-1, 0),),
          "=": ((1, 0), (-1, 0))}


@dataclass(frozen=True)
class LinearSystem:
    """Rational linear constraints on the variables c_0, ..., c_{n-2}, and
    feasible's integer rows of them, which _upper_rows checks them to make."""

    num_vars: int
    constraints: tuple[Constraint, ...]
    int_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "int_rows", _upper_rows(self.num_vars, self.constraints))

    def to_json(self) -> list[dict]:
        return [{"coeffs": [_frac_str(c) for c in a], "rel": rel, "rhs": _frac_str(b)}
                for a, rel, b in self.constraints]


def _upper_rows(n: int, constraints) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """Each constraint, checked, as integer rows (a, b, strict): a.x < b if
    strict, else a.x <= b (an equality gives two).  A row of ints is taken
    as it is; any other must hold ints and Fractions only, and is scaled by
    the lcm of its denominators.  strict is that scale on a strict row, else
    0: as the coefficient of the margin t in feasible's LP it keeps the
    unscaled rows' pivots."""
    rows = []
    for i, (a, rel, b) in enumerate(constraints):
        if len(a) != n:
            raise ValueError(f"constraint {i} has {len(a)} coefficients, not {n}")
        if rel not in _UPPER:
            raise ValueError(f"unknown relation {rel!r}")
        scale = 1
        if not (isinstance(b, int) and all(map(isinstance, a, repeat(int)))):
            for v in (*a, b):
                if not isinstance(v, _EXACT):
                    raise ValueError(f"constraint entry {v!r} is not an int or a Fraction")
            scale = math.lcm(b.denominator, *(c.denominator for c in a))
            a = tuple(c.numerator * (scale // c.denominator) for c in a)
            b = b.numerator * (scale // b.denominator)
        for sg, st in _UPPER[rel]:
            rows.append((a, b, scale * st) if sg > 0 else
                        (tuple(map(operator.neg, a)), -b, scale * st))
    return tuple(rows)


def w1w2_system(g: Graph) -> LinearSystem:
    """The weight conditions on (c_0, c_1, ..., c_{n-2}), on their
    irredundant rows: 0 < c_j <= 1 for all j; c_0 + c_a + c_b > 1 per edge
    ab, by ascending bitmask; c_0 + sum_D c <= 1 per maximal non-tube D, by
    decreasing size and then ascending bitmask; the total (with c_M = 1)
    exceeding 2.  Variable 0 is c_0; variable i+1 carries graph vertex i.
    Every entry is an int, 0 or 1.

    Lemma.  These rows have the solutions of the full system, which has a
    row c_0 + sum_T c > 1 per nontrivial tube T and c_0 + sum_D c <= 1 per
    non-tube D.  Given c > 0, which the kept bounds impose:
    - a nontrivial tube T is connected on two or more vertices, so it holds
      an edge ab, and c_0 + sum_T c >= c_0 + c_a + c_b > 1;
    - adding to a non-tube, one vertex at a time, any vertex that leaves it
      a non-tube ends at a maximal non-tube D' holding it, and
      c_0 + sum_D c <= c_0 + sum_D' c <= 1.
    A non-tube D is maximal, contained in no other, exactly when D + v is
    connected for every v outside D.  Only if is plain.  If: D + v is
    connected only when v has a neighbour in every component of G[D], so
    in any set strictly above D each new vertex meets every component, and
    the set is connected.  A Motzkin certificate on these rows, padded with
    zeros, is one on the full system, and its points are the same.
    """
    n = g.num_vertices
    nv = n + 1

    def row(s):
        return (1, *(s >> v & 1 for v in range(n)))

    rows = []
    for j in range(nv):
        unit = (0,) * j + (1,) + (0,) * (n - j)
        rows.append(Constraint(unit, ">", 0))
        rows.append(Constraint(unit, "<=", 1))

    for b in range(n):  # edges a < b by ascending bitmask
        for a in bits_of(g.adj[b] & ((1 << b) - 1)):
            rows.append(Constraint(row(1 << a | 1 << b), ">", 1))

    comp = component_table(g)
    for size in range(n, 1, -1):
        for d in subsets_by_size(n, size):
            if comp[d] != d:
                for v in range(n):
                    e = d | 1 << v
                    if e != d and comp[e] != e:
                        break  # e is a non-tube above d
                else:
                    rows.append(Constraint(row(d), "<=", 1))

    rows.append(Constraint((1,) * nv, ">", 1))
    return LinearSystem(nv, tuple(rows))


# -- exact simplex with Motzkin certificates -------------------------------

_HOLDS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
          "=": operator.eq}


def _pivot(table, basis, nonbasic, r, c, d) -> int:
    """Exchange the basic variable of row r with the nonbasic one of column
    c; return the new common denominator.

    The integer tableau over d > 0 reads, row by row,
    basis[i] = (table[i][-1] - sum_j table[i][j] * nonbasic[j]) / d, with
    the objective row last.  Its entries are minors of the starting tableau
    (Edmonds), so each new entry (v*p - f*w) / d is exact, for v in a row
    whose pivot-column entry is f and w in the pivot row.  A negative pivot
    negates the whole tableau, which keeps the new denominator |p| positive.
    When |p| = d the entry is v - f*w/d, and d divides f*w since it divides
    v*d - f*w: a row changes only where f and w are both nonzero, so only
    those entries are rewritten.
    """
    prow = table[r]
    p, sign = abs(prow[c]), (1 if prow[c] > 0 else -1)
    prow[:] = [sign * v for v in prow]
    if p == d:
        nonzero = [(k, w) for k, w in enumerate(prow) if w and k != c]
        for row in table:
            f = row[c]
            if f and row is not prow:
                for k, w in nonzero:
                    row[k] -= f * w // d
                row[c] = -sign * f
    else:
        for row in table:
            f = row[c]
            if row is not prow:
                row[:] = [(v * p - f * w) // d for v, w in zip(row, prow)]
                row[c] = -sign * f
    prow[c] = sign * d
    basis[r], nonbasic[c] = nonbasic[c], basis[r]
    return p


def _is_motzkin_certificate(rows, y) -> bool:
    """Whether multipliers y >= 0 combine the rows (a, b, strict) into the
    contradiction 0 < 0 or 0 <= -c with c > 0.

    By Motzkin's transposition theorem such y exist iff the rows have no
    common solution: sum y_i a_i = 0, and sum y_i b_i < 0, or sum y_i b_i = 0
    with y_i > 0 on some strict row.
    """
    if any(v < 0 for v in y):
        return False
    combined = [sum(map(operator.mul, y, col)) for col in zip(*(a for a, _, _ in rows))]
    if any(combined):
        return False
    beta = sum(v * b for v, (_, b, _) in zip(y, rows))
    some_strict = any(v > 0 and strict for v, (_, _, strict) in zip(y, rows))
    return beta < 0 or (beta == 0 and some_strict)


def feasible(sys: LinearSystem) -> Optional[tuple[Fraction, ...]]:
    """One exact rational solution of the system, or None if infeasible.

    Solves the homogenised Motzkin LP by the simplex method with Bland's
    rule on an integer tableau over one common denominator (fraction-free
    pivoting): each row a.x <= b, scaled to integers, becomes
    a.x - b*s (+ t if strict) <= 0, with t <= s and t <= 1, and t is
    maximised over free x and s, t >= 0.  The all-zero point is feasible,
    so the free x_j are pivoted into the basis on rows with right-hand side
    0, which stays 0.  On a W1/W2 system each such pivot is -1 over d = 1
    on x_j's bound row -x_j + t <= 0, so _pivot's update for a pivot equal
    to d makes it the substitution x_j = t + slack, on the t column alone.
    The x_j never leave the basis, and their rows are never pivot rows, so
    those rows are set aside with the denominator d0 and the nonbasic
    variables of that moment, and Bland's pivots update the rest only; the
    pivots are the same either way.  The ratio test cross-multiplies and
    breaks ties by the smaller basic variable.
    If t* > 0, x/s solves the system: from a set-aside row a_j,
    x_j / s = -sum_k a_jk R_k / (d0 R_s), where R are the final right-hand
    sides (0 for a nonbasic variable), and a nonbasic x_j is 0.  The point
    is re-verified against every original constraint.  If t* = 0, the final
    objective row holds multipliers y >= 0 of the integer rows, checked as a
    Motzkin certificate of infeasibility before None is returned.  A failed
    check raises RuntimeError.
    """
    rows = sys.int_rows
    n, m = sys.num_vars, len(rows)
    # columns: x_j is j, s is n, t is n + 1, then the right-hand side;
    # the slack of tableau row i is variable n + 2 + i
    table = [list(a) + [-b, strict, 0] for a, b, strict in rows]
    table.append([0] * n + [-1, 1, 0])  # t - s <= 0
    table.append([0] * n + [0, 1, 1])  # t <= 1
    table.append([0] * n + [0, -1, 0])  # objective t
    basis = list(range(n + 2, n + 4 + m))
    nonbasic = list(range(n + 2))
    d = 1

    for c in range(n):
        r = next((i for i in range(m) if table[i][c] and basis[i] >= n), None)
        if r is not None:
            d = _pivot(table, basis, nonbasic, r, c, d)
    # the basic x_j never leave the basis: their rows are set aside
    free = [(v, row) for v, row in zip(basis, table) if v < n]
    d0, nonbasic0 = d, nonbasic[:]
    table = [row for v, row in zip(basis, table) if v >= n] + [table[-1]]
    basis = [v for v in basis if v >= n]

    while cols := [j for j in range(n + 2) if nonbasic[j] >= n and table[-1][j] < 0]:
        c = min(cols, key=lambda j: nonbasic[j])
        r = None
        for i in range(len(basis)):
            a = table[i][c]
            if a > 0 and (r is None or (
                    (table[i][-1] * table[r][c], basis[i]) < (table[r][-1] * a, basis[r]))):
                r = i
        if r is None:
            raise RuntimeError("internal error: unbounded simplex objective")
        d = _pivot(table, basis, nonbasic, r, c, d)

    if table[-1][-1] > 0:
        value = {v: row[-1] for v, row in zip(basis, table)}
        point = [Fraction(0)] * n
        for j, row in free:
            point[j] = Fraction(-sum(a * value.get(v, 0) for a, v in zip(row, nonbasic0)),
                                d0 * value[n])
        point = tuple(point)
        if not satisfies(sys, point):
            raise RuntimeError("internal error: simplex point fails re-verification")
        return point
    col = {v: j for j, v in enumerate(nonbasic)}
    y = [table[-1][col[v]] if v in col else 0 for v in range(n + 2, n + 2 + m)]
    if not _is_motzkin_certificate(rows, y):
        raise RuntimeError("internal error: simplex multipliers fail the Motzkin check")
    return None


def satisfies(sys: LinearSystem, point: tuple[int | Fraction, ...]) -> bool:
    """Whether the point meets every constraint, checked in integers: with
    q > 0 the lcm of the point's denominators, a.x rel b holds iff
    a.(qx) rel q*b.  Coordinates must be ints or Fractions."""
    if len(point) != sys.num_vars:
        raise ValueError(f"point has {len(point)} coordinates, not {sys.num_vars}")
    for x in point:
        if not isinstance(x, _EXACT):
            raise ValueError(f"point coordinate {x!r} is not an int or a Fraction")
    q = math.lcm(*(x.denominator for x in point))
    qx = [x.numerator * (q // x.denominator) for x in point]
    return all(_HOLDS[rel](sum(map(operator.mul, a, qx)), q * b) for a, rel, b in sys.constraints)
