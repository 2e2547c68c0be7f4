"""Hassett weight vectors over Q[eps]: construction for iterated cones,
validity, and the tube/non-tube inequality checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .epsrational import EpsRational, _frac_str, parse_eps_rational
from .graphs import ConeStructure, Graph, bits_of, component_table, subsets_by_size


@dataclass(frozen=True)
class WeightVector:
    """Weights (c_M, c_0, c_1, ..., c_{n-2}) for n marked points.

    c_M is the weight of the moving point, c_0 that of the torus identity,
    and c[j] that of mark p_{j+1}.  `entries()` lists them in the bit order
    of a set of marks: bit 0 is M and bit l + 1 is mark l.
    """

    n: int
    c_m: EpsRational
    c0: EpsRational
    c: tuple[EpsRational, ...]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least 3 marks")
        if len(self.c) != self.n - 2:
            raise ValueError(f"expected {self.n - 2} vertex weights, got {len(self.c)}")

    def entries(self) -> list[EpsRational]:
        return [self.c_m, self.c0, *self.c]

    def total(self) -> EpsRational:
        t = EpsRational(0)
        for e in self.entries():
            t = t + e
        return t

    def __str__(self):
        return "(" + ", ".join(str(e) for e in self.entries()) + ")"

    def to_json(self) -> list[dict]:
        return [
            {"a": _frac_str(e.a), "b": _frac_str(e.b)} for e in self.entries()
        ]


def parse_weight_vector(text: str) -> WeightVector:
    """Comma-separated EpsRational entries, e.g. '1,1-3e,4e,4e,e,e'."""
    parts = text.split(",")
    if len(parts) < 3:
        raise ValueError(f"weight vector needs at least 3 entries: {text!r}")
    vals = [parse_eps_rational(p) for p in parts]
    return WeightVector(len(vals), vals[0], vals[1], tuple(vals[2:]))


# -- construction (explicit weights for iterated cones) ---------------------


def mark_of_vertex(cs: ConeStructure) -> dict[int, int]:
    """Vertex -> mark index (1..n-2): cone vertices take the first marks.

    This matches the printed weight vectors for the named examples; it
    differs from label order by a permutation that preserves the cone and
    independent classes, hence by a graph automorphism.
    """
    marks = {}
    pos = 1
    for v in bits_of(cs.cone_vertices):
        marks[v] = pos
        pos += 1
    for v in bits_of(cs.independent):
        marks[v] = pos
        pos += 1
    return marks


def remark_weights(cs: ConeStructure, g: Graph) -> WeightVector:
    """The explicit Hassett weights of an iterated cone over a k-point
    discrete set: c_M = 1, c_0 = 1-(k+1)eps, cone points (k+2)eps,
    independent points eps."""
    if cs.k + cs.num_cone != g.num_vertices:
        raise ValueError("cone structure does not match the graph")
    k = cs.k
    n = g.num_vertices + 2
    c_cone = EpsRational(0, k + 2)
    c_ind = EpsRational(0, 1)
    c = [c_cone] * cs.num_cone + [c_ind] * k
    return WeightVector(n, EpsRational(1), EpsRational(1) - EpsRational(0, k + 1), tuple(c))


# -- predicates -------------------------------------------------------------


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    violations: tuple[str, ...]


def is_valid(w: WeightVector) -> ValidityReport:
    """Every entry in (0, 1] and total weight > 2, in the Q[eps] order."""
    violations = []
    labels = ["c_M", "c_0"] + [f"c_{i+1}" for i in range(len(w.c))]
    for label, e in zip(labels, w.entries()):
        if not (EpsRational(0) < e):
            violations.append(f"{label} = {e} is not > 0")
        if not (e <= EpsRational(1)):
            violations.append(f"{label} = {e} is not <= 1")
    if not (w.total() > EpsRational(2)):
        violations.append(f"total {w.total()} is not > 2")
    return ValidityReport(not violations, tuple(violations))


@dataclass(frozen=True)
class W1W2Report:
    passed: bool
    witness_kind: Optional[str] = None  # 'W1' or 'W2'
    witness: Optional[int] = None  # vertex bitmask
    violations: int = 0


def check_w1_w2(
    g: Graph, w: WeightVector, marks: Optional[dict[int, int]] = None
) -> W1W2Report:
    """Check c_0 + sum_T c > 1 for nontrivial tubes and <= 1 for non-tubes.

    By default vertex i carries weight c[i]; pass `marks` (vertex -> mark
    index, e.g. from mark_of_vertex) when the vector uses another mark
    assignment.  `marks` must map the graph's vertices one-to-one onto
    1..n-2, else ValueError.  One doubling pass weighs all subsets, each
    with one addition, and `graphs.component_table` gives their
    connectivity.  Subsets are then compared in canonical order (decreasing
    size, ascending bitmask), so `record_comparisons` sees the pairs of
    summing each one afresh; the report holds the first violation and the
    violation count.
    """
    nv = g.num_vertices
    if w.n != nv + 2:
        raise ValueError("weight vector length does not match the graph")
    if marks is None:
        marks = {v: v + 1 for v in range(nv)}
    if set(marks) != set(range(nv)) or set(marks.values()) != set(range(1, nv + 1)):
        raise ValueError(f"marks must map the vertices 0..{nv - 1} one-to-one onto 1..{nv}")
    sums = [w.c0]  # sums[s]: c_0 plus the weights of the vertices of s
    for v in range(nv):
        weight = w.c[marks[v] - 1]
        sums += [t + weight for t in sums]
    comp = component_table(g)
    first_kind = None
    first_set = None
    violations = 0
    one = EpsRational(1)
    for size in range(nv, 1, -1):
        for s in subsets_by_size(nv, size):
            ok, kind = (sums[s] > one, "W1") if comp[s] == s else (sums[s] <= one, "W2")
            if not ok:
                violations += 1
                if first_set is None:
                    first_kind, first_set = kind, s
    return W1W2Report(violations == 0, first_kind, first_set, violations)
