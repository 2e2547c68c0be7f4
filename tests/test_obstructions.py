"""Obstruction witnesses against brute-force oracles, the weight linear
system, and exact fraction-free simplex feasibility, whose every verdict is
checked: a point against the constraints, infeasibility by Motzkin
multipliers.  The points it returns on the yes-instances are pinned."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from graphassoc import (
    bits_of,
    connected_graphs_up_to_iso,
    classify_iterated_cone,
    feasible,
    from_edges,
    obstruction_a,
    obstruction_b,
    parse_graph,
    w1w2_system,
)
from graphassoc import obstructions
from graphassoc.graphs import induced_connected, subsets_by_size
from graphassoc.obstructions import Constraint, LinearSystem, ObstructionWitness, satisfies
from oracles import full_w1w2_system, mask_of, non_tubes, pivot_dense, reference_upper_rows


# -- obstruction A ------------------------------------------------------------


def bruteforce_obstruction_a(g):
    """Any non-tube containing a nontrivial tube, by direct subset scan."""
    n = g.num_vertices
    for d in range(1, 1 << n):
        if d.bit_count() < 3 or induced_connected(g, d):
            continue
        for size in range(2, d.bit_count()):
            for combo in itertools.combinations(bits_of(d), size):
                t = mask_of(combo)
                if induced_connected(g, t):
                    return t, d
    return None


def test_obstruction_a_examples():
    wit = obstruction_a(parse_graph("P4"))
    assert wit.kind == "A"
    assert bits_of(wit.tube) == [0, 1]
    assert bits_of(wit.non_tube) == [0, 1, 3]

    assert obstruction_a(parse_graph("K5")) is None
    assert obstruction_a(parse_graph("S6")) is None
    # C4 and Kb2,2 have no A witness (every non-tube is a pair)
    assert obstruction_a(parse_graph("C4")) is None
    assert obstruction_a(parse_graph("Kb2,2")) is None


def test_obstruction_a_matches_bruteforce():
    for n in range(2, 6):
        for g in connected_graphs_up_to_iso(n):
            fast = obstruction_a(g)
            slow = bruteforce_obstruction_a(g)
            assert (fast is None) == (slow is None), g.edges()
            if fast is not None:
                # the returned witness is itself valid
                assert induced_connected(g, fast.tube)
                assert not induced_connected(g, fast.non_tube)
                assert fast.tube & fast.non_tube == fast.tube


# -- obstruction B ------------------------------------------------------------


def partitions_into(blocks_ok, universe):
    """All partitions of the vertex list into blocks satisfying blocks_ok."""
    if not universe:
        yield []
        return
    head, rest = universe[0], universe[1:]
    for r in range(len(rest) + 1):
        for others in itertools.combinations(rest, r):
            block = mask_of((head,) + others)
            if not blocks_ok(block):
                continue
            remaining = [v for v in rest if v not in others]
            for tail in partitions_into(blocks_ok, remaining):
                yield [block] + tail


def bruteforce_obstruction_b(g):
    n = g.num_vertices
    for d in range(1, 1 << n):
        if d.bit_count() < 2:
            continue
        verts = bits_of(d)
        tube_parts = list(
            partitions_into(
                lambda b: b.bit_count() >= 2 and induced_connected(g, b), verts
            )
        )
        non_parts = list(
            partitions_into(
                lambda b: b.bit_count() >= 2 and not induced_connected(g, b), verts
            )
        )
        if not tube_parts or not non_parts:
            continue
        kmax = max(len(p) for p in tube_parts)
        kmin = min(len(p) for p in non_parts)
        if kmin <= kmax:
            return d
    return None


def test_obstruction_b_examples():
    wit = obstruction_b(parse_graph("C4"))
    assert wit.kind == "B"
    assert bits_of(wit.subset) == [0, 1, 2, 3]
    assert [bits_of(t) for t in wit.tube_partition] == [[0, 1], [2, 3]]
    assert [bits_of(t) for t in wit.nontube_partition] == [[0, 2], [1, 3]]

    wit = obstruction_b(parse_graph("Kb2,2"))
    assert wit.kind == "B"
    assert [bits_of(t) for t in wit.tube_partition] == [[0, 2], [1, 3]]
    assert [bits_of(t) for t in wit.nontube_partition] == [[0, 1], [2, 3]]

    assert obstruction_b(parse_graph("K4")) is None
    assert obstruction_b(parse_graph("S5")) is None

    # 2K2 and P4 (on 0-2-1-3) are the other witnesses on four vertices;
    # every other graph on four vertices has an isolated or dominating one
    wit = obstruction_b(from_edges(4, [(0, 1), (2, 3)]))
    assert [bits_of(t) for t in wit.tube_partition] == [[0, 1], [2, 3]]
    assert [bits_of(t) for t in wit.nontube_partition] == [[0, 1, 2, 3]]
    wit = obstruction_b(from_edges(4, [(0, 2), (2, 1), (1, 3)]))
    assert [bits_of(t) for t in wit.tube_partition] == [[0, 2], [1, 3]]
    assert [bits_of(t) for t in wit.nontube_partition] == [[0, 1], [2, 3]]
    for edges in ([], [(0, 1)], [(0, 1), (1, 2)], [(0, 1), (1, 2), (2, 0)],
                  [(0, 1), (0, 2), (0, 3)], [(0, 1), (1, 2), (2, 0), (2, 3)],
                  [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]):
        assert obstruction_b(from_edges(4, edges)) is None, edges


def test_obstruction_b_matches_bruteforce():
    for n in range(2, 6):
        for g in connected_graphs_up_to_iso(n):
            fast = obstruction_b(g)
            slow = bruteforce_obstruction_b(g)
            assert (fast is None) == (slow is None), g.edges()
            if fast is not None:
                # both partitions cover the subset with valid blocks
                assert sum(fast.tube_partition) == fast.subset
                assert sum(fast.nontube_partition) == fast.subset
                assert all(induced_connected(g, t) for t in fast.tube_partition)
                assert all(
                    not induced_connected(g, t) for t in fast.nontube_partition
                )
                assert len(fast.nontube_partition) <= len(fast.tube_partition)


def test_obstruction_b_witness_json():
    wit = obstruction_b(parse_graph("C4"))
    js = wit.to_json()
    assert js["kind"] == "B"
    assert js["subset"] == [0, 1, 2, 3]


def dp_obstruction_b(g):
    """First B witness over all subsets, as an oracle that does not rest
    on the 4-subset proof: about 3^n steps, so kept to small graphs.

    Dynamic program over submasks: kmax[S] is the largest number of blocks in
    a partition of S into nontrivial tubes (None if impossible), kmin[S] the
    smallest into non-tubes.  Blocks are forced to contain the lowest bit of
    the remaining mask, so each partition is generated once and greedy
    reconstruction yields the lexicographically first one.
    """
    n = g.num_vertices
    full = g.vertex_mask

    tube_ok = [False] * (full + 1)
    nontube_ok = [False] * (full + 1)
    for s in range(1, full + 1):
        if s.bit_count() >= 2:
            if induced_connected(g, s):
                tube_ok[s] = True
            else:
                nontube_ok[s] = True

    def solve(block_ok, best):
        """best = max or min; table[S] = optimal block count or None."""
        table = [None] * (full + 1)
        table[0] = 0
        for s in range(1, full + 1):
            low = s & -s
            opt = None
            # iterate submasks of s containing the lowest bit
            rest = s ^ low
            sub = rest
            while True:
                block = sub | low
                if block_ok[block] and table[s ^ block] is not None:
                    cand = 1 + table[s ^ block]
                    if opt is None or best(cand, opt) == cand:
                        opt = cand
                if sub == 0:
                    break
                sub = (sub - 1) & rest
            table[s] = opt
        return table

    kmax = solve(tube_ok, max)
    kmin = solve(nontube_ok, min)

    def reconstruct(s, table, block_ok):
        """Greedy: smallest-bitmask optimal block containing the lowest bit."""
        blocks = []
        while s:
            low = s & -s
            rest = s ^ low
            target = table[s]
            best_block = None
            # enumerate candidate blocks in ascending bitmask order
            subs = []
            sub = rest
            while True:
                subs.append(sub | low)
                if sub == 0:
                    break
                sub = (sub - 1) & rest
            for block in sorted(subs):
                if block_ok[block] and table[s ^ block] is not None \
                        and 1 + table[s ^ block] == target:
                    best_block = block
                    break
            blocks.append(best_block)
            s ^= best_block
        return tuple(blocks)

    for size in range(2, n + 1):
        for s in subsets_by_size(n, size):
            if kmax[s] is not None and kmin[s] is not None and kmin[s] <= kmax[s]:
                return ObstructionWitness(
                    kind="B",
                    subset=s,
                    tube_partition=reconstruct(s, kmax, tube_ok),
                    nontube_partition=reconstruct(s, kmin, nontube_ok),
                )
    return None


def subset_scan_obstruction_a(g):
    """First A witness over every connected subset, by size and then
    bitmask, as an oracle that does not rest on the edge proof."""
    n = g.num_vertices
    for size in range(2, n):
        for t in subsets_by_size(n, size):
            if not induced_connected(g, t):
                continue
            for v in range(n):
                bit = 1 << v
                if bit & t:
                    continue
                if g.adj[v] & t == 0:
                    return ObstructionWitness(kind="A", tube=t, non_tube=t | bit)
    return None


def test_witnesses_are_pinned():
    """SHA-256 of both first witnesses, each searched on its own, on the 995
    catalog graphs on 2..7 vertices, as the subset scan and the submask
    dynamic program gave them."""

    def js(witness):
        return None if witness is None else witness.to_json()

    rows = [[n, g.edges(), js(obstruction_a(g)), js(obstruction_b(g))]
            for n in range(2, 8) for g in connected_graphs_up_to_iso(n)]
    assert len(rows) == 995
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "54cd03019af00059d8f1c1c3ddee72c37e10dc400fccf08844f1a0933e3a18b3"


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=2, max_value=10), st.booleans(), st.data())
def test_scans_match_the_subset_oracles(n, dense, data):
    """Both scans return the oracles' witnesses on random graphs, connected
    or not, on up to 10 vertices.  Half are complements of sparse graphs,
    which often have no A witness, and some no B witness either."""
    pairs = list(itertools.combinations(range(n), 2))
    edges = set(data.draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    g = from_edges(n, set(pairs) - edges if dense else edges)
    assert obstruction_a(g) == subset_scan_obstruction_a(g)
    assert obstruction_b(g) == dp_obstruction_b(g)


# -- linear system ------------------------------------------------------------


def test_w1w2_system_shape():
    g = parse_graph("P3")
    sys_ = w1w2_system(g)
    assert sys_.num_vars == 4  # c_0 plus one variable per vertex
    rels = [c.rel for c in sys_.constraints]
    # 4 positivity, 4 unit bounds, 2 edges, 1 maximal non-tube, 1 validity row
    assert rels.count(">") == 4 + 2 + 1
    assert rels.count("<=") == 4 + 1
    assert len(sys_.constraints) == 12


def _subset_row(n, s):
    return (Fraction(1),) + tuple(Fraction(s >> v & 1) for v in range(n))


def _row_subset(con):
    return sum(1 << v for v, c in enumerate(con.coeffs[1:]) if c)


def test_w1w2_system_rows():
    g = parse_graph("P3")
    sys_ = w1w2_system(g)
    one, zero = Fraction(1), Fraction(0)
    # edges {0,1}, {1,2} and the total; c_0 is variable 0, vertex i is variable i+1
    assert [c.coeffs for c in sys_.constraints if c.rel == ">" and c.rhs == one] == [
        (one, one, one, zero), (one, zero, one, one), (one, one, one, one)]
    nontube_rows = [
        c for c in sys_.constraints if c.rel == "<=" and sum(c.coeffs) > 1
    ]
    assert len(nontube_rows) == 1
    assert nontube_rows[0].coeffs == (one, one, zero, one)

    # every row, in order: bounds, edges by ascending bitmask, the non-tubes
    # contained in no other, total weight
    for n in range(2, 6):
        for g in connected_graphs_up_to_iso(n):
            nv = n + 1
            unit = [tuple(Fraction(i == j) for i in range(nv)) for j in range(nv)]
            expected = [
                Constraint(u, rel, Fraction(rhs))
                for u in unit
                for rel, rhs in ((">", 0), ("<=", 1))
            ]
            edges = sorted(mask_of(e) for e in g.edges())
            expected += [Constraint(_subset_row(n, e), ">", one) for e in edges]
            nt = non_tubes(g)
            maximal = [d for d in nt if not any(d != d2 and d & d2 == d for d2 in nt)]
            expected += [Constraint(_subset_row(n, d), "<=", one) for d in maximal]
            expected.append(Constraint((one,) * nv, ">", one))
            assert list(w1w2_system(g).constraints) == expected, g.edges()


def _small_graphs():
    return [g for n in range(2, 7) for g in connected_graphs_up_to_iso(n)] + [
        parse_graph(f"D{n}") for n in range(2, 5)]


def test_w1w2_system_rows_are_the_irredundant_full_rows():
    """On every connected graph with <= 6 vertices and on D2-D4, the rows
    are a subsequence of the row-per-subset oracle, and each dropped row is
    implied, given c > 0, by a kept one: a dropped tube contains a kept
    edge, a dropped non-tube lies inside a kept non-tube."""
    for g in _small_graphs():
        kept = list(w1w2_system(g).constraints)
        full = list(full_w1w2_system(g).constraints)
        it = iter(full)
        assert all(row in it for row in kept), g.edges()  # a subsequence
        bounds = 2 * (g.num_vertices + 1)
        assert kept[:bounds] == full[:bounds] and kept[-1] == full[-1]
        kept_tubes = [_row_subset(c) for c in kept[bounds:-1] if c.rel == ">"]
        kept_non_tubes = [_row_subset(c) for c in kept[bounds:-1] if c.rel == "<="]
        assert all(t.bit_count() == 2 for t in kept_tubes)
        for row in full[bounds:-1]:
            if row in kept:
                continue
            s = _row_subset(row)
            if row.rel == ">":
                assert any(t & s == t for t in kept_tubes), (g.edges(), bits_of(s))
            else:
                assert any(d & s == s for d in kept_non_tubes), (g.edges(), bits_of(s))


def test_w1w2_system_is_as_feasible_as_the_full_rows():
    """Same verdict and same point on both systems, for every connected
    graph with <= 6 vertices and D2-D4."""
    for g in _small_graphs():
        assert feasible(w1w2_system(g)) == feasible(full_w1w2_system(g)), g.edges()


def test_w1w2_system_entries_are_ints():
    for spec in ["K2", "P4", "cone^2(D2)", "C5"]:
        for con in w1w2_system(parse_graph(spec)).constraints:
            assert all(type(v) is int and v in (0, 1) for v in (*con.coeffs, con.rhs)), con


# -- feasibility --------------------------------------------------------------


def F(*vals):
    return tuple(Fraction(v) for v in vals)


def test_feasible_simple_systems():
    # 0 < x <= 1 is feasible
    sys_ = LinearSystem(
        1, (Constraint(F(1), ">", Fraction(0)), Constraint(F(1), "<=", Fraction(1)))
    )
    pt = feasible(sys_)
    assert pt is not None and 0 < pt[0] <= 1

    # x > 0 and x <= 0 is not
    sys_ = LinearSystem(
        1, (Constraint(F(1), ">", Fraction(0)), Constraint(F(1), "<=", Fraction(0)))
    )
    assert feasible(sys_) is None

    # x >= 0 and x <= 0 pins x = 0
    sys_ = LinearSystem(
        1, (Constraint(F(1), ">=", Fraction(0)), Constraint(F(1), "<=", Fraction(0)))
    )
    assert feasible(sys_) == (Fraction(0),)

    # equality row
    sys_ = LinearSystem(
        2,
        (
            Constraint(F(1, 1), "=", Fraction(1)),
            Constraint(F(1, -1), ">", Fraction(0)),
            Constraint(F(0, 1), ">", Fraction(0)),
        ),
    )
    pt = feasible(sys_)
    assert pt is not None and pt[0] + pt[1] == 1 and pt[0] > pt[1] > 0

    # strict open interval with empty interior
    sys_ = LinearSystem(
        1, (Constraint(F(1), ">", Fraction(1)), Constraint(F(1), "<", Fraction(1)))
    )
    assert feasible(sys_) is None

    # an all-zero row with an unsatisfiable right-hand side: 0 <= -3
    sys_ = LinearSystem(1, (Constraint(F(0), "<=", Fraction(-3)),))
    assert feasible(sys_) is None


def test_feasible_unbounded_directions():
    sys_ = LinearSystem(2, (Constraint(F(1, -1), ">", Fraction(3)),))
    pt = feasible(sys_)
    assert pt is not None and pt[0] - pt[1] > 3


def test_feasible_returns_verified_point():
    for spec in ["K2", "P3", "K4", "S5", "cone^2(D2)"]:
        g = parse_graph(spec)
        sys_ = w1w2_system(g)
        pt = feasible(sys_)
        assert pt is not None
        assert satisfies(sys_, pt)


def test_feasible_rejects_obstructed_graphs():
    for spec in ["P4", "C4", "C5", "Kb2,2", "Kb2,3", "P6"]:
        assert feasible(w1w2_system(parse_graph(spec))) is None, spec


def test_feasible_has_no_variable_cap():
    sys_ = LinearSystem(13, (Constraint(tuple([Fraction(1)] * 13), ">", Fraction(0)),))
    pt = feasible(sys_)
    assert pt is not None and satisfies(sys_, pt)


@settings(deadline=None, max_examples=300)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_feasible_random_small_systems_never_raise(num_vars, data):
    """Every verdict on a random small system passes its own check: a point
    by satisfies, None by the Motzkin multipliers (feasible raises
    RuntimeError otherwise).  About one system in seven has an all-zero row."""
    coeffs = st.tuples(*[st.integers(-2, 2).map(Fraction)] * num_vars)
    rows = data.draw(
        st.lists(
            st.builds(
                Constraint,
                coeffs,
                st.sampled_from(RELATIONS),
                st.integers(-2, 2).map(Fraction),
            ),
            min_size=1,
            max_size=6,
        )
    )
    sys_ = LinearSystem(num_vars, tuple(rows))
    pt = feasible(sys_)
    assert pt is None or satisfies(sys_, pt)


RELATIONS = ["<", "<=", ">", ">=", "="]


@settings(deadline=None, max_examples=300)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_feasible_random_fractional_systems_never_raise(num_vars, data):
    """As above, with fractional coefficients over a denominator of 1..4
    drawn per row and right-hand sides over their own 1..4, so that rows are
    scaled to integers by different factors.  The verdict must match that
    on the same rows multiplied by 12 by hand."""

    def row(den):
        coeffs = st.tuples(*[st.integers(-4, 4).map(lambda k: Fraction(k, den))] * num_vars)
        rhs = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
        return st.builds(Constraint, coeffs, st.sampled_from(RELATIONS), rhs)

    rows = data.draw(st.lists(st.integers(1, 4).flatmap(row), min_size=1, max_size=6))
    sys_ = LinearSystem(num_vars, tuple(rows))
    pt = feasible(sys_)
    assert pt is None or satisfies(sys_, pt)
    whole = tuple(Constraint(tuple(12 * c for c in r.coeffs), r.rel, 12 * r.rhs) for r in rows)
    assert (feasible(LinearSystem(num_vars, whole)) is None) == (pt is None)


def test_feasible_negative_first_pivot(monkeypatch):
    """-2x + 3y <= 1 is the first row eligible for x, so the first
    free-variable pivot is -2 and the integer tableau is negated; the next
    pivot, on y, is -5 over the denominator 2."""
    pivots = []
    pivot = obstructions._pivot

    def spy(table, basis, nonbasic, r, c, d):
        pivots.append(table[r][c])
        return pivot(table, basis, nonbasic, r, c, d)

    monkeypatch.setattr(obstructions, "_pivot", spy)
    rows = (Constraint(F(-2, 3), "<=", Fraction(1)), Constraint(F(1, 1), ">", Fraction(2)))
    sys_ = LinearSystem(2, rows + (Constraint(F(1, -1), ">=", Fraction(1, 2)),))
    assert feasible(sys_) == (Fraction(7, 4), Fraction(5, 4))
    assert pivots[:2] == [-2, -5]
    pivots.clear()
    # x < -1 forces y > 3 and -2x + 3y > 11
    sys_ = LinearSystem(2, rows + (Constraint(F(1, 0), "<", Fraction(-1)),))
    assert feasible(sys_) is None
    assert pivots[:2] == [-2, -5]


def test_feasible_keeps_the_fraction_simplex_points():
    """Rows are scaled to integers with the margin t scaled alike, so the
    points are those of the same simplex over Fraction on the unscaled rows
    (unscaled, t's coefficient would give (0, 1/3) and 1/4 instead); ties in
    the ratio test go to the smaller basic variable (the larger would give
    (3/2, -1) on the last system)."""
    sys_ = LinearSystem(2, (Constraint(F(0, -3), ">", Fraction(-3, 2)),))
    assert feasible(sys_) == (Fraction(0), Fraction(1, 6))
    rows = (
        Constraint((Fraction(1, 3),), ">", Fraction(-3, 4)),
        Constraint(F(1), ">=", Fraction(1, 4)),
        Constraint(F(-4), "<=", Fraction(-1)),
    )
    assert feasible(LinearSystem(1, rows)) == (Fraction(3, 4),)
    rows = (
        Constraint(F(-2, -2), "<=", Fraction(-1)),
        Constraint(F(2, 1), "<=", Fraction(2)),
        Constraint(F(-1, -2), ">", Fraction(-2)),
    )
    assert feasible(LinearSystem(2, rows)) == (Fraction(1), Fraction(0))


@pytest.mark.parametrize("num_vars, rows", [
    (1, (Constraint(F(1, 1), ">", Fraction(1)),)),
    (1, (Constraint(F(1, -1), ">", Fraction(1)), Constraint(F(1), "<", Fraction(0)))),
    (2, (Constraint(F(1), ">", Fraction(1)), Constraint(F(1, 1), "<", Fraction(3)))),
    (1, (Constraint(F(0, 1), ">", Fraction(1)),)),
], ids=["one-var-two-coeffs", "then-a-good-row", "two-vars-one-coeff", "zero-padded"])
def test_row_of_the_wrong_length_raises_value_error(num_vars, rows):
    # feasible raised an internal error or ZeroDivisionError on these, and
    # satisfies truncated the row to the point's length
    with pytest.raises(ValueError, match=f"constraint 0 has {len(rows[0].coeffs)} "
                                         f"coefficients, not {num_vars}"):
        LinearSystem(num_vars, rows)


def test_point_of_the_wrong_length_raises_value_error():
    # zip truncated the point or the row, so (2,) passed x + y > 1
    sys_ = LinearSystem(2, (Constraint(F(1, 1), ">", Fraction(1)),))
    for point in (F(2), F(1, 1, -5)):
        with pytest.raises(ValueError, match=f"point has {len(point)} coordinates, not 2"):
            satisfies(sys_, point)


@pytest.mark.parametrize("coeffs, rhs, bad", [
    ((0.5,), Fraction(1), "0.5"),
    ((Fraction(1), "1"), Fraction(1), "'1'"),
    ((Fraction(1),), 1.0, "1.0"),
    ((Fraction(1),), "2", "'2'"),
], ids=["float-coefficient", "str-coefficient", "float-rhs", "str-rhs"])
def test_inexact_constraint_entry_raises_value_error(coeffs, rhs, bad):
    # a float coefficient made feasible raise AttributeError, and satisfies
    # answered in floats
    with pytest.raises(ValueError, match=f"constraint entry {bad} is not an int or a Fraction"):
        LinearSystem(len(coeffs), (Constraint(coeffs, "<", rhs),))


def test_inexact_point_raises_value_error():
    # 0.5 x < 1 held at x = 1.0, compared in floats
    sys_ = LinearSystem(1, (Constraint((Fraction(1, 2),), "<", Fraction(1)),))
    assert satisfies(sys_, (1,)) and satisfies(sys_, F(1))
    for point, bad in (((1.0,), "1.0"), (("1",), "'1'")):
        with pytest.raises(ValueError, match=f"point coordinate {bad} is not an int or a Fraction"):
            satisfies(sys_, point)


def test_int_and_fraction_rows_are_one_system():
    rows = [(F(2, 3), "=", 7), (F(3, -1), ">", 1), (F(1, 1), "<=", 3)]
    exact = LinearSystem(2, tuple(Constraint(a, rel, Fraction(b)) for a, rel, b in rows))
    ints = LinearSystem(2, tuple(Constraint(tuple(map(int, a)), rel, b) for a, rel, b in rows))
    assert exact == ints
    assert feasible(exact) == feasible(ints) == F(2, 1)
    assert satisfies(ints, (2, 1)) and not satisfies(ints, F(1, 1))


# Points and pivots (pivot entry, denominator before it) of general
# systems, as the simplex read them before the free variables' rows were
# set aside: the set-aside rows must give the same pivots and points.
PINNED_SYSTEMS = [
    # 2x + 3y = 7, 3x - y > 1, x + y <= 3: free-phase pivots 2 and 11, so d0 = 11
    (2, [(F(2, 3), "=", Fraction(7)), (F(3, -1), ">", Fraction(1)), (F(1, 1), "<=", Fraction(3))],
     F(2, 1), [(2, 1), (11, 2), (1, 11), (3, 1), (1, 3)]),
    # x > 0, (2/3)x + 5z < 4, z >= 1/2 over (x, y, z): y never enters the basis
    (3, [(F(1, 0, 0), ">", Fraction(0)), ((Fraction(2, 3), 0, 5), "<", Fraction(4)),
         (F(0, 0, 1), ">=", Fraction(1, 2))],
     (Fraction(9, 10), 0, Fraction(1, 2)), [(-1, 1), (15, 1), (10, 15), (9, 10)]),
    # x > 0 over (x, y)
    (2, [(F(1, 0), ">", Fraction(0))], F(1, 0), [(-1, 1), (1, 1), (1, 1)]),
]


@pytest.mark.parametrize("num_vars, rows, point, pivots", PINNED_SYSTEMS,
                         ids=["equality-d0-11", "column-never-enters", "one-of-two"])
def test_feasible_pinned_general_systems(monkeypatch, num_vars, rows, point, pivots):
    seen = []
    pivot = obstructions._pivot

    def spy(table, basis, nonbasic, r, c, d):
        seen.append((table[r][c], d))
        return pivot(table, basis, nonbasic, r, c, d)

    monkeypatch.setattr(obstructions, "_pivot", spy)
    sys_ = LinearSystem(num_vars, tuple(Constraint(*row) for row in rows))
    assert feasible(sys_) == point
    assert seen == pivots


def test_pivot_matches_the_dense_update():
    """Chains of random nonzero pivots on random integer tableaux, from
    d = 1 so that every division is exact: after each pivot the tableau,
    basis, nonbasic and new denominator equal the dense update's.  A pivot
    of absolute value d is picked when the tableau has one, half of the
    time, so that the sparse update meets every case."""
    rng = random.Random(2514)
    seen = set()
    for _ in range(200):
        rows, cols = rng.randint(2, 6), rng.randint(2, 6)
        table = [[rng.choice((0, 0, 0, 1, -1, 2, -2, 3)) for _ in range(cols + 1)]
                 for _ in range(rows)]
        basis, nonbasic, d = list(range(cols, cols + rows)), list(range(cols)), 1
        for _ in range(6):
            entries = [(r, c) for r in range(rows) for c in range(cols) if table[r][c]]
            if not entries:
                break
            at_d = [(r, c) for r, c in entries if abs(table[r][c]) == d]
            r, c = rng.choice(at_d if at_d and rng.random() < 0.5 else entries)
            p = table[r][c]
            seen.add("p = d = 1" if abs(p) == d == 1 else "p = d > 1" if abs(p) == d else "p != d")
            if p < 0:
                seen.add("negative pivot")
            if any(row[c] == 0 for i, row in enumerate(table) if i != r):
                seen.add("row with f = 0")
            want = ([row[:] for row in table], basis[:], nonbasic[:])
            want_d = pivot_dense(*want, r, c, d)
            d = obstructions._pivot(table, basis, nonbasic, r, c, d)
            assert (table, basis, nonbasic, d) == (*want, want_d)
    assert seen == {"p = d = 1", "p = d > 1", "p != d", "negative pivot", "row with f = 0"}


def _pivots_and_point(monkeypatch, pivot, sys_):
    seen = []

    def spy(table, basis, nonbasic, r, c, d):
        seen.append((r, c, d))
        return pivot(table, basis, nonbasic, r, c, d)

    monkeypatch.setattr(obstructions, "_pivot", spy)
    return seen, feasible(sys_)


def test_feasible_matches_the_dense_pivot(monkeypatch):
    """The same pivots (r, c, d) and the same point or None with the dense
    update, on the W1/W2 systems of the connected graphs on up to 6
    vertices and of D2-D4, and on the pinned general systems."""
    systems = [w1w2_system(g) for n in range(2, 7) for g in connected_graphs_up_to_iso(n)]
    systems += [w1w2_system(parse_graph(f"D{k}")) for k in (2, 3, 4)]
    systems += [LinearSystem(num_vars, tuple(Constraint(*row) for row in rows))
                for num_vars, rows, _, _ in PINNED_SYSTEMS]
    sparse = obstructions._pivot
    for sys_ in systems:
        assert _pivots_and_point(monkeypatch, sparse, sys_) == \
            _pivots_and_point(monkeypatch, pivot_dense, sys_)
    # the path 3-0-1-2, the catalog's second graph on 4 vertices: a Bland
    # pivot of 2 over d = 2, at row 7 and column 2, covers exact division
    # above d = 1
    path = connected_graphs_up_to_iso(4)[1]
    assert path.edges() == [(0, 1), (0, 3), (1, 2)]
    seen, point = _pivots_and_point(monkeypatch, sparse, w1w2_system(path))
    assert point is None and (7, 2, 2) in seen


def test_free_phase_pivots_are_unit_pivots(monkeypatch):
    """On the W1/W2 system of each connected graph on up to 6 vertices,
    every free-phase pivot, x_j entering, is -1 or 1 over d = 1, and the
    pivot row's only other nonzero is the margin t's: the sparse update
    for a pivot equal to d is what the free phase runs."""
    pivot = obstructions._pivot
    for n in range(2, 7):
        for g in connected_graphs_up_to_iso(n):
            sys_ = w1w2_system(g)
            free = []

            def spy(table, basis, nonbasic, r, c, d):
                if nonbasic[c] < sys_.num_vars:
                    others = [k for k, v in enumerate(table[r]) if v and k != c]
                    free.append((abs(table[r][c]), d, others))
                return pivot(table, basis, nonbasic, r, c, d)

            monkeypatch.setattr(obstructions, "_pivot", spy)
            feasible(sys_)
            t = sys_.num_vars + 1
            assert free == [(1, 1, [t])] * sys_.num_vars, g.edges()


def test_unknown_relation_raises_value_error():
    rows = (Constraint(F(1), ">", Fraction(0)), Constraint(F(1), "!=", Fraction(0)))
    with pytest.raises(ValueError, match="unknown relation '!='"):
        LinearSystem(1, rows)


def test_int_rows_match_the_reference_on_random_systems():
    """The rows a system makes as it is checked equal, in order, those the
    reference makes from its constraints afterwards: 400 seeded systems of
    1-4 variables and 1-6 rows, over all five relations, with int-only
    rows and rows holding Fractions (over denominators of 1-6, or ints with
    a Fraction right-hand side), and negative and zero entries."""
    rng = random.Random(2914)
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice(("ints", "fractions", "int coefficients"))
            den = rng.randint(1, 6)

            def entry():
                k = rng.randint(-5, 5)
                return k if kind != "fractions" else Fraction(k, rng.choice((1, den)))

            coeffs = tuple(entry() for _ in range(n))
            rhs = entry() if kind == "ints" else Fraction(rng.randint(-5, 5), den)
            rel = rng.choice(RELATIONS)
            rows.append(Constraint(coeffs, rel, rhs))
            seen.update((kind, rel))
            seen.update("negative" if v < 0 else "zero" if v == 0 else "positive"
                        for v in (*coeffs, rhs))
        sys_ = LinearSystem(n, tuple(rows))
        assert sys_.int_rows == tuple(reference_upper_rows(sys_))
        assert all(type(v) is int for a, b, strict in sys_.int_rows for v in (*a, b, strict))
    assert seen == {"ints", "fractions", "int coefficients", *RELATIONS,
                    "negative", "zero", "positive"}


@pytest.mark.parametrize("spec", ["P4", "C5", "K5", "S6", "cone^2(D3)"])
def test_one_row_conversion_per_system(monkeypatch, spec):
    # verify's calls and the benchmark's oracle calls (w1w2_system, then
    # feasible and its point checked) turn the system's constraints into
    # integer rows once: feasible reads the rows the system made
    from graphassoc import cli

    made = []
    upper_rows = obstructions._upper_rows

    def spy(n, constraints):
        made.append(len(constraints))
        return upper_rows(n, constraints)

    monkeypatch.setattr(obstructions, "_upper_rows", spy)
    g = parse_graph(spec)
    assert cli._verify_one(g)["ok"]
    assert len(made) == 1
    system = w1w2_system(g)
    point = feasible(system)
    assert point is None or satisfies(system, point)
    assert made == [len(system.constraints)] * 2


# The point feasible returns for every yes-instance on 3..6 vertices (in the
# catalog's labelling) and for K7 and S7, as read off the Fraction simplex
# it replaced; the integer pivots are the same, so the points must be too.
# The last four, the other 7-vertex yes-instances in the catalog's
# labelling, were read off the simplex on the system with a row for every
# subset; its rows without the implied ones must give the same points.
PINNED_POINTS = [
    (3, [(0, 1), (0, 2)], "1/3 2/3 1/3 1/3"),
    (3, "K3", "1 1 1 1"),
    (4, [(0, 3), (1, 3), (2, 3)], "1/4 1/4 1/4 1/4 3/4"),
    (4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)], "1/3 2/3 1/3 2/3 1/3"),
    (4, "K4", "1 1 1 1 1"),
    (5, [(0, 4), (1, 4), (2, 4), (3, 4)], "1/5 1/5 1/5 1/5 1/5 4/5"),
    (5, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], "1/4 1/4 1/4 1/4 3/4 3/4"),
    (5, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
     "1/3 1/3 2/3 1/3 2/3 2/3"),
    (5, "K5", "1 1 1 1 1 1"),
    (6, [(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)], "1/6 1/6 1/6 1/6 1/6 1/6 5/6"),
    (6, [(0, 4), (0, 5), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)],
     "1/5 1/5 1/5 1/5 1/5 4/5 4/5"),
    (6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3),
         (2, 4), (2, 5)], "1/4 3/4 3/4 3/4 1/4 1/4 1/4"),
    (6, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4),
         (2, 5), (3, 4), (3, 5), (4, 5)], "1/3 1/3 2/3 2/3 1/3 2/3 2/3"),
    (6, "K6", "1 1 1 1 1 1 1"),
    (7, "K7", "1 1 1 1 1 1 1 1"),
    (7, "S7", "1/7 6/7 1/7 1/7 1/7 1/7 1/7 1/7"),
    (7, [(0, 5), (0, 6), (1, 5), (1, 6), (2, 5), (2, 6), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)],
     "1/6 1/6 1/6 1/6 1/6 1/6 5/6 5/6"),
    (7, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5),
         (3, 6), (4, 5), (4, 6), (5, 6)], "1/5 1/5 1/5 1/5 4/5 4/5 4/5 1/5"),
    (7, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
         (2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6)], "1/4 3/4 3/4 3/4 3/4 1/4 1/4 1/4"),
    (7, [(0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3),
         (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)],
     "1/3 1/3 2/3 2/3 2/3 1/3 2/3 2/3"),
]


def _pinned_graph(n, edges):
    return parse_graph(edges) if isinstance(edges, str) else from_edges(n, edges)


@pytest.mark.parametrize("n, edges, point", PINNED_POINTS)
def test_feasible_pinned_points(n, edges, point):
    assert feasible(w1w2_system(_pinned_graph(n, edges))) == tuple(map(Fraction, point.split()))


def test_pinned_points_cover_every_small_yes_instance():
    """On 3..6 vertices the pins are the catalog's yes-instances, in its
    order and labelling; on 7 they match them up to isomorphism, as K7 and
    S7 are pinned in their named labelling."""
    yes = [g for n in range(3, 8) for g in connected_graphs_up_to_iso(n)
           if feasible(w1w2_system(g)) is not None]
    pinned = [_pinned_graph(n, e) for n, e, _ in PINNED_POINTS]
    assert [g.edges() for g in yes if g.num_vertices < 7] == \
        [g.edges() for g in pinned if g.num_vertices < 7]

    def nx_graph(g):
        h = nx.empty_graph(g.num_vertices)
        h.add_edges_from(g.edges())
        return h

    yes7 = [nx_graph(g) for g in yes if g.num_vertices == 7]
    pinned7 = [nx_graph(g) for g in pinned if g.num_vertices == 7]
    assert len(yes7) == len(pinned7) == 6
    for h in yes7:
        assert sum(nx.is_isomorphic(h, p) for p in pinned7) == 1, list(h.edges())


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=2, max_value=5), st.data())
def test_random_graph_oracle_agreement(n, data):
    """Feasibility of the weight system agrees with the structural
    classifier and with the obstruction search on random connected graphs."""
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=n * 2,
        )
    )
    # force connectivity with a spanning path
    g = from_edges(n, edges + [(i, i + 1) for i in range(n - 1)])
    cs = classify_iterated_cone(g)
    pt = feasible(w1w2_system(g))
    wit = obstruction_a(g) or obstruction_b(g)
    assert (cs is not None) == (pt is not None)
    assert (wit is not None) == (pt is None)
