"""Weight vectors: explicit construction for iterated cones, validity,
and the tube/non-tube inequality checks."""

from fractions import Fraction

import pytest

from graphassoc import (
    EpsRational,
    WeightVector,
    check_w1_w2,
    classify_iterated_cone,
    connected_graphs_up_to_iso,
    count_stable_trees,
    is_valid,
    mark_of_vertex,
    parse_graph,
    parse_weight_vector,
    record_comparisons,
    remark_weights,
)
from oracles import check_w1_w2_per_subset


def lm_weights(n):
    """Two full marks and n-2 infinitesimal ones."""
    return WeightVector(
        n, EpsRational(1), EpsRational(1), tuple([EpsRational(0, 1)] * (n - 2))
    )


def test_weight_vector_shape():
    w = parse_weight_vector("1,1-3e,4e,4e,e,e")
    assert w.n == 6
    assert w.c_m == EpsRational(1)
    assert w.c0 == EpsRational(1, -3)
    assert w.c == (EpsRational(0, 4),) * 2 + (EpsRational(0, 1),) * 2
    # entries() in the bit order of a set of marks: M, then marks 0, 1, ...
    assert w.entries()[0] == EpsRational(1)
    assert w.entries()[1] == EpsRational(1, -3)
    assert w.entries()[3 + 1] == EpsRational(0, 1)
    assert w.total() == EpsRational(2, 7)
    with pytest.raises(ValueError):
        WeightVector(6, EpsRational(1), EpsRational(1), (EpsRational(1),))
    with pytest.raises(ValueError):
        parse_weight_vector("1,1")


def test_weight_vector_str_and_json():
    w = parse_weight_vector("1,1-3e,4e,e")
    assert str(w) == "(1, 1-3*eps, 4*eps, eps)"
    assert w.to_json() == [
        {"a": "1", "b": "0"},
        {"a": "1", "b": "-3"},
        {"a": "0", "b": "4"},
        {"a": "0", "b": "1"},
    ]


def test_remark_weights_printed_vector():
    g = parse_graph("cone^2(D2)")
    cs = classify_iterated_cone(g)
    w = remark_weights(cs, g)
    assert str(w) == "(1, 1-3*eps, 4*eps, 4*eps, eps, eps)"


def test_remark_weights_general_shape():
    g = parse_graph("cone(D4)")  # star with 4 independent vertices
    cs = classify_iterated_cone(g)
    w = remark_weights(cs, g)
    assert w.n == 7
    assert w.c_m == EpsRational(1)
    assert w.c0 == EpsRational(1, -5)  # 1 - (k+1) eps with k = 4
    assert w.c.count(EpsRational(0, 6)) == 1  # one cone point at (k+2) eps
    assert w.c.count(EpsRational(0, 1)) == 4


def test_remark_weights_mismatch():
    g = parse_graph("cone(D2)")
    cs = classify_iterated_cone(g)
    with pytest.raises(ValueError):
        remark_weights(cs, parse_graph("K4"))


def test_is_valid():
    assert is_valid(parse_weight_vector("1,1-3e,4e,4e,e,e")).valid
    rep = is_valid(parse_weight_vector("1,1,e"))  # total 2 + e > 2
    assert rep.valid
    rep = is_valid(parse_weight_vector("1,1-2e,e"))  # total 2 - e
    assert not rep.valid and any("total" in v for v in rep.violations)
    rep = is_valid(parse_weight_vector("1,2,1"))
    assert not rep.valid and any("not <= 1" in v for v in rep.violations)
    rep = is_valid(parse_weight_vector("1,-e,1,1"))
    assert not rep.valid and any("not > 0" in v for v in rep.violations)


def test_remark_weights_valid_for_all_small_cones():
    for spec in ["K2", "K5", "S6", "cone(D5)", "cone^3(D3)", "cone^2(D2)"]:
        g = parse_graph(spec)
        cs = classify_iterated_cone(g)
        assert is_valid(remark_weights(cs, g)).valid, spec


def test_check_w1_w2_passes_for_cones():
    for spec in ["K3", "K5", "S5", "cone^2(D2)", "cone(D4)", "cone^2(D3)"]:
        g = parse_graph(spec)
        cs = classify_iterated_cone(g)
        w = remark_weights(cs, g)
        rep = check_w1_w2(g, w, marks=mark_of_vertex(cs))
        assert rep.passed, (spec, rep)


def test_alternate_path_weights_same_sign_pattern():
    # two different weight vectors for the 3-path satisfy the same tube and
    # non-tube inequalities (mark 1 carries the middle vertex in both)
    g = parse_graph("P3")
    cs = classify_iterated_cone(g)
    marks = mark_of_vertex(cs)
    for text in ["1,1-3e,4e,e,e", "1,1/2,(1+e)/2,e,e"]:
        rep = check_w1_w2(g, parse_weight_vector(text), marks=marks)
        assert rep.passed, text


def test_lowered_third_weight_forbids_three_components():
    # dropping (1+e)/2 to (1-e)/2 makes every mark pair with mark 0 light,
    # so no curve with three components is stable
    w = parse_weight_vector("1,1/2,(1-e)/2,e,e")
    assert max(count_stable_trees(w, 3), default=0) == 2


def test_check_w1_w2_witnesses():
    # LM weights on P4 violate W2: marks 1 and 2 are both full, and the
    # disconnected pair {0, 2} then has weight above 1
    g = parse_graph("P4")
    rep = check_w1_w2(g, lm_weights(6))
    assert not rep.passed and rep.witness_kind == "W2"

    # all-infinitesimal interior weights violate W1 on every tube
    w = parse_weight_vector("1,e,e,e,e")
    rep = check_w1_w2(parse_graph("K3"), w)
    assert not rep.passed and rep.witness_kind == "W1"
    assert rep.violations > 0


def test_check_w1_w2_lets_a_non_tube_weigh_exactly_one():
    # W2 is c_0 + w(N) <= 1: on P3 with c_0 = 1/2 and the vertex weights
    # 1/4, 1, 1/4, the non-tube {0, 2} weighs 1/2 + 1/4 + 1/4 = 1 exactly,
    # and every tube of two or three vertices weighs more than 1
    rep = check_w1_w2(parse_graph("P3"), parse_weight_vector("1,1/2,1/4,1,1/4"))
    assert rep.passed and rep.violations == 0


def test_check_w1_w2_reports_first_witness_in_canonical_order():
    g = parse_graph("P4")
    rep = check_w1_w2(g, lm_weights(6))
    # first failing subset in decreasing size, ascending mask order:
    # the full set and {0,1,2} are tubes, so {0,1,3} fails first
    assert rep.witness == 0b1011


def test_check_w1_w2_length_mismatch():
    with pytest.raises(ValueError):
        check_w1_w2(parse_graph("K3"), lm_weights(6))


def test_mark_of_vertex_cone_first():
    cs = classify_iterated_cone(parse_graph("cone^2(D2)"))
    marks = mark_of_vertex(cs)
    # cone vertices (labels 2, 3) take marks 1, 2; base takes 3, 4
    assert marks == {2: 1, 3: 2, 0: 3, 1: 4}


@pytest.mark.parametrize("marks", [
    {2: 1, 3: 1, 0: 3, 1: 4},  # mark 2 twice, its weight never read
    {2: 0, 3: 1, 0: 2, 1: 3},  # mark 0 would read c[-1]
    {2: 1, 3: 2, 0: 3},  # vertex 1 has no mark
    {2: 1, 3: 2, 0: 3, 1: 4, 4: 5},  # vertex 4 is not in the graph
], ids=["repeated", "mark-0", "missing-vertex", "extra-vertex"])
def test_check_w1_w2_requires_marks_to_be_a_bijection(marks):
    g = parse_graph("cone^2(D2)")
    w = remark_weights(classify_iterated_cone(g), g)
    with pytest.raises(ValueError, match="one-to-one onto 1..4"):
        check_w1_w2(g, w, marks=marks)


def _weight_vectors(g):
    """The weights the doubling pass is compared on: the remark weights of
    an iterated cone (with its marks and with them reversed), Losev-Manin
    weights (W2 fails on every non-tube), all-infinitesimal ones (W1 fails
    on every tube) and a mixed vector that fails some of both."""
    n = g.num_vertices
    plain = {v: v + 1 for v in range(n)}
    out = [(lm_weights(n + 2), plain)]
    out.append((WeightVector(n + 2, EpsRational(1), EpsRational(0, 1),
                             (EpsRational(0, 1),) * n), plain))
    mixed = tuple(EpsRational(Fraction(v + 1, n + 2), -1) for v in range(n))
    out.append((WeightVector(n + 2, EpsRational(1), EpsRational(Fraction(1, 3)), mixed), plain))
    cs = classify_iterated_cone(g)
    if cs is not None:
        w, marks = remark_weights(cs, g), mark_of_vertex(cs)
        out += [(w, marks), (w, {v: n + 1 - m for v, m in marks.items()})]
    return out


def test_check_w1_w2_matches_the_per_subset_sums():
    """Same report and the same recorded comparisons, in order, as summing
    every subset afresh, on every connected graph with <= 6 vertices."""
    kinds = set()
    for n in range(1, 7):
        for g in connected_graphs_up_to_iso(n):
            for w, marks in _weight_vectors(g):
                with record_comparisons() as fast:
                    got = check_w1_w2(g, w, marks=marks)
                with record_comparisons() as slow:
                    want = check_w1_w2_per_subset(g, w, marks)
                assert got == want, (g.edges(), str(w), marks)
                assert fast.pairs == slow.pairs, (g.edges(), str(w), marks)
                kinds.add(got.witness_kind)
    assert kinds == {None, "W1", "W2"}
