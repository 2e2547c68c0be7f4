"""Acceptance gate: one test per acceptance criterion, each printing a
single PASS/FAIL line.

Criterion 6 corrects its stated value: the stated maximum of 2 components
for the weights (1, 1/2, (1+e)/2, e, e) is arithmetically wrong, because
five marks allow at most 3 components and the chain [M,2 | 3 | 0,1] is
stable (its component sums 2 + e, 2 + e and 1 + 1/2 + (1+e)/2 + 1 = 2 + e/2
all exceed 2), so the test asserts the proven maximum 3.
"""

import math
import random
from fractions import Fraction

from graphassoc import (
    EpsRational,
    bits_of,
    build_graph_fan,
    check_w1_w2,
    classify_iterated_cone,
    connected_graphs_up_to_iso,
    count_stable_trees,
    divisor_tube_correspondence,
    enumerate_stable_trees,
    f_vector,
    feasible,
    is_complete,
    is_smooth,
    is_valid,
    mark_of_vertex,
    nodal_divisors,
    obstruction_a,
    obstruction_b,
    parse_graph,
    parse_weight_vector,
    preservation_threshold,
    record_comparisons,
    remark_weights,
    verify_fan_tubing_bijection,
    w1w2_system,
)
from graphassoc.moduli import _labels
from oracles import canonical_form, degree, end_vertices, marks


def verdict(capsys, num, name, ok, detail=""):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line)


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def multipartite_no_cases(max_n):
    """Complete multipartite graphs with at least two parts of size >= 2,
    the exact shape excluded by the classification."""
    out = []

    def partitions(n, most):
        if n == 0:
            yield []
            return
        for p in range(min(n, most), 0, -1):
            for rest in partitions(n - p, p):
                yield [p] + rest

    for n in range(4, max_n + 1):
        for parts in partitions(n, n - 1):
            if sum(1 for p in parts if p >= 2) >= 2:
                out.append(parts)
    return out


def iterated_cones_up_to(max_n):
    for n in range(2, max_n + 1):
        for g in connected_graphs_up_to_iso(n):
            cs = classify_iterated_cone(g)
            if cs is not None:
                yield g, cs


def test_criterion_1_classification_table(capsys):
    yes = (
        [f"K{m}" for m in range(2, 8)]
        + [f"S{m}" for m in range(3, 9)]
        + ["cone^2(D2)"]
        + [
            f"cone^{l}(D{k})"
            for l in range(1, 7)
            for k in range(1, 8 - l)
        ]
    )
    ok = True
    for spec in yes:
        cs = classify_iterated_cone(parse_graph(spec))
        ok = ok and cs is not None
        if spec.startswith("K"):
            ok = ok and cs.k == 1
    no = (
        [f"P{m}" for m in range(4, 8)]
        + [f"C{m}" for m in range(4, 8)]
        + [f"Kb{a},{b}" for a in range(2, 6) for b in range(a, 8 - a)]
    )
    for spec in no:
        g = parse_graph(spec)
        ok = ok and classify_iterated_cone(g) is None
        wit = obstruction_a(g) or obstruction_b(g)
        ok = ok and wit is not None and wit.kind in ("A", "B")
    from graphassoc import complete_multipartite

    for parts in multipartite_no_cases(7):
        g = complete_multipartite(parts)
        ok = ok and classify_iterated_cone(g) is None
        wit = obstruction_a(g) or obstruction_b(g)
        ok = ok and wit is not None
    verdict(capsys, 1, "classification table with witnesses", ok)
    assert ok


def test_criterion_2_oracle_equivalence(capsys):
    discrepancies = []
    for n in range(3, 8):
        for g in connected_graphs_up_to_iso(n):
            cs = classify_iterated_cone(g)
            pt = feasible(w1w2_system(g))
            wit = obstruction_a(g) or obstruction_b(g)
            if (cs is not None) != (pt is not None) or (wit is not None) != (
                pt is None
            ):
                discrepancies.append(
                    {
                        "edges": g.edges(),
                        "classifier": cs is not None,
                        "feasible": pt is not None,
                        "obstructed": wit is not None,
                    }
                )
    verdict(
        capsys,
        2,
        "classifier / feasibility / obstruction equivalence on 3..7 vertices",
        not discrepancies,
        detail=f"{discrepancies!r}",
    )
    assert not discrepancies, discrepancies


def test_criterion_3_explicit_weights(capsys):
    ok = True
    for g, cs in iterated_cones_up_to(7):
        w = remark_weights(cs, g)
        ok = ok and is_valid(w).valid
        ok = ok and check_w1_w2(g, w, marks=mark_of_vertex(cs)).passed
    g = parse_graph("cone^2(D2)")
    w = remark_weights(classify_iterated_cone(g), g)
    ok = ok and str(w) == "(1, 1-3*eps, 4*eps, 4*eps, eps, eps)"
    verdict(capsys, 3, "explicit weights valid and printed vector exact", ok)
    assert ok


def test_criterion_4_fan_counts(capsys):
    ok = f_vector(build_graph_fan(parse_graph("P3"))) == (5, 5)
    ok = ok and f_vector(build_graph_fan(parse_graph("K3"))) == (6, 6)
    ok = ok and f_vector(build_graph_fan(parse_graph("K4"))) == (14, 36, 24)
    ok = ok and len(build_graph_fan(parse_graph("P4")).max_cones) == 14
    for m in range(2, 8):
        ok = ok and len(build_graph_fan(parse_graph(f"P{m}")).max_cones) == catalan(m)
    for m in range(2, 7):
        ok = ok and len(
            build_graph_fan(parse_graph(f"K{m}")).max_cones
        ) == math.factorial(m)
    verdict(capsys, 4, "fan f-vectors and maximal cone counts", ok)
    assert ok


def test_criterion_5_bijection_and_order_independence(capsys):
    ok = True
    for n in range(2, 7):
        for g in connected_graphs_up_to_iso(n):
            f = build_graph_fan(g)
            ok = ok and is_smooth(f) and is_complete(f)
            ok = ok and verify_fan_tubing_bijection(g, f).passed
            base = canonical_form(f)
            for seed in range(20):
                shuffled = build_graph_fan(g, rng=random.Random(seed))
                ok = ok and canonical_form(shuffled) == base
            if not ok:
                break
    verdict(
        capsys, 5, "fan-tubing bijection, smoothness, order independence", ok
    )
    assert ok


def component_sum(w, legs, nodes):
    """Mark weight plus node count of one component, summed by hand."""
    return sum((w.entries()[b] for b in bits_of(legs)), EpsRational(nodes))


def chain_from_m_end(tree):
    """Leg sets of a three-component chain, read from the end carrying M."""
    (mid,) = [v for v in range(3) if degree(tree, v) == 2]
    first, last = end_vertices(tree)
    if not tree.legs[first] & marks("M"):
        first, last = last, first
    return (tree.legs[first], tree.legs[mid], tree.legs[last])


def test_criterion_6_moduli_counts(capsys):
    lm = parse_weight_vector("1,1,e,e,e")
    trees = enumerate_stable_trees(lm, 3)
    three = [t for t in trees if t.num_vertices == 3]
    lm_ok = max(count_stable_trees(lm, 3), default=0) == 3 and len(three) == 6

    # The stated maximum for these weights is 2, but five marks allow up to
    # 3 components and two three-component chains are stable.  A leaf needs
    # mark weight > 1, so the leaves are {M,2}, {M,3} or {0,1}, and the
    # middle component needs a mark: the chains are [M,2 | 3 | 0,1] and
    # [M,3 | 2 | 0,1], with sums 2 + e, 2 + e and 2 + e/2.
    w2 = parse_weight_vector("1,1/2,(1+e)/2,e,e")
    observed = max(count_stable_trees(w2, 3), default=0)
    hand_chains = [
        (marks("M", 2), marks(3), marks(0, 1)),
        (marks("M", 3), marks(2), marks(0, 1)),
    ]
    hand_sums = [
        component_sum(w2, legs, nodes)
        for chain in hand_chains
        for legs, nodes in zip(chain, (1, 2, 1))
    ]
    chain_sums = [
        EpsRational(2, 1),
        EpsRational(2, 1),
        EpsRational(2, Fraction(1, 2)),
    ]
    hand_ok = hand_sums == chain_sums * 2 and all(
        x > EpsRational(2) for x in hand_sums
    )

    w2_trees = enumerate_stable_trees(w2, 3)
    w2_chains = [chain_from_m_end(t) for t in w2_trees if t.num_vertices == 3]
    enumerated_stable = all(
        component_sum(w2, t.legs[v], degree(t, v)) > EpsRational(2)
        for t in w2_trees
        for v in range(t.num_vertices)
    )
    w2_ok = (
        observed == 3
        and len(w2_chains) == 2
        and set(w2_chains) == set(hand_chains)
        and enumerated_stable
    )

    ok = lm_ok and hand_ok and w2_ok
    verdict(
        capsys,
        6,
        "stable-tree component counts (stated maximum 2 corrected to 3: "
        "chain [M,2 | 3 | 0,1] is stable)",
        ok,
        detail=(
            f"with (1, 1/2, (1+e)/2, e, e) the maximum is {observed} and the "
            "three-component chains are "
            f"{[list(map(_labels, c)) for c in w2_chains]}; expected 3 and "
            "exactly [M,2 | 3 | 0,1] and [M,3 | 2 | 0,1]"
        ),
    )
    assert lm_ok
    assert hand_ok, hand_sums
    assert observed == 3, (
        f"maximum components with (1, 1/2, (1+e)/2, e, e) is {observed}, not 3"
    )
    assert len(w2_chains) == 2, w2_chains
    assert set(w2_chains) == set(hand_chains), w2_chains
    assert enumerated_stable, "an enumerated tree has a component of sum <= 2"


def test_criterion_7_divisor_correspondence(capsys):
    ok = True
    for g, cs in iterated_cones_up_to(7):
        rep = divisor_tube_correspondence(g)
        ok = ok and rep.passed and rep.num_rays == rep.num_divisors + rep.k

    # six marks: the reduction from the two-full-marks space to the
    # cone^2(D2) weights contracts boundary divisors; among the lost nodal
    # classes exactly one (light side {0} plus both independent marks) is a
    # blown-down divisor class, matching the single extra ray of the
    # permutohedral fan over the cone^2(D2) fan
    lm6 = parse_weight_vector("1,1,e,e,e,e")
    g = parse_graph("cone^2(D2)")
    cs = classify_iterated_cone(g)
    v4 = remark_weights(cs, g)
    lost = set(nodal_divisors(lm6)) - set(nodal_divisors(v4))
    independent_marks = {
        mark_of_vertex(cs)[v] for v in range(4) if (cs.independent >> v) & 1
    }
    blown_down = [s for s in lost if s == marks(0, *independent_marks)]
    ray_gap = len(build_graph_fan(parse_graph("K4")).rays) - len(
        build_graph_fan(g).rays
    )
    ok = ok and len(lost) == 3 and len(blown_down) == 1 == ray_gap
    verdict(capsys, 7, "rays = nodal divisors + k, and the blowdown count", ok)
    assert ok


def test_criterion_8_eps_soundness(capsys):
    with record_comparisons() as rec:
        # weight validity and inequality checks (criteria 1 and 3)
        for g, cs in iterated_cones_up_to(6):
            w = remark_weights(cs, g)
            is_valid(w)
            check_w1_w2(g, w, marks=mark_of_vertex(cs))
        # tree enumeration (criterion 6)
        for text in ["1,1,e,e,e", "1,1/2,(1+e)/2,e,e"]:
            w = parse_weight_vector(text)
            enumerate_stable_trees(w, 3)
        # divisor sets (criterion 7)
        for spec in ["K4", "S5", "cone^2(D2)"]:
            g = parse_graph(spec)
            divisor_tube_correspondence(g)
        nodal_divisors(parse_weight_vector("1,1,e,e,e,e"))

    eps0 = preservation_threshold(rec.pairs)
    eps = eps0 / 2 if eps0 is not None else Fraction(1, 1000)
    ok = eps0 is None or eps0 > 0
    for x, y in rec.pairs:
        symbolic = x.compare(y)
        xv, yv = x.instantiate(eps), y.instantiate(eps)
        numeric = -1 if xv < yv else (1 if xv > yv else 0)
        if x.a == y.a and x.b == y.b:
            ok = ok and numeric == 0
        else:
            ok = ok and numeric == symbolic
        if not ok:
            break
    verdict(
        capsys,
        8,
        f"all {len(rec.pairs)} recorded comparisons survive eps = eps0/2",
        ok,
    )
    assert ok
