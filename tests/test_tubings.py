"""Tubing compatibility and enumeration, with counting oracles and the
fan bijection check."""

import dataclasses
import math
from itertools import combinations

import pytest

from graphassoc import (
    Ray,
    build_graph_fan,
    compatible,
    connected_graphs_up_to_iso,
    enumerate_tubings,
    f_vector,
    parse_graph,
    proper_tubes,
    ray_for_tube,
    verify_fan_tubing_bijection,
)
from graphassoc.graphs import GraphError, from_edges
from graphassoc.tubings import tubing_to_json


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def test_compatible_rules():
    g = parse_graph("P4")
    # nested
    assert compatible(g, 0b0011, 0b0111)
    # disjoint with disconnected union
    assert compatible(g, 0b0001, 0b0100)
    # disjoint but adjacent: union is a tube, incompatible
    assert not compatible(g, 0b0011, 0b0100)
    # properly overlapping
    assert not compatible(g, 0b0011, 0b0110)


def test_compatible_rejects_bad_input():
    g = parse_graph("P4")
    with pytest.raises(GraphError):
        compatible(g, 0b0101, 0b0011)  # non-tube
    with pytest.raises(GraphError):
        compatible(g, 0b1111, 0b0001)  # full set is not proper


def test_disjoint_cover_of_disconnected_union():
    # two tubes whose disjoint union is all of V(G) and disconnected: in a
    # 4-cycle opposite vertices leave a disconnected rest
    g = parse_graph("C4")
    assert compatible(g, 0b0001, 0b0100)
    # adjacent singletons in the cycle stay incompatible
    assert not compatible(g, 0b0001, 0b0010)


def test_proper_tubes():
    g = parse_graph("P3")
    assert proper_tubes(g) == [0b011, 0b110, 0b001, 0b010, 0b100]
    assert proper_tubes(parse_graph("K1")) == []


def test_enumerate_tubings_sizes():
    g = parse_graph("P3")
    assert enumerate_tubings(g, 0) == [()]
    assert len(enumerate_tubings(g, 1)) == 5
    # pentagon: 5 maximal tubings
    assert len(enumerate_tubings(g, 2)) == 5
    with pytest.raises(GraphError):
        enumerate_tubings(g, 3)


def test_maximal_tubings_of_paths_count_catalan():
    for m in range(2, 7):
        g = parse_graph(f"P{m}")
        assert len(enumerate_tubings(g, m - 1)) == catalan(m), m


def test_maximal_tubings_of_complete_graphs_count_factorial():
    for m in range(2, 6):
        g = parse_graph(f"K{m}")
        assert len(enumerate_tubings(g, m - 1)) == math.factorial(m), m


def test_enumerate_tubings_matches_brute_force():
    # every j-subset of the proper tubes, in lexicographic order of tube
    # indices, kept when its tubes are pairwise compatible
    for n in range(2, 6):
        for g in connected_graphs_up_to_iso(n):
            all_tubes = sorted(proper_tubes(g))
            ok = {(a, b): compatible(g, a, b) for a, b in combinations(all_tubes, 2)}
            for j in range(n):
                brute = [
                    tubing
                    for tubing in combinations(all_tubes, j)
                    if all(ok[p] for p in combinations(tubing, 2))
                ]
                assert enumerate_tubings(g, j) == brute, (g.edges(), j)


def test_tubings_are_pairwise_compatible():
    g = parse_graph("C5")
    for tubing in enumerate_tubings(g, 3):
        for i, t1 in enumerate(tubing):
            for t2 in tubing[i + 1:]:
                assert compatible(g, t1, t2)


def test_bijection_on_named_graphs():
    for spec in ["P3", "K3", "P4", "K4", "C5", "S5", "cone^2(D2)"]:
        rep = verify_fan_tubing_bijection(parse_graph(spec))
        assert rep.passed, (spec, rep.failure)


def test_bijection_counts_match_f_vector():
    g = parse_graph("P4")
    rep = verify_fan_tubing_bijection(g)
    assert rep.counts == f_vector(build_graph_fan(g))


def test_bijection_small_sweep():
    for n in range(2, 7):
        for g in connected_graphs_up_to_iso(n):
            f = build_graph_fan(g)
            rep = verify_fan_tubing_bijection(g, f)
            assert rep.passed, (g.edges(), rep.failure)
            assert rep.counts == f_vector(f), g.edges()


def test_bijection_fails_without_a_maximal_cone():
    g = parse_graph("P4")
    f = build_graph_fan(g)
    rep = verify_fan_tubing_bijection(g, dataclasses.replace(f, max_cones=f.max_cones[1:]))
    assert rep.passed is False
    assert "not a cone" in rep.failure


def test_bijection_fails_on_a_tube_without_a_ray():
    g = parse_graph("P4")
    f = build_graph_fan(g)
    i = ray_for_tube(f, 0b0110)
    rays = list(f.rays)
    rays[i] = Ray(rays[i].coords, ("sum", (1, 2)))
    rep = verify_fan_tubing_bijection(g, dataclasses.replace(f, rays=tuple(rays)))
    assert rep.passed is False
    assert "uses a tube with no ray" in rep.failure


def test_bijection_fails_on_a_cone_without_a_tubing():
    # tubes {0,1} and {1,2} overlap without nesting, so no tubing holds both
    g = parse_graph("P4")
    f = build_graph_fan(g)
    extra = tuple(sorted(ray_for_tube(f, t) for t in (0b0011, 0b0110, 0b1000)))
    rep = verify_fan_tubing_bijection(
        g, dataclasses.replace(f, max_cones=tuple(sorted(f.max_cones + (extra,))))
    )
    assert rep.passed is False
    assert "no tubing partner" in rep.failure or "not a cone" in rep.failure


def test_bijection_guards():
    with pytest.raises(GraphError):
        verify_fan_tubing_bijection(parse_graph("P9"))
    with pytest.raises(GraphError):
        verify_fan_tubing_bijection(from_edges(4, [(0, 1)]))


def test_tubing_to_json():
    assert tubing_to_json((0b011, 0b001)) == [[0], [0, 1]]
