"""Tubing compatibility and enumeration, with counting oracles and the
fan bijection check."""

import dataclasses
import math
from collections import Counter
from itertools import combinations
from typing import Optional

import pytest

from graphassoc import (
    Ray,
    build_graph_fan,
    connected_graphs_up_to_iso,
    f_vector,
    parse_graph,
    proper_tubes,
    verify_fan_tubing_bijection,
)
from graphassoc import tubings
from graphassoc.fans import Fan
from graphassoc.graphs import GraphError, bits_of, cliques, from_edges, is_connected, mask_of
from graphassoc.tubings import BIJECTION_MAX_VERTICES, BijectionReport, _compatibility
from oracles import compatible, enumerate_tubings


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def face_subset_bijection(g, fan: Optional[Fan] = None) -> BijectionReport:
    """Oracle: the exhaustive check that lists every face of the fan by
    walking all 2^d - 1 subsets of every maximal cone, and maps every
    tubing of every size onto its own face."""
    if g.num_vertices > BIJECTION_MAX_VERTICES:
        raise GraphError(f"bijection check capped at {BIJECTION_MAX_VERTICES} vertices")
    if not is_connected(g):
        raise GraphError("bijection check needs a connected graph")
    f = fan if fan is not None else build_graph_fan(g)
    d = f.dim

    all_tubes = sorted(proper_tubes(g))
    ray_index = {r.label: i for i, r in enumerate(f.rays)}
    ray_bit = []
    for t in all_tubes:
        r = ray_index.get(t)
        if r is None:
            return BijectionReport(False, (), f"tubing {[bits_of(t)]} uses a tube with no ray")
        ray_bit.append(1 << r)

    faces = set()
    for cone in f.max_cones:
        s = cone
        while s:
            faces.add(s)
            s = (s - 1) & cone
    face_counts = Counter(s.bit_count() for s in faces)

    counts = [0] * d
    images = set()
    for chosen in cliques(_compatibility(g, all_tubes), d):
        rays = 0
        for i in chosen:
            rays |= ray_bit[i]
        if rays not in faces:
            tubing = sorted(bits_of(all_tubes[i]) for i in chosen)
            return BijectionReport(
                False, (), f"tubing {tubing} maps to {bits_of(rays)}, not a cone"
            )
        if rays in images:
            return BijectionReport(
                False, (), f"two size-{len(chosen)} tubings share the ray set {bits_of(rays)}"
            )
        images.add(rays)
        counts[len(chosen) - 1] += 1
    if counts != [face_counts[j] for j in range(1, d + 1)]:
        missing = min(faces - images)
        return BijectionReport(
            False, tuple(counts), f"cone {bits_of(missing)} has no tubing partner"
        )
    return BijectionReport(True, tuple(counts))


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


def test_compatibility_table_matches_compatible():
    # the neighbour-mask table against the connectivity definition
    for n in range(2, 7):
        for g in connected_graphs_up_to_iso(n):
            all_tubes = sorted(proper_tubes(g))
            table = [
                sum(1 << j for j, t2 in enumerate(all_tubes) if j != i and compatible(g, t1, t2))
                for i, t1 in enumerate(all_tubes)
            ]
            assert _compatibility(g, all_tubes) == table, g.edges()


def test_tubings_are_pairwise_compatible():
    g = parse_graph("C5")
    for tubing in enumerate_tubings(g, 3):
        for i, t1 in enumerate(tubing):
            for t2 in tubing[i + 1:]:
                assert compatible(g, t1, t2)


def test_bijection_on_named_graphs():
    # P7, C7, S7 and K7 run the check in dimension 6
    for spec in ["P3", "K3", "P4", "K4", "C5", "S5", "cone^2(D2)", "P7", "C7", "S7", "K7"]:
        g = parse_graph(spec)
        f = build_graph_fan(g)
        rep = verify_fan_tubing_bijection(g, f)
        assert rep.passed, (spec, rep.failure)
        assert rep.counts == f_vector(f), spec


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
            oracle = face_subset_bijection(g, f)
            assert (rep.passed, rep.counts) == (oracle.passed, oracle.counts), g.edges()


def test_bijection_fails_without_a_maximal_cone():
    g = parse_graph("P4")
    f = build_graph_fan(g)
    tampered = dataclasses.replace(f, max_cones=f.max_cones[1:])
    rep = verify_fan_tubing_bijection(g, tampered)
    assert rep.passed is False
    assert "not a cone" in rep.failure
    assert face_subset_bijection(g, tampered).passed is False


def test_bijection_fails_on_a_tube_without_a_ray():
    g = parse_graph("P4")
    f = build_graph_fan(g)
    i = next(i for i, r in enumerate(f.rays) if r.label == 0b0110)
    rays = list(f.rays)
    rays[i] = Ray(rays[i].coords, 0b1001)  # a non-tube, so no tube's label
    tampered = dataclasses.replace(f, rays=tuple(rays))
    rep = verify_fan_tubing_bijection(g, tampered)
    assert rep.passed is False
    assert "uses a tube with no ray" in rep.failure
    assert face_subset_bijection(g, tampered).passed is False


def test_bijection_fails_on_a_cone_without_a_tubing():
    # tubes {0,1} and {1,2} overlap without nesting, so no tubing holds both
    g = parse_graph("P4")
    f = build_graph_fan(g)
    ray = {r.label: i for i, r in enumerate(f.rays)}
    extra = mask_of(ray[t] for t in (0b0011, 0b0110, 0b1000))
    tampered = dataclasses.replace(f, max_cones=f.max_cones + (extra,))
    rep = verify_fan_tubing_bijection(g, tampered)
    assert rep.passed is False
    assert "no tubing partner" in rep.failure or "not a cone" in rep.failure
    assert face_subset_bijection(g, tampered).passed is False


def test_bijection_fails_on_a_maximal_tubing_below_dimension(monkeypatch):
    # no graph reaches the purity branch (every graph associahedron is
    # simple), so isolate tube {0} of P4 in its compatibility table: the
    # tubing [[0]] is then maximal with 1 of 3 tubes
    compatibility = tubings._compatibility

    def isolate_first(g, all_tubes):
        compat = compatibility(g, all_tubes)
        return [0] + [row & ~1 for row in compat[1:]]

    monkeypatch.setattr(tubings, "_compatibility", isolate_first)
    g = parse_graph("P4")
    assert sorted(proper_tubes(g))[0] == 0b0001
    rep = verify_fan_tubing_bijection(g)
    assert rep.passed is False
    assert rep.failure == "maximal tubing [[0]] has 1 < 3 tubes"


def test_bijection_fails_on_a_tubing_past_the_fan_dimension():
    # a 2-dimensional "fan" whose maximal cones are exactly the images of
    # the 2-tubings of P4: every 2-tubing maps to a maximal cone, but most
    # extend to 3-tubings, so purity fails (the face-subset oracle passes it)
    g = parse_graph("P4")
    f = build_graph_fan(g)
    ray = {r.label: i for i, r in enumerate(f.rays)}
    pairs = tuple(mask_of(ray[t] for t in tb) for tb in enumerate_tubings(g, 2))
    flat = dataclasses.replace(f, dim=2, max_cones=pairs)
    rep = verify_fan_tubing_bijection(g, flat)
    assert rep.passed is False
    assert rep.failure.endswith("of 2 tubes is not maximal")
    assert face_subset_bijection(g, flat).passed is True


def test_bijection_guards():
    with pytest.raises(GraphError):
        verify_fan_tubing_bijection(parse_graph("P9"))
    with pytest.raises(GraphError):
        verify_fan_tubing_bijection(from_edges(4, [(0, 1)]))
