"""Stable dual trees, nodal divisors, and the divisor/ray correspondence."""

import pytest

from graphassoc import (
    build_graph_fan,
    EpsRational,
    StableTree,
    WeightVector,
    chain_shape_check,
    divisor_tube_correspondence,
    enumerate_stable_trees,
    max_components,
    nodal_divisors,
    parse_graph,
    parse_weight_vector,
)
from graphassoc.moduli import _tree_stable, _vertex_stable


def lm_weights(n):
    return parse_weight_vector(",".join(["1", "1"] + ["e"] * (n - 2)))


def projective_weights(n):
    """Weights whose moduli space is a projective space: one full mark, one
    nearly full, the rest infinitesimal."""
    return parse_weight_vector(",".join(["1", f"1-{n - 3}e"] + ["e"] * (n - 2)))


def test_vertex_stability():
    w = lm_weights(5)
    assert _vertex_stable(w, frozenset(["M", 0, 1]), 0)
    assert _vertex_stable(w, frozenset(["M", 0]), 1)  # 1 + 1 + 1 > 2
    assert not _vertex_stable(w, frozenset([1, 2]), 1)  # 1 + 2e
    assert _vertex_stable(w, frozenset([1, 2]), 2)  # 2 + 2e


def test_one_component_tree_always_first():
    trees = enumerate_stable_trees(lm_weights(5), 1)
    assert len(trees) == 1
    assert trees[0].num_vertices == 1
    assert trees[0].edges == ()


def test_lm5_tree_census():
    w = lm_weights(5)
    trees = enumerate_stable_trees(w, 3)
    by_size = {}
    for t in trees:
        by_size[t.num_vertices] = by_size.get(t.num_vertices, 0) + 1
    assert by_size[1] == 1
    assert by_size[2] == len(nodal_divisors(w)) == 6
    assert by_size[3] == 6
    assert max_components(w, 3) == 3


def test_two_component_trees_match_nodal_divisors():
    """Independent derivations of the same objects must agree: a stable
    two-component tree is exactly a nodal bipartition."""
    for w in [
        lm_weights(5),
        lm_weights(6),
        projective_weights(5),
        parse_weight_vector("1,1-3e,4e,4e,e,e"),
        parse_weight_vector("1,1/2,(1+e)/2,e,e"),
    ]:
        two = [t for t in enumerate_stable_trees(w, 2) if t.num_vertices == 2]
        divisors = nodal_divisors(w)
        assert len(two) == len(divisors)
        tree_sides = {
            t.legs[0] if "M" in t.legs[1] else t.legs[1] for t in two
        }
        assert tree_sides == {d.side for d in divisors}


def test_every_stable_tree_contracts_to_a_stable_tree():
    """Contracting any edge of a stable tree yields a stable tree (the
    premise that justifies enumerating by splitting)."""
    w = lm_weights(6)
    for tree in enumerate_stable_trees(w, 4):
        for a, b in tree.edges:
            merged_legs = tree.legs[a] | tree.legs[b]
            keep = [v for v in range(tree.num_vertices) if v != b]
            index = {v: i for i, v in enumerate(keep)}
            legs = tuple(
                merged_legs if v == a else tree.legs[v] for v in keep
            )
            edges = tuple(
                (index[a if x == b else x], index[a if y == b else y])
                for x, y in tree.edges
                if (x, y) != (a, b)
            )
            contracted = StableTree(legs, edges)
            assert _tree_stable(w, contracted)


def test_projective_weights_have_no_degenerations():
    w = projective_weights(5)
    assert nodal_divisors(w) == []
    assert max_components(w, 3) == 1


def test_remark_weight_trees_for_triangle():
    w = parse_weight_vector("1,1-2e,3e,3e,e")  # triangle weights, n = 5
    assert len(nodal_divisors(w)) == 5


def test_chain_shape():
    # chains with the two heaviest marks at the ends
    assert chain_shape_check(lm_weights(5))
    assert chain_shape_check(lm_weights(6))
    # vacuously true when nothing degenerates
    assert chain_shape_check(projective_weights(5))
    # a heavy third mark allows non-chains on 7 marks
    w = parse_weight_vector("1,1,1,e,e,e,e")
    assert not chain_shape_check(w)


def test_enumeration_guards():
    with pytest.raises(ValueError):
        enumerate_stable_trees(lm_weights(10), 2)
    with pytest.raises(ValueError):
        enumerate_stable_trees(lm_weights(5), 0)
    with pytest.raises(ValueError):
        enumerate_stable_trees(lm_weights(5), 4)


def test_tree_json_is_canonical():
    w = lm_weights(5)
    trees = enumerate_stable_trees(w, 2)
    js = [t.to_json() for t in trees if t.num_vertices == 2]
    for item in js:
        assert set(item) == {"vertices", "edges"}
        assert item["edges"] == [[0, 1]]


def test_divisor_tube_correspondence():
    for spec in ["K3", "K4", "S4", "S5", "cone^2(D2)", "cone^2(D3)"]:
        rep = divisor_tube_correspondence(parse_graph(spec))
        assert rep.passed, (spec, rep.detail)
        assert rep.num_rays == rep.num_divisors + rep.k


def test_correspondence_counts():
    rep = divisor_tube_correspondence(parse_graph("K3"))
    assert (rep.num_rays, rep.num_divisors, rep.k) == (6, 5, 1)
    rep = divisor_tube_correspondence(parse_graph("cone^2(D2)"))
    assert (rep.num_rays, rep.num_divisors, rep.k) == (13, 11, 2)
    rep = divisor_tube_correspondence(parse_graph("S4"))
    assert (rep.num_rays, rep.num_divisors, rep.k) == (10, 7, 3)


def test_correspondence_reuses_a_given_fan():
    for spec in ["K4", "S4", "cone^2(D2)"]:
        g = parse_graph(spec)
        rep = divisor_tube_correspondence(g, fan=build_graph_fan(g))
        assert rep == divisor_tube_correspondence(g), spec


def test_correspondence_rejects_non_cones():
    with pytest.raises(ValueError):
        divisor_tube_correspondence(parse_graph("P4"))
