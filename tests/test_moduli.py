"""Stable dual trees, nodal divisors, and the divisor/ray correspondence."""

import functools
import gc
import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from graphassoc import (
    build_graph_fan,
    EpsRational,
    StableTree,
    WeightVector,
    classify_iterated_cone,
    connected_graphs_up_to_iso,
    count_stable_trees,
    divisor_tube_correspondence,
    enumerate_stable_trees,
    mark_of_vertex,
    nodal_divisors,
    parse_graph,
    parse_weight_vector,
    preservation_threshold,
    record_comparisons,
    remark_weights,
)
from graphassoc.graphs import bits_of, nested_or_apart
from graphassoc.moduli import _vertex_stable
from oracles import (
    chain_shape_check,
    enumerate_tubings,
    marks,
    pairwise_side_tables,
    reference_tree_json,
    sorted_tree_json,
    subset_nodal_divisors,
    tree_from_json,
    tree_stable,
)


def lm_weights(n):
    return parse_weight_vector(",".join(["1", "1"] + ["e"] * (n - 2)))


def projective_weights(n):
    """Weights whose moduli space is a projective space: one full mark, one
    nearly full, the rest infinitesimal."""
    return parse_weight_vector(",".join(["1", f"1-{n - 3}e"] + ["e"] * (n - 2)))


def iterated_cones_up_to(max_n):
    """(graph, remark weights) of every iterated cone on 2..max_n vertices."""
    for n in range(2, max_n + 1):
        for g in connected_graphs_up_to_iso(n):
            cs = classify_iterated_cone(g)
            if cs is not None:
                yield g, remark_weights(cs, g)


# -- the splitting enumerator, kept as an oracle -----------------------------


def splitting_trees(w, max_vertices):
    """Stable trees by recursive vertex splitting from the one-component
    tree, pruning splits that leave either side unstable and removing
    duplicates by their multiset of leg bipartitions.  Every stable tree
    contracts, edge by edge, to the one-component tree through stable
    trees, so splitting reaches everything."""
    root = StableTree(((1 << w.n) - 1,), ())
    if not tree_stable(w, root):
        return []
    stable = functools.cache(functools.partial(_vertex_stable, w))
    found = {partition_key(root): root}
    frontier = [root]
    for _ in range(max_vertices - 1):
        next_frontier = []
        for tree in frontier:
            for split in splits(stable, tree):
                key = partition_key(split)
                if key not in found:
                    found[key] = split
                    next_frontier.append(split)
        frontier = next_frontier
    return list(found.values())


def partition_key(tree):
    """Multiset of leg bipartitions induced by the edges; a stable tree is
    determined by it."""
    all_legs = sum(tree.legs)
    parts = []
    for i, j in tree.edges:
        side = side_legs(tree, i, j)
        parts.append(frozenset([side, all_legs & ~side]))
    return (len(tree.legs), frozenset(parts))


def side_legs(tree, root, banned):
    """Legs in the component of `root` after removing edge (root, banned)."""
    seen = {root}
    stack = [root]
    while stack:
        v = stack.pop()
        for a, b in tree.edges:
            if v == a and b != banned or v == b and a != banned:
                u = b if v == a else a
                if u not in seen and not (v == root and u == banned):
                    seen.add(u)
                    stack.append(u)
    return sum(tree.legs[v] for v in seen)


def splits(stable, tree):
    """All trees obtained by splitting one vertex of `tree` into two that
    pass stable(legs, degree)."""
    for v in range(tree.num_vertices):
        legs = [1 << b for b in bits_of(tree.legs[v])]
        incident = [e for e in tree.edges if v in e]
        items = [("leg", l) for l in legs] + [("edge", e) for e in incident]
        m = len(items)
        # the new vertex takes the chosen items; item 0 stays on the old side
        for pick in range(1, 1 << (m - 1)):
            new_items = [items[i] for i in range(m) if pick >> i & 1]
            old_items = [items[i] for i in range(m) if not pick >> i & 1]
            new_legs = sum(x for kind, x in new_items if kind == "leg")
            old_legs = sum(x for kind, x in old_items if kind == "leg")
            new_degree = sum(1 for kind, _ in new_items if kind == "edge") + 1
            old_degree = sum(1 for kind, _ in old_items if kind == "edge") + 1
            if not (stable(new_legs, new_degree) and stable(old_legs, old_degree)):
                continue
            nv = tree.num_vertices
            legs_out = list(tree.legs)
            legs_out[v] = old_legs
            legs_out.append(new_legs)
            moved = {e for kind, e in new_items if kind == "edge"}
            edges_out = []
            for e in tree.edges:
                if e in moved:
                    a, b = e
                    edges_out.append((b if a == v else a, nv))
                else:
                    edges_out.append(e)
            edges_out.append((v, nv))
            yield StableTree(tuple(legs_out), tuple(edges_out))


CLIQUE_WEIGHTS = [
    parse_weight_vector("1,1-3e,4e,4e,e,e"),
    parse_weight_vector("1,1,1,e,e,e,e"),
    *(w for _, w in iterated_cones_up_to(6)),
    *(lm_weights(n) for n in range(5, 9)),
]


def test_cliques_match_the_splitting_enumerator():
    """Tree for tree, and counted alike without building, at every cap on
    the components: the splitting trees of at most that many components,
    so the walk's cut-off at the cap is checked too."""
    assert len(CLIQUE_WEIGHTS) == 2 + 15 + 4
    for w in CLIQUE_WEIGHTS:
        splitting = sorted_tree_json(splitting_trees(w, w.n - 2))
        for cap in range(1, w.n - 1):
            expected = [item for item in splitting if len(item["vertices"]) <= cap]
            assert sorted_tree_json(enumerate_stable_trees(w, cap)) == expected, (str(w), cap)
            assert count_stable_trees(w, cap) == dict(
                sorted(Counter(len(item["vertices"]) for item in expected).items())
            ), (str(w), cap)


def test_side_tables_match_the_pairwise_tables():
    # the holder-mask tables that the walks read against the pair loop, on
    # the clique weights and on thirteen marks of weight 1 (4,082 sides):
    # compat, and above[i], the later sides that contain side i and side i
    for w in [*CLIQUE_WEIGHTS, parse_weight_vector(",".join(["1"] * 13))]:
        sides = nodal_divisors(w)
        above, compat = nested_or_apart(sides, w.n)
        pair_compat, sup = pairwise_side_tables(sides)
        assert compat == pair_compat, str(w)
        assert above == [s | 1 << i for i, s in enumerate(sup)], str(w)
    assert len(sides) == 4082


@pytest.mark.parametrize("walk", [enumerate_stable_trees, count_stable_trees], ids=lambda f: f.__name__)
def test_tree_walks_leave_no_cyclic_garbage(walk):
    """With the collector off, a walk over the trees of Losev-Manin 7 leaves
    nothing that only the cycle collector frees.  A recursive closure is a
    reference cycle, and would keep each call's locals alive until a full
    collection."""
    w = lm_weights(7)
    gc.disable()
    try:
        gc.collect()
        walk(w, w.n - 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "w, cap",
    [
        *((w, w.n - 2) for w in CLIQUE_WEIGHTS),
        (parse_weight_vector("1,1,1,1,1,1,1,1"), 6),  # legless vertices tie
        (lm_weights(12), 2),  # two-digit labels
        (parse_weight_vector(",".join(["1"] * 13)), 2),
    ],
    ids=str,
)
def test_trees_match_the_reference_json(w, cap):
    """Tree for tree: the JSON of the trees grown by the enumerator is the
    reference JSON, whose trees come from the clique walk of
    `graphs.cliques`, a walk the enumerator does not share, built with M
    on vertex 0 and numbered by a rule of their own; both sorted by
    component count and JSON string."""
    assert sorted_tree_json(enumerate_stable_trees(w, cap)) == reference_tree_json(w, cap)


@pytest.mark.parametrize(
    "w",
    [
        *(w for _, w in iterated_cones_up_to(6)),
        *(lm_weights(n) for n in range(5, 10)),
        parse_weight_vector("1,1-3e,4e,4e,e,e"),
        parse_weight_vector("1,1/2,(1+e)/2,e,e"),
    ],
    ids=str,
)
def test_nodal_divisors_match_the_per_subset_reference(w):
    """Equal divisors from the doubling pass, and the same comparisons in
    the same order, so the eps threshold of the moduli pass is kept."""
    with record_comparisons() as fast:
        divisors = nodal_divisors(w)
    with record_comparisons() as slow:
        reference = subset_nodal_divisors(w)
    assert divisors == reference
    assert fast.pairs == slow.pairs


@pytest.mark.parametrize(
    "w, digest",
    [
        (
            remark_weights(classify_iterated_cone(parse_graph("S6")), parse_graph("S6")),
            "299c0d8145f4e7fe8e1abb3d23696b19b0ee50cceb0271c3c9c623ac48c7c967",
        ),
        (
            lm_weights(9),
            "dac485e67ed5496732cc45ac60b0d7c0518386b3fd85219a8b1d7917f6bde35f",
        ),
    ],
    ids=["S6", "LM9"],
)
def test_tree_lists_are_pinned(w, digest):
    """SHA-256 of the JSON tree list the splitting enumerator gave, sorted
    by component count and JSON string."""
    trees = sorted_tree_json(enumerate_stable_trees(w, w.n - 2))
    assert hashlib.sha256(json.dumps(trees).encode()).hexdigest() == digest


def renumbered(tree, rng):
    """The tree with its vertices renumbered at random, its edges listed in
    random order and each edge's ends in random order."""
    perm = list(range(tree.num_vertices))
    rng.shuffle(perm)
    legs = [0] * tree.num_vertices
    for v, new in enumerate(perm):
        legs[new] = tree.legs[v]
    edges = [(perm[a], perm[b]) if rng.random() < 0.5 else (perm[b], perm[a]) for a, b in tree.edges]
    rng.shuffle(edges)
    return StableTree(tuple(legs), tuple(edges))


def test_json_does_not_depend_on_vertex_numbering():
    """Two adjacent legless vertices tie on their legs and are ordered by
    the legs of their branches, so one 8-mark tree numbered two ways gives
    one JSON, with the vertex next to M first.  Then the JSON of every
    enumerated tree of eight marks of weight 1 (where legless vertices
    tie), of an iterated cone and of Losev-Manin space on 7 marks reads
    back as a tree with that JSON.  Every tree whose legless vertices tie,
    and one in four of the others, gives that JSON again when renumbered
    at random."""
    legs = tuple(marks(*x) for x in (["M", 0], [1, 2], [], [], [3, 4], [5, 6]))
    a = StableTree(legs, ((0, 2), (1, 2), (2, 3), (3, 4), (3, 5)))
    b = StableTree(legs, ((0, 3), (1, 3), (3, 2), (2, 4), (2, 5)))
    assert tree_stable(parse_weight_vector("1,1,1,1,1,1,1,1"), a)
    assert a.to_json() == b.to_json()
    assert a.to_json()["edges"] == [[0, 1], [0, 2], [0, 3], [1, 4], [1, 5]]
    rng = random.Random(7)
    g = parse_graph("cone^2(D3)")
    cone = remark_weights(classify_iterated_cone(g), g)
    for w, cap in [(parse_weight_vector("1,1,1,1,1,1,1,1"), 6), (cone, cone.n - 2), (lm_weights(7), 5)]:
        for tree in enumerate_stable_trees(w, cap):
            item = tree.to_json()
            assert tree_from_json(item).to_json() == item
            if tree.legs.count(0) > 1 or rng.random() < 0.25:
                assert renumbered(tree, rng).to_json() == item, (str(w), item)


def test_losev_manin_trees_are_ordered_set_partitions():
    """Losev-Manin space is the permutohedral toric variety: its strata of
    j components are the ordered partitions of the n - 2 light marks into j
    blocks, j! S(n - 2, j) of them, counted here as surjections."""
    for n in range(5, 11):
        m = n - 2
        surjections = {
            j: sum((-1) ** i * math.comb(j, i) * (j - i) ** m for i in range(j + 1))
            for j in range(1, m + 1)
        }
        assert count_stable_trees(lm_weights(n), m) == surjections, n


def test_heavy_tubings_match_stable_trees():
    """On an iterated cone, the tubings made only of heavy tubes
    (c_0 + w(T) > 1) with j tubes are as many as the stable trees with
    j + 1 components, for every j."""
    one = EpsRational(1)
    for g, w in iterated_cones_up_to(6):
        marks = mark_of_vertex(classify_iterated_cone(g))

        def heavy(t):
            total = w.c0
            for v in range(g.num_vertices):
                if t >> v & 1:
                    total = total + w.c[marks[v] - 1]
            return total > one

        heavy_tubings = {
            j + 1: sum(all(map(heavy, t)) for t in enumerate_tubings(g, j))
            for j in range(1, g.num_vertices)
        }
        trees = count_stable_trees(w, w.n - 2)
        assert {1: 1, **{c: k for c, k in heavy_tubings.items() if k}} == trees, g


@pytest.mark.parametrize(
    "spec, eps0",
    [("S5", "1/10"), ("cone^2(D3)", "1/13"), ("cone^3(D2)", "1/14"), ("K5", "1/13"), ("S6", "1/12")],
)
def test_preservation_threshold_of_the_moduli_pass(spec, eps0):
    """The comparisons of trees, divisors and the divisor/tube check on one
    iterated cone survive up to the same eps0 as before the clique walk."""
    g = parse_graph(spec)
    w = remark_weights(classify_iterated_cone(g), g)
    with record_comparisons() as rec:
        enumerate_stable_trees(w, w.n - 2)
        nodal_divisors(w)
        divisor_tube_correspondence(g, w)
    assert preservation_threshold(rec.pairs) == Fraction(eps0)


def test_vertex_stability():
    w = lm_weights(5)
    assert _vertex_stable(w, marks("M", 0, 1), 0)
    assert _vertex_stable(w, marks("M", 0), 1)  # 1 + 1 + 1 > 2
    assert not _vertex_stable(w, marks(1, 2), 1)  # 1 + 2e
    assert _vertex_stable(w, marks(1, 2), 2)  # 2 + 2e


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
    assert max(count_stable_trees(w, 3), default=0) == 3


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
            t.legs[0] if t.legs[1] & marks("M") else t.legs[1] for t in two
        }
        assert tree_sides == set(divisors)


def test_every_stable_tree_contracts_to_a_stable_tree():
    """Contracting any edge of a stable tree yields a stable tree: dropping
    one split from a clique of compatible nodal divisors leaves a clique,
    and the splitting oracle relies on it to reach every tree."""
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
            assert tree_stable(w, contracted)


def test_projective_weights_have_no_degenerations():
    w = projective_weights(5)
    assert nodal_divisors(w) == []
    assert max(count_stable_trees(w, 3), default=0) == 1


def test_nodal_divisors_weigh_the_side_of_m():
    # with c_M = 1/2, the side {0, 1} weighs 2 but leaves M, 2, 3 with
    # 1/2 + 2e <= 1, so the M side rules it (and its supersets) out
    w = parse_weight_vector("1/2,1,1,e,e")
    sides = [[b - 1 for b in bits_of(side)] for side in nodal_divisors(w)]
    assert sides == [[0, 2], [0, 3], [1, 2], [1, 3], [0, 2, 3], [1, 2, 3]]


def test_nodal_divisors_need_an_m_side_above_one():
    # with c_M = 1/2 and the marks 1/2, 1, 1, 1/2, the sides {0, 1, 2} and
    # {1, 2, 3} leave M and a mark of weight 1/2, exactly 1, so neither is
    # a nodal divisor; the sides listed leave more than 1 on both sides
    w = parse_weight_vector("1/2,1/2,1,1,1/2")
    sides = [[b - 1 for b in bits_of(side)] for side in nodal_divisors(w)]
    assert sides == [[0, 1], [0, 2], [1, 2], [1, 3], [2, 3], [0, 1, 3], [0, 2, 3]]


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
    # ten marks and more are enumerated, no longer capped
    assert len(enumerate_stable_trees(lm_weights(10), 2)) == 1 + 254
    with pytest.raises(ValueError):
        enumerate_stable_trees(lm_weights(5), 0)
    with pytest.raises(ValueError):
        enumerate_stable_trees(lm_weights(5), 4)
    # stability is the clique condition only for weights in (0, 1]
    for text in ["2,1,1,e", "1,1,0,e,e"]:
        with pytest.raises(ValueError):
            enumerate_stable_trees(parse_weight_vector(text), 2)


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


def test_correspondence_reports_extra_and_missing_divisors():
    # with c_M = 1/2, a tube's side {0, a, b} weighs 2 but leaves M and one
    # mark, 1/2 + 1/2 = 1, so it is missing; the side {1, 2, 3} weighs 3/2
    # and leaves M and 0, 3/2, a nodal divisor that is no tube's side
    rep = divisor_tube_correspondence(parse_graph("K3"), parse_weight_vector("1/2,1,1/2,1/2,1/2"))
    assert rep.passed is False
    assert rep.detail == "extra divisors [[1, 2, 3]], missing [[0, 1, 2], [0, 1, 3], [0, 2, 3]]"
    assert (rep.num_rays, rep.num_divisors, rep.k) == (6, 4, 1)


def test_correspondence_refuses_a_weight_vector_of_the_wrong_length():
    # as check_w1_w2 does: two marks too few for K4, two too many for K2
    for spec, weights in [("K4", "1,1-2e,3e,e"), ("K2", "1,1-2e,3e,e,e,e")]:
        with pytest.raises(ValueError, match="weight vector length does not match the graph"):
            divisor_tube_correspondence(parse_graph(spec), parse_weight_vector(weights))


def test_correspondence_counts_the_rays_of_the_fan():
    # the rays are counted as the proper tubes, with no fan built: they are
    # as many as the graph fan's rays on every iterated cone, 1 + ... + 6 of
    # them on 2 to 7 vertices
    cones = [
        g for n in range(2, 8) for g in connected_graphs_up_to_iso(n)
        if classify_iterated_cone(g) is not None
    ]
    assert len(cones) == 21
    for g in cones:
        assert divisor_tube_correspondence(g).num_rays == len(build_graph_fan(g).rays), g.edges()


def test_correspondence_rejects_non_cones():
    with pytest.raises(ValueError):
        divisor_tube_correspondence(parse_graph("P4"))
