"""Graph families, bitmask subroutines, tube enumeration, and the
iterated-cone classifier."""

import itertools
import pathlib
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from graphassoc import (
    Graph,
    GraphError,
    UnsupportedGraphError,
    bits_of,
    classify_iterated_cone,
    complete,
    complete_bipartite,
    complete_multipartite,
    cone,
    connected_graphs_up_to_iso,
    cycle,
    discrete,
    from_edges,
    mask_of,
    parse_edge_list,
    parse_graph,
    path,
    star,
    tubes,
    universal_vertices,
)
from graphassoc.graphs import (
    cliques,
    component,
    component_table,
    induced_connected,
    is_connected,
    nested_or_apart,
    subsets_by_size,
)
from oracles import is_tube, non_tubes, relabel


def test_mask_bits_roundtrip():
    assert mask_of([0, 2, 5]) == 0b100101
    assert bits_of(0b100101) == [0, 2, 5]


def test_graph_invariants():
    with pytest.raises(GraphError):
        Graph(0, ())
    with pytest.raises(GraphError):
        Graph(2, (0b10,))  # wrong row count
    with pytest.raises(GraphError):
        Graph(2, (0b01, 0b10))  # self loop
    with pytest.raises(GraphError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(GraphError):
        Graph(2, (0b100, 0b000))  # out of range


def test_from_edges():
    g = from_edges(3, [(0, 1), (1, 2), (1, 0)])
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.degree(1) == 2
    with pytest.raises(GraphError):
        from_edges(2, [(0, 2)])
    with pytest.raises(GraphError):
        from_edges(2, [(1, 1)])


def test_families():
    assert complete(4).edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert path(4).edges() == [(0, 1), (1, 2), (2, 3)]
    assert sorted(cycle(4).edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert star(4).edges() == [(0, 1), (0, 2), (0, 3)]
    assert discrete(3).edges() == []
    assert discrete(3).is_discrete()
    assert complete_bipartite(2, 2).edges() == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert complete_multipartite([2, 2]).edges() == complete_bipartite(2, 2).edges()
    assert complete_multipartite([1, 1, 1]).edges() == complete(3).edges()
    with pytest.raises(GraphError):
        cycle(2)


def test_cone():
    g = cone(discrete(2))
    assert g.num_vertices == 3
    assert g.edges() == [(0, 2), (1, 2)]  # new vertex gets the highest label
    assert universal_vertices(g) == 0b100


def test_relabel():
    g = relabel(path(3), [2, 1, 0])
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


@pytest.mark.parametrize(
    "spec,n,m",
    [
        ("K4", 4, 6),
        ("P5", 5, 4),
        ("C5", 5, 5),
        ("S4", 4, 3),
        ("D3", 3, 0),
        ("Kb2,3", 5, 6),
        ("cone(D3)", 4, 3),
        ("cone^2(D2)", 4, 5),
        ("cone(P3)", 4, 5),
    ],
)
def test_parse_graph(spec, n, m):
    g = parse_graph(spec)
    assert g.num_vertices == n
    assert len(g.edges()) == m


def test_parse_graph_rejects():
    for bad in ["", "K", "K0", "X3", "cone()", "Kb2"]:
        with pytest.raises(GraphError):
            parse_graph(bad)


def test_parse_edge_list():
    g = parse_edge_list("# triangle\n3\n0 1\n1 2 # last\n0 2\n")
    assert g.edges() == complete(3).edges()
    with pytest.raises(GraphError):
        parse_edge_list("")
    with pytest.raises(GraphError):
        parse_edge_list("two\n0 1")
    with pytest.raises(GraphError, match="bad edge line '0 1 2'"):
        parse_edge_list("3\n0 1 2")
    with pytest.raises(GraphError, match="bad edge line '0 x'"):
        parse_edge_list("3\n0 x")


@pytest.mark.parametrize(
    "make",
    [
        lambda: parse_graph("K20000"),
        lambda: parse_graph("P5000"),
        lambda: parse_graph("Kb300,300"),
        lambda: parse_graph("cone(D10000000)"),
        lambda: parse_edge_list("10000000\n0 1\n"),
        lambda: from_edges(10000000, []),
    ],
    ids=["K", "P", "Kb", "cone of D", "edge list", "from_edges"],
)
def test_an_oversized_vertex_count_is_refused_before_anything_is_built(make):
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="exceeds the 24-vertex cap"):
            make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_subsets_by_size():
    got = list(subsets_by_size(4, 2))
    assert got == sorted(got)
    assert len(got) == 6
    assert all(s.bit_count() == 2 for s in got)
    assert list(subsets_by_size(3, 0)) == [0]


def test_cliques():
    # a triangle 0-1-2 with a pendant edge 2-3
    compat = [0b0110, 0b0101, 0b1011, 0b0100]
    assert list(cliques(compat, 3)) == [
        (0,), (0, 1), (0, 1, 2), (0, 2), (1,), (1, 2), (2,), (2, 3), (3,)
    ]
    assert [c for c in cliques(compat, 2) if len(c) == 2] == [(0, 1), (0, 2), (1, 2), (2, 3)]
    assert list(cliques(compat, 0)) == []
    assert list(cliques([], 3)) == []


def _random_adjacency(rng, width):
    adj = [0] * width
    for u in range(width):
        for v in range(u + 1, width):
            if rng.random() < 0.4:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


@pytest.mark.parametrize("with_adj", [False, True])
def test_nested_or_apart_matches_the_pairwise_definition(with_adj):
    rng = random.Random(19 + with_adj)
    for trial in range(300):
        width = rng.randint(0, 8)
        full = (1 << width) - 1
        sets = [rng.randint(0, full) for _ in range(rng.randint(0, 12))]
        sets += [0, full] * (trial % 2)
        sets += rng.choices(sets, k=min(len(sets), 3))  # repeated sets
        rng.shuffle(sets)
        adj = _random_adjacency(rng, width) if with_adj else None
        above, compat = nested_or_apart(sets, width, adj)
        for i, a in enumerate(sets):
            assert above[i] == mask_of(j for j, b in enumerate(sets) if a & ~b == 0)
            assert compat[i] == mask_of(
                j
                for j, b in enumerate(sets)
                if j != i
                and (
                    a & ~b == 0
                    or b & ~a == 0
                    or a & b == 0 and (adj is None or all(adj[l] & a == 0 for l in bits_of(b)))
                )
            )


def test_nested_or_apart_on_a_path():
    # P3: {0} and {2} are apart, {0} and {1} are disjoint but adjacent
    sets = [0b001, 0b010, 0b100, 0b011, 0b111]
    assert nested_or_apart(sets, 3) == (
        [0b11001, 0b11010, 0b10100, 0b11000, 0b10000],
        [0b11110, 0b11101, 0b11011, 0b10111, 0b01111],
    )
    assert nested_or_apart(sets, 3, path(3).adj)[1] == [0b11100, 0b11000, 0b10001, 0b10011, 0b01111]


def test_tubes_order_and_content():
    g = path(3)
    assert tubes(g, 1, 3) == [0b111, 0b011, 0b110, 0b001, 0b010, 0b100]
    assert non_tubes(g) == [0b101]
    assert is_tube(g, 0b011)
    assert not is_tube(g, 0b101)
    with pytest.raises(GraphError):
        is_tube(g, 0)
    with pytest.raises(GraphError):
        is_tube(g, 0b1000)
    with pytest.raises(GraphError):
        tubes(g, 0, 3)


def test_tubes_against_bruteforce():
    for spec in ["P5", "C5", "S5", "K4", "Kb2,3"]:
        g = parse_graph(spec)
        n = g.num_vertices
        expected = set()
        for r in range(1, n + 1):
            for combo in itertools.combinations(range(n), r):
                s = mask_of(combo)
                # BFS-free connectivity oracle via edge closure
                comp = {combo[0]}
                changed = True
                while changed:
                    changed = False
                    for u, v in g.edges():
                        if u in comp and v in combo and v not in comp:
                            comp.add(v)
                            changed = True
                        if v in comp and u in combo and u not in comp:
                            comp.add(u)
                            changed = True
                if comp == set(combo):
                    expected.add(s)
        assert set(tubes(g, 1, n)) == expected
        assert set(non_tubes(g)) == {
            mask_of(c)
            for r in range(2, n + 1)
            for c in itertools.combinations(range(n), r)
        } - expected


@given(st.integers(min_value=2, max_value=6), st.data())
def test_induced_connected_matches_networkx(n, data):
    import networkx as nx

    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=10,
        )
    )
    g = from_edges(n, edges)
    s = data.draw(st.integers(min_value=1, max_value=(1 << n) - 1))
    h = nx.Graph()
    h.add_nodes_from(bits_of(s))
    h.add_edges_from((u, v) for u, v in g.edges() if (s >> u & 1) and (s >> v & 1))
    assert induced_connected(g, s) == nx.is_connected(h)
    lowest = bits_of(s)[0]
    assert component(g, s) == mask_of(nx.node_connected_component(h, lowest))


@given(st.integers(min_value=1, max_value=8), st.booleans(), st.data())
def test_component_table_matches_component(n, dense, data):
    """On random graphs, connected or not, and their complements."""
    pairs = list(itertools.combinations(range(n), 2))
    edges = set(data.draw(st.lists(st.sampled_from(pairs), max_size=2 * n))) if pairs else set()
    g = from_edges(n, set(pairs) - edges if dense else edges)
    assert component_table(g) == tuple(component(g, s) for s in range(1 << n))


def test_component_table_matches_component_on_the_catalog_and_larger_graphs():
    rng = random.Random(27)
    graphs = [g for n in range(1, 8) for g in connected_graphs_up_to_iso(n)]
    for n in range(9, 13):
        pairs = list(itertools.combinations(range(n), 2))
        for density in (0.15, 0.3, 0.6):
            graphs.append(from_edges(n, [e for e in pairs if rng.random() < density]))
    for g in graphs:
        table = component_table(g)
        assert table == tuple(component(g, s) for s in range(1 << g.num_vertices)), g.edges()
        assert component_table(g) is table  # cached for the last graph


def test_universal_vertices():
    assert universal_vertices(star(4)) == 0b0001
    assert universal_vertices(complete(3)) == 0b111
    assert universal_vertices(path(4)) == 0


def test_classify_yes_cases():
    cs = classify_iterated_cone(star(5))
    assert cs.cone_vertices == 0b00001 and cs.k == 4

    cs = classify_iterated_cone(complete(4))
    assert cs.independent == 0b0001 and cs.k == 1  # lowest label peeled off

    cs = classify_iterated_cone(parse_graph("cone^2(D2)"))
    assert cs.k == 2 and cs.num_cone == 2

    cs = classify_iterated_cone(discrete(3))
    assert cs.k == 3 and cs.num_cone == 0

    assert classify_iterated_cone(complete(1)).k == 1


def test_classify_no_cases():
    for spec in ["P4", "C4", "C5", "Kb2,2", "Kb2,3", "P5"]:
        assert classify_iterated_cone(parse_graph(spec)) is None


def test_classify_unsupported():
    g = from_edges(4, [(0, 1)])  # disconnected, not discrete
    with pytest.raises(UnsupportedGraphError):
        classify_iterated_cone(g)


def test_classify_invariant_under_relabeling():
    g = parse_graph("cone^2(D3)")
    for perm in itertools.permutations(range(5)):
        cs = classify_iterated_cone(relabel(g, list(perm)))
        assert cs is not None and cs.k == 3 and cs.num_cone == 2


def test_connected_catalog_counts():
    # classical counts of connected graphs up to isomorphism (OEIS A001349)
    expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
    for n, count in expected.items():
        graphs = connected_graphs_up_to_iso(n)
        assert len(graphs) == count
        assert all(g.num_vertices == n and is_connected(g) for g in graphs)
    for n in (0, 9):
        with pytest.raises(GraphError, match="covers 1 to 8 vertices"):
            connected_graphs_up_to_iso(n)


def test_catalog_up_to_seven_vertices_is_the_atlas():
    # the connected graphs of networkx's atlas, in atlas order and with the
    # atlas labels
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    for n in range(1, 8):
        atlas = [
            from_edges(n, g.edges()) for g in graph_atlas_g()
            if g.number_of_nodes() == n and (n == 1 or nx.is_connected(g))
        ]
        assert connected_graphs_up_to_iso(n) == atlas, n


def test_eight_vertex_catalog_sample_is_pairwise_non_isomorphic():
    # the script checks the whole block; here a seeded sample, compared
    # pair by pair where the degree sequences agree
    import networkx as nx

    sample = random.Random(8).sample(connected_graphs_up_to_iso(8), 300)
    by_degrees = {}
    for g in sample:
        key = tuple(sorted(g.degree(v) for v in range(8)))
        by_degrees.setdefault(key, []).append(nx.Graph(g.edges()))
    pairs = 0
    for graphs in by_degrees.values():
        for a, b in itertools.combinations(graphs, 2):
            pairs += 1
            assert not nx.is_isomorphic(a, b), (list(a.edges()), list(b.edges()))
    assert pairs > 0


def test_catalog_file_is_read_once_for_every_size(monkeypatch):
    from graphassoc import graphs

    # pathlib's read_text opens the file through Path.open too
    opened = []
    open_path = pathlib.Path.open

    def counted(path, *args, **kwargs):
        opened.append(path.name)
        return open_path(path, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "open", counted)
    graphs._catalog.cache_clear()
    graphs._catalog_blocks.cache_clear()
    counts = [len(connected_graphs_up_to_iso(n)) for n in range(1, 9)]
    assert counts == [1, 1, 2, 6, 21, 112, 853, 11117]
    assert opened.count("catalog.txt") == 1


def test_catalog_hands_out_copies():
    graphs = connected_graphs_up_to_iso(3)
    graphs.clear()
    assert len(connected_graphs_up_to_iso(3)) == 2
