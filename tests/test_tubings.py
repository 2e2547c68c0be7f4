"""Tubing compatibility and enumeration, with counting oracles and the
fan bijection check."""

import dataclasses
import math
import random
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
from graphassoc import count_stable_trees, parse_weight_vector, tubings
from graphassoc.fans import Fan, first_clash
from graphassoc.graphs import GraphError, bits_of, cliques, from_edges, is_connected, mask_of
from graphassoc.tubings import (
    BIJECTION_MAX_VERTICES,
    BijectionReport,
    _compatibility,
    tubing_counts,
)
from oracles import compatible, enumerate_tubings, first_clash_per_cone


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


def stirling2(n, k):
    """Stirling numbers of the second kind, by S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    row = [1] + [0] * k  # S(0, .)
    for _ in range(n):
        row = [0] + [i * row[i] + row[i - 1] for i in range(1, k + 1)]
    return row[k]


def test_tubing_counts_of_complete_graphs_are_ordered_set_partitions():
    # the j-tubings of K_n are the faces of the permutohedron with j + 1
    # ordered blocks
    for n in range(2, 13):
        expected = tuple(math.factorial(j + 1) * stirling2(n, j + 1) for j in range(1, n))
        assert tubing_counts(parse_graph(f"K{n}")) == expected, n
    assert sum(tubing_counts(parse_graph("K12"))) == 28_091_567_594


def test_maximal_tubings_of_named_families_up_to_12_vertices():
    for n in range(2, 13):
        assert tubing_counts(parse_graph(f"P{n}"))[-1] == catalan(n), n
        # stellohedron: sum over k of (n-1)!/k!
        stellohedron = sum(math.factorial(n - 1) // math.factorial(k) for k in range(n))
        assert tubing_counts(parse_graph(f"S{n}"))[-1] == stellohedron, n
    for n in range(3, 13):
        # cyclohedron
        assert tubing_counts(parse_graph(f"C{n}"))[-1] == math.comb(2 * n - 2, n - 1), n
    assert tubing_counts(parse_graph("P12"))[-1] == 208_012


def test_tubing_counts_match_losev_manin_stable_trees():
    # the toric variety of K_m's associahedron, the permutohedral variety,
    # is Losev-Manin's space on m + 2 marks: j-tubings and stable trees of
    # j + 1 components are counted independently
    for m in range(2, 9):
        trees = count_stable_trees(parse_weight_vector(",".join(["1", "1"] + ["e"] * m)), m)
        counts = tubing_counts(parse_graph(f"K{m}"))
        assert counts == tuple(trees[j + 1] for j in range(1, m)), m


def test_tubing_counts_need_a_connected_graph():
    with pytest.raises(GraphError):
        tubing_counts(from_edges(4, [(0, 1), (2, 3)]))


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
    assert rep.failure == "fan is not complete"
    assert face_subset_bijection(g, tampered).passed is False


def test_bijection_fails_on_a_tube_without_a_ray():
    g = parse_graph("P4")
    f = build_graph_fan(g)
    i = next(i for i, r in enumerate(f.rays) if r.label == 0b0110)
    rays = list(f.rays)
    rays[i] = rays[i]._replace(label=0b1001)  # a non-tube, so no tube's label
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


def test_bijection_fails_on_a_cone_through_a_ray_with_no_tube():
    # an extra ray labelled {0, 3}, not a tube of P4, takes the place of the
    # ray of {0} in the first cone that uses it
    g = parse_graph("P4")
    f = build_graph_fan(g)
    extra = len(f.rays)
    first = next(c for c in f.max_cones if c & 1)
    cones = tuple(c ^ 1 | 1 << extra if c == first else c for c in f.max_cones)
    tampered = dataclasses.replace(f, rays=f.rays + (Ray(0b011, 1, 0b1001),), max_cones=cones)
    rep = verify_fan_tubing_bijection(g, tampered)
    assert rep.passed is False
    assert rep.failure == f"cone [2, 4, {extra}] has no tubing partner"
    assert face_subset_bijection(g, tampered).passed is False


def test_bijection_fails_on_a_wrong_tubing_count(monkeypatch):
    # a count off by one fails only the comparison with the f-vector
    counts = tubings.tubing_counts
    monkeypatch.setattr(tubings, "tubing_counts", lambda g: (counts(g)[0] + 1,) + counts(g)[1:])
    rep = verify_fan_tubing_bijection(parse_graph("P4"))
    assert rep.passed is False
    assert rep.failure == "f-vector (9, 21, 14) is not (10, 21, 14)"


def test_bijection_fails_on_a_maximal_tubing_below_dimension(monkeypatch):
    # no graph has a maximal tubing below the dimension (every graph
    # associahedron is simple), so isolate tube {0} of P4 in its
    # compatibility table: the tubing [[0]] is then maximal with 1 of 3
    # tubes, and the first cone that holds its ray has no tubing partner
    compatibility = tubings._compatibility

    def isolate_singleton_0(g, all_tubes):
        i = all_tubes.index(0b0001)
        compat = compatibility(g, all_tubes)
        return [0 if j == i else row & ~(1 << i) for j, row in enumerate(compat)]

    monkeypatch.setattr(tubings, "_compatibility", isolate_singleton_0)
    g = parse_graph("P4")
    f = build_graph_fan(g)
    assert f.rays[0].label == 0b0001
    # without its graph, the fan's own tube table does not stand in
    rep = verify_fan_tubing_bijection(g, dataclasses.replace(f, graph=None))
    assert rep.passed is False
    assert rep.failure == "cone [0, 2, 4] has no tubing partner"


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
    assert rep.failure == "fan has dimension 2, not 3"
    assert face_subset_bijection(g, flat).passed is True


@pytest.mark.parametrize("spec", ["P4", "C6", "K5", "S6"])
def test_one_clash_pass_per_graph(monkeypatch, spec):
    # the walk and the bijection share the fan's tube pass, in verify's order
    # and in the benchmark's; a fan built without its graph takes two
    from graphassoc import cli, fans

    passes = []
    clash_lanes = fans._clash_lanes

    def spy(lanes, compat):
        passes.append(len(compat))
        return clash_lanes(lanes, compat)

    monkeypatch.setattr(fans, "_clash_lanes", spy)
    g = parse_graph(spec)
    assert cli._verify_one(g)["ok"]
    assert len(passes) == 1
    f = build_graph_fan(g)
    assert fans.is_smooth(f) and fans.is_complete(f)
    assert verify_fan_tubing_bijection(g, f).passed
    assert len(passes) == 2
    assert verify_fan_tubing_bijection(g).passed
    assert len(passes) == 3
    bare = Fan(f.dim, f.rays, f.max_cones)
    assert fans.is_smooth(bare) and verify_fan_tubing_bijection(g, bare).passed
    assert len(passes) == 5


def _benchmark_order(g) -> bool:
    """The calls of perfbench's verify-sweep on one graph, in its order."""
    from graphassoc import (check_w1_w2, classify_iterated_cone, divisor_tube_correspondence,
                            feasible, fans, is_valid, mark_of_vertex, obstruction_a,
                            obstruction_b, remark_weights, w1w2_system)

    fan = build_graph_fan(g)
    ok = fans.is_smooth(fan) and fans.is_complete(fan)
    ok &= verify_fan_tubing_bijection(g, fan).passed
    cs = classify_iterated_cone(g)
    ok &= (feasible(w1w2_system(g)) is not None) == (cs is not None)
    ok &= ((obstruction_a(g) or obstruction_b(g)) is None) == (cs is not None)
    if cs is not None:
        w = remark_weights(cs, g)
        ok &= is_valid(w).valid and check_w1_w2(g, w, marks=mark_of_vertex(cs)).passed
        ok &= divisor_tube_correspondence(g, w).passed
    return ok


@pytest.mark.parametrize("spec", ["P4", "C6", "K5", "S6", "cone^2(D3)"])
def test_one_component_table_and_one_tube_table_per_graph(monkeypatch, spec):
    # verify's calls and the benchmark's, each in its own order, build the
    # graph's component table once, and its tube table once: the walk's,
    # which the bijection reads too
    from graphassoc import cli, fans, graphs, moduli

    tube_tables = []
    nested_or_apart = graphs.nested_or_apart

    def spy(sets, width, adj=None):
        if adj is not None:
            tube_tables.append(len(sets))
        return nested_or_apart(sets, width, adj)

    for module in (fans, tubings, moduli):
        monkeypatch.setattr(module, "nested_or_apart", spy)
    g = parse_graph(spec)
    for run in (lambda: cli._verify_one(g)["ok"], lambda: _benchmark_order(g)):
        graphs.component_table.cache_clear()
        tube_tables.clear()
        assert run()
        assert graphs.component_table.cache_info().misses == 1
        assert len(tube_tables) == 1


def test_bijection_guards():
    with pytest.raises(GraphError):
        verify_fan_tubing_bijection(parse_graph("P9"))
    with pytest.raises(GraphError):
        verify_fan_tubing_bijection(from_edges(4, [(0, 1)]))


def _isolate_singleton_0(g, all_tubes):
    """The compatibility table with tube {0} compatible with no tube."""
    i = all_tubes.index(0b0001)
    return [0 if j == i else row & ~(1 << i) for j, row in enumerate(_compatibility(g, all_tubes))]


def _damaged_fans():
    """(name, graph, fan, compatibility table): the P4 fan intact, first, so
    that the damaged fans after it share its rays but not its cones; the
    damaged fans of the bijection tests above and two more; and fans with
    some cones broken, of C6 and K5, whose bad cones are many."""
    g = parse_graph("P4")
    f = build_graph_fan(g)
    ray = {r.label: i for i, r in enumerate(f.rays)}
    relabelled = list(f.rays)
    relabelled[ray[0b0110]] = relabelled[ray[0b0110]]._replace(label=0b1001)
    crossing = mask_of(ray[t] for t in (0b0011, 0b0110, 0b1000))
    extra = len(f.rays)
    first = next(c for c in f.max_cones if c & 1)
    untubed = tuple(c ^ 1 | 1 << extra if c == first else c for c in f.max_cones)
    pairs = tuple(mask_of(ray[t] for t in tb) for tb in enumerate_tubings(g, 2))
    cut = f.max_cones[0] & f.max_cones[0] - 1  # a tubing, not a maximal one
    damaged = {
        "a maximal cone left out": dict(max_cones=f.max_cones[1:]),
        "no cones": dict(max_cones=()),
        "a cone of 2 rays": dict(max_cones=(cut,) + f.max_cones[1:]),
        "a tube without a ray": dict(rays=tuple(relabelled)),
        "crossing tubes last": dict(max_cones=f.max_cones + (crossing,)),
        "crossing tubes first": dict(max_cones=(crossing,) + f.max_cones),
        "a ray with no tube": dict(rays=f.rays + (Ray(0b011, 1, 0b1001),), max_cones=untubed),
        "tubings past the dimension": dict(dim=2, max_cones=pairs),
    }
    cases = [("P4", g, f, _compatibility)]
    cases += [
        (name, g, dataclasses.replace(f, **kw), _compatibility) for name, kw in damaged.items()
    ]
    bare = dataclasses.replace(f, graph=None)  # so that the table given is the one used
    cases.append(("tube {0} compatible with none", g, bare, _isolate_singleton_0))
    rng = random.Random(20)
    for spec in ["C6", "K5"]:
        h = build_graph_fan(parse_graph(spec))
        cones = list(h.max_cones)
        for k in range(3, len(cones), 7):  # swap a ray of every 7th cone for another
            cones[k] ^= 1 << rng.choice(bits_of(cones[k])) | 1 << rng.randrange(len(h.rays))
        broken = dataclasses.replace(h, max_cones=tuple(cones))
        cases.append((spec + " broken", parse_graph(spec), broken, _compatibility))
    return cases


def _report_pair(monkeypatch, g, f, table):
    """(passed, counts, failure) of f by the clash pass and by the per-cone
    reference in its place, with the given compatibility table."""
    out = []
    for clash in [first_clash, first_clash_per_cone]:
        with monkeypatch.context() as m:
            m.setattr(tubings, "first_clash", clash)
            m.setattr(tubings, "_compatibility", table)
            out.append(dataclasses.astuple(verify_fan_tubing_bijection(g, f)))
    return out


def test_clash_pass_matches_the_per_cone_reference_on_small_graphs(monkeypatch):
    for n in range(2, 7):
        for g in connected_graphs_up_to_iso(n):
            rep, ref = _report_pair(monkeypatch, g, build_graph_fan(g), _compatibility)
            assert rep == ref, g.edges()
            assert rep[0] is True, (g.edges(), rep)


def test_clash_pass_matches_the_per_cone_reference_on_damaged_fans(monkeypatch):
    failures = set()
    for name, g, f, table in _damaged_fans():
        rep, ref = _report_pair(monkeypatch, g, f, table)
        assert rep == ref, name
        failures.add(rep[2])
    # the intact fan passes, and the damaged ones fail in each of the ways
    assert None in failures
    assert "fan is not complete" in failures
    assert "fan has dimension 2, not 3" in failures
    assert sum("no tubing partner" in str(x) for x in failures) >= 5, failures


@pytest.mark.parametrize("spec", ["P5", "C5", "K4", "S5", "cone^2(D2)"])
def test_clash_pass_names_the_first_cone_of_the_reference_on_random_tables(spec):
    # symmetric tables: the graph's, with a few pairs flipped, and random
    # valid masks, over the fan and its cones shuffled
    rng = random.Random(20)
    g = parse_graph(spec)
    f = build_graph_fan(g)
    shuffled = dataclasses.replace(f, max_cones=tuple(rng.sample(f.max_cones, len(f.max_cones))))
    base = _compatibility(g, [r.label for r in f.rays])
    n = len(base)
    firsts = set()
    for fan in [f, shuffled] * 40:
        valid = sum(1 << i for i in range(n) if rng.random() > 0.03)
        compat = list(base)
        for _ in range(rng.randrange(4)):
            i, j = rng.sample(range(n), 2)
            compat[i] ^= 1 << j
            compat[j] ^= 1 << i
        got = first_clash(fan, valid, compat)
        assert got == first_clash_per_cone(fan, valid, compat), (valid, compat)
        firsts.add(got if got is None else fan.max_cones.index(got) > 0)
    # no clash, a clash in the first cone, and a first clash in a later one
    assert firsts == {None, False, True}
