"""Fans: projective space fan, stellar subdivision, graph associahedral
fans, ray labels, f-vectors, smoothness, completeness, order-independence."""

import gc
import hashlib
import itertools
import json
import math
import random
import re

import pytest

from graphassoc import (
    Fan,
    FanError,
    Ray,
    build_graph_fan,
    connected_graphs_up_to_iso,
    f_vector,
    is_complete,
    is_smooth,
    parse_graph,
    proper_tubes,
    verify_fan_tubing_bijection,
)
from graphassoc import fans
from graphassoc.fans import fan_to_json
from oracles import (
    VectorRay,
    canonical_form,
    coords_of,
    crossed_p3_fan,
    det,
    face_counts,
    first_non_laminar,
    make_ray,
    primitive_sum,
    projective_simplex_fan,
    reference_lane_masks,
    scan_graph_fan,
    subdivide,
    support_of,
    walk_per_cone,
)


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def test_ray_validation():
    # the oracle's ray type of hand-built fans refuses the zero ray and rays
    # that are not primitive; a signed 0/1 vector becomes the package's Ray
    with pytest.raises(FanError):
        VectorRay((0, 0), 1)
    with pytest.raises(FanError):
        VectorRay((2, 4), 1)
    with pytest.raises(FanError):
        make_ray((0, 0), 1)
    VectorRay((1, -2), 1)
    assert make_ray((1, -2), 1) == VectorRay((1, -2), 1)
    assert make_ray((0, -1, -1), 1) == Ray(0b110, -1, 1)
    assert coords_of(Ray(0b110, -1, 1), 3) == (0, -1, -1)


def test_projective_simplex_fan():
    f = projective_simplex_fan(2)
    assert len(f.rays) == 3
    assert coords_of(f.rays[0], 2) == (-1, -1)
    assert len(f.max_cones) == 3
    assert is_smooth(f) and is_complete(f)
    with pytest.raises(FanError):
        projective_simplex_fan(0)


def test_stellar_subdivide_square_example():
    # subdividing one cone of the P^2 fan yields the 4-cone fan of a
    # Hirzebruch-like blowup: one extra ray, one extra maximal cone
    f = projective_simplex_fan(2)
    cones = subdivide(list(f.max_cones), 0b110, 1 << 3)
    g = Fan(2, f.rays + (primitive_sum(f.rays, 2, (1, 2), 0b110),), tuple(cones))
    assert len(g.rays) == 4
    assert coords_of(g.rays[3], 2) == (1, 1)
    assert len(g.max_cones) == 4
    assert is_smooth(g) and is_complete(g)
    with pytest.raises(FanError):
        subdivide(cones, 0b110, 1 << 4)  # that cone no longer exists


def test_stellar_subdivide_rejects_rays_spanning_no_cone():
    # the scan oracle's guard against subdividing at a cone that is already
    # gone; the rays of tubes {0,1} and {1,2} of P3 overlap without
    # nesting, so they span no cone of its fan
    f = build_graph_fan(parse_graph("P3"))
    ray = {r.label: i for i, r in enumerate(f.rays)}
    face = 1 << ray[0b011] | 1 << ray[0b110]
    with pytest.raises(FanError, match="do not span a cone"):
        subdivide(list(f.max_cones), face, 1 << len(f.rays))


def _differential_graphs():
    for n in range(2, 7):
        yield from connected_graphs_up_to_iso(n)
    for spec in ["D2", "D3", "D4", "D5", "P8", "C8", "S8", "K7"]:
        yield parse_graph(spec)


def test_build_matches_the_scan_oracle():
    # the subset recursion and the subdivision scan give the same rays, in
    # the same order with the same labels, and the same maximal cones
    for g in _differential_graphs():
        for seed in (None, 11):
            rng = None if seed is None else random.Random(seed)
            f = build_graph_fan(g, rng=rng)
            rng = None if seed is None else random.Random(seed)
            oracle = scan_graph_fan(g, rng=rng)
            assert f.dim == oracle.dim, (g, seed)
            assert f.rays == oracle.rays, (g, seed)
            assert sorted(f.max_cones) == sorted(oracle.max_cones), (g, seed)


def test_build_leaves_no_cyclic_garbage():
    # a memo reachable from a reference cycle would outlive the build until
    # the cyclic collector ran, holding every cone list of the recursion
    gc.collect()
    gc.disable()
    try:
        for spec in ["C6", "K5", "S6", "P7"]:
            build_graph_fan(parse_graph(spec))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "spec,fvec",
    [
        ("P3", (5, 5)),
        ("K3", (6, 6)),
        ("K4", (14, 36, 24)),
        ("P4", (9, 21, 14)),
    ],
)
def test_known_f_vectors(spec, fvec):
    f = build_graph_fan(parse_graph(spec))
    assert f_vector(f) == fvec


def test_path_fans_count_catalan():
    for m in range(2, 8):
        f = build_graph_fan(parse_graph(f"P{m}"))
        assert len(f.max_cones) == catalan(m), m


def test_complete_fans_count_factorial():
    for m in range(2, 7):
        f = build_graph_fan(parse_graph(f"K{m}"))
        assert len(f.max_cones) == math.factorial(m), m


def test_ray_labels_and_lookup():
    # each ray is labelled by its tube, vertex ray i by the singleton 1 << i
    g = parse_graph("P3")
    f = build_graph_fan(g)
    ray = {r.label: i for i, r in enumerate(f.rays)}
    assert ray[0b001] == 0
    assert ray[0b010] == 1
    assert 0b101 not in ray  # not a tube, never a ray
    assert sorted(ray) == sorted(proper_tubes(g))


def test_tube_ray_coordinates():
    # the ray of a tube is the primitive sum of its vertex rays
    f = build_graph_fan(parse_graph("P3"))
    ray = {r.label: i for i, r in enumerate(f.rays)}
    coords = [r["coords"] for r in fan_to_json(f)["rays"]]
    i = ray[0b110]  # vertices 1, 2 with basis rays e_1, e_2
    assert f.rays[i] == Ray(0b11, 1, 0b110) and coords[i] == [1, 1]
    j = ray[0b011]  # vertices 0, 1: (-1,-1) + (1,0)
    assert f.rays[j] == Ray(0b10, -1, 0b011) and coords[j] == [0, -1]


def test_build_graph_fan_rejects():
    from graphassoc import GraphError, from_edges

    with pytest.raises(GraphError, match="at least 2 vertices"):
        build_graph_fan(parse_graph("K1"))

    with pytest.raises(GraphError):
        build_graph_fan(from_edges(4, [(0, 1)]))


def test_discrete_graph_fan_is_projective_space():
    f = build_graph_fan(parse_graph("D4"))
    assert canonical_form(f) == canonical_form(projective_simplex_fan(3))


def test_order_independence_with_seeds():
    for spec in ["K4", "P5", "C5", "S5", "cone^2(D2)"]:
        g = parse_graph(spec)
        base = canonical_form(build_graph_fan(g))
        for seed in range(5):
            shuffled = build_graph_fan(g, rng=random.Random(seed))
            assert canonical_form(shuffled) == base, (spec, seed)


def test_smooth_and_complete_small_sweep():
    for n in range(2, 6):
        for g in connected_graphs_up_to_iso(n):
            f = build_graph_fan(g)
            assert is_smooth(f), g.edges()
            assert is_complete(f), g.edges()


def _not_laminar(c):
    return re.escape(f"cone {fans.bits_of(c)} is not laminar")


def _has_vector_rays(f):
    return any(isinstance(r, VectorRay) for r in f.rays)


def _refused(f):
    """The per-cone walk's checks of a fan with a cone that is not laminar,
    which the package refuses, naming its first such cone; a fan with a ray
    that is no signed 0/1 vector is the oracle's alone."""
    c = first_non_laminar(f)
    assert c is not None
    if not _has_vector_rays(f):
        with pytest.raises(FanError, match=_not_laminar(c)):
            is_smooth(f)
    return walk_per_cone(f)


def test_is_smooth_detects_singular_cone():
    # a cone of determinant 2, read by the per-cone walk, since (1,2) is no
    # signed 0/1 vector
    rays = (
        make_ray((1, 0), 0b001),
        make_ray((1, 2), 0b010),
        make_ray((-1, -1), 0b100),
    )
    f = Fan(2, rays, (0b011, 0b110, 0b101))
    assert _has_vector_rays(f)
    assert not _refused(f).smooth


def _one_cone_fan(*rows):
    rays = tuple(make_ray(r, 1 << i) for i, r in enumerate(rows))
    return Fan(len(rows), rays, ((1 << len(rows)) - 1,))


def test_is_smooth_singular_laminar_cone():
    # {0,1} inside {0,1,2}, and {2} inside it too: rem({0,1}) is not a singleton
    assert not is_smooth(_one_cone_fan((1, 1, 0), (1, 1, 1), (0, 0, 1)))


def test_is_smooth_equal_supports():
    # u and -u share their support, so the rows are dependent
    assert not is_smooth(_one_cone_fan((1, 1, 0), (-1, -1, 0), (0, 0, 1)))


def test_is_smooth_non_laminar_cone_takes_bareiss():
    # only the per-cone walk reads these, by a Bareiss determinant
    # {0,1}, {0,2}, {1,2} cross pairwise; det 2
    assert not _refused(_one_cone_fan((1, 1, 0), (1, 0, 1), (0, 1, 1))).smooth
    # {0,1} and {1,2} cross; det 1
    assert _refused(_one_cone_fan((1, 1, 0), (0, 1, 1), (0, 0, 1))).smooth


def test_is_smooth_mixed_sign_ray_takes_bareiss():
    assert support_of((1, -1, 0)) is None
    assert _refused(_one_cone_fan((1, -1, 0), (0, 1, 0), (0, 0, 1))).smooth
    assert not _refused(_one_cone_fan((1, -1, 0), (1, 1, 0), (0, 0, 1))).smooth  # det 2


def test_is_smooth_matches_det_on_every_cone_of_rays():
    # every d-subset of the rays of four graph fans, smooth or not, laminar
    # or not, judged as a one-cone fan against the Bareiss determinant: by
    # is_smooth when laminar, else by the per-cone walk, after is_smooth
    # has refused it
    verdicts = set()
    for spec in ["P4", "C5", "K4", "S5"]:
        f = build_graph_fan(parse_graph(spec))
        for c in itertools.combinations(range(len(f.rays)), f.dim):
            rows = [coords_of(f.rays[i], f.dim) for i in c]
            expected = abs(det([list(r) for r in rows])) == 1
            g = _one_cone_fan(*rows)
            laminar = first_non_laminar(g) is None
            smooth = is_smooth(g) if laminar else _refused(g).smooth
            assert smooth == expected, (spec, c)
            verdicts.add((laminar, expected))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_is_complete_detects_missing_cone():
    f = projective_simplex_fan(2)
    g = Fan(2, f.rays, f.max_cones[:-1])
    assert not is_complete(g)


def test_is_complete_detects_a_facet_in_three_cones():
    # a cone listed twice puts each of its facets in three maximal cones
    f = projective_simplex_fan(2)
    assert not is_complete(Fan(2, f.rays, f.max_cones + f.max_cones[:1]))


def _cycle_fan(*coords):
    """2-d fan with a cone between each ray and the next, cyclically."""
    rays = tuple(make_ray(r, 1 << i) for i, r in enumerate(coords))
    m = len(coords)
    return Fan(2, rays, tuple(1 << i | 1 << (i + 1) % m for i in range(m)))


def test_is_complete_rejects_the_pentagram():
    # five steps round the origin, twice round in all; the step from (1,1)
    # to (-1,-1) is a flat cone.  Every ray lies in two cones.  The ray
    # (-1,1) is no signed 0/1 vector, so only the per-cone walk reads it.
    checks = _refused(_cycle_fan((1, 0), (-1, 1), (0, -1), (1, 1), (-1, -1)))
    assert not checks.complete
    assert not checks.smooth


def test_is_complete_rejects_a_star_wound_twice():
    # the {5/2} star: five full-dimensional cones, every wall with one cone
    # on each side, yet every generic point lies in two cones; read by the
    # per-cone walk, as its rays are no signed 0/1 vectors
    f = _cycle_fan((1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3))
    checks = _refused(f)
    assert not checks.complete
    assert checks.h == (2, 1, 2)


def test_is_complete_rejects_the_doubled_square():
    # e1, e2, -e1, -e2, each listed twice under distinct labels, wound round
    # twice: smooth, every wall matched, degree 2
    f = _cycle_fan((1, 0), (0, 1), (-1, 0), (0, -1), (1, 0), (0, 1), (-1, 0), (0, -1))
    assert is_smooth(f)
    assert not is_complete(f)
    assert f._checks.h == (2, 4, 2)


def test_weighted_projective_plane_is_complete_not_smooth():
    # the fan of P(1,1,2): one cone of determinant 2, taken by Bareiss in
    # the per-cone walk, since (-1,-2) is no signed 0/1 vector
    checks = _refused(_cycle_fan((1, 0), (0, 1), (-1, -2)))
    assert checks.complete
    assert not checks.smooth
    assert checks.h == (1, 1, 1)  # the f-vector (3, 3)


def test_is_complete_rejects_a_flat_cone():
    # the flat cone over (1,0) and (-1,0) puts each ray in two cones, and
    # the lower half plane is covered by none
    f = _cycle_fan((1, 0), (-1, 0), (0, 1))
    assert not is_complete(f)


def test_f_vector_of_a_fan_that_is_not_complete_raises():
    f = projective_simplex_fan(2)
    with pytest.raises(FanError, match="complete"):
        f_vector(Fan(2, f.rays, f.max_cones[:-1]))


def test_f_vector_matches_the_face_count_oracle():
    # every connected graph on at most 6 vertices, and the discrete ones;
    # h is palindromic with h_0 = h_d = 1 (Dehn-Sommerville)
    graphs = [g for n in range(2, 7) for g in connected_graphs_up_to_iso(n)]
    graphs += [parse_graph(f"D{n}") for n in range(2, 6)]
    for g in graphs:
        f = build_graph_fan(g)
        assert f_vector(f) == face_counts(f), g.edges()
        h = f._checks.h
        assert h[0] == h[-1] == 1 and h == h[::-1], g.edges()


def _hand_built_fans():
    """The hand-built fans of this file, each a corner of the walk: flat,
    crossing and unimodular cones, rays that are no signed 0/1 vectors,
    walls that fail, and h with no walls (the one-cone and the empty
    fans)."""
    p2 = projective_simplex_fan(2)
    fans_ = [
        _cycle_fan((1, 0), (-1, 1), (0, -1), (1, 1), (-1, -1)),  # pentagram
        _cycle_fan((1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)),  # {5/2} star
        # the doubled square
        _cycle_fan((1, 0), (0, 1), (-1, 0), (0, -1), (1, 0), (0, 1), (-1, 0), (0, -1)),
        _cycle_fan((1, 0), (0, 1), (-1, -2)),  # P(1,1,2)
        _cycle_fan((1, 0), (-1, 0), (0, 1)),  # flat cone
        Fan(2, p2.rays, p2.max_cones[:-1]),  # missing cone
        Fan(2, p2.rays, p2.max_cones + p2.max_cones[:1]),  # duplicated cone
        # a cone of determinant 2
        Fan(2, tuple(map(make_ray, ((1, 0), (1, 2), (-1, -1)), (1, 2, 4))), (0b011, 0b110, 0b101)),
        Fan(2, p2.rays, ()),
        # the line, and the line with its negative half covered twice: the
        # facet 0 lies once on one side and twice on the other
        Fan(1, (Ray(1, 1, 1), Ray(1, -1, 2)), (1, 2)),
        Fan(1, (Ray(1, 1, 1), Ray(1, -1, 2), Ray(1, -1, 4)), (1, 2, 4)),
        crossed_p3_fan(),
    ]
    rows = [
        ((1, 1, 0), (1, 1, 1), (0, 0, 1)),
        ((1, 1, 0), (-1, -1, 0), (0, 0, 1)),
        ((1, 1, 0), (1, 0, 1), (0, 1, 1)),
        ((1, 1, 0), (0, 1, 1), (0, 0, 1)),
        ((1, -1, 0), (0, 1, 0), (0, 0, 1)),
        ((1, -1, 0), (1, 1, 0), (0, 0, 1)),
    ]
    f = build_graph_fan(parse_graph("P4"))
    for c in itertools.combinations(range(len(f.rays)), 3):
        rows.append(tuple(coords_of(f.rays[i], f.dim) for i in c))
    return fans_ + [_one_cone_fan(*r) for r in rows]


def _walk_matches(f):
    """fans._walk equals the per-cone walk on a laminar fan and refuses any
    other fan of the package's rays at its first cone that is not laminar;
    True if f is laminar.  A fan with a ray that is no signed 0/1 vector is
    not laminar and is the oracle's alone."""
    c = first_non_laminar(f)
    if _has_vector_rays(f):
        assert c is not None
    elif c is None:
        assert fans._walk(f) == walk_per_cone(f), (f.dim, f.max_cones)
    else:
        with pytest.raises(FanError, match=_not_laminar(c)):
            fans._walk(f)
    return c is None


def _reordered(f, rng):
    cones = list(f.max_cones)
    rng.shuffle(cones)
    return [Fan(f.dim, f.rays, f.max_cones[::-1]), Fan(f.dim, f.rays, tuple(cones))]


def test_walk_matches_the_per_cone_walk():
    # the ray sweep against the per-cone walk it replaced, on graph fans, on
    # the same fans with their cones reordered, and on the hand-built fans
    graphs = [g for n in range(2, 7) for g in connected_graphs_up_to_iso(n)]
    graphs += [parse_graph(f"D{n}") for n in range(2, 6)]
    rng = random.Random(15)
    cases = _hand_built_fans()
    for g in graphs:
        f = build_graph_fan(g)
        assert first_non_laminar(f) is None, g.edges()
        cases += [f] + _reordered(f, rng)
    assert {_walk_matches(f) for f in cases} == {True, False}
    assert fans._walk(Fan(2, projective_simplex_fan(2).rays, ())).h is None


def test_walk_on_a_graph_fan_matches_the_walk_without_its_graph():
    # the tube pass stands in for the support pass on a fan that carries its
    # graph; the same rays and cones without the graph take the support pass
    for n in range(2, 7):
        for g in connected_graphs_up_to_iso(n):
            f = build_graph_fan(g)
            bare = Fan(f.dim, f.rays, f.max_cones)
            assert f.graph is g and bare.graph is None
            assert fans._walk(f) == fans._walk(bare) == walk_per_cone(f), g.edges()


def test_a_laminar_cone_of_clashing_tubes_keeps_the_walk_of_its_supports():
    # tubes {0, 1, 2} and {1, 2, 3} of P4 overlap, but their supports {2}
    # and {0, 1, 2} are nested: the tube pass finds a clash there, and the
    # support pass lets the walk go on, to the answers of the fan without
    # its graph; the bijection has no tubing for that cone
    g = parse_graph("P4")
    f = build_graph_fan(g)
    ray = {r.label: i for i, r in enumerate(f.rays)}
    assert f.rays[ray[0b0111]] == Ray(0b100, -1, 0b0111)
    assert f.rays[ray[0b1110]] == Ray(0b111, 1, 0b1110)
    clash = 1 << ray[0b0111] | 1 << ray[0b1110] | 1 << ray[0b0010]
    for cones in ((clash,) + f.max_cones[1:], f.max_cones + (clash,)):
        damaged = Fan(f.dim, f.rays, cones, g)
        bare = Fan(f.dim, f.rays, cones)
        assert first_non_laminar(damaged) is None and damaged._tube_clashes
        assert fans._walk(damaged) == fans._walk(bare) == walk_per_cone(bare)
        assert is_smooth(damaged) and not is_complete(damaged)
        report = verify_fan_tubing_bijection(g, damaged)
        assert report.failure == f"cone {fans.bits_of(clash)} has no tubing partner"


def test_a_crossed_cone_is_refused_with_or_without_the_graph():
    # tubes {0, 1} and {1, 2} of P4 clash and their supports {1, 2} and
    # {0, 1} cross; a ray of {3} moved onto the support {0, 1} crosses the
    # support of {0, 1} in cones whose tubes are compatible, which only the
    # check of each ray against its label's closed form catches
    g = parse_graph("P4")
    f = build_graph_fan(g)
    ray = {r.label: i for i, r in enumerate(f.rays)}
    crossed = 1 << ray[0b0011] | 1 << ray[0b0110] | 1 << ray[0b1000]
    moved = list(f.rays)
    moved[ray[0b1000]] = Ray(0b011, 1, 0b1000)
    cases = [(f.rays, (crossed,) + f.max_cones), (f.rays, f.max_cones + (crossed,))]
    cases.append((tuple(moved), f.max_cones))
    for rays, cones in cases:
        c = first_non_laminar(Fan(f.dim, rays, cones))
        assert c is not None
        for damaged in (Fan(f.dim, rays, cones, g), Fan(f.dim, rays, cones)):
            with pytest.raises(FanError, match=_not_laminar(c)):
                is_smooth(damaged)
    assert not Fan(f.dim, tuple(moved), f.max_cones, g)._tube_clashes


def test_a_cone_without_d_rays_is_neither_smooth_nor_complete():
    # the P4 fan with its first cone cut to two rays, each of three ways,
    # or padded with a fourth ray laminar with its three: both walks stop
    # at that cone
    f = build_graph_fan(parse_graph("P4"))
    first, rest = f.max_cones[0], f.max_cones[1:]
    assert fans.bits_of(first) == [2, 4, 7] and f.rays[5] == Ray(0b111, 1, 0b1110)
    for c in [first ^ 1 << i for i in fans.bits_of(first)] + [first | 1 << 5]:
        damaged = Fan(f.dim, f.rays, (c,) + rest)
        assert first_non_laminar(damaged) is None
        assert not is_smooth(damaged) and not is_complete(damaged)
        assert fans._walk(damaged) == walk_per_cone(damaged) == (False, False, None)


def test_lane_masks_match_the_reference():
    # the bit-block transpose against the per-cone one: random cones over
    # ray counts around whole bytes and words, and cone counts around whole
    # 8-cone words and the 4096-cone join blocks; every graph fan on at most
    # 6 vertices; the five fans of the fan-build benchmark, shuffled
    rng = random.Random(31)
    cases = [
        ([rng.getrandbits(num_rays) for _ in range(count)], num_rays)
        for num_rays in (1, 7, 8, 9, 63, 64, 65, 126, 254)
        for count in (0, 1, 7, 8, 9, 4095, 4096, 4097)
    ]
    graphs = [g for n in range(2, 7) for g in connected_graphs_up_to_iso(n)]
    for f in [build_graph_fan(g) for g in graphs] + [
        build_graph_fan(parse_graph(spec), rng=random.Random(seed))
        for seed, spec in enumerate(("P10", "C9", "S8", "S7", "K7"))
    ]:
        cases.append((f.max_cones, len(f.rays)))
    for cones, num_rays in cases:
        assert fans._lane_masks(cones, num_rays) == reference_lane_masks(cones, num_rays), (num_rays, len(cones))


@pytest.mark.parametrize("last", [0b10000101, 1 << 20 | 1])
def test_a_cone_with_a_ray_the_fan_lacks_is_refused(last):
    # the P^2 fan with rays 0..2 and its last cone {0, 2, 7}, whose ray 7
    # sits in the spare bits of the cones' one byte, or {0, 20}, past it
    rays = (Ray(1, 1, 0), Ray(2, 1, 0), Ray(3, -1, 0))
    message = re.escape(f"cone {fans.bits_of(last)} names a ray the fan does not have")
    for check in (is_smooth, is_complete, lambda f: fans.first_clash(f, 0b111, [0b111] * 3)):
        with pytest.raises(FanError, match=message):
            check(Fan(2, rays, (0b011, 0b110, last)))


def test_walk_matches_the_per_cone_walk_on_damaged_fans():
    # graph fans with a cone dropped, doubled, or replaced by another set of
    # d rays: walls fail, or a cone is singular or crossing, among many
    # laminar cones
    rng = random.Random(16)
    laminar = set()
    for spec in ["P5", "C5", "K4", "S5", "cone^2(D2)"]:
        f = build_graph_fan(parse_graph(spec))
        for _ in range(6):
            cones = list(f.max_cones)
            k = rng.randrange(len(cones))
            new = sum(1 << i for i in rng.sample(range(len(f.rays)), f.dim))
            dropped, doubled = cones[:k] + cones[k + 1:], cones + [cones[k]]
            for damaged in (dropped, doubled, cones[:k] + [new] + cones[k + 1:]):
                laminar.add(_walk_matches(Fan(f.dim, f.rays, tuple(damaged))))
    assert laminar == {True, False}


@pytest.mark.parametrize("spec", ["S7", "K7"])
def test_walk_matches_the_per_cone_walk_on_damaged_wide_fans(spec):
    # fans of 69 and 126 rays, whose facets pass the 61-bit hash modulus and
    # one and two 64-bit words: intact, and with a cone dropped, doubled, or
    # replaced by another of its cones (the walls fail among laminar cones)
    # or by a random set of d rays
    rng = random.Random(33)
    f = build_graph_fan(parse_graph(spec))
    assert len(f.rays) > 64 and _walk_matches(f)
    for _ in range(3):
        cones = list(f.max_cones)
        k, j = rng.sample(range(len(cones)), 2)
        for damaged in (cones[:k] + cones[k + 1:], cones + [cones[k]], cones[:k] + [cones[j]] + cones[k + 1:]):
            damaged = Fan(f.dim, f.rays, tuple(damaged))
            assert fans._walk(damaged) == walk_per_cone(damaged) == (True, False, None)
        new = sum(1 << i for i in rng.sample(range(len(f.rays)), f.dim))
        _walk_matches(Fan(f.dim, f.rays, tuple(cones[:k] + [new] + cones[k + 1:])))


def test_walk_matches_the_per_cone_walk_on_blown_up_fans():
    # complete smooth fans of other shapes than graph fans: random stellar
    # subdivisions of P^d and of (P^1)^d, whose rays (sums of signed unit
    # vectors) are signed 0/1 vectors or not, and their images under
    # x -> -(x_{d-1}, ..., x_0), where negative rays lie inside positive
    # supports; every h is compared.  The second run draws each face again
    # until the fan stays laminar, so that the sweep reads every step.
    laminar = []
    for seed, stay_laminar in ((17, False), (18, True)):
        rng = random.Random(seed)
        for d in (2, 3, 4):
            unit = [tuple(int(j == i) for j in range(d)) for i in range(d)]
            cross = tuple(make_ray(u, 1 << i) for i, u in enumerate(unit))
            cross += tuple(make_ray(tuple(-x for x in u), 1 << i) for i, u in enumerate(unit))
            signs = itertools.product((0, d), repeat=d)
            cross_cones = tuple(sum(1 << (i + s) for i, s in enumerate(ss)) for ss in signs)
            for start in (projective_simplex_fan(d), Fan(d, cross, cross_cones)):
                f = start
                for _ in range(8):
                    for _ in range(100):
                        c = rng.choice(f.max_cones)
                        face = rng.sample(fans.bits_of(c), rng.randrange(2, d + 1))
                        m = sum(1 << i for i in face)
                        cones = subdivide(list(f.max_cones), m, 1 << len(f.rays))
                        g = Fan(d, f.rays + (primitive_sum(f.rays, d, face, m),), tuple(cones))
                        if not stay_laminar or first_non_laminar(g) is None:
                            break
                    f = g
                    checks = walk_per_cone(f)
                    assert checks.complete and checks.smooth
                    flipped = tuple(
                        make_ray(tuple(-x for x in coords_of(r, d)[::-1]), r.label) for r in f.rays
                    )
                    for g in (f, Fan(d, flipped, f.max_cones)):
                        laminar.append(_walk_matches(g))
    assert laminar.count(False) > 0 and laminar.count(True) > 48


def test_det():
    # the oracle's Bareiss determinant
    assert det([[1, 0], [0, 1]]) == 1
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[2, 0], [0, 3]]) == 6
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[0, 1, 2], [1, 0, 3], [4, 5, 0]]) == 22  # zero pivot path


def test_fan_to_json():
    js = fan_to_json(build_graph_fan(parse_graph("P3")))
    assert js["dim"] == 2
    labels = [r["label"] for r in js["rays"]]
    assert {"vertex": 0} in labels
    assert {"tube": [0, 1]} in labels
    assert all(len(c) == 2 for c in js["max_cones"])


# SHA-256 of the sorted-key JSON of each fan, recorded before the bitmask
# subdivision loop replaced the tuple-based one: ray order, labels and cone
# order must stay byte-identical.
PINNED_FANS = {
    ("P7", None): "7ec0626905d0ce5882a79e6b7a9a903772ffa6d5229b7297f894e68d0e7b2955",
    ("C7", None): "c285c70a6f090f9aded16c8080e2f79c5e08bdb6f17be887cad3b7825f65e3fc",
    ("S7", None): "b7f479ac442eccda13254beb735c9605190db665aa8d4235f7096f8d6e995f64",
    ("K7", None): "b0f1398fba76e9320428540a6fdcacd8ca6403f601e0062cdf4caf699d0cbacf",
    ("S6", 3): "ffe4b009da4bce7a3560d961b6b9176eda72b0b858dd04b1ed038ea5f9a0c323",
}


@pytest.mark.parametrize("spec,seed", sorted(PINNED_FANS, key=str))
def test_fan_json_is_pinned(spec, seed):
    rng = None if seed is None else random.Random(seed)
    f = build_graph_fan(parse_graph(spec), rng=rng)
    digest = hashlib.sha256(json.dumps(fan_to_json(f), sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_FANS[(spec, seed)]
