"""The four benchmark workloads and the correctness gates on their outputs.

Each workload is a seeded list of items.  ``run`` makes, for one item, the
public calls the matching CLI command makes, in the same order, through the
tracer; ``gate`` checks that item's outputs and ``pass_gate`` the answers of
a whole pass.  A gate returns a list of problems, empty when the output is
correct.  Importing this module imports graphassoc, so the caller times it
as part of set-up.
"""

from __future__ import annotations

import math
import operator
import random
from collections import Counter

from graphassoc import (
    build_graph_fan,
    check_w1_w2,
    classify_iterated_cone,
    connected_graphs_up_to_iso,
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
    preservation_threshold,
    record_comparisons,
    remark_weights,
    verify_fan_tubing_bijection,
    w1w2_system,
)

# A pass over each workload is kept to a few seconds, so that a 25 s run
# makes several passes and times every item several times, spread over the
# run.

# Samples of the catalog, which lists graphs by edge count: one graph from
# each of k consecutive blocks keeps the mix of sparse and dense graphs.
# oracle-sweep draws its 7-vertex graphs by the seed; they are a small share
# of its items.  verify-sweep takes the middle graph of each block, so that
# every seed times the same graphs and its percentiles, each set by one or
# two of its 32 items, compare across seeds; the seed orders them.
SEVEN_VERTEX_SAMPLE = 8  # of the 853 seven-vertex graphs
SIX_VERTEX_SAMPLE = 32  # of the 112 six-vertex graphs

# Maximal-cone counts of the fan-build fans: Catalan(10) for the
# associahedron, binom(16, 8) for the cyclohedron, sum of 7!/j! and 6!/j!
# for the stellohedra, 7! for the permutohedron.
FAN_MAX_CONES = {"P10": 16796, "C9": 12870, "S8": 13700, "S7": 1957, "K7": 5040}
F_VECTOR_SPECS = ("S8", "K7")

# The four iterated cones on 5 vertices (7 marks) and the star on 6 (8
# marks): stable-tree and nodal-divisor counts.  The S6 counts are those of
# acceptance criterion 8; the 7-mark counts were read off the package and
# are cross-checked on every item, since the two-component stable trees are
# exactly the nodal divisors.
MODULI_COUNTS = {
    "S5": (150, 15),
    "cone^2(D3)": (274, 23),
    "cone^3(D2)": (378, 27),
    "K5": (466, 29),
    "S6": (1082, 31),
}

_RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "=": operator.eq}


def _ordered_partitions(n: int, k: int) -> int:
    """Ordered partitions of an n-set into k blocks (surjections onto k)."""
    return sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1))


# K7's fan is the normal fan of the 6-dimensional permutohedron: its
# j-dimensional cones are the ordered partitions of 7 into j+1 blocks.
PERMUTOHEDRON_7 = tuple(_ordered_partitions(7, k) for k in range(2, 8))


def _stratified(seq: list, k: int, rng=None) -> list:
    """One element from each of k consecutive, nearly equal blocks: drawn
    by ``rng``, or the middle one without it."""
    bounds = [len(seq) * i // k for i in range(k + 1)]
    return [
        seq[rng.randrange(lo, hi) if rng else (lo + hi) // 2]
        for lo, hi in zip(bounds, bounds[1:])
    ]


def _sign(q) -> int:
    return (q > 0) - (q < 0)


def _satisfies(system, point) -> bool:
    """The point meets every row of the system (checked here, not by the package)."""
    return all(
        _RELATIONS[row.rel](sum(a * x for a, x in zip(row.coeffs, point)), row.rhs)
        for row in system.constraints
    )


def _oracles(tr, g) -> dict:
    """The three Hassett oracles and, for yes-instances, the explicit weights."""
    cs = tr.call("graphs.classify_iterated_cone", classify_iterated_cone, g)
    system = tr.call("obstructions.w1w2_system", w1w2_system, g)
    point = tr.call("obstructions.feasible", feasible, system)
    witness = tr.call("obstructions.obstruction_a", obstruction_a, g) or tr.call(
        "obstructions.obstruction_b", obstruction_b, g
    )
    tr.count("obstructions.system_rows", len(system.constraints))
    tr.count("obstructions.feasible_yes", int(point is not None))
    if witness is not None:
        tr.count(f"obstructions.witness_{witness.kind.lower()}")
    out = {"cs": cs, "system": system, "point": point, "witness": witness}
    if cs is not None:
        w = tr.call("weights.remark_weights", remark_weights, cs, g)
        marks = tr.call("weights.mark_of_vertex", mark_of_vertex, cs)
        out["w"] = w
        out["valid"] = tr.call("weights.is_valid", is_valid, w).valid
        out["w1w2"] = tr.call("weights.check_w1_w2", check_w1_w2, g, w, marks=marks).passed
    return out


def _oracle_problems(out: dict) -> list[str]:
    problems = []
    answers = (out["cs"] is not None, out["point"] is not None, out["witness"] is None)
    if len(set(answers)) != 1:
        problems.append(
            "oracles disagree: iterated cone %s, W1/W2 feasible %s, unobstructed %s" % answers
        )
    if out["point"] is not None and not _satisfies(out["system"], out["point"]):
        problems.append(f"feasible point {out['point']} violates the W1/W2 system")
    if out["cs"] is not None and not (out["valid"] and out["w1w2"]):
        problems.append(f"explicit weights {out['w']} invalid or fail W1/W2")
    return problems


def _count_fan(tr, fan) -> None:
    tr.count("fans.rays", len(fan.rays))
    tr.count("fans.max_cones", len(fan.max_cones))


class Workload:
    """A seeded list of ``(item_id, payload)`` items plus the calls and gates
    for one item.  Subclasses define ``make_items``, ``run`` and ``gate``."""

    name = ""

    def __init__(self, seed: int, tr):
        self.items = self.make_items(random.Random(seed), tr)

    def pass_gate(self, done: list) -> list[str]:
        """Problems with the answers of a whole pass; ``done`` holds
        ``(payload, output)`` for every item that returned."""
        return []


class OracleSweep(Workload):
    """`classify` over the catalog, as in acceptance criterion 2."""

    name = "oracle-sweep"

    def make_items(self, rng, tr):
        items = []
        for n in range(3, 8):
            graphs = tr.call("graphs.connected_graphs_up_to_iso", connected_graphs_up_to_iso, n)
            picked = range(len(graphs))
            if n == 7:
                picked = _stratified(picked, SEVEN_VERTEX_SAMPLE, rng)
            items += [(f"{n}v#{i}", (n, graphs[i])) for i in picked]
        rng.shuffle(items)
        return items

    def run(self, tr, payload):
        return _oracles(tr, payload[1])

    def gate(self, payload, out):
        return _oracle_problems(out)

    def pass_gate(self, done):
        yes = Counter(n for (n, _), out in done if out["cs"] is not None)
        problems = [
            f"{yes[n]} yes-instances on {n} vertices, expected {n - 1}"
            for n in range(3, 7)
            if yes[n] != n - 1
        ]
        if yes[7] > 6:
            problems.append(f"{yes[7]} sampled yes-instances on 7 vertices, at most 6 exist")
        return problems


class VerifySweep(Workload):
    """`verify --all-up-to 6` on a fixed sample of its 6-vertex graphs."""

    name = "verify-sweep"

    def make_items(self, rng, tr):
        graphs = tr.call("graphs.connected_graphs_up_to_iso", connected_graphs_up_to_iso, 6)
        picked = _stratified(range(len(graphs)), SIX_VERTEX_SAMPLE)
        items = [(f"6v#{i}", graphs[i]) for i in picked]
        rng.shuffle(items)
        return items

    def run(self, tr, g):
        fan = tr.call("fans.build_graph_fan", build_graph_fan, g)
        _count_fan(tr, fan)
        out = {
            "smooth": tr.call("fans.is_smooth", is_smooth, fan),
            "complete": tr.call("fans.is_complete", is_complete, fan),
        }
        bijection = tr.call(
            "tubings.verify_fan_tubing_bijection", verify_fan_tubing_bijection, g, fan
        )
        tr.count("tubings.tubings", sum(bijection.counts))
        out["bijection"] = bijection
        out.update(_oracles(tr, g))
        if out["cs"] is not None:
            out["corr"] = tr.call(
                "moduli.divisor_tube_correspondence", divisor_tube_correspondence, g, out["w"]
            )
        return out

    def gate(self, g, out):
        problems = _oracle_problems(out)
        problems += [f"fan is not {p}" for p in ("smooth", "complete") if not out[p]]
        if not out["bijection"].passed:
            problems.append(f"fan/tubing bijection: {out['bijection'].failure}")
        corr = out.get("corr")
        if corr is not None and not corr.passed:
            problems.append(f"divisor/tube correspondence: {corr.detail or corr}")
        return problems

    def pass_gate(self, done):
        yes = sum(out["cs"] is not None for _, out in done)
        return [] if yes <= 5 else [f"{yes} sampled yes-instances on 6 vertices, at most 5 exist"]


class FanBuild(Workload):
    """`fan <G>` (with `--f-vector` on S8 and K7) on five fans of 10^3-10^4 cones."""

    name = "fan-build"

    def make_items(self, rng, tr):
        # A fixed item order keeps peak RSS, which depends on the order the
        # large fans are allocated in, a property of the code, not the seed.
        return [
            (spec, (spec, tr.call("graphs.parse_graph", parse_graph, spec), rng.randrange(2**32)))
            for spec in FAN_MAX_CONES
        ]

    def run(self, tr, payload):
        spec, g, order_seed = payload
        fan = tr.call("fans.build_graph_fan", build_graph_fan, g, rng=random.Random(order_seed))
        _count_fan(tr, fan)
        return {
            "rays": len(fan.rays),
            "max_cones": len(fan.max_cones),
            "smooth": tr.call("fans.is_smooth", is_smooth, fan),
            "complete": tr.call("fans.is_complete", is_complete, fan),
            "f_vector": tr.call("fans.f_vector", f_vector, fan) if spec in F_VECTOR_SPECS else None,
        }

    def gate(self, payload, out):
        spec = payload[0]
        problems = [f"fan is not {p}" for p in ("smooth", "complete") if not out[p]]
        if out["max_cones"] != FAN_MAX_CONES[spec]:
            problems.append(f"{out['max_cones']} maximal cones, expected {FAN_MAX_CONES[spec]}")
        fv = out["f_vector"]
        if fv is not None:
            # a complete simplicial fan in R^d triangulates the (d-1)-sphere
            euler = sum((-1) ** j * f for j, f in enumerate(fv))
            if (fv[0], fv[-1], euler) != (out["rays"], out["max_cones"], 1 + (-1) ** (len(fv) - 1)):
                problems.append(f"f-vector {fv} is not that of a complete fan with these cones")
            if spec == "K7" and tuple(fv) != PERMUTOHEDRON_7:
                problems.append(f"f-vector {fv}, expected the permutohedron's {PERMUTOHEDRON_7}")
        return problems


class ModuliTrees(Workload):
    """`moduli <G>` on the four 7-mark iterated cones and the 8-mark star,
    with the eps check of acceptance criterion 8."""

    name = "moduli-trees"

    def make_items(self, rng, tr):
        items = [(spec, (spec, tr.call("graphs.parse_graph", parse_graph, spec))) for spec in MODULI_COUNTS]
        rng.shuffle(items)
        return items

    def run(self, tr, payload):
        g = payload[1]
        cs = tr.call("graphs.classify_iterated_cone", classify_iterated_cone, g)
        w = tr.call("weights.remark_weights", remark_weights, cs, g)
        with record_comparisons() as rec:
            trees = tr.call("moduli.enumerate_stable_trees", enumerate_stable_trees, w, w.n - 2)
            divisors = tr.call("moduli.nodal_divisors", nodal_divisors, w)
            corr = tr.call(
                "moduli.divisor_tube_correspondence", divisor_tube_correspondence, g, w
            )
        eps0 = tr.call("epsrational.preservation_threshold", preservation_threshold, rec.pairs)
        tr.count("moduli.trees", len(trees))
        tr.count("moduli.divisors", len(divisors))
        tr.count("epsrational.comparisons", len(rec.pairs))
        return {"trees": trees, "divisors": len(divisors), "corr": corr, "eps0": eps0, "pairs": rec.pairs}

    def gate(self, payload, out):
        spec = payload[0]
        trees, divisors = MODULI_COUNTS[spec]
        problems = []
        # Like the pairs below, the trees are dropped once checked.
        found = out.pop("trees")
        if (len(found), out["divisors"]) != (trees, divisors):
            problems.append(
                f"{len(found)} trees and {out['divisors']} divisors, expected {trees} and {divisors}"
            )
        two = sum(t.num_vertices == 2 for t in found)
        if two != out["divisors"]:
            problems.append(f"{two} two-component trees but {out['divisors']} nodal divisors")
        corr = out["corr"]
        if not corr.passed or corr.num_rays != corr.num_divisors + corr.k:
            problems.append(f"rays != divisors + k: {corr}")
        eps0 = out["eps0"]
        if eps0 is None or eps0 <= 0:
            return problems + [f"no positive preservation threshold: {eps0}"]
        eps = eps0 / 2
        # The pairs are dropped once checked: kept for the rest of the pass
        # they would raise peak RSS above what the package itself holds.
        for x, y in set(out.pop("pairs")):
            da, db = y.a - x.a, y.b - x.b
            if _sign(da + db * eps) != (_sign(da) or _sign(db)):
                problems.append(f"comparison {x} vs {y} flips at eps = {eps}")
                break
        return problems


WORKLOADS = {w.name: w for w in (OracleSweep, VerifySweep, FanBuild, ModuliTrees)}
