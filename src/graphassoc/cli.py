"""Command-line front end: classify graphs, build fans, run cross-checks,
and enumerate moduli data.

Each `cmd_*` returns `(input, results, status)`, or raises; `main` alone
writes the report, reports errors and picks the exit code.

`verify` runs the stages of VERIFY_STAGES in order: the fan (smooth,
complete, the tubing bijection), the three oracles, and the weights and the
divisor correspondence (iterated cones only).  Each stage maps the graph to
its keys and its own verdict; `_verify_one` merges the keys in order and
takes `ok` from the verdicts of the stages that ran.

Exit codes: 0 computed (whatever the answer), 1 usage or parse error,
argparse's own errors and conflicting inputs included, 2 internal invariant
failure (status `fail`: a cross-check that should always pass failed, a
`verify` check or a `fan` that is not smooth and complete; or an internal
error: a RuntimeError, or any ValueError that is not a GraphError, FanError
included, such as a fan cone that is not laminar).  A ValueError from what
the user typed (`--weights`, `--max-vertices`, `--eps`, an edge-list file)
is raised as a GraphError where the flag is read, so it exits 1.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import __version__
from .epsrational import _fraction_literal, default_eps
from .fans import build_graph_fan, f_vector, fan_to_json, is_complete, is_smooth
from .graphs import (
    CATALOG_MAX_VERTICES,
    Graph,
    GraphError,
    bits_of,
    classify_iterated_cone,
    connected_graphs_up_to_iso,
    is_connected,
    parse_edge_list,
    parse_graph,
)
from .moduli import _check_weights, _labels, count_stable_trees, divisor_tube_correspondence, nodal_divisors
from .obstructions import feasible, obstruction_a, obstruction_b, w1w2_system
from .tubings import BIJECTION_MAX_VERTICES, verify_fan_tubing_bijection
from .weights import (
    check_w1_w2,
    is_valid,
    mark_of_vertex,
    parse_weight_vector,
    remark_weights,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2


def _usage(fn, *args):
    """fn(*args), with a ValueError from it raised as GraphError, a usage
    error: for the library calls that read what the user typed."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise GraphError(str(exc)) from None


def load_graph(spec: str) -> Graph:
    if spec.startswith("@"):
        with open(spec[1:]) as fh:
            return _usage(parse_edge_list, fh)  # bytes that are not UTF-8, too
    return parse_graph(spec)


def graph_echo(spec: str, g: Graph) -> dict:
    return {
        "spec": spec,
        "num_vertices": g.num_vertices,
        "edges": [list(e) for e in g.edges()],
    }


def emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
        return
    print(f"{report['command']}: {report['input'].get('spec', '')}  [{report['status']}]")
    _emit_text(report["results"], indent="  ")


def _emit_text(obj, indent=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                print(f"{indent}{k}:")
                _emit_text(v, indent + "  ")
            else:
                print(f"{indent}{k}: {_flat(v)}")
    elif isinstance(obj, list):
        for item in obj:
            print(f"{indent}- {_flat(item)}")


def _is_flat(v):
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def _flat(v):
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    return v


def _hassett_weights(cs, g):
    """remark_weights(cs, g); GraphError, a usage error, when they are not
    Hassett weights for any eps."""
    w = remark_weights(cs, g)
    violations = is_valid(w).violations
    if violations:
        raise GraphError(f"weights {w} are not Hassett weights: {'; '.join(violations)}")
    return w


def cmd_classify(args) -> tuple[dict, dict, str]:
    g = load_graph(args.graph)
    eps = _usage(_fraction_literal, args.eps) if args.eps is not None else None
    cs = classify_iterated_cone(g)
    results: dict = {}
    if cs is not None:
        w = _hassett_weights(cs, g)
        if eps is None:
            eps = default_eps(w.n, cs.k)
        # a + b*eps directly rather than instantiate(), so that eps <= 0
        # falls under the same check as an eps that is too large
        values = [e.a + e.b * eps for e in w.entries()]
        if not (all(0 < v <= 1 for v in values) and sum(values) > 2):
            raise GraphError(
                f"eps = {eps} gives {', '.join(map(str, values))}, not Hassett "
                "weights (each must lie in (0, 1] and the total must exceed 2)"
            )
        results.update(
            {
                "is_hassett": True,
                "k": cs.k,
                "cone_vertices": bits_of(cs.cone_vertices),
                "independent_vertices": bits_of(cs.independent),
                "weights": str(w),
                "weights_json": w.to_json(),
                "eps": str(eps),
                "weights_at_eps": [str(v) for v in values],
            }
        )
        status = "pass"
    else:
        results["is_hassett"] = False
        witness = obstruction_a(g)
        if witness is None:
            witness = obstruction_b(g)
        if witness is not None:
            results["obstruction"] = witness.to_json()
        status = "none"
    return graph_echo(args.graph, g), results, status


def cmd_fan(args) -> tuple[dict, dict, str]:
    g = load_graph(args.graph)
    rng = random.Random(args.seed_order) if args.seed_order is not None else None
    f = build_graph_fan(g, rng=rng)
    results = {
        "num_rays": len(f.rays),
        "num_max_cones": len(f.max_cones),
        "smooth": is_smooth(f),
        "complete": is_complete(f),
    }
    if args.f_vector:
        results["f_vector"] = list(f_vector(f))
    if args.json_fan:
        results["fan"] = fan_to_json(f)
    ok = results["smooth"] and results["complete"]
    return graph_echo(args.graph, g), results, "pass" if ok else "fail"


def _fan_stage(g: Graph) -> tuple[dict, bool]:
    """The fan: smooth, complete, and in bijection with the maximal tubings."""
    fan = build_graph_fan(g)
    smooth, complete = is_smooth(fan), is_complete(fan)
    bij = verify_fan_tubing_bijection(g, fan)
    failure = {} if bij.passed else {"bijection_failure": bij.failure}
    return {"smooth": smooth, "complete": complete, "fan_tubing_bijection": bij.passed,
            **failure}, smooth and complete and bij.passed


def _oracle_stage(g: Graph) -> tuple[dict, bool]:
    """The three oracles: the iterated-cone test and W1/W2 feasibility agree,
    and an obstruction is found exactly when W1/W2 is infeasible."""
    cone = classify_iterated_cone(g) is not None
    solvable = feasible(w1w2_system(g)) is not None
    obstructed = (obstruction_a(g) or obstruction_b(g)) is not None
    agree, witnessed = cone == solvable, obstructed != solvable
    return {"is_iterated_cone": cone, "w1w2_feasible": solvable, "oracle_agreement": agree,
            "obstructed": obstructed, "obstruction_agreement": witnessed}, agree and witnessed


def _weight_stage(g: Graph) -> tuple[dict, bool]:
    """For an iterated cone, its remark weights: valid, meeting W1/W2 at the
    cone's marks, and giving the divisor correspondence.  No keys, and a
    pass, for any other graph."""
    cs = classify_iterated_cone(g)
    if cs is None:
        return {}, True
    w = remark_weights(cs, g)
    valid, w1w2 = is_valid(w).valid, check_w1_w2(g, w, marks=mark_of_vertex(cs)).passed
    corr = divisor_tube_correspondence(g, w)
    return ({"weights_valid": valid, "w1w2_check": w1w2, "divisor_correspondence": corr.passed,
             "rays_vs_divisors": f"{corr.num_rays} = {corr.num_divisors} + {corr.k}"},
            valid and w1w2 and corr.passed)


# verify's check stages, in the order of their keys: each maps the graph to
# (its keys, its verdict)
VERIFY_STAGES = (_fan_stage, _oracle_stage, _weight_stage)


def _verify_one(g: Graph) -> dict:
    """Every stage of VERIFY_STAGES on one connected graph, their keys merged
    in order; 'ok' is true when every stage that ran passed."""
    out, verdicts = {}, []
    for stage in VERIFY_STAGES:
        keys, verdict = stage(g)
        out.update(keys)
        verdicts.append(verdict)
    out["ok"] = all(verdicts)
    return out


def cmd_verify(args) -> tuple[dict, dict, str]:
    if args.all_up_to is not None:
        if not 2 <= args.all_up_to <= CATALOG_MAX_VERTICES:
            raise GraphError(f"--all-up-to must be at least 2 and is capped at {CATALOG_MAX_VERTICES}")
        failures = []
        total = 0
        for n in range(2, args.all_up_to + 1):
            for g in connected_graphs_up_to_iso(n):
                total += 1
                res = _verify_one(g)
                if not res["ok"]:
                    failures.append({"edges": [list(e) for e in g.edges()], "result": res})
        results = {"graphs_checked": total, "failures": failures}
        return {"spec": f"--all-up-to {args.all_up_to}"}, results, "fail" if failures else "pass"

    g = load_graph(args.graph)
    # refuse before building the fan, which is most of the work
    if g.num_vertices > BIJECTION_MAX_VERTICES:
        raise GraphError(f"bijection check capped at {BIJECTION_MAX_VERTICES} vertices")
    if g.num_vertices < 2 or not is_connected(g):
        raise GraphError("verify needs a connected graph on at least 2 vertices")
    results = _verify_one(g)
    return graph_echo(args.graph, g), results, "pass" if results["ok"] else "fail"


def cmd_moduli(args) -> tuple[dict, dict, str]:
    if args.weights is not None:
        w = _usage(parse_weight_vector, args.weights)
        echo = {"spec": f"--weights {args.weights}"}
    else:
        g = load_graph(args.graph)
        cs = classify_iterated_cone(g)
        if cs is None:
            raise GraphError(f"{args.graph} is not an iterated cone; pass --weights instead")
        w = _hassett_weights(cs, g)
        echo = graph_echo(args.graph, g)
    cap = args.max_vertices if args.max_vertices is not None else w.n - 2
    _usage(_check_weights, w, cap)  # with --divisors, cap is n - 2 and passes
    results: dict = {"weights": str(w), "n": w.n}
    if args.divisors:
        divisors = nodal_divisors(w)
        results["num_nodal_divisors"] = len(divisors)
        results["nodal_divisors"] = [list(_labels(side)) for side in divisors]
    else:
        by_size = count_stable_trees(w, cap)
        results["max_components"] = max(by_size, default=0)
        results["tree_counts_by_components"] = {str(k): v for k, v in by_size.items()}
        results["num_nodal_divisors"] = len(nodal_divisors(w))
    return echo, results, "pass"


class _Parser(argparse.ArgumentParser):
    """Exits EXIT_USAGE on a usage error, where argparse would exit 2, the
    code of a failed cross-check.  Subparsers are made of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graphassoc",
        description=(
            "Decide whether the toric variety of a graph associahedron is a "
            "moduli space of weighted pointed stable rational curves."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("classify", help="iterated-cone test, weights or obstruction")
    p.add_argument("graph", help="graph DSL expression or @edge-list-file")
    p.add_argument("--eps", help="rational value of eps for numeric display")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("fan", help="build the graph associahedral fan")
    p.add_argument("graph")
    p.add_argument("--f-vector", action="store_true", dest="f_vector")
    p.add_argument("--json-fan", action="store_true", dest="json_fan",
                   help="include the full fan in the report")
    p.add_argument("--seed-order", type=int, dest="seed_order",
                   help="shuffle same-size subdivision order with this seed")
    common(p)
    p.set_defaults(func=cmd_fan)

    p = sub.add_parser("verify", help="run all cross-checks")
    p.add_argument("graph", nargs="?")
    p.add_argument("--all-up-to", type=int, dest="all_up_to", metavar="M",
                   help=f"sweep all connected graphs on up to M vertices (2 <= M <= {CATALOG_MAX_VERTICES})")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("moduli", help="stable trees and nodal divisors")
    p.add_argument("graph", nargs="?")
    p.add_argument("--weights", help="explicit weight vector, e.g. 1,1-3e,4e,4e,e,e")
    p.add_argument("--max-vertices", type=int, dest="max_vertices")
    p.add_argument("--divisors", action="store_true")
    common(p)
    p.set_defaults(func=cmd_moduli)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and (args.graph is None) == (args.all_up_to is None):
        parser.error("verify needs exactly one of a graph and --all-up-to")
    if args.command == "moduli":
        if (args.graph is None) == (args.weights is None):
            parser.error("moduli needs exactly one of a graph and --weights")
        if args.divisors and args.max_vertices is not None:
            parser.error("--max-vertices bounds stable trees, not --divisors")
    try:
        echo, results, status = args.func(args)
        emit({"command": args.command, "input": echo, "results": results, "status": status}, args.format)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as exc:
        # a broken invariant of the fan or of a cross-check, not bad input:
        # FanError and every other ValueError that is not a GraphError
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_INVARIANT if status == "fail" else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
