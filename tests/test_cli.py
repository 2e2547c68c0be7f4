"""Command-line interface: reports, formats, exit codes."""

import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import graphassoc
from graphassoc.cli import EXIT_INVARIANT, EXIT_OK, EXIT_USAGE, load_graph, main
from graphassoc.graphs import MAX_VERTICES, GraphError


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_classify_yes(capsys):
    code, report, _ = run_json(capsys, "classify", "cone^2(D2)")
    assert code == EXIT_OK
    res = report["results"]
    assert res["is_hassett"] is True
    assert res["k"] == 2
    assert res["weights"] == "(1, 1-3*eps, 4*eps, 4*eps, eps, eps)"
    assert len(res["weights_at_eps"]) == 6


def test_classify_yes_with_explicit_eps(capsys):
    code, report, _ = run_json(capsys, "classify", "K3", "--eps", "1/100")
    assert code == EXIT_OK
    assert report["results"]["eps"] == "1/100"
    assert report["results"]["weights_at_eps"][1] == "49/50"  # 1 - 2/100


@pytest.mark.parametrize("eps", ["1", "0", "-1/10"])
def test_classify_rejects_eps_without_hassett_weights(capsys, eps):
    # at eps = 1 the weights of cone^2(D2) are 1, -2, 4, 4, 1, 1
    code, out, err = run(capsys, "classify", "cone^2(D2)", f"--eps={eps}")
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "not Hassett weights" in err
    assert out == ""
    values = {
        "1": "1, -2, 4, 4, 1, 1",
        "0": "1, 1, 0, 0, 0, 0",
        "-1/10": "1, 13/10, -2/5, -2/5, -1/10, -1/10",
    }[eps]
    assert err == (
        f"error: eps = {eps} gives {values}, not Hassett weights "
        "(each must lie in (0, 1] and the total must exceed 2)\n"
    )


@pytest.mark.parametrize("spec", ["K1", "D2"])
def test_classify_reports_invalid_symbolic_weights(capsys, spec):
    # the weights total 2 - eps, so no choice of eps is to blame
    code, out, err = run(capsys, "classify", spec)
    assert code == EXIT_USAGE
    assert err.startswith("error:") and err.rstrip().endswith("total 2-eps is not > 2")
    assert "eps =" not in err
    assert out == ""


def test_classify_no_with_witness(capsys):
    code, report, _ = run_json(capsys, "classify", "P4")
    assert code == EXIT_OK
    res = report["results"]
    assert res["is_hassett"] is False
    assert res["obstruction"]["kind"] == "A"
    assert res["obstruction"]["tube"] == [0, 1]

    code, report, _ = run_json(capsys, "classify", "C4")
    assert report["results"]["obstruction"]["kind"] == "B"


@pytest.mark.parametrize("m", [7, 10, MAX_VERTICES // 2])
def test_classify_complete_bipartite_has_no_cap(capsys, m):
    """Kb m,m has no A witness; its first B witness is the C4 on 0, 1, m,
    m + 1, found on four vertices up to MAX_VERTICES."""
    code, report, _ = run_json(capsys, "classify", f"Kb{m},{m}")
    assert code == EXIT_OK
    assert report["results"]["obstruction"] == {
        "kind": "B",
        "subset": [0, 1, m, m + 1],
        "tube_partition": [[0, m], [1, m + 1]],
        "nontube_partition": [[0, 1], [m, m + 1]],
    }


def test_classify_long_path(capsys):
    code, report, _ = run_json(capsys, "classify", "P20")
    assert code == EXIT_OK
    assert report["results"]["obstruction"] == {"kind": "A", "tube": [0, 1], "non_tube": [0, 1, 3]}


def test_classify_text_format(capsys):
    code, out, _ = run(capsys, "classify", "K3")
    assert code == EXIT_OK
    assert "is_hassett: True" in out


def test_classify_edge_list_file(capsys, tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("3\n0 1\n1 2\n0 2\n")
    code, report, _ = run_json(capsys, "classify", f"@{f}")
    assert code == EXIT_OK
    assert report["results"]["is_hassett"] is True


def test_an_oversized_edge_list_file_is_refused_after_its_first_line(tmp_path):
    # 200,000 edge lines after a vertex count over the cap: the count is
    # checked before the rest of the file is read or split
    f = tmp_path / "big.txt"
    f.write_text("1000000000\n" + "0 1\n" * 200_000)
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="^vertex count 1000000000 exceeds the 24-vertex cap$"):
            load_graph(f"@{f}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_fan_report(capsys):
    code, report, _ = run_json(capsys, "fan", "P4", "--f-vector")
    assert code == EXIT_OK
    res = report["results"]
    assert res["num_max_cones"] == 14
    assert res["f_vector"] == [9, 21, 14]
    assert res["smooth"] is True and res["complete"] is True


def test_fan_seed_order_and_json(capsys):
    code, a, _ = run_json(capsys, "fan", "K4", "--json-fan")
    code, b, _ = run_json(capsys, "fan", "K4", "--json-fan", "--seed-order", "7")
    assert a["results"]["num_max_cones"] == b["results"]["num_max_cones"] == 24
    rays_a = {tuple(r["coords"]) for r in a["results"]["fan"]["rays"]}
    rays_b = {tuple(r["coords"]) for r in b["results"]["fan"]["rays"]}
    assert rays_a == rays_b


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_fan_that_fails_a_check_exits_2(capsys, monkeypatch, fmt):
    from graphassoc import cli

    monkeypatch.setattr(cli, "is_complete", lambda f: False)
    code, out, _ = run(capsys, "fan", "P4", "--format", fmt)
    assert code == EXIT_INVARIANT
    if fmt == "json":
        report = json.loads(out)
        assert report["status"] == "fail"
        assert report["results"]["complete"] is False
    else:
        assert out.startswith("fan: P4  [fail]")


def test_verify_that_fails_a_check_exits_2(capsys, monkeypatch):
    from graphassoc import cli

    monkeypatch.setattr(cli, "is_complete", lambda f: False)
    code, report, _ = run_json(capsys, "verify", "P4")
    assert code == EXIT_INVARIANT
    assert report["status"] == "fail"
    assert report["results"]["complete"] is False
    assert report["results"]["ok"] is False


def test_verify_sweep_with_failures_exits_2(capsys, monkeypatch):
    from graphassoc import cli
    from graphassoc.graphs import connected_graphs_up_to_iso

    monkeypatch.setattr(cli, "_verify_one", lambda g: {"ok": False})
    code, report, _ = run_json(capsys, "verify", "--all-up-to", "3")
    assert code == EXIT_INVARIANT
    assert report["status"] == "fail"
    graphs = connected_graphs_up_to_iso(2) + connected_graphs_up_to_iso(3)
    assert report["results"] == {
        "graphs_checked": 3,
        "failures": [{"edges": [list(e) for e in g.edges()], "result": {"ok": False}} for g in graphs],
    }


def test_runtime_error_is_an_internal_error(capsys, monkeypatch):
    from graphassoc import cli

    def broken(*args, **kwargs):
        raise RuntimeError("x")

    monkeypatch.setattr(cli, "feasible", broken)
    code, out, err = run(capsys, "verify", "P4")
    assert code == EXIT_INVARIANT
    assert err == "internal error: x\n"
    assert out == ""


def test_value_error_inside_a_verify_stage_is_an_internal_error(capsys, monkeypatch):
    # a ValueError that is not a GraphError is a broken invariant, not bad input
    from graphassoc import cli

    def broken(g):
        raise ValueError("cone structure does not match the graph")

    monkeypatch.setattr(cli, "VERIFY_STAGES", cli.VERIFY_STAGES[:1] + (broken,))
    code, out, err = run(capsys, "verify", "P4")
    assert code == EXIT_INVARIANT
    assert err == "internal error: cone structure does not match the graph\n"
    assert out == ""


def test_a_library_value_error_in_verify_is_an_internal_error(capsys, monkeypatch):
    # check_w1_w2's marks check, reached through the real weight stage
    from graphassoc import cli

    monkeypatch.setattr(cli, "mark_of_vertex", lambda cs: {})
    code, out, err = run(capsys, "verify", "cone(D4)")
    assert code == EXIT_INVARIANT
    assert err == "internal error: marks must map the vertices 0..4 one-to-one onto 1..5\n"
    assert out == ""


def test_a_failing_verify_stage_makes_ok_false(capsys, monkeypatch):
    from graphassoc import cli

    monkeypatch.setattr(cli, "VERIFY_STAGES", cli.VERIFY_STAGES + (lambda g: ({"extra": 1}, False),))
    code, report, _ = run_json(capsys, "verify", "P4")
    assert code == EXIT_INVARIANT
    assert report["status"] == "fail"
    res = report["results"]
    assert list(res)[-2:] == ["extra", "ok"]
    assert res["ok"] is False
    assert res["smooth"] and res["complete"] and res["fan_tubing_bijection"]
    assert res["oracle_agreement"] and res["obstruction_agreement"]


def test_ok_follows_only_the_verify_stages_that_ran(monkeypatch):
    # without the fan stage, the oracle and weight keys come out in their
    # order, and a fan that would fail does not count
    from graphassoc import cli
    from graphassoc.weights import W1W2Report

    monkeypatch.setattr(cli, "VERIFY_STAGES", cli.VERIFY_STAGES[1:])
    monkeypatch.setattr(cli, "is_complete", lambda f: False)
    g = load_graph("cone(D4)")
    res = cli._verify_one(g)
    assert list(res) == [
        "is_iterated_cone", "w1w2_feasible", "oracle_agreement", "obstructed", "obstruction_agreement",
        "weights_valid", "w1w2_check", "divisor_correspondence", "rays_vs_divisors", "ok",
    ]
    assert res["ok"] is True
    monkeypatch.setattr(cli, "check_w1_w2", lambda *args, **kwargs: W1W2Report(False))
    res = cli._verify_one(g)
    assert res["w1w2_check"] is False and res["ok"] is False


def test_an_edge_list_file_that_is_not_text_is_a_usage_error(capsys, tmp_path):
    f = tmp_path / "g.bin"
    f.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, "classify", f"@{f}")
    assert code == EXIT_USAGE
    assert err.startswith("error: 'utf-8' codec can't decode")
    assert out == ""


def test_fan_of_one_vertex_is_a_usage_error(capsys):
    code, out, err = run(capsys, "fan", "K1")
    assert code == EXIT_USAGE
    assert err == "error: fan construction needs at least 2 vertices\n"
    assert out == ""


def test_fan_error_is_an_internal_error(capsys, monkeypatch):
    from graphassoc import cli
    from graphassoc.fans import FanError

    def broken(*args, **kwargs):
        raise FanError("rays (0, 1) do not span a cone of the fan")

    monkeypatch.setattr(cli, "build_graph_fan", broken)
    for argv in (["fan", "P4"], ["verify", "P4"]):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INVARIANT
        assert err == "internal error: rays (0, 1) do not span a cone of the fan\n"
        assert out == ""


def test_a_cone_that_is_not_laminar_is_an_internal_error(capsys, monkeypatch):
    # the pass reads laminar cones only; a fan with any other cone, here
    # one whose rays e0 + e1 and e1 + e2 cross, is a broken invariant, not
    # a verdict
    from graphassoc import Fan, Ray, cli

    crossed = Fan(3, (Ray(0b011, 1, 1), Ray(0b110, 1, 2), Ray(0b100, 1, 4)), (0b111,))
    monkeypatch.setattr(cli, "build_graph_fan", lambda *args, **kwargs: crossed)
    for argv in (["fan", "P4"], ["verify", "P4"]):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INVARIANT
        assert err == "internal error: cone [0, 1, 2] is not laminar\n"
        assert out == ""


def test_verify_single(capsys):
    code, report, _ = run_json(capsys, "verify", "cone(D3)")
    assert code == EXIT_OK
    res = report["results"]
    assert res["ok"] is True
    assert res["oracle_agreement"] is True
    assert res["w1w2_check"] is True


def test_verify_obstructed_graph_still_consistent(capsys):
    code, report, _ = run_json(capsys, "verify", "C5")
    assert code == EXIT_OK
    res = report["results"]
    assert res["ok"] is True
    assert res["is_iterated_cone"] is False
    assert res["obstructed"] is True


def test_verify_sweep(capsys):
    code, report, _ = run_json(capsys, "verify", "--all-up-to", "4")
    assert code == EXIT_OK
    assert report["results"]["graphs_checked"] == 9  # 1 + 2 + 6 connected graphs
    assert report["results"]["failures"] == []


def test_verify_refuses_more_than_eight_vertices_before_building_the_fan(capsys, monkeypatch):
    from graphassoc import cli

    def no_fan(*args, **kwargs):
        raise AssertionError("verify built the fan of a graph it refuses")

    monkeypatch.setattr(cli, "build_graph_fan", no_fan)
    code, _, err = run(capsys, "verify", "K9")
    assert code == EXIT_USAGE
    assert "error: bijection check capped at 8 vertices" in err


@pytest.mark.parametrize("spec", ["D3", "Kb0,3", "K1", "D1"])
def test_verify_refuses_a_disconnected_graph_before_building_the_fan(capsys, monkeypatch, spec):
    # it used to build the P^2 fan and run the smooth/complete pass before
    # the tubing count refused the graph
    from graphassoc import cli

    def no_fan(*args, **kwargs):
        raise AssertionError("verify built the fan of a graph it refuses")

    monkeypatch.setattr(cli, "build_graph_fan", no_fan)
    code, out, err = run(capsys, "verify", spec)
    assert code == EXIT_USAGE
    assert "error: verify needs a connected graph" in err
    assert out == ""


def test_verify_sweep_reaches_eight_vertices(capsys, monkeypatch):
    # the whole catalog from 2 vertices up: 995 graphs on 2 to 7 vertices
    # and 11117 on 8, each handed to _verify_one (stubbed here, as the real
    # sweep takes minutes)
    from graphassoc import cli

    monkeypatch.setattr(cli, "_verify_one", lambda g: {"ok": True})
    code, report, _ = run_json(capsys, "verify", "--all-up-to", "8")
    assert code == EXIT_OK
    assert report["results"] == {"graphs_checked": 995 + 11117, "failures": []}


def test_verify_sweep_cap(capsys):
    code, out, err = run(capsys, "verify", "--all-up-to", "9")
    assert code == EXIT_USAGE
    assert "capped" in err
    assert err == "error: --all-up-to must be at least 2 and is capped at 8\n"
    assert out == ""


@pytest.mark.parametrize("m", ["1", "0", "-3"])
def test_verify_sweep_rejects_fewer_than_two_vertices(capsys, m):
    code, out, err = run(capsys, "verify", f"--all-up-to={m}")
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "at least 2" in err
    assert out == ""
    assert err == "error: --all-up-to must be at least 2 and is capped at 8\n"


def test_moduli_from_graph(capsys):
    code, report, _ = run_json(capsys, "moduli", "K3")
    assert code == EXIT_OK
    res = report["results"]
    assert res["num_nodal_divisors"] == 5
    assert res["max_components"] >= 2


def test_moduli_with_weights(capsys):
    code, report, _ = run_json(
        capsys, "moduli", "--weights", "1,1,e,e,e", "--max-vertices", "3"
    )
    assert code == EXIT_OK
    res = report["results"]
    assert res["max_components"] == 3
    assert res["tree_counts_by_components"] == {"1": 1, "2": 6, "3": 6}


def test_moduli_ten_marks(capsys):
    code, report, _ = run_json(capsys, "moduli", "--weights", "1,1," + ",".join(["e"] * 8))
    assert code == EXIT_OK
    counts = [1, 254, 5796, 40824, 126000, 191520, 141120, 40320]
    res = report["results"]
    assert res["tree_counts_by_components"] == {str(j): c for j, c in enumerate(counts, 1)}
    assert res["max_components"] == 8


def test_moduli_rejects_weights_outside_unit_interval(capsys):
    code, out, err = run(capsys, "moduli", "--weights", "2,1,1,e")
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "(0, 1]" in err
    assert out == ""


@pytest.mark.parametrize("weights", ["1,1,2,e,e", "0,0,0,0"])
def test_moduli_divisors_reject_weights_outside_unit_interval(capsys, weights):
    # the same message and exit code with and without --divisors
    for extra in [(), ("--divisors",)]:
        code, out, err = run(capsys, "moduli", "--weights", weights, *extra)
        assert code == EXIT_USAGE
        assert err.startswith("error: stable trees need every weight in (0, 1]")
        assert out == ""


@pytest.mark.parametrize("weight", ["(1+e)/x", "(1+e)/2/3", "(1+e)/1_0"])
def test_moduli_rejects_a_bad_divisor_after_a_parenthesis(capsys, weight):
    code, out, err = run(capsys, "moduli", "--weights", f"1,{weight},e,e,e")
    assert code == EXIT_USAGE
    assert err == f"error: bad EpsRational literal '{weight}'\n"
    assert out == ""


@pytest.mark.parametrize("weights", ["1,1,,e,e,e", ",1,1,e,e,e", "1,1,e,e,e,"])
def test_moduli_rejects_an_empty_weight(capsys, weights):
    # an interior, a leading and a trailing empty entry; none is dropped
    code, out, err = run(capsys, "moduli", "--weights", weights)
    assert code == EXIT_USAGE
    assert err == "error: empty EpsRational literal\n"
    assert out == ""


def test_moduli_reads_nested_parentheses(capsys):
    # the group closes at the ')' that matches the first '(', not the first ')'
    code, out, err = run(capsys, "moduli", "--weights", "1,((1+e)/2)/2,e,e,e")
    assert code == EXIT_OK
    assert "  weights: (1, 1/4+1/4*eps, eps, eps, eps)\n" in out
    assert err == ""


def test_moduli_divisors_only(capsys):
    code, report, _ = run_json(capsys, "moduli", "--weights", "1,1,e,e,e", "--divisors")
    assert code == EXIT_OK
    res = report["results"]
    assert res["num_nodal_divisors"] == 6
    assert ["0", "1"] in res["nodal_divisors"]


def test_moduli_rejects_zero_max_vertices(capsys):
    code, _, err = run(
        capsys, "moduli", "--weights", "1,1,e,e,e", "--max-vertices", "0"
    )
    assert code == EXIT_USAGE
    assert "max_vertices" in err


def test_classify_rejects_zero_denominator_eps(capsys):
    code, out, err = run(capsys, "classify", "K4", "--eps", "1/0")
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "zero denominator" in err
    assert out == ""


@pytest.mark.parametrize("spec", ["P4", "C4", "K3"])
@pytest.mark.parametrize("eps", ["abc", "1/0", ""])
def test_classify_rejects_malformed_eps_on_every_graph(capsys, spec, eps):
    # --eps is parsed before the graph is classified, not only for cones
    code, out, err = run(capsys, "classify", spec, f"--eps={eps}")
    assert code == EXIT_USAGE
    assert err.startswith("error:")
    assert out == ""


def test_moduli_rejects_zero_denominator_weight(capsys):
    code, out, err = run(capsys, "moduli", "--weights", "1/0,1,1,e")
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "zero denominator" in err
    assert out == ""


def test_moduli_rejects_non_cone_graph(capsys):
    code, out, err = run(capsys, "moduli", "P4")
    assert code == EXIT_USAGE
    assert "not an iterated cone" in err
    assert err == "error: P4 is not an iterated cone; pass --weights instead\n"
    assert out == ""


@pytest.mark.parametrize(
    "spec, weights",
    [("K1", "(1, 1-2*eps, eps)"), ("D3", "(1, 1-4*eps, eps, eps, eps)")],
)
def test_moduli_refuses_the_weights_classify_refuses(capsys, spec, weights):
    # the remark weights total 2 - eps, so there is no moduli space to list
    message = f"error: weights {weights} are not Hassett weights: total 2-eps is not > 2\n"
    for command in ("classify", "moduli"):
        code, out, err = run(capsys, command, spec)
        assert (code, out, err) == (EXIT_USAGE, "", message), command


def test_usage_errors(capsys):
    code, _, err = run(capsys, "classify", "X7")
    assert code == EXIT_USAGE
    assert "error" in err

    code, _, err = run(capsys, "classify", "@/nonexistent/file")
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        ["moduli"],
        ["fan", "K3", "--bogus"],
        ["verify", "--all-up-to", "x"],
        ["frobnicate"],
    ],
    ids=" ".join,
)
def test_argparse_misuse_exits_usage(capsys, argv):
    # argparse would exit 2, the code of a failed cross-check
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["fan", "--help"]], ids=" ".join)
def test_help_and_version_exit_ok(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code in (None, EXIT_OK)


def test_the_cli_runs_without_networkx():
    # networkx is a test dependency only: with its import blocked, the
    # catalog sweep and an obstruction witness still run
    src = str(Path(graphassoc.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    blocked = 'import sys; sys.modules["networkx"] = None; from graphassoc.cli import main; sys.exit(main())'
    for argv in (["verify", "--all-up-to", "5"], ["classify", "P4"]):
        run = subprocess.run(
            [sys.executable, "-c", blocked, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == EXIT_OK, (argv, run.stderr)
        assert "networkx" not in run.stdout + run.stderr


def test_verify_one_on_a_sample_of_eight_vertex_graphs():
    from graphassoc.cli import _verify_one
    from graphassoc.graphs import connected_graphs_up_to_iso

    for g in random.Random(8).sample(connected_graphs_up_to_iso(8), 20):
        assert _verify_one(g)["ok"], g.edges()


def test_python_dash_m_runs_the_cli():
    src = str(Path(graphassoc.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-m", "graphassoc", "classify", "P4"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == EXIT_OK, run.stderr
    assert run.stdout.startswith("classify: P4")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "K4", "--all-up-to", "2"], "exactly one of a graph and --all-up-to"),
        (["moduli", "P4", "--weights", "1,1,e,e,e"], "exactly one of a graph and --weights"),
        (
            ["moduli", "--weights", "1,1,e,e,e", "--divisors", "--max-vertices", "99"],
            "--max-vertices bounds stable trees, not --divisors",
        ),
    ],
    ids=["verify graph and sweep", "moduli graph and weights", "moduli divisors and cap"],
)
def test_conflicting_inputs_are_rejected(capsys, argv, message):
    # each pair used to run, one input silently dropped
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE
    assert message in err
    assert out == ""


def test_edge_list_with_a_non_integer_endpoint(capsys, tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("3\n0 x\n")
    code, out, err = run(capsys, "classify", f"@{f}")
    assert code == EXIT_USAGE
    assert "error: bad edge line '0 x'" in err
    assert out == ""


def test_unsupported_graph(capsys, tmp_path):
    f = tmp_path / "disc.txt"
    f.write_text("4\n0 1\n")
    code, _, err = run(capsys, "classify", f"@{f}")
    assert code == EXIT_USAGE
    assert "disconnected" in err


# SHA-256 of the stdout of each command with --format json, recorded before
# cones became ray-index bitmasks: reports must stay byte-identical.
PINNED_CLI_JSON = {
    ("verify", "--all-up-to", "6"): "4c6ad65892323e43cb33a1bb72d9004d76324dd2936097ccb1114f2db5c25445",
    ("verify", "P7"): "65c0d7cb2937c88001ec00e90fb4a59c06d9f8a6a3d6880828fb25a004166242",
    ("verify", "C7"): "7d77c9371f5ae68a1ff144eae043390e5e4497a06a17ad4e1c6dec79c9c05ab2",
    ("verify", "S7"): "46981a0023555da67a9ab040ee5f63a7f1179cf053447a5375f20208a7e2731c",
    ("verify", "K7"): "aeb1b4d40e7e37fc9ce6694e9ebbb145808b861e06be5dd7ad79172d69098b82",
    ("fan", "P7", "--json-fan", "--f-vector"): "4f5cdf81351f3abe45fc1c5bc00081ef727e687ed97fd8416d6c902f0160ffbb",
    ("fan", "S6", "--seed-order", "3", "--json-fan"): "817fbd0d1a48e5b2dd236690c1395772a2cfeb037ac7537a3c0f83c8cd5309fd",
    ("classify", "P4"): "a110faaa6a6b475eb9db160161f9b938101139819a6a1537a2ce40981201afbf",
    ("classify", "C5"): "0e075efd4c3d6624de8f104761c359decaf8a0baf8dbbcd81813d04074ded54f",
    ("classify", "Kb3,3"): "cd20a40e008875ae0019cac5bbf9d45332dc2cb58d07355a4949202adc0a1cd7",
    ("classify", "cone^2(D2)"): "bc27d93d6fbd45ac2c2178fbc302d6e785f32d889ebc1e8789e09047b555ba30",
    ("moduli", "S6"): "910b26e0078c16c2ff645bee506a2b28ae555fe4da32749d64bc488a59a2a74e",
    ("moduli", "--weights", "1,1,e,e,e,e,e,e,e"): "8927ce6ffabbad38ac4c36925da60bf43f3e17ac63cf90e91efb88a406a0136c",
    # recorded before divisor sides became bitmasks of marks
    ("moduli", "S6", "--divisors"): "e5863eaa70baa32367cd8ef095e759b340585078e2ab3bbd9bb10f6166cfc646",
    ("moduli", "--weights", "1,1/2,(1+e)/2,e,e", "--divisors"): "99471988f767b0994e52ddbea03ef4c530fdbf1e321d6ce07bb8c7d5b8b28589",
    ("moduli", "--weights", "1,1-3e,4e,4e,e,e", "--divisors"): "bd0ee9653c6eeea2e4b579dd4b4243fd7847e2adf36c76144d9c5c121e14b14c",
}


@pytest.mark.parametrize("argv", list(PINNED_CLI_JSON), ids=" ".join)
def test_cli_json_is_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_CLI_JSON[argv]


# SHA-256 of the stdout of each command with --format text, recorded before
# the commands returned their reports to main instead of writing them.
PINNED_CLI_TEXT = {
    ("classify", "cone^2(D2)"): "e1a0044f2b76465bf6f33583687d21de617dbaa753feb558239b738a1bf65c19",
    ("classify", "P4"): "dc493473d4ce1d068c1298114a7323b16c467aa2c61abb5c0c864207e28100a9",
    ("fan", "P7", "--f-vector"): "571b480953917a025fa6e6e343979563792353e90fd9a300c19fbc7ea58a8927",
    ("verify", "S6"): "b2fd1725669890fa2e7e297b42105a370bdb4dba842c5a153713da107acb57e2",
    ("verify", "--all-up-to", "5"): "02c1f9b112043ca2b9a1226129b8038507d2e77f8e6ec7d9ba4d89f89622463d",
    ("moduli", "S6"): "d30ad1ea908c9238c469ee1cd31fc5246d24c24634e57a18030883e76e6ef0d1",
    ("moduli", "S6", "--divisors"): "91a35428124514a79d56bf20315bd87f53c77a425b68b5cca89bed832069deef",
}


@pytest.mark.parametrize("argv", list(PINNED_CLI_TEXT), ids=" ".join)
def test_cli_text_is_pinned(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "text")
    assert code == EXIT_OK
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_CLI_TEXT[argv]
