"""Command-line interface: reports, formats, exit codes."""

import json

import pytest

from graphassoc.cli import EXIT_INVARIANT, EXIT_OK, EXIT_USAGE, main
from graphassoc.graphs import MAX_VERTICES


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


def test_verify_sweep_cap(capsys):
    code, _, err = run(capsys, "verify", "--all-up-to", "9")
    assert code == EXIT_USAGE
    assert "capped" in err


@pytest.mark.parametrize("m", ["1", "0", "-3"])
def test_verify_sweep_rejects_fewer_than_two_vertices(capsys, m):
    code, out, err = run(capsys, "verify", f"--all-up-to={m}")
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "at least 2" in err
    assert out == ""


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
    code, _, err = run(capsys, "moduli", "P4")
    assert code == EXIT_USAGE
    assert "not an iterated cone" in err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "classify", "X7")
    assert code == EXIT_USAGE
    assert "error" in err

    code, _, err = run(capsys, "classify", "@/nonexistent/file")
    assert code == EXIT_USAGE
    # argparse-level misuse exits with SystemExit
    with pytest.raises(SystemExit):
        main(["verify"])
    with pytest.raises(SystemExit):
        main(["moduli"])


def test_unsupported_graph(capsys, tmp_path):
    f = tmp_path / "disc.txt"
    f.write_text("4\n0 1\n")
    code, _, err = run(capsys, "classify", f"@{f}")
    assert code == EXIT_USAGE
    assert "disconnected" in err
