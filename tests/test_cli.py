"""End-to-end command-line checks through cli_dispatch."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import compnull.bayes_lp
import compnull.cli
import compnull.closed_form
from compnull.bayes_lp import LpSolution
from compnull.cli import cli_dispatch, main
from compnull.latin3 import cyclic_latin, square_to_json
from compnull.mediation import MediationDataset, product_method_stats
from compnull.regions import _DEGENERATE, RejectionRegion2D, deserialize, serialize
from compnull.statmath import std_normal_quantile


def _run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_exits_zero(capsys):
    assert cli_dispatch(["--help"]) == 0
    assert "compnull" in capsys.readouterr().out


def test_dispatch_calls_share_no_state(tmp_path, capsys):
    # one process, one parser: no call may see another call's arguments
    doc = str(tmp_path / "js.json")
    assert cli_dispatch(["region", "build", "--method", "js", "--alpha", "0.05",
                         "--out", doc]) == 0
    code, out, _ = _run(capsys, "test", "--zx", "2.5", "--zy", "2.5", "--region", doc)
    assert code == 0 and json.loads(out)["method"] == "joint_significance"
    code, out, _ = _run(capsys, "test", "--zx", "2.5", "--zy", "2.5",
                        "--method", "extended", "--alpha", "0.07")
    assert code == 0 and json.loads(out)["method"] == "extended"
    code, _, err = _run(capsys, "test", "--zx", "2.5", "--zy", "2.5")
    assert code == 1 and "--alpha is required" in err
    assert _run(capsys, "test", "--zx", "2.5")[0] == 1
    code, out, _ = _run(capsys, "test", "--zx", "2.5", "--zy", "2.5", "--alpha", "0.05")
    assert code == 0 and json.loads(out)["method"] == "minimax"
    assert cli_dispatch(["--help"]) == 0
    assert "compnull" in capsys.readouterr().out


def test_unknown_command(capsys):
    code, _, err = _run(capsys, "frobnicate")
    assert code == 1
    assert "invalid choice" in err


def test_missing_required_argument(capsys):
    code, _, err = _run(capsys, "test", "--zx", "1.0")
    assert code == 1
    assert "--zy" in err


def test_decision_worked_example(capsys):
    zx = str(std_normal_quantile(4.0 / 5.0))
    zy = str(std_normal_quantile(5.0 / 7.0))
    code, out, _ = _run(capsys, "test", "--zx", zx, "--zy", zy,
                        "--alpha", str(1.0 / 3.0))
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "minimax"
    assert doc["reject"] is True
    assert doc["rejection_probability"] == 1.0

    code, out, _ = _run(capsys, "test", "--zx", zx, "--zy", zy, "--alpha", "0.5")
    assert code == 0
    assert json.loads(out)["reject"] is False


def test_decision_needs_alpha_or_region(capsys):
    code, _, err = _run(capsys, "test", "--zx", "1", "--zy", "1")
    assert code == 1
    assert "--alpha" in err


def test_js_decision(capsys):
    code, out, _ = _run(capsys, "test", "--zx", "3", "--zy", "3",
                        "--alpha", "0.05", "--method", "js")
    assert code == 0
    doc = json.loads(out)
    assert doc["reject"] is True
    assert doc["p_value"] == pytest.approx(0.0026997960632601891, rel=1e-12)


def test_js_at_tiny_levels(capsys):
    # the cutoff -Phi^-1(alpha/2) stays finite wherever alpha/2 is nonzero
    code, out, _ = _run(capsys, "region", "build", "--method", "js", "--alpha", "1e-16")
    assert code == 0
    t = deserialize(out).x_edges[2]
    assert t == pytest.approx(8.3047854251941, rel=1e-12)
    code, out, _ = _run(capsys, "test", "--method", "js", "--alpha", "1e-320",
                        "--zx", "40", "--zy", "-40")
    assert code == 0 and json.loads(out)["reject"] is True
    code, out, err = _run(capsys, "test", "--method", "js", "--alpha", "5e-324",
                          "--zx", "40", "--zy", "40")
    assert (code, out) == (1, "")
    assert err == "error: alpha=5e-324 is too small: alpha/2 rounds to 0\n"


def test_js_decision_builds_no_grid(capsys, monkeypatch):
    # js_test needs only the level; the 3 x 3 region is built for documents alone
    def refuse(alpha):
        raise AssertionError("test --method js built a region")
    monkeypatch.setitem(compnull.closed_form._BUILDERS, "js", refuse)
    code, out, _ = _run(capsys, "test", "--zx", "3", "--zy", "-3", "--alpha", "0.05",
                        "--method", "js")
    assert code == 0 and json.loads(out)["reject"] is True
    code, out, err = _run(capsys, "test", "--zx", "3", "--zy", "3", "--alpha", "1.5",
                          "--method", "js")
    assert (code, out, err) == (1, "", "error: alpha must lie in (0, 1), got 1.5\n")


def test_decision_counts_a_sure_cell_as_a_rejection(tmp_path, capsys, shipped_bayes_region):
    # reject is the library's one sure-rejection rule, p >= 1 - 1e-9, the rule
    # simulate_power and derandomized Bayes assembly apply: a 1 - 5e-10 cell
    # rejects, and a 0.5 cell reports its chance without rejecting
    edges = [-math.inf, 0.0, 1.0, math.inf]
    probs = [[0.0, 0.0, 0.0], [0.0, 1.0 - 5e-10, 0.5], [0.0, 0.0, 0.0]]
    path = tmp_path / "near_one.region.json"
    path.write_text(serialize(RejectionRegion2D.from_grid(0.05, "custom", edges, edges, probs)))
    for zy, prob, reject in (("0.5", 1.0 - 5e-10, True), ("2", 0.5, False)):
        code, out, _ = _run(capsys, "test", "--zx", "0.5", "--zy", zy, "--region", str(path))
        assert code == 0
        doc = json.loads(out)
        assert (doc["rejection_probability"], doc["reject"]) == (prob, reject)
    # the shipped Bayes region has no value in [1 - 1e-9, 1), so its
    # decisions are those of the former rule, p == 1
    p = shipped_bayes_region.probs
    assert p[p < 1.0].max() < _DEGENERATE


def test_region_round_trip_matches_direct_decision(tmp_path, capsys):
    path = str(tmp_path / "mm.region.json")
    assert _run(capsys, "region", "build", "--alpha", "0.2", "--out", path)[0] == 0
    assert deserialize(open(path).read()).kind == "minimax"

    direct = _run(capsys, "test", "--zx", "0.9", "--zy", "1.1", "--alpha", "0.2")
    via_file = _run(capsys, "test", "--zx", "0.9", "--zy", "1.1", "--region", path)
    assert direct[0] == via_file[0] == 0
    assert direct[1] == via_file[1]


def test_region_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, "test", "--region", str(bad),
                        "--zx", "1", "--zy", "1")
    assert code == 2
    assert "error" in err

    code, _, err = _run(capsys, "test", "--region", str(tmp_path / "gone.json"),
                        "--zx", "1", "--zy", "1")
    assert code == 2


def test_three_factor_decision(capsys):
    third = str(1.0 / 3.0)
    code, out, _ = _run(capsys, "test3", "--z", "0.7,0.2,1.5", "--alpha", third)
    assert code == 0
    doc = json.loads(out)
    assert doc["reject"] is True
    assert doc["order"] == 3
    assert doc["z"] == [0.7, 0.2, 1.5]

    code, out, _ = _run(capsys, "test3", "--z", "0.7,0.2,0.7", "--alpha", third)
    assert code == 0
    assert json.loads(out)["reject"] is False


def test_three_factor_square_file(tmp_path, capsys):
    path = tmp_path / "sq.json"
    path.write_text(square_to_json(cyclic_latin(2)))
    code, out, _ = _run(capsys, "test3", "--z", "0.2,0.2,0.2", "--alpha", "0.5",
                        "--square", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["reject"] is True and doc["order"] == 2


def test_three_factor_square_with_a_non_integer_symbol_is_refused(tmp_path, capsys):
    # a malformed square document is a data problem, exit 2
    path = tmp_path / "bad.json"
    path.write_text('{"order": 2, "grid": [[1, 2.9], [2, 1]]}')
    assert _run(capsys, "test3", "--z", "1,2,3", "--alpha", "0.5", "--square", str(path)) == (
        2, "", "error: invalid square document: symbol must be an integer, got 2.9\n")
    path.write_text('{"order": 2, "grid": [[1, 2]]}')
    assert _run(capsys, "test3", "--z", "1,2,3", "--alpha", "0.5", "--square", str(path)) == (
        2, "", "error: invalid square document: grid must be 2x2\n")
    # a level that does not match a well-formed square's order is a value problem, exit 1
    path.write_text(square_to_json(cyclic_latin(2)))
    assert _run(capsys, "test3", "--z", "1,2,3", "--alpha", "0.25", "--square", str(path)) == (
        1, "", "error: alpha=0.25 must be the reciprocal of the square's order 2\n")


def test_three_factor_usage_errors(capsys):
    code, _, err = _run(capsys, "test3", "--z", "1,2", "--alpha", "0.5")
    assert code == 1
    assert "Z1,Z2,Z3" in err
    # alpha not matching the square order is a value problem
    code, _, err = _run(capsys, "test3", "--z", "1,2,3", "--alpha", "0.4")
    assert code == 1
    for alpha, shown in (("0", "0.0"), ("nan", "nan"), ("inf", "inf"), ("1.5", "1.5")):
        code, out, err = _run(capsys, "test3", "--z", "1,2,3", "--alpha", alpha)
        assert code == 1
        assert out == ""
        assert err == f"error: alpha must lie in (0, 1), got {shown}\n"


@pytest.mark.parametrize("text, form, want", [
    ("1,-2.5", "X,Y", (1.0, -2.5)),
    ("-inf, 0.5 ,2", "Z1,Z2,Z3", (-math.inf, 0.5, 2.0)),
    ("0,,0.3,", "X,...", (0.0, 0.3)),
    ("7", "X,...", (7.0,)),
])
def test_floats_reads_each_form(text, form, want):
    assert compnull.cli._floats(text, "--v", form) == want


@pytest.mark.parametrize("text, form, message", [
    ("1", "X,Y", "--v expects 'X,Y', got '1'"),
    ("1,2,3", "X,Y", "--v expects 'X,Y', got '1,2,3'"),
    ("1,2", "Z1,Z2,Z3", "--v expects 'Z1,Z2,Z3', got '1,2'"),
    (" , ", "X,...", "--v expects 'X,...', got ' , '"),
    ("1,x", "X,Y", "--v expects numbers, got '1,x'"),
    ("1,,3", "Z1,Z2,Z3", "--v expects numbers, got '1,,3'"),
    ("zz", "X,...", "--v expects numbers, got 'zz'"),
])
def test_floats_names_the_form_it_expects(text, form, message):
    with pytest.raises(compnull.cli._UsageError) as info:
        compnull.cli._floats(text, "--v", form)
    assert str(info.value) == message


@pytest.mark.parametrize("argv, message", [
    (("test3", "--z", "1,2", "--alpha", "0.5"), "--z expects 'Z1,Z2,Z3', got '1,2'"),
    (("simulate", "ecdf", "--reps", "4", "--delta", "1"), "--delta expects 'X,Y', got '1'"),
    (("simulate", "power", "--reps", "4", "--seed", "1", "--deltas", "0,0; 1,2,3"),
     "--deltas expects 'X,Y', got '1,2,3'"),
    (("simulate", "power", "--reps", "4", "--seed", "1", "--deltas", " ; "),
     "--deltas expects 'X,Y;X,Y;...', got ' ; '"),
    (("simulate", "sobel-density", "--reps", "4", "--delta-x", ","),
     "--delta-x expects 'X,...', got ','"),
])
def test_number_list_flags_exit_one_naming_the_form(capsys, argv, message):
    assert _run(capsys, *argv) == (1, "", message + "\n")


def test_oversized_region_document_exits_two(tmp_path, capsys):
    edges = ["-inf", *range(3999), "inf"]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"version": "region-v2", "alpha": 0.05, "kind": "custom",
                                "x_edges": edges, "y_edges": edges, "values": [0.0],
                                "runs": [[0, 4000 * 4000]]}))
    code, out, err = _run(capsys, "test", "--zx", "1", "--zy", "1", "--region", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: grid of 4000 x 4000 = 16000000 cells exceeds the limit "
                   "of 8388608\n")


def test_three_factor_refuses_orders_above_the_limit(tmp_path, capsys):
    # K = 1449 is refused by the folded ladder's order limit, as for the 2-D
    # grids, before any square is built or read, so a missing square file is
    # never opened
    alpha = 1.0 / 1449
    want = "error: grid of 2898 x 2898 = 8398404 cells exceeds the limit of 8388608\n"
    for square in ("cyclic", str(tmp_path / "missing.json")):
        code, out, err = _run(capsys, "test3", "--z", "1,2,3", "--alpha", repr(alpha),
                              "--square", square)
        assert (code, out, err) == (2, "", want)
    for k in (204, 1448):
        code, out, _ = _run(capsys, "test3", "--z", "1,2,3", "--alpha", repr(1.0 / k))
        assert code == 0 and json.loads(out)["order"] == k


@pytest.mark.parametrize("alpha", ["0.4", "0.3", "1e-320"])
def test_three_factor_refuses_non_unit_levels(capsys, alpha):
    code, out, err = _run(capsys, "test3", "--z", "1,2,3", "--alpha", alpha)
    assert (code, out) == (1, "")
    assert err == f"error: alpha={float(alpha)!r} must be 1/K for an integer order K\n"


_GRID_COMMANDS = {"test-minimax": ("test", "--zx", "1", "--zy", "1", "--method", "minimax"),
                  "test-extended": ("test", "--zx", "1", "--zy", "1", "--method", "extended"),
                  "build-minimax": ("region", "build", "--method", "minimax"),
                  "build-extended": ("region", "build", "--method", "extended"),
                  "simulate-extended": ("simulate", "power", "--methods", "js,extended",
                                        "--reps", "10", "--seed", "1")}
# K = 1449 is the first unit fraction over the grid-cell limit, and 1e-4 is
# 1/10000; 1e-320 is no unit fraction, and its 1/alpha overflows
_OVER_LIMIT = [pytest.param(name, alpha, cells, id=f"{name}-{alpha}")
               for name in _GRID_COMMANDS
               for alpha, cells in ((repr(1 / 1449), "2898 x 2898 = 8398404"),
                                    ("0.0001", "20000 x 20000 = 400000000"),
                                    ("1e-320", "inf x inf = inf"))
               if "extended" in name or alpha != "1e-320"]


@pytest.mark.parametrize("name, alpha, cells", _OVER_LIMIT)
def test_grid_methods_refuse_orders_above_the_limit(capsys, name, alpha, cells):
    # refused by the library's grid-cell limit before any grid is built
    code, out, err = _run(capsys, *_GRID_COMMANDS[name], "--alpha", alpha)
    assert (code, out) == (2, "")
    assert err == f"error: grid of {cells} cells exceeds the limit of 8388608\n"


def test_grid_methods_accept_the_limit_order(capsys):
    # K = 1448 and, off unit fractions, floor(1/alpha) = 1447 give 2896 x 2896 grids
    for method, alpha in (("minimax", 1 / 1448), ("extended", 1 / 1448),
                          ("extended", 1 / 1447.5)):
        code, out, _ = _run(capsys, "test", "--zx", "1", "--zy", "1", "--method", method,
                            "--alpha", repr(alpha))
        assert code == 0 and json.loads(out)["reject"] is True
    # the joint-significance test builds no grid, so no level is too small for it
    code, out, _ = _run(capsys, "simulate", "power", "--methods", "js", "--reps", "10",
                        "--seed", "1", "--alpha", "0.0001")
    assert code == 0 and out.startswith("delta_x,")


def test_pvalue_command(capsys):
    code, out, _ = _run(capsys, "pvalue", "--zx", "2.5", "--zy", "1.0")
    assert code == 0
    # |zx| >= 2|zy| in p-value terms, so p is the JS p-value 2*Phi(-1)
    assert out.startswith('{"method": "extended_minimax", "p": ')
    doc = json.loads(out)
    assert doc == {"method": "extended_minimax", "p": 0.31731050786291415}


@pytest.mark.parametrize("argv", [("pvalue", "--zx", "2.5", "--zy", "1.0"),
                                  ("simulate", "ecdf", "--reps", "40")])
def test_resolution_flag_is_gone(capsys, argv):
    code, out, err = _run(capsys, *argv, "--resolution", "10000")
    assert (code, out) == (1, "")
    assert "--resolution" in err


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def test_nan_statistics_exit_one(capsys):
    for command in (("pvalue",), ("test", "--alpha", "0.05"),
                    ("test", "--alpha", "0.05", "--method", "js")):
        code, out, err = _run(capsys, *command, "--zx", "nan", "--zy", "1")
        assert code == 1
        assert out == ""
        assert err == "error: test statistics must not be NaN\n"
    code, out, err = _run(capsys, "test3", "--z", "1,nan,2", "--alpha", "0.5")
    assert code == 1
    assert out == ""
    assert err == "error: test statistics must not be NaN\n"


def test_infinite_inputs_echo_as_standard_json(capsys):
    code, out, _ = _run(capsys, "test", "--zx", "inf", "--zy=-inf", "--alpha", "0.05")
    assert code == 0
    doc = _strict_json(out)
    assert (doc["zx"], doc["zy"]) == ("inf", "-inf")
    assert doc["rejection_probability"] == 1.0

    code, out, _ = _run(capsys, "test", "--zx", "inf", "--zy", "inf", "--alpha", "0.05",
                        "--method", "js")
    assert code == 0
    doc = _strict_json(out)
    assert (doc["zx"], doc["zy"], doc["p_value"]) == ("inf", "inf", 0.0)

    code, out, _ = _run(capsys, "test3", "--z=-inf,0.5,2", "--alpha", "0.5")
    assert code == 0
    assert _strict_json(out)["z"] == ["-inf", 0.5, 2.0]

    code, out, _ = _run(capsys, "test3", "--z", "inf,inf,inf", "--alpha", "0.05")
    assert code == 0
    doc = _strict_json(out)
    assert doc["z"] == ["inf", "inf", "inf"]
    assert doc["reject"] is True

    code, out, _ = _run(capsys, "pvalue", "--zx", "inf", "--zy", "2")
    assert code == 0
    assert _strict_json(out)["p"] == 0.04550026389635839  # the JS p-value 2*Phi(-2)


@pytest.mark.parametrize("argv, key, want", [
    (("test", "--zx", "-1e-3", "--zy", "1", "--alpha", "0.05"), "zx", -1e-3),
    (("test", "--zx", "-inf", "--zy", "1", "--alpha", "0.05"), "zx", "-inf"),
    (("test3", "--z", "-0.5,1,2", "--alpha", "0.05"), "z", [-0.5, 1.0, 2.0]),
    pytest.param(("pvalue", "--zx", "-2e-1", "--zy", "1"), "p", 0.8414805811217939,
                 id="argv3-p-0.8414"),
])
def test_dash_led_values_are_values(capsys, argv, key, want):
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    assert _strict_json(out)[key] == want


def test_dash_led_simulation_inputs_are_values(capsys):
    code, out, err = _run(capsys, "simulate", "power", "--deltas", "-0.1,0.2",
                          "--reps", "100", "--seed", "1")
    assert (code, err) == (0, "")
    assert [ln.split(",")[:3] for ln in out.strip().split("\n")[1:]] == [
        ["-0.1", "0.2", "minimax"], ["-0.1", "0.2", "js"]]

    code, out, err = _run(capsys, "simulate", "sobel-density", "--delta-x", "-0.1,0.2",
                          "--reps", "2", "--seed", "1")
    assert (code, err) == (0, "")
    assert [ln.split(",")[0] for ln in out.strip().split("\n")[1:]] == [
        "-0.1", "-0.1", "0.2", "0.2"]


def test_option_names_still_end_a_missing_value(capsys):
    code, _, err = _run(capsys, "test", "--zx", "--zy", "1", "--alpha", "0.05")
    assert code == 1
    assert "argument --zx: expected one argument" in err
    code, _, err = _run(capsys, "test", "--zx", "1", "--zy", "-h")
    assert code == 1
    assert "argument --zy: expected one argument" in err


@pytest.mark.parametrize("argv, field", [
    (("power", "--deltas", "nan,0", "--reps", "10", "--seed", "1"), "delta_grid[0]"),
    (("power", "--deltas", "0,0;0,inf", "--reps", "10", "--seed", "1"), "delta_grid[1]"),
    (("sobel-density", "--delta-x", "0,-inf", "--reps", "10"), "delta_x_list"),
    (("ecdf", "--delta", "nan,0", "--reps", "10"), "delta_star"),
])
def test_simulate_refuses_non_finite_shifts(capsys, argv, field):
    code, out, err = _run(capsys, "simulate", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {field} must be finite")


@pytest.mark.parametrize("command", [("power", "--seed", "1"), ("sobel-density", "--delta-x", "0")])
def test_simulate_refuses_an_n_whose_root_overflows(capsys, command):
    # sqrt(n) of a 401-digit n is no float; this used to end in an OverflowError traceback
    code, out, err = _run(capsys, "simulate", *command, "--reps", "10", "--n", "1" + "0" * 400)
    assert (code, out) == (1, "")
    assert err == "error: n must be at most 1.7976931348623157e+308, got a 1329-bit integer\n"


def test_adjust_golden(tmp_path, capsys):
    pvals = [0.001, 0.008, 0.039, 0.041, 0.042, 0.06, 0.074, 0.205, 0.212, 0.216]
    path = tmp_path / "p.csv"
    path.write_text("p\n" + "".join(f"{p}\n" for p in pvals))

    code, out, _ = _run(capsys, "adjust", "bh", "--q", "0.05", "--in", str(path))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,reject"
    assert lines[1] == "0.001,true"
    assert lines[2] == "0.008,true"
    assert lines[3] == "0.039,false"
    assert all(ln.endswith("false") for ln in lines[3:])

    code, out, _ = _run(capsys, "adjust", "bonferroni", "--q", "0.05",
                        "--in", str(path))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "0.001,true"
    assert all(ln.endswith("false") for ln in lines[2:])


def test_adjust_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("pval\n0.3\n")
    code, _, err = _run(capsys, "adjust", "bh", "--q", "0.05", "--in", str(bad))
    assert code == 2
    assert "missing columns ['p']" in err
    assert _run(capsys, "adjust", "bh", "--q", "0.05",
                "--in", str(tmp_path / "gone.csv"))[0] == 2


@pytest.mark.parametrize("body, where", [
    ("p\n0.2\n1.5\n", "row 2, column 'p': p-value must lie in [0, 1], got 1.5"),
    ("p\n-0.0\n-1e-300\n", "row 2, column 'p': p-value must lie in [0, 1], got -1e-300"),
    ("p\nnan\n", "row 1, column 'p': missing or non-finite value 'nan'"),
    ("p\n0.2\n0.3\ninf\n", "row 3, column 'p': missing or non-finite value 'inf'"),
    ("p\n0.2\nabc\n", "row 2, column 'p': non-numeric value 'abc'"),
    ("p\n0.2\n\n\n0.3\n \n", None),
    ("q,p\n1,0.2\n2\n", "row 2 has 1 fields, expected 2"),
    ("p\n", "no data rows after the header"),
    ("", "empty file, expected a header row"),
    ("p,p\n0.1,0.2\n", "column 'p' appears 2 times in the header"),
])
def test_adjust_input_contract(tmp_path, capsys, body, where):
    path = tmp_path / "p.csv"
    path.write_text(body)
    code, out, err = _run(capsys, "adjust", "bh", "--q", "0.5", "--in", str(path))
    if where is None:  # blank and whitespace-only lines are skipped
        assert (code, out, err) == (0, "p,reject\n0.2,true\n0.3,true\n", "")
    else:
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: {where}")


def test_adjust_reads_the_p_column_among_others(tmp_path, capsys):
    plain, wide = tmp_path / "plain.csv", tmp_path / "wide.csv"
    pvals = [0.001, 0.3, 0.04, 1.0, 0.0]
    plain.write_text("p\n" + "".join(f"{p!r}\n" for p in pvals))
    wide.write_text("gene, p ,zx\n" + "".join(f"g{k},{p!r},nan\n" for k, p in enumerate(pvals)))
    for rule in ("bh", "bonferroni"):
        want = _run(capsys, "adjust", rule, "--q", "0.05", "--in", str(plain))
        assert want[0] == 0
        assert _run(capsys, "adjust", rule, "--q", "0.05", "--in", str(wide)) == want


def test_adjust_and_fit_read_a_byte_order_mark(tmp_path, capsys):
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text("p\n0.01\n0.2\n")
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    want = _run(capsys, "adjust", "bh", "--q", "0.05", "--in", str(plain))
    assert want[0] == 0
    assert _run(capsys, "adjust", "bh", "--q", "0.05", "--in", str(bom)) == want

    _write_fit_csv(plain)
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    argv = ("fit", "--y", "y", "--a", "a", "--m", "m", "--data")
    want = _run(capsys, *argv, str(plain))
    assert want[0] == 0
    assert _run(capsys, *argv, str(bom)) == want


def test_fit_refuses_a_column_named_twice(tmp_path, capsys):
    _write_fit_csv(tmp_path / "d.csv")
    lines = (tmp_path / "d.csv").read_text().splitlines()
    (tmp_path / "twice.csv").write_text("".join(
        f"{ln},{'m' if k == 0 else k}\n" for k, ln in enumerate(lines)))
    code, out, err = _run(capsys, "fit", "--data", str(tmp_path / "twice.csv"),
                          "--y", "y", "--a", "a", "--m", "m")
    assert (code, out) == (2, "")
    assert "column 'm' appears 2 times in the header" in err


def _write_fit_csv(path, n=40, seed=23):
    rng = np.random.Generator(np.random.Philox(seed))
    a = rng.standard_normal(n)
    m = 0.4 + 0.6 * a + rng.standard_normal(n)
    y = 1.0 + 0.5 * a + 0.8 * m + rng.standard_normal(n)
    path.write_text("y,a,m\n" + "".join(
        f"{float(yv)!r},{float(av)!r},{float(mv)!r}\n"
        for yv, av, mv in zip(y, a, m)))
    return MediationDataset(y, a, m, np.empty((n, 0)))


def test_fit_main_effects(tmp_path, capsys):
    data = _write_fit_csv(tmp_path / "d.csv")
    code, out, _ = _run(capsys, "fit", "--data", str(tmp_path / "d.csv"),
                        "--y", "y", "--a", "a", "--m", "m")
    assert code == 0
    doc = json.loads(out)
    fit, pair = product_method_stats(data)
    assert doc["model"] == "main_effects"
    assert doc["a_prime"] is None
    assert doc["n"] == 40
    assert doc["delta_x_hat"] == pytest.approx(fit.delta_x_hat, rel=1e-12)
    assert doc["zx"] == pytest.approx(pair.zx, rel=1e-12)
    assert doc["zy"] == pytest.approx(pair.zy, rel=1e-12)


def test_fit_interaction(tmp_path, capsys):
    data = _write_fit_csv(tmp_path / "d.csv")
    code, out, _ = _run(capsys, "fit", "--data", str(tmp_path / "d.csv"),
                        "--y", "y", "--a", "a", "--m", "m",
                        "--interaction", "--a-prime", "1.3", "--a-dblprime", "0.2")
    assert code == 0
    doc = json.loads(out)
    fit, _ = product_method_stats(data, "interaction", 1.3, 0.2)
    assert doc["model"] == "interaction"
    assert doc["a_prime"] == 1.3
    assert doc["delta_y_hat"] == pytest.approx(fit.delta_y_hat, rel=1e-12)


def test_fit_errors(tmp_path, capsys):
    _write_fit_csv(tmp_path / "d.csv")
    code, _, err = _run(capsys, "fit", "--data", str(tmp_path / "d.csv"),
                        "--y", "y", "--a", "a", "--m", "m",
                        "--interaction", "--a-prime", "1", "--a-dblprime", "1")
    assert code == 1
    assert "distinct" in err

    bad = tmp_path / "bad.csv"
    bad.write_text("y,a,m\n1,NA,3\n")
    code, _, err = _run(capsys, "fit", "--data", str(bad),
                        "--y", "y", "--a", "a", "--m", "m")
    assert code == 2
    assert "row 1" in err


def test_fit_names_collinear_columns(tmp_path, capsys):
    data = _write_fit_csv(tmp_path / "d.csv")
    rows = zip(data.y, data.a, data.m)
    (tmp_path / "dup.csv").write_text("y,a,m,dose\n" + "".join(
        f"{yv},{av},{mv},{mv}\n" for yv, av, mv in rows))
    code, out, err = _run(capsys, "fit", "--data", str(tmp_path / "dup.csv"),
                          "--y", "y", "--a", "a", "--m", "m", "--covars", "dose")
    assert (code, out) == (2, "")
    assert "collinear columns: m" in err


def test_fit_strips_covariate_names(tmp_path, capsys):
    data = _write_fit_csv(tmp_path / "d.csv")
    rows = zip(data.y.tolist(), data.a.tolist(), data.m.tolist(),
               np.linspace(-1.0, 1.0, 40).tolist(), [k % 2 for k in range(40)])
    (tmp_path / "c.csv").write_text("y,a,m,age,sex\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in rows))
    argv = ["fit", "--data", str(tmp_path / "c.csv"), "--y", "y", "--a", "a", "--m", "m"]
    code, out, err = _run(capsys, *argv, "--covars", "age,sex")
    assert (code, err) == (0, "")
    for covars in ("age, sex", " age ,sex ,"):
        assert _run(capsys, *argv, "--covars", covars) == (0, out, "")


def test_simulate_power_strips_method_names(capsys):
    argv = ["simulate", "power", "--deltas", "0,0", "--reps", "100", "--seed", "3"]
    code, out, err = _run(capsys, *argv, "--methods", "minimax, js")
    assert (code, err) == (0, "")
    assert out == _run(capsys, *argv, "--methods", "minimax,js")[1]
    assert [row.split(",")[2] for row in out.splitlines()[1:]] == ["minimax", "js"]


def test_simulate_power_outputs_are_stable(tmp_path, capsys):
    argv = ["simulate", "power", "--methods", "minimax,js", "--deltas",
            "0,0;0.3,0.3", "--n", "20", "--reps", "3000", "--seed", "11"]
    f1, f2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli_dispatch(argv + ["--out", f1]) == 0
    assert cli_dispatch(argv + ["--out", f2]) == 0
    assert capsys.readouterr().out == ""
    text = open(f1).read()
    assert text == open(f2).read()
    assert text.startswith("delta_x,delta_y,method,alpha,n,reps,reject_rate,mc_se,seed\n")
    assert len(text.strip().split("\n")) == 1 + 2 * 2


def test_simulate_power_bad_method(capsys):
    code, _, err = _run(capsys, "simulate", "power", "--methods", "wald",
                        "--reps", "10", "--seed", "1")
    assert code == 1
    assert "unknown method" in err


def test_simulate_ecdf_command(capsys):
    code, out, _ = _run(capsys, "simulate", "ecdf", "--reps", "40", "--seed", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "method,p_value,ecdf"
    assert len(lines) == 1 + 80


def test_simulate_sobel_density_command(capsys):
    code, out, _ = _run(capsys, "simulate", "sobel-density", "--delta-x", "0,0.3",
                        "--n", "30", "--reps", "20", "--seed", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "delta_x,sample"
    assert len(lines) == 1 + 40
    code, _, err = _run(capsys, "simulate", "sobel-density", "--delta-x", "zz",
                        "--reps", "5")
    assert code == 1


def test_bayes_solve_and_reuse(tmp_path, capsys):
    path = str(tmp_path / "bayes.region.json")
    code, _, _ = _run(capsys, "bayes", "solve", "--alpha", "0.05", "--m", "8",
                      "--out", path)
    assert code == 0
    region = deserialize(open(path).read())
    assert region.kind == "bayes"

    # far outside the box both coordinates clear the outside rule
    code, out, _ = _run(capsys, "test", "--region", path, "--zx", "4", "--zy", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "bayes"
    assert doc["rejection_probability"] == 1.0 and doc["reject"] is True

    code, _, _ = _run(capsys, "simulate", "power", "--methods", "bayes",
                      "--bayes-region", path, "--reps", "2000", "--seed", "3")
    assert code == 0


def test_bayes_solve_is_identical_across_processes(package_env):
    argv = [sys.executable, "-m", "compnull", "bayes", "solve", "--alpha", "0.05", "--m", "12"]
    first, second = (subprocess.run(argv, env=package_env, capture_output=True, check=True).stdout
                     for _ in range(2))
    assert first and first == second
    assert deserialize(first.decode()).kind == "bayes"


def test_bayes_solve_usage_error(capsys):
    code, _, err = _run(capsys, "bayes", "solve", "--alpha", "0.05", "--m", "2")
    assert code == 1
    assert "m must be" in err
    for sd in ("nan", "inf", "0"):
        code, out, err = _run(capsys, "bayes", "solve", "--alpha", "0.05", "--m", "8",
                              f"--prior-sd={sd}")
        assert code == 1 and out == ""
        assert "prior_sd must be positive and finite" in err
    code, _, _ = _run(capsys, "bayes", "solve", "--alpha", "0.05", "--m", "8",
                      "--grid-points", "64")
    assert code == 1


def test_bayes_solve_refuses_orders_above_the_limit(capsys, monkeypatch):
    # build_lp refuses m = 257 before its ladder is laid out; m = 256 goes on to lay it
    def no_ladder(*args):
        raise AssertionError("the LP ladder was built")

    monkeypatch.setattr(compnull.bayes_lp, "_ladder", no_ladder)
    code, out, err = _run(capsys, "bayes", "solve", "--alpha", "0.05", "--m", "257")
    assert (code, out, err) == (1, "", "error: order m=257 exceeds the limit of 256\n")
    with pytest.raises(AssertionError, match="the LP ladder was built"):
        cli_dispatch(["bayes", "solve", "--alpha", "0.05", "--m", "256"])


# One command line per leaf command; {dir} is a directory holding p.csv and d.csv.
_LEAF_COMMANDS = [
    ("region", "build", "--method", "js", "--alpha", "0.05"),
    ("test", "--zx", "2.5", "--zy", "1.0", "--alpha", "0.05"),
    ("test3", "--z", "1,2,3", "--alpha", "0.005"),
    ("pvalue", "--zx", "2.5", "--zy", "1.0"),
    ("adjust", "bh", "--q", "0.05", "--in", "{dir}/p.csv"),
    ("bayes", "solve", "--alpha", "0.05", "--m", "8"),
    ("fit", "--data", "{dir}/d.csv", "--y", "y", "--a", "a", "--m", "m"),
    ("simulate", "power", "--reps", "300", "--seed", "1"),
    ("simulate", "ecdf", "--reps", "20", "--seed", "1"),
    ("simulate", "sobel-density", "--delta-x", "0,0.3", "--reps", "10", "--seed", "1"),
]


@pytest.mark.parametrize("argv", _LEAF_COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_out_file_is_the_document_stdout_prints(tmp_path, capsys, argv):
    (tmp_path / "p.csv").write_text("p\n0.001\n0.04\n0.3\n")
    _write_fit_csv(tmp_path / "d.csv")
    argv = [arg.format(dir=tmp_path) for arg in argv]
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (0, "") and out
    path = tmp_path / "doc"
    code, printed, err = _run(capsys, *argv, "--out", str(path))
    assert (code, printed, err) == (0, "", "")
    with open(path, newline="") as fh:
        text = fh.read()
    # CSV tables end with a newline of their own; stdout adds one to the other documents
    assert out == text + ("" if argv[0] in ("adjust", "simulate") else "\n")


def test_bayes_solve_reports_a_failed_solve_as_a_data_error(capsys, monkeypatch):
    monkeypatch.setattr(compnull.cli, "solve_lp",
                        lambda problem: LpSolution(np.zeros(3), 0.0, "infeasible"))
    code, out, err = _run(capsys, "bayes", "solve", "--alpha", "0.05", "--m", "8")
    assert (code, out, err) == (2, "", "error: solver finished with status infeasible\n")


def test_bayes_solve_certifies_at_half_level(tmp_path, capsys):
    path = tmp_path / "half.region.json"
    code, out, err = _run(capsys, "bayes", "solve", "--alpha", "0.5", "--m", "32",
                          "--out", str(path))
    assert (code, out, err) == (0, "", "")
    assert deserialize(path.read_text()).kind == "bayes"


def test_bayes_solve_reports_an_uncertified_basis_as_a_data_error(capsys, monkeypatch):
    monkeypatch.setattr(compnull.bayes_lp, "_CERT_TOL", -1.0)
    code, out, err = _run(capsys, "bayes", "solve", "--alpha", "0.05", "--m", "8")
    assert (code, out) == (2, "")
    assert err == "error: solver failed: the final basis is not certified optimal\n"


def test_main_alias(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_shipped_region_document_answers_like_its_v1_original(capsys, shipped_bayes_paths,
                                                              shipped_bayes_region):
    v2_path, v1_path = (str(p) for p in shipped_bayes_paths)
    edges = shipped_bayes_region.x_edges
    rng = np.random.default_rng(97)
    points = [(float(x), float(y)) for x, y in rng.normal(scale=2.5, size=(12, 2))]
    points += [(float(edges[k]), float(edges[k + 5])) for k in (1, 30, 48, 60)]
    points += [(float(edges[40]), 0.7), (float("inf"), float("inf")), (float("-inf"), 2.5),
               (3.0, float("inf")), (0.0, 0.0)]
    for zx, zy in points:
        args = ("test", f"--zx={zx!r}", f"--zy={zy!r}", "--region")
        new, old = _run(capsys, *args, v2_path), _run(capsys, *args, v1_path)
        assert new[0] == old[0] == 0
        assert new[1] == old[1]
