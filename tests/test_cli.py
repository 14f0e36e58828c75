"""End-to-end command-line checks through cli_dispatch."""

import json
import subprocess
import sys

import numpy as np
import pytest

import compnull.cli
from compnull.cli import cli_dispatch, main
from compnull.latin3 import cyclic_latin, square_to_json
from compnull.mediation import MediationDataset, product_method_stats
from compnull.regions import deserialize
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


def test_three_factor_refuses_orders_above_the_limit(tmp_path, capsys):
    # K = 201 is refused before any square is built or read, so a missing
    # square file is never opened
    alpha = 1.0 / 201
    want = (f"error: order K=201 (alpha={alpha!r}) exceeds the limit of 200; "
            "alpha must be >= 0.005\n")
    for square in ("cyclic", str(tmp_path / "missing.json")):
        code, out, err = _run(capsys, "test3", "--z", "1,2,3", "--alpha", repr(alpha),
                              "--square", square)
        assert (code, out, err) == (1, "", want)
    code, out, _ = _run(capsys, "test3", "--z", "1,2,3", "--alpha", "0.005")
    assert code == 0 and json.loads(out)["order"] == 200


@pytest.mark.parametrize("alpha", ["0.4", "0.3", "1e-320"])
def test_three_factor_refuses_non_unit_levels(capsys, alpha):
    code, out, err = _run(capsys, "test3", "--z", "1,2,3", "--alpha", alpha)
    assert (code, out) == (1, "")
    assert err == f"error: alpha={float(alpha)!r} must be 1/K for an integer order K\n"


_GRID_COMMANDS = [("test", "--zx", "1", "--zy", "1", "--method", "minimax"),
                  ("test", "--zx", "1", "--zy", "1", "--method", "extended"),
                  ("region", "build", "--method", "minimax"),
                  ("region", "build", "--method", "extended"),
                  ("simulate", "power", "--methods", "js,extended", "--reps", "10",
                   "--seed", "1")]


@pytest.mark.parametrize("alpha", ["0.000999", "1e-320"])
@pytest.mark.parametrize("command", _GRID_COMMANDS)
def test_grid_methods_refuse_orders_above_the_limit(capsys, command, alpha):
    # refused before any grid is built, even where floor(1/alpha) would overflow
    code, out, err = _run(capsys, *command, "--alpha", alpha)
    assert (code, out) == (1, "")
    assert err == (f"error: order floor(1/alpha) (alpha={float(alpha)!r}) exceeds the "
                   "limit of 1000; alpha must be > 1/1001\n")


def test_grid_methods_accept_the_limit_order(capsys):
    for method in ("minimax", "extended"):
        code, out, _ = _run(capsys, "test", "--zx", "1", "--zy", "1", "--method", method,
                            "--alpha", "0.001")
        assert code == 0 and json.loads(out)["reject"] is True
    code, out, _ = _run(capsys, "simulate", "power", "--methods", "js", "--reps", "10",
                        "--seed", "1", "--alpha", "0.000999")
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
    assert "header 'p'" in err
    assert _run(capsys, "adjust", "bh", "--q", "0.05",
                "--in", str(tmp_path / "gone.csv"))[0] == 2


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
    # m = 257 is refused before the LP is built; m = 256 goes on to build it
    def no_build(*args):
        raise AssertionError("build_lp was called")

    monkeypatch.setattr(compnull.cli, "build_lp", no_build)
    code, out, err = _run(capsys, "bayes", "solve", "--alpha", "0.05", "--m", "257")
    assert (code, out, err) == (1, "", "error: order m=257 exceeds the limit of 256\n")
    with pytest.raises(AssertionError, match="build_lp was called"):
        cli_dispatch(["bayes", "solve", "--alpha", "0.05", "--m", "256"])


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
