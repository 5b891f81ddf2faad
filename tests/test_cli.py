import argparse
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hquat
from hquat import Quaternion, cli, format_expr
from hquat.cli import MAX_GRID, SUBCOMMANDS, main, sample_ball
from hquat.functions import MAX_DEPTH, MAX_EXPONENT
from test_parser import _random_tree


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--format", "machine"])
    return code, (json.loads(out) if out else None), err


def test_eval_exp_at_zero(capsys):
    code, rep, _ = run_json(capsys, ["eval", "--expr", "exp(p)", "--point", "0", "0", "0", "0"])
    assert code == 0
    assert rep["subcommand"] == "eval"
    assert rep["results"]["value"] == [1.0, 0.0, 0.0, 0.0]
    assert rep["results"]["cd_a"] == [1.0, 0.0]


def test_eval_square_of_unit_sum(capsys):
    code, rep, _ = run_json(capsys, ["eval", "--expr", "p^2", "--point", "0", "1", "1", "0"])
    assert code == 0
    assert rep["results"]["value"] == [-2.0, 0.0, 0.0, 0.0]


def test_machine_format_is_deterministic(capsys):
    argv = ["check", "--expr", "sin(p)", "--grid", "4", "--seed", "7", "--format", "machine"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--expr", "exp(p)*sin(p)", "--point", "0.3", "0.1", "-0.2", "0.4"],
        ["check", "--expr", "sin(p)*cos(p)", "--grid", "16", "--radius", "2"],
        ["series", "--expr", "exp(p)", "--n", "64", "--samples", "1024"],
        ["derive", "--expr", "exp(p)", "--point", "0.5", "0", "0.1", "0", "--k", "3"],
        ["radius", "--expr", "p"],  # inconclusive: the results carry a note
        ["commute", "--expr", "exp(p)", "--expr", "cos(p)", "--grid", "8"],
    ],
)
def test_machine_output_is_json_dumps_with_indent_2(capsys, argv):
    code, out, _ = run_cli(capsys, argv + ["--format", "machine"])
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_to_json_spells_every_value_as_json_dumps():
    doc = {
        "floats": [-0.0, 5e-324, 1e16, 1.7976931348623157e308, 0.1, -2.5],
        "nonfinite": [1.0, math.nan, math.inf, -math.inf],
        "ints": [0, -3, 12345678901234567890],
        "mixed": [1, -0.0, True, False, None, "s", math.inf, [], {}],
        "scalars": {"int": 7, "float": 1e-7, "nan": math.nan, "true": True, "false": False, "none": None},
        "empty_list": [],
        "empty_dict": {},
        "rows": [{"a": [1.0, 2.0], "b": {"c": [[], [0.5]]}}, {}],
        "strings": ['quote " and backslash \\', "control \x00\x1f\n\t\r\b\f\x7f", "non-ASCII \u00e9 \u2202 \U0001d573", ""],
        'key with "quotes", \\ and \u00e9': "value",
    }
    assert cli.to_json(doc) == json.dumps(doc, indent=2)
    for scalar in (math.nan, -math.inf, 5e-324, -0.0, 3, True, None, "\u00e9", [], {}):
        assert cli.to_json(scalar) == json.dumps(scalar, indent=2)
    with pytest.raises(TypeError):
        cli.to_json({"tuple": (1.0,)})


# One fixed input per subcommand and its text report, byte for byte.  Text is
# not a stability contract: a deliberate change to a report rewrites its file.
GOLDEN_TEXT = {
    "eval": ["eval", "--expr", "exp(p)*sin(p)", "--point", "0.3", "0.1", "-0.2", "0.4"],
    "check": ["check", "--expr", "sin(p)", "--grid", "3", "--seed", "7"],
    "series": ["series", "--expr", "sin(p)", "--n", "6"],
    "derive": ["derive", "--expr", "exp(p)", "--point", "0.5", "0", "0.1", "0", "--k", "3"],
    "radius": ["radius", "--expr", "1/(1-p)"],
    "commute": ["commute", "--expr", "exp(p)", "--expr", "cos(p)", "--grid", "8"],
}


@pytest.mark.parametrize("name", list(GOLDEN_TEXT))
def test_text_report_matches_its_golden_file(capsys, name):
    code, out, _ = run_cli(capsys, GOLDEN_TEXT[name])
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / f"{name}.txt").read_text()


def test_check_pass_and_fail_exit_codes(capsys):
    code, rep, _ = run_json(capsys, ["check", "--expr", "exp(p)", "--grid", "5"])
    assert code == 0 and rep["results"]["pass"]

    code, rep, _ = run_json(capsys, ["check", "--expr", "p^3 - 2*p", "--grid", "5"])
    assert code == 0 and rep["results"]["pass"]

    code, rep, _ = run_json(capsys, ["check", "--expr", "j*exp(p)", "--grid", "5"])
    assert code == 1 and not rep["results"]["pass"]
    assert rep["inputs"]["nonreal_constant"]


def test_check_single_point(capsys):
    code, rep, _ = run_json(capsys, ["check", "--expr", "cos(p)", "--point", "0.3", "0", "0.4", "0.1"])
    assert code == 0
    assert len(rep["results"]["points"]) == 1
    assert max(rep["results"]["points"][0]["main_residuals"]) <= 1e-6


def test_check_point_off_slice_is_eval_error(capsys):
    code, out, err = run_cli(capsys, ["check", "--expr", "cos(p)", "--point", "0.3", "0.2", "0.4", "0.1"])
    assert code == 3
    assert "evaluation error" in err


def test_check_overflow_in_phi_is_eval_error(capsys):
    # cosh(800) overflows in the components differenced by the holomorphy check
    code, out, err = run_cli(capsys, ["check", "--expr", "cos(p)", "--point", "0", "0", "800", "0"])
    assert code == 3
    assert "evaluation error" in err


@pytest.mark.parametrize(
    "expr, x", [("1.5e303/(p-0.3)", "0.3000000001"), ("1.7e308*(i*p)", "0"), ("0.852e308*(1+i)*p*i", "0")]
)
def test_check_stencil_overflow_is_eval_error(capsys, expr, x):
    # an overflowing difference quotient or partial printed NaN or Infinity,
    # which is not JSON, and exited 1 as a failed check; an overflowing
    # residual ended in an OverflowError traceback
    code, out, err = run_cli(capsys, ["check", "--expr", expr, "--point", x, "0", "0", "0", "--format", "machine"])
    assert code == 3 and out == ""
    assert "evaluation error" in err


@pytest.mark.parametrize("point", [["1.79769e308", "0", "0", "0"], ["0", "0", "1.79769e308", "0"]])
def test_check_stepped_point_overflow_is_eval_error(capsys, point):
    # p + h overflowed in the Quaternion constructor, a ValueError that ended
    # in exit 2 as a usage error, while derive at the same point exited 3
    code, out, err = run_cli(capsys, ["check", "--expr", "p", "--point", *point, "--format", "machine"])
    assert code == 3 and out == ""
    assert "evaluation error" in err and "usage" not in err


def test_check_infinite_stencil_width_is_eval_error(capsys):
    # 2h = inf made every quotient read 0, a vacuous PASS with exit 0
    argv = ["check", "--expr", "0.001*j*p", "--point", "0", "0", "0", "0", "--format", "machine"]
    code, out, err = run_cli(capsys, argv + ["--step", "1e308"])
    assert code == 3 and out == ""
    assert "evaluation error" in err
    code, _, _ = run_cli(capsys, argv + ["--step", "1e307"])
    assert code == 1


@pytest.mark.parametrize("expr, x", [("exp(0-p^400)", "10"), ("exp(0-p^2)", "1e200")])
def test_eval_overflow_hidden_by_later_node_exit_code(capsys, expr, x):
    # the power overflows; exp of the resulting -inf would be a finite 0
    code, out, err = run_cli(capsys, ["eval", "--expr", expr, "--point", x, "0", "0", "0"])
    assert code == 3
    assert out == ""
    assert "evaluation error" in err


def test_series_cos_table(capsys):
    code, rep, _ = run_json(capsys, ["series", "--expr", "cos(p)", "--n", "6"])
    assert code == 0
    want = [1.0, 0.0, -0.5, 0.0, 1 / 24, 0.0, -1 / 720]
    for got, expect in zip(rep["results"]["coefficients"], want):
        assert abs(got - expect) <= 1e-9
    assert rep["results"]["general_term"]["matches"]
    assert rep["results"]["max_nonreal_residue"] <= 1e-8


def test_series_identity_polynomial(capsys):
    code, rep, _ = run_json(capsys, ["series", "--expr", "p", "--n", "3"])
    assert code == 0
    got = rep["results"]["coefficients"]
    for v, expect in zip(got, [0.0, 1.0, 0.0, 0.0]):
        assert abs(v - expect) <= 1e-12


def test_series_sin_cos_high_order(capsys):
    code, rep, _ = run_json(
        capsys, ["series", "--expr", "sin(p)*cos(p)", "--n", "17", "--rho", "1.0", "--samples", "256"]
    )
    assert code == 0
    r17 = rep["results"]["coefficients"][17]
    assert abs(r17 - 65536 / math.factorial(17)) <= 1e-9
    assert rep["results"]["general_term"]["matches"]


def test_series_text_reports_a_finite_radius(capsys):
    code, out, _ = run_cli(capsys, ["series", "--expr", "1/(1-p)"])
    assert code == 0
    assert out.endswith("\nradius: 1\n")


def test_series_nonreal_exit_code(capsys):
    code, rep, _ = run_json(capsys, ["series", "--expr", "j*exp(p)", "--n", "3"])
    assert code == 4
    assert rep["results"]["max_nonreal_residue"] > 1e-8


@pytest.mark.parametrize("expr", ["j*p", "k*p^2"])
def test_series_left_constant_is_nonreal(capsys, expr):
    # the restriction is conj(a)-terms in the second component, at negative
    # frequencies; these printed all-zero coefficients and exited 0
    code, rep, _ = run_json(capsys, ["series", "--expr", expr, "--n", "4"])
    assert code == 4
    assert rep["results"]["max_nonreal_residue"] > 0.5


def test_derive_first_order(capsys):
    code, rep, _ = run_json(capsys, ["derive", "--expr", "cos(p)", "--point", "0.5", "-0.2", "0.9", "0.1", "--k", "1"])
    assert code == 0
    import hquat

    p = Quaternion(0.5, -0.2, 0.9, 0.1)
    want = -hquat.evaluate(hquat.parse("sin(p)"), p)
    got = Quaternion(*rep["results"]["value"])
    assert (got - want).norm() <= 1e-7 * max(1.0, want.norm())
    assert rep["results"]["method"] == "stencil"


def test_derive_all_orders_identity_at_origin(capsys):
    code, rep, _ = run_json(capsys, ["derive", "--expr", "exp(p)", "--point", "0", "0", "0", "0", "--k", "4"])
    assert code == 0
    assert abs(rep["results"]["value"][0] - 1.0) <= 1e-6
    assert rep["results"]["method"] == "series"


def test_derive_power_rule(capsys):
    code, rep, _ = run_json(capsys, ["derive", "--expr", "p^2", "--point", "1", "2", "3", "4", "--k", "2"])
    assert code == 0
    assert abs(rep["results"]["value"][0] - 2.0) <= 1e-6

    code, rep, _ = run_json(capsys, ["derive", "--expr", "p^2", "--point", "0.3", "0.5", "-0.2", "0.4", "--k", "2"])
    assert code == 0
    assert abs(rep["results"]["value"][0] - 2.0) <= 1e-8
    assert not rep["results"]["accuracy_warning"]


def test_radius_reports_infinite_for_exp(capsys):
    code, rep, _ = run_json(capsys, ["radius", "--expr", "exp(p)", "--n", "32", "--rho", "1.0"])
    assert code == 0
    assert rep["results"]["radius_is_infinite"]
    assert rep["results"]["L_estimate"] < 1e-8
    assert rep["results"]["monotone_decreasing"]


def test_commute_holomorphic_pair(capsys):
    code, rep, _ = run_json(capsys, ["commute", "--expr", "sin(p)", "--expr", "cos(p)", "--grid", "10"])
    assert code == 0 and rep["results"]["pass"]

    code, rep, _ = run_json(capsys, ["commute", "--expr", "exp(p)", "--expr", "p^2+1", "--grid", "10"])
    assert code == 0 and rep["results"]["pass"]


def test_commute_constants_fail_with_residual_two(capsys):
    code, rep, _ = run_json(capsys, ["commute", "--expr", "j", "--expr", "k", "--grid", "3"])
    assert code == 1
    assert rep["results"]["max_residual"] == 2.0


@pytest.mark.parametrize(
    "exprs, point",
    [(("p^4", "i*p^4"), ["1e50", "0", "1e50", "0"]), (("p", "j*p"), ["1e160", "0", "0", "0"])],
)
def test_commute_product_overflow_is_eval_error(capsys, exprs, point):
    # the overflowing product was rejected by the Quaternion constructor,
    # a ValueError that ended in exit 2 as a usage error
    code, out, err = run_cli(capsys, ["commute", "--expr", exprs[0], "--expr", exprs[1], "--point", *point])
    assert code == 3 and out == ""
    assert "evaluation error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--expr", "1e308*sin(1e6*p)", "--point", "0.3", "0", "0", "0"],
        ["--expr", "1e308*sin(1e6*p)", "--point", "0.3", "0", "0", "0", "--k", "2"],
        ["--expr", "p", "--point", "1.79769e308", "0", "0", "0"],
        ["--expr", "1e154*(1*p)-i*(1*p)*i", "--point", "1e154", "0", "1e154", "0", "--format", "machine"],
    ],
)
def test_derive_stencil_overflow_is_eval_error(capsys, argv):
    # the difference quotient (or the shifted point) overflowed in the
    # Quaternion constructor, a ValueError that ended in exit 2 as a usage
    # error; the overflowing truncation estimate of the last case was printed
    # as Infinity, which is not JSON, with exit 0
    code, out, err = run_cli(capsys, ["derive"] + argv)
    assert code == 3 and out == ""
    assert "evaluation error" in err and "usage" not in err


def test_derive_overflowing_difference_with_finite_derivative(capsys):
    # f(p+h) - f(p-h) overflowed and exited 3, although f' is finite
    argv = ["derive", "--expr", "1.7e308*sin(p)", "--point", "100000", "0", "0", "0"]
    code, rep, _ = run_json(capsys, argv)
    assert code == 0
    assert rep["results"]["method"] == "stencil" and rep["results"]["accuracy_warning"] is True
    x = rep["results"]["value"][0]
    assert math.isfinite(x) and -1.8e308 < x < -1e308


@pytest.mark.parametrize("k", ["171", "172", "400"])
@pytest.mark.parametrize("expr", ["0*p", "0", "exp(p)*0", "sin(p)*1e-320", "1e-300*p^200"])
def test_derive_at_the_origin_past_the_largest_double_factorial(capsys, expr, k):
    # k! was rounded to a double first: OverflowError, a traceback and exit 1
    code, out, err = run_cli(capsys, ["derive", "--expr", expr, "--point", "0", "0", "0", "0", "--k", k, "--format", "machine"])
    if code == 3:
        assert out == "" and "evaluation error" in err and "leaves the double range" in err
        return
    assert code == 0
    results = json.loads(out)["results"]
    assert results["method"] == "series"
    assert all(map(math.isfinite, results["value"] + [results["truncation_estimate"]]))
    if expr in ("0*p", "0", "exp(p)*0"):
        assert results["value"] == [0.0, 0.0, 0.0, 0.0]
        assert results["truncation_estimate"] == 0.0 and results["accuracy_warning"] is False


def test_derive_nonreal_coefficient_exit_code(capsys):
    # the origin takes the series route, which rejects the coefficient of i*p
    code, out, err = run_cli(capsys, ["derive", "--expr", "i*p", "--point", "0", "0", "0", "0"])
    assert code == 4 and out == ""
    assert "non-real coefficient" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--expr", "1.7e308+0*p"],
        ["radius", "--expr", "1.7e308+0*p"],
        ["derive", "--expr", "1.7e308+0*p", "--point", "0", "0", "0", "0"],
        ["series", "--expr", "1e300+0*p", "--n", "10", "--rho", "1e-30"],
    ],
)
def test_extraction_overflow_is_eval_error(capsys, argv):
    # the circle sums overflowed: series and radius exited 2 as a usage error,
    # derive 4 on a nan residue, and the small circle 4 on an inf residue
    code, out, err = run_cli(capsys, argv + ["--format", "machine"])
    assert code == 3 and out == ""
    assert "evaluation error" in err and "leave the double range" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--expr", "exp(p)", "--n", "100000"],
        ["series", "--expr", "exp(p)", "--n", "100000", "--rho", "1"],
        ["radius", "--expr", "exp(p)", "--n", "1", "--samples", "1000000000"],
        ["radius", "--expr", "exp(p)", "--n", "0", "--samples", "200000"],
        ["derive", "--expr", "exp(p)", "--k", "100000", "--point", "0", "0", "0", "0"],
        ["derive", "--expr", "exp(p)", "--k", "3000", "--point", "0", "0", "0", "0"],
    ],
)
def test_extraction_beyond_the_work_budget_is_a_usage_error(capsys, argv):
    # unbounded --n, --samples or origin --k ran for hours or filled memory
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert time.perf_counter() - start < 1.0
    assert exc.value.code == 2
    assert "must" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["derive", "--expr", "p", "--point", "1", "0", "0", "0", "--k", "2", "--step", "-1"],
        ["derive", "--expr", "p", "--point", "1", "0", "0", "0", "--k", "2", "--step", "0"],
        ["derive", "--expr", "p", "--point", "0", "0", "0", "0", "--step", "nan"],
        ["derive", "--expr", "p", "--point", "1", "0", "0", "0", "--step", "inf"],
        ["check", "--expr", "exp(p)", "--point", "0.3", "0", "0.2", "-0.1", "--step", "0"],
        ["check", "--expr", "exp(p)", "--grid", "0"],
        ["commute", "--expr", "sin(p)", "--expr", "cos(p)", "--grid", "0"],
        # below machine epsilon x +- h rounds back to x: the derivative read 0
        ["derive", "--expr", "exp(p)", "--point", "0.3", "0", "0", "0", "--step", "1e-300"],
        ["check", "--expr", "exp(p)", "--point", "0.3", "0", "0.2", "-0.1", "--step", "1e-17"],
        ["check", "--expr", "exp(p)", "--grid", str(MAX_GRID + 1)],
        ["commute", "--expr", "sin(p)", "--expr", "cos(p)", "--grid", str(MAX_GRID + 1)],
    ],
)
def test_out_of_range_step_and_grid_are_usage_errors(capsys, argv):
    # no traceback for a bad step, no vacuous PASS over an empty grid
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must be" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--expr", "exp(p)", "--samples", "8"],
        ["series", "--expr", "exp(p)", "--n", "4", "--samples", "19"],
        ["series", "--expr", "exp(p)", "--rho", "-1"],
        ["series", "--expr", "exp(p)", "--rho", "nan"],
        ["series", "--expr", "exp(p)", "--n", "-1"],
        ["radius", "--expr", "exp(p)", "--rho", "0"],
        ["radius", "--expr", "exp(p)", "--rho", "inf"],
        ["radius", "--expr", "exp(p)", "--n", "-1"],
        ["radius", "--expr", "exp(p)", "--samples", "8"],
    ],
)
def test_out_of_range_series_arguments_are_usage_errors(capsys, argv):
    # each of these used to leave a traceback from maclaurin_extraction
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must be" in captured.err and captured.out == ""


def test_check_inputs_name_only_inputs_used(capsys):
    # grid, radius and seed choose the sampled points; --point replaces them
    sampled = ["grid", "radius", "seed"]
    _, rep, _ = run_json(capsys, ["check", "--expr", "exp(p)", "--point", "0.3", "0", "0.2", "-0.1"])
    assert list(rep["inputs"]) == ["expr", "tol", "step", "nonreal_constant"]
    _, rep, _ = run_json(capsys, ["check", "--expr", "exp(p)", "--grid", "2"])
    assert list(rep["inputs"]) == ["expr", "tol", "step", *sampled, "nonreal_constant"]


def test_commute_past_the_square_overflow_is_judged(capsys):
    # |f(p)|^2 overflowed above |f(p)| ~ 1.3e154: the residual read inf and
    # passed its infinite limit, although p and j*p do not commute
    code, rep, _ = run_json(capsys, ["commute", "--expr", "p*1e200", "--expr", "j*p", "--grid", "2", "--radius", "1.5"])
    assert code == 1 and not rep["results"]["pass"]
    assert 1e200 < rep["results"]["max_residual"] < math.inf
    code, rep, _ = run_json(capsys, ["commute", "--expr", "p*1e200", "--expr", "p", "--grid", "2", "--radius", "1.5"])
    assert code == 0 and rep["results"]["pass"]
    assert rep["results"]["max_residual"] < math.inf


def test_eval_inverse_past_the_square_overflow(capsys):
    # |p|^2 = inf made the inverse of p a silent 0
    code, rep, _ = run_json(capsys, ["eval", "--expr", "1/p", "--point", "1e155", "0", "0", "0"])
    assert code == 0 and rep["results"]["value"] == [1e-155, 0.0, 0.0, 0.0]


def test_eval_inverse_past_the_square_underflow(capsys):
    # |p|^2 underflowed below the zero-divisor guard: 1/p at 1e-155 exited 3
    for point, inverse in (
        (["1e-155", "0", "0", "0"], [1e155, 0.0, 0.0, 0.0]),
        (["1e-300", "0", "0", "0"], [1.0 / 1e-300, 0.0, 0.0, 0.0]),
        (["0", "0", "2e-200", "0"], [0.0, 0.0, -5e199, 0.0]),
    ):
        code, rep, _ = run_json(capsys, ["eval", "--expr", "1/p", "--point", *point])
        assert code == 0 and rep["results"]["value"] == inverse
    code, out, _ = run_cli(capsys, ["eval", "--expr", "1/p", "--point", "1e-155", "0", "0", "0", "--format", "text"])
    assert code == 0 and "= 1e+155 + 0i + 0j + 0k" in out
    # zero, and a point so close to it that 1/|p| overflows, stay evaluation errors
    for x in ("3e-309", "0"):
        code, out, err = run_cli(capsys, ["eval", "--expr", "1/p", "--point", x, "0", "0", "0"])
        assert code == 3 and out == ""
        assert err == "hquat: evaluation error: quaternion too close to zero to invert: |p|^2 = 0.0\n"


def test_commute_inputs_name_only_inputs_used(capsys):
    exprs = ["--expr", "p", "--expr", "2*p"]
    _, rep, _ = run_json(capsys, ["commute", *exprs, "--point", "1", "0", "0", "0"])
    assert list(rep["inputs"]) == ["expr_f", "expr_g", "tol"]
    _, rep, _ = run_json(capsys, ["commute", *exprs, "--grid", "2"])
    assert list(rep["inputs"]) == ["expr_f", "expr_g", "tol", "grid", "radius", "seed"]


def test_parse_error_exit_code(capsys):
    code, out, err = run_cli(capsys, ["eval", "--expr", "2p", "--point", "0", "0", "0", "0"])
    assert code == 2
    assert "parse error" in err
    assert "position 1" in err


def test_eval_error_exit_code(capsys):
    code, out, err = run_cli(capsys, ["eval", "--expr", "1/p", "--point", "0", "0", "0", "0"])
    assert code == 3
    assert "evaluation error" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        ["eval", "--expr", "sin(p)", "--point", "1", "0", "0", "0", "--format", "machine", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    rep = json.loads(target.read_text())
    assert abs(rep["results"]["value"][0] - math.sin(1.0)) <= 1e-15


def test_eval_matches_series_partial_sum(capsys):
    point = ["0.4", "0.3", "-0.2", "0.1"]
    code, ev, _ = run_json(capsys, ["eval", "--expr", "sin(p)*cos(p)", "--point", *point])
    assert code == 0
    code, ser, _ = run_json(capsys, ["series", "--expr", "sin(p)*cos(p)", "--n", "21"])
    assert code == 0
    p = Quaternion(*[float(v) for v in point])
    acc = Quaternion.from_real(ser["results"]["coefficients"][-1])
    for c in reversed(ser["results"]["coefficients"][:-1]):
        acc = acc * p + c
    want = Quaternion(*ev["results"]["value"])
    assert (acc - want).norm() <= 1e-9


def test_module_execution_smoke():
    # run the package under test, wherever pytest found it
    src = str(Path(hquat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "hquat", "eval", "--expr", "exp(p)", "--point", "0", "0", "0", "0"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "1" in proc.stdout


def run_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize("radius", [math.nan, math.inf, -1.0, 0.0])
def test_sample_ball_rejects_radius_outside_the_open_half_line(radius):
    # nan and inf never returned; -1 sampled the radius-1 ball
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        sample_ball(random.Random(0), radius)


@pytest.mark.parametrize("radius", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("head", [["check", "--expr", "exp(p)"], ["commute", "--expr", "sin(p)", "--expr", "cos(p)"]])
def test_bad_radius_is_a_usage_error(capsys, head, radius):
    err = run_usage_error(capsys, head + ["--grid", "2", "--radius", radius])
    assert "radius must be positive and finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        # inf passed and nan failed every residual: vacuous verdicts
        ["check", "--expr", "j*exp(p)", "--tol", "inf"],
        ["check", "--expr", "exp(p)", "--tol", "nan"],
        ["check", "--expr", "exp(p)", "--tol", "-1"],
        ["commute", "--expr", "sin(p)", "--expr", "cos(p)", "--tol", "nan"],
        ["commute", "--expr", "sin(p)", "--expr", "cos(p)", "--tol", "inf"],
        ["commute", "--expr", "sin(p)", "--expr", "cos(p)", "--tol", "0"],
    ],
)
def test_tolerance_outside_the_open_half_line_is_a_usage_error(capsys, argv):
    err = run_usage_error(capsys, argv + ["--grid", "2"])
    assert "tolerance must be positive and finite" in err


@pytest.mark.parametrize("sub", ["series", "radius"])
@pytest.mark.parametrize("rho", ["1e-200", "1e200"])
def test_rho_whose_powers_leave_the_double_range_is_a_usage_error(capsys, sub, rho):
    # rho**k raised ZeroDivisionError (1e-200) or OverflowError (1e200)
    err = run_usage_error(capsys, [sub, "--expr", "p", "--rho", rho, "--n", "3"])
    assert "n*|log rho| <= 700" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "--expr", "1e999", "--point", "0", "0", "0", "0"], "finite"),
        (["eval", "--expr", "p", "--point", "nan", "0", "0", "0"], "non-finite quaternion component"),
        (["derive", "--expr", "exp(p)", "--point", "0.5", "0", "0", "0", "--k", "5"], "k <= 4"),
        (["commute", "--expr", "sin(p)"], "exactly two --expr arguments"),
        (["derive", "--expr", "p", "--point", "0", "0", "0", "0", "--k", "0"], "must be >= 1"),
        # the extraction's limits spoke of rho and n, which derive has no flags for
        (["derive", "--expr", "exp(p)", "--point", "0", "0", "0", "0", "--k", "100000"], "derivative order 100000"),
        (["derive", "--expr", "exp(p)", "--point", "0", "0", "0", "0", "--k", "2000"], "derivative order 2000"),
        (["eval", "--expr", f"p^{MAX_EXPONENT + 1}", "--point", "0.5", "0", "0", "0"], f"[0, {MAX_EXPONENT}]"),
    ],
)
def test_library_errors_end_in_usage_error_with_the_library_message(capsys, argv, message):
    # each of these left a traceback with exit 1
    assert message in run_usage_error(capsys, argv)


def test_unwritable_out_file_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    err = run_usage_error(capsys, ["eval", "--expr", "p", "--point", "1", "0", "0", "0", "--out", str(target)])
    assert str(target) in err


def test_expression_starting_with_minus_is_given_with_equals(capsys):
    code, rep, _ = run_json(capsys, ["eval", "--expr=-p", "--point", "1", "0", "0", "0"])
    assert code == 0
    assert rep["results"]["value"] == [-1.0, 0.0, 0.0, 0.0]


def test_expression_starting_with_minus_follows_expr(capsys):
    # argparse read "--expr -p" as a missing argument
    code, rep, _ = run_json(capsys, ["eval", "--expr", "-p", "--point", "1", "0", "0", "0"])
    assert code == 0 and rep["results"]["value"] == [-1.0, 0.0, 0.0, 0.0]
    code, rep, _ = run_json(capsys, ["commute", "--expr", "-p", "--expr", "p", "--grid", "2"])
    assert code == 0 and rep["inputs"]["expr_f"] == "-p"
    assert "expected one argument" in run_usage_error(capsys, ["eval", "--point", "1", "0", "0", "0", "--expr"])


def test_bounds_are_accepted_at_their_limits(capsys):
    code, rep, _ = run_json(capsys, ["eval", "--expr", f"p^{MAX_EXPONENT}", "--point", "1", "0", "0", "0"])
    assert code == 0 and rep["results"]["value"] == [1.0, 0.0, 0.0, 0.0]
    code, rep, _ = run_json(capsys, ["commute", "--expr", "p", "--expr", "2*p", "--grid", str(MAX_GRID)])
    assert code == 0 and len(rep["results"]["points"]) == MAX_GRID


@pytest.mark.parametrize("sub", [["eval"], ["check"]])
def test_tree_depth_is_bounded(capsys, sub):
    point = ["--point", "0.3", "0", "0.2", "-0.1"]
    # a 1000-term chain is built in a loop, out of the parser's recursion
    # bound, and the recursive walks over it ended in RecursionError
    code, _, err = run_cli(capsys, sub + ["--expr", "+".join(["p"] * 1000)] + point)
    assert code == 2 and "tree depth <= 256" in err
    at_limit = "+".join(["p"] * MAX_DEPTH)  # MAX_DEPTH levels
    code, rep, _ = run_json(capsys, sub + ["--expr", at_limit] + point)
    assert code == 0 and rep["inputs"]["expr"] == at_limit


_FUZZ_FLOATS = ["nan", "inf", "-inf", "-1", "0", "1e-300", "1e-17", "1e300", "0.5", "1", "2"]
_FUZZ_FLAGS = {
    "eval": {},
    "check": {"--grid": ["-1", "0", "1", "3"], "--radius": _FUZZ_FLOATS, "--seed": ["0", "7"],
              "--tol": _FUZZ_FLOATS, "--step": _FUZZ_FLOATS},
    "series": {"--n": ["-1", "0", "3", "12"], "--rho": _FUZZ_FLOATS, "--samples": ["-1", "0", "16", "52", "200"]},
    "derive": {"--k": ["-1", "0", "1", "2", "5", "12"], "--step": _FUZZ_FLOATS},
    "radius": {"--n": ["-1", "0", "3", "12"], "--rho": _FUZZ_FLOATS, "--samples": ["-1", "0", "16", "52", "200"]},
    "commute": {"--grid": ["-1", "0", "1", "3"], "--radius": _FUZZ_FLOATS, "--seed": ["0", "7"],
                "--tol": _FUZZ_FLOATS},
}


def _fuzz_text(rng):
    """A canonical tree text, or one of the raw texts the grammar must reject."""
    text = format_expr(_random_tree(rng, 0))
    pick = rng.random()
    if pick < 0.1:  # a non-ASCII character spliced in
        at = rng.randrange(len(text) + 1)
        return text[:at] + rng.choice(("²", "é", "ｐ", "١", "\u00a0", "\u2212")) + text[at:]
    if pick < 0.15:  # a left-associative chain of more than 1000 terms
        return rng.choice("+-*/").join(rng.choice(("p", "2", "j", "(p)")) for _ in range(rng.randint(1001, 1200)))
    if pick < 0.2:  # an exponent above the bound
        return f"({text})^{rng.randint(MAX_EXPONENT + 1, 10**12)}"
    return text


def _fuzz_argv(rng, tmp_path):
    sub = rng.choice(sorted(_FUZZ_FLAGS))
    argv = [sub]
    for _ in range(rng.choice((1, 2, 2, 2, 3)) if sub == "commute" else 1):
        text = _fuzz_text(rng)
        argv += ["--expr", text] if text.startswith("-") else ["--expr=" + text]
    # a point is required for eval/derive, optional for check/commute
    if sub in ("eval", "derive") or (sub in ("check", "commute") and rng.random() < 0.3):
        argv += ["--point", *(rng.choice(_FUZZ_FLOATS if rng.random() < 0.3 else ["0", "0.5", "-0.25"])
                              for _ in range(4))]
    for flag, values in _FUZZ_FLAGS[sub].items():
        if rng.random() < 0.5:
            argv.append(f"{flag}={rng.choice(values)}")  # argparse reads "-inf" after a space as a flag
    argv += ["--format", rng.choice(("text", "machine"))]
    if rng.random() < 0.05:
        argv += ["--out", str(tmp_path / "missing" / "report")]
    return argv


def test_cli_fuzz_ends_in_a_documented_exit_code(tmp_path, capsys):
    # every input ends in exit 0-4 or argparse's usage exit 2: no traceback,
    # no hang, bounded work (n <= 12, grid <= 3, samples <= 200)
    rng = random.Random(2024)
    for _ in range(600):
        argv = _fuzz_argv(rng, tmp_path)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = 2 if exc.code == 2 else f"SystemExit({exc.code})"
        except Exception as exc:  # noqa: BLE001 - report the escaping input
            code = repr(exc)
        capsys.readouterr()
        assert code in (0, 1, 2, 3, 4), (argv, code)


def _exit(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return f"SystemExit({exc.code})"


# help, bare, dangling --expr and unknown option for each subcommand, one
# library ValueError (reported through the main parser's usage) for each,
# and the argv that name no subcommand
_PARSER_PROBES = [[name, *tail] for name in SUBCOMMANDS for tail in (["-h"], [], ["--expr"], ["--bogus"])] + [
    ["eval", "--expr", "p", "--point", "nan", "0", "0", "0"],
    ["check", "--expr", "exp(p)", "--radius", "nan"],
    ["series", "--expr", "p", "--rho", "nan"],
    ["derive", "--expr", "exp(p)", "--point", "0.5", "0", "0", "0", "--k", "5"],
    ["radius", "--expr", "p", "--rho", "nan"],
    ["commute", "--expr", "sin(p)"],
    [],
    ["-h"],
    ["--version"],
    ["bogus"],
]


def test_lazy_parser_says_what_the_full_parser_says(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    rng = random.Random(2024)
    corpus = [_fuzz_argv(rng, tmp_path) for _ in range(600)] + _PARSER_PROBES
    lazy = []
    for argv in corpus:
        lazy.append((_exit(argv), *capsys.readouterr()))
    build = cli.build_arg_parser
    monkeypatch.setattr(cli, "build_arg_parser", lambda command: build())
    for argv, seen in zip(corpus, lazy):
        assert (_exit(argv), *capsys.readouterr()) == seen, argv


def _bare_subcommands(parser):
    """Names of the subparsers that hold no argument but -h."""
    [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(action.choices) == list(SUBCOMMANDS)
    return {name for name, sp in action.choices.items() if sp.format_usage() == f"usage: hquat {name} [-h]\n"}


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_a_named_subcommand_builds_only_its_own_arguments(capsys, monkeypatch, name):
    built = []
    build = cli.build_arg_parser
    monkeypatch.setattr(cli, "build_arg_parser", lambda command: built.append(build(command)) or built[-1])
    with pytest.raises(SystemExit):
        main([name, "-h"])
    capsys.readouterr()
    [parser] = built
    assert _bare_subcommands(parser) == set(SUBCOMMANDS) - {name}


@pytest.mark.parametrize("command", [None, "-h", "--version", "bogus"])
def test_no_subcommand_named_builds_every_subcommand(command):
    assert _bare_subcommands(cli.build_arg_parser(command)) == set()
