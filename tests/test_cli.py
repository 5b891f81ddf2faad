import argparse
import cmath
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
from hquat import Quaternion, cli, format_expr, functions, parse
from hquat.cli import MAX_GRID, SUBCOMMANDS, main, sample_ball
from hquat.functions import MAX_DEPTH, MAX_EXPONENT
from test_functions import _node_count
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


def test_a_repeated_series_call_compiles_its_tree_once(capsys, monkeypatch, fresh_parse_memo):
    compiled = []
    original = functions._compile

    def counted(expr, mode):
        compiled.append(mode)
        return original(expr, mode)

    monkeypatch.setattr(functions, "_compile", counted)
    argv = ["series", "--expr", "exp(p)*sin(p)+p^2", "--n", "17", "--rho", "0.9"]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr())
    # the second call gets the first call's tree from the parse memo, with
    # its slice function already compiled, and prints the same bytes
    assert compiled == ["slice"] * _node_count(parse("exp(p)*sin(p)+p^2"))
    assert outputs[0] == outputs[1] and outputs[0].err == ""


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
def test_machine_output_is_one_line_of_json_dumps(capsys, argv):
    code, out, _ = run_cli(capsys, argv + ["--format", "machine"])
    assert code == 0
    assert out == json.dumps(json.loads(out)) + "\n"


# One fixed input per subcommand and its text and machine reports, byte for
# byte.  Text is not a stability contract: a deliberate change to a report
# rewrites its .txt file.  The machine document is one, so its .json file
# changes only with the document's fields.
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


def test_text_report_of_a_flagged_derivative_names_its_bound(capsys):
    # the derive golden is no longer flagged: exp(p) at k = 30 at the origin is
    argv = ["derive", "--expr", "exp(p)", "--point", "0", "0", "0", "0", "--k", "30"]
    _, rep, _ = run_json(capsys, argv)
    est, value = rep["results"]["truncation_estimate"], rep["results"]["value"][0]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and rep["results"]["accuracy_warning"] is True
    assert out.splitlines()[1:] == [
        "  method: series",
        f"  warning: estimated truncation error {est:.2e} exceeds 1e-4 * max(1, |value|) = {1e-4 * max(1.0, abs(value)):.2e}",
    ]


@pytest.mark.parametrize("name", list(GOLDEN_TEXT))
def test_machine_report_matches_its_golden_file(capsys, name):
    code, out, _ = run_cli(capsys, GOLDEN_TEXT[name] + ["--format", "machine"])
    assert code == 0
    assert out.encode() == (Path(__file__).parent / "golden" / f"{name}.json").read_bytes()


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


_CHECK_OVERFLOW_LINES = {
    "1.5e303/(p-0.3)": "difference stencil overflows: quotient with 2h = 2e-05",
    "1.7e308*(i*p)": "difference stencil overflows at Quaternion(x=0.0, y=0.0, z=0.0, u=0.0)",
    "0.852e308*(1+i)*p*i": "holomorphy residual overflows: absolute value too large",
}


@pytest.mark.parametrize(
    "expr, x", [("1.5e303/(p-0.3)", "0.3000000001"), ("1.7e308*(i*p)", "0"), ("0.852e308*(1+i)*p*i", "0")]
)
def test_check_stencil_overflow_is_eval_error(capsys, expr, x):
    # an overflowing difference quotient or partial printed NaN or Infinity,
    # which is not JSON, and exited 1 as a failed check; an overflowing
    # residual ended in an OverflowError traceback
    code, out, err = run_cli(capsys, ["check", "--expr", expr, "--point", x, "0", "0", "0", "--format", "machine"])
    assert code == 3 and out == ""
    assert err == f"hquat: evaluation error: {_CHECK_OVERFLOW_LINES[expr]}\n"


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


def test_text_reports_an_infinite_radius_with_its_error_bar(capsys):
    _, rep, _ = run_json(capsys, ["series", "--expr", "exp(p)", "--n", "17"])
    bar = rep["results"]["radius_estimate"]["L_error"]
    code, out, _ = run_cli(capsys, ["series", "--expr", "exp(p)", "--n", "17"])
    assert code == 0
    assert f"\nradius: infinite (L estimate within its error bar {bar:.2e} of 0)\n" in out
    _, rep, _ = run_json(capsys, ["radius", "--expr", "exp(p)"])
    bar = rep["results"]["L_error"]
    code, out, _ = run_cli(capsys, ["radius", "--expr", "exp(p)"])
    assert code == 0
    assert out == f"radius of exp(p): infinite (L estimate within its error bar {bar:.2e} of 0 over 12 ratios)\n"


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


@pytest.mark.parametrize(
    "argv, want",
    [
        # every residue within 10 noise floors is rounding, at any scale or order
        (["series", "--expr", "exp(80)"], 0),
        (["series", "--expr", "1e200*sin(p)", "--n", "5"], 0),
        (["series", "--expr", "p", "--n", "100"], 0),
        (["series", "--expr", "1+0*p", "--n", "100"], 0),
        (["series", "--expr", "exp(p)", "--n", "100"], 0),
        (["series", "--expr", "1/(1-p)", "--n", "90"], 0),
        (["radius", "--expr", "1e300*exp(p)"], 0),
        (["derive", "--expr", "1e300*exp(p)", "--point", "0", "0", "0", "0", "--k", "3"], 0),
        # one residue beyond 10 noise floors is non-real, however small
        (["series", "--expr", "1e-300*i*p", "--n", "3"], 4),
        (["series", "--expr", "p+1e-9*i"], 4),
        (["radius", "--expr", "exp(p)+1e-12*k"], 4),
        # derive has no residue since it samples one circle at every point:
        # at the origin too its p+1e-9*i is a usage error
        # (test_derive_nonreal_coefficient_exit_code)
        (["series", "--expr", "exp(p)+1e-9*i*p^2", "--n", "3"], 4),
    ],
)
def test_nonreal_verdict_reads_the_noise_floors(capsys, argv, want):
    code, _, err = run_json(capsys, argv)
    assert code == want, err


def test_series_text_names_the_first_nonreal_index_and_its_threshold(capsys):
    code, out, _ = run_cli(capsys, ["series", "--expr", "p+1e-9*i", "--n", "3"])
    threshold = hquat.maclaurin_extraction(hquat.parse("p+1e-9*i"), 3).threshold(0)
    assert code == 4
    assert out.endswith(
        f"NON-REAL COEFFICIENTS: max residue 1.000e-09; first r[0], residue 1.000e-09 above 10 noise floors ({threshold:.3e})\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["--expr", "exp(p)", "--n", "64"],
        ["--expr", "sin(p)", "--n", "64"],
        ["--expr", "cos(p)", "--n", "64"],
        ["--expr", "sin(p)*cos(p)", "--n", "64"],
        ["--expr", "exp(p)", "--n", "10", "--rho", "0.3"],
        ["--expr", "cos(p)", "--n", "12", "--rho", "0.25"],
    ],
)
def test_general_term_rule_reads_the_noise_floors(capsys, argv):
    # the fixed 1e-9 relative and 1e-12 absolute tolerances reported a
    # mismatch where the floors had grown past them
    code, rep, _ = run_json(capsys, ["series"] + argv)
    assert code == 0
    assert rep["results"]["general_term"]["matches"] is True
    assert rep["results"]["general_term"]["mismatch_index"] is None


def test_derive_first_order(capsys):
    code, rep, _ = run_json(capsys, ["derive", "--expr", "cos(p)", "--point", "0.5", "-0.2", "0.9", "0.1", "--k", "1"])
    assert code == 0
    import hquat

    p = Quaternion(0.5, -0.2, 0.9, 0.1)
    want = -hquat.evaluate(hquat.parse("sin(p)"), p)
    got = Quaternion(*rep["results"]["value"])
    assert (got - want).norm() <= 1e-9 * max(1.0, want.norm())
    assert rep["results"]["method"] == "series" and rep["results"]["accuracy_warning"] is False


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


# Closed-form radii (math.inf for the entire functions).  The pole of
# 1/(0.7-p) lies inside the default circle rho = 0.8, so it is not here.
CLOSED_FORM_RADII = {
    "exp(p)": math.inf,
    "sin(p)": math.inf,
    "cos(p)": math.inf,
    "sin(p)*cos(p)": math.inf,
    "1/(1-p)": 1.0,
    "1/(1-p)^2": 1.0,
    "1/(1-p)^3": 1.0,
    "p/(1-p)": 1.0,
    "exp(p)*(1/(1-p))": 1.0,
    "1/(1+p^2)": 1.0,
    "p^3-2*p": math.inf,
    "sin(p)/(p^2+9)": 3.0,
    "1/(p^2+4)": 2.0,
    "exp(p)/(1-p/2)": 2.0,
    "1/(2-p)+1/(3+p)": 2.0,
    "1/(1.5+p)^2": 1.5,
    "cos(p)/(p-2)": 2.0,
    "exp(p)/(p^2+4)": 2.0,
}


@pytest.mark.parametrize("n", ["8", "24", "32", "64"])
@pytest.mark.parametrize("expr", list(CLOSED_FORM_RADII))
def test_radius_is_right_or_inconclusive(capsys, expr, n):
    code, rep, _ = run_json(capsys, ["radius", "--expr", expr, "--n", n])
    assert code == 0
    res, want = rep["results"], CLOSED_FORM_RADII[expr]
    if res["radius_is_infinite"]:
        assert want == math.inf
    elif res["radius"] is not None:
        assert abs(res["radius"] - want) <= 1e-3 * want
    else:
        assert res["note"]


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
        ["--expr", "1e307*sin(1000*p)", "--point", "0.1", "0", "0", "0", "--format", "machine"],
    ],
)
def test_derive_stencil_overflow_is_eval_error(capsys, argv):
    # the difference quotient (or the shifted point) overflowed in the
    # Quaternion constructor, a ValueError that ended in exit 2 as a usage
    # error; a first derivative past the double range (about 8.6e309 in the
    # last case) must not print Infinity, which is not JSON
    code, out, err = run_cli(capsys, ["derive"] + argv)
    assert code == 3 and out == ""
    assert "evaluation error" in err and "usage" not in err
    if argv[1] == "1e307*sin(1000*p)":
        assert err == "hquat: evaluation error: derivative of order 1 from 4 samples at h = 1e-05 leaves the double range\n"


@pytest.mark.parametrize(
    "expr, point, line",
    [
        # the value 2e308 leaves the double range, the samples do not
        ("1e308*p^2", ["0.5", "0", "0", "0"], "derivative of order 2 from 4 samples at h = 0.0031622776601683794 leaves the double range"),
        # a circle point past the double range, named before any evaluation
        # as a component of the slice point x + i|V| it lies on
        ("exp(-p)", ["1.797e308", "0", "0", "0"], "difference stencil overflows: non-finite quaternion component x=inf"),
        ("exp(-p)", ["0", "0", "-1.797e308", "0"], "difference stencil overflows: non-finite quaternion component y=inf"),
    ],
)
def test_derive_circle_past_the_double_range_is_eval_error(capsys, expr, point, line):
    code, out, err = run_cli(capsys, ["derive", "--expr", expr, "--point", *point, "--k", "2"])
    assert (code, out, err) == (3, "", f"hquat: evaluation error: {line}\n")


@pytest.mark.parametrize("expr, x, k", [("p", "1e200", "2"), ("exp(-p)", "1.79e308", "2"), ("exp(-p)", "1e120", "3")])
def test_derive_circle_whose_h_to_the_k_leaves_the_double_range_gives_the_value(capsys, expr, x, k):
    # h^k overflows but the derivative, 0, does not: k!*S_k/N is divided by h
    # k times (a bare h**k raised OverflowError, a product with k!/h^k = 0 exited 3)
    code, rep, _ = run_json(capsys, ["derive", "--expr", expr, "--point", x, "0", "0", "0", "--k", k])
    assert code == 0 and rep["results"]["value"] == [0.0, 0.0, 0.0, 0.0]
    assert rep["results"]["method"] == "series" and rep["results"]["accuracy_warning"] is False


@pytest.mark.parametrize("expr", ["j*p", "p*i*p", "cos(p)-k"])
def test_derive_of_a_nonreal_tree_off_the_origin_is_refused_at_every_order(capsys, expr):
    # a tree with a non-real constant has no slice function, so no circle:
    # it is refused (exit 2) as the origin's extraction refuses it, at k = 1
    # too, where a central difference on doubling pairs printed j for j*p
    for k in ("1", "2", "3", "16"):
        err = run_usage_error(capsys, ["derive", "--expr", expr, "--point", "0.3", "0", "0.2", "0", "--k", k])
        assert "a tree with a non-real constant has no slice function" in err


@pytest.mark.parametrize(
    "argv, point",
    [
        (["series", "--expr", "exp(exp(exp(p)))", "--rho", "6", "--n", "5"], "x=6.0, y=0.0"),
        (["eval", "--expr", "exp(exp(exp(p)))", "--point", "6", "0", "0", "0"], "x=6.0, y=0.0"),
        # the circle's second sample, w0 + ih with h = 1e300 and 1e150
        (["derive", "--expr", "cos(p)", "--point", "0", "0", "0.5", "0", "--step=1e300"], "x=6.123233995736766e+283, y=1e+300"),
        (["derive", "--expr", "cos(p)", "--point", "0", "0", "0.5", "0", "--step=1e300", "--k", "2"], "x=6.123233995736766e+133, y=1e+150"),
    ],
)
def test_head_range_error_names_the_point(capsys, argv, point):
    # the bare "math range error" of cmath named no point, in either mode
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (3, "", f"hquat: evaluation error: math range error at Quaternion({point}, z=0.0, u=0.0)\n")


def test_derive_overflowing_difference_with_finite_derivative(capsys):
    # f' = 1.7e308*cos(1e5) = -1.70e308 is finite, but f itself overflows on
    # the circle of radius h = 1e-5*|p| = 1, where |Im sin| = |cos(1e5)|*sinh(1)
    # is 1.17: an evaluation error naming the component, where the central
    # difference along x printed a flagged -1.43e308
    argv = ["derive", "--expr", "1.7e308*sin(p)", "--point", "100000", "0", "0", "0", "--format", "machine"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (3, "", "hquat: evaluation error: non-finite intermediate value y=-inf\n")


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


@pytest.mark.parametrize("k", [11, 171, 172, 400])
def test_derive_at_the_origin_of_subnormal_samples_reports_its_noise(capsys, k):
    # sqrt(N)*eps*vmax underflowed to 0: k = 171 gave -3.99 and k = 11 gave
    # 3.9e-316, both for -1e-320, with truncation_estimate 0.0
    code, out, err = run_cli(capsys, ["derive", "--expr", "sin(p)*1e-320", "--point", "0", "0", "0", "0", "--k", str(k), "--format", "machine"])
    if code == 3:
        assert out == "" and "leaves the double range" in err
        return
    assert code == 0
    results = json.loads(out)["results"]
    exact = [1e-320 * (0, 1, 0, -1)[k % 4], 0.0, 0.0, 0.0]
    error = max(abs(v - e) for v, e in zip(results["value"], exact))
    assert error <= results["truncation_estimate"] < math.inf


def test_derive_nonreal_coefficient_exit_code(capsys):
    # the origin's extraction read the coefficient of i*p as non-real (exit
    # 4); one circle at every point makes a tree with a non-real constant a
    # usage error with one line, at the origin as off it
    for expr in ("i*p", "p+1e-9*i", "j*p"):
        errs = [run_usage_error(capsys, ["derive", "--expr", expr, "--point", x, "0", "0", "0", "--k", "2"]).splitlines()[-1]
                for x in ("0", "0.3")]
        assert errs == ["hquat: error: a tree with a non-real constant has no slice function"] * 2


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
    # derive 4 on a nan residue, and the small circle 4 on an inf residue;
    # derive names its own circle at every point
    code, out, err = run_cli(capsys, argv + ["--format", "machine"])
    assert code == 3 and out == ""
    if argv[0] == "derive":
        assert err == "hquat: evaluation error: derivative of order 1 from 64 samples at h = 0.8 leaves the double range\n"
    else:
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


def test_commute_limit_holds_past_the_product_overflow(capsys):
    # |f| = 2.1e308 overflowed, so the limit tol*(1 + |f||g|) read inf (a
    # residual of 3e305 passed) or, with g = 0, nan (a residual of 0 failed)
    head = ["commute", "--expr", "1.5e308+1.5e308*i", "--expr"]
    point = ["--point", "0", "0", "0", "0"]
    code, rep, _ = run_json(capsys, head + ["0.001*j"] + point)
    assert code == 1 and not rep["results"]["pass"]
    assert rep["results"]["max_residual"] == pytest.approx(3e305)
    code, rep, _ = run_json(capsys, head + ["0"] + point)
    assert code == 0 and rep["results"]["pass"]
    assert rep["results"]["max_residual"] == 0.0


@pytest.mark.parametrize(
    "argv, where",
    [
        # slice mode: a finite sample whose modulus leaves the double range
        (["series", "--expr", "6.8e307*(p^3-1-p-p^4)", "--rho", "1", "--n", "3"], "64 samples at rho = 1.0"),
        # pair mode: the same for a sample (a, b) of a non-real constant tree
        (["series", "--expr", "1.5e308+1.5e308*i", "--n", "3"], "64 samples at rho = 0.8"),
        (["radius", "--expr", "1.5e308+1.5e308*i"], "200 samples at rho = 0.8"),
        # and of a second component (derive, which has no pair samples, stood here)
        (["series", "--expr", "1.5e308+1.5e308*j", "--n", "3"], "64 samples at rho = 0.8"),
        # pair mode: finite samples, but a residue's modulus leaves the range
        (["series", "--expr", "1.3e308*(j+k)*p^3", "--rho", "0.25", "--n", "3"], "64 samples at rho = 0.25"),
    ],
)
def test_sample_or_residue_modulus_overflow_is_an_evaluation_error(capsys, argv, where):
    # abs() of each raised OverflowError: a traceback and exit 1
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and out == ""
    assert err == f"hquat: evaluation error: coefficients from {where} leave the double range\n"


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


def test_eval_head_past_the_imaginary_square_overflow(capsys):
    # |Im p|^2 = inf made exp(1e200*i) an evaluation error, though its value is
    # 0.765 - 0.644i; only an |Im p| that itself overflows stays one
    code, rep, _ = run_json(capsys, ["eval", "--expr", "exp(p)", "--point", "0", "1e200", "0", "0"])
    w = cmath.exp(1e200j)
    assert code == 0 and rep["results"]["value"][:2] == [w.real, w.imag]
    assert rep["results"]["value"][0] == pytest.approx(0.765051821475)
    code, out, err = run_cli(capsys, ["eval", "--expr", "exp(p)", "--point", "0", "1.7e308", "1.7e308", "0"])
    assert code == 3 and out == ""
    assert "evaluation error" in err and "imaginary magnitude" in err


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


@pytest.mark.parametrize("radius", ["1.35e154", "1e200", "1e308"])
@pytest.mark.parametrize("head", [["check", "--expr", "exp(p)"], ["commute", "--expr", "sin(p)", "--expr", "cos(p)"]])
def test_radius_whose_square_overflows_is_a_usage_error(capsys, head, radius):
    # radius^2 was inf, so the cube was sampled: 129 of 200 points lay outside
    # the ball at 1e200 (seed 0), and at 1e308 a point read x=inf
    err = run_usage_error(capsys, head + ["--grid", "2", "--radius", radius])
    assert "radius must have a finite square" in err


@pytest.mark.parametrize("radius", ["1e-155", "1e-200", "5e-324"])
@pytest.mark.parametrize("head", [["check", "--expr", "exp(p)"], ["commute", "--expr", "sin(p)", "--expr", "cos(p)"]])
def test_radius_whose_square_underflows_is_a_usage_error(capsys, head, radius):
    # radius^2 was subnormal or 0, so points of the cube passed: 129 of 200
    # lay outside the ball at 1e-200 (seed 0), 64 of 2000 at 1e-161
    err = run_usage_error(capsys, head + ["--grid", "2", "--radius", radius])
    assert "radius must have a normal square" in err


def _cube_rejection_sampler(rng, radius, y_zero=False):
    """The sampler as it stood before the finite-square rule."""
    while True:
        x = rng.uniform(-radius, radius)
        y = 0.0 if y_zero else rng.uniform(-radius, radius)
        z = rng.uniform(-radius, radius)
        u = rng.uniform(-radius, radius)
        if x * x + y * y + z * z + u * u <= radius * radius:
            return Quaternion(x, y, z, u)


@pytest.mark.parametrize("radius", [1e-100, 0.5, 2.0, 1e100, 1.3e154])
def test_sample_ball_draws_the_same_points_inside_the_ball(radius):
    # perfbench replicates the sampler, so accepted radii keep every point
    for y_zero in (False, True):
        rng, ref = random.Random(7), random.Random(7)
        got = [sample_ball(rng, radius, y_zero) for _ in range(200)]
        assert got == [_cube_rejection_sampler(ref, radius, y_zero) for _ in range(200)]
        assert all(math.hypot(q.x, q.y, q.z, q.u) <= radius * (1 + 1e-15) for q in got)


def _hex(q):
    return [c.hex() for c in (q.x, q.y, q.z, q.u)]


def test_sample_ball_draws_as_random_uniform_bitwise():
    # each coordinate is lo + width*rng.random(), which must be
    # rng.uniform(-radius, radius) to the bit and leave the same state
    for seed in range(50):
        for radius in (2.0, 0.3, 1e-150, 1e150):
            for y_zero in (False, True):
                rng, ref = random.Random(seed), random.Random(seed)
                for _ in range(8):
                    got, want = sample_ball(rng, radius, y_zero), _cube_rejection_sampler(ref, radius, y_zero)
                    assert _hex(got) == _hex(want), (seed, radius, y_zero)
                assert rng.getstate() == ref.getstate(), (seed, radius, y_zero)


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
        (["derive", "--expr", "exp(p)", "--point", "0.5", "0", "0", "0", "--k", "17"], "derivative order 17 is beyond the series route: samples*(k+129) must be <= 16777216, got 131072 * 146"),
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


def test_negative_point_value_in_exponent_notation_follows_point(capsys):
    # argparse read "--point -1e-5" as a flag: "expected 4 arguments"
    argv = ["eval", "--expr", "p", "--format", "machine", "--point"]
    assert run_cli(capsys, argv + ["-1e-5", "0", "0", "0"]) == run_cli(capsys, argv + ["-0.00001", "0", "0", "0"])
    code, out, err = run_cli(capsys, ["check", "--expr", "p", "--point", "-1.79769e308", "0", "0", "0"])
    assert code == 3 and out == "" and "evaluation error" in err
    for spelling, plain in [("-1E-5", "-0.00001"), ("-.5e1", "-5"), ("-1_0", "-10")]:
        assert run_cli(capsys, argv + [spelling, "0", "0", "0"]) == run_cli(capsys, argv + [plain, "0", "0", "0"])
    _, rep, _ = run_json(capsys, argv + ["-1e-320", "0", "0", "0"])
    assert rep["inputs"]["point"][0] == -1e-320
    for value in ("-inf", "-x"):
        argv_bad = ["check", "--expr", "p", "--point", value, "0", "0", "0"]
        assert "expected 4 arguments" in run_usage_error(capsys, argv_bad)


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
    ["derive", "--expr", "exp(p)", "--point", "0.5", "0", "0", "0", "--k", "17"],
    ["radius", "--expr", "p", "--rho", "nan"],
    ["commute", "--expr", "sin(p)"],
    # after a named subcommand: arguments left for the main parser to
    # reject in its usage line, and the main parser's own --version
    ["eval", "--expr", "p", "--point", "1", "2", "3", "4", "extra"],
    ["series", "--expr", "p", "extra", "--n", "3", "more"],
    ["eval", "--version"],
    # a repeated option keeps its last value; abbreviations of the named
    # subcommand's options are its own
    ["series", "--expr", "p", "--n", "3", "--n", "4"],
    ["eval", "--ex", "p", "--po", "1", "2", "3", "4"],
    ["derive", "--ex", "p", "--po", "1", "2", "3", "4", "--k", "2", "--st", "1e-3"],
    # "--=x" could match both of the main parser's own --help and --version;
    # after "--" every argument is a positional, which no sub-parser has
    ["eval", "--expr", "p", "--point", "1", "2", "3", "4", "--=x"],
    ["series", "--", "--expr", "p"],
    [],
    ["-h"],
    ["--version"],
    ["bogus"],
    ["--bogus", "eval", "--expr", "p", "--point", "1", "2", "3", "4"],
    ["--version", "eval", "--expr", "p", "--point", "1", "2", "3", "4"],
]


class _NamesNoSubcommand(dict):
    """``SUBCOMMANDS`` for which ``main``'s test of its first argument fails,
    so that every call is parsed by the full parser's ``parse_args``."""

    def __contains__(self, name):
        return False


def test_lazy_parser_says_what_the_full_parser_says(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    rng = random.Random(2024)
    corpus = [_fuzz_argv(rng, tmp_path) for _ in range(600)] + _PARSER_PROBES
    lazy = []
    for argv in corpus:
        lazy.append((_exit(argv), *capsys.readouterr()))
    monkeypatch.setattr(cli, "SUBCOMMANDS", _NamesNoSubcommand(SUBCOMMANDS))
    for argv, seen in zip(corpus, lazy):
        assert (_exit(argv), *capsys.readouterr()) == seen, argv


def _options(parser):
    """The option strings of each of ``parser``'s arguments, in registration order."""
    return [a.option_strings for a in parser._actions]


def _registered(parser):
    """Each registered sub-parser's name, the option strings of its arguments
    and its handler, in registration order."""
    [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [(name, _options(sp), sp.get_default("func")) for name, sp in action.choices.items()]


def _full(name):
    """What the sub-parser ``name`` must hold: -h, its own arguments, --format
    and --out, and its handler."""
    _, add_arguments, handler = SUBCOMMANDS[name]
    own = argparse.ArgumentParser(add_help=False)
    add_arguments(own)
    return name, [["-h", "--help"], *_options(own), ["--format"], ["--out"]], handler


def _built_parsers(monkeypatch):
    """A list that records every ``argparse.ArgumentParser`` built from now on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
    return built


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_a_named_subcommand_builds_only_its_own_arguments(capsys, monkeypatch, name):
    built = _built_parsers(monkeypatch)
    with pytest.raises(SystemExit):
        main([name, "-h"])
    capsys.readouterr()
    [parser] = built
    assert parser.prog == f"hquat {name}"
    assert (name, _options(parser), parser.get_default("func")) == _full(name)
    assert parser.get_default("subcommand") == name


@pytest.mark.parametrize("command", [None, "-h", "--version", "bogus"])
def test_no_subcommand_named_builds_every_subcommand(capsys, monkeypatch, command):
    built = _built_parsers(monkeypatch)
    with pytest.raises(SystemExit):
        main([] if command is None else [command])
    capsys.readouterr()
    assert len(built) == 1 + len(SUBCOMMANDS) and built[0].prog == "hquat"
    assert _registered(built[0]) == [_full(name) for name in SUBCOMMANDS]


def test_the_full_parser_is_built_only_to_report_an_error(capsys, monkeypatch):
    built = _built_parsers(monkeypatch)
    cli.build_arg_parser()
    full = len(built)
    assert full == 1 + len(SUBCOMMANDS)
    for argv, code in ((["eval", "--expr", "p", "--point", "1", "2", "3", "4"], 0),
                       (["series", "--expr", "exp(p)", "--n", "3", "--format", "machine"], 0),
                       (["check", "--expr", "conj(p)", "--point", "0.3", "0", "0.2", "-0.1"], 2)):
        del built[:]
        assert _exit(argv) == code
        assert len(built) == 1, argv
    for argv in (["eval", "--expr", "p", "--point", "1", "2", "3", "4", "extra"],
                 ["check", "--expr", "exp(p)", "--radius", "nan"]):
        del built[:]
        assert _exit(argv) == "SystemExit(2)"
        assert len(built) == 1 + full, argv
    capsys.readouterr()
