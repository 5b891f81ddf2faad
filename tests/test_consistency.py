"""The command line does not contradict itself on seeded random trees."""

import json
import math
import random

import pytest

from hquat import cli, format_expr, has_nonreal_constant
from hquat.series import PowerSeries, m_test
from test_parser import _random_tree

SETTINGS = [("8", "0.5"), ("32", "0.8"), ("100", "0.8")]


def _strict(text):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_series_of_a_real_constant_tree_is_never_nonreal(capsys):
    # a real-coefficient tree has real coefficients: exit 0, or 3 where an
    # evaluation leaves the double range, never 4; a tree without division
    # is entire, so its radius is infinite or inconclusive, never a number
    rng = random.Random(7)
    trees = []
    while len(trees) < 100:
        tree = _random_tree(rng, 0)
        if not has_nonreal_constant(tree):
            trees.append(tree)
    for i, tree in enumerate(trees):
        n, rho = SETTINGS[i % len(SETTINGS)]
        text = format_expr(tree)
        code = cli.main(["series", "--expr", text, "--n", n, "--rho", rho, "--format", "machine"])
        out = capsys.readouterr().out
        assert code in (0, 3), (text, n, rho)
        if code == 0:
            radius = _strict(out)["results"]["radius_estimate"]["radius"]
            assert radius is None or "/" in text, (text, n, rho, radius)


# Known contradictions, each a strict xfail that names the ROADMAP item whose
# fix flips it.  Each asserts the right answer, or a nonzero exit where that
# item accepts one; none widens a bound to pass.


def _machine(capsys, argv):
    try:
        code = cli.main(argv + ["--format", "machine"])
    except SystemExit as exc:  # a usage error
        code = exc.code
    out = capsys.readouterr().out
    return code, (_strict(out)["results"] if out else None)


@pytest.mark.xfail(strict=True, reason="item 2: the rho = 0.8 circle encloses the pole at 0.7")
def test_series_with_a_pole_inside_the_circle_is_right_or_refused(capsys):
    code, results = _machine(capsys, ["series", "--expr", "1/(0.7-p)"])
    assert code != 0 or math.isclose(results["coefficients"][0], 1 / 0.7, rel_tol=1e-9)


@pytest.mark.xfail(strict=True, reason="item 2: the pole at 0 lies inside the circle of radius 1e-5; the value 1.0e8 is flagged, not refused")
def test_derive_next_to_a_pole_is_right_or_refused(capsys):
    code, results = _machine(capsys, ["derive", "--expr", "1/p", "--point", "1e-6", "0", "0", "0"])
    assert code != 0 or math.isclose(results["value"][0], -1e12, rel_tol=1e-6)


@pytest.mark.xfail(strict=True, reason="item 2, stage A: only the slice C_i is sampled")
def test_series_of_an_off_slice_function_is_nonreal(capsys):
    code, _ = _machine(capsys, ["series", "--expr", "(p-i*p*i)/2", "--n", "5"])
    assert code == cli.EXIT_NONREAL


@pytest.mark.xfail(strict=True, reason="item 2: the poles at +-0.8i lie on the default circle")
def test_series_with_poles_on_the_circle_is_never_nonreal(capsys):
    # a real-constant tree has real coefficients; the samples next to the
    # poles read r[0] = -5.3e13 and a non-real residue of the same size
    code, results = _machine(capsys, ["series", "--expr", "1/(p*p+0.64)", "--n", "17"])
    assert code != cli.EXIT_NONREAL
    assert code != 0 or math.isclose(results["coefficients"][0], 1 / 0.64, rel_tol=1e-9)


@pytest.mark.xfail(strict=True, reason="item 2, stage A: the negative-frequency content is not reported")
def test_series_of_the_conjugate_on_the_slice_is_refused(capsys):
    # -j*p*j is conj(p) on C_i (eval at 0.5 0.25 0 0 gives 0.5 - 0.25i), so
    # every sample lies at negative frequencies and each r_k reads ~1e-16
    code, _ = _machine(capsys, ["series", "--expr", "-j*p*j"])
    assert code != 0


def test_derive_of_a_nonreal_tree_exits_alike_at_and_off_the_origin(capsys):
    # j*p has no slice function, so no circle at any point: a usage error
    off, _ = _machine(capsys, ["derive", "--expr", "j*p", "--point", "0.3", "0", "0", "0"])
    origin, _ = _machine(capsys, ["derive", "--expr", "j*p", "--point", "0", "0", "0", "0"])
    assert off == origin == 2


@pytest.mark.xfail(strict=True, reason="item 3: the residuals do not see an additive non-real constant")
def test_check_fails_where_series_is_nonreal(capsys):
    series_code, _ = _machine(capsys, ["series", "--expr", "i-(p-p*p)"])
    check_code, _ = _machine(capsys, ["check", "--expr", "i-(p-p*p)", "--grid", "8"])
    assert (series_code, check_code) == (cli.EXIT_NONREAL, cli.EXIT_CHECK_FAILED)


@pytest.mark.xfail(strict=True, reason="item 3, Scale: check's absolute tol passes a residual of 1e-10")
def test_check_fails_a_small_nonholomorphic_function(capsys):
    series_code, _ = _machine(capsys, ["series", "--expr", "1e-10*j*p"])
    check_code, _ = _machine(capsys, ["check", "--expr", "1e-10*j*p", "--grid", "8"])
    assert (series_code, check_code) == (cli.EXIT_NONREAL, cli.EXIT_CHECK_FAILED)


@pytest.mark.xfail(strict=True, reason="item 3, Scale: check's absolute tol fails rounding at the scale 1e6 of f")
def test_check_passes_a_large_holomorphic_function(capsys):
    # series --expr "1e6*exp(p)" exits 0
    code, _ = _machine(capsys, ["check", "--expr", "1e6*exp(p)", "--grid", "8"])
    assert code == 0


@pytest.mark.xfail(strict=True, reason="item 4: the ratios of conjugate poles oscillate")
def test_radius_of_conjugate_poles(capsys):
    code, results = _machine(capsys, ["radius", "--expr", "sin(p)/(p^2+9)"])
    assert code == 0 and results["radius"] is not None
    assert math.isclose(results["radius"], 3.0, rel_tol=1e-3)


@pytest.mark.xfail(strict=True, reason="item 4: a polynomial has too few nonzero coefficients for the line")
def test_radius_of_a_polynomial_is_infinite(capsys):
    code, results = _machine(capsys, ["radius", "--expr", "p^3-2*p"])
    assert code == 0 and results["radius_is_infinite"] is True


@pytest.mark.xfail(strict=True, reason="item 9: the noise floor does not count the products of ^")
def test_series_of_a_high_power_is_never_nonreal(capsys):
    # r[8] reads a non-real residue of 9.69e-63 against a threshold of
    # 2.71e-63: about 380 eps of the sample scale, the rounding of 512
    # sequential products, where the floor counts sqrt(N) eps; p^256 exits 0
    code, _ = _machine(capsys, ["series", "--expr", "p^512"])
    assert code != cli.EXIT_NONREAL


@pytest.mark.xfail(strict=True, reason="item 11: the default 72 samples alias every coefficient by 1.05e-7")
def test_series_with_aliasing_above_the_floors(capsys):
    code, results = _machine(capsys, ["series", "--expr", "p/(1-p)"])
    assert code == 0 and abs(results["coefficients"][0]) <= 1e-12
    radius = results["radius_estimate"]["radius"]
    assert radius is not None and math.isclose(radius, 1.0, rel_tol=1e-3)


@pytest.mark.xfail(strict=True, reason="item 12: the origin derivative always samples at rho = 0.8")
def test_origin_derivative_of_high_order(capsys):
    code, results = _machine(capsys, ["derive", "--expr", "exp(p)", "--point", "0", "0", "0", "0", "--k", "16"])
    assert code == 0 and math.isclose(results["value"][0], 1.0, rel_tol=1e-6)


def test_stencil_derivative_of_order_three(capsys):
    # the input of the derive golden: f''' = exp(p), e^0.5 (cos 0.1 + j sin 0.1),
    # which the nested stencil read 2.3e-4 off and the Cauchy circle reads
    # within 5e-11
    code, results = _machine(capsys, ["derive", "--expr", "exp(p)", "--point", "0.5", "0", "0.1", "0", "--k", "3"])
    want = (math.exp(0.5) * math.cos(0.1), 0.0, math.exp(0.5) * math.sin(0.1), 0.0)
    assert code == 0
    assert all(math.isclose(v, w, rel_tol=1e-6, abs_tol=1e-6 * abs(want[0])) for v, w in zip(results["value"], want))


def test_m_test_refuses_a_divergent_majorant():
    # sum p^l/(l+1) diverges at p = 1, and so does the harmonic majorant,
    # whose last 5 ratios below 1 certified it: its limit 0.99913 is within
    # the ratio test's error bar of 1
    cert = m_test(PowerSeries((), generator=lambda l: 1 / (l + 1)), 1.0, lambda i: 1 / (i + 1))
    assert not cert.passed
