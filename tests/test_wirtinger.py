import cmath
import math
import random
import re
from fractions import Fraction

import pytest

from hquat import (
    Add,
    I,
    IntPow,
    K,
    Mul,
    ONE,
    P,
    QuatConst,
    Quaternion,
    RealConst,
    J,
    ZERO,
    check_holomorphy,
    conjugate_expr,
    evaluate,
    full_derivative,
    has_nonreal_constant,
    kth_derivative,
    parse,
    partials,
    phi_components,
)
from hquat import functions, wirtinger
from hquat import series as series_module
from hquat.cli import sample_ball
from hquat.functions import EvaluationOverflowError
from hquat.wirtinger import HolomorphyReport, InvalidPointError
from test_parser import _random_tree


def random_quat(rng, span=1.5, y_zero=False):
    return Quaternion(
        rng.uniform(-span, span),
        0.0 if y_zero else rng.uniform(-span, span),
        rng.uniform(-span, span),
        rng.uniform(-span, span),
    )


def random_poly(rng, degree=5):
    tree = RealConst(rng.uniform(-1, 1))
    for l in range(1, degree + 1):
        tree = Add(tree, Mul(RealConst(rng.uniform(-1, 1)), IntPow(P, l)))
    return tree


# ---------------------------------------------------------------------------
# partials
# ---------------------------------------------------------------------------


def test_partials_of_identity():
    rng = random.Random(21)
    for _ in range(20):
        p = random_quat(rng)
        t = partials(P, p)
        assert abs(t.dphi1_da - 1.0) <= 1e-9
        assert abs(t.dphi2_db - 1.0) <= 1e-9
        for other in (t.dphi1_dabar, t.dphi1_db, t.dphi1_dbbar, t.dphi2_da, t.dphi2_dabar, t.dphi2_dbbar):
            assert abs(other) <= 1e-9


def test_partials_of_conjugate():
    rng = random.Random(22)
    tree = conjugate_expr()
    for _ in range(20):
        p = random_quat(rng)
        t = partials(tree, p)
        assert abs(t.dphi1_dabar - 1.0) <= 1e-9
        assert abs(t.dphi1_da) <= 1e-9
        assert abs(t.dphi2_db + 1.0) <= 1e-9  # second component is -b


def test_partials_of_square_against_symbolic_table():
    # p^2 = (a^2 - b conj(b)) + (a + conj(a)) b j
    rng = random.Random(23)
    tree = parse("p^2")
    for _ in range(30):
        p = random_quat(rng)
        a, b = p.to_cd()
        t = partials(tree, p)
        scale = max(1.0, p.norm())
        assert abs(t.dphi1_da - 2 * a) <= 1e-8 * scale
        assert abs(t.dphi1_dabar) <= 1e-8 * scale
        assert abs(t.dphi1_db + b.conjugate()) <= 1e-8 * scale
        assert abs(t.dphi1_dbbar + b) <= 1e-8 * scale
        assert abs(t.dphi2_da - b) <= 1e-8 * scale
        assert abs(t.dphi2_dabar - b) <= 1e-8 * scale
        assert abs(t.dphi2_db - (a + a.conjugate())) <= 1e-8 * scale
        assert abs(t.dphi2_dbbar) <= 1e-8 * scale


def test_partials_of_exp_at_zero():
    t = partials(parse("exp(p)"), ZERO)
    assert abs(t.dphi1_da - 1.0) <= 1e-9
    assert abs(t.dphi1_dabar) <= 1e-9
    assert abs(t.dphi2_da) <= 1e-9


def test_partials_rejects_bad_step():
    with pytest.raises(ValueError):
        partials(P, ZERO, step=0.0)
    with pytest.raises(ValueError):
        partials(P, Quaternion(0.3, 0.0, 0.0, 0.0), step=1e-300)


def test_smallest_step_still_moves_every_component():
    # h = eps*max(1, |p|) >= eps*|c| for each component c, so c +- h != c and
    # no coordinate quotient of the identity collapses to 0
    eps = 2.220446049250313e-16
    points = [
        Quaternion(0.3, 0.0, 0.0, 0.0),
        Quaternion(0.0, 1e8, 0.0, 0.0),
        Quaternion(0.0, 0.0, -(2.0**60), 0.0),
        Quaternion(0.0, 0.0, 0.0, 1.9999999999999998),
        Quaternion(1e8, -3.0, 0.5, 7.0),
    ]
    for p in points:
        assert full_derivative(P, p, step=eps).x != 0.0
        t = partials(P, p, step=eps)
        assert t.dphi1_da + t.dphi1_dabar != 0.0 and t.dphi1_dabar - t.dphi1_da != 0.0
        assert t.dphi2_db + t.dphi2_dbbar != 0.0 and t.dphi2_dbbar - t.dphi2_db != 0.0


def test_stepped_points_are_the_quaternion_sums_bitwise(monkeypatch):
    # partials hands phi_components the pairs p +- e*h without building a
    # Quaternion; their components must be the very sums of Quaternion
    # arithmetic, sign of zero and subnormals included
    seen = _count_calls(monkeypatch, "phi_components")
    rng = random.Random(33)
    for _ in range(300):
        p = Quaternion(*[rng.choice((0.0, -0.0, rng.uniform(-3.0, 3.0), -rng.uniform(0, 1e-300))) for _ in range(4)])
        step = rng.choice((1e-5, 2.220446049250313e-16, 0.5))
        seen.clear()
        t = partials(P, p, step)
        h = t.step
        want = [q.to_cd() for e in (ONE, I, J, K) for q in (p + e * h, p - e * h)]
        assert [repr(tuple(q)) for _, q in seen] == [repr(tuple(q)) for q in want], p


# ---------------------------------------------------------------------------
# holomorphy check
# ---------------------------------------------------------------------------


def test_check_rejects_tolerance_that_makes_the_verdict_vacuous():
    # tol = inf passed every residual, nan failed every one
    for tol in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            check_holomorphy(parse("j*exp(p)"), Quaternion(0.5, 0.0, 0.2, 0.1), tol=tol)


def test_check_requires_slice_point():
    with pytest.raises(InvalidPointError):
        check_holomorphy(parse("exp(p)"), Quaternion(0.1, 0.2, 0.3, 0.4))


def test_catalog_functions_pass():
    rng = random.Random(24)
    trees = [parse(t) for t in ("exp(p)", "sin(p)", "cos(p)", "sin(p)*cos(p)", "p^4")]
    trees += [random_poly(rng) for _ in range(2)]
    for tree in trees:
        for _ in range(10):
            p3 = random_quat(rng, span=1.5, y_zero=True)
            aux = random_quat(rng, span=1.5)
            rep = check_holomorphy(tree, p3, tol=1e-6, aux_point=aux)
            assert rep.passed, (tree, p3, rep.main_residuals, rep.aux_residuals)
            assert all(rep.main_verdicts) and all(rep.aux_verdicts)


def test_default_aux_point_replaces_y():
    rep = check_holomorphy(parse("exp(p)"), Quaternion(0.3, 0.0, 0.4, 0.1))
    assert rep.aux_point == Quaternion(0.3, 0.5, 0.4, 0.1)
    assert rep.passed


def test_counterexamples_fail():
    rng = random.Random(25)
    for tree in (conjugate_expr(), parse("j*exp(p)")):
        for _ in range(5):
            p3 = random_quat(rng, span=1.5, y_zero=True)
            rep = check_holomorphy(tree, p3, tol=1e-6)
            assert max(rep.main_residuals) > 1e-2
            assert not rep.passed


def test_passed_is_every_verdict():
    # passed compares the largest residual once; each verdict compares one
    rng = random.Random(26)
    for _ in range(500):
        tol = rng.choice((1e-6, 1e-12, 0.5, 5e-324))
        near = (0.0, tol, math.nextafter(tol, math.inf), math.nextafter(tol, 0.0), tol * rng.uniform(0.0, 2.0), math.inf)
        main, aux = [tuple(rng.choice(near) for _ in range(4)) for _ in range(2)]
        rep = HolomorphyReport(ZERO, ONE, main, aux, tol)
        assert rep.passed == (all(rep.main_verdicts) and all(rep.aux_verdicts)), (main, aux, tol)
    at = HolomorphyReport(ZERO, ONE, (1e-6,) * 4, (0.0,) * 4, 1e-6)
    above = at._replace(aux_residuals=(0.0, 0.0, math.nextafter(1e-6, 1.0), 0.0))
    assert at.passed and not above.passed
    for tree in (parse("exp(p)"), parse("j*exp(p)"), Mul(QuatConst(J), P)):
        rep = check_holomorphy(tree, Quaternion(0.5, 0.0, -0.3, 0.8))
        assert rep.passed == (all(rep.main_verdicts) and all(rep.aux_verdicts))


def test_left_j_times_p_fails_only_the_auxiliary_system():
    # j*p = -conj(b) + conj(a) j happens to satisfy the main system on the
    # y=0 slice; the auxiliary identities reject it at any point
    rep = check_holomorphy(Mul(QuatConst(J), P), Quaternion(0.5, 0.0, -0.3, 0.8), tol=1e-6)
    assert max(rep.main_residuals) <= 1e-6
    assert max(rep.aux_residuals) > 1e-2
    assert not rep.passed


# ---------------------------------------------------------------------------
# full derivative
# ---------------------------------------------------------------------------


def test_full_derivative_identities():
    rng = random.Random(26)
    exp_t, sin_t, cos_t = parse("exp(p)"), parse("sin(p)"), parse("cos(p)")
    for _ in range(50):
        p = random_quat(rng)
        for tree, want in (
            (exp_t, evaluate(exp_t, p)),
            (sin_t, evaluate(cos_t, p)),
            (cos_t, -evaluate(sin_t, p)),
        ):
            got = full_derivative(tree, p)
            assert (got - want).norm() <= 1e-7 * max(1.0, want.norm())


def test_full_derivative_power_rule():
    rng = random.Random(27)
    tree = parse("p^3")
    for _ in range(20):
        p = random_quat(rng)
        want = evaluate(parse("3*p^2"), p)
        got = full_derivative(tree, p)
        assert (got - want).norm() <= 1e-7 * max(1.0, want.norm())


def test_full_derivative_linearity():
    rng = random.Random(28)
    sin_t, cos_t = parse("sin(p)"), parse("cos(p)")
    combo = parse("2*sin(p) + 3*cos(p)")
    for _ in range(30):
        p = random_quat(rng)
        lhs = full_derivative(combo, p)
        rhs = full_derivative(sin_t, p) * 2.0 + full_derivative(cos_t, p) * 3.0
        assert (lhs - rhs).norm() <= 1e-8 * max(1.0, rhs.norm())


def test_full_derivative_product_rule():
    rng = random.Random(29)
    sin_t, cos_t = parse("sin(p)"), parse("cos(p)")
    prod = Mul(sin_t, cos_t)
    for _ in range(30):
        p = random_quat(rng)
        lhs = full_derivative(prod, p)
        rhs = full_derivative(sin_t, p) * evaluate(cos_t, p) + evaluate(sin_t, p) * full_derivative(cos_t, p)
        assert (lhs - rhs).norm() <= 1e-6 * max(1.0, rhs.norm())


def test_stencil_is_second_order():
    rng = random.Random(30)
    tree = parse("exp(p)")
    ratios = []
    for _ in range(10):
        p = random_quat(rng)
        truth = evaluate(tree, p)
        r1 = (full_derivative(tree, p, step=1e-3) - truth).norm()
        r2 = (full_derivative(tree, p, step=5e-4) - truth).norm()
        ratios.append(r1 / r2)
    med = sorted(ratios)[len(ratios) // 2]
    assert 3.5 <= med <= 4.5


# ---------------------------------------------------------------------------
# k-th derivative
# ---------------------------------------------------------------------------


def test_kth_examples_at_origin():
    r = kth_derivative(parse("exp(p)"), ZERO, 3)
    assert r.method == "series"
    assert abs(r.value.x - 1.0) <= 1e-4

    r = kth_derivative(parse("p^3"), ZERO, 3)
    assert abs(r.value.x - 6.0) <= 1e-4

    r = kth_derivative(parse("sin(p)*cos(p)"), ZERO, 3)
    assert abs(r.value.x + 4.0) <= 1e-3


def test_kth_order_zero_and_one():
    p = Quaternion(0.3, -0.2, 0.5, 0.1)
    r0 = kth_derivative(parse("cos(p)"), p, 0)
    assert r0.method == "exact"
    assert r0.value == evaluate(parse("cos(p)"), p)

    r1 = kth_derivative(parse("cos(p)"), p, 1)
    want = -evaluate(parse("sin(p)"), p)
    assert r1.method == "series" and r1.step == 1e-5 and not r1.accuracy_warning
    assert (r1.value - want).norm() <= 1e-9 * max(1.0, want.norm())


def test_kth_paths_agree_where_both_apply():
    # the circle of radius 0.8 about the origin against the circle of radius
    # h just off it, which the nested stencil read 2.3e-4 off at order 3
    tree = parse("exp(p)")
    x = 1e-3
    for k in (2, 3, 4):
        origin = kth_derivative(tree, ZERO, k)
        circle = kth_derivative(tree, Quaternion.from_real(x), k)
        assert origin.method == circle.method == "series" and origin.step == 0.8
        assert circle.step == 1e-5 ** (1.0 / k)
        assert abs((origin.value - circle.value).norm() - (math.exp(x) - 1.0)) <= 1e-8
        assert abs(circle.value.x - math.exp(x)) <= 1e-8
        # at k = 2 the aliasing term is |S_3|^2/|S_2|/N, about e^x*h^4/18, so
        # the estimate is about e^x*h^2/9 = 1.1e-6 where the error is 1e-14
        bound = 2e-6 if k == 2 else 1e-8
        assert not circle.accuracy_warning and circle.truncation_estimate <= bound


def test_kth_series_route_is_taken_at_zero_only():
    # the extraction's radius 0.8 only at the origin; |p|^2 underflows to 0
    # here, yet p is not the origin: the circle of radius h about it
    tree = parse("exp(p)")
    p = Quaternion(1e-300, 0.0, 0.0, 0.0)
    r = kth_derivative(tree, p, 2)
    assert r.method == "series" and r.step == 1e-5**0.5 and abs(r.value.x - 1.0) <= 1e-9
    r = kth_derivative(tree, p, 1)
    assert r.method == "series" and r.step == 1e-5 and abs(r.value.x - 1.0) <= 1e-9
    for zero in (Quaternion(0.0, 0.0, 0.0, 0.0), Quaternion(-0.0, 0.0, 0.0, 0.0)):
        r = kth_derivative(tree, zero, 2)
        assert r.method == "series" and r.step == 0.8


@pytest.mark.parametrize("text", ["exp(p)", "sin(p)", "cos(p)", "sin(p)*cos(p)", "1/(1-p)", "1/(0.7-p)"])
def test_series_route_reports_its_noise(text):
    # at the origin the estimate, noise plus the half grid's aliasing, covers
    # the error of every value; the extraction's counted rounding only and
    # read 1/(1-p) off by 6.3e-7 at k = 1 under 2e-14.  The circle of radius
    # 0.8 encloses the pole of 1/(0.7-p), whose content then lies at negative
    # frequencies, which no estimate sees: every value is wrong and flagged,
    # where k = 2 read -0.00113 for 5.83 unflagged
    tree = parse(text)
    for k in range(1, 16):
        r = kth_derivative(tree, ZERO, k)
        want = _closed_form(text, ZERO, k)
        err = (r.value - want).norm()
        assert r.method == "series" and r.step == 0.8
        # flagged where the estimate exceeds 1e-4 relative to a value above 1
        assert r.accuracy_warning is (r.truncation_estimate > 1e-4 * max(1.0, r.value.norm())), (k, r.truncation_estimate)
        if text == "1/(0.7-p)":
            assert r.accuracy_warning and err > 0.99 * want.norm(), (k, r.value, r.truncation_estimate)
            continue
        assert err <= r.truncation_estimate, (k, err, r.truncation_estimate)
        if k <= 11 or text == "exp(p)":
            assert r.accuracy_warning is (k >= 13)


@pytest.mark.parametrize("k", [1, 11, 22, 23, 40])
def test_series_route_rounds_k_factorial_times_the_coefficient_once(k):
    # k!*S_k/N rounded once (k! is not rounded to a double first), then
    # divided by the radius 0.8 k times, on the circle about the origin
    tree, N = parse("exp(p)"), max(64, 8 * (k + 1))
    roots, points = series_module._circle(N, 1.0)
    s = series_module._dft_head([evaluate(tree, 0j + 0.8 * z) for z in points], roots, max(k + 1, 4))[k].real / N
    want = float(Fraction(s) * math.factorial(k))
    if k <= 22:  # k! is exact in a double
        assert want == s * math.factorial(k)
    for _ in range(k):
        want /= 0.8
    assert kth_derivative(tree, ZERO, k).value == Quaternion.from_real(want)


def test_full_derivative_overflow_is_evaluation_error():
    tree = parse("1e308*sin(1e6*p)")
    p = Quaternion(0.3, 0.0, 0.0, 0.0)
    with pytest.raises(EvaluationOverflowError):
        full_derivative(tree, p)
    # a finite quotient keeps its bits: the one central difference, as written
    tree = parse("1e300*sin(p)")
    e = Quaternion(1e-5, 0.0, 0.0, 0.0)
    want = (evaluate(tree, p + e) - evaluate(tree, p - e)) * (0.5 / 1e-5)
    assert repr(full_derivative(tree, p)) == repr(want)


def test_truncation_estimate_overflow_is_evaluation_error():
    # an estimate past the double range beside a finite value would be spelled
    # as the invalid JSON constant Infinity by the machine output: the pole of
    # 1e299/p lies inside the circle about 1e-6, the value is 1.0e307 and the
    # aliasing term 1e309
    p = Quaternion(1e-6, 0.0, 0.0, 0.0)
    for text, x in (("1e299/p", p), ("1e307*sin(1000*p)", Quaternion(0.1, 0.0, 0.0, 0.0))):
        with pytest.raises(EvaluationOverflowError, match="^derivative of order 1 from 4 samples at h = 1e-05 leaves the double range$"):
            kth_derivative(parse(text), x, 1)
    # where the aliasing term stays in range, so does the estimate
    r = kth_derivative(parse("1e298/p"), p, 1)
    assert math.isfinite(r.truncation_estimate) and r.accuracy_warning


def test_holomorphy_stencil_overflow_is_evaluation_error():
    # the difference quotients overflowed to inf: the main residuals read
    # (nan, 0.0, nan, 0.0) and the check failed as if f were not holomorphic
    tree = parse("1.2e308*sin(100000*p)")
    with pytest.raises(EvaluationOverflowError, match="difference stencil overflows"):
        partials(tree, ZERO)
    with pytest.raises(EvaluationOverflowError):
        check_holomorphy(tree, ZERO, aux_point=Quaternion(0.1, 0.0, 0.0, 0.0))
    # finite quotients whose sum dx - i*dy overflowed: partials read nan+infj
    with pytest.raises(EvaluationOverflowError, match="difference stencil overflows"):
        partials(parse("1.7e308*(i*p)"), ZERO)
    # finite partials whose residual's abs() raised OverflowError, a traceback
    tree = parse("0.852e308*(1+i)*p*i")
    partials(tree, ZERO)
    with pytest.raises(EvaluationOverflowError, match="holomorphy residual overflows"):
        check_holomorphy(tree, ZERO)


# ---------------------------------------------------------------------------
# the one central difference
# ---------------------------------------------------------------------------

_QUOTIENT_POINTS = [
    Quaternion(0.0, 0.0, 0.0, 0.0),
    Quaternion(-0.0, -0.0, -0.0, -0.0),
    Quaternion(0.3, -0.0, 0.2, -0.1),
    Quaternion(-0.0, 0.5, 0.0, -0.7),
    Quaternion(1.25, 0.0, -0.0, 2.5),
    Quaternion(-3.0, 1e-300, -0.0, 0.0),
    Quaternion(0.7, -0.4, 0.9, 0.6),
]
_QUOTIENT_TREES = ["exp(p)*sin(p)", "p^3 - 2*p + i", "cos(p)*p - j*p", "0*p"]


def _central(hi, lo, h):
    """(hi - lo)/(2h) on two doubling pairs, as the stencil documents it."""
    return tuple((s - t) / (2.0 * h) for s, t in zip(hi, lo))


def _nested_central(tree, p, k, h):
    if k == 0:
        return evaluate(tree, p).to_cd()
    e = Quaternion(h, 0.0, 0.0, 0.0)
    return _central(_nested_central(tree, p + e, k - 1, h), _nested_central(tree, p - e, k - 1, h), h)


# the timed check-grid catalog: its expressions without a known defect
_CHECK_GRID_TREES = [
    "p^3 - 2*p",
    "exp(p)",
    "sin(p)*cos(p)",
    "exp(sin(p))",
    "cos(p)/(p^2+9)",
    "i*p",
    "p*j",
    "-0.5*(p + i*p*i + j*p*j + k*p*k)",
]


def _assert_partials_are_the_one_quotient(text, p, step):
    tree, h = parse(text), step * max(1.0, p.norm())
    d = [(phi_components(tree, (p + e * h).to_cd()), phi_components(tree, (p - e * h).to_cd())) for e in (ONE, I, J, K)]
    (dx1, dx2), (dy1, dy2), (dz1, dz2), (du1, du2) = [_central(hi, lo, h) for hi, lo in d]
    want = [
        (dx1 - 1j * dy1) / 2.0,
        (dx1 + 1j * dy1) / 2.0,
        (dz1 - 1j * du1) / 2.0,
        (dz1 + 1j * du1) / 2.0,
        (dx2 - 1j * dy2) / 2.0,
        (dx2 + 1j * dy2) / 2.0,
        (dz2 - 1j * du2) / 2.0,
        (dz2 + 1j * du2) / 2.0,
    ]
    t = partials(tree, p, step)
    got = [t.dphi1_da, t.dphi1_dabar, t.dphi1_db, t.dphi1_dbbar]
    got += [t.dphi2_da, t.dphi2_dabar, t.dphi2_db, t.dphi2_dbbar]
    assert repr(got) == repr(want) and t.step == h, (text, p, step)


def test_partials_are_the_one_quotient_bitwise():
    for text in _QUOTIENT_TREES:
        for p in _QUOTIENT_POINTS:
            for step in (1e-5, 1e-3):
                _assert_partials_are_the_one_quotient(text, p, step)
    # the main and aux points of check --grid 16 --radius 2 on each timed
    # check-grid expression
    rng = random.Random(0)
    pairs = [(sample_ball(rng, 2.0, y_zero=True), sample_ball(rng, 2.0)) for _ in range(16)]
    for text in _CHECK_GRID_TREES:
        for point, aux in pairs:
            _assert_partials_are_the_one_quotient(text, point, 1e-5)
            _assert_partials_are_the_one_quotient(text, aux, 1e-5)


def _cauchy_circle(tree, p, k, h):
    """k!/(N h^k) sum_m F(w0 + h e^{i th_m}) e^{-ik th_m}, th_m = 2 pi m/N,
    N = 2^max(k, 2), w0 = x + i|V|, summed term by term and lifted along
    V/|V|; also the bound 4 eps k!/h^k max|F| on the rounding of the sum."""
    N, v = 2 ** max(k, 2), math.hypot(p.y, p.z, p.u)
    w0 = complex(p.x, v)
    total, vmax = 0j, 0.0
    for m in range(N):
        theta = 2.0 * math.pi * m / N
        sample = evaluate(tree, w0 + h * cmath.exp(complex(0.0, theta)))
        total += sample * cmath.exp(complex(0.0, -k * theta))
        vmax = max(vmax, abs(sample))
    w = total * math.factorial(k) / (N * h**k)
    lifted = (w.real, 0.0, 0.0, 0.0) if v == 0.0 else (w.real, p.y / v * w.imag, p.z / v * w.imag, p.u / v * w.imag)
    return Quaternion(*lifted), 4 * 2.220446049250313e-16 * math.factorial(k) / h**k * vmax


def test_derivatives_are_the_one_quotient_bitwise():
    for text in _QUOTIENT_TREES:
        tree = parse(text)
        for p in _QUOTIENT_POINTS:
            h = 1e-5 * max(1.0, p.norm())
            want = Quaternion.from_cd(*_nested_central(tree, p, 1, h))
            assert repr(full_derivative(tree, p)) == repr(want), (text, p)
            if p == ZERO:
                continue
            # every order is the Cauchy integral on the slice through p,
            # which a tree with a non-real constant does not have
            for k in range(1, 7):
                h = 1e-5 ** (1.0 / k) * max(1.0, p.norm())
                if has_nonreal_constant(tree):
                    with pytest.raises(ValueError, match="non-real constant"):
                        kth_derivative(tree, p, k)
                    continue
                r = kth_derivative(tree, p, k)
                want, rounding = _cauchy_circle(tree, p, k, h)
                assert r.method == "series" and r.step == h, (text, p, k)
                assert (r.value - want).norm() <= rounding, (text, p, k, r.value, want)


def test_overflowing_difference_is_scaled_before_subtracting():
    # f(p+h) - f(p-h) overflowed and derive exited 3, although
    # f'(p) = 1.7e308*cos(1e5) = -1.699e308 is finite
    tree = parse("1.7e308*sin(p)")
    p = Quaternion(100000.0, 0.0, 0.0, 0.0)
    h = 1e-5 * p.norm()
    e = Quaternion(h, 0.0, 0.0, 0.0)
    (a_hi, b_hi), (a_lo, b_lo) = evaluate(tree, p + e).to_cd(), evaluate(tree, p - e).to_cd()
    assert not cmath.isfinite(a_hi - a_lo)
    w = 2.0 * h
    want = Quaternion.from_cd(a_hi / w - a_lo / w, (b_hi - b_lo) / w)
    assert repr(full_derivative(tree, p)) == repr(want)
    # the circle of radius h = 1 leaves the real axis, where |Im f| reaches
    # 1.7e308*|cos(1e5)|*sinh(1), past the double range
    with pytest.raises(EvaluationOverflowError, match="^non-finite intermediate value y=-inf$"):
        kth_derivative(tree, p, 1)


def test_infinite_stencil_width_is_evaluation_error():
    # 2h = inf made every quotient read 0: 0.001*j*p, which fails the check
    # at --step 1e307, passed it at 1e308
    tree = parse("0.001*j*p")
    for call in (
        lambda: partials(tree, ZERO, step=1e308),
        lambda: check_holomorphy(tree, ZERO, step=1e308),
        lambda: full_derivative(tree, ZERO, step=1e308),
        lambda: kth_derivative(tree, ONE, 1, step=1e308),
    ):
        with pytest.raises(EvaluationOverflowError, match="width 2h"):
            call()
    assert not check_holomorphy(tree, ZERO, step=1e307).passed
    # the exact and series routes use no stencil: the step is only validated
    assert kth_derivative(P, ZERO, 0, step=1e308).method == "exact"
    assert kth_derivative(P, ZERO, 1, step=1e308).method == "series"


def test_stepped_point_past_the_double_range_is_evaluation_error():
    # p + h overflowed in the Quaternion constructor, a ValueError
    x_edge, z_edge = Quaternion(1.79769e308, 0.0, 0.0, 0.0), Quaternion(0.0, 0.0, 1.79769e308, 0.0)
    with pytest.raises(EvaluationOverflowError, match="difference stencil overflows"):
        full_derivative(P, x_edge)
    # the derivative steps along x only, so z at the edge stays in range
    assert full_derivative(P, z_edge) == ONE
    # p + h past the double range on the hi side, p - h on the lo side; each
    # message names the component and its sign.  y is stepped at an aux point
    # while the main point's stencil stays in range
    partials(P, ZERO)
    for name in "xyzu":
        for sign in ("", "-"):
            edge = Quaternion(**{c: float(sign + "1.79769e308") if c == name else 0.0 for c in "xyzu"})
            with pytest.raises(EvaluationOverflowError) as info:
                check_holomorphy(P, ZERO, aux_point=edge) if name == "y" else partials(P, edge)
            assert str(info.value) == f"difference stencil overflows: non-finite quaternion component {name}={sign}inf"


def test_kth_power_rule_away_from_origin():
    rng = random.Random(31)
    for _ in range(10):
        p = random_quat(rng)
        for k, want in ((2, 2.0), (3, 0.0)):
            r = kth_derivative(parse("p^2"), p, k)
            assert r.method == "series"
            assert (r.value - Quaternion.from_real(want)).norm() <= 1e-8
            assert not r.accuracy_warning


def test_kth_preconditions():
    with pytest.raises(ValueError):
        kth_derivative(parse("exp(p)"), ZERO, -1)
    # off the origin the circle of 2^k samples stays within the extraction's
    # budget, 2^k (k + 129) <= 2^24, up to k = 16
    with pytest.raises(ValueError, match=r"^derivative order 17 is beyond the series route: .*, got 131072 \* 146$"):
        kth_derivative(parse("exp(p)"), Quaternion.from_real(1.0), 17)
    r = kth_derivative(parse("exp(p)"), Quaternion.from_real(1.0), 5)
    assert abs(r.value.x - math.e) <= 1e-7 and not r.accuracy_warning
    # at the origin, max(64, 8(k+1)) samples stay within it up to k = 1384
    r = kth_derivative(parse("exp(p)"), ZERO, 7)
    assert abs(r.value.x - 1.0) <= 1e-6


@pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf, 1e-300, 1e-16])
def test_derivatives_reject_bad_step(step):
    # validated before a route is picked, so every order and point rejects it;
    # below machine epsilon p +- h can round back to p and the quotient be 0
    for p in (ZERO, Quaternion(0.5, 0.2, -0.1, 0.3)):
        with pytest.raises(ValueError):
            full_derivative(P, p, step=step)
        for k in range(4):
            with pytest.raises(ValueError):
                kth_derivative(P, p, k, step=step)


def _count_calls(monkeypatch, name, module=wirtinger):
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_evaluation_counts(monkeypatch):
    evals = _count_calls(monkeypatch, "evaluate")
    # the circle samples are evaluated in series' Cauchy kernel
    circle_evals = _count_calls(monkeypatch, "evaluate", series_module)
    phis = _count_calls(monkeypatch, "phi_components")
    tree = parse("sin(p)*cos(p)")
    p = Quaternion(0.5, 0.2, -0.1, 0.3)

    full_derivative(tree, p)
    assert (len(evals), len(phis)) == (2, 0)
    for k in range(1, 5):
        circle_evals.clear()
        kth_derivative(tree, p, k)
        assert (len(circle_evals), len(phis)) == (2 ** max(k, 2), 0)

    evals.clear()
    # phi_components runs the compiled tree itself, not functions.evaluate
    inner_evals = _count_calls(monkeypatch, "evaluate", functions)
    check_holomorphy(tree, Quaternion(0.3, 0.0, 0.2, -0.1))
    assert (len(evals), len(phis), len(inner_evals)) == (0, 16, 0)


def test_circle_makes_one_evaluation_at_each_of_its_points(monkeypatch):
    # the nested stencil made 2^k calls at only k + 1 distinct points
    evals = _count_calls(monkeypatch, "evaluate", series_module)
    tree, p = parse("exp(p)*p"), Quaternion(0.1, 0.0, 0.4, 0.0)
    for k in range(1, 9):
        evals.clear()
        kth_derivative(tree, p, k)
        points = [args[1] for args in evals]
        assert all(type(a) is complex for a in points)
        assert len(points) == len(set(points)) == 2 ** max(k, 2), k
    # the radius h grows with |p| past 1; each N keeps one cached circle
    misses = series_module._circle.cache_info().misses
    for scale in (2.0, 3.0, 40.0):
        kth_derivative(tree, p * scale, 5)
    assert series_module._circle.cache_info().misses == misses


def test_circle_order_sixteen_runs_and_seventeen_is_refused_unevaluated(monkeypatch):
    evals = _count_calls(monkeypatch, "evaluate", series_module)
    tree, p = parse("exp(p)"), Quaternion(0.5, 0.0, 0.1, 0.0)
    r = kth_derivative(tree, p, 16)
    assert r.method == "series" and len(evals) == 2**16
    assert all(map(math.isfinite, (r.value.x, r.value.z, r.truncation_estimate)))
    evals.clear()
    # one check with one message at and off the origin, before any
    # evaluation, and 2^k is not formed for k = 10**9
    for q, k, got in ((p, 17, "131072 * 146"), (p, 10**9, "2^1000000000 * 1000000129"),
                      (ZERO, 2000, "16008 * 2129"), (ZERO, 100000, "800008 * 100129"),
                      (ZERO, 10**9, "8000000008 * 1000000129")):
        with pytest.raises(ValueError, match=rf"^derivative order {k} is beyond the series route: samples\*\(k\+129\) must be <= 16777216, got {re.escape(got)}$"):
            kth_derivative(tree, q, k)
    assert evals == []


def test_series_and_derive_sample_their_circles_through_one_kernel(monkeypatch):
    # maclaurin_extraction (series, radius) and kth_derivative (derive) each
    # make one call of series._cauchy, the only code that samples a circle
    kernel, calls = series_module._cauchy, []

    def counted(f, w0, r, N, need, pair=False, half=0):
        calls.append((w0, r, N, need, pair, half))
        return kernel(f, w0, r, N, need, pair, half)

    monkeypatch.setattr(series_module, "_cauchy", counted)
    monkeypatch.setattr(wirtinger, "_cauchy", counted)
    tree, p = parse("exp(p)*p"), Quaternion(0.1, 0.0, 0.4, 0.0)
    h3, h2 = 1e-5 ** (1.0 / 3.0), 1e-5 ** 0.5
    for call, want in (
        (lambda: series_module.maclaurin_extraction(tree, 17), (0j, 0.8, 144, 18, False, 0)),
        # the pair path of a tree with a non-real constant
        (lambda: series_module.maclaurin_extraction(parse("j*p"), 5, 1.0), (0j, 1.0, 64, 6, True, 0)),
        (lambda: kth_derivative(tree, ZERO, 3), (0j, 0.8, 64, 4, False, 4)),
        (lambda: kth_derivative(tree, p, 3), (0.1 + 0.4j, h3, 8, 4, False, 4)),
        # 4 points have no half grid to alias against: S_3 stands in
        (lambda: kth_derivative(tree, p, 2), (0.1 + 0.4j, h2, 4, 4, False, 0)),
    ):
        calls.clear()
        call()
        assert calls == [want]
    calls.clear()
    kth_derivative(tree, p, 0)
    assert calls == []
    # derive asks for the slice mode, so a tree with a non-real constant is
    # refused at its first sample, at and off the origin
    for q in (ZERO, p):
        calls.clear()
        with pytest.raises(ValueError, match="non-real constant"):
            kth_derivative(parse("j*p"), q, 2)
        assert len(calls) == 1 and calls[0][4] is False


def test_derive_at_the_origin_samples_the_points_of_series(monkeypatch):
    # the origin's circle is series' own (N, 0.8) entry of _circle, bitwise
    # the points 0j + 0.8*z on the unit circle (N, 1.0) it sampled before
    evals = _count_calls(monkeypatch, "evaluate", series_module)
    tree = parse("cos(p)")

    def bits(points):
        return [(a.real.hex(), a.imag.hex()) for a in points]

    for k in (1, 7, 8, 11, 30):
        N = max(64, 8 * (k + 1))
        evals.clear()
        series_module.maclaurin_extraction(tree, k, 0.8, N)
        want = bits(args[1] for args in evals)
        misses = series_module._circle.cache_info().misses
        evals.clear()
        kth_derivative(tree, ZERO, k)
        assert bits(args[1] for args in evals) == want and len(want) == N, k
        assert series_module._circle.cache_info().misses == misses
        assert bits(0j + 0.8 * z for z in series_module._circle(N, 1.0)[1]) == want, k


def _stencil_points():
    """The 20 points of perfbench's series-spectral stencil derivatives, as
    perfbench/workloads.py draws them: uniform in the cube, kept inside the
    ball |p| <= 0.5, rounded to 6 decimals."""
    rng, points = random.Random(2407), {}
    for c in range(4):
        for name in _SPECTRAL_EXPRS:
            while True:
                q = [rng.uniform(-0.5, 0.5) for _ in range(4)]
                if sum(v * v for v in q) <= 0.25:
                    points[name, c] = Quaternion(*(float(f"{v:.6f}") for v in q))
                    break
    return points


_SPECTRAL_EXPRS = ("exp(p)", "sin(p)", "cos(p)", "sin(p)*cos(p)", "1/(1-p)")
# F^(k)(w) of the slice function F of each series-spectral function, 1/p, 1/(10-p) and 1/(0.7-p)
_SPECTRAL = {
    "exp(p)": lambda w, k: cmath.exp(w),
    "sin(p)": lambda w, k: cmath.sin(w + k * math.pi / 2),
    "cos(p)": lambda w, k: cmath.cos(w + k * math.pi / 2),
    "sin(p)*cos(p)": lambda w, k: 2.0 ** (k - 1) * cmath.sin(2 * w + k * math.pi / 2),
    "1/(1-p)": lambda w, k: math.factorial(k) / (1 - w) ** (k + 1),
    "1/p": lambda w, k: (-1) ** k * math.factorial(k) / w ** (k + 1),
    "1/(10-p)": lambda w, k: math.factorial(k) / (10 - w) ** (k + 1),
    "1/(0.7-p)": lambda w, k: math.factorial(k) / (0.7 - w) ** (k + 1),
}


def _closed_form(name, p, k):
    v = math.hypot(p.y, p.z, p.u)
    w = _SPECTRAL[name](complex(p.x, v), k)
    return Quaternion(w.real, 0.0, 0.0, 0.0) if v == 0.0 else Quaternion(w.real, p.y / v * w.imag, p.z / v * w.imag, p.u / v * w.imag)


def test_circle_derivatives_of_the_spectral_functions_at_the_stencil_points():
    # the nested stencil missed 1e-6 relative at every one of these for
    # k = 2..4 (up to 5.4e-2 at k = 4); no estimate flags any of k = 1..8
    points, worst = _stencil_points(), 0.0
    for (name, c), p in points.items():
        tree = parse(name)
        for k in range(1, 9):
            r = kth_derivative(tree, p, k)
            assert r.method == "series" and not r.accuracy_warning, (name, p, k, r.truncation_estimate)
            if k <= 4:
                want = _closed_form(name, p, k)
                worst = max(worst, (r.value - want).norm() / max(1.0, want.norm()))
    assert len(points) == 20 and worst <= 1e-6, worst


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("name, pole", [("1/(1-p)", 1.0), ("1/p", 0.0), ("1/(10-p)", 10.0)])
def test_circle_near_a_pole_flags_every_wrong_value(name, pole, k):
    # the pole 0.3h to 5h from p, along x on either side and obliquely: a
    # pole inside the circle or just outside it aliases onto S_k, and S_{k+N/2}
    # (S_3 itself at k = 1, from the half grid at k >= 3, extrapolated from
    # S_3 at k = 2) exceeds 1e-4 relative; at |p| near 10 the nested
    # stencil's k*h^2/6 flagged every value at k = 2, right or wrong, and the
    # central difference at k = 1 flagged none of its wrong values
    tree, base, wrong, cases = parse(name), 1e-5 ** (1.0 / k), 0, 0
    for factor in (0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.6, 2.0, 2.5, 3.0, 4.0, 5.0):
        for u in ((1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0), (0.6, 0.0, 0.8, 0.0), (-0.28, 0.96, 0.0, 0.0)):
            d = factor * base * max(1.0, abs(pole) + factor * base)
            p = Quaternion(pole + d * u[0], d * u[1], d * u[2], d * u[3])
            r = kth_derivative(tree, p, k)
            want = _closed_form(name, p, k)
            cases += 1
            if (r.value - want).norm() > 1e-4 * max(1.0, want.norm()):
                wrong += 1
                assert r.accuracy_warning, (name, k, factor, u, r.value, want, r.truncation_estimate)
    assert cases == 48 and wrong >= 24, wrong


def test_full_derivative_is_the_wirtinger_sum_on_random_trees():
    # d/da + d/d(conj a) = d/dx: both difference the same two evaluations,
    # so they differ only by the rounding of the Wirtinger combination
    rng = random.Random(32)
    eps = 2.220446049250313e-16
    checked = 0
    for _ in range(300):
        tree = _random_tree(rng, 0)
        p = random_quat(rng)
        try:
            got = full_derivative(tree, p)
            t = partials(tree, p)
        except (ArithmeticError, ValueError):
            continue
        a, b = got.to_cd()
        for d, da, dabar in ((a, t.dphi1_da, t.dphi1_dabar), (b, t.dphi2_da, t.dphi2_dabar)):
            # |d/dx| = |da + dabar|, |d/dy| = |dabar - da|
            assert abs(d - (da + dabar)) <= 8 * eps * (abs(da + dabar) + abs(dabar - da)), (tree, p)
        checked += 1
    assert checked >= 250
