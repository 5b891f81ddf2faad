import cmath
import math
import random
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
    kth_derivative,
    maclaurin_coeffs,
    maclaurin_extraction,
    parse,
    partials,
    phi_components,
)
from hquat import functions, wirtinger
from hquat.functions import EvaluationOverflowError
from hquat.wirtinger import InvalidPointError
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
    # partials builds p +- e*h in one construction; the components must be
    # the very sums of Quaternion arithmetic, sign of zero included
    seen = _count_calls(monkeypatch, "phi_components")
    rng = random.Random(33)
    for _ in range(300):
        p = Quaternion(*[rng.choice((0.0, -0.0, rng.uniform(-3.0, 3.0), -rng.uniform(0, 1e-300))) for _ in range(4)])
        step = rng.choice((1e-5, 2.220446049250313e-16, 0.5))
        seen.clear()
        t = partials(P, p, step)
        h = t.step
        want = [q for e in (ONE, I, J, K) for q in (p + e * h, p - e * h)]
        assert [repr(q) for _, q in seen] == [repr(q) for q in want], p


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
    assert r1.method == "stencil"
    assert (r1.value - want).norm() <= 1e-7 * max(1.0, want.norm())


def test_kth_paths_agree_where_both_apply():
    # the series route at the origin against the stencil route just off it
    tree = parse("exp(p)")
    x = 1e-3
    series = kth_derivative(tree, ZERO, 3)
    stencil = kth_derivative(tree, Quaternion.from_real(x), 3)
    assert series.method == "series" and stencil.method == "stencil"
    assert (series.value - stencil.value).norm() <= 5e-3
    assert abs(stencil.value.x - math.exp(x)) <= 5e-3
    # nested differencing at order 3 has crossed the accuracy cliff
    assert stencil.accuracy_warning
    assert stencil.truncation_estimate > 1e-4

    stencil2 = kth_derivative(tree, Quaternion.from_real(x), 2)
    assert (stencil2.value - Quaternion.from_real(math.exp(x))).norm() <= 1e-4
    assert not stencil2.accuracy_warning


def test_kth_series_route_is_taken_at_zero_only():
    tree = parse("exp(p)")
    # |p|^2 underflows to 0 here, yet p is not the origin
    r = kth_derivative(tree, Quaternion(1e-300, 0.0, 0.0, 0.0), 2)
    assert r.method == "stencil" and abs(r.value.x - 1.0) <= 1e-4
    for zero in (Quaternion(0.0, 0.0, 0.0, 0.0), Quaternion(-0.0, 0.0, 0.0, 0.0)):
        assert kth_derivative(tree, zero, 2).method == "series"


@pytest.mark.parametrize("text", ["exp(p)", "sin(p)", "cos(p)", "sin(p)*cos(p)", "1/(1-p)"])
def test_series_route_reports_its_noise(text):
    tree = parse(text)
    for k, flagged in ((1, False), (11, False), (13, True), (30, True)):
        r = kth_derivative(tree, ZERO, k)
        want = float(Fraction(maclaurin_extraction(tree, k).noise_floors[k]) * math.factorial(k))
        assert r.method == "series" and r.truncation_estimate == want > 0.0
        assert r.accuracy_warning is flagged, (k, r.truncation_estimate)


@pytest.mark.parametrize("k", [1, 11, 22, 23, 40])
def test_series_route_rounds_k_factorial_times_the_coefficient_once(k):
    tree = parse("exp(p)")
    c = maclaurin_coeffs(tree, k).coeffs[k]
    want = float(Fraction(c) * math.factorial(k))
    assert kth_derivative(tree, ZERO, k).value == Quaternion.from_real(want)
    if k <= 22:  # k! is exact in a double
        assert want == c * math.factorial(k)


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
    # k*h^2/6*max(1, |value|) overflowed to inf beside a finite value, which
    # the machine output spelled as the invalid JSON constant Infinity
    tree = parse("1e154*(1*p)-i*(1*p)*i")
    p = Quaternion(1e154, 0.0, 1e154, 0.0)
    with pytest.raises(EvaluationOverflowError, match="truncation estimate"):
        kth_derivative(tree, p, 1)
    # where h^2*|value| stays in range, so does the estimate
    r = kth_derivative(tree, Quaternion(1e80, 0.0, 1e80, 0.0), 1)
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


def test_partials_are_the_one_quotient_bitwise():
    for text in _QUOTIENT_TREES:
        tree = parse(text)
        for p in _QUOTIENT_POINTS:
            for step in (1e-5, 1e-3):
                h = step * max(1.0, p.norm())
                d = [(phi_components(tree, p + e * h), phi_components(tree, p - e * h)) for e in (ONE, I, J, K)]
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


def test_derivatives_are_the_one_quotient_bitwise():
    for text in _QUOTIENT_TREES:
        tree = parse(text)
        for p in _QUOTIENT_POINTS:
            h = 1e-5 * max(1.0, p.norm())
            want = Quaternion.from_cd(*_nested_central(tree, p, 1, h))
            assert repr(full_derivative(tree, p)) == repr(want), (text, p)
            if p == ZERO:
                continue
            for k in range(1, 5):
                h = 1e-5 ** (1.0 / k) * max(1.0, p.norm())
                r = kth_derivative(tree, p, k)
                want = Quaternion.from_cd(*_nested_central(tree, p, k, h))
                assert repr(r.value) == repr(want) and r.step == h, (text, p, k)


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
    r = kth_derivative(tree, p, 1)
    assert repr(r.value) == repr(want) and r.accuracy_warning


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
    for call in (lambda: partials(P, x_edge), lambda: partials(P, z_edge), lambda: full_derivative(P, x_edge)):
        with pytest.raises(EvaluationOverflowError, match="difference stencil overflows"):
            call()
    # the derivative steps along x only, so z at the edge stays in range
    assert full_derivative(P, z_edge) == ONE


def test_kth_power_rule_away_from_origin():
    rng = random.Random(31)
    for _ in range(10):
        p = random_quat(rng)
        r = kth_derivative(parse("p^2"), p, 2)
        assert r.method == "stencil"
        assert (r.value - Quaternion.from_real(2.0)).norm() <= 1e-8
        assert not r.accuracy_warning


def test_kth_preconditions():
    with pytest.raises(ValueError):
        kth_derivative(parse("exp(p)"), ZERO, -1)
    with pytest.raises(ValueError):
        kth_derivative(parse("exp(p)"), Quaternion.from_real(1.0), 5)  # stencil cliff
    # any order is fine at the origin through the series route
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
    phis = _count_calls(monkeypatch, "phi_components")
    tree = parse("sin(p)*cos(p)")
    p = Quaternion(0.5, 0.2, -0.1, 0.3)

    full_derivative(tree, p)
    assert (len(evals), len(phis)) == (2, 0)
    for k in range(1, 5):
        evals.clear()
        kth_derivative(tree, p, k)
        assert (len(evals), len(phis)) == (2**k, 0)

    evals.clear()
    # phi_components runs the compiled tree itself, not functions.evaluate
    inner_evals = _count_calls(monkeypatch, "evaluate", functions)
    check_holomorphy(tree, Quaternion(0.3, 0.0, 0.2, -0.1))
    assert (len(evals), len(phis), len(inner_evals)) == (0, 16, 0)


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
