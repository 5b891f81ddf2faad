import cmath
import math
import operator
import random
import time

import pytest

from hquat import (
    J,
    MaclaurinExtraction,
    MajorantViolatedError,
    NonRealCoefficientError,
    PowerSeries,
    Quaternion,
    RatioTestInconclusive,
    TermRuleMismatchError,
    ZERO,
    cos_coefficient,
    cos_series,
    evaluate,
    exp_coefficient,
    exp_series,
    general_term_check,
    geometric_series,
    inv_factorial,
    m_test,
    maclaurin_coeffs,
    maclaurin_extraction,
    parse,
    ratio_test,
    sin_coefficient,
    sin_cos_coefficient,
    sin_cos_series,
    sin_series,
)
from hquat import series as series_module
from hquat.cli import sample_ball
from hquat.functions import EvaluationOverflowError
from test_parser import _random_tree


def random_quat(rng, span):
    return Quaternion(*[rng.uniform(-span, span) for _ in range(4)])


# ---------------------------------------------------------------------------
# partial sums and evaluation
# ---------------------------------------------------------------------------


def test_partial_sum_examples():
    s = exp_series()
    for n in (0, 3, 10, 30):
        assert s.partial_sum(ZERO, n) == Quaternion.from_real(1.0)
    assert PowerSeries((5.0,)).partial_sum(Quaternion(1, 2, 3, 4), 0) == Quaternion.from_real(5.0)

    p = Quaternion(1, 0, 1, 0)
    want = evaluate(parse("exp(p)"), p)
    got = s.partial_sum(p, 30)
    assert (got - want).norm() <= 1e-10 * max(1.0, want.norm())


def test_evaluate_against_closed_form():
    p = J * 0.5
    res = sin_series().evaluate(p, tol=1e-12, max_terms=100)
    want = evaluate(parse("sin(p)"), p)
    assert res.converged
    assert (res.value - want).norm() <= 1e-10


def test_evaluate_divergent_geometric():
    p = Quaternion(2, 0, 0, 0)
    res = geometric_series().evaluate(p, tol=1e-12, max_terms=200)
    assert not res.converged
    assert res.terms_used == 200
    # the flagged result still carries the last partial sum
    assert res.value.x > 1e59


def test_evaluate_at_zero_stops_quickly():
    res = cos_series().evaluate(ZERO, tol=1e-12, max_terms=100)
    assert res.converged
    assert res.value == Quaternion.from_real(1.0)
    assert res.terms_used <= 5


def test_evaluate_runs_out_of_coefficients():
    s = PowerSeries((1.0, 1.0, 1.0))
    res = s.evaluate(Quaternion.from_real(0.9), tol=1e-12, max_terms=50)
    assert not res.converged
    assert res.terms_used == 3


def test_evaluate_rejects_a_tolerance_that_is_not_positive():
    for tol in (0.0, -1e-12):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            exp_series().evaluate(ZERO, tol=tol)


@pytest.mark.parametrize(
    "text, n",
    [
        ("1/(1-p)", 48),
        ("(p^2+1)/(p^2+4)", 32),
        ("cos(p)/(p^2+9)", 24),
        ("exp(sin(p))", 24),
        ("sin(p)*cos(p)", 24),
        ("p^3-2*p", 3),
    ],
)
def test_extracted_series_sums_to_the_function_off_the_slice(text, n):
    # coefficients sampled on the complex slice sum to f at quaternion points
    f = parse(text)
    s = maclaurin_coeffs(f, n)
    rng = random.Random(1601)
    for _ in range(50):
        p = sample_ball(rng, 0.5)
        want = evaluate(f, p)
        assert (s.partial_sum(p, n) - want).norm() <= 1e-12 * want.norm(), p


def test_evaluate_is_the_partial_sum_over_the_terms_used():
    rng = random.Random(1602)
    for s in (exp_series(), sin_series(), cos_series(), sin_cos_series(), geometric_series()):
        for _ in range(20):
            p = sample_ball(rng, 1.5)
            res = s.evaluate(p, tol=1e-12, max_terms=200)
            assert repr(res.value) == repr(s.partial_sum(p, res.terms_used - 1))
    assert PowerSeries(()).evaluate(Quaternion(1, 2, 3, 4)) == series_module.SeriesEvaluation(ZERO, 0, False)


@pytest.mark.parametrize("s, text", [(sin_series(), "sin(p)"), (exp_series(), "exp(p)")])
def test_series_sums_take_the_domain_of_the_evaluator(s, text):
    # |Im p|^2 underflows: the imaginary part reads 0, as in evaluate
    tiny = Quaternion(0.3, 1e-300, 0.0, 0.0)
    got, want = s.partial_sum(tiny, len(s.coeffs) - 1), evaluate(parse(text), tiny)
    assert (got.y, got.z, got.u) == (want.y, want.z, want.u) == (0.0, 0.0, 0.0)
    assert math.isclose(got.x, want.x, rel_tol=1e-15)
    assert s.evaluate(tiny).value.y == 0.0
    # |Im p|^2 overflows: an evaluation error for both
    huge = Quaternion(0.0, 1e160, 0.0, 0.0)
    with pytest.raises(EvaluationOverflowError):
        evaluate(parse(text), huge)
    with pytest.raises(EvaluationOverflowError):
        s.partial_sum(huge, len(s.coeffs) - 1)
    with pytest.raises(EvaluationOverflowError):
        PowerSeries((5.0,)).partial_sum(huge, 0)


def test_coefficient_access():
    s = PowerSeries((1.0, 2.0))
    assert s.coefficient(1) == 2.0
    with pytest.raises(IndexError):
        s.coefficient(2)
    with pytest.raises(IndexError):
        s.coefficient(-1)
    gen = PowerSeries((), generator=lambda l: 1.0 / (l + 1))
    assert gen.coefficient(9) == 0.1


def test_powerseries_rejects_nonfinite():
    with pytest.raises(ValueError):
        PowerSeries((1.0, float("nan")))


# ---------------------------------------------------------------------------
# ratio test
# ---------------------------------------------------------------------------


def test_ratio_test_entire_series():
    for s in (exp_series(64), sin_series(64), cos_series(64), sin_cos_series(80)):
        rep = ratio_test(s, n_tail=12)
        assert rep.monotone_decreasing
        assert rep.L_estimate < 1e-8
        assert math.isinf(rep.radius)
        assert rep.n_used == 12


def test_ratio_test_geometric():
    rep = ratio_test(geometric_series(48))
    assert abs(rep.radius - 1.0) <= 1e-9
    assert abs(rep.L_estimate - 1.0) <= 1e-9
    assert not rep.term_test_pass  # terms do not decay on the unit sphere


def test_ratio_test_with_point():
    rep = ratio_test(exp_series(64), point=Quaternion(1, 1, 1, 1))
    assert rep.L_at_point is not None
    assert rep.L_at_point < 1e-7
    assert rep.term_test_pass


def test_ratio_test_finite_radius_scaled_geometric():
    s = PowerSeries(tuple(2.0**-l for l in range(40)))
    rep = ratio_test(s)
    assert abs(rep.radius - 2.0) <= 1e-9


def test_ratio_test_inconclusive_on_oscillation():
    coeffs = tuple((2.0 if l % 2 else 1.0) for l in range(40))
    with pytest.raises(RatioTestInconclusive):
        ratio_test(PowerSeries(coeffs))


def test_ratio_test_needs_enough_nonzero_coefficients():
    with pytest.raises(ValueError):
        ratio_test(PowerSeries((1.0, 1.0, 1.0)), n_tail=12)
    with pytest.raises(ValueError, match="at least 2 trailing ratios"):
        ratio_test(geometric_series(), n_tail=1)


# ---------------------------------------------------------------------------
# majorant test
# ---------------------------------------------------------------------------


def test_m_test_sin_cos_majorant():
    # term i of the product series is bounded by 5^i rho^(2i+1)/(2i+1)!
    for rho in (0.5, 1.5, 3.0):
        cert = m_test(
            sin_cos_series(90),
            rho,
            lambda i, r=rho: 5.0**i * r ** (2 * i + 1) / math.factorial(2 * i + 1),
        )
        assert cert.passed
        assert cert.majorant_tail_ratio < 1.0


def test_m_test_geometric_equality_case():
    cert = m_test(geometric_series(40), 0.5, lambda i: 0.5**i)
    assert cert.passed


def test_m_test_violation_index():
    with pytest.raises(MajorantViolatedError) as exc:
        m_test(geometric_series(40), 2.0, lambda i: 0.5**i)
    assert exc.value.index == 1


def test_m_test_divergent_majorant():
    cert = m_test(geometric_series(40), 0.5, lambda i: 1.0)
    assert not cert.passed
    assert "ratio test" in cert.reason


def test_m_test_weighs_terms_whose_radius_power_overflows():
    # R^l alone leaves the double range: OverflowError escaped
    with pytest.raises(MajorantViolatedError) as exc:
        m_test(PowerSeries((), generator=lambda l: 1e-300 if l % 1100 == 0 else 0.0), 2.0, lambda i: 1.0)
    assert exc.value.index == 1  # 1e-300 * 2^1100 = 1.36e31
    cert = m_test(PowerSeries((), generator=lambda l: 1e-320 if l == 1030 else 0.0), 2.0, lambda i: 1.0)
    assert cert.passed  # 1e-320 * 2^1030 = 1.15e-10


def test_m_test_preconditions_and_empty_series():
    for radius in (0.0, -1.0):
        with pytest.raises(ValueError, match="ball radius must be positive"):
            m_test(geometric_series(), radius, lambda i: 1.0)
    cert = m_test(PowerSeries((0.0, 0.0)), 1.0, lambda i: 1.0)
    assert not cert.passed and cert.terms_checked == 0
    assert cert.reason == "no nonzero terms to check"


def test_m_test_ends_when_generator_terms_run_out():
    # the walk over the generator's zero tail never returned
    cert = m_test(PowerSeries((1.0, 0.5), generator=lambda l: 0.0), 0.5, lambda i: 1.0)
    assert cert.terms_checked == 2
    assert not cert.passed
    # exp's rule is 0 past l = 170; its first 40 nonzero terms still certify
    cert = m_test(PowerSeries((), generator=exp_coefficient), 1.0, lambda i: 1.0 / math.factorial(i))
    assert cert.passed and cert.terms_checked == 40
    # 40 nonzero terms spread over thousands of indices are all checked
    sparse = PowerSeries((), generator=lambda l: 1.0 if l % 100 == 0 else 0.0)
    cert = m_test(sparse, 0.99, lambda i: 2.0**-i)  # 0.99^100 < 1/2
    assert cert.passed and cert.terms_checked == 40


# ---------------------------------------------------------------------------
# termwise differentiation
# ---------------------------------------------------------------------------


def test_differentiate_exp_fixed_point():
    s = exp_series(20)
    d = s.differentiate()
    for l in range(20):
        assert math.isclose(d.coeffs[l], s.coeffs[l], rel_tol=1e-15)


def test_differentiate_sin_cos_pair():
    n = 21
    dsin = sin_series(n).differentiate()
    for l in range(n):
        assert math.isclose(dsin.coeffs[l], cos_coefficient(l), rel_tol=1e-15, abs_tol=0.0)
    dcos = cos_series(n).differentiate()
    for l in range(n):
        assert math.isclose(dcos.coeffs[l], -sin_coefficient(l), rel_tol=1e-15, abs_tol=0.0)


def test_differentiate_transforms_generator_and_keeps_hint():
    s = exp_series(4)
    d = s.differentiate()
    # beyond the stored prefix the transformed rule takes over
    assert math.isclose(d.coefficient(10), 11 * exp_coefficient(11), rel_tol=1e-15)


def test_termwise_differentiation_matches_closed_form_derivative():
    rng = random.Random(32)
    pairs = [
        (exp_series(), parse("exp(p)")),
        (sin_series(), parse("cos(p)")),
    ]
    for series, derivative_tree in pairs:
        d = series.differentiate()
        for _ in range(30):
            p = random_quat(rng, 1.5)
            got = d.evaluate(p, tol=1e-13, max_terms=120).value
            want = evaluate(derivative_tree, p)
            assert (got - want).norm() <= 1e-8 * max(1.0, want.norm())


# ---------------------------------------------------------------------------
# Maclaurin extraction
# ---------------------------------------------------------------------------


def test_exp_coefficients():
    ser = maclaurin_coeffs(parse("exp(p)"), 6, rho=1.0, samples=64)
    want = [1.0, 1.0, 1 / 2, 1 / 6, 1 / 24, 1 / 120, 1 / 720]
    for got, expect in zip(ser.coeffs, want):
        assert abs(got - expect) <= 1e-10


def test_catalog_coefficients_read_zero_past_the_double_range():
    assert inv_factorial(170) == 1.0 / math.factorial(170) > 0.0
    assert inv_factorial(171) == 0.0
    # 4^512 alone is past the double range
    assert sin_cos_coefficient(1025) == 0.0


def test_sin_cos_product_coefficients():
    ser = maclaurin_coeffs(parse("sin(p)*cos(p)"), 9, rho=0.8, samples=128)
    want = [0.0, 1.0, 0.0, -4 / math.factorial(3), 0.0, 16 / math.factorial(5), 0.0, -64 / math.factorial(7), 0.0, 256 / math.factorial(9)]
    for got, expect in zip(ser.coeffs, want):
        assert abs(got - expect) <= 1e-9


def test_extraction_stability_across_radii():
    results = [maclaurin_coeffs(parse("exp(p)"), 7, rho=rho).coeffs for rho in (0.5, 0.8, 1.0)]
    for a in results:
        for b in results:
            for x, y in zip(a, b):
                assert abs(x - y) <= 1e-8


def test_linear_combination_of_coefficients():
    combo = maclaurin_coeffs(parse("2*sin(p) + 3*cos(p)"), 9).coeffs
    for l, got in enumerate(combo):
        want = 2 * sin_coefficient(l) + 3 * cos_coefficient(l)
        assert abs(got - want) <= 1e-9


def test_nonreal_rejection():
    with pytest.raises(NonRealCoefficientError) as exc:
        maclaurin_coeffs(parse("j*exp(p)"), 5)
    # the restriction of j*exp lives entirely in the second component
    assert exc.value.index == 0
    assert exc.value.residue > 0.5

    with pytest.raises(NonRealCoefficientError):
        maclaurin_coeffs(parse("i*exp(p)"), 5)

    # a left constant j or k moves conj(a)-terms, frequency -l, into b
    with pytest.raises(NonRealCoefficientError) as exc:
        maclaurin_coeffs(parse("k*p^2"), 4)
    assert exc.value.index == 2
    with pytest.raises(NonRealCoefficientError) as exc:
        maclaurin_coeffs(parse("j*p"), 4)
    assert exc.value.index == 1

    # the one realness rule, which maclaurin_coeffs and the CLI both read
    assert maclaurin_extraction(parse("k*p^2"), 4).first_nonreal() == 2
    assert maclaurin_extraction(parse("exp(p)"), 4).first_nonreal() is None


def _reference_extraction(f, n, rho, N):
    """The direct DFT: one cmath.exp twiddle per term, summed in a Python
    loop, with the second component also read at frequency -k."""
    values = []
    vmax = 0.0
    for m in range(N):
        theta = 2.0 * math.pi * m / N
        a, b = evaluate(f, Quaternion(rho * math.cos(theta), rho * math.sin(theta), 0.0, 0.0)).to_cd()
        vmax = max(vmax, abs(a), abs(b))
        values.append((theta, a, b))
    coeffs, residues = [], []
    for k in range(n + 1):
        s1 = s2 = s2neg = 0.0j
        for theta, a, b in values:
            w = cmath.exp(complex(0.0, -k * theta))
            s1 += a * w
            s2 += b * w
            s2neg += b * w.conjugate()
        scale = 1.0 / (N * rho**k)
        extra = (abs(s2 * scale), abs(s2neg * scale)) if k else (abs(s2 * scale),)
        coeffs.append((s1 * scale).real)
        residues.append(math.hypot((s1 * scale).imag, *extra))
    return coeffs, residues, vmax


def _assert_matches_reference(f, n, rho, N):
    eps = 2.220446049250313e-16
    try:
        want_c, want_r, vmax = _reference_extraction(f, n, rho, N)
    except (ArithmeticError, ValueError) as exc:
        with pytest.raises(type(exc)):
            maclaurin_extraction(f, n, rho, N)
        return False
    ext = maclaurin_extraction(f, n, rho, N)
    assert ext.samples == N and len(ext.coeffs) == len(ext.nonreal_residues) == n + 1
    for k in range(n + 1):
        tol = 4 * N * eps * vmax / rho**k
        assert abs(ext.coeffs[k] - want_c[k]) <= tol, (k, ext.coeffs[k], want_c[k])
        assert abs(ext.nonreal_residues[k] - want_r[k]) <= tol, (k, ext.nonreal_residues[k], want_r[k])
    return True


@pytest.mark.parametrize(
    "expr", ["exp(p)", "sin(p)", "cos(p)", "sin(p)*cos(p)", "1/(1-p)", "j*exp(p)", "(2+i)*p", "j*p", "k*p^2"]
)
def test_extraction_matches_reference_dft_on_catalog(expr):
    for n, rho, N in ((17, 0.8, 144), (9, 0.5, 43), (64, 0.8, 1024)):
        assert _assert_matches_reference(parse(expr), n, rho, N)


def test_extraction_matches_reference_dft_on_random_trees():
    rng = random.Random(4404)
    checked = 0
    for _ in range(120):
        tree = _random_tree(rng, 0)
        n = rng.randint(0, 12)
        N = rng.choice((max(64, 8 * (n + 1)), 4 * (n + 1) + rng.randint(0, 9)))
        checked += _assert_matches_reference(tree, n, rng.choice((0.5, 0.8, 1.3)), N)
    assert checked >= 80


def test_extraction_evaluates_each_sample_once(monkeypatch):
    calls = []
    original = series_module.evaluate

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(series_module, "evaluate", counted)
    for n, samples, N in ((9, None, 80), (17, 200, 200), (0, None, 64), (4, 21, 21), (64, 1024, 1024)):
        calls.clear()
        assert maclaurin_extraction(parse("j*exp(p)"), n, samples=samples).samples == N
        assert len(calls) == N


def _old_twiddle_row(table, N, k):
    """[roots[k*m mod N] for m < N] for k >= 1, sliced from a table that
    repeats the N roots 4 times: the row slicer of the direct sums."""
    row = []
    start = 0
    while len(row) < N:
        piece = table[start : start + k * (N - len(row)) : k]
        row += piece
        start = (start + k * len(piece)) % N
    return row


def _boxed_extraction(f, n, rho, N):
    """maclaurin_extraction as it was before the radix-2 kernel: a to_cd view
    of each sample, a running Python max, and n+1 direct N-term sums over
    twiddle rows.  Returns the extraction and vmax."""
    roots = [cmath.exp(complex(0.0, -2.0 * math.pi * j / N)) for j in range(N)]
    first, second = [], []
    vmax = 0.0
    for w in roots:
        a, b = evaluate(f, Quaternion(rho * w.real, -rho * w.imag, 0.0, 0.0)).to_cd()
        vmax = max(vmax, abs(a), abs(b))
        first.append(a)
        second.append(b)
    second_conj = [b.conjugate() for b in second] if any(second) else None
    table = roots * 4
    noise_unit = math.sqrt(N) * 2.220446049250313e-16 * vmax
    coeffs, residues, floors = [], [], []
    for k in range(n + 1):
        row = _old_twiddle_row(table, N, k) if k else [1.0 + 0.0j] * N
        scale = 1.0 / (N * rho**k)
        c1 = sum(map(operator.mul, first, row), 0.0j) * scale
        coeffs.append(c1.real)
        parts = [c1.imag]
        if second_conj is not None:
            parts.append(abs(sum(map(operator.mul, second, row), 0.0j) * scale))
            if k:
                parts.append(abs(sum(map(operator.mul, second_conj, row), 0.0j) * scale))
        residues.append(math.hypot(*parts))
        floors.append(noise_unit / rho**k)
    return MaclaurinExtraction(tuple(coeffs), tuple(residues), rho, N, tuple(floors)), vmax


@pytest.mark.parametrize("expr", ["exp(p)", "sin(p)*cos(p)", "1/(1-p)", "j*p"])
def test_extraction_is_bitwise_the_boxed_sample_loop(expr):
    # the samples, and so vmax and the noise floors, are bitwise the old
    # loop's; the sums take a new order, within the reference bound
    eps = 2.220446049250313e-16
    f = parse(expr)
    for n, N in ((17, 144), (9, 80), (64, 1024)):
        want, vmax = _boxed_extraction(f, n, 0.8, N)
        for got in (maclaurin_extraction(f, n, 0.8, N), maclaurin_extraction(f, n, 0.8, None if N == 80 else N)):
            assert (got.samples, got.rho) == (want.samples, want.rho)
            assert repr(got.noise_floors) == repr(want.noise_floors)  # signed zeros too
            assert got.first_nonreal() == want.first_nonreal()
            for k in range(n + 1):
                tol = 4 * N * eps * vmax / 0.8**k
                assert abs(got.coeffs[k] - want.coeffs[k]) <= tol, (k, got.coeffs[k], want.coeffs[k])
                assert abs(got.nonreal_residues[k] - want.nonreal_residues[k]) <= tol, k
    if expr == "j*p":
        assert any(want.nonreal_residues) and want.first_nonreal() == 1


def _direct_dft(x, need):
    """sum_m x[m] e^{-2 pi i k m/L} for k < need, one twiddle per term, with
    k*m reduced mod L in integers."""
    L = len(x)
    return [sum(v * cmath.exp(complex(0.0, -2.0 * math.pi * (k * m % L) / L)) for m, v in enumerate(x)) for k in range(need)]


def test_dft_kernel_matches_direct_dft_at_every_length():
    eps = 2.220446049250313e-16
    rng = random.Random(1965)
    for L in range(1, 131):  # odd, 2^a * odd and powers of two
        roots = [cmath.exp(complex(0.0, -2.0 * math.pi * j / L)) for j in range(L)]
        x = [complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(L)]
        vmax = max(map(abs, x))
        for need in sorted({1, 2, 3, 5, L // 4} - {0}):
            got = series_module._dft_head(x, roots, need)
            want = _direct_dft(x, need)
            assert len(got) == need
            for k in range(need):
                assert abs(got[k] - want[k]) <= 4 * L * eps * vmax, (L, need, k)


@pytest.mark.parametrize(
    "expr", ["exp(p)", "sin(p)", "cos(p)", "sin(p)*cos(p)", "1/(1-p)", "j*p", "(p-i*p*i)/2"]
)
def test_extraction_matches_reference_dft_deep_decimation(expr, monkeypatch):
    # N = 1024 is halved up to 5 times before the leaves, 8(n+1) reaches an
    # odd leaf after 3 halvings, and an odd N is summed directly at the top
    for n, odd in ((17, 1), (32, 3), (64, 5)):
        for N in (8 * (n + 1), 1024, 4 * (n + 1) + odd):
            assert _assert_matches_reference(parse(expr), n, 0.8, N)
    # j*p has a second component on the slice, so b and conj(b) take their
    # own spectra; (p-i*p*i)/2 equals a on the slice and takes one
    kernel, tops = series_module._dft_head, []

    def counted(x, roots, need):
        tops.append(len(x))
        return kernel(x, roots, need)

    monkeypatch.setattr(series_module, "_dft_head", counted)
    maclaurin_extraction(parse(expr), 17, 0.8, 144)
    assert tops.count(144) == (3 if expr == "j*p" else 1)


def test_extraction_preconditions():
    with pytest.raises(ValueError):
        maclaurin_extraction(parse("exp(p)"), 5, samples=16)  # fewer than 4*(n+1)
    with pytest.raises(ValueError):
        maclaurin_extraction(parse("exp(p)"), -1)
    for rho in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="circle radius"):
            maclaurin_extraction(parse("exp(p)"), 3, rho=rho)


def test_extraction_work_budget(monkeypatch):
    budget = series_module.MAX_EXTRACTION_TERMS
    # at least 64 times the largest use in the tests and the benchmark (n = 64, N = 1024)
    assert 64 * 1024 * (64 + 1 + 128) <= budget
    start = time.perf_counter()
    for n, samples in [(1, 10**9), (2047, None), (0, budget // 128)]:
        with pytest.raises(ValueError, match="samples"):
            maclaurin_extraction(parse("exp(p)"), n, rho=1.0, samples=samples)
    # rejected before the sample points are built
    assert time.perf_counter() - start < 1.0
    # samples*(n+1) Fourier terms plus 128 terms' worth per evaluated sample
    monkeypatch.setattr(series_module, "MAX_EXTRACTION_TERMS", 64 * (2 + 1 + 128))
    assert math.isclose(maclaurin_extraction(parse("exp(p)"), 2, samples=64).coeffs[2], 0.5, rel_tol=1e-12)
    with pytest.raises(ValueError, match="samples"):
        maclaurin_extraction(parse("exp(p)"), 2, samples=65)


def test_extraction_rejects_rho_whose_powers_leave_the_double_range():
    # rho**n underflowed to a ZeroDivisionError or overflowed to an OverflowError
    for rho in (1e-200, 1e200):
        with pytest.raises(ValueError, match="circle radius"):
            maclaurin_extraction(parse("p"), 3, rho=rho)
    # n = 0 forms no power of rho, and e^(+-700/n) itself is in range
    assert math.isclose(maclaurin_extraction(parse("exp(p)"), 0, rho=1e-200).coeffs[0], 1.0, rel_tol=1e-15)
    ext = maclaurin_extraction(parse("p^7"), 7, rho=math.exp(100.0))
    assert math.isclose(ext.coeffs[7], 1.0, rel_tol=1e-12)


def test_denoised_coefficients_zero_noise_entries():
    ext = maclaurin_extraction(parse("sin(p)"), 24, rho=1.0)
    den = ext.denoised_coeffs()
    assert all(den[l] == 0.0 for l in range(0, len(den), 2))
    assert den[-1] != 0.0


# ---------------------------------------------------------------------------
# general term rules
# ---------------------------------------------------------------------------


def test_rule_checks():
    ext = maclaurin_extraction(parse("sin(p)*cos(p)"), 17, rho=3.0, samples=256)
    assert general_term_check(sin_cos_coefficient, ext.coeffs) == 18

    assert general_term_check(exp_coefficient, exp_series(20).coeffs) == 21

    with pytest.raises(TermRuleMismatchError) as exc:
        general_term_check(lambda l: inv_factorial(l), sin_series(10).coeffs)
    assert exc.value.index == 0


def test_r17_value():
    ext = maclaurin_extraction(parse("sin(p)*cos(p)"), 17, rho=3.0, samples=256)
    want = 65536 / math.factorial(17)
    assert abs(ext.coeffs[17] - want) <= 1e-9 * want


def test_product_series_is_half_of_doubled_sine():
    # coefficient identity: (-1)^l 4^l/(2l+1)! == 2^(2l+1) (-1)^l / (2 (2l+1)!)
    for l in range(30):
        lhs = sin_cos_coefficient(2 * l + 1)
        rhs = 2.0 ** (2 * l + 1) * (-1.0) ** l / (2.0 * math.factorial(2 * l + 1))
        assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-300)


def test_series_match_closed_forms():
    rng = random.Random(33)
    catalog = [
        (exp_series(), parse("exp(p)")),
        (sin_series(), parse("sin(p)")),
        (cos_series(), parse("cos(p)")),
        (sin_cos_series(), parse("sin(p)*cos(p)")),
    ]
    for series, tree in catalog:
        for _ in range(25):
            p = random_quat(rng, 1.0)
            got = series.evaluate(p, tol=1e-12, max_terms=200)
            want = evaluate(tree, p)
            assert got.converged
            assert (got.value - want).norm() <= 1e-9 * max(1.0, want.norm())
