"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is fixed here, nothing is calibrated at run time.
"""

import math
import random
import time

from hquat import (
    Add,
    IntPow,
    J,
    K,
    Mul,
    P,
    ParseError,
    QuatConst,
    Quaternion,
    RealConst,
    ZERO,
    check_holomorphy,
    commutator_residual,
    conjugate_expr,
    cos_series,
    evaluate,
    exp_series,
    format_expr,
    full_derivative,
    geometric_series,
    maclaurin_extraction,
    parse,
    phi_components,
    product_cd,
    ratio_test,
    sin_cos_coefficient,
    sin_cos_series,
    sin_series,
)
from hquat.cli import sample_ball

EXP, SIN, COS = parse("exp(p)"), parse("sin(p)"), parse("cos(p)")
SINCOS = parse("sin(p)*cos(p)")


def _verdict(num: int, desc: str, ok: bool) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_values_at_zero():
    ok = True
    for tree, want in ((EXP, 1.0), (SIN, 0.0), (COS, 1.0)):
        v = evaluate(tree, ZERO)
        ok = ok and abs(v.x - want) <= 1e-14 and v.y == 0.0 and v.z == 0.0 and v.u == 0.0
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        evaluate(EXP, ZERO)
        evaluate(SIN, ZERO)
        evaluate(COS, ZERO)
        best = min(best, time.perf_counter() - t0)
    ok = ok and best < 1e-3
    _verdict(1, f"exp/sin/cos at 0 give 1/0/1 to 1e-14, three evals in {best * 1e6:.0f} us (< 1 ms)", ok)


def test_criterion_2_maclaurin_tables():
    t0 = time.perf_counter()
    ok = True
    tables = {
        EXP: [1 / math.factorial(l) for l in range(11)],
        SIN: [0 if l % 2 == 0 else (-1) ** ((l - 1) // 2) / math.factorial(l) for l in range(11)],
        COS: [0 if l % 2 else (-1) ** (l // 2) / math.factorial(l) for l in range(11)],
    }
    for tree, want in tables.items():
        ext = maclaurin_extraction(tree, 10)
        ok = ok and all(abs(g - w) <= 1e-9 for g, w in zip(ext.coeffs, want))

    signs = [0, 1, 0, -4, 0, 16, 0, -64, 0, 256, 0, -1024, 0, 4096, 0, -16384, 0, 65536]
    want = [s / math.factorial(l) for l, s in enumerate(signs)]
    ext = maclaurin_extraction(SINCOS, 17)
    ok = ok and all(abs(g - w) <= 1e-9 for g, w in zip(ext.coeffs, want))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _verdict(2, f"coefficient tables r0..r10 (exp/sin/cos) and r0..r17 (sin*cos) within 1e-9 in {elapsed:.2f}s", ok)


def test_criterion_3_general_term_rule():
    ext = maclaurin_extraction(SINCOS, 17, rho=3.0, samples=256)
    ok = True
    for m in range(9):  # term index m covers powers 1, 3, ..., 17
        l = 2 * m + 1
        want = sin_cos_coefficient(l)
        ok = ok and abs(ext.coeffs[l] - want) <= 1e-9 * abs(want)
    _verdict(3, "closed-form product-series rule matches extraction for the first 9 terms at 1e-9 relative", ok)


def test_criterion_4_ratio_test_radii():
    ok = True
    for s in (exp_series(64), sin_series(64), cos_series(64), sin_cos_series(80)):
        rep = ratio_test(s)
        ok = ok and rep.L_estimate < 1e-8 and rep.monotone_decreasing and math.isinf(rep.radius)
    geo = ratio_test(geometric_series(48))
    ok = ok and abs(geo.radius - 1.0) <= 1e-9
    _verdict(4, "entire-series evidence (L < 1e-8, monotone decreasing) and geometric radius 1.0 +- 1e-9", ok)


def _holomorphic_catalog(rng):
    trees = [EXP, SIN, COS, SINCOS]
    trees += [IntPow(P, n) for n in range(1, 7)]
    for _ in range(3):
        poly = RealConst(rng.uniform(-1, 1))
        for l in range(1, 6):
            poly = Add(poly, Mul(RealConst(rng.uniform(-1, 1)), IntPow(P, l)))
        trees.append(poly)
    return trees


def test_criterion_5_holomorphy_suite():
    rng = random.Random(501)
    pairs = [(sample_ball(rng, 3.0, y_zero=True), sample_ball(rng, 3.0)) for _ in range(100)]
    worst_main = worst_aux = 0.0
    for tree in _holomorphic_catalog(rng):
        for p3, aux in pairs:
            rep = check_holomorphy(tree, p3, tol=1e-6, aux_point=aux)
            worst_main = max(worst_main, *rep.main_residuals)
            worst_aux = max(worst_aux, *rep.aux_residuals)
    ok = worst_main <= 1e-6 and worst_aux <= 1e-6

    for bad in (conjugate_expr(), parse("j*exp(p)")):
        rejected = 0
        for p3, aux in pairs[:10]:
            rep = check_holomorphy(bad, p3, tol=1e-6, aux_point=aux)
            if max(rep.main_residuals) > 1e-2:
                rejected += 1
        ok = ok and rejected == 10
    _verdict(
        5,
        f"main/aux residuals over 100 seeded point pairs: worst {worst_main:.2e}/{worst_aux:.2e} <= 1e-6; "
        "conj(p) and j*exp(p) rejected above 1e-2",
        ok,
    )


def test_criterion_6_derivative_identities():
    rng = random.Random(601)
    points = [sample_ball(rng, 2.0) for _ in range(100)]
    ok = True
    for tree, truth in ((EXP, lambda p: evaluate(EXP, p)), (SIN, lambda p: evaluate(COS, p)), (COS, lambda p: -evaluate(SIN, p))):
        for p in points:
            want = truth(p)
            got = full_derivative(tree, p)
            ok = ok and (got - want).norm() <= 1e-7 * max(1.0, want.norm())

    ratios = []
    for p in points[:10]:
        want = evaluate(EXP, p)
        r1 = (full_derivative(EXP, p, step=1e-3) - want).norm()
        r2 = (full_derivative(EXP, p, step=5e-4) - want).norm()
        ratios.append(r1 / r2)
    med = sorted(ratios)[len(ratios) // 2]
    ok = ok and 3.5 <= med <= 4.5
    _verdict(6, f"derivative identities at 1e-7 over 100 points; halving h shrinks residual by {med:.2f}x", ok)


def test_criterion_7_commutativity():
    rng = random.Random(701)
    points = [sample_ball(rng, 2.0) for _ in range(100)]
    worst = 0.0
    ok = True
    for p in points:
        fv, gv = evaluate(SIN, p), evaluate(COS, p)
        bound = 1e-9 * (1.0 + fv.norm() * gv.norm())
        res = commutator_residual(SIN, COS, p)
        worst = max(worst, res)
        ok = ok and res <= bound
    ok = ok and commutator_residual(QuatConst(J), QuatConst(K), ZERO) == 2.0

    # explicit doubling-form products of sin*cos and cos*sin agree termwise
    from test_functions import _cos_phi_explicit, _sin_phi_explicit

    checked = 0
    while checked < 20:
        p = sample_ball(rng, 2.0)
        if math.sqrt(p.y**2 + p.z**2 + p.u**2) < 0.2:
            continue
        f = _sin_phi_explicit(p)
        g = _cos_phi_explicit(p)
        re_sc = f.phi1 * g.phi1 - f.phi2 * g.phi2.conjugate()
        im_sc = f.phi2 * g.phi1.conjugate() + f.phi1 * g.phi2
        re_cs = g.phi1 * f.phi1 - g.phi2 * f.phi2.conjugate()
        im_cs = g.phi2 * f.phi1.conjugate() + g.phi1 * f.phi2
        ok = ok and abs(re_sc - re_cs) <= 1e-9 and abs(im_sc - im_cs) <= 1e-9
        sc = product_cd(phi_components(SIN, p.to_cd()), phi_components(COS, p.to_cd()))
        ok = ok and abs(sc.phi1 - re_sc) <= 1e-9 and abs(sc.phi2 - im_sc) <= 1e-9
        checked += 1
    _verdict(7, f"sin/cos commutator <= 1e-9*(1+|f||g|) (worst {worst:.2e}); jk-kj = 2; closed-form products agree at 20 points", ok)


def test_criterion_8_series_vs_closed_form():
    rng = random.Random(801)
    t0 = time.perf_counter()
    catalog = [(exp_series(), EXP), (sin_series(), SIN), (cos_series(), COS), (sin_cos_series(), SINCOS)]
    ok = True
    for series, tree in catalog:
        for _ in range(100):
            p = sample_ball(rng, 2.0)
            got = series.evaluate(p, tol=1e-12, max_terms=200)
            want = evaluate(tree, p)
            ok = ok and got.converged and (got.value - want).norm() <= 1e-9 * max(1.0, want.norm())
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _verdict(8, f"series sums match closed forms at 1e-9 over 4x100 points in {elapsed:.2f}s (< 10s)", ok)


def test_criterion_9_parser_round_trip():
    from test_parser import _random_tree

    rng = random.Random(901)
    ok = True
    for _ in range(1000):
        tree = _random_tree(rng, 0)
        ok = ok and parse(format_expr(tree)) == tree

    error_cases = [("2p", 1), ("sin(p", 5), ("p^-1", 2), ("", 0), ("p+", 2), ("(p", 2), ("exp p", 4), ("p^2.5", 2)]
    for text, pos in error_cases:
        try:
            parse(text)
            ok = False
        except ParseError as exc:
            ok = ok and exc.position == pos
    _verdict(9, "1000 random trees round-trip; parse errors report exact positions", ok)
