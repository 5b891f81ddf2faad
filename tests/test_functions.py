import cmath
import copy
import math
import pickle
import random
import sys
from fractions import Fraction
from typing import NamedTuple

import pytest

from hquat import (
    Add,
    Cos,
    Div,
    EvaluationOverflowError,
    Exp,
    FuncExpr,
    I,
    J,
    K,
    IntPow,
    Mul,
    ONE,
    P,
    QuatConst,
    Quaternion,
    RealConst,
    Sin,
    Sub,
    Var,
    ZERO,
    ZeroDivisorError,
    commutator_residual,
    conjugate_expr,
    evaluate,
    format_expr,
    has_nonreal_constant,
    parse,
    phi_components,
    product_cd,
)
from hquat import functions
from hquat.functions import HEADS, MAX_DEPTH, ComplexPair
from test_parser import _random_tree


def random_quat(rng, span=2.0):
    return Quaternion(*[rng.uniform(-span, span) for _ in range(4)])


# ---------------------------------------------------------------------------
# polar decomposition: the reference split for the head lift
# ---------------------------------------------------------------------------


class PolarDecomp(NamedTuple):
    """p = x + v*r with |r| = 1, r purely imaginary; r is None when v = 0."""

    x: float
    v: float
    r: Quaternion | None


def polar(p: Quaternion) -> PolarDecomp:
    """Split p into real part and imaginary magnitude/direction; v is taken by
    hypot where the squares leave the normal range, as in the evaluator's lift."""
    v2 = p.y * p.y + p.z * p.z + p.u * p.u
    v = math.sqrt(v2) if sys.float_info.min <= v2 < math.inf else math.hypot(p.y, p.z, p.u)
    if v == 0.0:
        return PolarDecomp(p.x, 0.0, None)
    return PolarDecomp(p.x, v, Quaternion(0.0, p.y / v, p.z / v, p.u / v))


def test_polar_examples():
    d = polar(Quaternion.from_real(3.0))
    assert (d.x, d.v, d.r) == (3.0, 0.0, None)

    d = polar(I)
    assert d.x == 0.0 and d.v == 1.0 and d.r == I

    d = polar(Quaternion(1, 2, 2, 1))
    assert d.x == 1.0
    assert abs(d.v - 3.0) <= 1e-15
    assert d.r.isclose(Quaternion(0, 2 / 3, 2 / 3, 1 / 3), rel_tol=1e-15)


def test_polar_reconstruction_and_axis_properties():
    rng = random.Random(11)
    for _ in range(300):
        p = random_quat(rng)
        x, v, r = polar(p)
        if r is None:
            continue
        assert abs(r.norm() - 1.0) <= 1e-14
        assert r.x == 0.0
        assert ((r * r) + Quaternion.from_real(1.0)).norm() <= 1e-14
        rebuilt = Quaternion.from_real(x) + r * v
        assert (rebuilt - p).norm() <= 1e-14 * max(1.0, p.norm())


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_values_at_zero():
    assert evaluate(parse("exp(p)"), ZERO) == Quaternion.from_real(1.0)
    assert evaluate(parse("sin(p)"), ZERO) == ZERO
    assert evaluate(parse("cos(p)"), ZERO) == Quaternion.from_real(1.0)


def test_euler_formula_example():
    # exp(r * pi/2) = r for a purely imaginary unit r
    p = J * (math.pi / 2)
    v = evaluate(parse("exp(p)"), p)
    assert v.isclose(J, rel_tol=0, abs_tol=1e-15)


def test_real_axis_restriction():
    rng = random.Random(12)
    exprs = {
        "exp(p)": math.exp,
        "sin(p)": math.sin,
        "cos(p)": math.cos,
        "1 + p + p^2/2 + p^3/6": lambda x: 1 + x + x**2 / 2 + x**3 / 6,
    }
    for text, fn in exprs.items():
        tree = parse(text)
        for _ in range(100):
            x = rng.uniform(-3, 3)
            v = evaluate(tree, Quaternion.from_real(x))
            assert abs(v.x - fn(x)) <= 1e-12 * max(1.0, abs(fn(x)))
            assert v.y == 0.0 and v.z == 0.0 and v.u == 0.0


def test_complex_restriction():
    rng = random.Random(13)
    exprs = {"exp(p)": cmath.exp, "sin(p)": cmath.sin, "cos(p)": cmath.cos}
    for text, fn in exprs.items():
        tree = parse(text)
        for _ in range(200):
            p = Quaternion(rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0, 0.0)
            got, rest = evaluate(tree, p).to_cd()
            want = fn(complex(p.x, p.y))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
            assert rest == 0j


def test_composite_head_uses_inner_polar_split():
    # exp(sin(p)) must equal the scalar extension applied to the value sin(p)
    rng = random.Random(14)
    tree = parse("exp(sin(p))")
    for _ in range(50):
        p = random_quat(rng)
        inner = evaluate(parse("sin(p)"), p)
        x, v, r = polar(inner)
        w = cmath.exp(complex(x, v))
        want = Quaternion.from_real(w.real) + (r * w.imag if r is not None else ZERO)
        got = evaluate(tree, p)
        assert (got - want).norm() <= 1e-13 * max(1.0, want.norm())


def test_power_and_constant_nodes():
    assert evaluate(IntPow(P, 0), Quaternion(5, 1, 2, 3)) == Quaternion.from_real(1.0)
    assert evaluate(parse("p^2"), I + J) == Quaternion.from_real(-2.0)
    assert evaluate(QuatConst(K), ZERO) == K
    assert evaluate(RealConst(2.5), ZERO) == Quaternion.from_real(2.5)


def test_eval_errors():
    with pytest.raises(ZeroDivisorError):
        evaluate(Div(RealConst(1.0), P), ZERO)
    with pytest.raises(EvaluationOverflowError):
        evaluate(parse("exp(p)"), Quaternion.from_real(1e4))
    with pytest.raises(EvaluationOverflowError):
        evaluate(parse("exp(exp(p))"), Quaternion.from_real(800.0))


@pytest.mark.parametrize("power, x", [("p^400", 10.0), ("p^2", 1e200), ("p*p", 1e200)])
@pytest.mark.parametrize("template", ["exp(0-{})", "1/({})", "sin({})*0"])
def test_overflow_hidden_by_later_node_is_reported(template, power, x):
    # the power overflows; p^2 and p*p at 1e200 are exactly inf + 0j, so
    # without a check at that node exp(-inf) = 0 would be finite, 1/inf a zero
    # divisor and sin(inf) a ValueError.  p*p spells the power as a binary
    # node; each spelling is checked in both modes
    tree = parse(template.format(power))
    for point in (Quaternion.from_real(x), x + 0j):
        with pytest.raises(EvaluationOverflowError):
            evaluate(tree, point)


def test_head_whose_argument_is_the_variable_checks_its_value():
    # at a finite point a head raises before its value leaves the double
    # range, so only a non-finite point reaches the check of a head applied
    # to p itself: exp(inf) = inf must not come back as a value.  evaluate
    # refuses such a point, so each mode's compiled function is run directly
    tree = parse("exp(p)")
    evaluate(tree, 0.5 + 0j)  # compiles the slice function
    with pytest.raises(EvaluationOverflowError, match="^non-finite intermediate value x=inf$"):
        tree._compiled_slice(complex(math.inf, 0.0))
    with pytest.raises(EvaluationOverflowError, match="^non-finite intermediate value x=inf$"):
        phi_components(tree, (complex(math.inf, 0.0), 0j))


@pytest.mark.parametrize("text", ["exp(p)", "p", "sin(p)", "cos(p)*p", "1/(1-p)"])
def test_evaluate_refuses_a_non_finite_complex_or_pair_point(text):
    # at -inf+inf*j the slice mode returned 0j for exp(p), inf for p and
    # raised "math domain error" for sin(p); now every form raises the
    # ValueError that a Quaternion point raises, naming the first such part
    tree = parse(text)
    for a, b in [(complex(-math.inf, math.inf), 0j), (complex(math.nan, 0.0), 0j), (complex(0.0, math.inf), 0j),
                 (0.5 + 0j, complex(0.0, -math.inf)), (0.5 + 0j, complex(math.nan, 1.0))]:
        with pytest.raises(ValueError) as want:
            Quaternion.from_cd(a, b)
        forms = [(a, b)] if b else [(a, b), a]
        for point in forms:
            with pytest.raises(ValueError) as got:
                evaluate(tree, point)
            assert type(got.value) is ValueError and str(got.value) == str(want.value), (text, point)


def test_overflow_names_its_non_finite_components_in_every_form(fresh_parse_memo):
    # the slice mode raises its own error, the same text as the pair mode's,
    # with no sign of a zero in it; no pair function is built for it
    tree = parse("p^1024")
    with pytest.raises(EvaluationOverflowError) as slice_error:
        evaluate(tree, 3 + 0j)
    assert "_compiled" not in vars(tree)
    with pytest.raises(EvaluationOverflowError) as pair_error:
        evaluate(tree, (3 + 0j, 0j))
    with pytest.raises(EvaluationOverflowError) as quaternion_error:
        evaluate(tree, Quaternion(3, 0, 0, 0))
    for error in (slice_error, pair_error, quaternion_error):
        assert str(error.value) == "non-finite intermediate value x=inf"


def test_head_range_error_names_the_point_in_every_form():
    # cmath's bare "math range error" named neither the point nor the node;
    # each mode's runner names the point, (a, 0) in the slice mode
    tree = parse("exp(exp(exp(p)))")
    texts = []
    for point in (6 + 0j, (6 + 0j, 0j), Quaternion(6, 0, 0, 0)):
        with pytest.raises(EvaluationOverflowError) as error:
            evaluate(tree, point)
        texts.append(str(error.value))
    assert texts == ["math range error at Quaternion(x=6.0, y=0.0, z=0.0, u=0.0)"] * 3


@pytest.mark.parametrize("node", list(functions.BINARY))
def test_each_binary_node_evaluates_lhs_before_rhs(node):
    overflow, zero_divisor = parse("exp(1000)"), parse("1/(0*p)")
    with pytest.raises(EvaluationOverflowError):
        evaluate(node(overflow, zero_divisor), ONE)
    with pytest.raises(ZeroDivisorError):
        evaluate(node(zero_divisor, overflow), ONE)


def _reference_lift(fn, q):
    x, v, r = polar(q)
    w = fn(complex(x, v))
    if r is None:
        return Quaternion.from_real(w.real)
    return Quaternion(w.real, r.y * w.imag, r.z * w.imag, r.u * w.imag)


def _reference_walk(expr, p):
    """Tree walk on validated Quaternion operators; every intermediate is a
    Quaternion, whose constructor rejects inf and nan with ValueError."""
    if isinstance(expr, Var):
        return p
    if isinstance(expr, RealConst):
        return Quaternion.from_real(expr.value)
    if isinstance(expr, QuatConst):
        return expr.value
    if isinstance(expr, Add):
        return _reference_walk(expr.lhs, p) + _reference_walk(expr.rhs, p)
    if isinstance(expr, Sub):
        return _reference_walk(expr.lhs, p) - _reference_walk(expr.rhs, p)
    if isinstance(expr, Mul):
        return _reference_walk(expr.lhs, p) * _reference_walk(expr.rhs, p)
    if isinstance(expr, Div):
        return _reference_walk(expr.lhs, p) / _reference_walk(expr.rhs, p)
    if isinstance(expr, IntPow):
        base = _reference_walk(expr.base, p)
        out = ONE
        for _ in range(expr.exponent):
            out = out * base
        return out
    heads = {Exp: cmath.exp, Sin: cmath.sin, Cos: cmath.cos}
    return _reference_lift(heads[type(expr)], _reference_walk(expr.arg, p))


def _reference_evaluate(expr, p):
    try:
        return _reference_walk(expr, p)
    except (OverflowError, ValueError) as exc:
        raise EvaluationOverflowError(str(exc)) from exc


def _outcome(fn, expr, p):
    try:
        return fn(expr, p)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def test_pair_kernel_matches_reference_walk():
    rng = random.Random(21)
    spans = (0.0, 0.5, 3.0, 1e3, 1e160)
    for _ in range(600):
        tree = _random_tree(rng, 0)
        for span in spans:
            p = random_quat(rng, span)
            want = _outcome(_reference_evaluate, tree, p)
            got = _outcome(evaluate, tree, p)
            # repr is bitwise on the components, sign of zero included
            assert repr(got) == repr(want), (tree, p)


# the expression texts of perfbench's check-grid catalog
CHECK_CATALOG_TEXTS = (
    "p^3 - 2*p",
    "p^8",
    "exp(p)",
    "sin(p)*cos(p)",
    "exp(sin(p))",
    "cos(p)/(p^2+9)",
    "(p^2+1)/(p^2+4)",
    "i*p",
    "p*j",
    "-0.5*(p + i*p*i + j*p*j + k*p*k)",
)


def _pair_bits(thunk):
    """The four components of the pair thunk() returns as hex strings,
    bitwise and with the sign of zero, or the type and text of its error."""
    try:
        a, b = thunk()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return a.real.hex(), a.imag.hex(), b.real.hex(), b.imag.hex()


def test_pair_form_of_evaluate_is_bitwise_the_quaternion_form():
    rng = random.Random(2026)
    trees = [parse(text) for text in CHECK_CATALOG_TEXTS + ("1/(1-p)",)]
    trees += [_random_tree(rng, 0) for _ in range(300)]
    tiny, big = 5e-324, sys.float_info.max
    points = [
        ZERO,
        Quaternion(-0.0, -0.0, -0.0, -0.0),
        Quaternion(0.0, -0.0, 0.0, -0.0),
        Quaternion(-0.0, 0.0, -0.0, 0.0),
        Quaternion(tiny, -tiny, tiny, -tiny),
        Quaternion(1e-310, 0.0, -2e-320, 0.0),
        Quaternion(-tiny, 0.0, 0.0, 0.0),
        ONE,  # the pole of 1/(1-p)
        Quaternion(1.0, -0.0, 0.0, -0.0),
        Quaternion(big, 0.0, 0.0, 0.0),
        Quaternion(-big, big, -big, big),
        Quaternion(1e200, 0.0, 1e200, 0.0),
        Quaternion(0.0, 1e160, 0.0, 0.0),
    ]
    points += [random_quat(rng, span) for span in (0.5, 3.0, 1e3) for _ in range(3)]
    outcomes = set()
    for tree in trees:
        for q in points:
            pair = q.to_cd()
            want = _pair_bits(lambda: evaluate(tree, q).to_cd())
            got = _pair_bits(lambda: evaluate(tree, pair))
            # the pair form is phi_components' value or error, as a ComplexPair
            assert got == want == _pair_bits(lambda: phi_components(tree, pair)), (tree, q)
            if not isinstance(got[0], type):
                assert type(evaluate(tree, pair)) is ComplexPair, (tree, q)
            outcomes.add(want[0] if isinstance(want[0], type) else "value")
    # the points reach a value and each kind of failure
    assert outcomes == {"value", EvaluationOverflowError, ZeroDivisorError}
    assert type(evaluate(P, ONE.to_cd())) is ComplexPair


# Operands of the node under test: p, real and quaternion constants with
# signed zeros, subnormals and magnitudes near overflow, and subtrees.
NODE_OPERANDS = (
    P,
    RealConst(-0.0),
    RealConst(5e-324),
    RealConst(-1.7e308),
    QuatConst(Quaternion(-0.0, 5e-324, 0.0, -2.5)),
    QuatConst(Quaternion(1e300, -0.0, -1e-310, 3.0)),
    Mul(P, QuatConst(Quaternion(0.5, -0.0, 2.0, -5e-324))),
    Sub(Exp(P), RealConst(1.0)),
)
NODE_POINTS = (
    (0j, 0j),
    (complex(-0.0, -0.0), complex(-0.0, 0.0)),
    (complex(5e-324, -5e-324), complex(-5e-324, 0.0)),
    (complex(1.5, -0.25), complex(0.5, 2.0)),
    (complex(1e-160, 0.0), complex(0.0, -1e-160)),  # |p|^2 underflows
    (complex(1e154, -0.0), complex(0.0, 1e154)),  # |p|^2 overflows
    (complex(1.7e308, 0.0), 0j),
    (complex(-1e308, 1e308), complex(1e308, -1e308)),
)


def _reference_node(expr, p):
    """The value of expr's root node at the pair p by the doubling
    arithmetic (cd_mul, cd_inverse, componentwise sums, _lift) on its
    operands' values, each node's value passed through _finite, with a head's
    range error named as phi_components names it."""
    values = [phi_components(c, p) for c in vars(expr).values() if isinstance(c, FuncExpr)]
    try:
        if isinstance(expr, (Add, Sub)):
            (a1, b1), (a2, b2) = values
            return functions._finite((a1 + a2, b1 + b2) if isinstance(expr, Add) else (a1 - a2, b1 - b2))
        if isinstance(expr, Mul):
            return functions._finite(functions.cd_mul(*values))
        if isinstance(expr, Div):
            return functions._finite(functions.cd_mul(values[0], functions.cd_inverse(values[1])))
        if isinstance(expr, IntPow):
            out = (1 + 0j, 0j)
            for _ in range(expr.exponent):
                out = functions._finite(functions.cd_mul(out, values[0]))
            return out
        return functions._finite(functions._lift(HEADS[type(expr)].fn, values[0]))
    except OverflowError as exc:
        raise EvaluationOverflowError(f"{exc} at {Quaternion.from_cd(*p)!r}") from exc


def _pair_reprs(thunk):
    """repr of the four components of the pair thunk() returns, or the type
    and text of its error."""
    try:
        a, b = thunk()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return repr(a.real), repr(a.imag), repr(b.real), repr(b.imag)


def test_each_pair_node_is_the_doubling_arithmetic_bit_for_bit(fresh_parse_memo):
    trees = [node(lhs, rhs) for node in functions.BINARY for lhs in NODE_OPERANDS for rhs in NODE_OPERANDS]
    trees += [IntPow(base, n) for base in NODE_OPERANDS for n in range(6)]
    trees += [head(arg) for head in (Exp, Sin, Cos) for arg in NODE_OPERANDS]
    outcomes = set()
    for tree in trees:
        for p in NODE_POINTS:
            want = _pair_reprs(lambda: _reference_node(tree, p))
            assert _pair_reprs(lambda: phi_components(tree, p)) == want, (tree, p)
            outcomes.add(want[0] if isinstance(want[0], type) else "value")
            if want[0] is EvaluationOverflowError and " at Quaternion(" in want[1]:
                outcomes.add("range error")
    assert outcomes == {"value", EvaluationOverflowError, ZeroDivisorError, "range error"}


def test_a_zero_constant_divisor_raises_at_each_evaluation_after_lhs(fresh_parse_memo):
    zero = "quaternion too close to zero to invert: |p|^2 = 0.0"
    for text in ("1/0", "p/0", "p/(0*i)", "exp(p)/0"):
        tree = parse(text)  # builds without raising
        for _ in range(2):
            with pytest.raises(ZeroDivisorError) as error:
                evaluate(tree, ONE)
            assert str(error.value) == zero, text
    # lhs's own error wins over the divisor's
    tree = parse("exp(p)/0")
    with pytest.raises(EvaluationOverflowError, match="^math range error at Quaternion"):
        evaluate(tree, Quaternion(710.0, 0.0, 0.0, 0.0))


def _node_count(expr):
    return 1 + sum(_node_count(c) for c in vars(expr).values() if isinstance(c, FuncExpr))


def test_tree_is_compiled_once(monkeypatch, fresh_parse_memo):
    compiled = []
    original = functions._compile

    def counted(expr, mode):
        compiled.append(mode)
        return original(expr, mode)

    # the compile step recurses through the module global, so every node counts
    monkeypatch.setattr(functions, "_compile", counted)
    tree = parse("sin(p)*cos(p)+p^3/(1+p)")
    rng = random.Random(24)
    values = []
    for _ in range(50):
        p = random_quat(rng)
        values.append((evaluate(tree, p), phi_components(tree, p.to_cd())))
    assert compiled == ["pair"] * _node_count(tree)
    assert all(repr(ComplexPair(*v.to_cd())) == repr(phi) for v, phi in values)
    for _ in range(50):
        w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert evaluate(tree, w) == evaluate(tree, (w, 0j))[0]
    assert compiled == ["pair"] * _node_count(tree) + ["slice"] * _node_count(tree)
    # a tree with a non-real constant is refused at a complex point before
    # any node is compiled
    compiled.clear()
    nonreal = parse("j*exp(p)")
    with pytest.raises(ValueError, match="^a tree with a non-real constant has no slice function$"):
        evaluate(nonreal, 0.5 + 0j)
    assert compiled == [] and "_compiled_slice" not in vars(nonreal)


def test_equal_trees_evaluate_alike_and_keep_eq_hash_repr():
    rng = random.Random(25)
    for _ in range(200):
        tree = _random_tree(rng, 0)
        twin = copy.deepcopy(tree)
        assert twin == tree and twin is not tree
        before = (hash(tree), repr(tree))
        for span in (0.5, 3.0):
            p = random_quat(rng, span)
            assert repr(_outcome(evaluate, tree, p)) == repr(_outcome(evaluate, twin, p)), (tree, p)
        # the cached compiled function is no field: eq, hash and repr ignore it
        assert twin == tree and (hash(tree), repr(tree)) == before


def test_evaluated_tree_pickles_and_copies_without_its_compiled_function():
    rng = random.Random(26)
    for _ in range(100):
        tree = _random_tree(rng, 0)
        p = random_quat(rng)
        want = _outcome(evaluate, tree, p)
        # a complex point compiles the slice function too, or raises
        # ValueError for a tree with a non-real constant
        w = complex(p.x, p.y)
        want_slice = _outcome(evaluate, tree, w)
        assert (want_slice is ValueError) == has_nonreal_constant(tree)
        assert ("_compiled_slice" in vars(tree)) != has_nonreal_constant(tree)
        for clone in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree), copy.copy(tree)):
            assert clone == tree and "_compiled" not in vars(clone) and "_compiled_slice" not in vars(clone)
            assert repr(_outcome(evaluate, clone, p)) == repr(want), (tree, p)
            assert repr(_outcome(evaluate, clone, w)) == repr(want_slice), (tree, w)


def _chain(levels):
    """p+p+...+p built in code: ``levels`` levels, the leftmost p the deepest."""
    tree = P
    for _ in range(levels - 1):
        tree = Add(tree, P)
    return tree


def test_depth_of_trees_built_in_code_is_bounded():
    walks = (lambda t: evaluate(t, ONE), lambda t: phi_components(t, ONE.to_cd()), format_expr, has_nonreal_constant)
    for levels in (2000, MAX_DEPTH + 1):
        deep = _chain(levels)
        for walk in walks:
            # a RecursionError before the bound was added
            with pytest.raises(ValueError, match=f"tree depth exceeds {MAX_DEPTH} levels"):
                walk(deep)
    at_limit = _chain(MAX_DEPTH)
    assert evaluate(at_limit, ONE) == Quaternion.from_real(MAX_DEPTH)
    assert phi_components(at_limit, ONE.to_cd()) == ComplexPair(MAX_DEPTH + 0j, 0j)
    assert parse(format_expr(at_limit)) == at_limit
    assert not has_nonreal_constant(at_limit)


def test_depth_is_recorded_once_and_survives_pickles_and_copies():
    assert P._depth == RealConst(2.0)._depth == 1
    assert parse("sin(p^2)*(1+p)")._depth == 4
    tree = _chain(100)
    for clone in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree), copy.copy(tree)):
        assert clone == tree and clone._depth == 100 and "_depth" not in repr(clone)
    deep = pickle.loads(pickle.dumps(_chain(MAX_DEPTH + 1)))
    with pytest.raises(ValueError, match=f"tree depth exceeds {MAX_DEPTH} levels"):
        evaluate(deep, ONE)


# Slice points where a head's value overflows (cosh and sinh near 709.78) or
# its imaginary part is subnormal or huge, on both sides of the real axis
SLICE_EDGE_POINTS = [complex(x, s * y) for x in (0.3, -0.3) for y in (709.5, 710.5, 1e308, 5e-324) for s in (1, -1)]


def _value_or_error(thunk):
    """thunk()'s value, or the type and text of its evaluation error."""
    try:
        return thunk()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("text, node, fn", [("exp", Exp, cmath.exp), ("sin", Sin, cmath.sin), ("cos", Cos, cmath.cos)])
def test_each_head_round_trips_and_evaluates_through_the_table(text, node, fn):
    assert set(HEADS) == {Exp, Sin, Cos}
    # the slice mode calls each head's function as it is, which is the lift
    # on C_i because F(conj a) = conj F(a): equal values, or the same error
    assert HEADS[node].fn is fn
    for a in SLICE_EDGE_POINTS:
        got = _value_or_error(lambda: fn(a.conjugate()))
        want = _value_or_error(lambda: fn(a).conjugate())
        assert got == want, (text, a)
    inner = Add(P, RealConst(0.5))
    tree = node(inner)
    assert parse(f"{text}(p+0.5)") == tree
    assert format_expr(tree) == f"{text}(p+0.5)"
    assert has_nonreal_constant(node(QuatConst(K))) and not has_nonreal_constant(tree)
    rng = random.Random(23)
    for _ in range(200):
        p = random_quat(rng)
        assert repr(evaluate(tree, p)) == repr(_reference_lift(fn, evaluate(inner, p)))


def test_nonreal_constant_flag():
    assert not has_nonreal_constant(parse("sin(p)*cos(p)"))
    assert has_nonreal_constant(parse("j*exp(p)"))
    assert has_nonreal_constant(parse("cos(p*i)"))
    assert has_nonreal_constant(conjugate_expr())
    assert not has_nonreal_constant(parse("2*p - 3"))


def test_conjugate_expr_evaluates_to_conjugate():
    rng = random.Random(15)
    tree = conjugate_expr()
    for _ in range(100):
        p = random_quat(rng, span=4.0)
        got = evaluate(tree, p)
        assert (got - p.conjugate()).norm() <= 1e-13 * max(1.0, p.norm())


# ---------------------------------------------------------------------------
# doubling-form components
# ---------------------------------------------------------------------------


def test_phi_closed_forms_match_evaluation():
    rng = random.Random(16)
    cases = [
        (parse("exp(p)"), _exp_phi_explicit),
        (parse("sin(p)"), _sin_phi_explicit),
        (parse("cos(p)"), _cos_phi_explicit),
    ]
    for _ in range(10_000):
        p = random_quat(rng, span=5.0 / 2.0)
        tree, explicit = cases[rng.randrange(3)]
        closed = explicit(p)
        a, b = phi_components(tree, p.to_cd())
        scale = max(1.0, abs(a), abs(b))
        assert abs(closed.phi1 - a) <= 1e-10 * scale
        assert abs(closed.phi2 - b) <= 1e-10 * scale


def test_phi_closed_forms_near_degenerate_axis():
    # the lift divides by the imaginary magnitude V; tiny V must stay exact
    for tree, fn in ((parse("exp(p)"), cmath.exp), (parse("sin(p)"), cmath.sin), (parse("cos(p)"), cmath.cos)):
        for v in (0.0, 1e-12, 1e-9, 1e-6, 9.9e-5, 1.1e-4):
            p = Quaternion(0.7, 0.0, v, 0.0)
            pair = phi_components(tree, p.to_cd())
            want = fn(complex(0.7, v))
            assert abs(pair.phi1.real - want.real) <= 1e-13
            assert abs(pair.phi2.real - want.imag) <= 1e-13
            assert abs(pair.phi1.imag) <= 1e-15 and abs(pair.phi2.imag) <= 1e-15


def test_phi_reassembly_invariant():
    rng = random.Random(17)
    trees = [parse(t) for t in ("exp(p)", "sin(p)", "cos(p)", "p^3 - 2*p", "sin(p)*cos(p)")]
    for tree in trees:
        for _ in range(200):
            p = random_quat(rng)
            pair = phi_components(tree, p.to_cd())
            v = evaluate(tree, p)
            rebuilt = Quaternion.from_cd(pair.phi1, pair.phi2)
            assert (rebuilt - v).norm() <= 1e-12 * max(1.0, v.norm())


def test_sin_sq_plus_cos_sq_is_one():
    rng = random.Random(18)
    sin_t, cos_t = parse("sin(p)"), parse("cos(p)")
    for _ in range(500):
        p = random_quat(rng)
        s = evaluate(sin_t, p)
        c = evaluate(cos_t, p)
        total = s * s + c * c
        assert (total - Quaternion.from_real(1.0)).norm() <= 1e-9 * max(1.0, total.norm())


def test_product_cd_matches_quaternion_product():
    rng = random.Random(19)
    for _ in range(1000):
        f = random_quat(rng, span=5.0)
        g = random_quat(rng, span=5.0)
        fa, fb = f.to_cd()
        ga, gb = g.to_cd()
        pair = product_cd(ComplexPair(fa, fb), ComplexPair(ga, gb))
        want = f * g
        got = Quaternion.from_cd(pair.phi1, pair.phi2)
        assert (got - want).norm() <= 1e-13 * max(1.0, want.norm())


def test_product_cd_examples():
    g = ComplexPair(complex(0.3, -0.2), complex(1.5, 0.7))
    assert product_cd(ComplexPair(1 + 0j, 0j), g) == g
    # j = (0, 1), k = (0, i); j*k = i = (i, 0)
    got = product_cd(ComplexPair(0j, 1 + 0j), ComplexPair(0j, 1j))
    assert got == ComplexPair(1j, 0j)


def _exp_phi_explicit(p):
    a, b = p.to_cd()
    v = math.sqrt(p.y**2 + p.z**2 + p.u**2)
    ex = math.exp(p.x)
    co, si = math.cos(v), math.sin(v)
    e1 = ex * co + (a - a.conjugate()) * ex * si / (2 * v)
    e2 = ex * si / v * b
    return ComplexPair(e1, e2)


def _sin_phi_explicit(p):
    a, b = p.to_cd()
    v = math.sqrt(p.y**2 + p.z**2 + p.u**2)
    em, ep = math.exp(-v), math.exp(v)
    co, si = math.cos(p.x), math.sin(p.x)
    f1 = (em + ep) * si / 2 - (a - a.conjugate()) * (em - ep) * co / (4 * v)
    f2 = -(em - ep) * co / (2 * v) * b
    return ComplexPair(f1, f2)


def _cos_phi_explicit(p):
    a, b = p.to_cd()
    v = math.sqrt(p.y**2 + p.z**2 + p.u**2)
    em, ep = math.exp(-v), math.exp(v)
    co, si = math.cos(p.x), math.sin(p.x)
    g1 = (em + ep) * co / 2 + (a - a.conjugate()) * (em - ep) * si / (4 * v)
    g2 = (em - ep) * si / (2 * v) * b
    return ComplexPair(g1, g2)


def test_product_of_sin_cos_matches_explicit_closed_forms():
    sin_t, cos_t = parse("sin(p)"), parse("cos(p)")
    pts = [Quaternion(0, math.pi / 4, 0, 0), Quaternion(0.8, 0.5, -1.2, 0.4), Quaternion(-1.1, 1.3, 0.2, 0.9)]
    for p in pts:
        fv = phi_components(sin_t, p.to_cd())
        gv = phi_components(cos_t, p.to_cd())
        got = product_cd(fv, gv)
        f = _sin_phi_explicit(p)
        g = _cos_phi_explicit(p)
        want_re = f.phi1 * g.phi1 - f.phi2 * g.phi2.conjugate()
        want_im = f.phi2 * g.phi1.conjugate() + f.phi1 * g.phi2
        assert abs(got.phi1 - want_re) <= 1e-12 * max(1.0, abs(want_re))
        assert abs(got.phi2 - want_im) <= 1e-12 * max(1.0, abs(want_im))


def test_commutator_residuals():
    rng = random.Random(20)
    sin_t, cos_t = parse("sin(p)"), parse("cos(p)")
    exp_t, poly = parse("exp(p)"), parse("p^2")
    for _ in range(100):
        p = random_quat(rng)
        fv = evaluate(sin_t, p)
        gv = evaluate(cos_t, p)
        scale = 1.0 + fv.norm() * gv.norm()
        assert commutator_residual(sin_t, cos_t, p) <= 1e-9 * scale
        ev = evaluate(exp_t, p)
        pv = evaluate(poly, p)
        assert commutator_residual(exp_t, poly, p) <= 1e-9 * (1.0 + ev.norm() * pv.norm())
    # non-holomorphic constants do not commute: jk - kj = 2i
    assert commutator_residual(QuatConst(J), QuatConst(K), ZERO) == 2.0


@pytest.mark.parametrize(
    "f, g, point",
    [("p^4", "i*p^4", Quaternion(1e50, 0, 1e50, 0)), ("p", "j*p", Quaternion(1e160, 0, 0, 0))],
)
def test_commutator_product_overflow_is_evaluation_overflow(f, g, point):
    # both values are finite (evaluate raises otherwise); their products are not
    for expr in (f, g):
        evaluate(parse(expr), point)
    with pytest.raises(EvaluationOverflowError):
        commutator_residual(parse(f), parse(g), point)


# ---------------------------------------------------------------------------
# exact-arithmetic scan: *, / and ^ against Fraction quaternions
# ---------------------------------------------------------------------------

# the squared norms 1e-580 and 1e580 of the range the scan compares in
_EXACT_LO2, _EXACT_HI2 = Fraction(10) ** -580, Fraction(10) ** 580


class _OutOfRange(Exception):
    """An exact intermediate's norm left [1e-290, 1e290]."""


def _exact_checked(q):
    if not _EXACT_LO2 <= sum(c * c for c in q) <= _EXACT_HI2:
        raise _OutOfRange
    return q


def _exact_mul(p, q):
    x1, y1, z1, u1 = p
    x2, y2, z2, u2 = q
    return (
        x1 * x2 - y1 * y2 - z1 * z2 - u1 * u2,
        x1 * y2 + y1 * x2 + z1 * u2 - u1 * z2,
        x1 * z2 - y1 * u2 + z1 * x2 + u1 * y2,
        x1 * u2 + y1 * z2 - z1 * y2 + u1 * x2,
    )


def _exact_walk(expr, p):
    """The exact value of a tree of *, / and ^ over real and quaternion
    constants at the Fraction quaternion p, with every intermediate's norm in
    range."""
    if isinstance(expr, Var):
        q = p
    elif isinstance(expr, RealConst):
        q = (Fraction(expr.value), Fraction(0), Fraction(0), Fraction(0))
    elif isinstance(expr, QuatConst):
        q = tuple(map(Fraction, (expr.value.x, expr.value.y, expr.value.z, expr.value.u)))
    elif isinstance(expr, Mul):
        q = _exact_mul(_exact_walk(expr.lhs, p), _exact_walk(expr.rhs, p))
    elif isinstance(expr, Div):
        lhs, (x, y, z, u) = _exact_walk(expr.lhs, p), _exact_walk(expr.rhs, p)
        n2 = x * x + y * y + z * z + u * u
        q = _exact_mul(lhs, _exact_checked((x / n2, -y / n2, -z / n2, -u / n2)))
    else:
        base = _exact_walk(expr.base, p)
        q = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
        for _ in range(expr.exponent):
            q = _exact_checked(_exact_mul(q, base))
    return _exact_checked(q)


def _scan_double(rng):
    """A double of either sign, moderate or from 1e-320 to 1e308."""
    decades = rng.uniform(-3.0, 3.0) if rng.random() < 0.5 else rng.uniform(-320.0, 308.0)
    return rng.choice((-1.0, 1.0)) * 10.0**decades


def _scan_tree(rng, depth):
    if depth >= 3 or rng.random() < 0.3:
        leaf = rng.random()
        if leaf < 0.15:
            return QuatConst(Quaternion(*[_scan_double(rng) if rng.random() < 0.7 else 0.0 for _ in range(4)]))
        return P if leaf < 0.55 else RealConst(_scan_double(rng))
    kind = rng.randrange(3)
    if kind == 2:
        return IntPow(_scan_tree(rng, depth + 1), rng.randint(0, 4))
    return (Mul, Div)[kind](_scan_tree(rng, depth + 1), _scan_tree(rng, depth + 1))


def test_products_quotients_and_powers_match_exact_arithmetic():
    """Where every exact intermediate has a norm in [1e-290, 1e290], a tree
    of *, / and ^ over real and quaternion constants evaluates to its exact
    value within 1e-10 relative, in pair mode at quaternion points and, when
    its constants are real, in slice mode at complex points.  The quaternion
    norm is multiplicative, so no cancellation spoils that bound."""
    rng = random.Random(28)
    compared = {"pair": 0, "slice": 0}
    with_quaternion_constant = 0
    extremes = [Fraction(1), Fraction(1)]
    for _ in range(500):
        tree = _scan_tree(rng, 0)
        nonreal = has_nonreal_constant(tree)
        for mode in ("pair", "slice", "pair", "slice"):
            if nonreal and mode == "slice":
                continue
            comps = [_scan_double(rng) if rng.random() < 0.8 else 0.0 for _ in range(4 if mode == "pair" else 2)]
            exact_point = tuple(map(Fraction, comps)) + (Fraction(0),) * (4 - len(comps))
            try:
                want = _exact_walk(tree, exact_point)
            except _OutOfRange:
                continue
            if mode == "pair":
                got = evaluate(tree, Quaternion(*comps))
                got = (got.x, got.y, got.z, got.u)
            else:
                value = evaluate(tree, complex(*comps))
                got = (value.real, value.imag, 0.0, 0.0)
            n2 = sum(c * c for c in want)
            err2 = sum((Fraction(g) - w) ** 2 for g, w in zip(got, want))
            assert err2 <= Fraction(1, 10**20) * n2, (format_expr(tree), mode, comps)
            compared[mode] += 1
            with_quaternion_constant += nonreal
            extremes = [min(extremes[0], n2), max(extremes[1], n2)]
    assert min(compared.values()) >= 200, compared
    assert with_quaternion_constant >= 50, with_quaternion_constant
    # the compared values reach past where |q|^2 leaves the normal range
    assert extremes[0] < Fraction(10) ** -400 and extremes[1] > Fraction(10) ** 400
