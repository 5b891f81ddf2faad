import random

import pytest

from hquat import (
    Add,
    Cos,
    Div,
    Exp,
    I,
    IntPow,
    J,
    K,
    Mul,
    P,
    ParseError,
    QuatConst,
    RealConst,
    Sin,
    Sub,
    format_expr,
    has_nonreal_constant,
    parse,
)
from hquat.functions import BINARY, HEADS, MAX_DEPTH
from hquat.parser import GRAMMAR


def test_grammar_examples():
    assert parse("sin(p)*cos(p)") == Mul(Sin(P), Cos(P))
    assert parse("1 + p + p^2/2 + p^3/6") == Add(
        Add(Add(RealConst(1.0), P), Div(IntPow(P, 2), RealConst(2.0))),
        Div(IntPow(P, 3), RealConst(6.0)),
    )
    tree = parse("j*exp(p)")
    assert tree == Mul(QuatConst(J), Exp(P))
    assert has_nonreal_constant(tree)


def test_precedence_and_associativity():
    assert parse("p-p-p") == Sub(Sub(P, P), P)
    assert parse("p/p/p") == Div(Div(P, P), P)
    assert parse("p+p*p") == Add(P, Mul(P, P))
    assert parse("p*p^2") == Mul(P, IntPow(P, 2))
    # unary minus binds tighter than the power
    assert parse("-p^2") == IntPow(Mul(RealConst(-1.0), P), 2)
    assert parse("-(p^2)") == Mul(RealConst(-1.0), IntPow(P, 2))
    # a minus folds into a numeric literal
    assert parse("-2") == RealConst(-2.0)
    assert parse("--2") == RealConst(2.0)
    assert parse("-2^2") == IntPow(RealConst(-2.0), 2)


def test_grammar_and_parser_follow_the_operator_and_head_tables():
    assert set(BINARY) == {Add, Sub, Mul, Div}
    for node, op in BINARY.items():
        assert f'"{op.text}"' in GRAMMAR
        assert parse(f"p{op.text}p") == node(P, P)
    for head in HEADS.values():
        assert f'"{head.text}"' in GRAMMAR


def test_whitespace_insensitive():
    assert parse(" sin( p ) * cos(p )") == parse("sin(p)*cos(p)")


def test_number_forms():
    assert parse("2") == RealConst(2.0)
    assert parse("2.5") == RealConst(2.5)
    assert parse("1e-3") == RealConst(1e-3)
    assert parse("2.5E+10") == RealConst(2.5e10)


def test_format_examples():
    assert format_expr(parse("sin(p)")) == "sin(p)"
    assert format_expr(Mul(Mul(P, P), P)) == "p*p*p"
    assert format_expr(Mul(P, Mul(P, P))) == "p*(p*p)"
    assert format_expr(Sub(P, Add(P, P))) == "p-(p+p)"
    assert format_expr(IntPow(IntPow(P, 2), 3)) == "(p^2)^3"
    assert format_expr(Mul(RealConst(-1.0), P)) == "-p"
    assert format_expr(Mul(RealConst(-1.0), IntPow(P, 2))) == "-(p^2)"
    assert format_expr(QuatConst(I)) == "i"


def test_format_rejects_general_quaternion_constants():
    from hquat import Quaternion

    with pytest.raises(ValueError):
        format_expr(QuatConst(Quaternion(1, 2, 3, 4)))


def _random_tree(rng, depth):
    if depth >= 5 or rng.random() < 0.3:
        pick = rng.random()
        if pick < 0.4:
            return P
        if pick < 0.6:
            return RealConst(float(rng.randint(0, 9)))
        if pick < 0.85:
            return RealConst(rng.uniform(-100.0, 100.0))
        return QuatConst(rng.choice((I, J, K)))
    kind = rng.randrange(8)
    if kind == 0:
        return Add(_random_tree(rng, depth + 1), _random_tree(rng, depth + 1))
    if kind == 1:
        return Sub(_random_tree(rng, depth + 1), _random_tree(rng, depth + 1))
    if kind == 2:
        return Mul(_random_tree(rng, depth + 1), _random_tree(rng, depth + 1))
    if kind == 3:
        return Div(_random_tree(rng, depth + 1), _random_tree(rng, depth + 1))
    if kind == 4:
        return IntPow(_random_tree(rng, depth + 1), rng.randint(0, 6))
    if kind == 5:
        return Exp(_random_tree(rng, depth + 1))
    if kind == 6:
        return Sin(_random_tree(rng, depth + 1))
    return Cos(_random_tree(rng, depth + 1))


def test_round_trip_on_random_trees():
    rng = random.Random(1234)
    for _ in range(1000):
        tree = _random_tree(rng, 0)
        text = format_expr(tree)
        assert parse(text) == tree, text


def test_round_trip_edge_trees():
    edge = [
        Mul(RealConst(-1.0), P),
        Mul(RealConst(-1.0), Mul(RealConst(-1.0), P)),
        Mul(RealConst(-1.0), RealConst(5.0)),
        IntPow(Mul(RealConst(-1.0), P), 3),
        IntPow(RealConst(-2.0), 2),
        Sub(P, RealConst(-5.0)),
        Mul(P, Mul(RealConst(-1.0), P)),
        Div(RealConst(0.1), Exp(Mul(RealConst(-1.0), P))),
        IntPow(P, 0),
    ]
    for tree in edge:
        assert parse(format_expr(tree)) == tree, format_expr(tree)


def test_format_is_canonical_after_one_pass():
    rng = random.Random(4321)
    for _ in range(300):
        tree = _random_tree(rng, 0)
        text = format_expr(tree)
        assert format_expr(parse(text)) == text


def test_error_positions():
    cases = [
        ("2p", 1),
        ("sin(p", 5),
        ("p^-1", 2),
        ("", 0),
        ("p+", 2),
        ("(p", 2),
        ("p)", 1),
        ("exp p", 4),
        ("q", 0),
        ("p^2.5", 2),
        ("1.5.2", 3),
        ("2 p", 2),
        ("p @ p", 2),
        # the grammar is ASCII: these ended in AttributeError, and "p+١" read as p+1
        ("p²", 1),
        ("é", 0),
        ("ｐ", 0),
        ("p+١", 2),
    ]
    for text, pos in cases:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.position == pos, (text, exc.value.position, str(exc.value))


def test_error_carries_expectation():
    with pytest.raises(ParseError) as exc:
        parse("sin(p")
    assert exc.value.expected == "')'"
    assert "position 5" in str(exc.value)


def test_depth_limit():
    assert parse("(" * 100 + "p" + ")" * 100) == P
    with pytest.raises(ParseError):
        parse("-" * 300 + "p")
    with pytest.raises(ParseError):
        parse("(" * 200 + "p" + ")" * 200)
    # a chain has no recursion to bound; its tree's levels are counted
    assert parse("*".join(["p"] * MAX_DEPTH)) is not None
    with pytest.raises(ParseError, match=f"depth {MAX_DEPTH + 1} "):
        parse("*".join(["p"] * (MAX_DEPTH + 1)))
    with pytest.raises(ParseError):
        parse("-".join(["exp(p)"] * 3000))


def test_rational_and_negative_exponents_rejected():
    for text in ("p^1.5", "p^-2", "p^(2)", "p^p"):
        with pytest.raises(ParseError):
            parse(text)
