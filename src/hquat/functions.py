"""Quaternionic function trees and their pointwise evaluation.

Functions are expression trees over one quaternionic variable ``p`` built
from real constants, +, -, *, /, non-negative integer powers and the
transcendental heads exp, sin, cos.  Quaternion-valued constants (i, j, k)
are admitted only so that non-holomorphic counterexamples can be expressed;
:func:`has_nonreal_constant` flags such trees.

Transcendental heads are evaluated through the split q = x + V*r of
their argument (V = sqrt(y^2+z^2+u^2), r a purely imaginary unit quaternion
with r^2 = -1): f(x + V*r) is the complex value f(x + V*i) with i replaced
by r.  In particular exp(p) = e^x * (cos V + r sin V), and sin/cos follow
from the exponential the same way as over the complex numbers.

There is one evaluator.  One walk compiles a tree, once per mode, into
nested closures: each binary node applies its mode's operation from
:data:`BINARY`, the table that also gives the parser and the formatter each
operator's text and precedence, and each head applies its complex function
as its mode binds it from :data:`HEADS`.

* ``pair`` works on raw doubling pairs (a, b) of complex numbers, the value
  a + b*j, and each head lifts its argument as above.
* ``slice`` works on one complex number a, the point a + 0*j of the slice
  C_i.  A tree with only real constants maps C_i into itself, its second
  doubling component zero at every node, so there it is its own
  C-representation.  Division multiplies by the inverse by
  :func:`hquat.quaternion.cd_inverse`'s formula, not Python's complex
  division.  Each head calls its complex function F on a itself: F has
  real coefficients, so F(conj a) = conj F(a), and the lift at (a, 0), F at
  x + i|Im a| with the sign of Im a put back, is F(a).  At a finite a each
  value equals the pair mode's first component at (a, 0) under ``==``; only
  the sign of a zero may differ, and no error text prints one, so each
  error is the pair mode's.  A tree that :func:`has_nonreal_constant` flags has no slice
  function: :func:`evaluate` refuses it (ValueError) before compiling.

:func:`phi_components` is the pair mode's one runner and :func:`evaluate`
the slice mode's.  The compiled functions are cached on the root node
object as the attributes ``_compiled`` (pair) and ``_compiled_slice``, not
by value, since the frozen-dataclass hash walks the whole tree; they are
not dataclass fields, so ``==``, ``hash`` and ``repr`` ignore them, and
:meth:`FuncExpr.__getstate__` leaves them out of pickles and copies.  Every
node checks its value for finiteness (every product of an integer power,
too) and raises EvaluationOverflowError on inf or nan, naming only the
non-finite components x, y, z, u; a check on the final value alone would
miss an overflow that a later node hides, e.g. exp(-inf) = 0.  Both modes
share one node shape, ``v if ok(v := op(...)) else finite(v)``: the mode's
predicate ``ok`` (``cmath.isfinite`` in the slice) is called inline, and
only a value it rejects reaches the mode's check ``finite``, which raises.
A head's own range error (``cmath``'s OverflowError) is re-raised by the
mode's runner as EvaluationOverflowError naming the point as a Quaternion,
(a, 0) in the slice mode, so both modes give one text.  Apart from that
point, the only :class:`~hquat.quaternion.Quaternion` an evaluation builds
is the result of :func:`evaluate` at a quaternion point, made by
:meth:`~hquat.quaternion.Quaternion.from_cd` from the final pair;
:func:`evaluate` at a doubling pair returns the :class:`ComplexPair` that
:func:`phi_components` returns, and at a complex number the complex value,
so neither builds one.

Each node records its tree's depth in levels once, when it is built, as
``_depth``, also no dataclass field.  Each whole-tree walk (compiling,
:func:`has_nonreal_constant`, :func:`hquat.parser.format_expr`) starts with
:func:`check_depth`, which rejects a root deeper than :data:`MAX_DEPTH`
levels with ValueError, so the recursion below it stays bounded however the
tree was made; :func:`hquat.parser.parse` reads the same depth.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .quaternion import _TINY, I, J, K, Pair, Quaternion, cd_inverse, cd_mul

__all__ = [
    "Add",
    "ComplexPair",
    "Cos",
    "Div",
    "EvaluationOverflowError",
    "Exp",
    "FuncExpr",
    "IntPow",
    "Mul",
    "P",
    "QuatConst",
    "RealConst",
    "Sin",
    "Sub",
    "Var",
    "commutator_residual",
    "conjugate_expr",
    "evaluate",
    "has_nonreal_constant",
    "phi_components",
    "product_cd",
]


class EvaluationOverflowError(ArithmeticError):
    """An intermediate value exceeded the double-precision range."""


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------


class FuncExpr:
    """Base class for nodes of a quaternionic function expression."""

    __slots__ = ()
    # levels of the tree rooted here, set by __post_init__ when a node is
    # built; RealConst, whose own hook does not chain to it, keeps this 1
    _depth = 1

    def __post_init__(self) -> None:
        depths = [c._depth for c in vars(self).values() if isinstance(c, FuncExpr)]
        object.__setattr__(self, "_depth", 1 + max(depths, default=0))

    def __getstate__(self) -> dict:
        # the compiled functions are a cache of this object; closures do not
        # pickle.  _depth stays: unpickling does not run __post_init__
        state = dict(vars(self))
        state.pop("_compiled", None)
        state.pop("_compiled_slice", None)
        return state


@dataclass(frozen=True)
class Var(FuncExpr):
    """The independent quaternionic variable p."""


@dataclass(frozen=True)
class RealConst(FuncExpr):
    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if not math.isfinite(v):
            raise ValueError(f"non-finite real constant {self.value!r}")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class QuatConst(FuncExpr):
    """Quaternion constant; non-real values break holomorphy by design."""

    value: Quaternion


@dataclass(frozen=True)
class Add(FuncExpr):
    lhs: FuncExpr
    rhs: FuncExpr


@dataclass(frozen=True)
class Sub(FuncExpr):
    lhs: FuncExpr
    rhs: FuncExpr


@dataclass(frozen=True)
class Mul(FuncExpr):
    lhs: FuncExpr
    rhs: FuncExpr


@dataclass(frozen=True)
class Div(FuncExpr):
    """Right division lhs * rhs**-1."""

    lhs: FuncExpr
    rhs: FuncExpr


# Largest integer power exponent: an evaluation multiplies that many times.
MAX_EXPONENT = 1024
# Deepest tree, in levels (a lone leaf has one), that a recursive walk accepts.
MAX_DEPTH = 256


def check_depth(expr: FuncExpr) -> FuncExpr:
    """expr itself; ValueError when its tree is deeper than MAX_DEPTH levels."""
    if expr._depth > MAX_DEPTH:
        raise ValueError(f"tree depth exceeds {MAX_DEPTH} levels")
    return expr


@dataclass(frozen=True)
class IntPow(FuncExpr):
    base: FuncExpr
    exponent: int

    def __post_init__(self) -> None:
        if not isinstance(self.exponent, int) or not 0 <= self.exponent <= MAX_EXPONENT:
            raise ValueError(f"integer power exponent must be in [0, {MAX_EXPONENT}], got {self.exponent!r}")
        super().__post_init__()


@dataclass(frozen=True)
class Exp(FuncExpr):
    arg: FuncExpr


@dataclass(frozen=True)
class Sin(FuncExpr):
    arg: FuncExpr


@dataclass(frozen=True)
class Cos(FuncExpr):
    arg: FuncExpr


P = Var()


# The one table of heads, by node class: the text and the complex function, which
# the pair mode lifts through _lift and the slice mode calls as it is.  A tuple
# field holds the function, so it never binds as a method.
Head = NamedTuple("Head", [("text", str), ("fn", Callable[[complex], complex])])
HEADS: dict[type[FuncExpr], Head] = {
    Exp: Head("exp", cmath.exp),
    Sin: Head("sin", cmath.sin),
    Cos: Head("cos", cmath.cos),
}


def _slice_inverse(a: complex) -> complex:
    """1/a on the slice: the first component of cd_inverse((a, 0)), bit for
    bit, whose scaling branch and ZeroDivisorError it takes outside the
    normal range of |a|**2."""
    x, y = a.real, a.imag
    n2 = x * x + y * y
    if _TINY <= n2 < math.inf:
        return complex(x / n2, -y / n2)
    return cd_inverse((a, 0j))[0]


# The one table of binary operators, by node class: the text, the precedence
# level (+,- bind looser than *,/) and the operation of each compile mode, on
# two doubling pairs and on two complex numbers of the slice.
Binary = NamedTuple("Binary", [("text", str), ("level", int), ("pair", Callable), ("slice", Callable)])
BINARY: dict[type[FuncExpr], Binary] = {
    Add: Binary("+", 1, lambda x, y: (x[0] + y[0], x[1] + y[1]), operator.add),
    Sub: Binary("-", 1, lambda x, y: (x[0] - y[0], x[1] - y[1]), operator.sub),
    Mul: Binary("*", 2, cd_mul, operator.mul),
    Div: Binary("/", 2, lambda x, y: cd_mul(x, cd_inverse(y)), lambda x, y: x * _slice_inverse(y)),
}


def has_nonreal_constant(expr: FuncExpr) -> bool:
    """True when the tree contains a quaternion constant with i/j/k parts."""
    return _nonreal(check_depth(expr))


def _nonreal(expr: FuncExpr) -> bool:
    if isinstance(expr, QuatConst):
        q = expr.value
        return q.y != 0.0 or q.z != 0.0 or q.u != 0.0
    return any(_nonreal(c) for c in vars(expr).values() if isinstance(c, FuncExpr))


def conjugate_expr() -> FuncExpr:
    """Tree evaluating to conj(p), via conj(p) = -(p + ipi + jpj + kpk)/2.

    Contains quaternion constants, so it is flagged non-real; it is the
    canonical expression expected to fail the holomorphy check.
    """
    half = RealConst(-0.5)
    terms: FuncExpr = P
    for unit in (I, J, K):
        c = QuatConst(unit)
        terms = Add(terms, Mul(Mul(c, P), c))
    return Mul(half, terms)


# ---------------------------------------------------------------------------
# Scalar extension
# ---------------------------------------------------------------------------


def _lift(fn, q: Pair) -> Pair:
    """Apply a complex elementary function along the imaginary axis of q."""
    a, b = q
    y, z, u = a.imag, b.real, b.imag
    v2 = y * y + z * z + u * u
    # hypot where the squares leave the normal range, overflowing (|Im q|
    # above about 1.34e154) or underflowing (below about 1.5e-154)
    v = math.sqrt(v2) if _TINY <= v2 < math.inf else math.hypot(y, z, u)
    if v == math.inf:
        # finite components whose magnitude overflows; cmath would raise
        # ValueError or return inf/nan here
        raise EvaluationOverflowError(f"imaginary magnitude of {q!r} overflows")
    w = fn(complex(a.real, v))
    if v == 0.0:
        return complex(w.real, 0.0), 0j
    s = w.imag
    return complex(w.real, (y / v) * s), complex((z / v) * s, (u / v) * s)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(expr: FuncExpr, p: Quaternion | Pair | complex) -> Quaternion | ComplexPair | complex:
    """Evaluate the function tree at p, a quaternion, a doubling pair (a, b)
    or a complex number a, and return the value in the same form.

    A pair or a quaternion runs the pair mode through :func:`phi_components`:
    at a pair its :class:`ComplexPair` is returned with no Quaternion built,
    and at a quaternion point the result is one validated Quaternion, so the
    two forms agree bit for bit.  A complex number a is the point a + 0*j of
    the slice C_i and runs the slice mode, whose value at a finite a equals
    the first component of the value at (a, 0) under ``==``.  Its errors are
    the pair mode's at (a, 0) by construction, as no node's error text shows
    the sign of a zero and a range error names the point (a, 0); a tree
    that :func:`has_nonreal_constant` flags is refused before it is
    compiled.

    Raises ZeroDivisorError for division by a numerically zero value,
    EvaluationOverflowError when intermediates leave the double range, and
    ValueError for a tree deeper than MAX_DEPTH levels, a non-finite point
    (named as a Quaternion's) or a non-real constant at a complex point.
    """
    if isinstance(p, complex):
        cmath.isfinite(p) or Quaternion.from_cd(p, 0j)  # the constructor raises, naming the component
        try:
            fn = expr._compiled_slice
        except AttributeError:
            if has_nonreal_constant(expr):
                raise ValueError("a tree with a non-real constant has no slice function") from None
            fn = _compile(expr, "slice")
            object.__setattr__(expr, "_compiled_slice", fn)
        try:
            return fn(p)
        except OverflowError as exc:  # a head's cmath range error, named as the pair mode names it
            raise EvaluationOverflowError(f"{exc} at {Quaternion.from_cd(p, 0j)!r}") from exc
    if not isinstance(p, Quaternion):
        _pair_ok(p) or Quaternion.from_cd(*p)  # the constructor raises, naming the component
        return phi_components(expr, p)
    return Quaternion.from_cd(*phi_components(expr, p.to_cd()))


def _overflow(*components: float) -> EvaluationOverflowError:
    """The per-node overflow error, naming only the non-finite components
    x, y, z, u of the value, so both modes give the same text."""
    bad = ", ".join(f"{name}={v!r}" for name, v in zip("xyzu", components) if not math.isfinite(v))
    return EvaluationOverflowError(f"non-finite intermediate value {bad}")


def _pair_ok(q: Pair) -> bool:
    """Whether both components of q are finite; the pair mode's predicate."""
    a, b = q
    return cmath.isfinite(a) and cmath.isfinite(b)


def _finite(q: Pair) -> Pair:
    """q itself when both components are finite; the per-node overflow check."""
    if _pair_ok(q):
        return q
    a, b = q
    raise _overflow(a.real, a.imag, b.real, b.imag)


def _slice_finite(a: complex) -> complex:
    """The slice mode's per-node overflow check, which a node calls only on a
    value that cmath.isfinite rejected: it raises."""
    raise _overflow(a.real, a.imag)


# Each compile mode's constant (from its doubling pair), head binding (a head's
# complex function to its node's operation), finiteness predicate, which every
# node calls inline, and node check, which raises where the predicate fails.
Mode = NamedTuple("Mode", [("constant", Callable), ("bind", Callable), ("ok", Callable), ("finite", Callable)])
MODES: dict[str, Mode] = {
    "pair": Mode(lambda a, b: (a, b), lambda fn: functools.partial(_lift, fn), _pair_ok, _finite),
    "slice": Mode(lambda a, b: a, lambda fn: fn, cmath.isfinite, _slice_finite),
}


def _compile(expr: FuncExpr, mode: str) -> Callable:
    """The function p -> value of expr at p in the mode ("pair" or "slice"),
    as closures over the children compiled in that mode; they evaluate lhs
    before rhs and check every node's value."""
    constant, bind, ok, finite = MODES[mode]
    if isinstance(expr, Var):
        return lambda p: p
    if isinstance(expr, (RealConst, QuatConst)):
        a, b = expr.value.to_cd() if isinstance(expr, QuatConst) else (complex(expr.value, 0.0), 0j)
        value = constant(a, b)
        return lambda p: value
    op = BINARY.get(type(expr))
    if op is not None:
        lhs, rhs, fn = _compile(expr.lhs, mode), _compile(expr.rhs, mode), getattr(op, mode)
        return lambda p: v if ok(v := fn(lhs(p), rhs(p))) else finite(v)
    if isinstance(expr, IntPow):
        base, exponent = _compile(expr.base, mode), expr.exponent
        mul, one = getattr(BINARY[Mul], mode), constant(1 + 0j, 0j)

        def power(p):
            b = base(p)
            out = one
            for _ in range(exponent):
                out = v if ok(v := mul(out, b)) else finite(v)
            return out

        return power
    head = HEADS.get(type(expr))
    if head is not None:
        arg, fn = _compile(expr.arg, mode), bind(head.fn)
        return lambda p: v if ok(v := fn(arg(p))) else finite(v)
    raise TypeError(f"unknown expression node {expr!r}")


# ---------------------------------------------------------------------------
# Doubling-form components
# ---------------------------------------------------------------------------


class ComplexPair(NamedTuple):
    """Doubling components of a function value: value = phi1 + phi2*j."""

    phi1: complex
    phi2: complex


def phi_components(expr: FuncExpr, p: Pair) -> ComplexPair:
    """Doubling components of the function value at the doubling pair p, by
    the tree's pair-mode function, which the first call compiles and caches
    on the root; an OverflowError raised inside it becomes an
    EvaluationOverflowError.  This is the pair mode's one runner."""
    try:
        fn = expr._compiled
    except AttributeError:
        fn = _compile(check_depth(expr), "pair")
        object.__setattr__(expr, "_compiled", fn)
    try:
        return tuple.__new__(ComplexPair, fn(p))
    except OverflowError as exc:  # a head's cmath range error, with the point named
        raise EvaluationOverflowError(f"{exc} at {Quaternion.from_cd(*p)!r}") from exc


def product_cd(fval: ComplexPair, gval: ComplexPair) -> ComplexPair:
    """Doubling-form product phi(f) * phi(g); see :func:`hquat.quaternion.cd_mul`."""
    return ComplexPair(*cd_mul(fval, gval))


def commutator_norm(fv: Quaternion, gv: Quaternion) -> float:
    """|fv*gv - gv*fv| on doubling pairs; EvaluationOverflowError when a
    product or their difference leaves the double range."""
    f, g = fv.to_cd(), gv.to_cd()
    (a1, b1), (a2, b2) = _finite(cd_mul(f, g)), _finite(cd_mul(g, f))
    return Quaternion.from_cd(*_finite((a1 - a2, b1 - b2))).norm()


def commutator_residual(f: FuncExpr, g: FuncExpr, p: Quaternion) -> float:
    """|f(p)g(p) - g(p)f(p)|; vanishes for holomorphic pairs."""
    return commutator_norm(evaluate(f, p), evaluate(g, p))
