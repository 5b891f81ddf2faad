"""Reference oracles, written independently of the hquat package.

Nothing here imports hquat.  The program's outputs are judged against:

* closed-form Maclaurin coefficients (1/k!, the sin, cos and sin*cos rules,
  all ones for 1/(1-p)) and closed-form k-th derivatives, lifted from the
  complex slice to the quaternion through the polar split p = x + V*r;
* the holomorphic / not-holomorphic labels of the check-grid catalog;
* a componentwise quaternion evaluator (16-term Hamilton product, polar lift
  for exp/sin/cos) that carries a running absolute error bound, so that a
  comparison with the program is decided against the rounding the two
  computations can disagree by, not against a guessed tolerance;
* a replica of the documented uniform ball sampler behind ``--grid`` (the
  pseudo-random points are part of the CLI contract: same seed, same points).
"""

from __future__ import annotations

import cmath
import math
import random
import sys
from typing import Callable, NamedTuple

UNIT_ROUNDOFF = 2.0 ** -53

# --- check-grid catalog: expression text -> holomorphic label ---------------

CHECK_CATALOG = {
    "p^3 - 2*p": True,
    "p^8": True,
    "exp(p)": True,
    "sin(p)*cos(p)": True,
    "exp(sin(p))": True,
    "cos(p)/(p^2+9)": True,
    "(p^2+1)/(p^2+4)": True,
    "i*p": False,
    "p*j": False,
    "-0.5*(p + i*p*i + j*p*j + k*p*k)": False,
}

# --- closed forms on the complex slice --------------------------------------


def _coeff_exp(l: int) -> float:
    return 1.0 / math.factorial(l)


def _coeff_sin(l: int) -> float:
    return 0.0 if l % 2 == 0 else (-1.0) ** ((l - 1) // 2) / math.factorial(l)


def _coeff_cos(l: int) -> float:
    return 0.0 if l % 2 == 1 else (-1.0) ** (l // 2) / math.factorial(l)


def _coeff_sin_cos(l: int) -> float:
    # sin(z)cos(z) = sin(2z)/2
    return 0.0 if l % 2 == 0 else (-1.0) ** ((l - 1) // 2) * 2.0 ** (l - 1) / math.factorial(l)


def _coeff_geometric(l: int) -> float:
    return 1.0


class SliceFunction(NamedTuple):
    """A real-coefficient function known in closed form on the complex slice."""

    coeff: Callable[[int], float]  # l-th Maclaurin coefficient
    deriv: Callable[[complex, int], complex]  # k-th complex derivative at z
    max_abs: Callable[[float], float]  # largest |F| on |z| = rho
    radius: float  # radius of convergence


SLICE_FUNCTIONS = {
    "exp(p)": SliceFunction(_coeff_exp, lambda z, k: cmath.exp(z), math.exp, math.inf),
    "sin(p)": SliceFunction(_coeff_sin, lambda z, k: cmath.sin(z + k * math.pi / 2), math.cosh, math.inf),
    "cos(p)": SliceFunction(_coeff_cos, lambda z, k: cmath.cos(z + k * math.pi / 2), math.cosh, math.inf),
    "sin(p)*cos(p)": SliceFunction(
        _coeff_sin_cos,
        lambda z, k: 2.0 ** (k - 1) * cmath.sin(2 * z + k * math.pi / 2),
        lambda r: math.cosh(2 * r) / 2,
        math.inf,
    ),
    "1/(1-p)": SliceFunction(
        _coeff_geometric,
        lambda z, k: math.factorial(k) / (1 - z) ** (k + 1),
        lambda r: 1.0 / abs(1.0 - r) if r != 1.0 else math.inf,
        1.0,
    ),
}


def lift(w: complex, p) -> tuple[float, float, float, float]:
    """Quaternion value whose slice through p carries the complex value w."""
    x, y, z, u = p
    v = math.sqrt(y * y + z * z + u * u)
    if v == 0.0:
        return (w.real, 0.0, 0.0, 0.0)
    s = w.imag / v
    return (w.real, y * s, z * s, u * s)


def derivative_reference(name: str, k: int, p) -> tuple[float, float, float, float]:
    """k-th full quaternionic derivative of a catalog function at p."""
    x, y, z, u = p
    v = math.sqrt(y * y + z * z + u * u)
    return lift(SLICE_FUNCTIONS[name].deriv(complex(x, v), k), p)


def coefficient_tolerance(name: str, k: int, rho: float, samples: int) -> float:
    """Allowed error of the k-th circle-sampling coefficient.

    Rounding: an N-point discrete Fourier sum of values of magnitude <= M
    carries an error of order sqrt(N)*u*M, rescaled by rho**-k (8x margin).
    Aliasing: the estimate is sum_j c_{k+jN} rho**(jN), bounded here by the
    closed-form coefficients of the first few aliases.
    """
    fn = SLICE_FUNCTIONS[name]
    rounding = 8.0 * math.sqrt(samples) * UNIT_ROUNDOFF * fn.max_abs(rho) / rho**k
    alias = 0.0
    for j in range(1, 8):
        l = k + j * samples
        c = fn.coeff(l) if fn.radius < math.inf or l <= 170 else 0.0
        alias += abs(c) * rho ** (j * samples)
    return 1e-14 + rounding + 2.0 * alias


# --- the ball sampler behind --grid -----------------------------------------


def ball_points(seed: int, count: int, radius: float):
    """The CLI's uniform 4-ball rejection sampler, for ``commute --grid``."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        while True:
            x = rng.uniform(-radius, radius)
            y = rng.uniform(-radius, radius)
            z = rng.uniform(-radius, radius)
            u = rng.uniform(-radius, radius)
            if x * x + y * y + z * z + u * u <= radius * radius:
                points.append((x, y, z, u))
                break
    return points


# --- componentwise evaluator with a running error bound ---------------------


class Undecidable(Exception):
    """The reference cannot tell whether the program must succeed or fail."""


class EvaluationError(Exception):
    """The expression has no finite value at the point (pole or overflow)."""


def qmul(a, b):
    """Hamilton product, all 16 component terms."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def qnorm(a) -> float:
    return math.hypot(*a)


_HUGE = 1e300


def _finite(q):
    if not all(math.isfinite(c) for c in q):
        raise EvaluationError("non-finite value")
    if max(abs(c) for c in q) > _HUGE:
        raise Undecidable("value within rounding of the double range")
    return q


_UNITS = {"i": (0.0, 1.0, 0.0, 0.0), "j": (0.0, 0.0, 1.0, 0.0), "k": (0.0, 0.0, 0.0, 1.0)}
_HEADS = {"exp": cmath.exp, "sin": cmath.sin, "cos": cmath.cos}


# Beyond this magnitude |q|^2 overflows a double, and with it hquat's
# Quaternion.norm_sq: norm() is inf and inverse() returns zero.
SQUARE_OVERFLOW_NORM = math.sqrt(sys.float_info.max)


def ref_eval(tree, p):
    """Value, absolute error bound and largest divisor magnitude of a
    benchmark tree at the point p.

    Raises EvaluationError when the value is certainly not finite (a zero
    denominator or an overflow) and Undecidable when a denominator or an
    overflow threshold lies within the error bound.
    """
    divisors = [0.0]
    try:
        value, bound = _ref(tree, p, UNIT_ROUNDOFF, divisors)
    except OverflowError as exc:
        raise EvaluationError(str(exc)) from exc
    return value, bound, max(divisors)


def _ref(t, p, u, divisors):
    kind = t[0]
    if kind == "p":
        return p, 0.0
    if kind == "c":
        return (float(t[1]), 0.0, 0.0, 0.0), 0.0
    if kind == "unit":
        return _UNITS[t[1]], 0.0
    if kind == "neg":
        a, e = _ref(t[1], p, u, divisors)
        return tuple(-c for c in a), e
    if kind in ("+", "-"):
        a, ea = _ref(t[1], p, u, divisors)
        b, eb = _ref(t[2], p, u, divisors)
        q = tuple(x + y for x, y in zip(a, b)) if kind == "+" else tuple(x - y for x, y in zip(a, b))
        return _finite(q), ea + eb + 2 * u * (qnorm(a) + qnorm(b))
    if kind == "*":
        a, ea = _ref(t[1], p, u, divisors)
        b, eb = _ref(t[2], p, u, divisors)
        return _mul(a, ea, b, eb, u)
    if kind == "/":
        a, ea = _ref(t[1], p, u, divisors)
        b, eb = _ref(t[2], p, u, divisors)
        divisors.append(qnorm(b))
        inv, einv = _inverse(b, eb, u)
        return _mul(a, ea, inv, einv, u)
    if kind == "^":
        b, eb = _ref(t[1], p, u, divisors)
        acc, eacc = (1.0, 0.0, 0.0, 0.0), 0.0
        for _ in range(t[2]):
            acc, eacc = _mul(acc, eacc, b, eb, u)
        return acc, eacc
    if kind in _HEADS:
        a, ea = _ref(t[1], p, u, divisors)
        x, y, z, w = a
        v = math.sqrt(y * y + z * z + w * w)
        if qnorm(a) + ea > 700.0:
            raise Undecidable("argument near the overflow range of exp/sin/cos")
        val = _HEADS[kind](complex(x, v))
        out = _finite(lift(val, a))
        # |f'| <= e^|q| for exp, sin and cos; the argument carries its own
        # bound plus the rounding of V.
        lip = math.exp(qnorm(a) + ea)
        return out, lip * (ea + 4 * u * qnorm(a)) + 8 * u * qnorm(out)
    raise ValueError(f"unknown node {kind!r}")


def _mul(a, ea, b, eb, u):
    na, nb = qnorm(a), qnorm(b)
    q = _finite(qmul(a, b))
    return q, na * eb + nb * ea + ea * eb + 8 * u * na * nb


def _inverse(b, eb, u):
    nb = qnorm(b)
    if nb == 0.0 and eb == 0.0:
        raise EvaluationError("division by zero")
    if nb <= 2.0 * eb or nb <= 1e-140:
        # hquat rejects |q|^2 <= 1e-300 * max(1, |components|)
        raise Undecidable("denominator within its error bound of zero")
    s = max(abs(c) for c in b)
    scaled = tuple(c / s for c in b)
    n2 = sum(c * c for c in scaled)
    inv = _finite((scaled[0] / n2 / s, -scaled[1] / n2 / s, -scaled[2] / n2 / s, -scaled[3] / n2 / s))
    return inv, 2.0 * eb / (nb * nb) + 4 * u / nb
