"""Numerical Wirtinger partials and quaternionic holomorphy checks.

The doubling components phi1, phi2 are treated as functions of the four real
coordinates (x, y, z, u).  With a = x + y*i and b = z + u*i, the partial
derivatives with respect to a, conj(a), b, conj(b) are the standard Wirtinger
combinations of coordinate derivatives,

    d/da       = (d/dx - i d/dy)/2        d/d(conj a) = (d/dx + i d/dy)/2
    d/db       = (d/dz - i d/du)/2        d/d(conj b) = (d/dz + i d/du)/2

with each coordinate derivative taken as a central difference on
:func:`hquat.functions.phi_components`.  Partials of conjugated component
functions are never differenced separately; they follow exactly from
d/d(conj s) conj(F) = conj(d/ds F).

A function is holomorphic in the sense checked here when its components
satisfy the generalized Cauchy-Riemann system evaluated on the y = 0 slice
(where a = conj(a) = x); the derivative stencil still perturbs y, only the
evaluation point lies on the slice.  Four auxiliary identities hold at
arbitrary points without that restriction and are reported separately.

The full quaternionic derivative (the one uniting the left and right
derivatives) has components phi1' = da(phi1) + dabar(phi1) and likewise for
phi2.  Since d/da + d/d(conj a) = d/dx for any function, psi' = d(psi)/dx,
and every derivative is taken along x without forming the partials.

Partials and derivatives share one central difference: :func:`_step` gives
h = step**(1/k) * max(1, |p|), :func:`_stepped` the points p +- e*h (hi is
evaluated first), and :func:`_quotient` (hi - lo)/(2h) on doubling pairs.
:func:`partials` steps along 1, i, j, k; :func:`full_derivative` is one step
along x, and :func:`kth_derivative` picks its route from the input alone
("exact" at k = 0, "series" at the origin, "stencil", k nested x-differences,
elsewhere).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace

from .functions import EvaluationOverflowError, FuncExpr, evaluate, phi_components
from .quaternion import I, J, K, ONE, ZERO, Pair, Quaternion
from .series import maclaurin_extraction


class InvalidPointError(ValueError):
    """The main system must be evaluated at a point with y = 0."""


@dataclass(frozen=True)
class PartialsTable:
    """Wirtinger partials of phi1 and phi2 at one point."""

    dphi1_da: complex
    dphi1_dabar: complex
    dphi1_db: complex
    dphi1_dbbar: complex
    dphi2_da: complex
    dphi2_dabar: complex
    dphi2_db: complex
    dphi2_dbbar: complex
    step: float
    point: Quaternion


# Relative step of every central difference, and the largest holomorphy
# residual that passes.
DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-6

_MAX_STENCIL_ORDER = 4


def _step(step: float, p: Quaternion, k: int = 1) -> float:
    """Per-level step h = step**(1/k) * max(1, |p|) of k nested differences;
    k = 0 (no stencil) only validates ``step``.  EvaluationOverflowError when
    the width 2h leaves the double range."""
    # h >= step*max(1, |p|) >= eps*|c| for every component c, so c +- h != c
    if not sys.float_info.epsilon <= step < math.inf:
        raise ValueError("step must be finite and at least machine epsilon (2.2e-16)")
    if k == 0:
        return 0.0
    if k > _MAX_STENCIL_ORDER:
        raise ValueError(f"stencil route supports k <= {_MAX_STENCIL_ORDER}, got {k}")
    h = step ** (1.0 / k) * max(1.0, p.norm())
    if not 2.0 * h < math.inf:  # a width of inf would turn every quotient into 0
        raise EvaluationOverflowError(f"difference stencil overflows: width 2h is infinite at h = {h!r}")
    return h


def _stepped(p: Quaternion, e: Quaternion, h: float) -> tuple[Quaternion, Quaternion]:
    """The stepped points p + e*h and p - e*h, each sum formed once;
    EvaluationOverflowError where a component leaves the double range."""
    try:
        hi = Quaternion(p.x + e.x * h, p.y + e.y * h, p.z + e.z * h, p.u + e.u * h)
        return hi, Quaternion(p.x - e.x * h, p.y - e.y * h, p.z - e.z * h, p.u - e.u * h)
    except ValueError as exc:
        raise EvaluationOverflowError(f"difference stencil overflows: {exc}") from exc


def _quotient(hi: Pair, lo: Pair, h: float) -> Pair:
    """(hi - lo)/(2h) on doubling pairs, hi/(2h) - lo/(2h) where a plain
    difference overflows; EvaluationOverflowError for a non-finite quotient."""
    w = 2.0 * h
    (a1, b1), (a2, b2) = hi, lo
    da, db = a1 - a2, b1 - b2
    qa = da / w if cmath.isfinite(da) else a1 / w - a2 / w
    qb = db / w if cmath.isfinite(db) else b1 / w - b2 / w
    if not (cmath.isfinite(qa) and cmath.isfinite(qb)):
        raise EvaluationOverflowError(f"difference stencil overflows: quotient with 2h = {w!r}")
    return qa, qb


def partials(f: FuncExpr, p: Quaternion, step: float = DEFAULT_STEP) -> PartialsTable:
    """Central-difference Wirtinger partials with step scaled by max(1, |p|);
    EvaluationOverflowError when the stencil or a partial overflows."""
    h = _step(step, p)
    d = []
    for e in (ONE, I, J, K):
        hi, lo = _stepped(p, e, h)
        d.append(_quotient(phi_components(f, hi), phi_components(f, lo), h))
    (dx1, dx2), (dy1, dy2), (dz1, dz2), (du1, du2) = d
    # in PartialsTable's field order: da, dabar, db, dbbar of phi1, then of phi2
    values = (
        (dx1 - 1j * dy1) / 2.0,
        (dx1 + 1j * dy1) / 2.0,
        (dz1 - 1j * du1) / 2.0,
        (dz1 + 1j * du1) / 2.0,
        (dx2 - 1j * dy2) / 2.0,
        (dx2 + 1j * dy2) / 2.0,
        (dz2 - 1j * du2) / 2.0,
        (dz2 + 1j * du2) / 2.0,
    )
    # a sum of two finite quotients that overflows leaves a non-finite partial
    if not all(map(cmath.isfinite, values)):
        raise EvaluationOverflowError(f"difference stencil overflows at {p!r}")
    return PartialsTable(*values, step=h, point=p)


@dataclass(frozen=True)
class HolomorphyReport:
    """Residuals of the main (y = 0) system and the auxiliary identities.

    main_residuals, in order:
      1. |da(phi1) - dbbar(conj phi2)|      (left derivative)
      2. |da(phi2) + dbbar(conj phi1)|      (left derivative)
      3. |da(phi1) - db(phi2)|              (right derivative)
      4. |dabar(phi2) + dbbar(phi1)|        (right derivative)

    aux_residuals, evaluated at aux_point without the y = 0 restriction:
      a. |db(phi2) - dbbar(conj phi2)|
      b. |da(phi2) + dbbar(phi1)|
      c. |dabar(phi1) - da(conj phi1)|
      d. |dabar(phi2) + dbbar(conj phi1)|

    Residuals 1 and 3 both constrain da(phi1) and are reported separately:
    they encode agreement of the left and the right derivative.
    """

    point: Quaternion
    aux_point: Quaternion
    main_residuals: tuple[float, float, float, float]
    aux_residuals: tuple[float, float, float, float]
    tolerance: float

    @property
    def main_verdicts(self) -> tuple[bool, ...]:
        return tuple(r <= self.tolerance for r in self.main_residuals)

    @property
    def aux_verdicts(self) -> tuple[bool, ...]:
        return tuple(r <= self.tolerance for r in self.aux_residuals)

    @property
    def passed(self) -> bool:
        return all(self.main_verdicts) and all(self.aux_verdicts)


def _main_residuals(t: PartialsTable) -> tuple[float, float, float, float]:
    return (
        abs(t.dphi1_da - t.dphi2_db.conjugate()),
        abs(t.dphi2_da + t.dphi1_db.conjugate()),
        abs(t.dphi1_da - t.dphi2_db),
        abs(t.dphi2_dabar + t.dphi1_dbbar),
    )


def _aux_residuals(t: PartialsTable) -> tuple[float, float, float, float]:
    return (
        abs(t.dphi2_db - t.dphi2_db.conjugate()),
        abs(t.dphi2_da + t.dphi1_dbbar),
        abs(t.dphi1_dabar - t.dphi1_dabar.conjugate()),
        abs(t.dphi2_dabar + t.dphi1_db.conjugate()),
    )


def check_holomorphy(
    f: FuncExpr,
    point: Quaternion,
    tol: float = DEFAULT_TOL,
    step: float = DEFAULT_STEP,
    aux_point: Quaternion | None = None,
) -> HolomorphyReport:
    """Evaluate the holomorphy residuals of f.

    ``point`` must lie on the y = 0 slice (exactly); ``aux_point`` may be any
    quaternion and defaults to ``point`` with y replaced by 0.5.
    EvaluationOverflowError when a partial or a residual leaves the double
    range.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    if point.y != 0.0:
        raise InvalidPointError(f"main system requires y = 0, got y = {point.y!r}")
    if aux_point is None:
        aux_point = replace(point, y=0.5)
    t_main = partials(f, point, step)
    t_aux = partials(f, aux_point, step)
    try:
        main, aux = _main_residuals(t_main), _aux_residuals(t_aux)
    except OverflowError as exc:  # abs() of a finite complex past the double range
        raise EvaluationOverflowError(f"holomorphy residual overflows: {exc}") from exc
    return HolomorphyReport(
        point=point,
        aux_point=aux_point,
        main_residuals=main,
        aux_residuals=aux,
        tolerance=tol,
    )


def _nested_dx(f: FuncExpr, p: Quaternion, k: int, h: float) -> Pair:
    """k nested x-differences of f at p as a doubling pair (2^k evaluations)."""
    if k == 0:
        return evaluate(f, p).to_cd()
    hi, lo = _stepped(p, ONE, h)
    return _quotient(_nested_dx(f, hi, k - 1, h), _nested_dx(f, lo, k - 1, h), h)


def full_derivative(f: FuncExpr, p: Quaternion, step: float = DEFAULT_STEP) -> Quaternion:
    """Full quaternionic derivative d(psi)/dx: one central difference along x
    with step ``step * max(1, |p|)``, at every point including the origin."""
    return Quaternion.from_cd(*_nested_dx(f, p, 1, _step(step, p)))


@dataclass(frozen=True)
class DerivativeResult:
    """k-th derivative with the method used and an accuracy estimate."""

    value: Quaternion
    order: int
    method: str  # "exact", "stencil" or "series"
    step: float | None
    truncation_estimate: float
    accuracy_warning: bool


_ACCURACY_FLAG_THRESHOLD = 1e-4


def kth_derivative(f: FuncExpr, p: Quaternion, k: int, step: float = DEFAULT_STEP) -> DerivativeResult:
    """k-th full quaternionic derivative d^k(psi)/dx^k of f at p.

    The route follows from the input: "exact" evaluation at k = 0; "series",
    k! times the k-th Maclaurin coefficient, at p = 0 (any k); "stencil",
    k nested central differences along x with per-level step
    ``step**(1/k) * max(1, |p|)`` (2^k evaluations, k <= 4), elsewhere.  The
    stencil route's truncation estimate is the leading error term k*h^2/6
    scaled by the result magnitude.  The series route's is k! times the
    coefficient's noise floor (:class:`hquat.series.MaclaurinExtraction`): it
    counts the rounding of the samples, not the aliasing of higher
    coefficients onto k, so 1/(1-p) at k = 4 is off by 1.5e-5 under an
    estimate of 5e-13.  The accuracy warning is set when the estimate exceeds
    1e-4.  EvaluationOverflowError when the stencil width, a stepped point, a
    quotient, k! times a coefficient or either estimate leaves the double
    range.
    """
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    h = _step(step, p, 0 if p == ZERO else k)
    if k == 0:
        return DerivativeResult(evaluate(f, p), 0, "exact", None, 0.0, False)
    if p == ZERO:
        try:
            ext = maclaurin_extraction(f, n=k)
        except ValueError as exc:  # a limit of the extraction, which knows k as n
            raise ValueError(f"derivative order {k} is beyond the series route at p = 0: {exc}") from exc
        value = _times_factorial(k, ext.real_coeffs()[k])
        est = _times_factorial(k, ext.noise_floors[k])
        return DerivativeResult(Quaternion.from_real(value), k, "series", None, est, est > _ACCURACY_FLAG_THRESHOLD)

    value = Quaternion.from_cd(*_nested_dx(f, p, k, h))
    est = k * h * h / 6.0 * max(1.0, value.norm())
    if not math.isfinite(est):
        raise EvaluationOverflowError(f"truncation estimate {k}*h^2/6*max(1, |value|) overflows at h = {h!r}")
    return DerivativeResult(value, k, "stencil", h, est, est > _ACCURACY_FLAG_THRESHOLD)


def _times_factorial(k: int, c: float) -> float:
    """k!*c rounded once, with the sign of c (also of a zero): k! is not
    rounded to a double first (it is exact in one only up to k = 22).
    EvaluationOverflowError past the double range."""
    num, den = c.as_integer_ratio()
    try:
        return math.copysign(num * math.factorial(k) / den, c)
    except OverflowError as exc:
        raise EvaluationOverflowError(f"{k}! * {c!r} leaves the double range") from exc
