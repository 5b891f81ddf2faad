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
taken along x without forming the partials.

The partials and :func:`full_derivative` share one central difference on
doubling pairs: :func:`_step` gives h = step * max(1, |p|), :func:`_stepped`
the pairs p +- e*h (hi is evaluated first), and :func:`_quotient`
(hi - lo)/(2h).  :func:`partials` forms them for 1, i, j, k in one loop,
reaching :func:`_stepped` or :func:`_quotient` only on a non-finite value,
and hands its pairs straight to :func:`hquat.functions.phi_components`.
A derivative of any order k >= 1, at the origin too, is the slice function's,
lifted, from one Cauchy circle of series' Cauchy kernel (:func:`kth_derivative`).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import replace
from typing import NamedTuple

from .functions import EvaluationOverflowError, FuncExpr, _lift, evaluate, phi_components
from .quaternion import I, J, K, ONE, ZERO, Pair, Quaternion
from .series import DEFAULT_RHO, MAX_EXTRACTION_TERMS, _cauchy

__all__ = [
    "DerivativeResult",
    "HolomorphyReport",
    "InvalidPointError",
    "PartialsTable",
    "check_holomorphy",
    "full_derivative",
    "kth_derivative",
    "partials",
]


class InvalidPointError(ValueError):
    """The main system must be evaluated at a point with y = 0."""


class PartialsTable(NamedTuple):
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


def _step(step: float, p: Quaternion, k: int = 1) -> float:
    """Step h = step * max(1, |p|) of a central difference, or radius
    h = step**(1/k) * max(1, |p|) of a k-th derivative's circle; k = 0 only
    validates ``step``.
    EvaluationOverflowError when the width 2h leaves the double range."""
    # h >= step*max(1, |p|) >= eps*|c| for every component c, so c +- h != c
    if not sys.float_info.epsilon <= step < math.inf:
        raise ValueError("step must be finite and at least machine epsilon (2.2e-16)")
    if k == 0:
        return 0.0
    h = step ** (1.0 / k) * max(1.0, p.norm())
    if not 2.0 * h < math.inf:  # a width of inf would turn every quotient into 0
        raise EvaluationOverflowError(f"difference stencil overflows: width 2h is infinite at h = {h!r}")
    return h


def _stepped(p: Pair, e: Quaternion, h: float) -> tuple[Pair, Pair]:
    """The pairs p + e*h and p - e*h; complex sums add componentwise, as
    Quaternion arithmetic does.  EvaluationOverflowError, naming the
    component, past the double range."""
    (a, b), d, f = p, complex(e.x * h, e.y * h), complex(e.z * h, e.u * h)
    a1, b1, a2, b2 = a + d, b + f, a - d, b - f
    try:
        if not (cmath.isfinite(a1) and cmath.isfinite(b1) and cmath.isfinite(a2) and cmath.isfinite(b2)):
            Quaternion.from_cd(a1, b1), Quaternion.from_cd(a2, b2)  # raises, naming the component
    except ValueError as exc:
        raise EvaluationOverflowError(f"difference stencil overflows: {exc}") from exc
    return (a1, b1), (a2, b2)


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
    h, (a, b) = _step(step, p), p.to_cd()
    # the pairs of _stepped bitwise: an unmoved component still adds 0j (-0.0 + 0.0 is 0.0)
    w, dr, di, z = 2.0 * h, complex(h, 0.0), complex(0.0, h), complex(0.0, 0.0)
    az, a_z, bz, b_z = a + z, a - z, b + z, b - z
    d = []
    for e, hi, lo in ((ONE, (a + dr, bz), (a - dr, b_z)), (I, (a + di, bz), (a - di, b_z)),
                      (J, (az, b + dr), (a_z, b - dr)), (K, (az, b + di), (a_z, b - di))):
        if not (cmath.isfinite(hi[0]) and cmath.isfinite(hi[1]) and cmath.isfinite(lo[0]) and cmath.isfinite(lo[1])):
            _stepped((a, b), e, h)  # raises, naming the component
        (a1, b1), (a2, b2) = phi_components(f, hi), phi_components(f, lo)
        qa, qb = (a1 - a2) / w, (b1 - b2) / w
        if not (cmath.isfinite(qa) and cmath.isfinite(qb)):  # _quotient scales an overflowing difference, or raises
            qa, qb = _quotient((a1, b1), (a2, b2), h)
        d.append((qa, qb))
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
    return PartialsTable(*values, h, p)


class HolomorphyReport(NamedTuple):
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
        return max(self.main_residuals + self.aux_residuals) <= self.tolerance


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
    return HolomorphyReport(point, aux_point, main, aux, tol)


def full_derivative(f: FuncExpr, p: Quaternion, step: float = DEFAULT_STEP) -> Quaternion:
    """Full quaternionic derivative d(psi)/dx: one central difference along x
    with step ``step * max(1, |p|)``, at every point including the origin."""
    hi, lo = _stepped(p.to_cd(), ONE, h := _step(step, p))
    return Quaternion.from_cd(*_quotient(evaluate(f, hi), evaluate(f, lo), h))


class DerivativeResult(NamedTuple):
    """k-th derivative with the method used and an accuracy estimate."""

    value: Quaternion
    order: int
    method: str  # "exact" or "series"
    step: float | None
    truncation_estimate: float
    accuracy_warning: bool


def _accuracy_bound(value: Quaternion) -> float:
    """The truncation estimate above which a derivative is flagged."""
    return 1e-4 * max(1.0, value.norm())


def kth_derivative(f: FuncExpr, p: Quaternion, k: int, step: float = DEFAULT_STEP) -> DerivativeResult:
    """k-th full quaternionic derivative d^k(psi)/dx^k of f at p.

    "exact" evaluation at k = 0.  Every k >= 1 is "series" at every point:
    the lift of Cauchy's integral F^(k)(w0) = k!/(N h^k) S_k, w0 = x + i|V|,
    from series' Cauchy kernel on N slice samples of the circle of radius h
    (the result's ``step``) about w0.  At the origin h and N are the
    extraction's, DEFAULT_RHO and max(64, 8(k+1)); off it h = step**(1/k) *
    max(1, |p|) and N = 2^max(k, 2).  ValueError before any evaluation for
    an N*(k+129) past the extraction's budget, and at the first sample for a
    tree with a non-real constant.  The estimate is k!/h^k times the noise
    unit plus a*min(1, a/|S_k|)/N, a = |S_{k+N/2}| = |2E_k - S_k| (E the
    half-grid sums; |S_3| on 4 points), the aliasing that a singularity in
    or near the circle makes large; above 1e-4 * max(1, |value|) it sets the
    accuracy warning.  A pole inside the circle puts its content at negative
    frequencies, which neither term sees.  EvaluationOverflowError when the
    circle's width, a circle point, the value or the estimate leaves the
    double range.
    """
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    h = _step(step, p, 0 if p == ZERO else k)  # step is validated at the origin too
    if k == 0:
        return DerivativeResult(evaluate(f, p), 0, "exact", None, 0.0, False)
    # 2^64 samples alone are past the budget, so 2^k is never formed past k = 64
    h, N = (h, 2 ** min(max(k, 2), 64)) if p != ZERO else (DEFAULT_RHO, max(64, 8 * (k + 1)))
    if N * (k + 129) > MAX_EXTRACTION_TERMS:
        got = N if N < 2**64 else f"2^{k}"
        raise ValueError(f"derivative order {k} is beyond the series route: samples*(k+129) must be <= {MAX_EXTRACTION_TERMS}, got {got} * {k + 129}")
    est = 0.0  # set by fk, which _lift calls once

    def fk(w0: complex) -> complex:
        nonlocal est
        _stepped((w0, 0j), ONE, h), _stepped((w0, 0j), I, h)  # w0 +- h, w0 +- ih bound the circle; raises, naming the component
        (c,), half, noise, up = _cauchy(f, w0, h, N, max(k + 1, 4), half=k + 1 if N > 4 else 0)
        d = 2.0 * half[k] - c[k] if N > 4 else c[3]
        a = math.hypot(d.real, d.imag)  # |S_{k+N/2}|, times |S_{k+N/2}/S_k| <= 1
        a *= a / max(a, math.hypot(c[k].real, c[k].imag), 5e-324)
        w = c[k] / N
        w, est = complex(_times_factorial(k, w.real), _times_factorial(k, w.imag)), _times_factorial(k, noise + a / N)
        for _ in range(k):  # h^k itself may leave the double range where the value does not
            w, est = w / h, est / h
        w, est = complex(w.real * up, w.imag * up), est * up
        if not (cmath.isfinite(w) and math.isfinite(est)):
            raise EvaluationOverflowError(f"derivative of order {k} from {N} samples at h = {h!r} leaves the double range")
        return w

    value = Quaternion.from_cd(*_lift(fk, p.to_cd()))
    return DerivativeResult(value, k, "series", h, est, est > _accuracy_bound(value))


def _times_factorial(k: int, c: float) -> float:
    """k!*c rounded once, with the sign of c (also of a zero): k! is not
    rounded to a double first (it is exact in one only up to k = 22);
    +-inf past the double range, and a non-finite c as it is."""
    if not math.isfinite(c):
        return c
    num, den = c.as_integer_ratio()
    try:
        return math.copysign(num * math.factorial(k) / den, c)
    except OverflowError:
        return math.copysign(math.inf, c)
