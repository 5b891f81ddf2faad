"""Quaternionic power series with real coefficients.

A series sum_l r_l p^l is held as a finite coefficient prefix plus an
optional closed-form rule l -> r_l for the tail.  The coefficients are real,
so the sum at p = x + V*r (r^2 = -1) is the complex sum at x + iV with i
replaced by r: partial sums run Horner's scheme in complex arithmetic and
lift it through :func:`hquat.functions._lift`, as exp, sin and cos are.

Convergence machinery:

* ratio test over the trailing nonzero coefficients, with zero gaps folded
  in as per-power block ratios (the g-th root of the ratio across a gap g);
* a majorant (M-) test certifying uniform and absolute convergence on a
  closed ball;
* Maclaurin coefficient extraction by sampling the restriction of the
  function to the complex plane (z = u = 0) on a circle and taking discrete
  Fourier coefficients.  Coefficients of a holomorphic series are real, so
  any imaginary or second-component residue above tolerance signals a
  non-holomorphic input.  The first n+1 Fourier coefficients of the N
  samples come from a radix-2 decimation in frequency pruned to those
  outputs, about N*log2(n) multiply-adds in place of N*(n+1) direct ones.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator

from .functions import EvaluationOverflowError, FuncExpr, _lift, evaluate
from .quaternion import ZERO, Quaternion


class RatioTestInconclusive(ArithmeticError):
    """Ratio sequence oscillates too much to estimate a limit."""

    def __init__(self, spread: float):
        super().__init__(f"ratio sequence oscillates beyond 10% relative spread ({spread:.3g})")
        self.spread = spread


class MajorantViolatedError(ValueError):
    """A series term exceeds its majorant."""

    def __init__(self, index: int):
        super().__init__(f"majorant violated at term index {index}")
        self.index = index


class NonRealCoefficientError(ValueError):
    """Extracted coefficient has a non-real residue above tolerance."""

    def __init__(self, index: int, residue: float):
        super().__init__(f"non-real coefficient residue {residue:.3g} at index {index}")
        self.index = index
        self.residue = residue


class TermRuleMismatchError(ValueError):
    """Closed-form term rule disagrees with a coefficient."""

    def __init__(self, index: int, expected: float, actual: float):
        super().__init__(f"term rule mismatch at index {index}: rule {expected!r}, coefficient {actual!r}")
        self.index = index
        self.expected = expected
        self.actual = actual


@dataclass(frozen=True)
class SeriesEvaluation:
    value: Quaternion
    terms_used: int
    converged: bool


@dataclass(frozen=True)
class PowerSeries:
    """Real-coefficient power series sum_l r_l p^l."""

    coeffs: tuple[float, ...]
    generator: Callable[[int], float] | None = None

    def __post_init__(self) -> None:
        vals = tuple(float(c) for c in self.coeffs)
        if any(not math.isfinite(c) for c in vals):
            raise ValueError("power series coefficients must be finite reals")
        object.__setattr__(self, "coeffs", vals)

    def coefficient(self, l: int) -> float:
        if l < 0:
            raise IndexError("negative coefficient index")
        if l < len(self.coeffs):
            return self.coeffs[l]
        if self.generator is not None:
            return float(self.generator(l))
        raise IndexError(f"coefficient {l} beyond stored length {len(self.coeffs)} and no generator")

    def terms(self, limit: int) -> Iterator[tuple[int, float]]:
        """(l, r_l) for l < limit, ending with the stored ones if there is no generator."""
        stop = limit if self.generator is not None else min(limit, len(self.coeffs))
        return enumerate(map(self.coefficient, range(stop)))

    def partial_sum(self, p: Quaternion, n: int) -> Quaternion:
        """sum_{l<=n} r_l p^l, on the domain of exp, sin and cos: the imaginary
        part reads 0 where |Im p|^2 underflows (|Im p| below about 2e-162),
        EvaluationOverflowError where it overflows (above about 1.3e154)."""

        def horner(w: complex) -> complex:
            acc = complex(self.coefficient(n))
            for l in range(n - 1, -1, -1):
                acc = acc * w + self.coefficient(l)
            return acc

        return Quaternion.from_cd(*_lift(horner, p.to_cd()))

    def evaluate(self, p: Quaternion, tol: float = 1e-12, max_terms: int = 200) -> SeriesEvaluation:
        """Sum terms until |r_l| |p|^l < tol for 3 consecutive l (term-test
        heuristic), or give up at max_terms / coefficient exhaustion with
        converged=False; the value is :meth:`partial_sum` over the terms used."""
        if tol <= 0.0:
            raise ValueError("tolerance must be positive")
        pnorm = p.norm()
        power_mag = 1.0
        streak = 0
        used = 0
        for l, c in self.terms(max_terms):
            used = l + 1
            streak = streak + 1 if abs(c) * power_mag < tol else 0
            if streak >= 3:
                break
            power_mag *= pnorm
        return SeriesEvaluation(self.partial_sum(p, used - 1) if used else ZERO, used, streak >= 3)

    def differentiate(self) -> PowerSeries:
        """Termwise derivative: coefficients (l+1) r_{l+1}."""
        new_coeffs = tuple((l + 1) * self.coeffs[l + 1] for l in range(len(self.coeffs) - 1))
        gen = self.generator
        new_gen = (lambda l, g=gen: (l + 1) * g(l + 1)) if gen is not None else None
        return PowerSeries(new_coeffs, new_gen)


# ---------------------------------------------------------------------------
# Catalog coefficient rules and series
# ---------------------------------------------------------------------------

_MAX_FLOAT_FACTORIAL = 170  # 171! does not fit in a double


def inv_factorial(l: int) -> float:
    """1/l! in double precision; exactly rounded up to l=170, 0 beyond."""
    if l <= _MAX_FLOAT_FACTORIAL:
        return 1.0 / math.factorial(l)
    return 0.0


def exp_coefficient(l: int) -> float:
    return inv_factorial(l)


def sin_coefficient(l: int) -> float:
    if l % 2 == 0:
        return 0.0
    return (-1.0) ** ((l - 1) // 2) * inv_factorial(l)


def cos_coefficient(l: int) -> float:
    if l % 2 == 1:
        return 0.0
    return (-1.0) ** (l // 2) * inv_factorial(l)


def sin_cos_coefficient(l: int) -> float:
    """Coefficients of the sin*cos product series: odd l carry (-1)^m 4^m / l!
    with m = (l-1)/2, even l vanish."""
    if l % 2 == 0:
        return 0.0
    m = (l - 1) // 2
    if l > _MAX_FLOAT_FACTORIAL:
        return 0.0
    return (-1.0) ** m * float(4**m) * inv_factorial(l)


def geometric_coefficient(l: int) -> float:
    return 1.0


def exp_series(n: int = 32) -> PowerSeries:
    return PowerSeries(tuple(exp_coefficient(l) for l in range(n + 1)), exp_coefficient)


def sin_series(n: int = 33) -> PowerSeries:
    return PowerSeries(tuple(sin_coefficient(l) for l in range(n + 1)), sin_coefficient)


def cos_series(n: int = 32) -> PowerSeries:
    return PowerSeries(tuple(cos_coefficient(l) for l in range(n + 1)), cos_coefficient)


def sin_cos_series(n: int = 35) -> PowerSeries:
    return PowerSeries(tuple(sin_cos_coefficient(l) for l in range(n + 1)), sin_cos_coefficient)


def geometric_series(n: int = 32) -> PowerSeries:
    return PowerSeries(tuple(1.0 for _ in range(n + 1)), geometric_coefficient)


# ---------------------------------------------------------------------------
# Ratio test
# ---------------------------------------------------------------------------

_FLAT_SPREAD = 0.1
_INFINITE_RADIUS_L = 1e-8
_EXTRAPOLATION_HORIZON = 1e12


@dataclass(frozen=True)
class ConvergenceReport:
    """Evidence and verdict of the ratio test.

    ``ratios`` are per-power magnitude ratios of consecutive nonzero
    coefficients (gap g folded in as a g-th root), at the powers ``indices``.
    ``L_estimate`` is the estimated limit of that sequence: the tail mean
    when the tail is flat, otherwise a log-log extrapolation evaluated at a
    fixed large index.  The radius is 1/L_estimate, reported infinite when
    the estimate falls below 1e-8 with a monotonically decreasing tail.
    """

    L_estimate: float
    L_at_point: float | None
    radius: float
    term_test_pass: bool
    monotone_decreasing: bool
    spread: float
    ratios: tuple[float, ...]
    indices: tuple[int, ...]
    n_used: int


def _fit_loglog(indices: tuple[int, ...], values: tuple[float, ...]) -> tuple[float, float]:
    xs = [math.log(i) for i in indices]
    ys = [math.log(v) for v in values]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx if sxx > 0 else 0.0
    intercept = my - slope * mx
    return intercept, slope


def ratio_test(s: PowerSeries, n_tail: int = 12, point: Quaternion | None = None) -> ConvergenceReport:
    """Estimate the d'Alembert limit L and the convergence radius 1/L.

    Raises RatioTestInconclusive when the trailing ratios oscillate beyond
    10% relative spread without a monotone trend.
    """
    if n_tail < 2:
        raise ValueError("need at least 2 trailing ratios")
    nonzero = [(l, abs(c)) for l, c in s.terms(max(len(s.coeffs), 64)) if c != 0.0]
    if len(nonzero) < n_tail + 1:
        raise ValueError(f"need {n_tail + 1} nonzero coefficients, found {len(nonzero)}")

    ratios: list[float] = []
    indices: list[int] = []
    for (l1, c1), (l2, c2) in zip(nonzero, nonzero[1:]):
        gap = l2 - l1
        ratios.append((c2 / c1) ** (1.0 / gap))
        indices.append(l2)
    tail_r = tuple(ratios[-n_tail:])
    tail_i = tuple(indices[-n_tail:])

    mean = sum(tail_r) / len(tail_r)
    spread = (max(tail_r) - min(tail_r)) / mean if mean > 0 else 0.0
    monotone_dec = all(b <= a * (1.0 + 1e-12) for a, b in zip(tail_r, tail_r[1:]))
    monotone_inc = all(b >= a * (1.0 - 1e-12) for a, b in zip(tail_r, tail_r[1:]))

    if spread <= _FLAT_SPREAD:
        L = mean
    elif monotone_dec or monotone_inc:
        intercept, slope = _fit_loglog(tail_i, tail_r)
        L = math.exp(min(700.0, intercept + slope * math.log(_EXTRAPOLATION_HORIZON)))
    else:
        raise RatioTestInconclusive(spread)

    radius = math.inf if (L < _INFINITE_RADIUS_L and monotone_dec) else (math.inf if L == 0.0 else 1.0 / L)

    pn = point.norm() if point is not None else None
    terms = [c * pn**l for l, c in nonzero[-(n_tail + 1):]] if pn is not None else [c for _, c in nonzero[-(n_tail + 1):]]
    term_test = all(b <= a * (1.0 + 1e-12) for a, b in zip(terms, terms[1:])) and terms[-1] < terms[0]

    return ConvergenceReport(
        L_estimate=L,
        L_at_point=(L * pn) if pn is not None else None,
        radius=radius,
        term_test_pass=term_test,
        monotone_decreasing=monotone_dec,
        spread=spread,
        ratios=tail_r,
        indices=tail_i,
        n_used=len(tail_r),
    )


# ---------------------------------------------------------------------------
# Majorant (M-) test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MTestCertificate:
    passed: bool
    terms_checked: int
    ball_radius: float
    majorant_tail_ratio: float
    majorant_partial_sum: float
    reason: str


_M_TEST_TERMS = 40
_M_TEST_INDICES = 4096  # a generator's nonzero terms count as run out past this


def m_test(s: PowerSeries, ball_radius: float, majorant: Callable[[int], float]) -> MTestCertificate:
    """Check |r_l| R^l <= M_i termwise over the first 40 nonzero terms (i
    counts them) and that the majorant series passes its own ratio test; a
    pass certifies uniform and absolute convergence on the closed ball of the
    given radius.  Indices at or past max(len(coeffs), 4096) are not read.

    Raises MajorantViolatedError at the first violated term index.
    """
    if ball_radius <= 0.0:
        raise ValueError("ball radius must be positive")
    ms: list[float] = []
    nonzero = ((l, c) for l, c in s.terms(max(len(s.coeffs), _M_TEST_INDICES)) if c != 0.0)
    for i, (l, c) in enumerate(itertools.islice(nonzero, _M_TEST_TERMS)):
        m = majorant(i)
        try:
            term = abs(c) * ball_radius**l
        except OverflowError:  # R^l alone leaves the double range; a small |c| may bring it back
            log_term = math.log(abs(c)) + l * math.log(ball_radius)
            term = math.exp(log_term) if log_term < 709.0 else math.inf
        if term > m * (1.0 + 1e-12):
            raise MajorantViolatedError(i)
        ms.append(m)

    if not ms:
        return MTestCertificate(False, 0, ball_radius, math.nan, 0.0, "no nonzero terms to check")
    tail = [b / a for a, b in zip(ms, ms[1:]) if a > 0.0][-5:]
    tail_ratio = max(tail) if tail else 0.0
    if tail_ratio >= 1.0:
        return MTestCertificate(
            False, len(ms), ball_radius, tail_ratio, sum(ms), "majorant series fails its ratio test"
        )
    return MTestCertificate(True, len(ms), ball_radius, tail_ratio, sum(ms), "majorant summable, all terms bounded")


# ---------------------------------------------------------------------------
# Maclaurin coefficient extraction
# ---------------------------------------------------------------------------


# Largest non-real residue of an extracted coefficient still taken as real.
NONREAL_TOL = 1e-8

# Radius of the sampling circle.
DEFAULT_RHO = 0.8

# Bound on one extraction's inputs, in nominal Fourier terms: samples*(n+1)
# (the pruned kernel does fewer), plus 128 per sample for its evaluation.
MAX_EXTRACTION_TERMS = 2**24


@dataclass(frozen=True)
class MaclaurinExtraction:
    """Raw circle-sampling output: real parts and non-real residues.

    ``noise_floors[k]`` estimates the rounding noise of coefficient k
    (sqrt(N) times machine epsilon times the largest sampled magnitude,
    amplified by the 1/rho^k rescaling); extracted values at or below it
    carry no signal.
    """

    coeffs: tuple[float, ...]
    nonreal_residues: tuple[float, ...]
    rho: float
    samples: int
    noise_floors: tuple[float, ...]

    def first_nonreal(self) -> int | None:
        """First index whose non-real residue is not within NONREAL_TOL, else None."""
        return next((k for k, res in enumerate(self.nonreal_residues) if not res <= NONREAL_TOL), None)

    def real_coeffs(self) -> tuple[float, ...]:
        """The coefficients; NonRealCoefficientError at :meth:`first_nonreal`
        (the signature of a non-holomorphic input, e.g. a function multiplied
        by a non-real constant)."""
        k = self.first_nonreal()
        if k is not None:
            raise NonRealCoefficientError(k, self.nonreal_residues[k])
        return self.coeffs

    def denoised_coeffs(self) -> tuple[float, ...]:
        """Coefficients at or below 10x their noise floor zeroed, trailing zeros cut."""
        vals = [0.0 if abs(c) <= 10.0 * f else c for c, f in zip(self.coeffs, self.noise_floors)]
        while vals and vals[-1] == 0.0:
            vals.pop()
        return tuple(vals)


def _dft_head(x: list[complex], roots: list[complex], need: int) -> list[complex]:
    """The first `need` >= 1 DFT outputs sum_m x[m] roots[k*m mod L], with
    L = len(x) and roots[j] = e^{-2 pi i j/L}.

    An even list that needs more than 4 outputs is split in half (radix-2
    decimation in frequency): the folded sums x[m] + x[m+L/2] give the even
    outputs and the twisted differences (x[m] - x[m+L/2]) roots[m] the odd
    ones, about L*log2(need) terms in all.  Other lists are summed directly,
    twiddle row k chained from the k strided slices roots[(-b*L) mod k::k].
    """
    L = len(x)
    if L % 2 or need <= 4:
        rows = (itertools.chain.from_iterable(roots[-b * L % k :: k] for b in range(k)) for k in range(1, need))
        return [sum(x, 0.0j)] + [sum(map(operator.mul, x, row), 0.0j) for row in rows]
    h = L // 2
    head, tail, half = x[:h], x[h:], roots[::2]
    out: list[complex] = [0.0j] * need
    out[::2] = _dft_head(list(map(operator.add, head, tail)), half, (need + 1) // 2)
    out[1::2] = _dft_head(list(map(operator.mul, map(operator.sub, head, tail), roots)), half, need // 2)
    return out


def maclaurin_extraction(
    f: FuncExpr,
    n: int,
    rho: float = DEFAULT_RHO,
    samples: int | None = None,
) -> MaclaurinExtraction:
    """Fourier coefficients of f restricted to the circle |a| = rho, z = u = 0.

    The k-th coefficient estimate is (1/(N rho^k)) sum_m f(rho e^{i th_m})
    e^{-ik th_m}; for a holomorphic function this is the k-th series
    coefficient.  The residue of index k collects the imaginary part of the
    first doubling component and the magnitudes of the second one at the
    frequencies k and -k.  Each of the N samples is evaluated once.
    EvaluationOverflowError when a coefficient, residue or noise floor
    leaves the double range.
    """
    if n < 0:
        raise ValueError("coefficient count must be >= 0")
    if not 0.0 < rho < math.inf:
        raise ValueError("circle radius must be positive and finite")
    # rho**k for k <= n is formed below; past e^+-700 it overflows or its
    # reciprocal does
    if n * abs(math.log(rho)) > 700.0:
        raise ValueError(f"circle radius must keep n*|log rho| <= 700, got rho = {rho!r} for n = {n}")
    N = samples if samples is not None else max(64, 8 * (n + 1))
    if N < 4 * (n + 1):
        raise ValueError(f"samples must be >= 4(n+1) = {4 * (n + 1)}, got {N}")
    if N * (n + 1 + 128) > MAX_EXTRACTION_TERMS:
        raise ValueError(f"samples*(n+129) must be <= {MAX_EXTRACTION_TERMS}, got {N} * {n + 129}")

    # roots[j] = e^{-2 pi i j/N} gives both the sample points rho*conj(roots[m])
    # and the twiddles e^{-ik th_m} = roots[k*m mod N]: the angle is reduced
    # exactly in integers, so its phase error does not grow with k*m.
    roots = [cmath.exp(complex(0.0, -2.0 * math.pi * j / N)) for j in range(N)]
    first: list[complex] = []
    second: list[complex] = []
    for w in roots:
        q = evaluate(f, Quaternion(rho * w.real, -rho * w.imag, 0.0, 0.0))
        first.append(complex(q.x, q.y))
        second.append(complex(q.z, q.u))
    vmax = max(max(map(abs, first)), max(map(abs, second)))
    # b vanishes on the slice for every real-coefficient function; otherwise
    # a left constant can move conj(a)-terms to the negative frequencies of b
    second_conj = [b.conjugate() for b in second] if any(second) else None

    noise_unit = math.sqrt(N) * 2.220446049250313e-16 * vmax
    sums = [_dft_head(first, roots, n + 1)]
    if second_conj is not None:
        sums += [_dft_head(second, roots, n + 1), _dft_head(second_conj, roots, n + 1)]
    coeffs: list[float] = []
    residues: list[float] = []
    floors: list[float] = []
    for k, column in enumerate(zip(*sums)):
        scale = 1.0 / (N * rho**k)
        c1 = column[0] * scale
        coeffs.append(c1.real)
        # the sum of conj(b) at k is the conjugate of b's at frequency -k
        parts = [abs(s * scale) for s in column[1 : 3 if k else 2]]
        residues.append(math.hypot(c1.imag, *parts))
        floors.append(noise_unit / rho**k)
    if not all(map(math.isfinite, itertools.chain(coeffs, residues, floors))):
        raise EvaluationOverflowError(f"coefficients from {N} samples at rho = {rho!r} leave the double range")
    return MaclaurinExtraction(tuple(coeffs), tuple(residues), rho, N, tuple(floors))


def maclaurin_coeffs(
    f: FuncExpr,
    n: int,
    rho: float = DEFAULT_RHO,
    samples: int | None = None,
) -> PowerSeries:
    """Extract r_0..r_n, enforcing coefficient realness
    (:meth:`MaclaurinExtraction.real_coeffs`)."""
    return PowerSeries(maclaurin_extraction(f, n, rho, samples).real_coeffs())


def general_term_check(rule: Callable[[int], float], coeffs: tuple[float, ...] | list[float]) -> int:
    """Verify a closed-form rule l -> r_l against coefficients index by index,
    to 1e-9 relative with a 1e-12 absolute floor for exact-zero coefficients.

    Returns the number of indices checked; raises TermRuleMismatchError at
    the first disagreement.
    """
    for l, actual in enumerate(coeffs):
        expected = float(rule(l))
        if not math.isclose(expected, actual, rel_tol=1e-9, abs_tol=1e-12):
            raise TermRuleMismatchError(l, expected, actual)
    return len(coeffs)
