"""Quaternionic power series with real coefficients.

A series sum_l r_l p^l is held as a finite coefficient prefix plus an
optional closed-form rule l -> r_l for the tail.  The coefficients are real,
so the sum at p = x + V*r (r^2 = -1) is the complex sum at x + iV with i
replaced by r: partial sums run Horner's scheme in complex arithmetic and
lift it through :func:`hquat.functions._lift`, as exp, sin and cos are.

Convergence machinery:

* ratio test over the trailing nonzero coefficients, with zero gaps folded
  in as per-power block ratios (the g-th root of the ratio across a gap g),
  and their Domb-Sykes line against 1/l, whose intercept is 1/radius;
* a majorant (M-) test certifying uniform and absolute convergence on a
  closed ball;
* Maclaurin coefficient extraction by sampling the restriction of the
  function to the complex plane (z = u = 0) on a circle and taking discrete
  Fourier coefficients.  A tree with only real constants is sampled in the
  slice mode of :func:`hquat.functions.evaluate`, one complex number per
  sample; any other tree in its pair mode, one doubling pair per sample.
  Coefficients of a holomorphic series are real, so an imaginary or
  second-component residue beyond SIGNAL_FLOORS noise floors of its index
  signals a non-holomorphic input.  The first n+1 Fourier coefficients of
  the N samples come from a radix-2 decimation in frequency pruned to those
  outputs, about N*log2(n) multiply-adds in place of N*(n+1) direct ones.
  The twiddle table and the sample points of the 16 most recent pairs
  (N, rho) are cached, 80 B per sample, at most about 166 MB in all.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .functions import EvaluationOverflowError, FuncExpr, _finite, _lift, evaluate, has_nonreal_constant
from .quaternion import ZERO, Quaternion

__all__ = [
    "ConvergenceReport",
    "MTestCertificate",
    "MaclaurinExtraction",
    "MajorantViolatedError",
    "NonRealCoefficientError",
    "PowerSeries",
    "RatioTestInconclusive",
    "SeriesEvaluation",
    "cos_coefficient",
    "cos_series",
    "exp_coefficient",
    "exp_series",
    "geometric_coefficient",
    "geometric_series",
    "inv_factorial",
    "m_test",
    "maclaurin_coeffs",
    "maclaurin_extraction",
    "ratio_test",
    "sin_coefficient",
    "sin_cos_coefficient",
    "sin_cos_series",
    "sin_series",
]


class RatioTestInconclusive(ArithmeticError):
    """The ratios fix no limit; the message names the bound that failed."""


class MajorantViolatedError(ValueError):
    """A series term exceeds its majorant."""

    def __init__(self, index: int):
        super().__init__(f"majorant violated at term index {index}")
        self.index = index


class NonRealCoefficientError(ValueError):
    """Extracted coefficient has a non-real residue that is signal, not rounding."""

    def __init__(self, index: int, residue: float):
        super().__init__(f"non-real coefficient residue {residue:.3g} at index {index}")
        self.index = index
        self.residue = residue


class SeriesEvaluation(NamedTuple):
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
        """sum_{l<=n} r_l p^l, on the domain of exp, sin and cos: |Im p| is
        taken by hypot where its square leaves the normal range, and
        EvaluationOverflowError is raised only where |Im p| itself or the
        Horner sum leaves the double range."""

        def horner(w: complex) -> complex:
            acc = complex(self.coefficient(n))
            for l in range(n - 1, -1, -1):
                acc = acc * w + self.coefficient(l)
            return acc

        return Quaternion.from_cd(*_finite(_lift(horner, p.to_cd())))

    def evaluate(self, p: Quaternion, tol: float = 1e-12, max_terms: int = 200) -> SeriesEvaluation:
        """Sum terms until |r_l| |p|^l < tol for 3 consecutive l (term-test
        heuristic), or give up at max_terms / coefficient exhaustion with
        converged=False; the value is :meth:`partial_sum` over the terms used.
        A tol that is not positive and finite is a ValueError."""
        if not 0.0 < tol < math.inf:
            raise ValueError("tolerance must be positive and finite")
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

class ConvergenceReport(NamedTuple):
    """Evidence and verdict of the ratio test.

    ``ratios`` are the last ``n_used`` = min(12, nonzero - 1) per-power
    magnitude ratios of consecutive nonzero coefficients (gap g folded in as
    a g-th root), at the powers ``indices``.
    ``L_estimate`` is the intercept of their least-squares line against 1/l
    (Domb-Sykes), the limit of the sequence, and ``L_error`` its error bar.
    The radius is 1/L_estimate; it is infinite, with L_estimate 0, when the
    intercept is within its error bar of 0.
    """

    L_estimate: float
    L_at_point: float | None
    radius: float
    term_test_pass: bool
    monotone_decreasing: bool
    L_error: float
    ratios: tuple[float, ...]
    indices: tuple[int, ...]
    n_used: int


# Relative error bar within which a nonzero ratio-test limit is accepted.
_L_REL_ERROR = 1e-3


def _sum(values: Iterable[float]) -> float:
    """Left-to-right float sum, the same on every Python version: sum()
    compensates its rounding from 3.12 on, so the last digit of a ratio-test
    estimate or a majorant sum, and of the machine output, would depend on
    the interpreter."""
    return functools.reduce(operator.add, values, 0.0)


def ratio_test(s: PowerSeries, point: Quaternion | None = None) -> ConvergenceReport:
    """Estimate the d'Alembert limit L and the convergence radius 1/L from
    the last min(12, nonzero - 1) ratios of the nonzero coefficients.

    Near a singularity (1 - p/R)^-g the ratios are (1 + (g-1)/l)/R, a line in
    x = 1/l whose intercept is 1/R (Domb & Sykes 1957).  The intercept's
    error bar is its standard error with the largest residual standing in
    for sigma.  Raises ValueError below 4 nonzero coefficients, and
    RatioTestInconclusive when a ratio or the error bar leaves the double
    range, when the largest residual exceeds 10% of the largest ratio, or
    when a nonzero intercept is not within 1e-3 relative.
    """
    nonzero = [(l, abs(c)) for l, c in s.terms(max(len(s.coeffs), 64)) if c != 0.0]
    if len(nonzero) < 4:
        raise ValueError(f"need 4 nonzero coefficients, found {len(nonzero)}")

    ratios: list[float] = []
    indices: list[int] = []
    for (l1, c1), (l2, c2) in zip(nonzero, nonzero[1:]):
        gap = l2 - l1
        ratios.append((c2 / c1) ** (1.0 / gap))
        indices.append(l2)
    tail_r = tuple(ratios[-12:])
    tail_i = tuple(indices[-12:])
    n_used = len(tail_r)
    monotone_dec = all(b <= a * (1.0 + 1e-12) for a, b in zip(tail_r, tail_r[1:]))

    xs = [1.0 / l for l in tail_i]
    mx = _sum(xs) / n_used
    my = _sum(tail_r) / n_used
    sxx = _sum((x - mx) ** 2 for x in xs)
    slope = _sum((x - mx) * (y - my) for x, y in zip(xs, tail_r)) / sxx
    L = my - slope * mx
    worst = max(abs(y - L - slope * x) for x, y in zip(xs, tail_r))
    err = worst * math.sqrt(1.0 / n_used + mx * mx / sxx)
    if not all(map(math.isfinite, (*tail_r, err))):
        raise RatioTestInconclusive("a ratio or the fit's error bar leaves the double range")
    if worst > 0.1 * max(tail_r):
        raise RatioTestInconclusive(f"largest fit residual {worst:.3g} exceeds 10% of the largest ratio {max(tail_r):.3g}")
    if L <= err:
        L = 0.0
    elif err > _L_REL_ERROR * L:
        raise RatioTestInconclusive(f"intercept error bar {err:.3g} exceeds 1e-3 of the intercept {L:.3g}")

    # terms |r_l| |p|^l in logs (|p|^l may overflow); p^0 = 1 even at p = 0,
    # where later terms vanish. The tail grows by no more than the slack, and
    # falls by more than it from first to last, or vanishes
    pn = point.norm() if point is not None else None
    log_p = 0.0 if pn is None else math.log(pn) if pn else -math.inf
    logs = [math.log(c) + (l * log_p if l else 0.0) for l, c in nonzero[-(n_used + 1):]]
    slack = math.log1p(1e-12)
    term_test = all(b <= a + slack for a, b in zip(logs, logs[1:])) and (logs[-1] < logs[0] - slack or logs[-1] == -math.inf)

    return ConvergenceReport(
        L_estimate=L,
        L_at_point=(L * pn) if pn is not None else None,
        radius=1.0 / L if L else math.inf,
        term_test_pass=term_test,
        monotone_decreasing=monotone_dec,
        L_error=err,
        ratios=tail_r,
        indices=tail_i,
        n_used=n_used,
    )


# ---------------------------------------------------------------------------
# Majorant (M-) test
# ---------------------------------------------------------------------------


class MTestCertificate(NamedTuple):
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
    counts them) and that the majorant series is summable; a pass certifies
    uniform and absolute convergence on the closed ball of the given radius.
    Indices at or past max(len(coeffs), 4096) are not read, so fewer than 40
    nonzero terms below that cap are taken as the whole series, and their
    M_i as the whole majorant: a finite sum of them certifies.  Otherwise the
    ratio-test limit L of the 40 M_i must satisfy L (1 + 1e-3) < 1, 1e-3
    being the relative error bar ratio_test accepts, and a ratio test that
    raises certifies nothing.  ``majorant_tail_ratio``
    is that L, 0.0 for a finite majorant and NaN where it was not found.

    Raises ValueError unless R is positive and finite, and
    MajorantViolatedError at the first term index whose bound does not hold
    (a NaN M_i never holds).
    """
    if not 0.0 < ball_radius < math.inf:
        raise ValueError("ball radius must be positive and finite")
    ms: list[float] = []
    nonzero = ((l, c) for l, c in s.terms(max(len(s.coeffs), _M_TEST_INDICES)) if c != 0.0)
    for i, (l, c) in enumerate(itertools.islice(nonzero, _M_TEST_TERMS)):
        m = majorant(i)
        try:
            term = abs(c) * ball_radius**l
        except OverflowError:  # R^l alone leaves the double range; a small |c| may bring it back
            log_term = math.log(abs(c)) + l * math.log(ball_radius)
            term = math.exp(log_term) if log_term < 709.0 else math.inf
        if not term <= m * (1.0 + 1e-12):
            raise MajorantViolatedError(i)
        ms.append(m)

    total = _sum(ms)
    if not math.isfinite(total):
        return MTestCertificate(False, len(ms), ball_radius, math.nan, total, "majorant partial sum overflows")
    if len(ms) < _M_TEST_TERMS:
        return MTestCertificate(True, len(ms), ball_radius, 0.0, total, "finite majorant, all terms bounded")
    try:
        L = ratio_test(PowerSeries(tuple(ms))).L_estimate
    except (ValueError, RatioTestInconclusive) as exc:
        return MTestCertificate(False, len(ms), ball_radius, math.nan, total, str(exc))
    if L * (1.0 + _L_REL_ERROR) >= 1.0:
        return MTestCertificate(False, len(ms), ball_radius, L, total, "majorant series fails its ratio test")
    return MTestCertificate(True, len(ms), ball_radius, L, total, "majorant summable, all terms bounded")


# ---------------------------------------------------------------------------
# Maclaurin coefficient extraction
# ---------------------------------------------------------------------------


# A value at index k within this many noise floors of 0 is taken as rounding.
SIGNAL_FLOORS = 10.0

# Radius of the sampling circle.
DEFAULT_RHO = 0.8

# Bound on one extraction's inputs, in nominal Fourier terms: samples*(n+1)
# (the pruned kernel does fewer), plus 128 per sample for its evaluation.
MAX_EXTRACTION_TERMS = 2**24


class MaclaurinExtraction(NamedTuple):
    """Raw circle-sampling output: real parts and non-real residues.

    ``noise_floors[k]`` estimates the rounding noise of coefficient k
    (sqrt(N) times machine epsilon times the largest sampled magnitude, but
    at least sqrt(N) times the smallest subnormal unless every sample is 0,
    amplified by the 1/rho^k rescaling).  Every verdict on the extraction
    reads one rule, :meth:`is_signal`: a coefficient, a non-real residue or a
    difference from a closed-form rule at index k counts only beyond
    :meth:`threshold` (k), SIGNAL_FLOORS noise floors.
    """

    coeffs: tuple[float, ...]
    nonreal_residues: tuple[float, ...]
    rho: float
    samples: int
    noise_floors: tuple[float, ...]

    def threshold(self, k: int) -> float:
        """SIGNAL_FLOORS times the noise floor of index k."""
        return SIGNAL_FLOORS * self.noise_floors[k]

    def is_signal(self, k: int, value: float) -> bool:
        """Whether ``value`` at index k lies beyond :meth:`threshold` of 0; NaN does."""
        return not abs(value) <= self.threshold(k)

    def first_nonreal(self) -> int | None:
        """First index whose non-real residue is signal, else None."""
        return next((k for k, res in enumerate(self.nonreal_residues) if self.is_signal(k, res)), None)

    def first_mismatch(self, rule: Callable[[int], float]) -> int | None:
        """First index k whose coefficient differs from the closed-form
        ``rule(k)`` by signal, else None."""
        return next((k for k, c in enumerate(self.coeffs) if self.is_signal(k, c - rule(k))), None)

    def real_coeffs(self) -> tuple[float, ...]:
        """The coefficients; NonRealCoefficientError at :meth:`first_nonreal`
        (the signature of a non-holomorphic input, e.g. a function multiplied
        by a non-real constant)."""
        k = self.first_nonreal()
        if k is not None:
            raise NonRealCoefficientError(k, self.nonreal_residues[k])
        return self.coeffs

    def denoised_coeffs(self) -> tuple[float, ...]:
        """Coefficients that are not signal zeroed, trailing zeros cut."""
        vals = [c if self.is_signal(k, c) else 0.0 for k, c in enumerate(self.coeffs)]
        while vals and vals[-1] == 0.0:
            vals.pop()
        return tuple(vals)


@functools.lru_cache(maxsize=16)
def _circle(N: int, rho: float) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """The twiddle table roots[j] = e^{-2 pi i j/N} for j < N and the sample
    points rho*conj(roots[j]), kept for the 16 pairs (N, rho) used most
    recently.  A derivative's circle, at the origin too, scales the entry
    (N, 1.0), so series-spectral's series, radius and derive ops use 14
    entries in all.  An extraction has at most
    N_max = MAX_EXTRACTION_TERMS // 129 = 130055 samples and each entry
    keeps 80 B per sample (a root and a point, each a complex and its tuple
    slot), so the cache holds at most 16 * N_max * 80 B, about 166 MB; a
    1024-sample entry is 82 KB."""
    roots = tuple(cmath.exp(complex(0.0, -2.0 * math.pi * j / N)) for j in range(N))
    return roots, tuple(complex(rho * w.real, -rho * w.imag) for w in roots)


def _dft_head(x: list[complex], roots: Sequence[complex], need: int) -> list[complex]:
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


def _noise_unit(samples: Iterable[complex], N: int) -> float:
    """sqrt(N)*eps*vmax, vmax the largest sample modulus, but at least sqrt(N)*2^-1074 unless every sample is 0."""
    try:
        vmax = max(map(abs, samples))
    except OverflowError:  # a finite sample whose modulus leaves the double range
        vmax = math.inf
    return math.sqrt(N) * max(2.220446049250313e-16 * vmax, 5e-324) if vmax else 0.0


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
    EvaluationOverflowError when a sample's modulus, a coefficient, residue
    or noise floor leaves the double range.
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
    # exactly in integers, so its phase error does not grow with k*m.  A tree
    # with only real constants is sampled at the complex point a in evaluate's
    # slice mode, since its second component is zero on the slice; any other
    # goes in as the doubling pair (a, 0) and comes back as a pair.  Either
    # way the sampling of series and radius builds no Quaternion.
    roots, points = _circle(N, rho)
    if has_nonreal_constant(f):
        pairs = [evaluate(f, (a, 0j)) for a in points]
        first, second = [a for a, _ in pairs], [b for _, b in pairs]
    else:
        first, second = [evaluate(f, a) for a in points], []
    # b vanishes on the slice for every real-coefficient function; otherwise
    # a left constant can move conj(a)-terms to the negative frequencies of b
    second_conj = [b.conjugate() for b in second] if any(second) else None
    noise_unit = _noise_unit(itertools.chain(first, second), N)
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
        try:
            parts = [abs(s * scale) for s in column[1 : 3 if k else 2]]
        except OverflowError:  # a finite residue whose modulus leaves the double range
            parts = [math.inf]
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
