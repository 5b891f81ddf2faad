"""Interpreter-speed calibration.

The speed of a shared machine can switch between about 1x and 0.5x every
few tens of milliseconds, and the switches slow hquat and any other Python
code alike.  A fixed calibration loop runs between consecutive operations
(outside their timed region) and around every set-up probe; every time the
benchmark reports is rescaled to a reference speed, at which one
calibration loop takes ``REFERENCE_S``.

The loop mixes plain float and tuple arithmetic with frozen-dataclass
construction and complex arithmetic: the first alone under-corrects
hquat's slowdown in slow phases and the second alone over-corrects it.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

REFERENCE_S = 150e-6


@dataclass(frozen=True)
class _Pair:
    a: complex
    b: complex

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            object.__setattr__(self, name, complex(getattr(self, name)))


def calibration_unit() -> float:
    """Wall time of one run of the calibration loop."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(400):
        t = (i * 0.5, 1.0 - i, 0.25, i * 1e-3)
        acc += t[0] * t[1] - t[2] * t[3]
    p, q = _Pair(0.6 + 0.1j, 0.2 - 0.3j), _Pair(0.5 - 0.2j, 0.1 + 0.4j)
    for _ in range(40):
        p = _Pair(p.a * q.a - p.b * q.b.conjugate(), p.a * q.b + q.a.conjugate() * p.b)
        if abs(p.a) > 4.0:
            p = _Pair(p.a / 4.0, p.b / 4.0)
    return time.perf_counter() - start


def calibration_time(units: int) -> float:
    """Median of several calibration loops."""
    return statistics.median(calibration_unit() for _ in range(units))


def at_reference_speed(elapsed: float, before: float, after: float) -> float:
    """A time measured between calibration times ``before`` and ``after``,
    rescaled to the reference speed."""
    return elapsed * 2.0 * REFERENCE_S / (before + after)
