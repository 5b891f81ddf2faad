"""Quaternion algebra in component and Cayley-Dickson doubling form.

A quaternion p = x + y*i + z*j + u*k is stored componentwise; the doubling
form p = a + b*j with complex a = x + y*i and b = z + u*i is a view obtained
with :meth:`Quaternion.to_cd`.  Multiplication is carried out in the doubling
form by :func:`cd_mul`, the one place that holds the product formula,

    p*q = (a1*a2 - b1*conj(b2)) + (a1*b2 + conj(a2)*b1)*j,

which is equivalent to the 16-term componentwise product generated by
i**2 = j**2 = k**2 = -1, ij = k, jk = i, ki = j.  :func:`cd_inverse` gives
the multiplicative inverse.  Both act on raw pairs (a, b) of complex numbers,
so the tree evaluator in :mod:`hquat.functions` uses them without building a
:class:`Quaternion` per intermediate.

All values are immutable and every operation is a pure function, so they can
be shared freely between threads.  A :class:`Quaternion` is validated once
per construction, by the constructor, :meth:`Quaternion.from_cd`, arithmetic
and :func:`dataclasses.replace` alike: the dataclass's ``__init__`` stores
the four components and calls ``__post_init__``, the one per-construction
hook, which converts each with ``float()`` and rejects a non-finite
component by name.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "CayleyDickson",
    "I",
    "J",
    "K",
    "ONE",
    "Quaternion",
    "ZERO",
    "ZeroDivisorError",
]


class ZeroDivisorError(ZeroDivisionError):
    """Raised when inverting or dividing by a (numerically) zero quaternion."""


class CayleyDickson(NamedTuple):
    """Doubling-form view (a, b) of a quaternion: p = a + b*j."""

    a: complex
    b: complex


# Raw doubling pair (a, b), the value a + b*j; CayleyDickson is its named form.
Pair = tuple[complex, complex]

# Smallest normal double: below it |p|**2 has lost precision or reads 0.
_TINY = sys.float_info.min


def cd_mul(p: Pair, q: Pair) -> Pair:
    """Product of two doubling pairs: (a1 + b1 j)(a2 + b2 j)."""
    a1, b1 = p
    a2, b2 = q
    return a1 * a2 - b1 * b2.conjugate(), a1 * b2 + a2.conjugate() * b1


def cd_inverse(p: Pair) -> Pair:
    """Inverse conj(p)/|p|**2 of a doubling pair.

    When |p|**2 leaves the normal range, overflowing (|p| above about
    1.3e154) or underflowing (|p| below about 1.5e-154), p/scale is inverted
    instead and the result divided by scale, the largest component magnitude,
    so the inverse is neither flushed to zero nor lost to underflow.  Raises
    ZeroDivisorError when p is zero or 1/|p| overflows (|p| below about
    5.6e-309).
    """
    a, b = p
    x, y, z, u = a.real, a.imag, b.real, b.imag
    n2 = x * x + y * y + z * z + u * u
    if _TINY <= n2 < math.inf:
        return complex(x / n2, -y / n2), complex(-z / n2, -u / n2)
    scale = max(abs(x), abs(y), abs(z), abs(u))
    if scale > 0.0:
        x, y, z, u = x / scale, y / scale, z / scale, u / scale
        s2 = x * x + y * y + z * z + u * u  # in [1, 4]
        if 1.0 / (scale * math.sqrt(s2)) < math.inf:
            return complex(x / s2 / scale, -y / s2 / scale), complex(-z / s2 / scale, -u / s2 / scale)
    raise ZeroDivisorError(f"quaternion too close to zero to invert: |p|^2 = {n2!r}")


@dataclass(frozen=True)
class Quaternion:
    """Quaternion x + y*i + z*j + u*k with finite double-precision components."""

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    u: float = 0.0

    def __post_init__(self) -> None:
        fields = self.__dict__
        for name in "xyzu":
            value = float(fields[name])
            if not math.isfinite(value):
                raise ValueError(f"non-finite quaternion component {name}={value!r}")
            fields[name] = value

    @classmethod
    def from_real(cls, r: float) -> Quaternion:
        return cls(float(r), 0.0, 0.0, 0.0)

    @classmethod
    def from_cd(cls, a: complex, b: complex) -> Quaternion:
        """Inverse of :meth:`to_cd`; bit-exact field shuffle."""
        return cls(a.real, a.imag, b.real, b.imag)

    def to_cd(self) -> CayleyDickson:
        """Split into the doubling form a = x + y*i, b = z + u*i."""
        return CayleyDickson(complex(self.x, self.y), complex(self.z, self.u))

    def conjugate(self) -> Quaternion:
        return Quaternion(self.x, -self.y, -self.z, -self.u)

    def norm_sq(self) -> float:
        return self.x * self.x + self.y * self.y + self.z * self.z + self.u * self.u

    def norm(self) -> float:
        """|p|; math.hypot where norm_sq leaves the normal range, overflowing
        (|p| above about 1.3e154) or underflowing (below about 1.5e-154)."""
        n2 = self.norm_sq()
        if _TINY <= n2 < math.inf:
            return math.sqrt(n2)
        return math.hypot(self.x, self.y, self.z, self.u)

    __abs__ = norm

    def inverse(self) -> Quaternion:
        """Multiplicative inverse conj(p)/|p|**2; see :func:`cd_inverse`."""
        return Quaternion.from_cd(*cd_inverse(self.to_cd()))

    def __neg__(self) -> Quaternion:
        return Quaternion(-self.x, -self.y, -self.z, -self.u)

    def __add__(self, other: Quaternion | float | int) -> Quaternion:
        if isinstance(other, Quaternion):
            return Quaternion(self.x + other.x, self.y + other.y, self.z + other.z, self.u + other.u)
        if isinstance(other, (int, float)):
            return Quaternion(self.x + other, self.y, self.z, self.u)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: Quaternion | float | int) -> Quaternion:
        if isinstance(other, Quaternion):
            return Quaternion(self.x - other.x, self.y - other.y, self.z - other.z, self.u - other.u)
        if isinstance(other, (int, float)):
            return Quaternion(self.x - other, self.y, self.z, self.u)
        return NotImplemented

    def __rsub__(self, other: float | int) -> Quaternion:
        return (-self).__add__(other)

    def __mul__(self, other: Quaternion | float | int) -> Quaternion:
        if isinstance(other, Quaternion):
            return Quaternion.from_cd(*cd_mul(self.to_cd(), other.to_cd()))
        if isinstance(other, (int, float)):
            return Quaternion(self.x * other, self.y * other, self.z * other, self.u * other)
        return NotImplemented

    def __rmul__(self, other: float | int) -> Quaternion:
        # Real scalars commute with quaternions.
        return self.__mul__(other)

    def __truediv__(self, other: Quaternion | float | int) -> Quaternion:
        if isinstance(other, Quaternion):
            # Right division p * q**-1; for the holomorphic operands this
            # toolkit targets, the left quotient coincides with it.
            return self * other.inverse()
        if isinstance(other, (int, float)):
            if other == 0.0:
                raise ZeroDivisorError("division of quaternion by zero scalar")
            return Quaternion(self.x / other, self.y / other, self.z / other, self.u / other)
        return NotImplemented

    def isclose(self, other: Quaternion, rel_tol: float = 1e-12, abs_tol: float = 0.0) -> bool:
        """Componentwise closeness against a mixed relative/absolute bound;
        where a norm leaves the double range, p/4 and q/4 are compared with
        abs_tol/4, so the bound stays finite."""
        ref = max(self.norm(), other.norm())
        if ref == math.inf:
            return (self / 4).isclose(other / 4, rel_tol, abs_tol / 4)
        bound = max(rel_tol * ref, abs_tol)
        return (
            abs(self.x - other.x) <= bound
            and abs(self.y - other.y) <= bound
            and abs(self.z - other.z) <= bound
            and abs(self.u - other.u) <= bound
        )

    def __str__(self) -> str:
        return f"{self.x:.12g} + {self.y:.12g}i + {self.z:.12g}j + {self.u:.12g}k"


ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)
