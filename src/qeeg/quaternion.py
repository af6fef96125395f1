"""Quaternion scalar arithmetic.

A quaternion q = w + xi + yj + zk with real components and imaginary units
obeying ij = k = -ji, jk = i = -kj, ki = j = -ik, i^2 = j^2 = k^2 = -1.
Values are immutable; arithmetic returns new instances. Finiteness is
enforced where external data enters the algebra (``Quaternion.checked``,
matrix ingestion), not inside every arithmetic operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

__all__ = ["Quaternion", "ZERO", "ONE", "I", "J", "K"]


@dataclass(frozen=True)
class Quaternion:
    """Hypercomplex scalar w + xi + yj + zk."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    @classmethod
    def checked(cls, w: float, x: float = 0.0, y: float = 0.0, z: float = 0.0) -> "Quaternion":
        """Validating constructor for data entering from outside the algebra."""
        for name, value in (("w", w), ("x", x), ("y", y), ("z", z)):
            if not math.isfinite(value):
                raise ValidationError(f"non-finite quaternion component {name}={value!r}")
        return cls(float(w), float(x), float(y), float(z))

    def to_list(self) -> list:
        """Serialize as [w, x, y, z] (the JSON wire form)."""
        return [self.w, self.x, self.y, self.z]

    @property
    def is_pure(self) -> bool:
        """True iff the scalar part is exactly zero."""
        return self.w == 0.0

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        """Hamilton product; noncommutative (a * b != b * a in general)."""
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        w0, x0, y0, z0 = self.w, self.x, self.y, self.z
        w1, x1, y1, z1 = other.w, other.x, other.y, other.z
        return Quaternion(
            w0 * w1 - x0 * x1 - y0 * y1 - z0 * z1,
            w0 * x1 + x0 * w1 + y0 * z1 - z0 * y1,
            w0 * y1 - x0 * z1 + y0 * w1 + z0 * x1,
            w0 * z1 + x0 * y1 - y0 * x1 + z0 * w1,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        """(w, x, y, z) -> (w, -x, -y, -z); satisfies conj(ab) = conj(b) conj(a)."""
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        """Euclidean norm sqrt(w^2 + x^2 + y^2 + z^2); multiplicative: |ab| = |a||b|."""
        return math.sqrt(self.w * self.w + self.x * self.x
                         + self.y * self.y + self.z * self.z)

    def __repr__(self) -> str:
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)
