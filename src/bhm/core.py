"""Bicomplex and hyperbolic number arithmetic.

The ``Bicomplex`` value type comes from the compiled extension when it is
available; otherwise the pure-Python twin is used.  Set ``BHM_PURE_PYTHON=1``
to force the fallback.  Everything downstream imports the type from here.
"""

import os
from math import sqrt
from typing import NamedTuple

from .errors import ZeroDivisorError  # noqa: F401  (re-exported for callers)

if os.environ.get("BHM_PURE_PYTHON"):
    from ._kernels_py import BACKEND, ZERO_DIVISOR_RTOL, Bicomplex
else:
    try:
        from ._kernels import BACKEND, ZERO_DIVISOR_RTOL, Bicomplex
    except ImportError:  # extension not built
        from ._kernels_py import BACKEND, ZERO_DIVISOR_RTOL, Bicomplex

__all__ = [
    "BACKEND",
    "ZERO_DIVISOR_RTOL",
    "Bicomplex",
    "Hyperbolic",
    "RinglebPair",
    "ZERO",
    "ONE",
    "I1",
    "I2",
    "J",
    "IDEM_E",
    "IDEM_F",
    "complex_norm",
    "conj_star",
    "inverse",
    "real_norm",
    "ringleb_decompose",
    "ringleb_recompose",
    "embed_complex",
    "embed_complex_i1",
    "embed_hyperbolic",
    "isclose",
]

ZERO = Bicomplex(0.0, 0.0)
ONE = Bicomplex(1.0, 0.0)
I1 = Bicomplex(1j, 0.0)
I2 = Bicomplex(0.0, 1.0)
J = Bicomplex(0.0, 1j)
# idempotents (1 -+ j)/2; e-parts live on IDEM_E, f-parts on IDEM_F
IDEM_E = Bicomplex(0.5, -0.5j)
IDEM_F = Bicomplex(0.5, 0.5j)


class RinglebPair(NamedTuple):
    e_part: complex
    f_part: complex


class Hyperbolic:
    """Hyperbolic (split-complex) number x + y*j with j^2 = +1."""

    __slots__ = ("x", "y")

    def __init__(self, x=0.0, y=0.0):
        self.x = float(x)
        self.y = float(y)

    def __repr__(self):
        return f"Hyperbolic({self.x!r}, {self.y!r})"

    def __eq__(self, other):
        other = _coerce_hyp(other)
        if other is None:
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __add__(self, other):
        other = _coerce_hyp(other)
        if other is None:
            return NotImplemented
        return Hyperbolic(self.x + other.x, self.y + other.y)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_hyp(other)
        if other is None:
            return NotImplemented
        return Hyperbolic(self.x - other.x, self.y - other.y)

    def __rsub__(self, other):
        other = _coerce_hyp(other)
        if other is None:
            return NotImplemented
        return Hyperbolic(other.x - self.x, other.y - self.y)

    def __mul__(self, other):
        other = _coerce_hyp(other)
        if other is None:
            return NotImplemented
        return Hyperbolic(
            self.x * other.x + self.y * other.y,
            self.x * other.y + self.y * other.x,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Hyperbolic(self.x / other, self.y / other)
        return NotImplemented

    def __neg__(self):
        return Hyperbolic(-self.x, -self.y)

    def __abs__(self):
        return sqrt(self.x * self.x + self.y * self.y)

    def to_reals(self):
        return [self.x, self.y]

    @classmethod
    def from_reals(cls, vals):
        x, y = vals
        return cls(x, y)


def _coerce_hyp(value):
    if isinstance(value, Hyperbolic):
        return value
    if isinstance(value, (int, float)):
        return Hyperbolic(value, 0.0)
    return None


def complex_norm(q) -> complex:
    """CN(q) = q1^2 + q2^2; q is a unit iff CN(q) != 0."""
    return q.cn()


def conj_star(q):
    return q.conj()


def inverse(q, rtol=None):
    """q^-1 = q*/CN(q); raises ZeroDivisorError off the unit group."""
    if rtol is None:
        return q.inverse()
    return q.inverse(rtol)


def real_norm(q) -> float:
    return abs(q)


def ringleb_decompose(q) -> RinglebPair:
    """q = e*(1-j)/2 + f*(1+j)/2 with e = q1 + i1*q2, f = q1 - i1*q2."""
    e, f = q.ringleb()
    return RinglebPair(e, f)


def ringleb_recompose(e_part, f_part=None):
    if f_part is None:
        e_part, f_part = e_part
    return Bicomplex.from_ringleb(e_part, f_part)


def embed_complex(z):
    """iota_C(x + y*i) = x + y*i2 (the default codomain embedding)."""
    z = complex(z)
    return Bicomplex(z.real, z.imag)


def embed_complex_i1(z):
    """Alternative embedding x + y*i -> x + y*i1 (the i1-plane)."""
    return Bicomplex(complex(z), 0.0)


def embed_hyperbolic(h):
    """iota_D(x + y*j) = x + (y*i1)*i2; preserves the arithmetic."""
    return Bicomplex(complex(h.x), complex(0.0, h.y))


def isclose(p, q, rel_tol=1e-12, abs_tol=0.0):
    """Componentwise closeness of two bicomplex numbers."""
    d = p - q
    scale = max(abs(p), abs(q), 1.0 if abs_tol == 0.0 else 0.0)
    return abs(d) <= max(rel_tol * scale, abs_tol)
