"""Bicomplex and hyperbolic number arithmetic: the one scalar kernel.

A bicomplex number is stored in the i2-decomposition q = z1 + z2*i2 with
z1, z2 complex (the i1-plane).  Units i1, i2 and j = i1*i2 satisfy
i1^2 = i2^2 = -1, j^2 = +1.  A plain ``complex`` mixed into arithmetic is
read as an element of the i1-plane, i.e. z -> z + 0*i2.  Everything
downstream imports the type from here.
"""

from math import sqrt
from typing import NamedTuple

from .errors import ZeroDivisorError

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

# |CN(q)| <= RTOL * max(1, |q|^2) classifies q as a non-unit
ZERO_DIVISOR_RTOL = 1e-12

# the one scalar kernel; benchmark reports record its name
BACKEND = "python"


class Bicomplex:
    __slots__ = ("z1", "z2")

    def __init__(self, z1=0.0, z2=0.0):
        self.z1 = complex(z1)
        self.z2 = complex(z2)

    # components in the real basis (1, i1, i2, j)
    @property
    def x1(self):
        return self.z1.real

    @property
    def x2(self):
        return self.z1.imag

    @property
    def x3(self):
        return self.z2.real

    @property
    def x4(self):
        return self.z2.imag

    def __repr__(self):
        return f"Bicomplex({self.z1!r}, {self.z2!r})"

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.z1 == other.z1 and self.z2 == other.z2

    def __hash__(self):
        return hash((self.z1, self.z2))

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Bicomplex(self.z1 + other.z1, self.z2 + other.z2)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Bicomplex(self.z1 - other.z1, self.z2 - other.z2)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Bicomplex(other.z1 - self.z1, other.z2 - self.z2)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Bicomplex(
            self.z1 * other.z1 - self.z2 * other.z2,
            self.z1 * other.z2 + self.z2 * other.z1,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return Bicomplex(-self.z1, -self.z2)

    def __pos__(self):
        return self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = Bicomplex(1.0, 0.0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __abs__(self):
        return sqrt(abs(self.z1) ** 2 + abs(self.z2) ** 2)

    def norm2(self):
        """Squared real norm |q|^2 = |z1|^2 + |z2|^2."""
        return abs(self.z1) ** 2 + abs(self.z2) ** 2

    def cn(self):
        """Complex (square) norm CN(q) = z1^2 + z2^2."""
        return self.z1 * self.z1 + self.z2 * self.z2

    def conj(self):
        """Star conjugate q* = z1 - z2*i2; q*q^* = CN(q)."""
        return Bicomplex(self.z1, -self.z2)

    def is_unit(self, rtol=None):
        if rtol is None:
            rtol = ZERO_DIVISOR_RTOL
        return abs(self.cn()) > rtol * max(1.0, self.norm2())

    def inverse(self, rtol=None):
        if rtol is None:
            rtol = ZERO_DIVISOR_RTOL
        c = self.cn()
        if abs(c) <= rtol * max(1.0, self.norm2()):
            raise ZeroDivisorError(f"not a unit: CN(q) = {c!r} for q = {self!r}")
        return Bicomplex(self.z1 / c, -self.z2 / c)

    def ringleb(self):
        """Idempotent components (e, f) with q = e*(1-j)/2 + f*(1+j)/2."""
        return (self.z1 + 1j * self.z2, self.z1 - 1j * self.z2)

    @classmethod
    def from_ringleb(cls, e, f):
        e = complex(e)
        f = complex(f)
        return cls((e + f) / 2.0, 1j * (f - e) / 2.0)

    def to_reals(self):
        """Coefficients [x1, x2, x3, x4] in the basis (1, i1, i2, j)."""
        return [self.z1.real, self.z1.imag, self.z2.real, self.z2.imag]

    @classmethod
    def from_reals(cls, vals):
        x1, x2, x3, x4 = vals
        return cls(complex(x1, x2), complex(x3, x4))


def _coerce(value):
    if isinstance(value, Bicomplex):
        return value
    if isinstance(value, (int, float, complex)):
        return Bicomplex(value, 0.0)
    z1 = getattr(value, "z1", None)
    if z1 is not None:
        return Bicomplex(z1, value.z2)
    return None


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
