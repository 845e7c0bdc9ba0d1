"""Bicomplex and hyperbolic number arithmetic: the one scalar kernel.

A bicomplex number is stored in the i2-decomposition q = z1 + z2*i2 with
z1, z2 complex (the i1-plane).  Units i1, i2 and j = i1*i2 satisfy
i1^2 = i2^2 = -1, j^2 = +1.  A plain ``complex`` mixed into arithmetic is
read as an element of the i1-plane, i.e. z -> z + 0*i2.  Everything
downstream imports the type from here.
"""

from math import sqrt

import numpy as np

from .errors import ZeroDivisorError

__all__ = [
    "BACKEND",
    "C_POWI_MAX",
    "ZERO_DIVISOR_RTOL",
    "BArray",
    "Bicomplex",
    "CArray",
    "HArray",
    "Hyperbolic",
    "ZERO",
    "ONE",
    "I1",
    "I2",
    "J",
    "IDEM_E",
    "IDEM_F",
    "embed_complex",
    "embed_complex_i1",
    "embed_hyperbolic",
    "isclose",
]

# |CN(q)| <= RTOL * max(1, |q|^2) classifies q as a non-unit
ZERO_DIVISOR_RTOL = 1e-12

# CPython's complex ** int squares and multiplies (c_powi) up to this |n|;
# CArray copies it that far
C_POWI_MAX = 100

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

    # the operators build their result with _make: the components of a
    # Bicomplex are Python complex numbers, and so are their sums and products

    def __add__(self, other):
        if type(other) is not Bicomplex:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _make(self.z1 + other.z1, self.z2 + other.z2)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Bicomplex:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _make(self.z1 - other.z1, self.z2 - other.z2)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _make(other.z1 - self.z1, other.z2 - self.z2)

    def __mul__(self, other):
        if type(other) is not Bicomplex:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.z1, self.z2
        c, d = other.z1, other.z2
        return _make(a * c - b * d, a * d + b * c)

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
        return _make(-self.z1, -self.z2)

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


def _make(z1: complex, z2: complex) -> Bicomplex:
    """A Bicomplex from two Python complex numbers, with no conversion."""
    q = _new(Bicomplex)
    q.z1 = z1
    q.z2 = z2
    return q


_new = object.__new__


def _coerce(value):
    if isinstance(value, Bicomplex):
        return value
    if isinstance(value, (int, float, complex)):
        return Bicomplex(value, 0.0)
    if isinstance(value, BArray):
        return None  # lanes: BArray's reflected operator runs
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


class HArray:
    """Hyperbolic lanes x + y*j with float64 parts: the ``Hyperbolic``
    operators, lane by lane, with the bits of the scalar ones.  An ``int``,
    ``float`` or float-array operand is ``(v, 0.0)``, as ``_coerce_hyp``
    makes it, so a product with it still adds ``y * 0.0``; ``abs`` is
    ``sqrt(x*x + y*y)``, not ``hypot``."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def __getitem__(self, index):
        return HArray(self.x[index], self.y[index])

    def __add__(self, other):
        o = _hyperbolic_operand(other)
        if o is None:
            return NotImplemented
        return HArray(self.x + o[0], self.y + o[1])

    def __sub__(self, other):
        o = _hyperbolic_operand(other)
        if o is None:
            return NotImplemented
        return HArray(self.x - o[0], self.y - o[1])

    def __mul__(self, other):
        o = _hyperbolic_operand(other)
        if o is None:
            return NotImplemented
        return HArray(self.x * o[0] + self.y * o[1], self.x * o[1] + self.y * o[0])

    __rmul__ = __mul__

    def __abs__(self):
        return np.sqrt(self.x * self.x + self.y * self.y)


def _hyperbolic_operand(value):
    if isinstance(value, HArray):
        return value.x, value.y
    if isinstance(value, np.ndarray):
        return value, 0.0
    if isinstance(value, (int, float)):
        return float(value), 0.0
    return None


class CArray:
    """Complex float64 arrays whose arithmetic gives, lane by lane, the bits
    of CPython's ``complex`` arithmetic.

    numpy's own complex ``*``, ``/`` and ``abs`` round differently from
    CPython's, so each operation is written out on the real and imaginary
    parts (``re``, ``im``, float64 arrays or floats):

    * ``+``, ``-`` and negation act on each part;
    * ``*`` is the split-real product ``(ar*br - ai*bi, ar*bi + ai*br)``;
    * ``/`` is Smith's algorithm as in CPython's ``_Py_c_quot``;
    * ``abs`` is ``np.hypot``;
    * ``** n`` is CPython 3.11's ``c_powi`` for an int |n| <= C_POWI_MAX;
    * an ``int`` or ``float`` operand is promoted to ``x + 0j`` first, as
      CPython up to 3.13 does in mixed arithmetic, and so is a float array,
      a real number per lane.

    Where CPython raises ZeroDivisionError, a Smith quotient gives a NaN lane,
    and where a power raises OverflowError, an infinite part: callers mask
    those lanes.  The arithmetic runs under the caller's numpy error state,
    as ``BArray``'s and ``HArray``'s do.
    """

    __slots__ = ("re", "im")
    # numpy defers to these lanes: float lanes minus a CArray (as in
    # BArray's reflected -) is __rsub__, not an object array
    __array_ufunc__ = None

    def __init__(self, re, im):
        self.re = re
        self.im = im

    @classmethod
    def of(cls, values):
        a = np.asarray(values, dtype=np.complex128)
        return cls(a.real.copy(), a.imag.copy())

    def complex(self):
        """The lanes as one complex128 array; assembled part by part, since
        ``re + 1j*im`` would turn a -0.0 real part into +0.0."""
        out = np.empty(np.broadcast(self.re, self.im).shape, dtype=np.complex128)
        out.real = self.re
        out.imag = self.im
        return out

    def __getitem__(self, index):
        return CArray(self.re[index], self.im[index])

    def __add__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return CArray(self.re + o[0], self.im + o[1])

    __radd__ = __add__

    def __sub__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return CArray(self.re - o[0], self.im - o[1])

    def __rsub__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return CArray(o[0] - self.re, o[1] - self.im)

    def __neg__(self):
        return CArray(-self.re, -self.im)

    def conjugate(self):
        return CArray(self.re, -self.im)

    def __mul__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        br, bi = o
        return CArray(self.re * br - self.im * bi, self.re * bi + self.im * br)

    __rmul__ = __mul__  # both parts of the product commute

    def __truediv__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _quotient(self.re, self.im, *o)

    def __rtruediv__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _quotient(*o, self.re, self.im)

    def __pow__(self, n):
        """``complex ** n`` as CPython 3.11 computes it for an int
        |n| <= C_POWI_MAX (``c_powi``): square and multiply from 1 + 0j, then
        1 / x**|n| for a negative n.  numpy's own power rounds differently,
        and CPython takes another algorithm past the limit."""
        if not isinstance(n, int) or abs(n) > C_POWI_MAX:
            return NotImplemented
        shape = np.shape(self.re)
        result = CArray(np.ones(shape), np.zeros(shape))
        base = self
        m = abs(n)
        mask = 1
        while m >= mask:
            if m & mask:
                result = result * base
            mask <<= 1
            if m >= mask:
                base = base * base
        return result if n > 0 else 1.0 / result

    def __abs__(self):
        return np.hypot(self.re, self.im)

    def isfinite(self):
        return np.isfinite(self.re) & np.isfinite(self.im)


def _operand(value):
    if isinstance(value, CArray):
        return value.re, value.im
    if isinstance(value, complex):
        return value.real, value.imag
    if isinstance(value, (int, float)):
        return float(value), 0.0
    if isinstance(value, np.ndarray):
        return value, 0.0
    return None


def _quotient(ar, ai, br, bi):
    """CPython's ``_Py_c_quot`` on real and imaginary parts."""
    br, bi = np.asarray(br, dtype=float), np.asarray(bi, dtype=float)
    abs_br = np.abs(br)
    abs_bi = np.abs(bi)
    # |br| >= |bi| divides through by br, |bi| > |br| by bi; a NaN part
    # takes neither branch, and a zero divisor raises there
    by_re = (abs_br >= abs_bi) & (abs_br != 0.0)
    by_im = abs_bi > abs_br
    ratio = np.where(by_re, bi / br, br / bi)
    denom_re = br + bi * ratio
    denom_im = br * ratio + bi
    re = np.where(by_re, (ar + ai * ratio) / denom_re,
                  np.where(by_im, (ar * ratio + ai) / denom_im, np.nan))
    im = np.where(by_re, (ai - ar * ratio) / denom_re,
                  np.where(by_im, (ai * ratio - ar) / denom_im, np.nan))
    return CArray(re, im)


class BArray:
    """Bicomplex lanes z1 + z2*i2 with ``CArray`` parts: the ``Bicomplex``
    operators and norms, lane by lane, written with ``CArray``'s, so each
    lane has the bits of the scalar ones.

    An operand may be lanes, a ``Bicomplex`` constant, or complex lanes,
    float lanes or a number in the i1-plane, promoted to (x + 0j, 0j) as
    ``_coerce`` does.
    A ``Bicomplex`` on the left hands its operator to these lanes, which
    compute it in the scalar operand order (the product commutes bit for
    bit).  ``** 2`` on a float is libm's ``pow``, which ``np.float_power``
    calls and numpy's ``**`` does not.
    """

    __slots__ = ("z1", "z2")

    def __init__(self, z1: CArray, z2: CArray):
        self.z1 = z1
        self.z2 = z2

    def __getitem__(self, index):
        return BArray(self.z1[index], self.z2[index])

    def __add__(self, other):
        o = _bicomplex_operand(other)
        if o is None:
            return NotImplemented
        return BArray(self.z1 + o[0], self.z2 + o[1])

    __radd__ = __add__

    def __sub__(self, other):
        o = _bicomplex_operand(other)
        if o is None:
            return NotImplemented
        return BArray(self.z1 - o[0], self.z2 - o[1])

    def __rsub__(self, other):
        o = _bicomplex_operand(other)
        if o is None:
            return NotImplemented
        return BArray(o[0] - self.z1, o[1] - self.z2)

    def __mul__(self, other):
        o = _bicomplex_operand(other)
        if o is None:
            return NotImplemented
        a, b = self.z1, self.z2
        c, d = o
        return BArray(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __abs__(self):
        return np.sqrt(self.norm2())

    def norm2(self):
        return np.float_power(abs(self.z1), 2) + np.float_power(abs(self.z2), 2)

    def cn(self):
        return self.z1 * self.z1 + self.z2 * self.z2

    def ringleb(self):
        return (self.z1 + 1j * self.z2, self.z1 - 1j * self.z2)

    @classmethod
    def from_ringleb(cls, e: CArray, f: CArray):
        return cls((e + f) / 2.0, 1j * (f - e) / 2.0)

    def isfinite(self):
        return self.z1.isfinite() & self.z2.isfinite()


def _bicomplex_operand(value):
    """An operand of ``BArray`` arithmetic as its two parts (z1, z2), or
    None."""
    if isinstance(value, (BArray, Bicomplex)):
        return value.z1, value.z2
    if isinstance(value, (CArray, np.ndarray)):
        return value, 0.0
    if isinstance(value, (int, float, complex)):
        return complex(value), 0.0
    return None


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
