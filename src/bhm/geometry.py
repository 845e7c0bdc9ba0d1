"""Model spaces and chart atlases.

Three spaces share one atlas layout (charts G, Gcheck, L, K) and one family of
transition functions:

* S2C   - the complex 2-sphere {z in C^3 : z.z = 1},
* Q1B   - the bicomplex quadric, projectivized null bicomplex 3-vectors,
* Q2C   - the complex quadric {zeta0^2 = zeta1^2 + zeta2^2 + zeta3^2} in CP^3.

Q1B and Q2C are identified by the compactification map `phi_compactify` and
its inverse `psi_decompactify`; S2C is the common dense part.
"""

from __future__ import annotations

import math
from enum import Enum

from .core import Bicomplex, I2
from .errors import (
    DegenerateDirectionError,
    InvalidInputError,
    OutOfDomainError,
    PoleEncounteredError,
    ZeroDivisorError,
)
from .holo import HoloFn, Var

DEFAULT_TOL = 1e-10


class Space(str, Enum):
    S2C = "S2C"
    Q1B = "Q1B"
    Q2C = "Q2C"


class Chart(str, Enum):
    G = "G"
    GCHECK = "Gcheck"
    L = "L"
    K = "K"


def _chart(c) -> Chart:
    if isinstance(c, Chart):
        return c
    return Chart(c)


def _space(s) -> Space:
    if isinstance(s, Space):
        return s
    return Space(s)


# ---------------------------------------------------------------------------
# vectors


class CVec3:
    """Complex 3-vector with the complex-bilinear inner product."""

    __slots__ = ("u1", "u2", "u3")

    def __init__(self, u1=0.0, u2=0.0, u3=0.0):
        self.u1 = complex(u1)
        self.u2 = complex(u2)
        self.u3 = complex(u3)

    def __repr__(self):
        return f"CVec3({self.u1!r}, {self.u2!r}, {self.u3!r})"

    def __iter__(self):
        return iter((self.u1, self.u2, self.u3))

    def __add__(self, other):
        return CVec3(self.u1 + other.u1, self.u2 + other.u2, self.u3 + other.u3)

    def __sub__(self, other):
        return CVec3(self.u1 - other.u1, self.u2 - other.u2, self.u3 - other.u3)

    def __mul__(self, c):
        c = complex(c)
        return CVec3(self.u1 * c, self.u2 * c, self.u3 * c)

    __rmul__ = __mul__

    def __truediv__(self, c):
        c = complex(c)
        return CVec3(self.u1 / c, self.u2 / c, self.u3 / c)

    def __neg__(self):
        return CVec3(-self.u1, -self.u2, -self.u3)

    def dot(self, other) -> complex:
        return self.u1 * other.u1 + self.u2 * other.u2 + self.u3 * other.u3

    def square(self) -> complex:
        return self.dot(self)

    def cross(self, other) -> "CVec3":
        return CVec3(
            self.u2 * other.u3 - self.u3 * other.u2,
            self.u3 * other.u1 - self.u1 * other.u3,
            self.u1 * other.u2 - self.u2 * other.u1,
        )

    def norm(self) -> float:
        return math.sqrt(abs(self.u1) ** 2 + abs(self.u2) ** 2 + abs(self.u3) ** 2)

    def conjugate(self) -> "CVec3":
        return CVec3(self.u1.conjugate(), self.u2.conjugate(), self.u3.conjugate())

    def to_json(self):
        return [[c.real, c.imag] for c in self]

    @classmethod
    def from_json(cls, obj):
        return cls(*(complex(c[0], c[1]) if isinstance(c, (list, tuple)) else complex(c)
                     for c in obj))


class BVec3:
    """Bicomplex 3-vector with the bicomplex-bilinear inner product."""

    __slots__ = ("q1", "q2", "q3")

    def __init__(self, q1=None, q2=None, q3=None):
        self.q1 = q1 if isinstance(q1, Bicomplex) else Bicomplex(q1 or 0.0)
        self.q2 = q2 if isinstance(q2, Bicomplex) else Bicomplex(q2 or 0.0)
        self.q3 = q3 if isinstance(q3, Bicomplex) else Bicomplex(q3 or 0.0)

    def __repr__(self):
        return f"BVec3({self.q1!r}, {self.q2!r}, {self.q3!r})"

    def __iter__(self):
        return iter((self.q1, self.q2, self.q3))

    def __add__(self, other):
        return BVec3(self.q1 + other.q1, self.q2 + other.q2, self.q3 + other.q3)

    def __sub__(self, other):
        return BVec3(self.q1 - other.q1, self.q2 - other.q2, self.q3 - other.q3)

    def __mul__(self, c):
        return BVec3(self.q1 * c, self.q2 * c, self.q3 * c)

    __rmul__ = __mul__

    def __neg__(self):
        return BVec3(-self.q1, -self.q2, -self.q3)

    def inner(self, other) -> Bicomplex:
        return self.q1 * other.q1 + self.q2 * other.q2 + self.q3 * other.q3

    def square(self) -> Bicomplex:
        return self.inner(self)

    def star(self) -> "BVec3":
        return BVec3(self.q1.conj(), self.q2.conj(), self.q3.conj())

    def cn(self) -> complex:
        return self.q1.cn() + self.q2.cn() + self.q3.cn()

    def cross(self, other) -> "BVec3":
        return BVec3(
            self.q2 * other.q3 - self.q3 * other.q2,
            self.q3 * other.q1 - self.q1 * other.q3,
            self.q1 * other.q2 - self.q2 * other.q1,
        )

    def norm(self) -> float:
        return math.sqrt(self.q1.norm2() + self.q2.norm2() + self.q3.norm2())

    def norm2(self) -> float:
        return self.q1.norm2() + self.q2.norm2() + self.q3.norm2()

    def split(self):
        """i2-decomposition xi = u + v*i2 as two complex vectors."""
        return (
            CVec3(self.q1.z1, self.q2.z1, self.q3.z1),
            CVec3(self.q1.z2, self.q2.z2, self.q3.z2),
        )

    def ringleb_split(self):
        """Idempotent component vectors (e, f), each a CVec3."""
        e1, f1 = self.q1.ringleb()
        e2, f2 = self.q2.ringleb()
        e3, f3 = self.q3.ringleb()
        return CVec3(e1, e2, e3), CVec3(f1, f2, f3)

    @classmethod
    def from_split(cls, u: CVec3, v: CVec3):
        return cls(
            Bicomplex(u.u1, v.u1), Bicomplex(u.u2, v.u2), Bicomplex(u.u3, v.u3)
        )

    @classmethod
    def from_cvec(cls, u: CVec3):
        return cls(Bicomplex(u.u1), Bicomplex(u.u2), Bicomplex(u.u3))

    def to_json(self):
        return [q.to_reals() for q in self]

    @classmethod
    def from_json(cls, obj):
        return cls(*(Bicomplex.from_reals(v) for v in obj))


# ---------------------------------------------------------------------------
# projective helpers


def _proj_collinear(a, b, tol):
    """True when the complex coordinate tuples a, b span the same line."""
    na = max(abs(c) for c in a)
    nb = max(abs(c) for c in b)
    if na == 0.0 or nb == 0.0:
        return False
    n = len(a)
    worst = 0.0
    for i in range(n):
        for k in range(i + 1, n):
            worst = max(worst, abs(a[i] * b[k] - a[k] * b[i]))
    return worst <= tol * na * nb


# ---------------------------------------------------------------------------
# points of the three model spaces


class S2CPoint:
    """Point of the complex 2-sphere z1^2 + z2^2 + z3^2 = 1."""

    __slots__ = ("z1", "z2", "z3")

    def __init__(self, z1, z2, z3, tol=DEFAULT_TOL):
        self.z1 = complex(z1)
        self.z2 = complex(z2)
        self.z3 = complex(z3)
        scale = max(1.0, abs(self.z1) ** 2, abs(self.z2) ** 2, abs(self.z3) ** 2)
        res = abs(self.z1 ** 2 + self.z2 ** 2 + self.z3 ** 2 - 1.0)
        if res > tol * scale:
            raise InvalidInputError(f"not on the complex sphere (residual {res:.3e})")

    def __repr__(self):
        return f"S2CPoint({self.z1!r}, {self.z2!r}, {self.z3!r})"

    def __iter__(self):
        return iter((self.z1, self.z2, self.z3))

    def isclose(self, other, tol=DEFAULT_TOL):
        return (abs(self.z1 - other.z1) <= tol and abs(self.z2 - other.z2) <= tol
                and abs(self.z3 - other.z3) <= tol)

    def to_json(self):
        return [[c.real, c.imag] for c in self]

    @classmethod
    def from_json(cls, obj):
        return cls(*(complex(c[0], c[1]) for c in obj))


class QuadricPointB:
    """Point of the bicomplex quadric: [xi] with xi^2 = 0, xi not in the
    fattened origin (some component has CN(xi_i) != 0)."""

    __slots__ = ("xi",)

    def __init__(self, xi: BVec3, tol=1e-8, normalize=True):
        n2 = xi.norm2()
        if n2 == 0.0:
            raise InvalidInputError("zero vector")
        sq = xi.square()
        if abs(sq) > tol * n2:
            raise InvalidInputError(f"xi^2 = {sq!r} is not zero (|xi|^2 = {n2:.3e})")
        cns = [abs(q.cn()) for q in xi]
        best = max(range(3), key=lambda i: cns[i])
        if cns[best] <= tol * n2:
            raise InvalidInputError("all components have zero complex norm "
                                    "(point of the fattened origin)")
        if normalize:
            # real rescale first so the unit-component divide is well inside
            # the zero-divisor guard even for tiny representatives
            xi = xi * Bicomplex(1.0 / math.sqrt(n2))
            xi = xi * [xi.q1, xi.q2, xi.q3][best].inverse()
        self.xi = xi

    def __repr__(self):
        return f"QuadricPointB({self.xi!r})"

    def cn(self) -> complex:
        return self.xi.cn()

    def is_null_direction(self, tol=DEFAULT_TOL) -> bool:
        return abs(self.cn()) <= tol * self.xi.norm2()

    def __eq__(self, other):
        if not isinstance(other, QuadricPointB):
            return NotImplemented
        return self.isclose(other)

    def isclose(self, other: "QuadricPointB", tol=DEFAULT_TOL) -> bool:
        """Projective equality: proportionality by a bicomplex unit, tested on
        the idempotent component vectors."""
        e1, f1 = self.xi.ringleb_split()
        e2, f2 = other.xi.ringleb_split()
        return (_proj_collinear(tuple(e1), tuple(e2), tol)
                and _proj_collinear(tuple(f1), tuple(f2), tol))

    def to_json(self):
        return self.xi.to_json()

    @classmethod
    def from_json(cls, obj):
        return cls(BVec3.from_json(obj))


class QuadricPointC:
    """Point of the complex quadric zeta0^2 = zeta1^2 + zeta2^2 + zeta3^2."""

    __slots__ = ("zeta",)

    def __init__(self, zeta, tol=1e-8, normalize=True):
        zeta = tuple(complex(c) for c in zeta)
        if len(zeta) != 4:
            raise InvalidInputError("need 4 homogeneous coordinates")
        n2 = sum(abs(c) ** 2 for c in zeta)
        if n2 == 0.0:
            raise InvalidInputError("zero vector")
        res = abs(zeta[0] ** 2 - zeta[1] ** 2 - zeta[2] ** 2 - zeta[3] ** 2)
        if res > tol * n2:
            raise InvalidInputError(f"not on the quadric (residual {res:.3e})")
        if normalize:
            k = max(range(4), key=lambda i: abs(zeta[i]))
            zeta = tuple(c / zeta[k] for c in zeta)
        self.zeta = zeta

    def __repr__(self):
        return f"QuadricPointC({self.zeta!r})"

    def __iter__(self):
        return iter(self.zeta)

    def is_at_infinity(self, tol=DEFAULT_TOL) -> bool:
        return abs(self.zeta[0]) <= tol * max(abs(c) for c in self.zeta)

    def __eq__(self, other):
        if not isinstance(other, QuadricPointC):
            return NotImplemented
        return self.isclose(other)

    def isclose(self, other: "QuadricPointC", tol=DEFAULT_TOL) -> bool:
        return _proj_collinear(self.zeta, other.zeta, tol)

    def to_json(self):
        return [[c.real, c.imag] for c in self.zeta]

    @classmethod
    def from_json(cls, obj):
        return cls([complex(c[0], c[1]) for c in obj])


# ---------------------------------------------------------------------------
# chart atlases


def _require_unit(value: Bicomplex, what: str) -> Bicomplex:
    try:
        return value.inverse()
    except ZeroDivisorError:
        raise OutOfDomainError(f"{what} is not a unit: {value!r}")


def _s2c_from_chart(chart: Chart, g: Bicomplex) -> S2CPoint:
    c = g.cn()
    d = 1.0 + c
    if abs(d) <= DEFAULT_TOL * max(1.0, abs(c)):
        raise OutOfDomainError(f"CN(value) = -1 (value in H^1): {g!r}")
    g1, g2 = g.z1, g.z2
    if chart is Chart.G:
        return S2CPoint((1 - c) / d, 2 * g1 / d, 2 * g2 / d)
    if chart is Chart.GCHECK:
        return S2CPoint((c - 1) / d, 2 * g1 / d, -2 * g2 / d)
    if chart is Chart.L:
        return S2CPoint(-2 * g2 / d, (1 - c) / d, -2 * g1 / d)
    return S2CPoint(-2 * g1 / d, -2 * g2 / d, (1 - c) / d)


def _s2c_to_chart(chart: Chart, p: S2CPoint) -> Bicomplex:
    z1, z2, z3 = p.z1, p.z2, p.z3
    if chart is Chart.G:
        num, den = Bicomplex(z2, z3), 1 + z1
    elif chart is Chart.GCHECK:
        num, den = Bicomplex(z2, -z3), 1 - z1
    elif chart is Chart.L:
        num, den = Bicomplex(-z3, -z1), 1 + z2
    else:
        num, den = Bicomplex(-z1, -z2), 1 + z3
    if abs(den) <= DEFAULT_TOL:
        raise OutOfDomainError(f"point outside chart {chart.value} domain")
    return Bicomplex(num.z1 / den, num.z2 / den)


def _q1b_from_chart(chart: Chart, g: Bicomplex) -> QuadricPointB:
    _require_unit(g, "chart value")
    g2 = g * g
    if chart is Chart.G:
        xi = BVec3(-2 * g, 1 - g2, (1 + g2) * I2)
    elif chart is Chart.GCHECK:
        xi = BVec3(-2 * g, g2 - 1, (g2 + 1) * I2)
    elif chart is Chart.L:
        xi = BVec3((1 + g2) * I2, 2 * g, 1 - g2)
    else:
        xi = BVec3(1 - g2, (1 + g2) * I2, 2 * g)
    return QuadricPointB(xi)


def _q1b_to_chart(chart: Chart, p: QuadricPointB, alt=False) -> Bicomplex:
    """Chart value of a Q1B point; ``alt`` selects the second published
    fraction form (the two agree on the chart domain)."""
    x1, x2, x3 = p.xi.q1, p.xi.q2, p.xi.q3
    n2 = p.xi.norm2()
    if chart is Chart.G:
        dom, num, den = x1, x2 + x3 * I2, x1
        anum, aden = -x1, x2 - x3 * I2
    elif chart is Chart.GCHECK:
        dom, num, den = x1, x1, x2 + x3 * I2
        anum, aden = -(x2 - x3 * I2), x1
    elif chart is Chart.L:
        dom, num, den = x2, -(x3 + x1 * I2), x2
        anum, aden = x2, x3 - x1 * I2
    else:
        dom, num, den = x3, -(x1 + x2 * I2), x3
        anum, aden = x3, x1 - x2 * I2
    if abs(dom.cn()) <= DEFAULT_TOL * n2:
        raise OutOfDomainError(f"point outside chart {chart.value} domain")
    if alt:
        num, den = anum, aden
    return num * _require_unit(den, "chart denominator")


def _q2c_from_chart(chart: Chart, g: Bicomplex) -> QuadricPointC:
    c = g.cn()
    g1, g2 = g.z1, g.z2
    if chart is Chart.G:
        zeta = (1 + c, 1 - c, 2 * g1, 2 * g2)
    elif chart is Chart.GCHECK:
        zeta = (1 + c, c - 1, 2 * g1, -2 * g2)
    elif chart is Chart.L:
        zeta = (1 + c, -2 * g2, 1 - c, -2 * g1)
    else:
        zeta = (1 + c, -2 * g1, -2 * g2, 1 - c)
    return QuadricPointC(zeta)


def _q2c_to_chart(chart: Chart, p: QuadricPointC) -> Bicomplex:
    z0, z1, z2, z3 = p.zeta
    if chart is Chart.G:
        num, den = Bicomplex(z2, z3), z0 + z1
    elif chart is Chart.GCHECK:
        num, den = Bicomplex(z2, -z3), z0 - z1
    elif chart is Chart.L:
        num, den = Bicomplex(-z3, -z1), z0 + z2
    else:
        num, den = Bicomplex(-z1, -z2), z0 + z3
    if abs(den) <= DEFAULT_TOL * max(abs(c) for c in p.zeta):
        raise OutOfDomainError(f"point outside chart {chart.value} domain")
    return Bicomplex(num.z1 / den, num.z2 / den)


def chart_to_point(space, chart, value):
    """Parametrize a point of the model space from a chart value."""
    space = _space(space)
    chart = _chart(chart)
    if not isinstance(value, Bicomplex):
        value = Bicomplex(complex(value), 0.0)
    if space is Space.S2C:
        return _s2c_from_chart(chart, value)
    if space is Space.Q1B:
        return _q1b_from_chart(chart, value)
    return _q2c_from_chart(chart, value)


def point_to_chart(space, chart, point, alt=False):
    """Chart value of a point; left inverse of ``chart_to_point``."""
    space = _space(space)
    chart = _chart(chart)
    if space is Space.S2C:
        return _s2c_to_chart(chart, point)
    if space is Space.Q1B:
        return _q1b_to_chart(chart, point, alt=alt)
    return _q2c_to_chart(chart, point)


# transition functions, shared by all three atlases; built as HoloFn rational
# maps so they are bicomplex-holomorphic by construction
_Q = HoloFn.identity()
_TRANSITIONS = {
    (Chart.G, Chart.GCHECK): 1 / _Q,
    (Chart.GCHECK, Chart.G): 1 / _Q,
    (Chart.G, Chart.L): (_Q - 1) * HoloFn.const(I2) / (_Q + 1),
    (Chart.L, Chart.G): (1 - _Q * HoloFn.const(I2)) / (1 + _Q * HoloFn.const(I2)),
    (Chart.G, Chart.K): (_Q - HoloFn.const(I2)) / (_Q + HoloFn.const(I2)),
    (Chart.K, Chart.G): (1 + _Q) * HoloFn.const(I2) / (1 - _Q),
}


def transition_holofn(from_chart, to_chart) -> HoloFn:
    """The transition as a bicomplex-holomorphic rational map."""
    from_chart = _chart(from_chart)
    to_chart = _chart(to_chart)
    if from_chart == to_chart:
        return HoloFn(Var(), Var())
    key = (from_chart, to_chart)
    if key in _TRANSITIONS:
        return _TRANSITIONS[key]
    # route through the standard chart
    return _TRANSITIONS[(Chart.G, to_chart)].compose(
        _TRANSITIONS[(from_chart, Chart.G)]
    )


def transition(from_chart, to_chart, value):
    if not isinstance(value, Bicomplex):
        value = Bicomplex(complex(value), 0.0)
    fn = transition_holofn(from_chart, to_chart)
    try:
        return fn(value)
    except (PoleEncounteredError, ZeroDivisorError):
        raise OutOfDomainError(
            f"value {value!r} outside the domain of "
            f"{_chart(from_chart).value} -> {_chart(to_chart).value}"
        )


# ---------------------------------------------------------------------------
# identities and maps between the spaces


def fundamental_identity_check(xi: BVec3) -> float:
    """|CN(xi1)^2 - CN(xi2 - xi3*i2) * CN(xi2 + xi3*i2)| for null xi."""
    a = xi.q1.cn() ** 2
    b = (xi.q2 - xi.q3 * I2).cn() * (xi.q2 + xi.q3 * I2).cn()
    return abs(a - b)


def s2c_to_q2c(p: S2CPoint) -> QuadricPointC:
    return QuadricPointC((1.0, p.z1, p.z2, p.z3))


def q1b_star_to_s2c(p: QuadricPointB, tol=DEFAULT_TOL) -> S2CPoint:
    """[u + v*i2] -> u x v / u^2, the equivalence Q1B* ~ S2C."""
    cn = p.cn()
    if abs(cn) <= tol * p.xi.norm2():
        raise DegenerateDirectionError("CN(xi) = 0: no sphere direction")
    u, v = p.xi.split()
    w = u.cross(v) * (2.0 / cn)  # u^2 = CN(xi)/2 for null xi
    return S2CPoint(w.u1, w.u2, w.u3)


def complex_representative(p: QuadricPointB, tol=DEFAULT_TOL) -> CVec3:
    """Complex null vector xi_C with xi = lambda * xi_C, CN(lambda) != 0.

    Defined exactly for the null directions (CN(xi) = 0); the projective
    class of the output is unique.  Output is normalized so its largest
    component is 1.
    """
    cn = p.cn()
    n2 = p.xi.norm2()
    if abs(cn) > tol * n2:
        raise InvalidInputError(f"CN(xi) = {cn!r} is not zero")
    u, v = p.xi.split()
    rep = u if u.norm() >= v.norm() else v
    # the discarded side must be a complex multiple of the kept one
    k = max(range(3), key=lambda i: abs(tuple(rep)[i]))
    other = v if rep is u else u
    mu = tuple(other)[k] / tuple(rep)[k]
    residual = max(abs(o - mu * r) for o, r in zip(other, rep))
    if residual > math.sqrt(tol) * math.sqrt(n2):
        raise InvalidInputError("i2-components are not collinear: xi is not "
                                "a multiple of a complex vector")
    scale = tuple(rep)[k]
    return CVec3(rep.u1 / scale, rep.u2 / scale, rep.u3 / scale)


def phi_compactify(p: QuadricPointB, tol=DEFAULT_TOL) -> QuadricPointC:
    """The diffeomorphism Q1B -> Q2C: [CN(xi), (xi x xi*) i2] away from the
    null directions, [0, xi_C] on them."""
    cn = p.cn()
    if abs(cn) > tol * p.xi.norm2():
        u, v = p.xi.split()
        w = u.cross(v)  # (xi x xi*) i2 = 2 u x v
        return QuadricPointC((cn, 2 * w.u1, 2 * w.u2, 2 * w.u3))
    rep = complex_representative(p, tol=tol)
    return QuadricPointC((0.0, rep.u1, rep.u2, rep.u3))


def _psi_chart_formula(k: int, zeta) -> BVec3:
    """Raw inverse formula on the k-th chart (V_G, V_Gcheck, V_L, V_K)."""
    z0, z1, z2, z3 = zeta
    if k == 0:
        s, t = z0 + z1, Bicomplex(z2, z3)
        s2, t2 = Bicomplex(s * s), t * t
        return BVec3(-s * 2 * t, s2 - t2, (s2 + t2) * I2)
    if k == 1:
        s, t = z0 - z1, Bicomplex(z2, -z3)
        s2, t2 = Bicomplex(s * s), t * t
        return BVec3(-s * 2 * t, t2 - s2, (s2 + t2) * I2)
    if k == 2:
        s, t = z0 + z2, Bicomplex(z3, z1)
        s2, t2 = Bicomplex(s * s), t * t
        return BVec3((s2 + t2) * I2, -s * 2 * t, s2 - t2)
    s, t = z0 + z3, Bicomplex(z1, z2)
    s2, t2 = Bicomplex(s * s), t * t
    return BVec3(s2 - t2, (s2 + t2) * I2, -s * 2 * t)


def psi_decompactify(p: QuadricPointC) -> QuadricPointB:
    """Two-sided inverse of ``phi_compactify``, assembled from the four chart
    formulas; the chart with the largest denominator is used."""
    z0, z1, z2, z3 = p.zeta
    dens = (abs(z0 + z1), abs(z0 - z1), abs(z0 + z2), abs(z0 + z3))
    k = max(range(4), key=lambda i: dens[i])
    return QuadricPointB(_psi_chart_formula(k, p.zeta))


def forget_orientation(p, tol=DEFAULT_TOL) -> CVec3:
    """Projection to CP^2 forgetting the complex-orientation.

    Q2C points map by dropping the first homogeneous coordinate (a branched
    double cover, branched over the null conic); Q1B points are sent through
    ``phi_compactify`` first.  Output is a projective representative
    normalized so its largest component is 1.
    """
    if isinstance(p, QuadricPointB):
        p = phi_compactify(p, tol=tol)
    _, z1, z2, z3 = p.zeta
    n = max(abs(z1), abs(z2), abs(z3))
    if n <= tol:
        raise InvalidInputError("last three homogeneous coordinates vanish")
    scale = max((z1, z2, z3), key=abs)
    return CVec3(z1 / scale, z2 / scale, z3 / scale)


def cp2_isclose(a: CVec3, b: CVec3, tol=DEFAULT_TOL) -> bool:
    return _proj_collinear(tuple(a), tuple(b), tol)
