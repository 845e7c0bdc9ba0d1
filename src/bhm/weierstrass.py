"""Congruences of lines and planes from bicomplex-holomorphic data (G, H).

The congruence equation at parameter q,

    F(z, q) = -2*G(q)*z1 + (1 - G(q)^2)*z2 + (1 + G(q)^2)*z3*i2 - 2*H(q) = 0,

defines for each q a fibre in C^3: a non-null line when CN(G(q)) != -1, and a
degenerate plane or the empty set when CN(G(q)) = -1.  Solving F = 0 for q at
fixed z yields complex-harmonic morphisms implicitly; the solver splits F
into its two idempotent components, each a single-variable complex
polynomial, and combines their roots pairwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from itertools import accumulate, chain, compress, count, islice
from typing import Callable, NamedTuple

import numpy as np

from .core import BArray, Bicomplex, CArray, I2, _abs
from .errors import (
    DegenerateAllComponentsError,
    DegenerateDirectionError,
    DegeneratePointError,
    InvalidInputError,
    RangeOverflowError,
)
from .geometry import BVec3, CVec3
from .holo import HoloFn, _evaluate, degree_bound, poly_add, poly_coefficients, poly_mul

GRAD_NULL_TOL = 1e-9
# a fibre is a degenerate plane or empty where |CN(G) + 1| is below
# DEGENERATE_TOL times max(1, |G|^2)
DEGENERATE_TOL = 1e-9
# a side of dF/dq is zero below GRAD_TOL times its coefficient scale
GRAD_TOL = 1e-8
# lanes one block holds: a root pass takes BLOCK_LANES / d^2 anchors (at
# least one) for components of degree d >= 2, so the companion matrices,
# root pairs and root lists one block holds stay bounded at the CLI's caps;
# a one-lane pass (fibres, verify --samples, charts) takes BLOCK_LANES values
BLOCK_LANES = 1024


class WeierstrassData:
    """Holomorphic data (G, H) with cached derivative trees and congruence
    coefficients."""

    def __init__(self, G: HoloFn, H: HoloFn):
        self.G = G
        self.H = H
        self.dG = G.derivative()
        self.dH = H.derivative()
        self.d2G = self.dG.derivative()
        self.d2H = self.dH.derivative()

    @cached_property
    def congruence_coefficients(self):
        """The z-independent coefficient lists (G, 1 - G^2, 1 + G^2, -2H) of
        the e-side and of the f-side.

        Built on first use: only polynomial data has them, and ``fibre_at``
        serves any data.
        """
        g1 = poly_coefficients(self.G.f1)
        g2 = poly_coefficients(self.G.f2)
        h1 = poly_coefficients(self.H.f1)
        h2 = poly_coefficients(self.H.f2)

        def side(g, h):
            # tuples: every solve at every z shares them
            gg = poly_mul(g, g)
            return (tuple(g), tuple(poly_add([1 + 0j], [-c for c in gg])),
                    tuple(poly_add([1 + 0j], gg)), tuple(-((2.0 + 0j) * c) for c in h))

        return side(g1, h1), side(g2, h2)

    def __repr__(self):
        return f"WeierstrassData(G={self.G!r}, H={self.H!r})"


def xi_direction(data: WeierstrassData, q: Bicomplex) -> BVec3:
    """Unnormalized null triple (-2G, 1 - G^2, (1 + G^2) i2) at q."""
    return BVec3(*_xi(data.G(q)))


# The formulas below run on scalars (Bicomplex, complex) and on lanes
# (BArray, CArray) alike: the scalar path, RootBatch and FibreBatch share
# them, so each lane gets the scalar bits.


def _xi(g):
    """The null triple (-2G, 1 - G^2, (1 + G^2) i2) from G's value."""
    g2 = g * g
    return (-2 * g, 1 - g2, (1 + g2) * I2)


def _cross(u, v):
    """``CVec3.cross`` on triples."""
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _unit_cross(u, v, cn):
    """gamma = (u x v) * 2 / cn, the unit direction of w = u + v i2 with
    CN(w) = cn (u^2 = cn / 2 where w is null): ``gauss_map``'s direction,
    and the line fibre's, where w = xi."""
    k = 2.0 / cn
    return tuple(c * k for c in _cross(u, v))


def _line_system(g, h):
    """The non-null line fibre at G = g, H = h as a linear system: the rows
    u, v and gamma = (u x v) * 2 / CN(xi) of its matrix, where xi = u + v i2
    (gamma is also the line's direction), and the first two entries
    (2 h1, 2 h2) of its right-hand side, the third being 0."""
    xi = _xi(g)
    u = tuple(c.z1 for c in xi)
    v = tuple(c.z2 for c in xi)
    gamma = _unit_cross(u, v, xi[0].cn() + xi[1].cn() + xi[2].cn())
    return (u, v, gamma), (2 * h.z1, 2 * h.z2)


def _gradient(g, fq_inv):
    """The implicit gradient -xi(G) / F_q from G's value and 1 / F_q."""
    m = -1 * fq_inv
    return tuple(c * m for c in _xi(g))


def _null_parts(grad):
    """|grad|^2 and CN(grad), summed as ``BVec3.norm2`` and ``BVec3.cn``."""
    n2 = grad[0].norm2() + grad[1].norm2() + grad[2].norm2()
    cn = grad[0].cn() + grad[1].cn() + grad[2].cn()
    return n2, cn


def _laplacian(g, dg, d2g, d2h, z, grad, fq_inv):
    """The implicit Laplacian: the second-order relation summed over the
    coordinates, F_q Phi_ii + F_qq Phi_i^2 + 2 F_{z_i q} Phi_i = 0."""
    xi_p = (-2 * dg, -2 * g * dg, (2 * g * dg) * I2)
    gdg2 = d2g * g + dg * dg
    fqq = (-2 * d2g * z.u1 - 2 * gdg2 * z.u2
           + (2 * gdg2 * z.u3) * I2 - 2 * d2h)
    lap = Bicomplex(0.0)
    for gi, xpi in zip(grad, xi_p):
        lap = lap - (fqq * gi * gi + 2 * xpi * gi) * fq_inv
    return lap


def _dot(u, v):
    """``CVec3.dot`` on triples."""
    u1, u2, u3 = u
    v1, v2, v3 = v
    return u1 * v1 + u2 * v2 + u3 * v3


def _square(x):
    """``x ** 2`` by libm's ``pow``: CPython's float power on a float, which
    raises OverflowError past the double range, ``np.float_power`` on lanes."""
    return np.float_power(x, 2) if isinstance(x, np.ndarray) else x ** 2


def _norm(u):
    """``CVec3.norm`` on a triple."""
    u1, u2, u3 = u
    total = _square(_abs(u1)) + _square(_abs(u2)) + _square(_abs(u3))
    return np.sqrt(total) if isinstance(total, np.ndarray) else math.sqrt(total)


def _max(a, b):
    """``max(a, b)`` as Python picks it: b only where b > a (``np.maximum``
    differs on NaN)."""
    greater = b > a
    if isinstance(greater, np.ndarray):
        return np.where(greater, b, a)
    return b if greater else a


def _line_point(base, direction, t):
    """The point of a line at the parameter t (complex)."""
    return tuple(b + d * t for b, d in zip(base, direction))


def _plane_frame(normal, offset):
    """The frame ``sample_points`` spans the plane <normal, z> = offset
    with: its point nbar * offset / <normal, nbar> and the null direction
    normal x nbar, where nbar is the conjugate normal."""
    nbar = tuple(c.conjugate() for c in normal)
    s = offset / _dot(normal, nbar)
    return tuple(c * s for c in nbar), _cross(normal, nbar)


def _plane_point(z0, normal, w2, t, s):
    """The point of a plane's frame at the parameter t (complex), with
    s = t * t / 4 (complex)."""
    return tuple(a + n * t + w * s for a, n, w in zip(z0, normal, w2))


def _line_miss(base, direction, z):
    """The distance ``contains`` measures from z to a line: the norm of
    d - direction (direction . d), with d = z - base."""
    d = tuple(a - b for a, b in zip(z, base))
    c = _dot(direction, d)
    return _norm(tuple(a - u * c for a, u in zip(d, direction)))


def _plane_miss(normal, offset, z):
    """The distance ``contains`` measures from z to a plane."""
    return _abs(_dot(normal, z) - offset)


def _residual(g, h, z):
    """|xi(G) . z - 2H|, the congruence residual at z, from G's and H's
    values."""
    return abs(_dot(_xi(g), z) - 2 * h)


@dataclass
class XiValue:
    vec: BVec3
    normalized: bool  # False when CN(2H) = 0 and the direction triple is returned


def xi_from_gh(data: WeierstrassData, q: Bicomplex) -> XiValue:
    """Null data xi(q) with <xi(q), z>_B = 1 along the fibre.

    When 2H(q) is not a unit the normalization is impossible; the direction
    triple is returned flagged, matching the convention that the congruence
    equation keeps its meaning at H = 0.
    """
    direction = xi_direction(data, q)
    h2 = 2 * data.H(q)
    if not h2.is_unit():
        return XiValue(direction, False)
    return XiValue(direction * h2.inverse(), True)


class FibreTag(str, Enum):
    NON_NULL_LINE = "non_null_line"
    DEGENERATE_PLANE = "degenerate_plane"
    EMPTY = "empty"


@dataclass
class FibreDescription:
    tag: FibreTag
    base: CVec3 | None = None        # point of the line / of the plane
    direction: CVec3 | None = None   # unit line direction (direction^2 = 1)
    normal: CVec3 | None = None      # null plane normal
    offset: complex | None = None    # plane is <normal, z>_C = offset

    def contains(self, z: CVec3, tol=1e-8) -> bool:
        """Point-on-fibre test with residual relative to |z|."""
        scale = _max(1.0, _norm(z))
        if self.tag is FibreTag.NON_NULL_LINE:
            return _line_miss(self.base, self.direction, z) <= tol * scale
        if self.tag is FibreTag.DEGENERATE_PLANE:
            return _plane_miss(self.normal, self.offset, z) <= tol * scale
        return False

    def sample_points(self, params) -> list[CVec3]:
        """Points on the fibre at the given real/complex parameters."""
        if self.tag is FibreTag.NON_NULL_LINE:
            return [CVec3(*_line_point(self.base, self.direction, complex(t))) for t in params]
        if self.tag is FibreTag.DEGENERATE_PLANE:
            n = tuple(self.normal)
            z0, w2 = _plane_frame(n, self.offset)
            return [CVec3(*_plane_point(z0, n, w2, complex(t), complex(t * t / 4.0)))
                    for t in params]
        return []


def fibre_at(data: WeierstrassData, q: Bicomplex) -> FibreDescription:
    """Classify and solve the congruence equation at the parameter q."""
    try:
        g = data.G(q)
        h = data.H(q)
    except OverflowError:  # a power past the double range, such as q**3 at q = 1.7e308
        raise RangeOverflowError(f"G(q) or H(q) overflows at q = {q!r}") from None
    cn_g = g.cn()
    try:
        scale = max(1.0, g.norm2())
    except OverflowError:  # a part of G past about 1.34e154
        raise RangeOverflowError(f"|G(q)|^2 overflows at q = {q!r}") from None
    if _abs(cn_g + 1.0) > DEGENERATE_TOL * scale:
        try:
            rows, rhs = _line_system(g, h)
        except ZeroDivisionError:  # CN(xi) = 2 (1 + CN(G))^2 rounded to 0
            raise DegenerateDirectionError(
                f"CN(xi) = 0 at q = {q!r}: the line fibre has no unit direction") from None
        try:
            c = np.linalg.solve(np.array(rows, dtype=complex),
                                np.array([*rhs, 0.0], dtype=complex))
        except np.linalg.LinAlgError:
            raise DegenerateDirectionError(
                f"the line fibre's system is singular at q = {q!r}") from None
        return FibreDescription(
            FibreTag.NON_NULL_LINE,
            base=CVec3(*c),
            direction=CVec3(*rows[2]),
        )
    # CN(G) = -1: solvable iff H is a complex multiple of G
    g1, g2 = g.z1, g.z2
    h1, h2 = h.z1, h.z2
    normal = CVec3(1.0, g1, g2)
    if _abs(h1) <= DEGENERATE_TOL and _abs(h2) <= DEGENERATE_TOL:
        return FibreDescription(FibreTag.DEGENERATE_PLANE, normal=normal, offset=0j)
    k = max((g1, g2), key=_abs)
    if k == 0:  # g1 = 0 and g2 has a NaN part, which no finite G has here
        raise RangeOverflowError(f"G(q) is not finite at q = {q!r}")
    mu = (h1 / k) if k == g1 else (h2 / k)
    if max(_abs(h1 - mu * g1), _abs(h2 - mu * g2)) <= DEGENERATE_TOL * max(1.0, _abs(h.z1), _abs(h.z2)):
        return FibreDescription(FibreTag.DEGENERATE_PLANE, normal=normal, offset=-mu)
    return FibreDescription(FibreTag.EMPTY)


# ---------------------------------------------------------------------------
# congruence solving


@dataclass
class CongruenceSolution:
    q: Bicomplex
    gradient: BVec3 | None          # implicit dPhi/dz_i; None when flagged
    laplacian: Bicomplex | None     # implicit sum of second derivatives
    multiplicity: int = 1
    degenerate: bool = False        # CN(gradient) = 0 with gradient != 0
    partially_degenerate: bool = False  # dF/dq a zero divisor at the root
    residual: float = 0.0           # |F(q)| after back-substitution


def _trim(coeffs, rtol=1e-12):
    top = max(_abs(c) for c in coeffs)
    if top == 0.0:
        return []
    out = list(coeffs)
    while out and _abs(out[-1]) <= rtol * top:
        out.pop()
    return out


def _poly_eval(coeffs, s):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def _poly_derivative(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:]


def _poly_roots(coeffs):
    """Roots of an ascending-coefficient complex polynomial, with
    multiplicities by clustering; degree <= 2 in closed form, companion
    matrix above that, one Newton polish step per root.

    numpy's warnings are off while it runs, as in the batch: a quotient of
    np.complex128 values overflows at a subnormal coordinate, and a caller
    gets the roots, not a warning.
    """
    with np.errstate(all="ignore"):
        coeffs = _trim(coeffs)
        if not coeffs:
            raise DegenerateAllComponentsError(
                "congruence component vanishes identically; solution set is not discrete"
            )
        deg = len(coeffs) - 1
        if deg == 0:
            return []
        if deg == 1:
            b, a = coeffs
            if a == 0:
                # a NaN coefficient (an overflow cancelled) compares false and
                # stops the trim, which keeps this zero leading term
                raise InvalidInputError("congruence component has a NaN coefficient: "
                                        "the data overflow at this point")
            return [(-b / a, 1)]
        if deg == 2:
            c, b, a = coeffs
            disc = b * b - 4 * a * c
            sq = np.sqrt(complex(disc))
            # stable quadratic: avoid cancellation in the small root
            if abs(-b + sq) >= abs(-b - sq):
                r1 = (-b + sq) / (2 * a)
            else:
                r1 = (-b - sq) / (2 * a)
            if abs(r1) > 0:
                r2 = c / (a * r1)
            else:
                r2 = (-b - sq) / (2 * a)
            roots = [r1, r2]
        else:
            desc = np.array(coeffs[::-1], dtype=complex)
            # np.roots' companion row, from its first to its last nonzero
            # coefficient: eigvals refuses an entry that overflows, and a
            # lone coefficient that is not finite (a NaN stops _trim at
            # zero leading terms) leaves np.roots no row and no roots
            nonzero = np.flatnonzero(desc)
            desc = desc[nonzero[0]:nonzero[-1] + 1]
            finite = np.isfinite(np.append(-desc[1:] / desc[0], desc[-1])).all()
            if not finite:
                raise InvalidInputError("congruence component's companion matrix overflows: "
                                        "the data overflow at this point")
            roots = list(np.roots(list(reversed(coeffs))))
        dcoeffs = _poly_derivative(coeffs)
        polished = []
        for r in roots:
            d = _poly_eval(dcoeffs, r)
            if abs(d) > 1e-12:
                r = r - _poly_eval(coeffs, r) / d
            polished.append(complex(r))
        # cluster for multiplicities
        scale = max(1.0, max(_abs(r) for r in polished))
        out = []
        for r in polished:
            for i, (rep, m) in enumerate(out):
                if _abs(r - rep) <= 1e-7 * scale:
                    out[i] = ((rep * m + r) / (m + 1), m + 1)
                    break
            else:
                out.append((r, 1))
        return out


def congruence_components(data: WeierstrassData, z: CVec3):
    """Ascending coefficients of the two idempotent components of F(., z).

    Requires polynomial G and H.  The i2-unit contributes +i1 to the e-side
    and -i1 to the f-side.
    """
    a1 = -2 * z.u1
    z2 = z.u2

    def build(side, i2_side):
        g, one_minus, one_plus, minus_2h = side
        a3 = i2_side * z.u3
        out = poly_add([a1 * c for c in g], [z2 * c for c in one_minus])
        out = poly_add(out, [a3 * c for c in one_plus])
        return poly_add(out, minus_2h)

    side_e, side_f = data.congruence_coefficients
    return build(side_e, 1j), build(side_f, -1j)


def _canonical_key(q: Bicomplex):
    e, f = q.ringleb()
    return (e.real, e.imag, f.real, f.imag)


def _canonical_roots(data: WeierstrassData, z: CVec3):
    """The components (fe, ff) at z and every pairwise root combination
    (q, s, ms, w, mw) of e-side root s and f-side root w, in canonical order."""
    fe, ff = congruence_components(data, z)
    try:
        roots_e, roots_f = _poly_roots(fe), _poly_roots(ff)
    except OverflowError:  # a modulus past the double range, of finite parts
        raise RangeOverflowError(f"a coefficient or root overflows at z = {z!r}") from None
    pairs = [(Bicomplex.from_ringleb(s, w), s, ms, w, mw)
             for s, ms in roots_e for w, mw in roots_f]
    pairs.sort(key=lambda pair: _canonical_key(pair[0]))
    return fe, ff, pairs


def solve_roots(data: WeierstrassData, z) -> list[Bicomplex]:
    """All roots q of the congruence equation at z, in canonical order, with
    no derivatives: exactly ``[s.q for s in solve_phi(data, z)]``."""
    if not isinstance(z, CVec3):
        z = CVec3(*z)
    return [pair[0] for pair in _canonical_roots(data, z)[2]]


def solve_phi(data: WeierstrassData, z) -> list[CongruenceSolution]:
    """All roots q of the congruence equation at z, in canonical order.

    The roots are those of ``solve_roots``; each carries its implicit
    gradient, Laplacian and degeneracy flags.  Multiple roots are reported
    with their multiplicity and no gradient (the implicit function theorem
    fails there).
    """
    if not isinstance(z, CVec3):
        z = CVec3(*z)
    fe, ff, pairs = _canonical_roots(data, z)
    dfe = _poly_derivative(_trim(fe))
    dff = _poly_derivative(_trim(ff))

    sols = []
    for q, s, ms, w, mw in pairs:
        try:
            residual = abs(Bicomplex.from_ringleb(_poly_eval(fe, s), _poly_eval(ff, w)))
            dscale = GRAD_TOL * max(1.0, _coeff_scale(dfe, s), _coeff_scale(dff, w))
        except OverflowError:  # a square or an abs of finite parts past the double range
            raise RangeOverflowError(f"the residual or the derivative scale overflows at the "
                                     f"root q = {q!r} of z = {z!r}") from None
        de = _poly_eval(dfe, s) if dfe else 0j
        df = _poly_eval(dff, w) if dff else 0j
        sol = CongruenceSolution(
            q=q, gradient=None, laplacian=None,
            multiplicity=ms * mw, residual=residual,
        )
        e_ok = _abs(de) > dscale
        f_ok = _abs(df) > dscale
        if e_ok and f_ok and ms == 1 and mw == 1:
            # invert dF/dq componentwise: both parts are bounded away
            # from zero here, even when their product would trip the
            # scale-invariant zero-divisor guard
            fq_inv = Bicomplex.from_ringleb(1.0 / de, 1.0 / df)
            g = data.G(q)
            grad = _gradient(g, fq_inv)
            sol.gradient = BVec3(*grad)
            n2, cn = _null_parts(grad)
            sol.degenerate = abs(cn) <= GRAD_NULL_TOL * max(n2, 1e-300) and n2 > 0
            sol.laplacian = _laplacian(g, data.dG(q), data.d2G(q), data.d2H(q),
                                       z, grad, fq_inv)
        elif e_ok != f_ok:
            sol.partially_degenerate = True
        sols.append(sol)
    return sols


def _coeff_scale(coeffs, s):
    # added left to right from 0.0, as _coeff_scale_lanes adds: sum() of
    # floats rounds otherwise from Python 3.12 on
    a = _abs(s)
    total = 0.0
    for k, c in enumerate(coeffs):
        total += _abs(c) * a ** k
    return total


# ---------------------------------------------------------------------------
# batched roots


class _Lanes(NamedTuple):
    """Points as lanes: the CVec3 fields ``congruence_components`` reads."""
    u1: CArray
    u2: CArray
    u3: CArray

    @classmethod
    def of(cls, points):
        """CVec3s, or their coordinates as CArray lanes of shape (n, 3)."""
        if isinstance(points, CArray):
            return cls(points[:, 0], points[:, 1], points[:, 2])
        return cls(CArray.of([z.u1 for z in points]), CArray.of([z.u2 for z in points]),
                   CArray.of([z.u3 for z in points]))


def _where(mask, a: CArray, b: CArray) -> CArray:
    return CArray(np.where(mask, a.re, b.re), np.where(mask, a.im, b.im))


def _numpy_quotient(a: CArray, b: CArray) -> CArray:
    """``a / b`` by numpy's complex128 division, which rounds otherwise than
    CPython's: the scalar ``_poly_roots`` divides so where a value comes
    from ``np.sqrt`` or ``np.roots``, before its ``complex(...)``."""
    q = a.complex() / b.complex()
    return CArray(q.real, q.imag)


def _stack(sides, n):
    """Real and imaginary parts, rows [s * n, (s + 1) * n) those of list s
    of coefficients (lanes or constants), zero-padded to the widest."""
    width = max(map(len, sides))
    re = np.zeros((len(sides) * n, width))
    im = np.zeros((len(sides) * n, width))
    for s, coeffs in enumerate(sides):
        for k, c in enumerate(coeffs):
            re[s * n:(s + 1) * n, k] = c.re if isinstance(c, CArray) else c.real
            im[s * n:(s + 1) * n, k] = c.im if isinstance(c, CArray) else c.imag
    return re, im


def _closed_form(coeffs):
    """The two roots of ``_poly_roots``' quadratic branch."""
    c, b, a = coeffs
    disc = b * b - 4 * a * c
    sq = np.sqrt(disc.complex())
    sq = CArray(sq.real, sq.imag)
    plus = -b + sq
    minus = -b - sq
    low = _numpy_quotient(minus, 2 * a)
    r1 = _where(abs(plus) >= abs(minus), _numpy_quotient(plus, 2 * a), low)
    r2 = _where(abs(r1) > 0, _numpy_quotient(c, a * r1), low)
    return r1, r2


def _companion_roots(re, im, deg, trailing):
    """``np.roots`` of lanes of degree ``deg`` whose ``trailing`` lowest
    coefficients are exactly zero: one stacked ``eigvals`` on its companion
    matrices, the zero roots appended.  Returns (roots, ok); a lane with a
    non-finite companion entry is not ok, nor is any when eigvals fails."""
    desc = CArray(re[:, trailing:deg + 1][:, ::-1], im[:, trailing:deg + 1][:, ::-1]).complex()
    size = deg - trailing
    companion = np.zeros((len(desc), size, size), dtype=np.complex128)
    companion[:, 0, :] = -desc[:, 1:] / desc[:, :1]
    companion[:, np.arange(1, size), np.arange(size - 1)] = 1
    ok = np.isfinite(companion[:, 0, :]).all(axis=1)
    roots = np.zeros((len(desc), deg), dtype=np.complex128)
    try:
        roots[ok, :size] = np.linalg.eigvals(companion[ok])
    except np.linalg.LinAlgError:
        ok[:] = False
    return CArray(roots.real.copy(), roots.imag.copy()), ok


def _polish_and_cluster(coeffs, roots):
    """``_poly_roots``' Newton step and clustering over lanes of one degree:
    (representatives, multiplicities, cluster counts, lanes whose values
    overflow and are left to the scalar path)."""
    dcoeffs = _poly_derivative(coeffs)
    d = _poly_eval(dcoeffs, roots)
    step = _numpy_quotient(_poly_eval(coeffs, roots), d)
    polished = _where(abs(d) > 1e-12, roots - step, roots)
    mag = abs(polished)
    overflow = ~np.isfinite(mag).all(axis=1)
    tol = 1e-7 * np.maximum(1.0, mag.max(axis=1))
    lanes, deg = mag.shape
    rep_re = np.zeros((lanes, deg))
    rep_im = np.zeros((lanes, deg))
    mult = np.zeros((lanes, deg), dtype=np.int64)
    count = np.zeros(lanes, dtype=np.int64)
    for j in range(deg):
        r = polished[:, j]
        placed = np.zeros(lanes, dtype=bool)
        for i in range(j):
            live = (i < count) & ~placed
            if not live.any():
                break
            rep = CArray(rep_re[:, i], rep_im[:, i])
            dist = abs(r - rep)
            overflow |= live & ~np.isfinite(dist)
            hit = live & (dist <= tol)
            if hit.any():
                m = mult[:, i].astype(float)
                merged = (rep * m + r) / (m + 1.0)
                rep_re[:, i] = np.where(hit, merged.re, rep_re[:, i])
                rep_im[:, i] = np.where(hit, merged.im, rep_im[:, i])
                mult[:, i] += hit
                placed |= hit
        new = np.flatnonzero(~placed)
        rep_re[new, count[new]] = r.re[new]
        rep_im[new, count[new]] = r.im[new]
        mult[new, count[new]] = 1
        count[new] += 1
    return CArray(rep_re, rep_im), mult, count, overflow


def _trimmed_degree(re, im):
    """``len(_trim(coeffs)) - 1`` at every lane, and whether the lane's
    coefficients are finite and not all zero (else the degree is 0)."""
    width = re.shape[1]
    mag = np.hypot(re, im)
    ok = np.isfinite(mag).all(axis=1)
    top = np.where(ok, mag.max(axis=1), 0.0)
    ok &= top > 0.0
    kept = mag > 1e-12 * top[:, None]
    return ok, np.where(ok, width - 1 - np.argmax(kept[:, ::-1], axis=1), 0)


def _side_roots(re, im):
    """``_poly_roots`` of one side's components at every lane, grouped by
    trimmed degree.  Returns (ok, representatives, multiplicities, counts,
    trimmed degrees); ok is False on a lane left to the scalar path: a
    non-finite coefficient or value, a vanishing component (the scalar path
    raises), a failing eigvals, or ``np.roots``' real-typed all-zero
    case."""
    lanes, width = re.shape
    ok, deg = _trimmed_degree(re, im)
    nonzero = (re != 0.0) | (im != 0.0)
    trailing = np.argmax(nonzero, axis=1)
    size = max(width - 1, 1)
    rep_re = np.zeros((lanes, size))
    rep_im = np.zeros((lanes, size))
    mult = np.zeros((lanes, size), dtype=np.int64)
    count = np.zeros(lanes, dtype=np.int64)
    # group by trimmed degree, and above degree 2 by np.roots' zero roots
    trailing = np.where(deg > 2, trailing, 0)
    group = np.where(ok & (deg > 0), deg * width + trailing, -1)
    for key in sorted(set(group[group >= 0].tolist())):
        d, t = divmod(key, width)
        idx = np.flatnonzero(group == key)
        coeffs = [CArray(re[idx, k:k + 1], im[idx, k:k + 1]) for k in range(d + 1)]
        if d == 1:
            b, a = coeffs
            root = -b / a
            rep_re[idx, 0] = root.re[:, 0]
            rep_im[idx, 0] = root.im[:, 0]
            mult[idx, 0] = 1
            count[idx] = 1
            continue
        if d == 2:
            r1, r2 = _closed_form(coeffs)
            roots = CArray(np.concatenate([r1.re, r2.re], axis=1),
                           np.concatenate([r1.im, r2.im], axis=1))
        elif t == d:
            ok[idx] = False
            continue
        else:
            roots, solved = _companion_roots(re[idx], im[idx], d, t)
            ok[idx[~solved]] = False
        reps, m, c, overflow = _polish_and_cluster(coeffs, roots)
        rep_re[idx, :d] = reps.re
        rep_im[idx, :d] = reps.im
        mult[idx, :d] = m
        count[idx] = c
        ok[idx[overflow]] = False
    return ok, CArray(rep_re, rep_im), mult, count, deg


def _paired(rep_e, rep_f, count_e, count_f, ok):
    """``_canonical_roots``' pairs at every lane, from the roots of each
    side (``_side_roots``' representatives and counts) and the lanes both
    sides solved (ok): (q1, q2, counts, ok, order, me, mf).  q1 and q2 are
    the pairs' z1 and z2 parts, each row's first count_e * count_f in
    canonical order; ok is narrowed to lanes whose sort keys are finite;
    counts is the pairs of an ok lane, else 0; and row i of ``order`` gives
    each sorted pair of e-side root a < me and f-side root b < mf as
    a * mf + b."""
    n = len(ok)
    me = max(int(count_e[ok].max(initial=0)), 1)
    mf = max(int(count_f[ok].max(initial=0)), 1)

    def flat(a):
        # pair (a, b) at a * mf + b, the order of _canonical_roots' list
        # before its sort
        return np.broadcast_to(a, (n, me, mf)).reshape(n, me * mf)

    s = rep_e[:, :me, None]
    w = rep_f[:, None, :mf]
    # Bicomplex.from_ringleb(s, w), and the sort key from its ringleb()
    z1 = (s + w) / 2.0
    z2 = 1j * (w - s) / 2.0
    iz2 = 1j * z2
    ke = z1 + iz2
    kf = z1 - iz2
    valid = flat((np.arange(me)[:, None] < count_e[:, None, None])
                 & (np.arange(mf) < count_f[:, None, None]))
    keys = [flat(part) for part in (kf.im, kf.re, ke.im, ke.re)]
    finite = np.isfinite(keys[0])
    for part in keys[1:]:
        finite &= np.isfinite(part)
    ok &= finite.all(axis=1, where=valid)
    order = np.lexsort(keys + [~valid], axis=-1)
    # each row's pairs gathered in that order from the flattened lanes
    at = order + (me * mf) * np.arange(n)[:, None]
    q1, q2 = (flat(z.complex()).reshape(-1)[at] for z in (z1, z2))
    return q1, q2, np.where(ok, count_e * count_f, 0), ok, order, me, mf


def _degrees(data: WeierstrassData):
    """Bounds on the degrees of the two congruence components: each side's
    congruence has degree at most max(2 deg G, deg H) on that side."""
    return (max(2 * degree_bound(data.G.f1), degree_bound(data.H.f1)),
            max(2 * degree_bound(data.G.f2), degree_bound(data.H.f2)))


def _blocks(points, degrees=None):
    """The points in blocks of BLOCK_LANES lanes: one lane per value, or,
    given the components' degree bounds, d^2 per anchor of a root pass
    (d at least 2)."""
    size = BLOCK_LANES
    if degrees is not None:
        size = max(1, size // max(2, *degrees) ** 2)
    return [points[i:i + size] for i in range(0, len(points), size)]


def _until_error(fn, items):
    """``fn(item)`` for the items in order, up to the first that raises:
    (the results, that exception or None).  The caller finishes the items
    before it, then raises it, so errors surface in the order of a
    point-by-point run."""
    done = []
    for item in items:
        try:
            done.append(fn(item))
        except Exception as exc:
            return done, exc
    return done, None


class RootBatch:
    """``solve_roots`` and ``solve_phi`` at many points in one array pass.

    Each lane reproduces the scalar path bit for bit: the components are
    built by ``congruence_components`` itself over ``CArray`` lanes, the
    roots of both sides come from one pass of ``_poly_roots``' closed form
    or one stacked ``eigvals`` per trimmed degree, with its Newton step and
    clustering as masks, and the pairs are put in canonical order by
    ``np.lexsort``.  A lane whose values leave the finite range, or whose
    solve raises on the scalar path, is left to that path.

    The batch is finished when it is built.  The derivative step runs over
    every root lane of the batch (``implicit``): G, dG, d2G and d2H are
    evaluated once each by ``Expr.evaluate`` on ``BArray`` lanes, and the
    formulas are the scalar path's own helpers.  A point with a root lane
    where the scalar step would raise (a pole, an overflow) or whose values
    are not finite is left to ``solve_phi`` too.  ``left`` lists the points
    left to ``solve_phi``; it runs at each, in point order, up to the first
    that raises, and each one's solutions are put on root lanes of the
    batch.  Points [0, ``solved``) are then read the same way: ``lanes(i)``,
    their root lanes; ``error`` is the exception of point ``solved``, or
    None when every point is solved.  The Laplacian, which ``report`` and
    ``solution`` read and ``slice`` does not, is built on the first read
    (``implicit.laplacian()``).  The results stay arrays until a root is
    read; ``report`` and ``gauss`` give, as arrays too, the values a
    solution's report reads (|Laplacian| and |nullness|, and the Gauss
    map), and ``solution(k)`` builds one root lane's CongruenceSolution.
    The roots' fibres come from a ``FibreBatch`` over them.

    The points are CVec3s, or their coordinates as CArray lanes of shape
    (n, 3), as the stencil checks build them: a CVec3 is then made only for
    a point left to the scalar path (``point``).  ``stencil``, more points
    given either way, shares the root pass and nothing else:
    ``stencil_roots`` hands over their roots, and every other read reads
    the points alone.
    """

    def __init__(self, data: WeierstrassData, points, stencil=None):
        self.data = data
        self._z = _Lanes.of(points)
        # a lane that overflows is left to the scalar path: no numpy warning
        # of the array pass, or of the scalar path, reaches the caller
        with np.errstate(all="ignore"):
            self._solve(data, self._z, stencil)
            self.implicit, scalar = self._implicit_lanes()
            self.left = list(compress(range(len(scalar)), scalar))
            solved, self.error = _until_error(lambda i: solve_phi(data, self.point(i)),
                                              self.left)
            self.solved = len(scalar) if self.error is None else self.left[len(solved)]
            if solved:
                self._merge(dict(zip(self.left, solved)))

    def point(self, i) -> CVec3:
        """Point i as a CVec3."""
        return CVec3(*(complex(u.re[i], u.im[i]) for u in self._z))

    def _solve(self, data, lanes, stencil):
        n = len(lanes.u1.re)
        if stencil is not None:
            # the stencil points' lanes after the points': one root pass and
            # one pairing of the roots for both
            lanes = _Lanes(*(CArray(np.concatenate((u.re, s.re)), np.concatenate((u.im, s.im)))
                             for u, s in zip(lanes, _Lanes.of(stencil))))
        total = len(lanes.u1.re)
        fe, ff = congruence_components(data, lanes)
        # one root pass over both sides: the narrower one's padding is
        # trimmed, so each side keeps its own coefficients' trimmed degrees
        re, im = _stack((fe, ff), total)
        ok, rep, mult, count, deg = _side_roots(re, im)
        e, f = slice(0, total), slice(total, 2 * total)
        q1, q2, counts, ok, order, me, mf = _paired(rep[e], rep[f], count[e], count[f],
                                                    ok[e] & ok[f])
        # the points' rows, copied: a view would keep the stencil points'
        # rows alive as long as the batch
        e, f = slice(0, n), slice(total, total + n)
        self._fe = re[e, :len(fe)].copy(), im[e, :len(fe)].copy(), deg[e].copy()
        self._ff = re[f, :len(ff)].copy(), im[f, :len(ff)].copy(), deg[f].copy()
        self._q1, self._q2, self._counts, self._order = (a[:n].copy()
                                                         for a in (q1, q2, counts, order))
        self._ok = ok[:n].tolist()
        self._npairs = (count[e] * count[f]).tolist()
        self._mf = mf
        self._side_e = CArray(rep.re[e, :me].copy(), rep.im[e, :me].copy()), mult[e].copy()
        self._side_f = CArray(rep.re[f, :mf].copy(), rep.im[f, :mf].copy()), mult[f].copy()
        self._stencil = None if stencil is None else (q1[n:], q2[n:], counts[n:])

    def stencil_roots(self):
        """The stencil points' roots as ``padded_roots`` gives a batch's:
        each row's first counts[i] entries are those of a RootBatch of the
        stencil points alone, bit for bit.  Handed over once: the batch
        then drops them."""
        roots, self._stencil = self._stencil, None
        return roots

    def padded_roots(self):
        """Every point's roots as arrays: (z1, z2, counts), the z1 and z2
        parts of shape (points, width), row i's first counts[i] entries
        ``solve_roots(data, points[i])`` bit for bit for i < ``solved`` and
        wherever the array pass found the roots; any other point counts 0."""
        return self._q1, self._q2, self._counts

    def lanes(self, i):
        """The root lanes of point i < ``solved``, a range over ``implicit``'s
        arrays."""
        return range(self._span[i], self._span[i + 1])

    def _merge(self, solved):
        """Put the solutions of each point in ``solved`` (point -> its
        ``solve_phi`` list) on root lanes of its own, in place of any it
        had."""
        implicit, span = self.implicit, self._span
        # each point's lanes in the joined arrays: a merged point's follow
        # the old lanes, in point order
        new = count(len(implicit.residual))
        pieces = [list(islice(new, len(solved[i]))) if i in solved else range(span[i], span[i + 1])
                  for i in range(len(span) - 1)]
        lanes = _solution_lanes([sol for sols in solved.values() for sol in sols])
        self.implicit = _Implicit(
            *_joined(implicit, lanes, np.fromiter(chain.from_iterable(pieces), np.intp)))
        self._span = [0, *accumulate(map(len, pieces))]
        # the padded roots, wide enough for every merged point's
        width = max(map(len, solved.values())) - self._q1.shape[1]
        if width > 0:
            self._q1, self._q2 = (np.pad(a, ((0, 0), (0, width))) for a in (self._q1, self._q2))
        for i, sols in solved.items():
            self._q1[i, :len(sols)] = [sol.q.z1 for sol in sols]
            self._q2[i, :len(sols)] = [sol.q.z2 for sol in sols]
            self._counts[i] = len(sols)

    def solution(self, k):
        """The CongruenceSolution of root lane k, one of ``lanes(i)``."""
        implicit = self.implicit
        sol = CongruenceSolution(q=implicit.q.item(k), gradient=None, laplacian=None,
                                 multiplicity=int(implicit.multiplicity[k]),
                                 residual=float(implicit.residual[k]))
        if implicit.has_gradient[k]:
            sol.gradient = BVec3(*(c.item(k) for c in implicit.gradient))
            sol.laplacian = implicit.laplacian().item(k)
            sol.degenerate = bool(implicit.degenerate[k])
        elif implicit.partially_degenerate[k]:
            sol.partially_degenerate = True
        return sol

    # -- the root lanes -----------------------------------------------------

    @cached_property
    def _roots(self):
        """Every root of the array pass as one lane, point by point in
        canonical order: (point index, q, e-side root s, multiplicity ms,
        f-side root w, multiplicity mw)."""
        width = self._order.shape[1]
        batched = (np.array(self._ok, dtype=bool)[:, None]
                   & (np.arange(width) < np.array(self._npairs)[:, None]))
        point, slot = np.nonzero(batched)
        a, b = np.divmod(self._order[point, slot], self._mf)
        (rep_e, mult_e), (rep_f, mult_f) = self._side_e, self._side_f
        q1 = self._q1[point, slot]
        q2 = self._q2[point, slot]
        q = BArray(CArray(q1.real.copy(), q1.imag.copy()), CArray(q2.real.copy(), q2.imag.copy()))
        return (point, q, rep_e[point, a], mult_e[point, a],
                rep_f[point, b], mult_f[point, b])

    @cached_property
    def _span(self):
        """Root lanes [span[i], span[i + 1]) are those of point i of the
        array pass (``_merge`` replaces them)."""
        counts = np.bincount(self._roots[0], minlength=len(self._ok))
        # not np.cumsum: under numpy 2.4 its calls leave small blocks
        # allocated after they return, and one left per block pins that
        # block's allocator arena until the run ends
        return [0, *accumulate(counts.tolist())]

    def _implicit_lanes(self):
        """``solve_phi``'s derivative step over the root lanes: (the
        ``_Implicit`` lanes, and per point whether it is left to
        ``solve_phi``)."""
        point, q, s, ms, w, mw = self._roots
        if not len(point):  # no root lane, and maybe constant components
            return _solution_lanes([]), [not ok for ok in self._ok]
        data = self.data

        def side(coeffs, root):
            # F at the root, F' there, and _coeff_scale(F', root)
            re, im, d = (part[point] for part in coeffs)
            value = _poly_eval([CArray(re[:, k], im[:, k]) for k in range(re.shape[1])], root)
            dre, dim = _derivative_lanes(re, im, d)
            derivative = _poly_eval([CArray(dre[:, k], dim[:, k])
                                     for k in range(dre.shape[1])], root)
            return value, derivative, _coeff_scale_lanes(dre, dim, d, root)

        ve, de, cs_e = side(self._fe, s)
        vf, df, cs_f = side(self._ff, w)
        residual = abs(BArray.from_ringleb(ve, vf))
        dscale = GRAD_TOL * np.maximum(np.maximum(1.0, cs_e), cs_f)
        a_de, a_df = abs(de), abs(df)
        e_ok = a_de > dscale
        f_ok = a_df > dscale
        has_gradient = e_ok & f_ok & (ms == 1) & (mw == 1)
        scalar = ~(np.isfinite(residual) & np.isfinite(a_de) & np.isfinite(a_df)
                   & np.isfinite(cs_e) & np.isfinite(cs_f))

        fq_inv = BArray.from_ringleb(1.0 / de, 1.0 / df)
        e, f = q.ringleb()
        (g, bad), (dg, bad_dg), (d2g, bad_d2g), (d2h, bad_d2h) = (
            _evaluate(fn, e, f) for fn in (data.G, data.dG, data.d2G, data.d2H))
        grad = _gradient(g, fq_inv)
        n2, cn = _null_parts(grad)
        a_cn = abs(cn)
        null_bound = GRAD_NULL_TOL * np.maximum(n2, 1e-300)
        degenerate = (a_cn <= null_bound) & (n2 > 0)
        # no flag for the Laplacian: the scalar one only adds, subtracts and
        # multiplies, which never raise
        bad = bad | bad_dg | bad_d2g | bad_d2h | ~np.isfinite(n2) | ~np.isfinite(a_cn)
        for c in grad:
            bad |= ~c.isfinite()
        scalar |= has_gradient & bad

        @cache
        def laplacian(z=self._z):
            # each lane's point gathered on the call: held, they raised the grid's peak RSS
            with np.errstate(all="ignore"):
                return _laplacian(g, dg, d2g, d2h, _Lanes(*(u[point] for u in z)), grad, fq_inv)

        left = ((np.bincount(point[scalar], minlength=len(self._ok)) > 0)
                | ~np.array(self._ok, dtype=bool))
        return _Implicit(
            q=q,
            residual=residual,
            multiplicity=ms * mw,
            has_gradient=has_gradient,
            n2=n2,
            cn_abs=a_cn,
            degenerate=has_gradient & degenerate,
            partially_degenerate=~has_gradient & (e_ok != f_ok),
            gradient=grad,
            laplacian=laplacian,
            cn=cn,
            oriented=has_gradient & (a_cn > null_bound),
        ), left.tolist()

    @cached_property
    def report(self) -> "_Report":
        """|Laplacian| and |nullness| at every root lane, as ``abs`` of a
        root's CongruenceSolution gives them, and where that ``abs`` raises
        OverflowError."""
        implicit = self.implicit
        with np.errstate(all="ignore"):
            laplacian = implicit.laplacian()
            nullness = _dot(implicit.gradient, implicit.gradient)
            overflow = _abs_raises(laplacian) | _abs_raises(nullness)
            return _Report(abs(laplacian), abs(nullness), implicit.has_gradient & overflow)

    @cached_property
    def gauss(self):
        """``gauss_map(gradient)``'s three CArray at every root lane, valid
        where ``implicit.oriented``: the scalar map's bits, finite or not,
        since its arithmetic never raises there.  Kept apart from
        ``report``: the stencil tasks read no Gauss map."""
        grad = self.implicit.gradient
        with np.errstate(all="ignore"):
            return _unit_cross(tuple(c.z1 for c in grad), tuple(c.z2 for c in grad),
                               self.implicit.cn)


class _Implicit(NamedTuple):
    """``RootBatch``'s derivative step: per root lane, the fields of its
    CongruenceSolution as arrays, read into Python objects only for the
    roots asked for.  A field that needs a gradient holds garbage at a lane
    with none."""
    q: BArray
    residual: np.ndarray
    multiplicity: np.ndarray
    has_gradient: np.ndarray
    n2: np.ndarray              # |gradient|^2
    cn_abs: np.ndarray          # |CN(gradient)|
    degenerate: np.ndarray
    partially_degenerate: np.ndarray
    gradient: tuple             # three BArray
    laplacian: Callable[[], BArray]  # the Laplacian, built on the first call
    cn: CArray                  # CN(gradient)
    oriented: np.ndarray        # a gradient whose CN passes gauss_map's test


class _Report(NamedTuple):
    """``RootBatch.report``: per root lane, ``abs(laplacian)`` and
    ``abs(gradient.square())``, and whether the lane has a gradient and one
    of these is a scalar ``abs`` that raises OverflowError."""
    laplacian_abs: np.ndarray
    nullness_abs: np.ndarray
    overflow: np.ndarray


def _abs_raises(x: BArray):
    """Where ``abs`` of the Bicomplex at x's lanes raises OverflowError: a
    part with finite components whose modulus, or its square, passes the
    double range (a part that is not finite gives inf or NaN instead)."""
    raises = False
    for c in (x.z1, x.z2):
        raises = raises | (c.isfinite() & np.isinf(np.float_power(np.hypot(c.re, c.im), 2)))
    return raises


def _solution_lanes(sols) -> _Implicit:
    """CongruenceSolutions as root lanes, with their bits: an ``_Implicit``
    whose nullness fields come from the gradients by the formulas of
    ``_implicit_lanes``, and whose flags are the solutions'."""
    values = np.zeros((len(sols), 4, 2), dtype=complex)
    for k, sol in enumerate(sols):
        if sol.gradient is not None:
            values[k] = [(c.z1, c.z2) for c in (*sol.gradient, sol.laplacian)]
    *grad, lap = (BArray(*_lanes(values[:, r])) for r in range(4))
    n2, cn = _null_parts(grad)
    a_cn = abs(cn)
    has_gradient = np.array([sol.gradient is not None for sol in sols], dtype=bool)
    return _Implicit(
        q=BArray.of([sol.q for sol in sols]),
        residual=np.array([sol.residual for sol in sols], dtype=float),
        multiplicity=np.array([sol.multiplicity for sol in sols], dtype=np.int64),
        has_gradient=has_gradient,
        n2=n2,
        cn_abs=a_cn,
        degenerate=np.array([sol.degenerate for sol in sols], dtype=bool),
        partially_degenerate=np.array([sol.partially_degenerate for sol in sols], dtype=bool),
        gradient=tuple(grad),
        laplacian=lambda: lap,
        cn=cn,
        oriented=has_gradient & (a_cn > GRAD_NULL_TOL * np.maximum(n2, 1e-300)),
    )


def _joined(a, b, index):
    """Lanes a, then lanes b, taken at ``index``: arrays, ``CArray`` or
    ``BArray`` lanes, tuples of them, or functions that build them."""
    if callable(a):
        return cache(lambda: _joined(a(), b(), index))
    if isinstance(a, tuple):
        return tuple(_joined(x, y, index) for x, y in zip(a, b))
    if isinstance(a, BArray):
        return BArray(*_joined((a.z1, a.z2), (b.z1, b.z2), index))
    if isinstance(a, CArray):
        return CArray(*_joined((a.re, a.im), (b.re, b.im), index))
    return np.concatenate([a, b])[index]


# the fibre tags of _Fibres.tag, by index; -1 is a lane left to fibre_at
_TAGS = (FibreTag.NON_NULL_LINE, FibreTag.DEGENERATE_PLANE, FibreTag.EMPTY)


class _Fibres(NamedTuple):
    """``fibre_at``'s fibre at each lane, as arrays: the index of its tag in
    ``_TAGS`` (-1 where the lane is left to ``fibre_at``), a line's base
    and direction, a plane's normal, each (lanes, 3), and a plane's offset."""
    tag: np.ndarray
    base: np.ndarray
    direction: np.ndarray
    normal: np.ndarray
    offset: np.ndarray


def _lanes(a):
    """A complex array as ``CArray`` lanes; a (lanes, 3) array as a triple
    of them."""
    if a.ndim == 2:
        return tuple(_lanes(a[:, j]) for j in range(a.shape[1]))
    return CArray(a.real, a.imag)


def _lane_fibres(g: BArray, h: BArray, flagged) -> _Fibres:
    """``fibre_at`` at lanes where G and H take the values g and h, every
    branch a mask: non-null lines by one stacked solve, and where CN(G) =
    -1, planes through the origin (h = 0), planes <(1, g1, g2), z> = -mu
    (h = mu g) and empty fibres.  A lane that is ``flagged``, whose values
    ``fibre_at`` reads are not finite (an ``abs`` or ``float ** 2`` it would
    raise OverflowError on), or whose line system is singular is left to
    ``fibre_at``."""
    n2 = g.norm2()
    dist = abs(g.cn() + 1.0)
    ok = ~flagged & np.isfinite(n2) & np.isfinite(dist)
    far = dist > DEGENERATE_TOL * _max(1.0, n2)
    line = ok & far
    n = len(line)

    # the non-null lines: one stacked solve
    rows, rhs = _line_system(g, h)
    a = np.empty((n, 3, 3), dtype=complex)
    for r, row in enumerate(rows):
        for c, entry in enumerate(row):
            a[:, r, c] = entry.complex()
    b = np.zeros((n, 3, 1), dtype=complex)
    b[:, 0, 0] = rhs[0].complex()
    b[:, 1, 0] = rhs[1].complex()
    line &= np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b).all(axis=(1, 2))
    solved = np.flatnonzero(line)
    base = np.full((n, 3), np.nan, dtype=complex)
    base[solved] = _stacked_solve(a[solved], b[solved])
    line &= np.isfinite(base).all(axis=1)

    # CN(G) = -1: a plane when H is a complex multiple mu G (or 0), else empty
    g1, g2, h1, h2 = g.z1, g.z2, h.z1, h.z2
    a_h1, a_h2 = abs(h1), abs(h2)
    origin = (a_h1 <= DEGENERATE_TOL) & (a_h2 <= DEGENERATE_TOL)
    # k = max((g1, g2), key=abs) keeps g1 on a tie; k == g1 compares values
    k = _where(abs(g2) > abs(g1), g2, g1)
    mu = _where((k.re == g1.re) & (k.im == g1.im), h1 / k, h2 / k)
    miss = _max(abs(h1 - mu * g1), abs(h2 - mu * g2))
    multiple = miss <= DEGENERATE_TOL * _max(_max(1.0, a_h1), a_h2)
    cn_plane = ok & ~far & np.isfinite(a_h1) & np.isfinite(a_h2)
    cn_plane &= origin | (mu.isfinite() & np.isfinite(miss))

    tag = np.full(n, -1, dtype=np.int8)
    tag[line] = 0
    tag[cn_plane] = np.where(origin | multiple, 1, 2)[cn_plane]
    normal = np.empty((n, 3), dtype=complex)
    normal[:, 0] = 1.0
    normal[:, 1] = g1.complex()
    normal[:, 2] = g2.complex()
    offset = _where(origin, CArray(0.0, 0.0), -mu).complex()
    return _Fibres(tag, base, a[:, 2, :], normal, offset)


class FibreBatch:
    """``fibre_at`` at many parameters in one array pass, with what is read
    of each fibre: its sample points, and the point-on-fibre test and the
    congruence residual at a point.

    G and H are evaluated once each over the parameters' idempotent parts,
    and ``_lane_fibres`` classifies every lane.  The batch is finished when
    it is built: ``fibre_at`` runs at each lane left to it (``left``: a
    pole, an overflow, a singular line system), in lane order, up to the
    first that raises (``error``, at lane ``solved``; None when every lane
    is solved), and writes its fibres into ``fibres``.  The sample,
    ``contains``, norm and residual formulas are the helpers that
    ``FibreDescription`` and ``_residual`` run, here on ``CArray``/``BArray``
    lanes, so each lane has the scalar bits.
    """

    def __init__(self, data: WeierstrassData, q):
        """q: the parameters, as ``BArray`` lanes or a list of Bicomplex."""
        self.data = data
        self.q = q if isinstance(q, BArray) else BArray.of(q)
        # a lane that overflows is left to the scalar path: no numpy warning
        # of the array pass, or of the scalar path, reaches the caller
        with np.errstate(all="ignore"):
            e, f = self.q.ringleb()
            (self._g, bad_g), (self._h, bad_h) = (_evaluate(fn, e, f)
                                                  for fn in (data.G, data.H))
            self._flagged = bad_g | bad_h
            fibres = self.fibres = _lane_fibres(self._g, self._h, self._flagged)
            self.left = np.flatnonzero(fibres.tag < 0).tolist()
            solved, self.error = _until_error(lambda k: fibre_at(data, self.q.item(k)),
                                              self.left)
        self.solved = len(fibres.tag) if self.error is None else self.left[len(solved)]
        for k, fibre in zip(self.left, solved):
            fibres.tag[k] = _TAGS.index(fibre.tag)
            if fibre.tag is FibreTag.NON_NULL_LINE:
                fibres.base[k], fibres.direction[k] = tuple(fibre.base), tuple(fibre.direction)
            elif fibre.tag is FibreTag.DEGENERATE_PLANE:
                fibres.normal[k], fibres.offset[k] = tuple(fibre.normal), fibre.offset

    def fibre(self, k):
        """``fibre_at(data, q.item(k))``, for k < ``solved``; past it, raises
        ``error``, which a lane-by-lane run raises first."""
        if k >= self.solved and self.error is not None:
            raise self.error
        fibres = self.fibres
        tag = _TAGS[fibres.tag[k]]
        if tag is FibreTag.NON_NULL_LINE:
            return FibreDescription(tag, base=CVec3(*fibres.base[k].tolist()),
                                    direction=CVec3(*fibres.direction[k].tolist()))
        if tag is FibreTag.DEGENERATE_PLANE:
            return FibreDescription(tag, normal=CVec3(*fibres.normal[k].tolist()),
                                    offset=complex(fibres.offset[k]))
        return FibreDescription(tag)

    def samples(self, ts):
        """``fibre(k).sample_points(ts)`` at every lane k < ``solved`` whose
        fibre is a line or a plane, for real ts: (lanes, len(ts), 3)
        complex."""
        fibres = self.fibres
        base, direction, normal = (tuple(c[:, None] for c in _lanes(a))
                                   for a in (fibres.base, fibres.direction, fibres.normal))
        t = CArray.of(ts)
        s = CArray.of([x * x / 4.0 for x in ts])
        with np.errstate(all="ignore"):
            on_line = _line_point(base, direction, t)
            z0, w2 = _plane_frame(normal, _lanes(fibres.offset)[:, None])
            on_plane = _plane_point(z0, normal, w2, t, s)
        line = (fibres.tag == 0)[:, None]
        points = np.empty((len(line), len(ts), 3), dtype=complex)
        for j in range(3):
            points[:, :, j] = np.where(line, on_line[j].complex(), on_plane[j].complex())
        return points

    def checks(self, zs, tol):
        """At lanes k < n, the congruence residual at the point zs[k] and
        ``fibre(k).contains(zs[k], tol)``, for zs a (lanes, 3) complex
        array: (residuals, on_fibre, n, error).  A lane below ``solved``
        that ``_check_lanes`` does not vouch for is checked on the scalar
        path, in lane order; the first whose ``abs`` or square overflows
        there ends the checked lanes, and its RangeOverflowError is
        ``error``; else lanes [0, ``solved``) are checked, and ``error`` is
        the batch's."""
        with np.errstate(all="ignore"):
            residual, on_fibre, ok = self._check_lanes(_lanes(zs), tol)

        def scalar(k):
            q, z = self.q.item(k), CVec3(*zs[k].tolist())
            try:
                residual[k] = _residual(self.data.G(q), self.data.H(q), z)
                on_fibre[k] = self.fibre(k).contains(z, tol=tol)
            except OverflowError:  # an abs or a square past the double range, of finite parts
                raise RangeOverflowError(f"the residual or the fibre test overflows at the "
                                         f"sample q = {q!r}, z = {z!r}") from None

        lanes = np.flatnonzero(~ok[:self.solved]).tolist()
        done, error = _until_error(scalar, lanes)
        n = self.solved if error is None else lanes[len(done)]
        return residual, on_fibre, n, error or self.error

    def _check_lanes(self, z, tol):
        """``checks`` over the lanes z: (residuals, on_fibre, and the lanes
        with the scalar path's bits: those whose values are finite, of G and
        H lanes that are not flagged; a flagged lane's value may not be the
        scalar G(q) or H(q), as past ``C_POWI_MAX``)."""
        fibres = self.fibres
        line = fibres.tag == 0
        plane = fibres.tag == 1
        residual = _residual(self._g, self._h, z)
        scale = _max(1.0, _norm(z))
        line_miss = _line_miss(_lanes(fibres.base), _lanes(fibres.direction), z)
        plane_miss = _plane_miss(_lanes(fibres.normal), _lanes(fibres.offset), z)
        bound = tol * scale
        on_fibre = np.where(line, line_miss <= bound, plane & (plane_miss <= bound))
        ok = ~self._flagged & np.isfinite(residual) & np.isfinite(scale)
        ok &= ~line | np.isfinite(line_miss)
        ok &= ~plane | np.isfinite(plane_miss)
        return residual, on_fibre, ok


def _derivative_lanes(re, im, deg):
    """``_poly_derivative(_trim(coeffs))`` at every lane: columns k * c_k
    for k = 1..deg, then exact zeros, which leave Horner's scheme at a
    finite point as it was."""
    k = np.arange(1, re.shape[1], dtype=float)
    d = CArray(re[:, 1:], im[:, 1:]) * k  # int k promoted to k + 0j
    keep = k <= deg[:, None]
    return np.where(keep, d.re, 0.0), np.where(keep, d.im, 0.0)


def _coeff_scale_lanes(re, im, deg, root):
    """``_coeff_scale`` of the derivative columns at every lane: the terms
    of its first ``deg`` columns added left to right from 0.0, with libm's
    ``pow``."""
    a = abs(root)
    total = 0.0
    for k in range(re.shape[1]):
        term = abs(CArray(re[:, k], im[:, k])) * np.float_power(a, k)
        total = total + np.where(k < deg, term, 0.0)
    return total


def _stacked_solve(a, b):
    """``np.linalg.solve`` of each system a[k] x = b[k]: one stacked call,
    which gives the bits of single calls; where a system is singular, the
    systems are solved one by one and a singular one gets NaN."""
    try:
        return np.linalg.solve(a, b)[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full(b.shape[:2], np.nan, dtype=complex)
        for k in range(len(a)):
            try:
                out[k] = np.linalg.solve(a[k], b[k, :, 0])
            except np.linalg.LinAlgError:
                pass
        return out


def gauss_map(gradient: BVec3, tol=GRAD_NULL_TOL) -> CVec3:
    """Oriented unit fibre direction gamma = u x v / u^2 for grad = u + v*i2."""
    cn = gradient.cn()
    if abs(cn) <= tol * max(gradient.norm2(), 1e-300):
        raise DegeneratePointError("CN(gradient) = 0: no oriented direction")
    u, v = gradient.split()
    return CVec3(*_unit_cross(tuple(u), tuple(v), cn))


def fibre_position_via_chart(data: WeierstrassData, q: Bicomplex) -> CVec3:
    """Independent computation of the fibre position as the differential of
    inverse stereographic projection at G(q) applied to H(q)."""
    g = data.G(q)
    h = data.H(q)
    g1, g2 = g.z1, g.z2
    h1, h2 = h.z1, h.z2
    d = 1.0 + g.cn()
    cdot = 2.0 * (g1 * h1 + g2 * h2)
    return CVec3(
        -2.0 * cdot / (d * d),
        (2.0 * h1 * d - 2.0 * g1 * cdot) / (d * d),
        (2.0 * h2 * d - 2.0 * g2 * cdot) / (d * d),
    )


def xi_from_fibres(samples, tol=1e-10):
    """Reconstruct the null data from sampled fibres.

    ``samples`` is an iterable of (q, FibreDescription) with non-null line
    fibres; returns a list of (q, BVec3) with xi = (c + i2*Jc)/c^2 and
    Jc = gamma x c.  Raises InvalidInputError when a fibre passes through the
    origin (c^2 = 0), where no normalization exists.
    """
    out = []
    for q, fibre in samples:
        if fibre.tag is not FibreTag.NON_NULL_LINE:
            raise InvalidInputError("reconstruction requires non-null line fibres")
        c = fibre.base
        gamma = fibre.direction
        c2 = c.square()
        if abs(c2) <= tol * max(1e-300, c.norm() ** 2):
            raise InvalidInputError("fibre passes through the origin (c^2 = 0)")
        jc = gamma.cross(c)
        xi = BVec3.from_split(c / c2, jc / c2)
        out.append((q, xi))
    return out
