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

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .core import Bicomplex, I2
from .errors import (
    DegenerateAllComponentsError,
    DegeneratePointError,
    InvalidInputError,
)
from .geometry import BVec3, CVec3
from .holo import HoloFn, poly_add, poly_coefficients, poly_mul

GRAD_NULL_TOL = 1e-9


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
    g = data.G(q)
    g2 = g * g
    return BVec3(-2 * g, 1 - g2, (1 + g2) * I2)


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
        scale = max(1.0, z.norm())
        if self.tag is FibreTag.NON_NULL_LINE:
            d = z - self.base
            r = d - self.direction * self.direction.dot(d)
            return r.norm() <= tol * scale
        if self.tag is FibreTag.DEGENERATE_PLANE:
            return abs(self.normal.dot(z) - self.offset) <= tol * scale
        return False

    def sample_points(self, params) -> list[CVec3]:
        """Points on the fibre at the given real/complex parameters."""
        if self.tag is FibreTag.NON_NULL_LINE:
            return [self.base + self.direction * t for t in params]
        if self.tag is FibreTag.DEGENERATE_PLANE:
            n = self.normal
            nbar = n.conjugate()
            z0 = nbar * (self.offset / n.dot(nbar))
            w2 = n.cross(nbar)
            return [z0 + n * t + w2 * (t * t / 4.0) for t in params]
        return []


def fibre_at(data: WeierstrassData, q: Bicomplex, degenerate_tol=1e-9) -> FibreDescription:
    """Classify and solve the congruence equation at the parameter q."""
    g = data.G(q)
    h = data.H(q)
    cn_g = g.cn()
    scale = max(1.0, g.norm2())
    if abs(cn_g + 1.0) > degenerate_tol * scale:
        xi = xi_direction(data, q)
        u, v = xi.split()
        gamma = u.cross(v) * (2.0 / xi.cn())  # u^2 = CN(xi)/2
        a = np.array([tuple(u), tuple(v), tuple(gamma)], dtype=complex)
        rhs = np.array([2 * h.z1, 2 * h.z2, 0.0], dtype=complex)
        c = np.linalg.solve(a, rhs)
        return FibreDescription(
            FibreTag.NON_NULL_LINE,
            base=CVec3(*c),
            direction=CVec3(*tuple(gamma)),
        )
    # CN(G) = -1: solvable iff H is a complex multiple of G
    g1, g2 = g.z1, g.z2
    h1, h2 = h.z1, h.z2
    normal = CVec3(1.0, g1, g2)
    if abs(h1) <= degenerate_tol and abs(h2) <= degenerate_tol:
        return FibreDescription(FibreTag.DEGENERATE_PLANE, normal=normal, offset=0j)
    k = max((g1, g2), key=abs)
    mu = (h1 / k) if k == g1 else (h2 / k)
    if max(abs(h1 - mu * g1), abs(h2 - mu * g2)) <= degenerate_tol * max(1.0, abs(h.z1), abs(h.z2)):
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

    def sort_key(self):
        return _canonical_key(self.q)


def _trim(coeffs, rtol=1e-12):
    top = max(abs(c) for c in coeffs)
    if top == 0.0:
        return []
    out = list(coeffs)
    while out and abs(out[-1]) <= rtol * top:
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
    matrix above that, one Newton polish step per root."""
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
        roots = list(np.roots(list(reversed(coeffs))))
    dcoeffs = _poly_derivative(coeffs)
    polished = []
    for r in roots:
        d = _poly_eval(dcoeffs, r)
        if abs(d) > 1e-12:
            r = r - _poly_eval(coeffs, r) / d
        polished.append(complex(r))
    # cluster for multiplicities
    scale = max(1.0, max(abs(r) for r in polished))
    out = []
    for r in polished:
        for i, (rep, m) in enumerate(out):
            if abs(r - rep) <= 1e-7 * scale:
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
    roots_e = _poly_roots(fe)
    roots_f = _poly_roots(ff)
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


def solve_phi(data: WeierstrassData, z, grad_tol=1e-8) -> list[CongruenceSolution]:
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
        residual = abs(Bicomplex.from_ringleb(_poly_eval(fe, s), _poly_eval(ff, w)))
        de = _poly_eval(dfe, s) if dfe else 0j
        df = _poly_eval(dff, w) if dff else 0j
        sol = CongruenceSolution(
            q=q, gradient=None, laplacian=None,
            multiplicity=ms * mw, residual=residual,
        )
        dscale = grad_tol * max(1.0, _coeff_scale(dfe, s), _coeff_scale(dff, w))
        e_ok = abs(de) > dscale
        f_ok = abs(df) > dscale
        if e_ok and f_ok and ms == 1 and mw == 1:
            # invert dF/dq componentwise: both parts are bounded away
            # from zero here, even when their product would trip the
            # scale-invariant zero-divisor guard
            fq_inv = Bicomplex.from_ringleb(1.0 / de, 1.0 / df)
            xi = xi_direction(data, q)
            grad = xi * (-1 * fq_inv)
            sol.gradient = grad
            n2 = grad.norm2()
            sol.degenerate = (abs(grad.cn()) <= GRAD_NULL_TOL * max(n2, 1e-300)
                              and n2 > 0)
            # second-order implicit relation, summed over coordinates:
            # F_q Phi_ii + F_qq Phi_i^2 + 2 F_{z_i q} Phi_i = 0
            g = data.G(q)
            dg = data.dG(q)
            d2g = data.d2G(q)
            d2h = data.d2H(q)
            xi_p = BVec3(-2 * dg, -2 * g * dg, (2 * g * dg) * I2)
            gdg2 = d2g * g + dg * dg
            fqq = (-2 * d2g * z.u1 - 2 * gdg2 * z.u2
                   + (2 * gdg2 * z.u3) * I2 - 2 * d2h)
            lap = Bicomplex(0.0)
            for gi, xpi in zip(grad, xi_p):
                lap = lap - (fqq * gi * gi + 2 * xpi * gi) * fq_inv
            sol.laplacian = lap
        elif e_ok != f_ok:
            sol.partially_degenerate = True
        sols.append(sol)
    return sols


def _coeff_scale(coeffs, s):
    a = abs(s)
    return sum(abs(c) * a ** k for k, c in enumerate(coeffs))


def gauss_map(gradient: BVec3, tol=GRAD_NULL_TOL) -> CVec3:
    """Oriented unit fibre direction gamma = u x v / u^2 for grad = u + v*i2."""
    cn = gradient.cn()
    if abs(cn) <= tol * max(gradient.norm2(), 1e-300):
        raise DegeneratePointError("CN(gradient) = 0: no oriented direction")
    u, v = gradient.split()
    w = u.cross(v) * (2.0 / cn)
    return w


def fibre_position(data: WeierstrassData, q: Bicomplex, fibre: FibreDescription) -> CVec3:
    """Foot of the complex perpendicular from the origin to a non-null fibre."""
    if fibre.tag is not FibreTag.NON_NULL_LINE:
        raise InvalidInputError("fibre position requires a non-null line")
    return fibre.base


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
