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
from typing import NamedTuple

import numpy as np

from .core import Bicomplex, CArray, I2, _make
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
    return _solutions(data, z, *_canonical_roots(data, z), grad_tol=grad_tol)


def _solutions(data: WeierstrassData, z: CVec3, fe, ff, pairs, grad_tol=1e-8):
    """``solve_phi``'s derivative step on the output of ``_canonical_roots``
    at z: each root with its implicit gradient, Laplacian and flags."""
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


# ---------------------------------------------------------------------------
# batched roots


class _Lanes(NamedTuple):
    """Points as lanes: the CVec3 fields ``congruence_components`` reads."""
    u1: CArray
    u2: CArray
    u3: CArray


def _where(mask, a: CArray, b: CArray) -> CArray:
    return CArray(np.where(mask, a.re, b.re), np.where(mask, a.im, b.im),
                  a.numpy_typed or b.numpy_typed)


def _stack(coeffs, n):
    """Real and imaginary parts, shape (n, len(coeffs)), of a coefficient
    list whose entries are lanes or constants."""
    re = np.empty((n, len(coeffs)))
    im = np.empty((n, len(coeffs)))
    for k, c in enumerate(coeffs):
        re[:, k] = c.re if isinstance(c, CArray) else c.real
        im[:, k] = c.im if isinstance(c, CArray) else c.imag
    return re, im


def _closed_form(coeffs):
    """The two roots of ``_poly_roots``' quadratic branch, numpy-typed."""
    c, b, a = coeffs
    disc = b * b - 4 * a * c
    sq = np.sqrt(disc.complex())
    sq = CArray(sq.real, sq.imag, True)
    plus = -b + sq
    minus = -b - sq
    r1 = _where(abs(plus) >= abs(minus), plus / (2 * a), minus / (2 * a))
    r2 = _where(abs(r1) > 0, c / (a * r1), minus / (2 * a))
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
    return CArray(roots.real.copy(), roots.imag.copy(), True), ok


def _polish_and_cluster(coeffs, roots):
    """``_poly_roots``' Newton step and clustering over lanes of one degree:
    (representatives, multiplicities, cluster counts, lanes whose values
    overflow and are left to the scalar path)."""
    dcoeffs = _poly_derivative(coeffs)
    d = _poly_eval(dcoeffs, roots)
    polished = _where(abs(d) > 1e-12, roots - _poly_eval(coeffs, roots) / d, roots)
    polished = CArray(polished.re, polished.im)  # complex(r): Python-typed
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
                merged = (rep * CArray(m, 0.0) + r) / CArray(m + 1.0, 0.0)
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


def _side_roots(re, im):
    """``_poly_roots`` of one side's components at every lane, grouped by
    trimmed degree.  Returns (ok, representatives, multiplicities, counts);
    ok is False on a lane left to the scalar path: a non-finite
    coefficient or value, a vanishing component (the scalar path raises),
    a failing eigvals, or ``np.roots``' real-typed all-zero case."""
    lanes, width = re.shape
    mag = np.hypot(re, im)
    ok = np.isfinite(mag).all(axis=1)
    top = np.where(ok, mag.max(axis=1), 0.0)
    ok &= top > 0.0
    kept = mag > 1e-12 * top[:, None]
    deg = np.where(ok, width - 1 - np.argmax(kept[:, ::-1], axis=1), 0)
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
                           np.concatenate([r1.im, r2.im], axis=1), True)
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
    return ok, CArray(rep_re, rep_im), mult, count


class RootBatch:
    """``_canonical_roots`` at many points in one array pass.

    Each lane reproduces the scalar path bit for bit: the components are
    built by ``congruence_components`` itself over ``CArray`` lanes, the
    roots of each side come from ``_poly_roots``' closed form or one stacked
    ``eigvals`` per trimmed degree, with its Newton step and clustering as
    masks, and the pairs are put in canonical order by ``np.lexsort``.  A
    lane whose values leave the finite range, or whose solve raises on the
    scalar path, is left to that path: ``roots`` returns None for it, and
    ``canonical`` solves it there, raising what the scalar path raises.
    """

    def __init__(self, data: WeierstrassData, points):
        self.data = data
        self.points = points
        # a lane that overflows is left to the scalar path: no numpy warning
        # of the array pass reaches the caller
        with np.errstate(all="ignore"):
            self._solve(data, points)

    def _solve(self, data, points):
        n = len(points)
        lanes = _Lanes(CArray.of([z.u1 for z in points]),
                       CArray.of([z.u2 for z in points]),
                       CArray.of([z.u3 for z in points]))
        fe, ff = congruence_components(data, lanes)
        self._fe = _stack(fe, n)
        self._ff = _stack(ff, n)
        ok_e, rep_e, mult_e, count_e = _side_roots(*self._fe)
        ok_f, rep_f, mult_f, count_f = _side_roots(*self._ff)
        ok = ok_e & ok_f
        me = max(int(count_e[ok].max(initial=0)), 1)
        mf = max(int(count_f[ok].max(initial=0)), 1)

        def flat(a):
            # pair (a, b) of e-side root a and f-side root b at a * mf + b,
            # the order of _canonical_roots' list before its sort
            return np.broadcast_to(a, (n, me, mf)).reshape(n, me * mf)

        s = rep_e[:, :me, None]
        w = rep_f[:, None, :mf]
        # Bicomplex.from_ringleb(s, w), and the sort key from its ringleb()
        z1 = (s + w) / 2.0
        z2 = 1j * (w - s) / 2.0
        ke = z1 + 1j * z2
        kf = z1 - 1j * z2
        valid = flat((np.arange(me)[:, None] < count_e[:, None, None])
                     & (np.arange(mf) < count_f[:, None, None]))
        keys = [flat(part) for part in (kf.im, kf.re, ke.im, ke.re)]
        for part in keys:
            ok &= np.isfinite(part).all(axis=1, where=valid)
        order = np.lexsort(keys + [~valid], axis=-1)
        self._q1 = CArray(*(np.take_along_axis(flat(p), order, axis=1)
                            for p in (z1.re, z1.im))).complex()
        self._q2 = CArray(*(np.take_along_axis(flat(p), order, axis=1)
                            for p in (z2.re, z2.im))).complex()
        self._ok = ok.tolist()
        self._npairs = (count_e * count_f).tolist()
        self._order = order
        self._mf = mf
        self._side_e = rep_e[:, :me], mult_e
        self._side_f = rep_f[:, :mf], mult_f

    def __len__(self):
        return len(self.points)

    def roots(self, i):
        """``solve_roots(data, points[i])``, or None when the lane is left to
        the scalar path."""
        if not self._ok[i]:
            return None
        k = self._npairs[i]
        return list(map(_make, self._q1[i, :k].tolist(), self._q2[i, :k].tolist()))

    def canonical(self, i):
        """``_canonical_roots(data, points[i])``: (fe, ff, pairs)."""
        if not self._ok[i]:
            return _canonical_roots(self.data, self.points[i])
        fe = CArray(*(part[i] for part in self._fe)).complex().tolist()
        ff = CArray(*(part[i] for part in self._ff)).complex().tolist()
        order = self._order[i, :self._npairs[i]]
        (rep_e, mult_e), (rep_f, mult_f) = self._side_e, self._side_f
        s = rep_e[i].complex().tolist()
        w = rep_f[i].complex().tolist()
        ms, mw = mult_e[i].tolist(), mult_f[i].tolist()
        pairs = []
        for q, k in zip(self.roots(i), order.tolist()):
            a, b = divmod(k, self._mf)
            pairs.append((q, s[a], ms[a], w[b], mw[b]))
        return fe, ff, pairs

    def solutions(self, i, grad_tol=1e-8):
        """``solve_phi(data, points[i])``."""
        return _solutions(self.data, self.points[i], *self.canonical(i),
                          grad_tol=grad_tol)


def gauss_map(gradient: BVec3, tol=GRAD_NULL_TOL) -> CVec3:
    """Oriented unit fibre direction gamma = u x v / u^2 for grad = u + v*i2."""
    cn = gradient.cn()
    if abs(cn) <= tol * max(gradient.norm2(), 1e-300):
        raise DegeneratePointError("CN(gradient) = 0: no oriented direction")
    u, v = gradient.split()
    w = u.cross(v) * (2.0 / cn)
    return w


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
