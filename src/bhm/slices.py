"""Real reductions: Euclidean R^3, Minkowski R^3_1 -> C, Minkowski R^3_1 -> D.

Each kind carries an embedding of the real domain into C^3 (as the i1-plane
of B^3) and a codomain projection out of B.  The bicomplex machinery is run
unchanged on embedded points; a solution belongs to the slice exactly when
its value projects, which is itself a meaningful test.

Kinds:
  EUCLIDEAN    x -> (x1, x2, x3),        codomain C via x + y*i2
  MINKOWSKI_C  x -> (x1, x2*i1, x3*i1),  codomain C via x + y*i2
  MINKOWSKI_D  x -> (x3, x1*i1, -x2),    codomain D via x + (y*i1)*i2
"""

from __future__ import annotations

from enum import Enum

from .core import Bicomplex, Hyperbolic, I1
from .errors import InvalidInputError, NotInSliceError
from .geometry import CVec3, s2c_to_q2c, S2CPoint
from .holo import HoloFn
from .verify import DEFAULT_STEP, _richardson_line, point_key, tracked_branch
from .weierstrass import WeierstrassData, solve_phi

NOT_IN_SLICE_ATOL = 1e-8


class SliceKind(str, Enum):
    EUCLIDEAN = "euclidean"
    MINKOWSKI_C = "minkowski_c"
    MINKOWSKI_D = "minkowski_d"


def _kind(k) -> SliceKind:
    if isinstance(k, SliceKind):
        return k
    return SliceKind(k)


def embed_domain(kind, x) -> CVec3:
    kind = _kind(kind)
    x1, x2, x3 = map(float, x)
    if kind is SliceKind.EUCLIDEAN:
        return CVec3(x1, x2, x3)
    if kind is SliceKind.MINKOWSKI_C:
        return CVec3(x1, x2 * 1j, x3 * 1j)
    return CVec3(x3, x1 * 1j, -x2)


def slice_data(kind, g: HoloFn, h: HoloFn) -> WeierstrassData:
    """Weierstrass data for the slice: (g, h) unchanged for Euclidean,
    (g*i1, h*i1) for both Minkowski kinds."""
    kind = _kind(kind)
    if kind is SliceKind.EUCLIDEAN:
        return WeierstrassData(g, h)
    return WeierstrassData(g * HoloFn.const(I1), h * HoloFn.const(I1))


def project_codomain(kind, q: Bicomplex, atol=NOT_IN_SLICE_ATOL):
    """Value of q in the slice codomain; raises NotInSliceError when q has
    components outside the embedded subalgebra."""
    kind = _kind(kind)
    if kind is SliceKind.MINKOWSKI_D:
        off = max(abs(q.z1.imag), abs(q.z2.real))
        if off > atol:
            raise NotInSliceError(f"value off the hyperbolic plane by {off:.3e}")
        return Hyperbolic(q.z1.real, q.z2.imag)
    off = max(abs(q.z1.imag), abs(q.z2.imag))
    if off > atol:
        raise NotInSliceError(f"value off the complex plane by {off:.3e}")
    return complex(q.z1.real, q.z2.real)


def _signature(kind):
    return (1.0, 1.0, 1.0) if _kind(kind) is SliceKind.EUCLIDEAN else (-1.0, 1.0, 1.0)


def wave_stencil(x, h=None):
    """The real point x as floats, the step h, and the 12 points at which
    ``wave_residual`` reads phi around x, in reading order: per coordinate,
    x + h, x - h, x + h/2, x - h/2."""
    x = [float(v) for v in x]
    scale = max(1.0, max(abs(v) for v in x))
    h = h if h is not None else DEFAULT_STEP * scale
    points = []
    for k in range(3):
        for step in (h, -h, 0.5 * h, -0.5 * h):
            xs = list(x)
            xs[k] += step
            points.append(xs)
    return x, h, points


def wave_residual(kind, phi, x, h=None):
    """Residuals (harmonic, null) of the wave/Laplace pair at a real point.

    ``phi`` maps a real triple to the slice codomain (complex or Hyperbolic);
    squares in the null sum are taken in that codomain.  Derivatives are
    Richardson-extrapolated central differences over (h, h/2); the two step
    scales must agree or BranchJumpError is raised.
    """
    kind = _kind(kind)
    signs = _signature(kind)
    x, h, points = wave_stencil(x, h)
    f0 = phi(x)

    lap = None
    null = None
    for k in range(3):
        d1, d2 = _richardson_line(f0, *map(phi, points[4 * k:4 * k + 4]), h)
        term_l = d2 * signs[k]
        term_n = (d1 * d1) * signs[k]
        lap = term_l if lap is None else lap + term_l
        null = term_n if null is None else null + term_n
    return abs(lap), abs(null)


def tracked_real_branch(kind, data: WeierstrassData, x0, q0: Bicomplex | None = None,
                        branch: int = 0, atol=NOT_IN_SLICE_ATOL, roots: dict | None = None):
    """Branch of the congruence that stays in the slice, as a map of real points.

    At the anchor x0 the ``branch``-th projectable root (canonical order) is
    selected unless ``q0`` is given; nearby the nearest root is used and
    projected.  Raises NotInSliceError at the anchor when no root projects.
    ``roots`` is the root table of ``verify.tracked_branch``, shared by the
    branches tracked from one point.
    """
    kind = _kind(kind)
    if q0 is None:
        anchors = projectable_roots(kind, data, x0, atol=atol, roots=roots)
        if not anchors:
            raise NotInSliceError(f"no root restricts to the slice at {x0!r}")
        q0 = anchors[branch].q

    branch_q = tracked_branch(data, embed_domain(kind, x0), q0=q0, roots=roots)

    def phi(x):
        return project_codomain(kind, branch_q(embed_domain(kind, x)), atol=atol)

    return phi


def projectable_roots(kind, data: WeierstrassData, x, atol=NOT_IN_SLICE_ATOL,
                      roots: dict | None = None):
    """Congruence solutions at the embedded point that restrict to the slice.

    When a root table is given, every root at the point, projectable or
    not, is entered in it, so branches tracked from x never solve x again.
    """
    kind = _kind(kind)
    z = embed_domain(kind, x)
    sols = solve_phi(data, z)
    if roots is not None:
        roots[point_key(z)] = [sol.q for sol in sols]
    return in_slice(kind, sols, atol)


def in_slice(kind, sols, atol=NOT_IN_SLICE_ATOL):
    """The solutions whose value projects to the slice codomain."""
    out = []
    for sol in sols:
        try:
            project_codomain(kind, sol.q, atol=atol)
        except NotInSliceError:
            continue
        out.append(sol)
    return out


def _surface_residual(kind, x):
    # defining equation of the kind's direction space
    x1, x2, x3 = x
    if kind is SliceKind.EUCLIDEAN:
        return abs(x1 * x1 + x2 * x2 + x3 * x3 - 1.0)       # S^2
    if kind is SliceKind.MINKOWSKI_C:
        return abs(-x1 * x1 + x2 * x2 + x3 * x3 + 1.0)      # H^2
    return abs(-x1 * x1 + x2 * x2 + x3 * x3 - 1.0)          # S^2_1


def slice_compactification_check(kind, directions, tol=1e-10) -> dict:
    """Embed fibre directions into the complex quadric and verify they land
    on the kind's real-form quadric (real coordinates up to the embedding's
    i1 factors, and the right signature pattern)."""
    kind = _kind(kind)
    rows = []
    worst_quadric = 0.0
    worst_real = 0.0
    for x in directions:
        x = [float(v) for v in x]
        sres = _surface_residual(kind, x)
        if sres > 1e-9:
            raise InvalidInputError(f"direction {x!r} not on the model surface "
                                    f"(residual {sres:.3e})")
        z = embed_domain(kind, x)
        p = s2c_to_q2c(S2CPoint(z.u1, z.u2, z.u3))
        # raw coordinates [1, z1, z2, z3]: the scale is already canonical
        zeta = (1.0 + 0j, z.u1, z.u2, z.u3)
        if kind is SliceKind.EUCLIDEAN:
            eta = [zeta[0].real, zeta[1].real, zeta[2].real, zeta[3].real]
            off = max(abs(c.imag) for c in zeta)
            qres = abs(eta[0] ** 2 - eta[1] ** 2 - eta[2] ** 2 - eta[3] ** 2)
        elif kind is SliceKind.MINKOWSKI_C:
            eta = [zeta[0].real, zeta[1].real, zeta[2].imag, zeta[3].imag]
            off = max(abs(zeta[0].imag), abs(zeta[1].imag),
                      abs(zeta[2].real), abs(zeta[3].real))
            qres = abs(eta[0] ** 2 - eta[1] ** 2 + eta[2] ** 2 + eta[3] ** 2)
        else:
            eta = [zeta[0].real, zeta[1].real, zeta[2].imag, zeta[3].real]
            off = max(abs(zeta[0].imag), abs(zeta[1].imag),
                      abs(zeta[2].real), abs(zeta[3].imag))
            qres = abs(eta[0] ** 2 - eta[1] ** 2 + eta[2] ** 2 - eta[3] ** 2)
        worst_quadric = max(worst_quadric, qres)
        worst_real = max(worst_real, off)
        rows.append({"x": x, "zeta": p.to_json(), "eta": eta,
                     "quadric_residual": qres, "off_real": off})
    return {
        "kind": kind.value,
        "rows": rows,
        "max_quadric_residual": worst_quadric,
        "max_off_real": worst_real,
        "ok": worst_quadric <= tol and worst_real <= tol,
    }
