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
from functools import partial
from itertools import islice

import numpy as np

from .core import I_LANE, Bicomplex, CArray, HArray, Hyperbolic, I1
from .errors import InvalidInputError, NotInSliceError
from .geometry import CVec3, s2c_to_q2c, S2CPoint
from .holo import HoloFn
from .verify import DEFAULT_STEP, _richardson_lanes, _richardson_line, _solutions
from .verify import _stencil_checks, tracked_branch
from .weierstrass import WeierstrassData, _max, solve_phi

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
    x1, x2, x3 = map(float, x)
    return CVec3(*_embedding(_kind(kind), x1, x2, x3, 1j))


def _embedding(kind, x1, x2, x3, i):
    """``embed_domain``'s three coordinates of the real point (x1, x2, x3):
    floats with i = 1j, or float lanes with i = ``I_LANE``, which promotes
    them to x + 0j as CPython does."""
    if kind is SliceKind.EUCLIDEAN:
        return x1, x2, x3
    if kind is SliceKind.MINKOWSKI_C:
        return x1, x2 * i, x3 * i
    return x3, x1 * i, -x2


def _embedded(kind, x):
    """``embed_domain`` over float lanes x of shape (..., 3): CArray lanes
    of the same shape, with its bits."""
    return CArray.stack(_embedding(kind, x[..., 0], x[..., 1], x[..., 2], I_LANE))


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
    off, x, y = _projection(kind, q.z1, q.z2)
    if kind is SliceKind.MINKOWSKI_D:
        if off > atol:
            raise NotInSliceError(f"value off the hyperbolic plane by {off:.3e}")
        return Hyperbolic(x, y)
    if off > atol:
        raise NotInSliceError(f"value off the complex plane by {off:.3e}")
    return complex(x, y)


def _projection(kind, z1, z2):
    """How far z1 + z2 i2 lies off the kind's codomain, and the two parts of
    its value there, from complex scalars or complex arrays."""
    if kind is SliceKind.MINKOWSKI_D:
        return _max(abs(z1.imag), abs(z2.real)), z1.real, z2.imag
    return _max(abs(z1.imag), abs(z2.imag)), z1.real, z2.real


def _signature(kind):
    return (1.0, 1.0, 1.0) if _kind(kind) is SliceKind.EUCLIDEAN else (-1.0, 1.0, 1.0)


def wave_stencil(x, h=None):
    """The real point x as floats, the step h, and the 12 points at which
    ``wave_residual`` reads phi around x, in reading order: per coordinate,
    x + h, x - h, x + h/2, x - h/2."""
    x = [float(v) for v in x]
    h = _wave_step(*x, h)
    points = []
    for k in range(3):
        for step in _wave_offsets(h):
            xs = list(x)
            xs[k] += step
            points.append(xs)
    return x, h, points


def _wave_step(x1, x2, x3, h):
    """``wave_stencil``'s step at (x1, x2, x3), floats or float lanes: h, or
    DEFAULT_STEP times the scale max(1, max(|x1|, |x2|, |x3|))."""
    scale = _max(1.0, _max(_max(abs(x1), abs(x2)), abs(x3)))
    return h if h is not None else DEFAULT_STEP * scale


def _wave_offsets(h):
    """``wave_stencil``'s four steps along a coordinate, in reading order."""
    return h, -h, 0.5 * h, -0.5 * h


def _wave_stencils(kind, h, anchors, x):
    """``wave_stencil`` at the anchors, embedded, as lanes with its bits:
    (steps, raised, points) as ``verify._fd_stencils`` gives them, for the
    real anchors x (float lanes of shape (n, 3)); no scale raises here.
    The points are CArray lanes of shape (12 n, 3)."""
    step = np.broadcast_to(_wave_step(x[:, 0], x[:, 1], x[:, 2], h), len(x))
    xs = np.repeat(x[:, None, :], 12, axis=1)
    offsets = np.stack(_wave_offsets(step), axis=1)
    for k in range(3):
        xs[:, 4 * k:4 * k + 4, k] = x[:, k:k + 1] + offsets
    return step, np.zeros(len(x), dtype=bool), _embedded(kind, xs.reshape(-1, 3))


def wave_residual(kind, phi, x, h=None):
    """Residuals (harmonic, null) of the wave/Laplace pair at a real point.

    ``phi`` maps a real triple to the slice codomain (complex or Hyperbolic);
    squares in the null sum are taken in that codomain.  Derivatives are
    Richardson-extrapolated central differences over (h, h/2); the two step
    scales must agree or BranchJumpError is raised.
    """
    x, h, points = wave_stencil(x, h)
    return wave_report(kind, phi(x), map(phi, points), h)


def wave_report(kind, f0, values, h):
    """``wave_residual`` from phi's value f0 at x and its values at the
    points of ``wave_stencil(x)``, in reading order, read four at a time as
    ``verify.fd_report`` reads them."""
    signs = _signature(kind)
    values = iter(values)
    lines = [_richardson_line(f0, *islice(values, 4), h) for _ in range(3)]
    return _wave_sums(signs, lines)


def _wave_sums(signs, lines):
    """|harmonic| and |null| sums from the three lines' (d1, d2); squares
    are taken in the codomain, with the kind's signature ``signs``."""
    lap = None
    null = None
    for (d1, d2), sign in zip(lines, signs):
        term_l = d2 * sign
        term_n = (d1 * d1) * sign
        lap = term_l if lap is None else lap + term_l
        null = term_n if null is None else null + term_n
    return abs(lap), abs(null)


def wave_lanes(kind, z1, z2, h, atol=NOT_IN_SLICE_ATOL):
    """``wave_report(kind, project(f0), map(project, values), h)`` over
    lanes, with its bits, where ``project`` is ``project_codomain`` at atol.

    Lane r reads the branch values z1[r] + z2[r] i2 (complex arrays of
    shape (lanes, 13)): f0 first, then the values at the points of
    ``wave_stencil``, in reading order; ``h`` holds each lane's step.  The
    values are ``HArray`` lanes on Minkowski -> D and ``CArray`` lanes
    otherwise.  Returns (report, flagged), where ``report(r)`` gives lane
    r's (harmonic, null) pair: a flagged lane's pair is not valid, since the
    scalar report raises there (a value off the slice, a branch jump, an
    ``abs`` past the double range) or compares or returns a value that is
    not finite."""
    kind = _kind(kind)
    off, x, y = _projection(kind, z1, z2)
    value = HArray(x, y) if kind is SliceKind.MINKOWSKI_D else CArray(x, y)
    with np.errstate(all="ignore"):
        d1, d2, flagged = _richardson_lanes(value[:, :1], value[:, 1::4], value[:, 2::4],
                                            value[:, 3::4], value[:, 4::4], h[:, None])
        lap, null = _wave_sums(_signature(kind), [(d1[:, k], d2[:, k]) for k in range(3)])
    flagged = (flagged.any(axis=1) | (off > atol).any(axis=1)
               | ~np.isfinite(lap) | ~np.isfinite(null))

    def report(r):
        return float(lap[r]), float(null[r])

    return report, flagged


def slice_checks(kind, data: WeierstrassData, xs, h=None, atol=NOT_IN_SLICE_ATOL, fd=True):
    """``wave_residual`` at every projectable root of every real point,
    batched.

    Yields, per point x of xs in order, (x, [(sol, check), ...]) for the
    solutions of ``projectable_roots(kind, data, x, atol)``: ``check()``
    gives ``wave_residual(kind, tracked_real_branch(kind, data, x,
    q0=sol.q, atol=atol), x, h)``, with its bits, or is None where the root
    has no gradient or ``fd`` is off.  A point's solve error is raised
    after the points before it; a check raises where the reference raises
    (``BranchJumpError``, ``NotInSliceError``, a stencil point's solve
    error), when it is called.  The anchors, the stencil points and the
    ``in_slice`` test run over lanes (``verify._stencil_checks``), and a
    root that is not in the slice gets no CongruenceSolution."""
    return _solutions(_slice_roots(kind, data, xs, h, atol, fd))


def _slice_roots(kind, data, xs, h=None, atol=NOT_IN_SLICE_ATOL, fd=True):
    """``slice_checks`` with each root as ``verify._stencil_checks`` gives
    it."""
    kind = _kind(kind)

    def lanes(block):
        x = np.array(block, dtype=float)
        return x, _embedded(kind, x)

    def reference(x, q):
        return wave_residual(kind, tracked_real_branch(kind, data, x, q0=q, atol=atol), x, h)

    stencil = None
    if fd:
        stencil = (partial(_wave_stencils, kind, h), partial(wave_lanes, kind, atol=atol),
                   reference)
    return _stencil_checks(data, xs, lanes, partial(_in_slice, kind, atol=atol), stencil)


def tracked_real_branch(kind, data: WeierstrassData, x0, q0: Bicomplex | None = None,
                        branch: int = 0, atol=NOT_IN_SLICE_ATOL):
    """Branch of the congruence that stays in the slice, as a map of real points.

    At the anchor x0 the ``branch``-th projectable root (canonical order) is
    selected unless ``q0`` is given; nearby the nearest root is used and
    projected.  Raises NotInSliceError at the anchor when no root projects.
    """
    kind = _kind(kind)
    if q0 is None:
        anchors = projectable_roots(kind, data, x0, atol=atol)
        if not anchors:
            raise NotInSliceError(f"no root restricts to the slice at {x0!r}")
        q0 = anchors[branch].q

    branch_q = tracked_branch(data, embed_domain(kind, x0), q0=q0)

    def phi(x):
        return project_codomain(kind, branch_q(embed_domain(kind, x)), atol=atol)

    return phi


def projectable_roots(kind, data: WeierstrassData, x, atol=NOT_IN_SLICE_ATOL):
    """Congruence solutions at the embedded point that restrict to the slice."""
    return in_slice(kind, solve_phi(data, embed_domain(kind, x)), atol)


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


def _in_slice(kind, z1, z2, atol):
    """``in_slice``'s test as a mask over complex arrays of roots' z1 and
    z2: the roots ``project_codomain`` does not refuse, ~(off > atol), so a
    NaN offset is kept.  ``in_slice`` stays the tests' reference."""
    return ~(_projection(kind, z1, z2)[0] > atol)


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
